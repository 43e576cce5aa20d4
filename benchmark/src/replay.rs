//! `replay`: single-threaded executors, eleven jobs in sequence over the
//! stream shapes of `dtrack-bench`'s `measure.rs`, fed in chunks with
//! one closed-loop live query (and exact check) per chunk. Ten jobs run
//! on the lock-step `Runner`; `frequency.faults` runs the same stream
//! and protocol as `frequency.randomized` on the `EventRuntime` under
//! delay, loss, duplication and churn, so the two jobs separate
//! executor cost from protocol cost.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dtrack_core::count::{DeterministicCount, RandomizedCount};
use dtrack_core::frequency::{DeterministicFrequency, RandomizedFrequency};
use dtrack_core::rank::{DeterministicRank, RandomizedRank};
use dtrack_core::sampling::ContinuousSampling;
use dtrack_core::window::Windowed;
use dtrack_core::TrackingConfig;
use dtrack_sim::exec::{DeliveryPolicy, ExecConfig, ExecMode, FaultPlan, Tree, TreeSpec};
use dtrack_sim::{EventRuntime, Executor, Protocol, Runner, Site};
use dtrack_sketch::exact::{ExactCounts, ExactRanks};
use dtrack_sketch::{GkSummary, KllSketch};
use dtrack_workload::items::{DistinctSeq, ItemGen, ZipfItems};
use dtrack_workload::{RoundRobin, SiteAssign, UniformSites, Workload};

use crate::trace::{self, scope, Id, Traced};
use crate::{median, quantile, slowdown, Budget, Checks, Report, Rounds, EPS, REPLAY_JOBS};

/// Stream size and shape of one replay run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub k: usize,
    /// Elements per job.
    pub n: u64,
    /// Elements per `feed_batch` call (one live query after each).
    pub chunk: usize,
}

/// The benchmark's replay setting.
pub const PARAMS: Params = Params {
    k: 64,
    n: 200_000,
    chunk: 1_000,
};

/// Frequency probes: the 20 globally hottest zipf items plus 5 absent
/// ones, as in `dtrack-bench`.
fn freq_probes() -> Vec<u64> {
    (0..20u64).chain(2_000_000..2_000_005).collect()
}

/// Round-robin count stream: element `t` goes to site `t mod k`.
pub fn round_robin(k: usize, n: u64) -> Vec<(usize, u64)> {
    (0..n).map(|t| ((t % k as u64) as usize, t)).collect()
}

/// Zipf(1.1) over 10⁴ items at uniform sites.
pub fn zipf_stream(k: usize, n: u64, seed: u64) -> Vec<(usize, u64)> {
    Workload::new(
        ZipfItems::new(10_000, 1.1),
        UniformSites::new(k),
        n,
        seed ^ 0xF00D,
    )
    .map(|a| (a.site, a.item))
    .collect()
}

/// Duplicate-free round-robin rank stream.
pub fn rank_stream(k: usize, n: u64, seed: u64) -> Vec<(usize, u64)> {
    let mut items = DistinctSeq::new(seed ^ 0xBEEF);
    let mut assign = RoundRobin::new(k);
    let mut rng = dtrack_sim::rng::rng_from_seed(seed);
    (0..n)
        .map(|_| {
            let site = assign.next_site(&mut rng);
            (site, items.next_item(&mut rng))
        })
        .collect()
}

/// One job's input, with the exact answer at every chunk boundary.
pub struct JobInput {
    pub id: &'static str,
    pub batch: Vec<(usize, u64)>,
    /// Probe items / values the query asks about.
    pub probes: Vec<u64>,
    /// Exact answers after each chunk.
    pub truth: Vec<Vec<f64>>,
    /// `n` (or `W` for windowed jobs) after each chunk.
    pub norm: Vec<f64>,
    pub deterministic: bool,
    pub window: Option<u64>,
    /// Runs on the lock-step `Runner`, so every chunk boundary is a
    /// consistent cut; the `faults` job's reads lag in-flight messages
    /// and only its final answers are scored.
    pub lockstep: bool,
}

/// Generate every job's input and truth (before any timer starts).
pub fn inputs(p: Params, seed: u64) -> Vec<JobInput> {
    REPLAY_JOBS
        .iter()
        .map(|&id| job_input(id, p, seed))
        .collect()
}

fn chunk_ends(n: usize, chunk: usize) -> Vec<usize> {
    (1..=n.div_ceil(chunk))
        .map(|c| (c * chunk).min(n))
        .collect()
}

fn job_input(id: &'static str, p: Params, seed: u64) -> JobInput {
    let (family, variant) = id.split_once('.').expect("job ids are family.variant");
    let window = (variant == "windowed").then_some(p.n / 4);
    let batch = match family {
        "count" => round_robin(p.k, p.n),
        "frequency" => zipf_stream(p.k, p.n, seed),
        _ => rank_stream(p.k, p.n, seed),
    };
    let ends = chunk_ends(batch.len(), p.chunk);
    let norm = ends
        .iter()
        .map(|&t| window.unwrap_or(t as u64) as f64)
        .collect();
    let (probes, truth) = match (family, window) {
        ("count", None) => (vec![], ends.iter().map(|&t| vec![t as f64]).collect()),
        ("count", Some(w)) => (
            vec![],
            ends.iter()
                .map(|&t| vec![(t as u64).min(w) as f64])
                .collect(),
        ),
        ("frequency", None) => {
            let probes = freq_probes();
            let mut exact = ExactCounts::new();
            let mut done = 0;
            let truth = ends
                .iter()
                .map(|&t| {
                    for &(_, item) in &batch[done..t] {
                        exact.observe(item);
                    }
                    done = t;
                    probes.iter().map(|&j| exact.frequency(j) as f64).collect()
                })
                .collect();
            (probes, truth)
        }
        ("frequency", Some(w)) => {
            // Exact sliding counts of the probes over the last `w`.
            let probes = freq_probes();
            let mut inside: HashMap<u64, u64> = HashMap::new();
            let mut done = 0;
            let truth = ends
                .iter()
                .map(|&t| {
                    for i in done..t {
                        *inside.entry(batch[i].1).or_default() += 1;
                        if i >= w as usize {
                            *inside.get_mut(&batch[i - w as usize].1).expect("counted") -= 1;
                        }
                    }
                    done = t;
                    probes
                        .iter()
                        .map(|j| inside.get(j).copied().unwrap_or(0) as f64)
                        .collect()
                })
                .collect();
            (probes, truth)
        }
        _ => {
            let mut all = ExactRanks::new();
            for &(_, x) in &batch {
                all.insert(x);
            }
            let probes: Vec<u64> = (1..10)
                .map(|d| all.quantile(d as f64 / 10.0).expect("non-empty"))
                .collect();
            let mut exact = ExactRanks::new();
            let mut done = 0;
            let truth = ends
                .iter()
                .map(|&t| {
                    for &(_, x) in &batch[done..t] {
                        exact.insert(x);
                    }
                    done = t;
                    probes.iter().map(|&x| exact.rank(x) as f64).collect()
                })
                .collect();
            (probes, truth)
        }
    };
    JobInput {
        id,
        batch,
        probes,
        truth,
        norm,
        deterministic: variant == "deterministic",
        window,
        lockstep: variant != "faults",
    }
}

/// What one job run produced.
#[derive(Debug, Clone, Default)]
pub struct JobRun {
    pub setup: Duration,
    pub ingest: Duration,
    pub drain: Duration,
    pub words: u64,
    pub bytes: u64,
    /// `(epoch, answers)` read after each chunk.
    pub answers: Vec<(u64, Vec<f64>)>,
    pub query_us: Vec<f64>,
    /// Words per internal tree boundary (tree job only).
    pub levels: Vec<u64>,
    /// Answers read after the final quiesce.
    pub final_answers: Vec<f64>,
    pub msgs: u64,
    /// Event executor only: in-flight high-water mark (sampled after
    /// each chunk) and retransmissions, duplicates, dup_dropped, parked,
    /// rerouted.
    pub in_flight_max: usize,
    pub faults: [u64; 5],
}

/// The executor scenario of the `frequency.faults` job.
pub const FAULT_SCENARIO: &str = "event:random:1:8+loss:0.05+dup:0.05+churn";

fn fault_scenario() -> (DeliveryPolicy, FaultPlan) {
    let cfg: ExecConfig = FAULT_SCENARIO.parse().expect("valid scenario");
    let ExecMode::Event(policy) = cfg.mode else {
        unreachable!("the scenario is an event scenario")
    };
    (policy, cfg.faults)
}

/// The single-threaded executors replay drives, a chunk at a time.
trait Chunked<P: Protocol>: Executor<P> {
    fn feed_chunk(&mut self, chunk: &[(usize, u64)]);
    fn in_flight(&self) -> usize {
        0
    }
    fn faults(&self) -> [u64; 5] {
        [0; 5]
    }
}

impl<P: Protocol> Chunked<P> for Runner<P>
where
    P::Site: Site<Item = u64>,
{
    fn feed_chunk(&mut self, chunk: &[(usize, u64)]) {
        self.feed_batch(chunk);
    }
}

impl<P: Protocol> Chunked<P> for EventRuntime<P>
where
    P::Site: Site<Item = u64>,
{
    fn feed_chunk(&mut self, chunk: &[(usize, u64)]) {
        for &(site, item) in chunk {
            self.feed(site, item);
        }
    }
    fn in_flight(&self) -> usize {
        EventRuntime::in_flight(self)
    }
    fn faults(&self) -> [u64; 5] {
        self.fault_stats().map_or([0; 5], |f| {
            [
                f.retransmissions,
                f.duplicates,
                f.dup_dropped,
                f.parked,
                f.rerouted,
            ]
        })
    }
}

/// Build an executor, feed `batch` in chunks with a closed-loop live
/// query after each, then quiesce.
fn drive<P, E, B, Q, L>(
    proto: &P,
    build: B,
    batch: &[(usize, u64)],
    chunk: usize,
    traced: bool,
    query: Q,
    levels: L,
) -> JobRun
where
    P: Protocol,
    P::Site: Site<Item = u64>,
    P::Coord: Clone + Send + Sync + 'static,
    E: Chunked<P>,
    B: FnOnce(&P) -> E,
    Q: Fn(&P::Coord) -> Vec<f64>,
    L: Fn(&P::Coord) -> Vec<u64>,
{
    let mut run = JobRun::default();
    let t = Instant::now();
    let mut ex = build(proto);
    let handle = ex.query_handle();
    run.setup = t.elapsed();
    for c in batch.chunks(chunk) {
        let t = Instant::now();
        {
            let _s = traced.then(|| scope(Id::ExecFeed));
            ex.feed_chunk(c);
        }
        run.ingest += t.elapsed();
        run.in_flight_max = run.in_flight_max.max(Chunked::in_flight(&ex));
        let t = Instant::now();
        let read = {
            let _s = traced.then(|| scope(Id::Read));
            handle.read(|s| (s.epoch, query(&s.state)))
        };
        run.query_us.push(t.elapsed().as_secs_f64() * 1e6);
        run.answers.push(read);
    }
    let t = Instant::now();
    {
        let _s = traced.then(|| scope(Id::ExecQuiesce));
        ex.quiesce();
    }
    run.drain = t.elapsed();
    run.ingest += run.drain;
    let stats = Executor::stats(&ex);
    run.words = stats.total_words();
    run.bytes = stats.total_bytes();
    run.msgs = stats.total_msgs();
    run.faults = ex.faults();
    (run.final_answers, run.levels) = handle.read(|s| (query(&s.state), levels(&s.state)));
    run
}

/// Run one job, traced or not. The closure bodies are expanded once per
/// protocol type (plain and wrapped); traced coordinators deref to the
/// plain ones, so the same query text serves both.
macro_rules! job {
    ($traced:expr, $build:expr, $input:expr, $chunk:expr, $plain:expr, $wrapped:expr,
     |$c:ident| $q:expr $(, |$l:ident| $lv:expr)?) => {{
        let batch = &$input.batch;
        if $traced {
            drive(&$wrapped, $build, batch, $chunk, true, |$c| $q, job!(@levels $(|$l| $lv)?))
        } else {
            drive(&$plain, $build, batch, $chunk, false, |$c| $q, job!(@levels $(|$l| $lv)?))
        }
    }};
    (@levels) => { |_| Vec::new() };
    (@levels |$l:ident| $lv:expr) => { |$l| $lv };
}

/// Run one job by id.
pub fn run_job(p: Params, seed: u64, input: &JobInput, traced: bool) -> JobRun {
    let cfg = TrackingConfig::new(p.k, EPS);
    let chunk = p.chunk;
    let w = input.window.unwrap_or(0);
    let tree = TreeSpec::new(8).with_depth(2);
    let probes = &input.probes;
    macro_rules! flat {
        ($proto:expr, |$c:ident| $q:expr) => {
            job!(
                traced,
                |p| Runner::new(p, seed),
                input,
                chunk,
                $proto,
                Traced::<_, 0>($proto),
                |$c| $q
            )
        };
    }
    match input.id {
        "count.deterministic" => flat!(DeterministicCount::new(cfg), |c| vec![c.estimate()]),
        "count.randomized" => flat!(RandomizedCount::new(cfg), |c| vec![c.estimate()]),
        "count.sampling" => flat!(ContinuousSampling::new(cfg), |c| vec![c.estimate_count()]),
        "frequency.deterministic" => flat!(DeterministicFrequency::new(cfg), |c| probes
            .iter()
            .map(|&j| c.estimate_frequency(j))
            .collect()),
        "frequency.randomized" => flat!(RandomizedFrequency::new(cfg), |c| probes
            .iter()
            .map(|&j| c.estimate_frequency(j))
            .collect()),
        "rank.deterministic" => flat!(DeterministicRank::new(cfg), |c| probes
            .iter()
            .map(|&x| c.estimate_rank(x))
            .collect()),
        "rank.randomized" => flat!(RandomizedRank::new(cfg), |c| probes
            .iter()
            .map(|&x| c.estimate_rank(x))
            .collect()),
        "count.windowed" => job!(
            traced,
            |p| Runner::new(p, seed),
            input,
            chunk,
            Windowed::new(RandomizedCount::new(cfg), w),
            Traced::<_, 1>(Windowed::new(Traced::<_, 0>(RandomizedCount::new(cfg)), w)),
            |c| vec![c.windowed_count()]
        ),
        "frequency.windowed" => job!(
            traced,
            |p| Runner::new(p, seed),
            input,
            chunk,
            Windowed::new(RandomizedFrequency::new(cfg), w),
            Traced::<_, 1>(Windowed::new(
                Traced::<_, 0>(RandomizedFrequency::new(cfg)),
                w
            )),
            |c| probes.iter().map(|&j| c.windowed_frequency(j)).collect()
        ),
        "count.tree" => job!(
            traced,
            |p| Runner::new(p, seed),
            input,
            chunk,
            Tree::new(RandomizedCount::new(cfg), tree),
            Traced::<_, 1>(Tree::new(Traced::<_, 0>(RandomizedCount::new(cfg)), tree)),
            |c| vec![c.root().estimate()],
            |c| c
                .internal_loads()
                .iter()
                .map(|l| l.up_words + l.down_words)
                .collect()
        ),
        "frequency.faults" => {
            let (policy, plan) = fault_scenario();
            job!(
                traced,
                |p| EventRuntime::with_faults(p, seed, policy, plan),
                input,
                chunk,
                RandomizedFrequency::new(cfg),
                Traced::<_, 0>(RandomizedFrequency::new(cfg)),
                |c| probes.iter().map(|&j| c.estimate_frequency(j)).collect()
            )
        }
        other => panic!("unknown replay job {other}"),
    }
}

/// Check one job run's answers; returns the largest error ratio.
pub fn check_job(input: &JobInput, run: &JobRun, checks: &mut Checks) -> f64 {
    let mut worst = 0.0f64;
    let mut last_epoch = 0;
    checks.ok(run.answers.len() as u64); // the feed_batch calls
    for (i, (epoch, answers)) in run.answers.iter().enumerate() {
        checks.epoch(input.id, &mut last_epoch, *epoch);
        let what = format!("{} chunk {i}", input.id);
        if input.lockstep {
            for (a, t) in answers.iter().zip(&input.truth[i]) {
                let ratio = checks.answer(&what, *a, *t, input.norm[i], input.deterministic);
                worst = worst.max(ratio);
            }
        } else {
            checks.check(answers.iter().all(|a| a.is_finite()), || {
                format!("{what}: non-finite live answer {answers:?}")
            });
        }
    }
    let last = input.truth.len() - 1;
    for (a, t) in run.final_answers.iter().zip(&input.truth[last]) {
        let what = format!("{} final", input.id);
        let ratio = checks.answer(&what, *a, *t, input.norm[last], input.deterministic);
        worst = worst.max(ratio);
    }
    worst
}

/// Time GK and KLL updates on site 0's share of the rank stream.
fn sketch_layer(p: Params, seed: u64, r: &mut Report) {
    let share: Vec<u64> = rank_stream(p.k, p.n, seed)
        .into_iter()
        .filter(|&(s, _)| s == 0)
        .map(|(_, x)| x)
        .collect();
    let (gk, kll) = sketch_ns(&share, seed);
    r.set("sketch.gk.insert_ns", gk);
    r.set("sketch.kll.update_ns", kll);
}

/// Mean ns per GK insert and per KLL update over `values`, median of
/// five passes.
pub fn sketch_ns(values: &[u64], seed: u64) -> (f64, f64) {
    let n = values.len().max(1) as f64;
    let mut gk = Vec::new();
    let mut kll = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut s = GkSummary::new(EPS);
        for &x in values {
            s.insert(x);
        }
        std::hint::black_box(&s);
        gk.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        let mut s = KllSketch::with_error(EPS, seed);
        for &x in values {
            s.insert(x);
        }
        std::hint::black_box(&s);
        kll.push(t.elapsed().as_nanos() as f64 / n);
    }
    (median(&gk), median(&kll))
}

/// One untraced round: every job once, each followed by one reference
/// pass. Returns the runs and the median of the passes' slowdowns.
fn round(p: Params, seed: u64, inputs: &[JobInput]) -> (Vec<JobRun>, f64) {
    let mut slow = Vec::new();
    let runs = inputs
        .iter()
        .map(|i| {
            let run = run_job(p, seed, i, false);
            slow.push(slowdown(1));
            run
        })
        .collect();
    (runs, median(&slow))
}

/// The `replay` workload.
pub fn run(seed: u64, seconds: f64, traced: bool, r: &mut Report) {
    let p = PARAMS;
    let inputs = inputs(p, seed);
    let mut rounds = Rounds::default();
    // Per job, at nominal speed: ingest rate per round, and every query
    // time.
    let mut job_meps: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut job_query_us: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let untraced_budget = if traced { seconds / 2.0 } else { seconds };
    let budget = Budget::new(untraced_budget, 2);
    let mut reference: Option<Vec<JobRun>> = None;
    while budget.more(rounds.ingest.len()) {
        let (runs, slow) = round(p, seed, &inputs);
        record(&inputs, &runs, slow, &mut rounds, &mut r.checks);
        for (j, run) in runs.iter().enumerate() {
            job_meps[j].push(Rounds::rate(p.n, run.ingest) * slow);
            job_query_us[j].extend(run.query_us.iter().map(|q| q / slow));
        }
        reference.get_or_insert(runs);
    }
    if !traced {
        report(&rounds, &job_query_us, r);
        return;
    }
    // Traced phase: the first traced round must match the untraced one
    // bit for bit.
    let untraced_meps = rounds.ingest_meps();
    report(&rounds, &job_query_us, r);
    for (j, run) in reference.as_ref().expect("one round").iter().enumerate() {
        r.set(
            &format!("replay.job.{}.words", inputs[j].id),
            run.words as f64,
        );
        r.set(
            &format!("replay.job.{}.bytes", inputs[j].id),
            run.bytes as f64,
        );
        r.set(
            &format!("replay.job.{}.meps", inputs[j].id),
            median(&job_meps[j]),
        );
    }
    trace::reset();
    let mut traced_rounds = Rounds::default();
    let budget = Budget::new(seconds / 2.0, 1);
    let mut job_totals = vec![trace::Totals::default(); inputs.len()];
    let mut first = true;
    while budget.more(traced_rounds.ingest.len()) {
        let mut runs = Vec::new();
        let mut slow = Vec::new();
        for (j, input) in inputs.iter().enumerate() {
            let before = totals_now();
            runs.push(run_job(p, seed, input, true));
            job_totals[j].add(&totals_now().since(&before));
            slow.push(slowdown(1));
        }
        if first {
            compare_traced(&inputs, reference.as_ref().expect("one round"), &runs, r);
            first = false;
        }
        record(
            &inputs,
            &runs,
            median(&slow),
            &mut traced_rounds,
            &mut r.checks,
        );
    }
    trace::flush();
    let t = trace::totals();
    r.set(
        "trace.overhead_ratio",
        traced_rounds.ingest_meps() / untraced_meps,
    );
    let elements = traced_rounds.total_elements();
    crate::report_layers(r, &t, traced_rounds.total_ingest(), elements, false);
    let n_rounds = traced_rounds.ingest.len() as f64;
    let reference = reference.as_ref().expect("one round");
    let job = |id: &str| {
        REPLAY_JOBS
            .iter()
            .position(|&j| j == id)
            .expect("known job")
    };
    let exec_ns =
        |tt: &trace::Totals| (tt.self_ns(Id::ExecFeed) + tt.self_ns(Id::ExecQuiesce)) as f64;
    // Executor self time per element: the runner's over its ten jobs,
    // the event executor's (with its fault layer) over its one.
    let faults_j = job("frequency.faults");
    let runner_ns: f64 = (0..inputs.len())
        .filter(|&j| j != faults_j)
        .map(|j| exec_ns(&job_totals[j]))
        .sum();
    r.set(
        "sim.runner.self_ns_per_elem",
        runner_ns / ((inputs.len() - 1) as f64 * p.n as f64 * n_rounds),
    );
    r.set(
        "sim.exec.event.self_ns_per_elem",
        exec_ns(&job_totals[faults_j]) / (p.n as f64 * n_rounds),
    );
    let f = &reference[faults_j];
    r.set("sim.exec.event.in_flight_max", f.in_flight_max as f64);
    let names = [
        "sim.exec.faults.retransmissions",
        "sim.exec.faults.duplicates",
        "sim.exec.faults.dup_dropped",
        "sim.exec.faults.parked",
        "sim.exec.faults.rerouted",
    ];
    for (name, v) in names.iter().zip(f.faults) {
        r.set(name, v as f64);
    }
    let attempts = f.msgs + f.faults[0] + f.faults[1];
    r.set(
        "sim.exec.faults.useful_ratio",
        f.msgs as f64 / attempts.max(1) as f64,
    );
    let wrapper_ns = |tt: &trace::Totals| {
        (tt.self_ns(Id::SiteOnItem1)
            + tt.self_ns(Id::SiteOnMessage1)
            + tt.self_ns(Id::CoordOnMessage1)) as f64
    };
    let win: Vec<usize> = (0..inputs.len())
        .filter(|&j| inputs[j].window.is_some())
        .collect();
    let win_ns: f64 = win.iter().map(|&j| wrapper_ns(&job_totals[j])).sum();
    r.set(
        "core.window.self_ns_per_elem",
        win_ns / (win.len() as f64 * p.n as f64 * n_rounds),
    );
    let tree_j = job("count.tree");
    r.set(
        "sim.exec.topology.self_ns_per_elem",
        wrapper_ns(&job_totals[tree_j]) / (p.n as f64 * n_rounds),
    );
    let levels = &reference[tree_j].levels;
    r.set(
        "sim.exec.topology.level1.words",
        levels.first().copied().unwrap_or(0) as f64,
    );
    sketch_layer(p, seed, r);
}

fn totals_now() -> trace::Totals {
    trace::flush();
    trace::totals()
}

/// Geometric mean over jobs of each job's `q`-quantile query time: the
/// jobs ask different questions, so a pooled quantile would sit on the
/// boundary between two jobs' latency ranges (p50) or inside the
/// single slowest job (p99), and a median over jobs would be one job's
/// figure, which moves with the seed.
fn job_quantile(job_query_us: &[Vec<f64>], q: f64) -> f64 {
    let logs: f64 = job_query_us.iter().map(|v| quantile(v, q).ln()).sum();
    (logs / job_query_us.len() as f64).exp()
}

/// Write the end-to-end figures, with replay's per-job query quantiles.
fn report(rounds: &Rounds, job_query_us: &[Vec<f64>], r: &mut Report) {
    rounds.report(r);
    r.set("query_p50_us", job_quantile(job_query_us, 0.5));
    r.set("query_p99_us", job_quantile(job_query_us, 0.99));
}

fn record(
    inputs: &[JobInput],
    runs: &[JobRun],
    slowdown: f64,
    rounds: &mut Rounds,
    checks: &mut Checks,
) {
    let mut worst = 0.0f64;
    for (input, run) in inputs.iter().zip(runs) {
        worst = worst.max(check_job(input, run, checks));
        rounds
            .query_us
            .extend(run.query_us.iter().map(|q| q / slowdown));
    }
    // Geometric mean over the jobs of each job's rate (and of its cost
    // per 1000 elements, below): every job moves it, where totals would
    // be the slow rank and windowed jobs' alone, and rank.deterministic's
    // words and work vary ±10% with the seed.
    let n = inputs[0].batch.len() as u64;
    let geomean = |f: &dyn Fn(&JobRun) -> f64| {
        let logs: f64 = runs.iter().map(|r| f(r).ln()).sum();
        (logs / runs.len() as f64).exp()
    };
    rounds.timing(
        runs.len() as u64 * n,
        runs.iter().map(|r| r.ingest).sum(),
        runs.iter().map(|r| r.drain).sum(),
        runs.iter().map(|r| r.setup).sum(),
        geomean(&|r| Rounds::rate(n, r.ingest)),
        slowdown,
    );
    let per_kelem = |v: u64| v as f64 * 1000.0 / n as f64;
    rounds
        .words_per_kelem
        .push(geomean(&|r| per_kelem(r.words)));
    rounds
        .bytes_per_kelem
        .push(geomean(&|r| per_kelem(r.bytes)));
    rounds.max_err.push(worst);
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Tracing must change nothing: words, bytes and every answer of the
/// traced round equal the untraced round's, bit for bit.
fn compare_traced(inputs: &[JobInput], plain: &[JobRun], traced: &[JobRun], r: &mut Report) {
    for ((input, a), b) in inputs.iter().zip(plain).zip(traced) {
        let same_answers = a.answers.len() == b.answers.len()
            && a.answers.iter().zip(&b.answers).all(|((_, x), (_, y))| {
                x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
            });
        r.checks.check(
            a.words == b.words
                && a.bytes == b.bytes
                && same_answers
                && a.levels == b.levels
                && a.faults == b.faults
                && bits(&a.final_answers) == bits(&b.final_answers),
            || {
                format!(
                    "{}: traced run differs (words {} vs {}, bytes {} vs {}, answers equal: {same_answers})",
                    input.id, a.words, b.words, a.bytes, b.bytes
                )
            },
        );
    }
}
