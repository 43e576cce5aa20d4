//! The repository benchmark for the dtrack crates.
//!
//! Four workloads drive the public APIs of `dtrack-core` and
//! `dtrack-sim` from outside, with every input generated by
//! `dtrack-workload` before any timer starts and every answer checked
//! against the `dtrack-sketch::exact` oracles:
//!
//! * `replay`  — single-threaded executors, eleven protocol jobs in
//!   sequence: ten on the lock-step `Runner`, one on the `EventRuntime`
//!   under loss, duplication and churn;
//! * `live`    — the threaded `ChannelRuntime`, per-element feeds, one
//!   open-loop reader;
//! * `sockets` — `SiteHalf`/`CoordHalf` over loopback TCP.
//!
//! A run repeats its workload in rounds until its time is spent and
//! reports medians over the rounds. `--trace 1` runs untraced rounds
//! for half the time and traced rounds (see [`trace`]) for the rest,
//! and reports per-layer metrics. `METRICS.md` defines every metric.

pub mod live;
pub mod replay;
pub mod sockets;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dtrack_sim::QueryHandle;

use trace::{scope, Id, Totals};

/// Tracking error parameter of every workload.
pub const EPS: f64 = 0.05;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ingest_meps", "Melem/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("words_per_kelem", "words/kelem"),
    ("bytes_per_kelem", "bytes/kelem"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Replay job ids, in run order.
pub const REPLAY_JOBS: &[&str] = &[
    "count.deterministic",
    "count.randomized",
    "count.sampling",
    "frequency.deterministic",
    "frequency.randomized",
    "rank.deterministic",
    "rank.randomized",
    "count.windowed",
    "frequency.windowed",
    "count.tree",
    "frequency.faults",
];

/// Per-layer metrics (and the end-to-end figures that are not steady
/// on every workload), printed by every traced run; 0 where the layer
/// does no work on the workload.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("drain_ms", "ms"),
        ("max_err_ratio", "ratio"),
        ("failed_share", "ratio"),
        ("machine.slowdown", "ratio"),
        ("query_samples", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("budget.wall_ms", "ms"),
        ("budget.unattributed_ms", "ms"),
        ("core.site.on_item.calls", "count"),
        ("core.site.on_item_ns", "ns"),
        ("core.site.on_message.calls", "count"),
        ("core.site.on_message_ns", "ns"),
        ("core.coord.on_message.calls", "count"),
        ("core.coord.on_message_ns", "ns"),
        ("core.window.self_ns_per_elem", "ns"),
        ("sketch.gk.insert_ns", "ns"),
        ("sketch.kll.update_ns", "ns"),
        ("sim.message.wire_bytes.calls", "count"),
        ("sim.message.wire_bytes_ns", "ns"),
        ("sim.wire.encode.calls", "count"),
        ("sim.wire.encode_ns", "ns"),
        ("sim.wire.encode_mb_s", "MB/s"),
        ("sim.wire.decode_ns", "ns"),
        ("sim.runner.self_ns_per_elem", "ns"),
        ("sim.exec.event.self_ns_per_elem", "ns"),
        ("sim.exec.event.in_flight_max", "count"),
        ("sim.exec.faults.retransmissions", "count"),
        ("sim.exec.faults.duplicates", "count"),
        ("sim.exec.faults.dup_dropped", "count"),
        ("sim.exec.faults.parked", "count"),
        ("sim.exec.faults.rerouted", "count"),
        ("sim.exec.faults.useful_ratio", "ratio"),
        ("sim.exec.topology.self_ns_per_elem", "ns"),
        ("sim.exec.topology.level1.words", "words"),
        ("sim.runtime.feed_ns_p50", "ns"),
        ("sim.runtime.feed_ns_p99", "ns"),
        ("sim.runtime.feed_stalls", "count"),
        ("sim.runtime.quiesce_sweeps", "count"),
        ("sim.runtime.words", "words"),
        ("sim.transport.send_up.calls", "count"),
        ("sim.transport.send_up_ns", "ns"),
        ("sim.transport.send_down_ns", "ns"),
        ("sim.transport.recv_wait_ms", "ms"),
        ("sim.transport.quiesce_rounds", "count"),
        ("sim.snapshot.publishes", "count"),
        ("sim.snapshot.publish_ns", "ns"),
        ("sim.snapshot.read_ns", "ns"),
        ("sim.snapshot.epochs_read_ratio", "ratio"),
        ("reader.lateness_us_p99", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for job in REPLAY_JOBS {
        v.push((format!("replay.job.{job}.meps"), "Melem/s"));
        v.push((format!("replay.job.{job}.words"), "words"));
        v.push((format!("replay.job.{job}.bytes"), "bytes"));
    }
    v
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operation and failure ledger (`failed_share` and the exit code).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Count `n` operations that did not fail.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one operation that failed.
    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    /// Count one check, failing it unless `pass`.
    pub fn check(&mut self, pass: bool, msg: impl FnOnce() -> String) {
        if pass {
            self.ok(1);
        } else {
            self.fail(msg());
        }
    }

    /// A checked answer: finite, and for a deterministic protocol within
    /// `eps·norm` of the truth. Returns `|answer − truth| / (eps·norm)`.
    pub fn answer(&mut self, what: &str, answer: f64, truth: f64, norm: f64, det: bool) -> f64 {
        let ratio = (answer - truth).abs() / (EPS * norm.max(1.0));
        // A hair of slack for the float arithmetic of the estimators.
        let pass = answer.is_finite() && (!det || ratio <= 1.0 + 1e-9);
        self.check(pass, || {
            format!("{what}: answer {answer} vs truth {truth} (err {ratio:.3}·εn)")
        });
        ratio
    }

    /// Fold another ledger (a reader thread's, say) into this one.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.messages.len());
        self.messages
            .extend(other.messages.iter().take(room).cloned());
    }

    /// A live read's epoch must never go backwards.
    pub fn epoch(&mut self, what: &str, last: &mut u64, epoch: u64) {
        self.check(epoch >= *last, || {
            format!("{what}: epoch went back from {last} to {epoch}")
        });
        *last = (*last).max(epoch);
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Time of one [`reference_kernel`] pass at nominal machine speed, ns.
///
/// The host is shared: how fast the same code runs drifts by a quarter
/// and more over minutes, with no steal time to show for it. Every
/// round of a workload is therefore followed by reference passes, and
/// the rates and the times spent computing (not waiting) that
/// [`Rounds::report`] gives are scaled to the speed at which a pass
/// takes this long (about that of a quiet 2.1 GHz Xeon).
pub const REFERENCE_NS: f64 = 1.8e6;

/// A fixed amount of bench-owned work, using none of the dtrack crates,
/// with the mix the workloads spend their time on: a seeded integer
/// stream, hash-map counting, an ordered map kept to a bounded size,
/// vector growth, a sort, and strided reads over a buffer larger than
/// the per-core caches.
pub fn reference_kernel() -> u64 {
    use std::collections::{BTreeMap, HashMap};
    thread_local! {
        static BUFFER: Vec<u64> = (0..1u64 << 19).collect();
    }
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut counts: HashMap<u64, u32> = HashMap::new();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut values = Vec::new();
    let mut acc = 0u64;
    for i in 0..14_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(x % 1_009).or_default() += 1;
        ordered.insert(x, i);
        if ordered.len() > 256 {
            ordered.pop_first();
        }
        values.push(x);
    }
    values.sort_unstable();
    BUFFER.with(|b| {
        for j in (0..b.len()).step_by(8) {
            acc = acc.wrapping_add(b[(j * 7_919) % b.len()]);
        }
    });
    acc ^ values[values.len() / 2] ^ counts.len() as u64 ^ ordered.len() as u64
}

/// How much slower than nominal the machine runs now: the median over
/// `passes` reference passes of their time ÷ [`REFERENCE_NS`].
pub fn slowdown(passes: usize) -> f64 {
    let ratios: Vec<f64> = (0..passes.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(reference_kernel());
            t.elapsed().as_nanos() as f64 / REFERENCE_NS
        })
        .collect();
    median(&ratios)
}

/// Reference passes after each round of the threaded workloads.
pub const PROBE_PASSES: usize = 5;

/// Period of the open-loop reader.
pub const READ_EVERY: Duration = Duration::from_millis(1);

/// Samples of one open-loop reader.
#[derive(Debug, Default)]
pub struct ReaderLog {
    /// Latency of each read, µs, timed from when it was due.
    pub latency_us: Vec<f64>,
    /// How late each read started, µs.
    pub lateness_us: Vec<f64>,
    /// Distinct epochs seen.
    pub epochs_seen: u64,
    pub checks: Checks,
}

/// Read `query` through `handle` every [`READ_EVERY`] until `stop`,
/// open loop: each read is timed from its due time, and reads that fell
/// behind are issued at once.
pub fn open_loop_reader<C, F>(
    handle: QueryHandle<C>,
    stop: &AtomicBool,
    traced: bool,
    what: &str,
    query: F,
) -> ReaderLog
where
    F: Fn(&C) -> Vec<f64>,
{
    let mut log = ReaderLog::default();
    let start = Instant::now();
    let mut last_epoch = 0;
    let mut prev_epoch = u64::MAX;
    let mut i: u32 = 0;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        let due = start + READ_EVERY * i;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let began = Instant::now();
        let (epoch, answers) = {
            let _s = traced.then(|| scope(Id::Read));
            handle.read(|s| (s.epoch, query(&s.state)))
        };
        let end = Instant::now();
        log.latency_us
            .push(end.duration_since(due).as_secs_f64() * 1e6);
        log.lateness_us
            .push(began.saturating_duration_since(due).as_secs_f64() * 1e6);
        log.checks.epoch(what, &mut last_epoch, epoch);
        log.checks.check(answers.iter().all(|a| a.is_finite()), || {
            format!("{what}: non-finite live answer {answers:?}")
        });
        if epoch != prev_epoch {
            log.epochs_seen += 1;
            prev_epoch = epoch;
        }
    }
    log
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reads per window of the open-loop p99 (one second at 1000 reads/s).
pub const P99_WINDOW: usize = 1000;

/// Per-round timings every workload collects.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Elements fed per round.
    pub elements: Vec<u64>,
    /// Wall time from the first feed until `quiesce` returns, per round.
    pub ingest: Vec<Duration>,
    /// Wall time from the last feed until `quiesce` returns, per round.
    pub drain: Vec<Duration>,
    /// Set-up time per round.
    pub setup: Vec<Duration>,
    /// Ingest rate per round, M elements/s, as measured.
    pub meps: Vec<f64>,
    /// [`slowdown`] measured after each round.
    pub slowdown: Vec<f64>,
    /// Live-query latencies, µs: closed-loop ones scaled to nominal
    /// speed, open-loop ones as measured (nearly all of an open-loop
    /// read's time is the reader waiting for its timer and a CPU, which
    /// does not scale with the speed of the code).
    pub query_us: Vec<f64>,
    /// Open-loop reader lateness, µs (empty for closed-loop reads).
    pub lateness_us: Vec<f64>,
    /// Words per 1000 elements, per round.
    pub words_per_kelem: Vec<f64>,
    /// Codec bytes per 1000 elements, per round.
    pub bytes_per_kelem: Vec<f64>,
    pub max_err: Vec<f64>,
    /// `VmHWM` once [`PEAK_RSS_ROUNDS`] rounds are done, MiB.
    pub peak_rss_mib: Option<f64>,
    /// Report rates and times as measured, not at nominal speed. Set by
    /// `live`: its rate is set by hand-offs between nine threads on two
    /// CPUs, not by the speed of one thread's code, and across runs it
    /// did not follow the reference passes.
    pub as_measured: bool,
}

/// Rounds after which a run reads its peak resident set. Resident
/// memory keeps growing over a run's rounds on `sockets`,
/// so a reading at the end would depend on how many rounds the time
/// allowed; after a fixed number it measures a fixed amount of work.
pub const PEAK_RSS_ROUNDS: usize = 2;

impl Rounds {
    /// Record one round's timings; `meps` is its ingest rate and
    /// `slowdown` the machine's, measured after it.
    pub fn timing(
        &mut self,
        elements: u64,
        ingest: Duration,
        drain: Duration,
        setup: Duration,
        meps: f64,
        slowdown: f64,
    ) {
        self.elements.push(elements);
        self.ingest.push(ingest);
        self.drain.push(drain);
        self.setup.push(setup);
        self.meps.push(meps);
        self.slowdown.push(slowdown);
        if self.elements.len() == PEAK_RSS_ROUNDS {
            self.peak_rss_mib = Some(peak_rss_mib());
        }
    }

    /// Median over rounds of the ingest rate at nominal speed.
    pub fn ingest_meps(&self) -> f64 {
        let v: Vec<f64> = self
            .meps
            .iter()
            .zip(&self.slowdown)
            .map(|(m, &s)| m * self.factor(s))
            .collect();
        median(&v)
    }

    /// How much faster than measured a round of slowdown `s` would have
    /// run at nominal speed.
    fn factor(&self, s: f64) -> f64 {
        if self.as_measured {
            1.0
        } else {
            s
        }
    }

    /// Median over rounds of `d` per round at nominal speed, seconds.
    fn nominal_s(&self, d: &[Duration]) -> f64 {
        let v: Vec<f64> = d
            .iter()
            .zip(&self.slowdown)
            .map(|(d, &s)| d.as_secs_f64() / self.factor(s))
            .collect();
        median(&v)
    }

    /// Elements per µs (M elements/s) of `elements` fed in `ingest`.
    pub fn rate(elements: u64, ingest: Duration) -> f64 {
        elements as f64 / ingest.as_secs_f64() / 1e6
    }

    /// Record one round's words and bytes over `elements` elements.
    pub fn cost(&mut self, words: u64, bytes: u64, elements: u64) {
        self.words_per_kelem
            .push(words as f64 * 1000.0 / elements as f64);
        self.bytes_per_kelem
            .push(bytes as f64 * 1000.0 / elements as f64);
    }

    /// Write the end-to-end figures (medians over rounds; rates and
    /// computing times at nominal speed unless `as_measured`) into `r`.
    pub fn report(&self, r: &mut Report) {
        r.set("ingest_meps", self.ingest_meps());
        r.set("query_p50_us", median(&self.query_us));
        r.set("query_p99_us", self.query_p99());
        r.set("query_samples", self.query_us.len() as f64);
        r.set("words_per_kelem", median(&self.words_per_kelem));
        r.set("bytes_per_kelem", median(&self.bytes_per_kelem));
        r.set("setup_s", self.nominal_s(&self.setup));
        r.set("drain_ms", self.nominal_s(&self.drain) * 1e3);
        r.set("machine.slowdown", median(&self.slowdown));
        if let Some(peak) = self.peak_rss_mib {
            r.set("peak_rss_mib", peak);
        }
        r.set("max_err_ratio", median(&self.max_err));
        if !self.lateness_us.is_empty() {
            r.set("reader.lateness_us_p99", quantile(&self.lateness_us, 0.99));
        }
        let per_round: Vec<String> = self.meps.iter().map(|m| format!("{m:.3}")).collect();
        r.notes.push(format!(
            "ingest Melem/s per round, as measured: {}",
            per_round.join(" ")
        ));
        let per_round: Vec<String> = self.slowdown.iter().map(|s| format!("{s:.3}")).collect();
        r.notes.push(format!(
            "machine slowdown per round (reference pass time / {} ms): {}",
            REFERENCE_NS / 1e6,
            per_round.join(" ")
        ));
        r.notes.push(format!(
            "rounds {}, query samples {}",
            self.ingest.len(),
            self.query_us.len()
        ));
        if !self.lateness_us.is_empty() {
            r.notes.push(format!(
                "open-loop reader lateness p50/p99 {:.1}/{:.1} us",
                quantile(&self.lateness_us, 0.5),
                quantile(&self.lateness_us, 0.99),
            ));
        }
    }

    /// p99 query latency. Open-loop reads (those with a lateness
    /// record) take the median over windows of [`P99_WINDOW`]
    /// consecutive reads of each window's p99 — ten reads beyond it in
    /// every window — so one stalled second moves it less than a
    /// pooled p99. Closed-loop reads pool all samples.
    fn query_p99(&self) -> f64 {
        if self.lateness_us.is_empty() || self.query_us.len() < 2 * P99_WINDOW {
            return quantile(&self.query_us, 0.99);
        }
        let per_window: Vec<f64> = self
            .query_us
            .chunks_exact(P99_WINDOW)
            .map(|w| quantile(w, 0.99))
            .collect();
        median(&per_window)
    }

    pub fn total_ingest(&self) -> Duration {
        self.ingest.iter().sum()
    }

    pub fn total_elements(&self) -> u64 {
        self.elements.iter().sum()
    }
}

/// Time budget of a run: untraced rounds use all of it, traced runs
/// split it in two halves.
pub struct Budget {
    end: Instant,
    min_rounds: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_rounds: usize) -> Self {
        Self {
            end: Instant::now() + Duration::from_secs_f64(seconds),
            min_rounds,
        }
    }

    /// Whether another round fits.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_rounds || Instant::now() < self.end
    }
}

/// Record the per-layer figures common to every traced workload, and
/// the layer budget table: per-layer self times next to the measured
/// ingest wall time.
pub fn report_layers(r: &mut Report, t: &Totals, wall: Duration, elements: u64, threaded: bool) {
    let ns = |id| t.self_ns(id) as f64;
    r.set("core.site.on_item.calls", t.calls(Id::SiteOnItem0) as f64);
    r.set("core.site.on_item_ns", t.mean_ns(Id::SiteOnItem0));
    r.set(
        "core.site.on_message.calls",
        t.calls(Id::SiteOnMessage0) as f64,
    );
    r.set("core.site.on_message_ns", t.mean_ns(Id::SiteOnMessage0));
    r.set(
        "core.coord.on_message.calls",
        t.calls(Id::CoordOnMessage0) as f64,
    );
    r.set("core.coord.on_message_ns", t.mean_ns(Id::CoordOnMessage0));
    r.set(
        "sim.message.wire_bytes.calls",
        t.calls(Id::WireBytes) as f64,
    );
    r.set("sim.message.wire_bytes_ns", t.mean_ns(Id::WireBytes));
    r.set("sim.wire.encode.calls", t.calls(Id::Encode) as f64);
    r.set("sim.wire.encode_ns", t.mean_ns(Id::Encode));
    let enc_s = t.total_ns(Id::Encode) as f64 / 1e9;
    r.set(
        "sim.wire.encode_mb_s",
        if enc_s > 0.0 {
            t.encoded_bytes as f64 / 1e6 / enc_s
        } else {
            0.0
        },
    );
    r.set("sim.wire.decode_ns", t.mean_ns(Id::Decode));
    r.set("sim.transport.send_up.calls", t.calls(Id::SendUp) as f64);
    r.set("sim.transport.send_up_ns", t.mean_ns(Id::SendUp));
    r.set("sim.transport.send_down_ns", t.mean_ns(Id::SendDown));
    r.set(
        "sim.transport.recv_wait_ms",
        t.total_ns(Id::RecvWait) as f64 / 1e6,
    );
    r.set("sim.snapshot.publishes", t.calls(Id::Publish) as f64);
    r.set("sim.snapshot.publish_ns", t.mean_ns(Id::Publish));
    r.set("sim.snapshot.read_ns", t.mean_ns(Id::Read));

    let rows: [(&str, f64); 8] = [
        ("core.site", ns(Id::SiteOnItem0) + ns(Id::SiteOnMessage0)),
        ("core.coord", ns(Id::CoordOnMessage0)),
        (
            "window/tree adapter",
            ns(Id::SiteOnItem1) + ns(Id::SiteOnMessage1) + ns(Id::CoordOnMessage1),
        ),
        ("sim.message", ns(Id::WireBytes)),
        ("sim.wire", ns(Id::Encode) + ns(Id::Decode)),
        ("sim.snapshot.publish", ns(Id::Publish)),
        ("executor (self)", ns(Id::ExecFeed) + ns(Id::ExecQuiesce)),
        (
            "sim.transport",
            ns(Id::SendUp) + ns(Id::SendDown) + ns(Id::RecvWait),
        ),
    ];
    let wall_ms = wall.as_secs_f64() * 1e3;
    let attributed: f64 = rows.iter().map(|r| r.1).sum::<f64>() / 1e6;
    r.set("budget.wall_ms", wall_ms);
    r.set("budget.unattributed_ms", wall_ms - attributed);
    r.notes.push(format!(
        "layer budget over {elements} traced elements (self time; {}):",
        if threaded {
            "layers run on several threads at once, so their sum can exceed the wall time"
        } else {
            "one thread"
        }
    ));
    r.notes.push(format!(
        "  {:<22} {:>12} {:>8}",
        "layer", "self ms", "share"
    ));
    for (name, v) in rows {
        let ms = v / 1e6;
        r.notes.push(format!(
            "  {:<22} {:>12.3} {:>7.1}%",
            name,
            ms,
            100.0 * ms / wall_ms
        ));
    }
    r.notes.push(format!(
        "  {:<22} {:>12.3} {:>7.1}%",
        "unattributed",
        wall_ms - attributed,
        100.0 * (wall_ms - attributed) / wall_ms
    ));
    r.notes.push(format!(
        "  {:<22} {:>12.3} {:>7.1}%",
        "end-to-end wall", wall_ms, 100.0
    ));
}

/// Write sampled spans as JSON lines under `benchmark/out/`.
pub fn write_spans(workload: &str, seed: u64) -> Option<String> {
    let spans = trace::take_spans();
    let dir = std::path::Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let mut s = String::with_capacity(spans.len() * 100);
    for sp in &spans {
        s.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"elem\":{}}}\n",
            sp.id, sp.parent, sp.thread, sp.name, sp.start_ns, sp.end_ns, sp.elem
        ));
    }
    std::fs::write(&path, s).ok()?;
    Some(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ))
}
