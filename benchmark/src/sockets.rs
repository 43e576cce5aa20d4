//! `sockets`: `k` `SiteHalf<_, TcpSiteLink>` and one
//! `CoordHalf<_, TcpCoordLink>` on loopback in one process, running
//! `DeterministicRank` over the `scenarios::drifting` trace. The driver
//! feeds every site half; the coordinator pumps until end of stream,
//! then quiesces; one open-loop reader asks for the 9 decile ranks
//! 1000 times a second.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dtrack_core::rank::{DetRankCoord, DeterministicRank};
use dtrack_core::TrackingConfig;
use dtrack_sim::transport::{CoordLink, SiteLink};
use dtrack_sim::{CoordHalf, Decode, Encode, Protocol, Site, SiteHalf, TcpCoordLink, TcpSiteLink};
use dtrack_sketch::exact::ExactRanks;
use dtrack_workload::scenarios;

use crate::trace::{self, scope, Id, TCoord, TCoordLink, TSiteLink, Traced};
use crate::{
    median, open_loop_reader, slowdown, Budget, Checks, ReaderLog, Report, Rounds, EPS,
    PROBE_PASSES,
};

/// Sites.
pub const K: usize = 4;
/// Elements per round.
pub const N: u64 = 1_000_000;
/// Hot-set phases of the drifting trace.
const PHASES: u64 = 8;

/// What one round produced.
#[derive(Debug, Default)]
struct RoundRun {
    setup: Duration,
    ingest: Duration,
    drain: Duration,
    words: u64,
    bytes: u64,
    answers: Vec<f64>,
    quiesce_rounds: u32,
    reader: ReaderLog,
    errors: Vec<String>,
}

/// One round over loopback TCP. `wrap_site`/`wrap_coord` put the
/// tracing link wrappers in place (identity when untraced).
fn round<P, Q, SL, CL>(
    proto: &P,
    seed: u64,
    batch: &[(usize, u64)],
    traced: bool,
    query: &Q,
    wrap_site: impl Fn(TcpSiteLink<<P::Site as Site>::Up, <P::Site as Site>::Down>) -> SL,
    wrap_coord: impl FnOnce(TcpCoordLink<<P::Site as Site>::Up, <P::Site as Site>::Down>) -> CL,
) -> io::Result<RoundRun>
where
    P: Protocol,
    P::Site: Site<Item = u64> + Send,
    P::Coord: Clone + Send + Sync + 'static,
    <P::Site as Site>::Up: Encode + Decode + Send + 'static,
    <P::Site as Site>::Down: Encode + Decode + Send + 'static,
    SL: SiteLink<<P::Site as Site>::Up, <P::Site as Site>::Down> + Send,
    CL: CoordLink<<P::Site as Site>::Up, <P::Site as Site>::Down> + Send,
    Q: Fn(&P::Coord) -> Vec<f64> + Sync,
{
    let mut run = RoundRun::default();
    let t = Instant::now();
    let (sites, coord) = proto.build(seed);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut halves = Vec::with_capacity(K);
    for (id, site) in sites.into_iter().enumerate() {
        halves.push(SiteHalf::new(
            site,
            wrap_site(TcpSiteLink::connect(addr, id)?),
        ));
    }
    let link = wrap_coord(TcpCoordLink::accept(&listener, K)?);
    let mut coord_half = CoordHalf::new(coord, link);
    let handle = coord_half.query_handle();
    run.setup = t.elapsed();

    let stop = AtomicBool::new(false);
    // The coordinator half stays on this thread (its snapshot publisher
    // is not `Send`); a driver thread feeds the site halves.
    let result: io::Result<()> = std::thread::scope(|s| {
        let reader = s.spawn(|| open_loop_reader(handle, &stop, traced, "sockets", query));
        let t0 = Instant::now();
        let driver = s.spawn(move || {
            let fed: io::Result<()> = (|| {
                let _s = traced.then(|| scope(Id::ExecFeed));
                for &(site, item) in batch {
                    halves[site].feed(&item)?;
                }
                for h in &mut halves {
                    h.finish_stream()?;
                }
                Ok(())
            })();
            let t1 = Instant::now();
            // The sites answer quiesce probes until the coordinator
            // stops them.
            let servers: Vec<_> = halves
                .into_iter()
                .map(|mut h| s.spawn(move || h.run_until_stop()))
                .collect();
            let errors: Vec<String> = servers
                .into_iter()
                .filter_map(|srv| srv.join().expect("site thread panicked").err())
                .map(|e| format!("site half: {e}"))
                .collect();
            (fed, t1, errors)
        });
        let coord: io::Result<(u32, Instant)> = (|| {
            coord_half.pump_until_eos()?;
            let rounds = {
                let _s = traced.then(|| scope(Id::ExecQuiesce));
                coord_half.quiesce()?
            };
            let done = Instant::now();
            run.answers = query(coord_half.coord());
            let stats = coord_half.stats();
            run.words = stats.total_words();
            run.bytes = stats.total_bytes();
            Ok((rounds, done))
        })();
        // Stop the sites even after an error, then close the links, so
        // the driver's site threads finish.
        let stopped = coord_half.stop();
        drop(coord_half);
        let (fed, t1, errors) = driver.join().expect("driver thread panicked");
        stop.store(true, Ordering::Relaxed);
        run.reader = reader.join().expect("reader thread panicked");
        fed?;
        let (rounds, done) = coord?;
        stopped?;
        run.ingest = done - t0;
        run.drain = done.saturating_duration_since(t1);
        run.quiesce_rounds = rounds;
        run.errors = errors;
        Ok(())
    });
    result.map(|()| run)
}

/// The drifting trace and the exact ranks of its deciles.
fn input(seed: u64) -> (Vec<(usize, u64)>, Vec<u64>, Vec<f64>) {
    let batch: Vec<(usize, u64)> = scenarios::drifting(K, N, PHASES, seed)
        .map(|a| (a.site, a.item))
        .collect();
    let mut exact = ExactRanks::new();
    for &(_, x) in &batch {
        exact.insert(x);
    }
    let probes: Vec<u64> = (1..10)
        .map(|d| exact.quantile(d as f64 / 10.0).expect("non-empty"))
        .collect();
    let truth = probes.iter().map(|&x| exact.rank(x) as f64).collect();
    (batch, probes, truth)
}

/// The `sockets` workload.
pub fn run(seed: u64, seconds: f64, traced: bool, r: &mut Report) {
    let proto = DeterministicRank::new(TrackingConfig::new(K, EPS));
    let (batch, probes, truth) = input(seed);
    let mut rounds = Rounds::default();
    let mut qrounds = Vec::new();
    let budget = Budget::new(if traced { seconds / 2.0 } else { seconds }, 2);
    let plain_query = |c: &DetRankCoord| probes.iter().map(|&x| c.estimate_rank(x)).collect();
    while budget.more(rounds.ingest.len()) {
        let run = round(&proto, seed, &batch, false, &plain_query, |l| l, |l| l);
        let slow = slowdown(PROBE_PASSES);
        if !record(run, slow, &truth, &mut rounds, &mut r.checks, &mut qrounds) {
            return;
        }
    }
    rounds.report(r);
    r.set("sim.transport.quiesce_rounds", median(&qrounds));
    if !traced {
        return;
    }
    let untraced_meps = rounds.ingest_meps();
    trace::reset();
    let wrapped = Traced::<_, 0>(proto);
    let traced_query =
        |c: &TCoord<DetRankCoord, 0>| probes.iter().map(|&x| c.estimate_rank(x)).collect();
    let mut traced_rounds = Rounds::default();
    let mut epochs = 0;
    let budget = Budget::new(seconds / 2.0, 1);
    while budget.more(traced_rounds.ingest.len()) {
        let run = round(
            &wrapped,
            seed,
            &batch,
            true,
            &traced_query,
            TSiteLink,
            TCoordLink,
        );
        if let Ok(run) = &run {
            epochs += run.reader.epochs_seen;
        }
        if !record(
            run,
            slowdown(PROBE_PASSES),
            &truth,
            &mut traced_rounds,
            &mut r.checks,
            &mut Vec::new(),
        ) {
            break;
        }
    }
    trace::flush();
    let t = trace::totals();
    r.set(
        "trace.overhead_ratio",
        traced_rounds.ingest_meps() / untraced_meps,
    );
    crate::report_layers(
        r,
        &t,
        traced_rounds.total_ingest(),
        traced_rounds.total_elements(),
        true,
    );
    r.set(
        "sim.snapshot.epochs_read_ratio",
        epochs as f64 / t.calls(Id::Publish).max(1) as f64,
    );
    // GK updates replayed on site 0's share of the trace.
    let share: Vec<u64> = batch.iter().filter(|a| a.0 == 0).map(|a| a.1).collect();
    let (gk, kll) = crate::replay::sketch_ns(&share, seed);
    r.set("sketch.gk.insert_ns", gk);
    r.set("sketch.kll.update_ns", kll);
}

/// Record a round; returns false (after counting the failure) when the
/// round hit an I/O error.
fn record(
    run: io::Result<RoundRun>,
    slowdown: f64,
    truth: &[f64],
    rounds: &mut Rounds,
    checks: &mut Checks,
    qrounds: &mut Vec<f64>,
) -> bool {
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            checks.fail(format!("sockets round: {e}"));
            return false;
        }
    };
    checks.ok(N + K as u64); // feed and finish_stream calls
    for e in &run.errors {
        checks.fail(e.clone());
    }
    let reader = &run.reader;
    checks.absorb(&reader.checks);
    let mut worst = 0.0f64;
    for (i, (&a, &t)) in run.answers.iter().zip(truth).enumerate() {
        let what = format!("sockets decile {}", i + 1);
        worst = worst.max(checks.answer(&what, a, t, N as f64, true));
    }
    checks.check(run.answers.len() == truth.len(), || {
        "sockets: missing decile answers".into()
    });
    rounds.timing(
        N,
        run.ingest,
        run.drain,
        run.setup,
        Rounds::rate(N, run.ingest),
        slowdown,
    );
    rounds.cost(run.words, run.bytes, N);
    rounds.max_err.push(worst);
    rounds.query_us.extend(&reader.latency_us);
    rounds.lateness_us.extend(&reader.lateness_us);
    qrounds.push(run.quiesce_rounds as f64);
    true
}
