//! `live`: the threaded `ChannelRuntime` with `RandomizedCount`, fed one
//! element per `Executor::feed` call while one open-loop reader reads
//! the count estimate 1000 times a second.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dtrack_core::count::{RandCountCoord, RandomizedCount};
use dtrack_core::TrackingConfig;
use dtrack_sim::runtime::ChannelRuntime;
use dtrack_sim::{Protocol, Site};

use crate::replay::round_robin;
use crate::trace::{self, scope, Id, TCoord, Traced};
use crate::{
    median, open_loop_reader, quantile, slowdown, Budget, Checks, ReaderLog, Report, Rounds, EPS,
    PROBE_PASSES,
};

/// Sites.
pub const K: usize = 8;
/// Elements per round.
pub const N: u64 = 2_000_000;
/// A feed that takes longer than this counts as a stall (waiting on
/// credit or a full ring).
const STALL: Duration = Duration::from_micros(50);
/// What one round produced.
#[derive(Debug, Default)]
struct RoundRun {
    setup: Duration,
    ingest: Duration,
    drain: Duration,
    words: u64,
    bytes: u64,
    estimate: f64,
    sweeps: u32,
    feed_ns: Vec<f64>,
    stalls: u64,
    reader: ReaderLog,
}

fn round<P, Q>(proto: &P, seed: u64, batch: &[(usize, u64)], traced: bool, query: &Q) -> RoundRun
where
    P: Protocol,
    P::Site: Site<Item = u64> + Send + 'static,
    P::Coord: Clone + Send + Sync + 'static,
    <P::Site as Site>::Up: Send + 'static,
    <P::Site as Site>::Down: Send + 'static,
    Q: Fn(&P::Coord) -> Vec<f64> + Sync,
{
    let mut run = RoundRun::default();
    let t = Instant::now();
    let mut rt = ChannelRuntime::new(proto, seed);
    let handle = rt.query_handle();
    run.setup = t.elapsed();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| open_loop_reader(handle, &stop, traced, "live", query));
        let t0 = Instant::now();
        if traced {
            // One clock read per feed: each feed ends where the next
            // begins.
            let _s = scope(Id::ExecFeed);
            let mut prev = Instant::now();
            for (i, &(site, item)) in batch.iter().enumerate() {
                rt.feed(site, item);
                let now = Instant::now();
                let d = now - prev;
                prev = now;
                if d > STALL {
                    run.stalls += 1;
                }
                if i % 8 == 0 {
                    run.feed_ns.push(d.as_nanos() as f64);
                }
            }
        } else {
            for &(site, item) in batch {
                rt.feed(site, item);
            }
        }
        let t1 = Instant::now();
        run.sweeps = {
            let _s = traced.then(|| scope(Id::ExecQuiesce));
            rt.quiesce()
        };
        let t2 = Instant::now();
        run.ingest = t2 - t0;
        run.drain = t2 - t1;
        stop.store(true, Ordering::Relaxed);
        run.reader = reader.join().expect("reader thread panicked");
    });
    let stats = rt.stats();
    run.words = stats.total_words();
    run.bytes = stats.total_bytes();
    run.estimate = rt.query_handle().read(|s| query(&s.state)[0]);
    drop(rt);
    run
}

/// The `live` workload.
pub fn run(seed: u64, seconds: f64, traced: bool, r: &mut Report) {
    let proto = RandomizedCount::new(TrackingConfig::new(K, EPS));
    let batch = round_robin(K, N);
    let mut rounds = Rounds {
        as_measured: true,
        ..Rounds::default()
    };
    let budget = Budget::new(if traced { seconds / 2.0 } else { seconds }, 2);
    let mut words = Vec::new();
    let mut sweeps = Vec::new();
    while budget.more(rounds.ingest.len()) {
        let run = round(&proto, seed, &batch, false, &|c: &RandCountCoord| {
            vec![c.estimate()]
        });
        words.push(run.words as f64);
        sweeps.push(run.sweeps as f64);
        record(&run, slowdown(PROBE_PASSES), &mut rounds, &mut r.checks);
    }
    rounds.report(r);
    r.set("sim.runtime.words", median(&words));
    r.set("sim.runtime.quiesce_sweeps", median(&sweeps));
    if !traced {
        return;
    }
    let untraced_meps = rounds.ingest_meps();
    trace::reset();
    let wrapped = Traced::<_, 0>(proto);
    let mut traced_rounds = Rounds {
        as_measured: true,
        ..Rounds::default()
    };
    let mut feed_ns = Vec::new();
    let mut stalls = 0;
    let mut epochs = 0;
    let budget = Budget::new(seconds / 2.0, 1);
    while budget.more(traced_rounds.ingest.len()) {
        let run = round(&wrapped, seed, &batch, true, &|c: &TCoord<
            RandCountCoord,
            0,
        >| {
            vec![c.estimate()]
        });
        feed_ns.extend(&run.feed_ns);
        stalls += run.stalls;
        epochs += run.reader.epochs_seen;
        record(
            &run,
            slowdown(PROBE_PASSES),
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
    crate::report_layers(
        r,
        &t,
        traced_rounds.total_ingest(),
        traced_rounds.total_elements(),
        true,
    );
    r.set("sim.runtime.feed_ns_p50", quantile(&feed_ns, 0.5));
    r.set("sim.runtime.feed_ns_p99", quantile(&feed_ns, 0.99));
    r.set("sim.runtime.feed_stalls", stalls as f64);
    r.set(
        "sim.snapshot.epochs_read_ratio",
        epochs as f64 / t.calls(Id::Publish).max(1) as f64,
    );
}

fn record(run: &RoundRun, slowdown: f64, rounds: &mut Rounds, checks: &mut Checks) {
    checks.ok(N); // the feed calls
    let reader = &run.reader;
    checks.absorb(&reader.checks);
    // Randomized count: the error is reported, not failed on.
    let err = checks.answer("live final count", run.estimate, N as f64, N as f64, false);
    rounds.timing(
        N,
        run.ingest,
        run.drain,
        run.setup,
        Rounds::rate(N, run.ingest),
        slowdown,
    );
    rounds.cost(run.words, run.bytes, N);
    rounds.max_err.push(err);
    rounds.query_us.extend(&reader.latency_us);
    rounds.lateness_us.extend(&reader.lateness_us);
}
