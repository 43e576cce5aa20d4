//! Sizing a message for the byte ledger allocates nothing.
//!
//! Every executor charges [`Words::wire_bytes`] on every message, and
//! for codec messages that is `wire::measured`, which runs the
//! message's `Encode` impl into a counting writer. This binary installs
//! a counting global allocator and asserts that sizing the heaviest
//! messages — GK and KLL summary refreshes, a frequency counter update,
//! and a windowed wrapper around each — performs zero heap allocations.
//!
//! The counter is thread-local, so allocations by the test harness or
//! by tests running in parallel on other threads are never counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dtrack_core::frequency::FreqUp;
use dtrack_core::rank::{DetRankUp, RankUp};
use dtrack_core::window::WinUp;
use dtrack_sim::wire::encode_to_vec;
use dtrack_sim::{Encode, Words};
use dtrack_sketch::gk::GkTuple;
use dtrack_sketch::KllSummary;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the only addition
// is a thread-local counter bump, which neither allocates nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread performs while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Asserts `v.wire_bytes()` is allocation-free and equals the length
/// of a real encoding, which must itself allocate (so the counter is
/// known to be live).
fn assert_sizing_allocates_nothing<T: Words + Encode + std::fmt::Debug>(what: &str, v: &T) {
    let (bytes, allocs) = allocs_during(|| std::hint::black_box(v).wire_bytes());
    assert_eq!(allocs, 0, "sizing {what} allocated {allocs} times");
    let (encoded, encode_allocs) = allocs_during(|| encode_to_vec(v));
    assert!(encode_allocs > 0, "allocation counter is not counting");
    assert_eq!(
        bytes,
        encoded.len() as u64,
        "{what}: size != encoded length"
    );
}

fn gk_summary(tuples: u64) -> DetRankUp {
    DetRankUp::Summary {
        round: 3,
        n_local: 50_000,
        tuples: (0..tuples)
            .map(|i| GkTuple {
                v: 1_000 + 37 * i,
                g: 1 + i % 5,
                delta: i % 40,
            })
            .collect(),
    }
}

fn kll_summary() -> RankUp {
    RankUp::Summary {
        chunk: 7,
        level: 2,
        summary: KllSummary {
            levels: (0..6u64)
                .map(|l| (0..(200 >> l)).map(|i| 10_000 * l + 11 * i).collect())
                .collect(),
            n: 123_456,
        },
    }
}

#[test]
fn sizing_a_gk_summary_allocates_nothing() {
    assert_sizing_allocates_nothing("DetRankUp::Summary", &gk_summary(1_500));
}

#[test]
fn sizing_a_multi_level_kll_summary_allocates_nothing() {
    assert_sizing_allocates_nothing("RankUp::Summary", &kll_summary());
}

#[test]
fn sizing_a_counter_update_allocates_nothing() {
    assert_sizing_allocates_nothing(
        "FreqUp::CounterUpdate",
        &FreqUp::CounterUpdate(u64::MAX / 3, 1 << 40),
    );
}

#[test]
fn sizing_a_windowed_wrapper_allocates_nothing() {
    assert_sizing_allocates_nothing(
        "WinUp::Inner(DetRankUp::Summary)",
        &WinUp::Inner {
            epoch: 9,
            msg: gk_summary(1_000),
        },
    );
    assert_sizing_allocates_nothing(
        "WinUp::Inner(RankUp::Summary)",
        &WinUp::Inner {
            epoch: 1 << 20,
            msg: kll_summary(),
        },
    );
}
