//! The simulator's heap footprint at the ten-million-query scale,
//! measured by a counting global allocator. It is a test binary of its
//! own so no other test's allocations are counted; ignored by default,
//! it runs in release mode beside the scale smokes:
//!
//! ```text
//! cargo test --release -p recpipe-qsim --test footprint -- --ignored scale_
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use recpipe_qsim::Scenario;

mod replay;

/// Heap bytes live now, and the most live at once since the last
/// [`peak_growth`] began. Statistics only: they publish no other data,
/// so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// The workspace denies unsafe code; an allocator cannot be written
// without it, and this one only forwards to `System`.
#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak live heap during the
/// call, less the bytes live when it began.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - before)
}

#[test]
#[ignore = "release-mode scale smoke (cargo test --release -- --ignored scale_)"]
fn scale_10m_replay_heap_stays_flat() {
    // The 10M-query replay of scale.rs, on the serial loop, on one
    // worker (both stage shards interleaved on the calling thread) and
    // on two stage-shard threads. Arrival clocks alone would take 80 MB
    // per loop, and buffering a boundary's hand-offs 240 MB; what a run
    // holds besides its in-flight work is the folded latency histogram
    // and, sharded, a hand-off chunk per boundary or, between threads,
    // the bounded channel.
    let spec = replay::two_backend_spec();
    let trace = replay::replay_trace(&spec);
    let n = replay::QUERIES;
    for workers in [None, Some(1), Some(2)] {
        let scenario = Scenario::new(&spec, &trace, n, 7);
        let scenario = match workers {
            Some(cap) => scenario.workers(cap),
            None => scenario,
        };
        let (out, growth) = peak_growth(|| scenario.run().unwrap());
        assert_eq!(out.completed, n, "workers {workers:?}");
        let mb = growth as f64 / f64::from(1 << 20);
        assert!(
            growth < 32 << 20,
            "workers {workers:?}: peak live heap grew {mb:.1} MB during the run"
        );
    }
}
