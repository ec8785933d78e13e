//! Release-mode scale smokes, ignored by default.
//!
//! These drive the simulator at the million-query scale the sharded
//! loop and the folded latency histogram exist for; they are far too
//! slow for the debug-mode tier-1 suite. CI runs them in their own job
//! with:
//!
//! ```text
//! cargo test --release -p recpipe-qsim -- --ignored scale_
//! ```

use recpipe_qsim::{ExpectedWait, Scenario};

mod replay;

use replay::{synthetic_trace, two_backend_spec};

#[test]
#[ignore = "release-mode scale smoke (cargo test --release -- --ignored scale_)"]
fn scale_10m_query_trace_replay_completes_in_bounded_memory() {
    let spec = two_backend_spec();
    let trace = replay::replay_trace(&spec);
    let n = replay::QUERIES;
    let start = std::time::Instant::now();
    let mut out = Scenario::new(&spec, &trace, n, 7).workers(0).run().unwrap();
    let elapsed = start.elapsed();
    assert_eq!(out.completed, n);
    assert!(!out.saturated, "offered load was set below capacity");
    // The latency sink must have folded into the fixed histogram. With
    // streamed arrivals, completion-time recording and per-query state
    // held only while the query is in flight, that keeps the run free
    // of O(N) vectors; footprint.rs measures the heap.
    assert!(out.latency.is_folded());
    // Every post-warmup query (95% of the run) left one sample.
    assert_eq!(out.latency.len(), n - n / 20);
    assert!(out.p99_seconds() > 0.0);
    assert!(
        out.p50_seconds() <= out.p99_seconds(),
        "percentiles stay monotone at scale"
    );
    // Generous wall-clock ceiling: the bench suite tracks the real
    // (machine-normalized) budget; this only catches order-of-magnitude
    // regressions like an accidental O(N^2) path.
    assert!(
        elapsed.as_secs() < 120,
        "10M replay took {elapsed:?} — scale fast path is broken"
    );
}

#[test]
#[ignore = "release-mode scale smoke (cargo test --release -- --ignored scale_)"]
fn scale_2m_sharded_matches_serial_above_every_threshold() {
    // 2M queries sit far above the histogram fold threshold (2^17), so
    // this pins the sharded loop against the serial one on the exact
    // code paths the 10M replay uses — folded sinks, streamed arrivals,
    // estimator gating — at a scale the small-n property tests cannot
    // reach.
    let spec = two_backend_spec();
    let trace = synthetic_trace(50_000, 11).with_rate(0.7 * spec.max_qps_at_full_batch());
    let n = 2 * (1 << 20);
    for workers in [1usize, 0] {
        let rr = Scenario::new(&spec, &trace, n, 3)
            .workers(workers)
            .run()
            .unwrap();
        let rr_serial = Scenario::new(&spec, &trace, n, 3).run().unwrap();
        assert_eq!(rr_serial, rr, "RoundRobin, workers = {workers}");
        let ew = Scenario::new(&spec, &trace, n, 3)
            .router(&ExpectedWait)
            .workers(workers)
            .run()
            .unwrap();
        let ew_serial = Scenario::new(&spec, &trace, n, 3)
            .router(&ExpectedWait)
            .run()
            .unwrap();
        assert_eq!(ew_serial, ew, "ExpectedWait, workers = {workers}");
    }
}
