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

use recpipe_data::TraceArrivals;
use recpipe_qsim::{
    BatchModel, ExpectedWait, PipelineSpec, ReplicaGroup, ReplicaProfile, Scenario, StageSpec,
};

/// A deterministic synthetic "recorded" trace: `n` arrivals with
/// pseudo-random gaps (bursty but bounded), tiled by the replay to any
/// query count.
fn synthetic_trace(n: usize, seed: u64) -> TraceArrivals {
    let mut z = seed | 1;
    let mut t = 0.0f64;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        z = z
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Gaps in [0, 2) ms: mean 1 ms, with back-to-back bursts.
        t += ((z >> 33) as f64 / (1u64 << 31) as f64) * 2e-3;
        times.push(t);
    }
    TraceArrivals::new(times)
}

/// Two pipeline stages on two distinct backends — the shape the
/// per-stage shard decomposition accepts.
fn two_backend_spec() -> PipelineSpec {
    let filter = ReplicaGroup::heterogeneous(
        "filter",
        vec![
            ReplicaProfile::baseline(1),
            ReplicaProfile::baseline(1),
            ReplicaProfile::new(1, 0.6),
            ReplicaProfile::new(1, 0.6),
        ],
    );
    let rank = ReplicaGroup::replicated("rank", 1, 4);
    PipelineSpec::new(vec![filter, rank])
        .with_stage(StageSpec::new("filter", 0, 1, 0.002).with_batch(BatchModel::new(8, 0.25)))
        .unwrap()
        .with_stage(StageSpec::new("rank", 1, 1, 0.001).with_batch(BatchModel::new(8, 0.25)))
        .unwrap()
}

#[test]
#[ignore = "release-mode scale smoke (cargo test --release -- --ignored scale_)"]
fn scale_10m_query_trace_replay_completes_in_bounded_memory() {
    let spec = two_backend_spec();
    let trace = synthetic_trace(100_000, 42).with_rate(0.7 * spec.max_qps_at_full_batch());
    let n = 10_000_000;
    let start = std::time::Instant::now();
    let mut out = Scenario::new(&spec, &trace, n, 7).workers(0).run().unwrap();
    let elapsed = start.elapsed();
    assert_eq!(out.completed, n);
    assert!(!out.saturated, "offered load was set below capacity");
    // The latency sink must have folded into the fixed histogram —
    // that, plus streamed arrivals and completion-time recording, is
    // what keeps the run's footprint free of any O(N) latency vector.
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
