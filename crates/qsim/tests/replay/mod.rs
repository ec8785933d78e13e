//! The ten-million-query trace replay that the release scale smokes
//! (`scale.rs`) and the heap footprint check (`footprint.rs`) share.

use recpipe_data::TraceArrivals;
use recpipe_qsim::{BatchModel, PipelineSpec, ReplicaGroup, ReplicaProfile, StageSpec};

/// Queries the replay serves.
pub const QUERIES: usize = 10_000_000;

/// A deterministic synthetic "recorded" trace: `n` arrivals with
/// pseudo-random gaps (bursty but bounded), tiled by the replay to any
/// query count.
pub fn synthetic_trace(n: usize, seed: u64) -> TraceArrivals {
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
pub fn two_backend_spec() -> PipelineSpec {
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

/// The replayed trace: 100k recorded arrivals at 70% of `spec`'s
/// fully-batched capacity.
pub fn replay_trace(spec: &PipelineSpec) -> TraceArrivals {
    synthetic_trace(100_000, 42).with_rate(0.7 * spec.max_qps_at_full_batch())
}
