//! Shared helpers for the RecPipe experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it:
//!
//! ```text
//! cargo run --release -p recpipe-bench --bin tab01_models
//! cargo run --release -p recpipe-bench --bin fig03_quality
//! ...
//! ```
//!
//! This library crate holds the small utilities those binaries share,
//! and the simulator scenarios that both the `queueing_sim` criterion
//! bench and the `bench_smoke` gate time: each builder returns a
//! function that runs its scenario, named after the bench it times.

use recpipe_core::{PipelineConfig, StageConfig};
use recpipe_data::{DiurnalArrivals, PoissonArrivals, TraceArrivals};
use recpipe_models::ModelKind;
use recpipe_qsim::{
    BatchModel, HedgePolicy, JoinShortestQueue, LifecycleConfig, LifecycleEvent, LifecycleSchedule,
    LoadAdaptive, PathSet, PipelineSpec, ReplicaGroup, ReplicaProfile, ResilienceConfig,
    RetryBudget, RetryPolicy, Router, Scenario, SimResult, StageSpec,
};

/// Builds the paper's canonical Criteo two-stage pipeline:
/// RMsmall@4096 → RMlarge@`mid` → 64 served.
///
/// # Examples
///
/// ```
/// let p = recpipe_bench::criteo_two_stage(256);
/// assert_eq!(p.num_stages(), 2);
/// ```
pub fn criteo_two_stage(mid: u64) -> PipelineConfig {
    PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, mid))
        .stage(StageConfig::new(ModelKind::RmLarge, mid, 64))
        .build()
        .expect("canonical two-stage pipeline is valid")
}

/// Builds the paper's canonical Criteo single-stage pipeline:
/// RMlarge@`items` → 64 served.
pub fn criteo_single_stage(items: u64) -> PipelineConfig {
    PipelineConfig::single_stage(ModelKind::RmLarge, items, 64)
        .expect("canonical single-stage pipeline is valid")
}

/// Builds the canonical Criteo three-stage pipeline:
/// RMsmall@4096 → RMmed@512 → RMlarge@128 → 64.
pub fn criteo_three_stage() -> PipelineConfig {
    PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, 512))
        .stage(StageConfig::new(ModelKind::RmMed, 512, 128))
        .stage(StageConfig::new(ModelKind::RmLarge, 128, 64))
        .build()
        .expect("canonical three-stage pipeline is valid")
}

/// Formats seconds as milliseconds with two decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

/// `qsim/two_stage_{queries}q`: the legacy per-query loop at 300 QPS
/// (seed 7) through a 1.2 ms front stage on a one-unit GPU group and an
/// 8 ms, two-unit back stage on a 64-unit CPU group.
pub fn two_stage() -> impl Fn(usize) -> SimResult {
    let spec = PipelineSpec::new(vec![
        ReplicaGroup::new("cpu", 64),
        ReplicaGroup::new("gpu", 1),
    ])
    .with_stage(StageSpec::new("front", 1, 1, 0.0012))
    .expect("valid stage")
    .with_stage(StageSpec::new("back", 0, 2, 0.008))
    .expect("valid stage");
    move |queries| spec.simulate(300.0, queries, 7)
}

/// Runs 10,000 Poisson queries (seed 7) at 0.9 of `spec`'s capacity
/// under the given router.
fn routed_at_rho_09(spec: PipelineSpec) -> impl Fn(&dyn Router) -> SimResult {
    let arrivals = PoissonArrivals::new(0.9 * spec.max_qps());
    move |router| {
        Scenario::new(&spec, &arrivals, 10_000, 7)
            .router(router)
            .run()
            .expect("valid scenario")
    }
}

/// `qsim_cluster/routed_10000q/{router}`: the cluster loop on four
/// single-unit replicas serving a 2 ms and a 10 ms stage at rho = 0.9 —
/// the per-decision cost of oblivious cycling vs full queue inspection
/// vs two-probe sampling.
pub fn routed_fleet() -> impl Fn(&dyn Router) -> SimResult {
    routed_at_rho_09(
        PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, 4)])
            .with_stage(StageSpec::new("front", 0, 1, 0.002))
            .expect("valid stage")
            .with_stage(StageSpec::new("back", 0, 1, 0.010))
            .expect("valid stage"),
    )
}

/// `qsim_cluster/two_gen_10000q/{router}`: the same two stages on a
/// two-generation fleet (two current replicas and two at 40% speed) at
/// rho = 0.9 of the weighted capacity — the cost of the remaining-work
/// probe on top of the per-replica speed bookkeeping.
pub fn two_gen_fleet() -> impl Fn(&dyn Router) -> SimResult {
    let fleet = ReplicaGroup::heterogeneous(
        "worker",
        vec![
            ReplicaProfile::baseline(1),
            ReplicaProfile::baseline(1),
            ReplicaProfile::new(1, 0.4),
            ReplicaProfile::new(1, 0.4),
        ],
    );
    routed_at_rho_09(
        PipelineSpec::new(vec![fleet])
            .with_stage(StageSpec::new("front", 0, 1, 0.002))
            .expect("valid stage")
            .with_stage(StageSpec::new("back", 0, 1, 0.010))
            .expect("valid stage"),
    )
}

/// `qsim_lifecycle/diurnal_failures_10000q`: six four-unit replicas
/// under JSQ ride a 100–900 QPS diurnal swing (60 s period) with a
/// fail-stop at 8 s and a recovery at 12 s, windowed telemetry on — the
/// per-event cost of availability masking, the generation counters and
/// the window bookkeeping on top of the routed loop.
pub fn diurnal_failures() -> impl Fn() -> SimResult {
    let failures = LifecycleSchedule::empty()
        .with_event(LifecycleEvent::fail_stop(8.0, 0))
        .with_event(LifecycleEvent::recover(12.0, 0));
    let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 4, 6)])
        .with_group_lifecycle(0, failures)
        .with_stage(StageSpec::new("rank", 0, 1, 0.02))
        .expect("valid stage");
    let arrivals = DiurnalArrivals::new(100.0, 900.0, 60.0);
    let cfg = LifecycleConfig::new().with_window(2.0);
    move || {
        Scenario::new(&spec, &arrivals, 10_000, 7)
            .router(&JoinShortestQueue)
            .lifecycle(&cfg)
            .run()
            .expect("replica 0 recovers, so the run cannot strand work")
    }
}

/// `qsim_multipath/brownout_ladder3_10000q`: a three-path degradation
/// ladder over one eight-unit replica, offered 1,200 QPS (1.5x the
/// primary path's capacity), with the load-adaptive policy walking the
/// ladder — the per-arrival cost of the admission probe, the path-entry
/// redirect and the per-path accounting.
pub fn brownout_ladder() -> impl Fn() -> SimResult {
    let paths = PathSet::new(vec![ReplicaGroup::replicated("worker", 8, 1)])
        .with_path("full", 1.00, vec![StageSpec::new("rm-large", 0, 1, 0.010)])
        .expect("full path fits the fleet")
        .with_path("mid", 0.92, vec![StageSpec::new("rm-med", 0, 1, 0.004)])
        .expect("mid path fits the fleet")
        .with_path("lite", 0.80, vec![StageSpec::new("rm-small", 0, 1, 0.0015)])
        .expect("lite path fits the fleet");
    let arrivals = PoissonArrivals::new(1_200.0);
    let admission = LoadAdaptive::new(1.5, 0.75);
    let cfg = LifecycleConfig::new();
    move || {
        Scenario::multipath(&paths, &admission, &arrivals, 10_000, 7)
            .router(&JoinShortestQueue)
            .lifecycle(&cfg)
            .run()
            .expect("no lifecycle schedule, so the run cannot strand work")
    }
}

/// `qsim_resilience/hedged_limp_10000q`: one of four replicas limps at
/// 25% speed from t = 0 while round-robin keeps feeding it, at 150 QPS,
/// with a 250 ms timeout, budgeted 2-retry backoff and a 30 ms hedge
/// armed — the per-event cost of timeout arming, lane bookkeeping,
/// carcass discard and hedge dispatch.
pub fn hedged_limp() -> impl Fn() -> SimResult {
    let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, 4)])
        .with_group_lifecycle(
            0,
            LifecycleSchedule::empty().with_event(LifecycleEvent::degrade(0.0, 0, 0.25)),
        )
        .with_stage(StageSpec::new("rank", 0, 1, 0.010))
        .expect("valid stage");
    let arrivals = PoissonArrivals::new(150.0);
    let cfg = LifecycleConfig::new();
    let resilience = ResilienceConfig::new()
        .with_timeout(0.250)
        .with_retry(RetryPolicy::new(3, 0.020, 2.0).with_budget(RetryBudget::new(50.0, 0.1)))
        .with_hedge(HedgePolicy::after(0.030));
    move || {
        Scenario::new(&spec, &arrivals, 10_000, 7)
            .lifecycle(&cfg)
            .resilience(&resilience)
            .run()
            .expect("degrades never strand work")
    }
}

/// `qsim_scale/trace_replay_10M`: 10M queries of a synthetic recorded
/// day (100k arrivals with pseudo-random gaps, tiled by the replay and
/// rescaled to 0.7 of full-batch capacity) through a batched
/// two-generation filter group and a uniform rank group, sharded by
/// stage on every core (one thread per stage on a multi-core host) —
/// the headline number the sharded loop exists for.
pub fn trace_replay_10m() -> impl Fn() -> SimResult {
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
    let spec = PipelineSpec::new(vec![filter, rank])
        .with_stage(StageSpec::new("filter", 0, 1, 0.002).with_batch(BatchModel::new(8, 0.25)))
        .expect("valid stage")
        .with_stage(StageSpec::new("rank", 1, 1, 0.001).with_batch(BatchModel::new(8, 0.25)))
        .expect("valid stage");
    let mut z = 42u64;
    let mut t = 0.0f64;
    let times: Vec<f64> = (0..100_000)
        .map(|_| {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t += ((z >> 33) as f64 / (1u64 << 31) as f64) * 2e-3;
            t
        })
        .collect();
    let trace = TraceArrivals::new(times).with_rate(0.7 * spec.max_qps_at_full_batch());
    move || {
        Scenario::new(&spec, &trace, 10_000_000, 7)
            .workers(0)
            .run()
            .expect("valid scenario")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_pipelines_are_valid() {
        assert_eq!(criteo_two_stage(256).num_stages(), 2);
        assert_eq!(criteo_single_stage(4096).num_stages(), 1);
        assert_eq!(criteo_three_stage().num_stages(), 3);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.0123), "12.30");
    }
}
