//! Discrete-event queueing simulator for at-scale recommendation serving.
//!
//! The paper's methodology feeds per-query stage latencies into a
//! simulator that measures tail latency and throughput over tens of
//! thousands of Poisson-arriving queries (Section 4, "Accelerator
//! modeling", step 2). This crate is that simulator, extended into a
//! batching-aware serving core:
//!
//! * **Resources** are [`ReplicaGroup`]s: fleets of replica pools — 64
//!   CPU cores, 1 GPU, `n` accelerator sub-array groups, or N such
//!   machines behind a load balancer. Each replica is described by a
//!   [`ReplicaProfile`] (unit capacity + a service-rate `speed`
//!   multiplier), so a fleet may mix machine generations; uniform
//!   fleets built with [`ReplicaGroup::replicated`] behave exactly as
//!   before. Each replica has its own private queue; stages *share*
//!   groups: a CPU-only two-stage pipeline contends for the same cores
//!   with both stages, exactly like the real deployment.
//! * **Routing** is pluggable behind [`Router`]: when a group has more
//!   than one replica, every query is routed to one replica per stage —
//!   oblivious [`RoundRobin`], full-information [`JoinShortestQueue`],
//!   sampled [`PowerOfTwoChoices`], free-unit-driven [`LeastWorkLeft`],
//!   speed-aware [`ExpectedWait`], or affinity-preserving [`Sticky`]
//!   (fed by a per-query [`RoutingCtx`] recording prior stages'
//!   choices). Batches never span replicas.
//! * **Stages** consume `units` resource units per launch for a
//!   deterministic service time. Each stage carries a [`BatchModel`]:
//!   how many queries one launch may aggregate and how the batch's
//!   service time scales (per-query serving is the `max_batch = 1`
//!   degenerate case).
//! * **Arrivals** are pluggable behind
//!   [`ArrivalProcess`](recpipe_data::ArrivalProcess): Poisson (the
//!   paper's model), bursty MMPP, diurnal cycles, or closed-loop client
//!   populations.
//! * **Scheduling** is pluggable behind [`SchedulingPolicy`]: [`Fifo`]
//!   work-conserving dispatch, [`BatchWindow`] batch-forming timeouts,
//!   or [`EarliestDeadlineFirst`] SLA-aware ordering.
//! * **Queries** flow through stages in order; per-query end-to-end
//!   latency lands in a [`LatencyStats`](recpipe_metrics::LatencyStats).
//!
//! Every simulation is a [`Scenario`]: a pipeline (or a [`PathSet`]
//! behind an [`AdmissionPolicy`]), arrivals, a query count and a seed,
//! plus optional scheduling, routing, lifecycle, autoscaling,
//! resilience, and sharding knobs — served by one
//! [`Scenario::run`] that returns a typed [`SimError`] for invalid
//! input. [`PipelineSpec::simulate`] (Poisson + FIFO) reproduces the
//! pre-batching simulator bit-for-bit on the same seed.
//!
//! # Examples
//!
//! ```
//! use recpipe_qsim::{PipelineSpec, ReplicaGroup, StageSpec};
//!
//! // One 64-core CPU serving a single 10 ms stage at 500 QPS.
//! let spec = PipelineSpec::new(vec![ReplicaGroup::new("cpu", 64)])
//!     .with_stage(StageSpec::new("rank", 0, 1, 0.010))
//!     .expect("valid stage");
//! let mut result = spec.simulate(500.0, 5_000, 42);
//! assert!(!result.saturated);
//! assert!(result.p99_seconds() < 0.050);
//! ```
//!
//! Batched serving under bursty traffic with a batch-window policy:
//!
//! ```
//! use recpipe_data::MmppArrivals;
//! use recpipe_qsim::{BatchModel, BatchWindow, PipelineSpec, ReplicaGroup, Scenario, StageSpec};
//!
//! // A GPU-like stage: 4 ms per query, but a batch of 8 costs far less
//! // than 8 single launches (marginal cost 0.2).
//! let spec = PipelineSpec::new(vec![ReplicaGroup::new("gpu", 1)])
//!     .with_stage(StageSpec::new("rank", 0, 1, 0.004).with_batch(BatchModel::new(8, 0.2)))?;
//! let bursty = MmppArrivals::new(100.0, 800.0, 0.2, 0.05);
//! let result = Scenario::new(&spec, &bursty, 4_000, 7)
//!     .policy(&BatchWindow::new(0.002))
//!     .run()?;
//! assert_eq!(result.completed, 4_000);
//! assert!(result.mean_batch > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod admission;
mod lifecycle;
mod policy;
mod resilience;
mod result;
mod router;
mod scenario;
mod shard;
mod sim;
mod spec;

pub use admission::{
    Admission, AdmissionCtx, AdmissionPolicy, AdmissionState, AlwaysPrimary, DeadlineAware,
    LoadAdaptive, PathProfile, PathSet,
};
pub use lifecycle::{
    AutoscaleConfig, FailurePolicy, FleetController, LifecycleAction, LifecycleConfig,
    LifecycleEvent, LifecycleSchedule, WindowStats,
};
pub use policy::{BatchWindow, EarliestDeadlineFirst, Fifo, QueueEntry, Release, SchedulingPolicy};
pub use resilience::{
    FaultBurst, FaultKind, FaultPlan, HedgePolicy, ResilienceConfig, ResilienceStats, RetryBudget,
    RetryPolicy,
};
pub use result::{PathStats, SimResult};
pub use router::{
    ExpectedWait, JoinShortestQueue, LeastWorkLeft, PowerOfTwoChoices, ReplicaLoads, RoundRobin,
    Router, RouterState, RoutingCtx, Sticky,
};
pub use scenario::{
    serve_lifecycle, serve_resilient, serve_routed, serve_routed_sharded, Scenario, SimError,
};
pub use spec::{BatchModel, PipelineSpec, ReplicaGroup, ReplicaProfile, SpecError, StageSpec};

/// Asserts that `build` panics with a message containing `expected`:
/// the builders' range tests.
#[cfg(test)]
fn assert_panics_with<T>(expected: &str, build: impl FnOnce() -> T + std::panic::UnwindSafe) {
    let payload = std::panic::catch_unwind(build).err();
    let payload = payload.unwrap_or_else(|| panic!("no panic; expected {expected:?}"));
    let message = match payload.downcast_ref::<String>() {
        Some(message) => message.as_str(),
        None => payload.downcast_ref::<&str>().copied().unwrap_or_default(),
    };
    assert!(
        message.contains(expected),
        "panicked with {message:?}; expected {expected:?}"
    );
}
