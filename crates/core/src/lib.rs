//! RecPipe core: multi-stage recommendation pipelines, joint
//! quality/performance evaluation, and the hardware-aware inference
//! scheduler — the paper's primary contribution.
//!
//! The central object is the [`Engine`]: a builder binds a
//! [`PipelineConfig`] (an ordered chain of [`StageConfig`]s), a pool of
//! [`Backend`]s (hardware models), a [`Placement`] (which stage runs
//! where), an offered load, and an optional SLA — and answers the joint
//! question in one call:
//!
//! * [`Engine::evaluate`] → an [`Outcome`] with quality (NDCG), tail
//!   latency, throughput, and saturation together;
//! * [`Engine::sweep`] → the scheduler's design-space exploration,
//!   reduced to a [`ParetoFront`](recpipe_metrics::ParetoFront) of
//!   outcomes;
//! * [`Engine::scenario`] → an at-scale queueing
//!   [`Scenario`](recpipe_qsim::Scenario) over the engine's serving
//!   spec: arbitrary traffic, scheduling, routing, fault replay, and
//!   resilience, or a closed-loop autoscaled run whose
//!   [`FleetController`](recpipe_qsim::FleetController)
//!   ([`ReactiveScaling`] or [`PredictiveScaling`]) resizes the fleet
//!   through warm-up and drains;
//! * [`Engine::paths`] +
//!   [`Scenario::multipath`](recpipe_qsim::Scenario::multipath) →
//!   multi-path quality-elastic serving: a [`PathSetBuilder`] assembles degraded
//!   alternates over the same machines and an
//!   [`AdmissionPolicy`](recpipe_qsim::AdmissionPolicy) picks a path
//!   (or sheds) per query, with [`AdmissionSweep`] gridding policy
//!   knobs into [`Scheduler::pareto_brownout`]'s three-objective front.
//!
//! Hardware plugs in through one seam: the [`Backend`] trait
//! (implemented by `CpuModel`, `GpuModel`, `RpAccel`, and
//! `BaselineAccel`) prices stages and declares queueing resources, so
//! adding a device is one trait impl — the engine, the scheduler, and
//! the simulator pick it up unchanged.
//!
//! Lower-level pieces remain available: [`QualityEvaluator`] for
//! Monte-Carlo NDCG measurement and [`Scheduler`] for exhaustive
//! exploration (Figures 3, 7, 8, 12, 13 of the paper).
//!
//! # Examples
//!
//! ```
//! use recpipe_core::{Engine, Placement, PipelineConfig, StageConfig};
//! use recpipe_models::ModelKind;
//!
//! let pipeline = PipelineConfig::builder()
//!     .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
//!     .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
//!     .build()?;
//!
//! let engine = Engine::commodity(pipeline)
//!     .placement(Placement::cpu_only(2))
//!     .load(500.0)
//!     .sim_queries(1_000)
//!     .build()?;
//!
//! let outcome = engine.evaluate();
//! assert!(outcome.ndcg > 0.90);
//! assert!(!outcome.saturated);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod autoscale;
mod backend;
mod engine;
mod multipath;
mod parallel;
mod pipeline;
mod quality;
mod report;
mod sampler;
mod scheduler;
mod stage;

pub use autoscale::{PredictiveScaling, ReactiveScaling};
pub use backend::{
    build_serving_spec, build_spec, Backend, FleetSpec, Placement, StageSite,
    INTERMEDIATE_BYTES_PER_ITEM,
};
pub use engine::{Engine, EngineBuilder, EngineError, Outcome};
pub use multipath::{AdmissionSweep, BrownoutOutcome, PathSetBuilder};
pub use parallel::{parallel_map, worker_threads};
pub use pipeline::{PipelineBuilder, PipelineConfig, PipelineError};
pub use quality::{QualityEvaluator, QualityReport};
pub use report::Table;
pub use scheduler::{candidate_seed, Scheduler, SchedulerSettings, SweepBudget, SweepStats};
pub use stage::StageConfig;
