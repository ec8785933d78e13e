//! # RecPipe
//!
//! A Rust reproduction of *RecPipe: Co-designing Models and Hardware to
//! Jointly Optimize Recommendation Quality and Performance* (MICRO 2021).
//!
//! RecPipe decomposes monolithic deep-learning recommendation models into
//! multi-stage ranking pipelines, then co-designs those pipelines with the
//! hardware that serves them: an inference scheduler maps stages onto
//! commodity CPUs and GPUs, and a specialized accelerator — **RPAccel** —
//! jointly optimizes quality, tail latency, and throughput.
//!
//! The front door is [`core::Engine`]: bind a pipeline, a pool of
//! hardware [`core::Backend`]s, a [`core::Placement`], an offered load,
//! and an SLA — then ask for quality, tail latency, throughput, and
//! saturation in one call. Hardware plugs in through the `Backend`
//! trait, so CPUs, GPUs, RPAccel, and your own device models are
//! interchangeable behind one seam.
//!
//! The serving core is batching-aware: arrival processes (Poisson,
//! bursty MMPP, diurnal, closed-loop) plug in behind
//! [`data::ArrivalProcess`], scheduling policies (FIFO, batch-window,
//! earliest-deadline-first) behind [`qsim::SchedulingPolicy`], and
//! every backend supplies a real batch-scaling curve — drive them
//! together through one [`qsim::Scenario`], for example the one
//! `Engine::scenario` starts over an engine's serving spec. Design-space
//! sweeps fan out across a deterministic worker pool
//! (`core::parallel_map`).
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`tensor`] — dense linear algebra kernels.
//! * [`metrics`] — NDCG quality, accuracy, tail-latency statistics, and
//!   the shared Pareto-front machinery.
//! * [`data`] — synthetic datasets, distributions, arrival processes.
//! * [`models`] — DLRM / NeuMF recommendation models and cost accounting.
//! * [`hwsim`] — CPU / GPU / memory-hierarchy cost models.
//! * [`accel`] — the RPAccel cycle-level accelerator simulator.
//! * [`qsim`] — the discrete-event at-scale queueing simulator.
//! * [`core`] — the `Engine`, multi-stage pipelines, quality evaluation,
//!   and the scheduler.
//!
//! # Quickstart
//!
//! ```
//! use recpipe::core::{Engine, Placement, PipelineConfig, StageConfig};
//! use recpipe::models::ModelKind;
//!
//! // A two-stage pipeline: RMsmall filters 4096 items to 256,
//! // then RMlarge re-ranks the survivors.
//! let pipeline = PipelineConfig::builder()
//!     .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
//!     .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
//!     .build()?;
//!
//! // Bind it to the paper's commodity platforms and evaluate jointly.
//! let engine = Engine::commodity(pipeline)
//!     .placement(Placement::cpu_only(2))
//!     .load(500.0)
//!     .sla(0.025)
//!     .sim_queries(1_000)
//!     .build()?;
//!
//! let outcome = engine.evaluate();
//! assert!(outcome.ndcg > 0.90);
//! assert!(!outcome.saturated);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use recpipe_accel as accel;
pub use recpipe_core as core;
pub use recpipe_data as data;
pub use recpipe_hwsim as hwsim;
pub use recpipe_metrics as metrics;
pub use recpipe_models as models;
pub use recpipe_qsim as qsim;
pub use recpipe_tensor as tensor;
