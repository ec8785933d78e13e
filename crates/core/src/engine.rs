//! The unified entry point: an [`Engine`] binds a pipeline, a backend
//! pool, a placement, an offered load, and an SLA into one object that
//! answers the joint quality/performance question with a single call.
//!
//! * [`Engine::evaluate`] → an [`Outcome`] carrying quality, tail
//!   latency, throughput, and saturation together;
//! * [`Engine::sweep`] → a [`ParetoFront`] of outcomes over the
//!   scheduler's design space;
//! * [`Engine::scenario`] → a queueing-simulation
//!   [`Scenario`](recpipe_qsim::Scenario) over the engine's serving
//!   spec, for arbitrary traffic, scheduling, routing, and runtimes.

use std::cell::OnceCell;
use std::sync::Arc;

use recpipe_accel::{BaselineAccel, Partition, RpAccel, RpAccelConfig};
use recpipe_data::{DatasetKind, DatasetSpec, PoissonArrivals};
use recpipe_hwsim::{CpuModel, GpuModel, PcieModel};
use recpipe_metrics::ParetoFront;
use recpipe_qsim::{PipelineSpec, SimResult, SpecError};

use crate::backend::{build_serving_spec, Backend, FleetSpec, Placement};
use crate::scheduler::Scheduler;
use crate::{PipelineConfig, QualityEvaluator, QualityReport, SchedulerSettings};

/// Error constructing or driving an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The builder was finalized without a pipeline.
    MissingPipeline,
    /// The builder was finalized without any backend.
    MissingBackend,
    /// The placement's stage count differs from the pipeline's.
    PlacementArity {
        /// Stages in the pipeline.
        stages: usize,
        /// Sites in the placement.
        sites: usize,
    },
    /// A placement site references a backend outside the pool.
    UnknownBackend {
        /// The out-of-range backend index.
        index: usize,
        /// Number of backends in the pool.
        pool_size: usize,
    },
    /// The queueing spec rejected a stage (e.g. parallelism above the
    /// backend's capacity).
    Spec(SpecError),
    /// A lifecycle-aware simulation run failed (e.g. an arrival hit a
    /// resource group with every replica down and no revival pending).
    Sim(recpipe_qsim::SimError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::MissingPipeline => write!(f, "engine requires a pipeline"),
            EngineError::MissingBackend => write!(f, "engine requires at least one backend"),
            EngineError::PlacementArity { stages, sites } => write!(
                f,
                "placement has {sites} sites but the pipeline has {stages} stages"
            ),
            EngineError::UnknownBackend { index, pool_size } => write!(
                f,
                "placement references backend {index} but the pool has {pool_size}"
            ),
            EngineError::Spec(e) => write!(f, "invalid queueing spec: {e}"),
            EngineError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Spec(e) => Some(e),
            EngineError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

impl From<recpipe_qsim::SimError> for EngineError {
    fn from(e: recpipe_qsim::SimError) -> Self {
        EngineError::Sim(e)
    }
}

/// One jointly evaluated design point: a pipeline on concrete hardware,
/// with quality, tail latency, throughput, and saturation in a single
/// struct — what the scheduler emits and what [`Engine::evaluate`]
/// returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The pipeline configuration.
    pub pipeline: PipelineConfig,
    /// Human-readable placement description (e.g. `gpu|cpu(x2)` or
    /// `rpaccel(8,2)`).
    pub mapping: String,
    /// Mean NDCG in `[0, 1]`.
    pub ndcg: f64,
    /// p99 tail latency in seconds.
    pub p99_s: f64,
    /// Median latency in seconds.
    pub p50_s: f64,
    /// Achieved completion rate in queries per second.
    pub qps: f64,
    /// Offered load in queries per second.
    pub offered_qps: f64,
    /// Whether the configuration failed to meet the offered load.
    pub saturated: bool,
    /// Whether the design met the engine's SLA (`None` when no SLA was
    /// configured).
    pub meets_sla: Option<bool>,
    /// Total replica cost: replica counts summed across the backends
    /// the placement uses (1 per used backend when unreplicated).
    pub replicas: usize,
    /// Profile-weighted hardware cost: the sum of replica speeds
    /// across the backends the placement uses, so a
    /// previous-generation 0.6-speed machine prices at 0.6 of a
    /// current one (see [`Placement::fleet_cost`]). Equals `replicas`
    /// for uniform current-generation fleets.
    pub fleet_cost: f64,
}

impl Outcome {
    /// NDCG in the paper's percent convention.
    pub fn ndcg_percent(&self) -> f64 {
        self.ndcg * 100.0
    }

    /// p99 in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.p99_s * 1e3
    }

    /// p50 in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50_s * 1e3
    }
}

/// Builder for [`Engine`]; see [`Engine::builder`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    pipeline: Option<PipelineConfig>,
    backends: Vec<Arc<dyn Backend>>,
    placement: Option<Placement>,
    load_qps: f64,
    sla_s: Option<f64>,
    quality_queries: usize,
    sub_batches: usize,
    sim_queries: usize,
    seed: u64,
    batching: bool,
    fleet_overrides: Vec<(usize, FleetSpec)>,
}

impl EngineBuilder {
    fn new() -> Self {
        Self {
            pipeline: None,
            backends: Vec::new(),
            placement: None,
            load_qps: 100.0,
            sla_s: None,
            quality_queries: 300,
            sub_batches: 1,
            sim_queries: 4_000,
            seed: 0xbeef,
            batching: false,
            fleet_overrides: Vec::new(),
        }
    }

    /// Sets the pipeline to serve (required).
    pub fn pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Adds a backend to the pool (at least one required). Backends are
    /// indexed by insertion order.
    pub fn backend(mut self, backend: impl Backend + 'static) -> Self {
        self.backends.push(Arc::new(backend));
        self
    }

    /// Sets the per-stage placement (defaults to every stage on backend
    /// 0 with parallelism 1).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Sets the offered load [`Engine::evaluate`] and [`Engine::sweep`]
    /// run at (default 100 QPS).
    pub fn load(mut self, qps: f64) -> Self {
        self.load_qps = qps;
        self
    }

    /// Sets a p99 SLA target in seconds; outcomes report whether they
    /// met it.
    pub fn sla(mut self, sla_s: f64) -> Self {
        self.sla_s = Some(sla_s);
        self
    }

    /// Monte-Carlo queries per quality evaluation (default 300).
    pub fn quality_queries(mut self, n: usize) -> Self {
        self.quality_queries = n.max(1);
        self
    }

    /// Per-stage sub-batched top-k stitching for quality evaluation
    /// (RPAccel's pipelined execution; default 1 = whole-batch).
    pub fn sub_batches(mut self, n: usize) -> Self {
        self.sub_batches = n.max(1);
        self
    }

    /// Simulated queries per performance run (default 4000).
    pub fn sim_queries(mut self, n: usize) -> Self {
        self.sim_queries = n.max(100);
        self
    }

    /// Base RNG seed for quality and performance simulation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replicates backend `backend_idx` into `n` identical instances,
    /// each with its own queue, behind a per-stage router — the
    /// cluster-of-replicas axis of heavy-traffic serving. Applied to
    /// every stage placed on that backend; with `n = 1` (the default)
    /// the serving spec is identical to the pre-cluster engine.
    ///
    /// The call is a no-op for a backend the placement gives no stage
    /// to (idle hardware has nothing to replicate), and
    /// [`Placement::fleet_for`] keeps reporting one replica for it.
    ///
    /// An out-of-pool index surfaces as
    /// [`EngineError::UnknownBackend`] at [`build`](Self::build).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, matching [`FleetSpec::uniform`].
    pub fn replicas(self, backend_idx: usize, n: usize) -> Self {
        self.fleet(backend_idx, FleetSpec::uniform(n))
    }

    /// Replicates backend `backend_idx` into an explicit generation
    /// mix — the heterogeneous form of [`replicas`](Self::replicas):
    /// `FleetSpec::mixed(&[(2, 1.0), (2, 0.6)])` is two
    /// current-generation machines plus two previous-generation ones
    /// serving at 60% speed, each with its own queue behind the
    /// per-stage router. The same no-op rule applies to backends the
    /// placement gives no stage to.
    pub fn fleet(mut self, backend_idx: usize, fleet: FleetSpec) -> Self {
        self.fleet_overrides.push((backend_idx, fleet));
        self
    }

    /// Enables dynamic batching: every stage of the serving spec
    /// carries its backend's batch-scaling curve, and scheduling
    /// policies set on an [`Engine::scenario`] may aggregate queries
    /// per launch. Disabled by default — per-query serving reproduces
    /// the pre-batching simulator exactly.
    pub fn batching(mut self, enabled: bool) -> Self {
        self.batching = enabled;
        self
    }

    /// Validates and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] if the pipeline or backends are
    /// missing, or if the placement does not fit the pipeline and pool.
    pub fn build(self) -> Result<Engine, EngineError> {
        let pipeline = self.pipeline.ok_or(EngineError::MissingPipeline)?;
        if self.backends.is_empty() {
            return Err(EngineError::MissingBackend);
        }
        let mut placement = self
            .placement
            .unwrap_or_else(|| Placement::uniform(0, pipeline.num_stages(), 1));
        for (backend, fleet) in &self.fleet_overrides {
            if *backend >= self.backends.len() {
                return Err(EngineError::UnknownBackend {
                    index: *backend,
                    pool_size: self.backends.len(),
                });
            }
            placement = placement.with_fleet(*backend, fleet.clone());
        }
        // Building the spec here both validates the placement eagerly
        // (misuse fails at build time, not on first evaluation) and
        // lets every later call reuse it.
        let spec = build_serving_spec(
            &self.backends,
            &PcieModel::measured(),
            &pipeline,
            &placement,
            self.batching,
        )?;
        Ok(Engine {
            pipeline,
            backends: self.backends,
            placement,
            load_qps: self.load_qps,
            sla_s: self.sla_s,
            quality_queries: self.quality_queries,
            sub_batches: self.sub_batches,
            sim_queries: self.sim_queries,
            seed: self.seed,
            batching: self.batching,
            spec,
            quality_cache: OnceCell::new(),
        })
    }
}

/// A pipeline bound to hardware: the single object that answers the
/// joint quality/performance question.
///
/// # Examples
///
/// ```
/// use recpipe_core::{Engine, Placement, PipelineConfig, StageConfig};
/// use recpipe_models::ModelKind;
///
/// let pipeline = PipelineConfig::builder()
///     .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
///     .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
///     .build()?;
///
/// let engine = Engine::commodity(pipeline)
///     .placement(Placement::cpu_only(2))
///     .load(500.0)
///     .sla(0.025)
///     .sim_queries(1_000)
///     .build()?;
///
/// let outcome = engine.evaluate();
/// assert!(outcome.ndcg > 0.90);
/// assert!(!outcome.saturated);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    pipeline: PipelineConfig,
    backends: Vec<Arc<dyn Backend>>,
    placement: Placement,
    load_qps: f64,
    sla_s: Option<f64>,
    quality_queries: usize,
    sub_batches: usize,
    sim_queries: usize,
    seed: u64,
    batching: bool,
    /// Built once at `EngineBuilder::build`; the engine is immutable,
    /// so every evaluation reuses it.
    spec: PipelineSpec,
    quality_cache: OnceCell<QualityReport>,
}

impl Engine {
    /// Starts building an engine from scratch (bring your own
    /// backends).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// An engine over the paper's Table 2 commodity platforms: backend
    /// 0 is the Cascade Lake CPU, backend 1 the T4 GPU (the convention
    /// [`Placement`]'s helpers assume). Defaults to an all-CPU
    /// placement.
    pub fn commodity(pipeline: PipelineConfig) -> EngineBuilder {
        EngineBuilder::new()
            .backend(CpuModel::cascade_lake())
            .backend(GpuModel::t4())
            .pipeline(pipeline)
    }

    /// An engine over a single RPAccel with the given partition,
    /// configured for the pipeline's dataset. Quality is evaluated with
    /// the paper's 4-way sub-batched stitching.
    pub fn rpaccel(pipeline: PipelineConfig, partition: Partition) -> EngineBuilder {
        let spec = DatasetSpec::for_kind(pipeline.dataset());
        let accel = RpAccel::new(RpAccelConfig::paper_default(partition).with_dataset(&spec));
        let stages = pipeline.num_stages();
        EngineBuilder::new()
            .backend(accel)
            .pipeline(pipeline)
            .placement(Placement::uniform(0, stages, 1))
            .sub_batches(4)
    }

    /// An engine over the Centaur-like baseline accelerator, configured
    /// for the pipeline's dataset.
    pub fn baseline_accel(pipeline: PipelineConfig) -> EngineBuilder {
        let spec = DatasetSpec::for_kind(pipeline.dataset());
        let accel = BaselineAccel::paper_default().with_dataset(&spec);
        let stages = pipeline.num_stages();
        EngineBuilder::new()
            .backend(accel)
            .pipeline(pipeline)
            .placement(Placement::uniform(0, stages, 1))
    }

    /// The pipeline being served.
    pub fn pipeline(&self) -> &PipelineConfig {
        &self.pipeline
    }

    /// The backend pool.
    pub fn backends(&self) -> &[Arc<dyn Backend>] {
        &self.backends
    }

    /// The per-stage placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Total replica cost of this engine's cluster (see
    /// [`Placement::replica_cost`]).
    pub fn replica_cost(&self) -> usize {
        self.placement.replica_cost()
    }

    /// Profile-weighted hardware cost of this engine's cluster (see
    /// [`Placement::fleet_cost`]): previous-generation machines price
    /// at their speed.
    pub fn fleet_cost(&self) -> f64 {
        self.placement.fleet_cost()
    }

    /// The bound offered load in QPS.
    pub fn load(&self) -> f64 {
        self.load_qps
    }

    /// The SLA target, if configured.
    pub fn sla(&self) -> Option<f64> {
        self.sla_s
    }

    /// The queueing spec for this engine's pipeline and placement — the
    /// one seam every evaluation flows through, built and validated
    /// once at [`EngineBuilder::build`].
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The seed every simulation run of this engine draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Maximum sustainable throughput of this configuration in QPS.
    pub fn max_qps(&self) -> f64 {
        self.spec.max_qps()
    }

    /// Zero-load service latency floor in seconds.
    pub fn service_floor(&self) -> f64 {
        self.spec.service_floor()
    }

    /// The pipeline's quality, evaluated once and cached.
    pub fn quality(&self) -> QualityReport {
        *self.quality_cache.get_or_init(|| {
            self.quality_evaluator(self.pipeline.dataset())
                .evaluate(&self.pipeline)
        })
    }

    /// This engine's Monte-Carlo evaluator settings on `dataset`.
    fn quality_evaluator(&self, dataset: DatasetKind) -> QualityEvaluator {
        QualityEvaluator::for_dataset(dataset, 64)
            .queries(self.quality_queries)
            .sub_batches(self.sub_batches)
            .seed(self.seed)
    }

    /// Measures pipelines' qualities (NDCG, in input order) with this
    /// engine's evaluator settings: one
    /// [`QualityEvaluator::evaluate_all`] per distinct dataset, so the
    /// pipelines share each Monte-Carlo pool. The engine's own pipeline
    /// reads the cached report, or fills it.
    pub(crate) fn measure_qualities(&self, pipelines: &[PipelineConfig]) -> Vec<f64> {
        let mut ndcg: Vec<Option<f64>> = pipelines
            .iter()
            .map(|p| {
                let cached = self.quality_cache.get().filter(|_| *p == self.pipeline);
                cached.map(|report| report.ndcg)
            })
            .collect();
        while let Some(first) = ndcg.iter().position(Option::is_none) {
            let dataset = pipelines[first].dataset();
            let batch: Vec<usize> = (first..pipelines.len())
                .filter(|&i| ndcg[i].is_none() && pipelines[i].dataset() == dataset)
                .collect();
            let configs: Vec<PipelineConfig> =
                batch.iter().map(|&i| pipelines[i].clone()).collect();
            let reports = self.quality_evaluator(dataset).evaluate_all(&configs);
            for (i, report) in batch.into_iter().zip(reports) {
                if pipelines[i] == self.pipeline {
                    let _ = self.quality_cache.set(report);
                }
                ndcg[i] = Some(report.ndcg);
            }
        }
        ndcg.into_iter()
            .map(|q| q.expect("every pipeline's dataset was evaluated"))
            .collect()
    }

    /// Jointly evaluates quality and at-scale performance at the bound
    /// load.
    pub fn evaluate(&self) -> Outcome {
        self.evaluate_at(self.load_qps)
    }

    /// Jointly evaluates quality and at-scale performance at an
    /// explicit offered load (Poisson arrivals, FIFO scheduling).
    ///
    /// # Panics
    ///
    /// Panics if `qps` is not strictly positive and finite.
    pub fn evaluate_at(&self, qps: f64) -> Outcome {
        let quality = self.quality();
        let mut sim = self
            .scenario(&PoissonArrivals::new(qps), self.sim_queries)
            .run()
            .expect("a built engine's spec serves at least 100 queries");
        let p99_s = sim.p99_seconds();
        Outcome {
            pipeline: self.pipeline.clone(),
            mapping: self.placement.describe(&self.backends),
            ndcg: quality.ndcg,
            p99_s,
            p50_s: sim.p50_seconds(),
            qps: sim.qps,
            offered_qps: qps,
            saturated: sim.saturated,
            meets_sla: self.sla_s.map(|sla| !sim.saturated && p99_s <= sla),
            replicas: self.placement.replica_cost(),
            fleet_cost: self.placement.fleet_cost(),
        }
    }

    /// Whether the serving spec carries the backends' batch-scaling
    /// curves (see [`EngineBuilder::batching`]).
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// Starts a [`Scenario`](recpipe_qsim::Scenario) of `queries`
    /// arrivals from `arrivals` over this engine's serving spec and
    /// seed. Build the engine with [`EngineBuilder::batching`] for
    /// batching policies to have hardware batches to form, and with
    /// [`EngineBuilder::replicas`] for routers to have a choice.
    ///
    /// # Examples
    ///
    /// ```
    /// use recpipe_core::{Engine, Placement, PipelineConfig, StageConfig};
    /// use recpipe_data::MmppArrivals;
    /// use recpipe_models::ModelKind;
    /// use recpipe_qsim::BatchWindow;
    ///
    /// let pipeline = PipelineConfig::builder()
    ///     .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
    ///     .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
    ///     .build()?;
    /// let engine = Engine::commodity(pipeline)
    ///     .placement(Placement::gpu_frontend(2, 1))
    ///     .batching(true)
    ///     .build()?;
    ///
    /// // Bursty traffic served with a 2 ms batch window.
    /// let bursty = MmppArrivals::new(50.0, 400.0, 0.5, 0.1);
    /// let window = BatchWindow::new(0.002);
    /// let result = engine.scenario(&bursty, 2_000).policy(&window).run()?;
    /// assert_eq!(result.completed, 2_000);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn scenario<'a>(
        &'a self,
        arrivals: &'a dyn recpipe_data::ArrivalProcess,
        queries: usize,
    ) -> recpipe_qsim::Scenario<'a> {
        recpipe_qsim::Scenario::new(&self.spec, arrivals, queries, self.seed)
    }

    /// Starts building a multi-path [`PathSet`](recpipe_qsim::PathSet)
    /// over this engine's backend pool: path 0 is the engine's own
    /// pipeline on its placement; add degraded alternates with
    /// [`PathSetBuilder::alternate`](crate::PathSetBuilder::alternate).
    /// Path qualities are measured with the engine's Monte-Carlo
    /// evaluator unless given explicitly.
    pub fn paths(&self) -> crate::PathSetBuilder<'_> {
        crate::PathSetBuilder::for_engine(self)
    }

    /// Runs the multi-path simulation: every arriving query is offered
    /// to `admission`, which picks a path of `paths` (built with
    /// [`Engine::paths`]) or sheds it. One
    /// [`Scenario::multipath`](recpipe_qsim::Scenario::multipath)
    /// expression at the engine's seed, kept so existing callers compile
    /// unchanged.
    ///
    /// Returns [`EngineError::Sim`] when the run hits an unrecoverable
    /// availability hole or the scenario is invalid (see
    /// [`SimError`](recpipe_qsim::SimError)).
    #[allow(clippy::too_many_arguments)]
    pub fn serve_multipath(
        &self,
        paths: &recpipe_qsim::PathSet,
        arrivals: &dyn recpipe_data::ArrivalProcess,
        policy: &dyn recpipe_qsim::SchedulingPolicy,
        router: &dyn recpipe_qsim::Router,
        admission: &dyn recpipe_qsim::AdmissionPolicy,
        queries: usize,
        cfg: &recpipe_qsim::LifecycleConfig,
    ) -> Result<SimResult, EngineError> {
        recpipe_qsim::Scenario::multipath(paths, admission, arrivals, queries, self.seed)
            .policy(policy)
            .router(router)
            .lifecycle(cfg)
            .run()
            .map_err(EngineError::from)
    }

    /// Explores the scheduler's design space over this engine's backend
    /// pool at the bound load — up to `settings.max_stages` stages,
    /// charging the measured PCIe link on backend crossings — and
    /// returns the quality/latency Pareto frontier (saturated points
    /// dropped). The engine's pipeline supplies the dataset being
    /// swept (overriding `settings.dataset`); the settings supply the
    /// search grid.
    ///
    /// When the settings sweep cluster shapes (any
    /// [`SchedulerSettings::fleet_options`] beyond one baseline
    /// replica), the front becomes three-objective — quality vs latency
    /// vs profile-weighted fleet cost ([`Scheduler::pareto_with_cost`])
    /// — so cheap clusters survive alongside fast ones.
    pub fn sweep(&self, settings: &SchedulerSettings) -> ParetoFront<Outcome> {
        let mut settings = settings.clone();
        settings.dataset = self.pipeline.dataset();
        let scheduler = Scheduler::new(settings.clone());
        let (points, _) = scheduler.explore_pool(
            self.load_qps,
            settings.max_stages,
            &self.backends,
            self.sub_batches,
            self.sla_s,
            &PcieModel::measured(),
        );
        if scheduler.sweeps_cluster_cost() {
            Scheduler::pareto_with_cost(points)
        } else {
            Scheduler::pareto(points)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StageSite;
    use crate::StageConfig;
    use recpipe_hwsim::StageWork;
    use recpipe_models::ModelKind;
    use recpipe_qsim::ReplicaGroup;

    fn two_stage() -> PipelineConfig {
        PipelineConfig::builder()
            .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
            .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_without_pipeline_errors() {
        let err = Engine::builder()
            .backend(CpuModel::cascade_lake())
            .build()
            .unwrap_err();
        assert_eq!(err, EngineError::MissingPipeline);
        assert!(err.to_string().contains("pipeline"));
    }

    #[test]
    fn builder_without_backend_errors() {
        let err = Engine::builder().pipeline(two_stage()).build().unwrap_err();
        assert_eq!(err, EngineError::MissingBackend);
        assert!(err.to_string().contains("backend"));
    }

    #[test]
    fn builder_rejects_misfit_placement_eagerly() {
        let err = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(3))
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::PlacementArity { .. }));
    }

    #[test]
    fn zero_parallelism_is_a_build_error_from_the_constructor_too() {
        let literal = StageSite {
            backend: 0,
            parallelism: 0,
        };
        for placement in [
            Placement::uniform(0, 2, 0),
            Placement::new(vec![literal; 2]),
        ] {
            let err = Engine::commodity(two_stage())
                .placement(placement)
                .build()
                .unwrap_err();
            assert!(matches!(
                err,
                EngineError::Spec(SpecError::ZeroUnits { .. })
            ));
        }
    }

    #[test]
    fn engine_errors_compose_with_question_mark() {
        fn try_build() -> Result<Engine, Box<dyn std::error::Error>> {
            let engine = Engine::builder().pipeline(two_stage()).build()?;
            Ok(engine)
        }
        let err = try_build().unwrap_err();
        assert!(err.to_string().contains("backend"));
    }

    #[test]
    fn commodity_engine_evaluates_jointly() {
        let engine = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .load(500.0)
            .sla(0.050)
            .quality_queries(150)
            .sim_queries(1_000)
            .build()
            .unwrap();
        let outcome = engine.evaluate();
        assert!((0.85..1.0).contains(&outcome.ndcg));
        assert!(outcome.p99_s > 0.0 && outcome.p50_s <= outcome.p99_s);
        assert!(!outcome.saturated);
        assert_eq!(outcome.meets_sla, Some(true));
        assert_eq!(outcome.mapping, "cpu");
        assert_eq!(outcome.offered_qps, 500.0);
    }

    #[test]
    fn default_placement_covers_all_stages_on_backend_zero() {
        let engine = Engine::commodity(two_stage()).build().unwrap();
        assert_eq!(engine.placement().num_stages(), 2);
        assert_eq!(engine.placement().sole_backend(), Some(0));
    }

    #[test]
    fn quality_is_cached_across_evaluations() {
        let engine = Engine::commodity(two_stage())
            .quality_queries(100)
            .sim_queries(500)
            .build()
            .unwrap();
        let a = engine.evaluate_at(100.0);
        let b = engine.evaluate_at(200.0);
        assert_eq!(a.ndcg, b.ndcg);
        assert_ne!(a.offered_qps, b.offered_qps);
    }

    #[test]
    fn rpaccel_engine_beats_cpu_latency() {
        let pipeline = two_stage();
        let cpu = Engine::commodity(pipeline.clone())
            .placement(Placement::cpu_only(2))
            .quality_queries(50)
            .sim_queries(1_500)
            .build()
            .unwrap();
        let accel = Engine::rpaccel(pipeline, Partition::symmetric(8, 2))
            .quality_queries(50)
            .sim_queries(1_500)
            .build()
            .unwrap();
        let cpu_out = cpu.evaluate_at(200.0);
        let accel_out = accel.evaluate_at(200.0);
        assert!(
            accel_out.p99_s < cpu_out.p99_s / 4.0,
            "accel {} vs cpu {}",
            accel_out.p99_s,
            cpu_out.p99_s
        );
        assert_eq!(accel_out.mapping, "rpaccel(8,2)");
    }

    /// The "fourth backend" requirement: a brand-new backend is one
    /// trait impl, and flows through `Engine::evaluate` untouched.
    #[derive(Debug)]
    struct MockBackend {
        latency_s: f64,
        units: usize,
    }

    impl Backend for MockBackend {
        fn name(&self) -> String {
            "mock".into()
        }

        fn resources(&self) -> ReplicaGroup {
            ReplicaGroup::new("mock", self.units)
        }

        fn batch_latency(&self, _work: &StageWork, parallelism: usize, batch: usize) -> f64 {
            self.latency_s / parallelism as f64 * batch as f64
        }
    }

    #[test]
    fn mock_backend_flows_through_evaluate() {
        let engine = Engine::builder()
            .pipeline(two_stage())
            .backend(MockBackend {
                latency_s: 0.004,
                units: 8,
            })
            .placement(Placement::new(vec![
                StageSite::new(0, 1),
                StageSite::new(0, 2),
            ]))
            .load(200.0)
            .quality_queries(50)
            .sim_queries(1_000)
            .build()
            .unwrap();
        let outcome = engine.evaluate();
        // Two stages at 4 ms and 2 ms: the floor is 6 ms and queueing
        // keeps p99 above it.
        assert!(engine.service_floor() > 0.0059 && engine.service_floor() < 0.0061);
        assert!(outcome.p99_s >= 0.006);
        assert!(!outcome.saturated);
        assert_eq!(outcome.mapping, "mock|mock(x2)");
        assert!((0.85..1.0).contains(&outcome.ndcg));
    }

    #[test]
    fn mock_backend_saturates_when_overloaded() {
        let engine = Engine::builder()
            .pipeline(two_stage())
            .backend(MockBackend {
                latency_s: 0.050,
                units: 1,
            })
            .load(1_000.0)
            .quality_queries(20)
            .sim_queries(500)
            .build()
            .unwrap();
        assert!(engine.evaluate().saturated);
    }

    fn single_large() -> PipelineConfig {
        PipelineConfig::single_stage(ModelKind::RmLarge, 4096, 64).unwrap()
    }

    fn quick(builder: crate::EngineBuilder) -> Engine {
        builder
            .quality_queries(20)
            .sim_queries(1_500)
            .build()
            .unwrap()
    }

    #[test]
    fn figure7_two_stage_cuts_cpu_tail_latency_about_4x() {
        let single = quick(Engine::commodity(single_large()).placement(Placement::cpu_only(1)));
        let multi = quick(Engine::commodity(two_stage()).placement(Placement::cpu_only(2)));
        let ratio = single.evaluate_at(500.0).p99_s / multi.evaluate_at(500.0).p99_s;
        assert!(
            (2.5..8.0).contains(&ratio),
            "CPU single/multi p99 ratio {ratio}"
        );
    }

    #[test]
    fn figure8_gpu_single_stage_beats_cpu_at_low_load() {
        let cpu = quick(Engine::commodity(single_large()).placement(Placement::cpu_only(1)));
        let gpu = quick(Engine::commodity(single_large()).placement(Placement::gpu_only(1)));
        let cpu_p99 = cpu.evaluate_at(50.0).p99_s;
        let gpu_p99 = gpu.evaluate_at(50.0).p99_s;
        assert!(gpu_p99 < cpu_p99 / 5.0, "gpu {gpu_p99} vs cpu {cpu_p99}");
    }

    #[test]
    fn figure8_gpu_saturates_before_cpu() {
        let gpu = quick(Engine::commodity(single_large()).placement(Placement::gpu_only(1)));
        let cpu = quick(Engine::commodity(two_stage()).placement(Placement::cpu_only(2)));
        assert!(
            gpu.max_qps() < cpu.max_qps() / 2.0,
            "gpu cap {} vs cpu cap {}",
            gpu.max_qps(),
            cpu.max_qps()
        );
        assert!(gpu.evaluate_at(5_000.0).saturated);
    }

    #[test]
    fn gpu_frontend_placement_beats_cpu_only_at_low_load() {
        // Figure 8 (top): the heterogeneous GPU-CPU two-stage design cuts
        // latency versus CPU-only (paper: up to 3x; model parallelism on
        // the backend contributes).
        let hetero = quick(Engine::commodity(two_stage()).placement(Placement::gpu_frontend(2, 4)));
        let cpu_only = quick(Engine::commodity(two_stage()).placement(Placement::cpu_only(2)));
        let ratio = cpu_only.evaluate_at(70.0).p99_s / hetero.evaluate_at(70.0).p99_s;
        assert!((1.5..5.0).contains(&ratio), "hetero speedup {ratio}");
    }

    #[test]
    fn figure12_rpaccel_beats_baseline_accelerator() {
        let rp = quick(Engine::rpaccel(two_stage(), Partition::symmetric(8, 2)));
        let base = quick(Engine::baseline_accel(single_large()));
        let latency_ratio = base.evaluate_at(200.0).p99_s / rp.evaluate_at(200.0).p99_s;
        assert!(
            (1.8..8.0).contains(&latency_ratio),
            "baseline/RPAccel p99 ratio {latency_ratio}"
        );
    }

    #[test]
    fn scenario_prefills_the_engine_spec_and_seed() {
        let engine = Engine::commodity(two_stage())
            .quality_queries(20)
            .seed(11)
            .build()
            .unwrap();
        let arrivals = PoissonArrivals::new(300.0);
        let direct = recpipe_qsim::Scenario::new(engine.spec(), &arrivals, 1_500, 11)
            .run()
            .unwrap();
        assert_eq!(engine.scenario(&arrivals, 1_500).run().unwrap(), direct);
    }

    #[test]
    fn batching_spec_amortizes_without_changing_the_floor() {
        let per_query = quick(Engine::commodity(two_stage()).placement(Placement::gpu_only(2)));
        let batched = quick(
            Engine::commodity(two_stage())
                .placement(Placement::gpu_only(2))
                .batching(true),
        );
        assert!(!per_query.spec().has_batching());
        assert!(batched.spec().has_batching());
        // Same single-query service floor; strictly higher fully-batched
        // capacity on the batch-friendly GPU.
        assert_eq!(per_query.service_floor(), batched.service_floor());
        assert!(
            batched.spec().max_qps_at_full_batch() > per_query.max_qps() * 2.0,
            "batched cap {} vs per-query cap {}",
            batched.spec().max_qps_at_full_batch(),
            per_query.max_qps()
        );
    }

    #[test]
    fn batch_window_improves_rpaccel_throughput_at_saturation() {
        // The headline batching win: at an offered load beyond the
        // per-query capacity of the RPAccel pipeline, a batch-window
        // policy over the batched spec strictly raises completed
        // throughput versus per-query FIFO serving.
        use recpipe_qsim::BatchWindow;
        let pipeline = two_stage();
        let per_query = Engine::rpaccel(pipeline.clone(), Partition::symmetric(8, 2))
            .quality_queries(20)
            .build()
            .unwrap();
        let batched = Engine::rpaccel(pipeline, Partition::symmetric(8, 2))
            .quality_queries(20)
            .batching(true)
            .build()
            .unwrap();

        // Batching strictly raises the analytic capacity...
        assert!(
            batched.spec().max_qps_at_full_batch() > per_query.max_qps() * 1.01,
            "batched cap {} vs per-query cap {}",
            batched.spec().max_qps_at_full_batch(),
            per_query.max_qps()
        );
        // ...and the simulated throughput follows. The gain is honest
        // rather than dramatic: the bottleneck DRAM phase is dominated
        // by per-item embedding gathers, which batching cannot amortize
        // — only weight streaming and the lanes-side compute shrink.
        let overload = per_query.max_qps() * 1.5;
        let fifo = per_query
            .scenario(&PoissonArrivals::new(overload), 4_000)
            .run()
            .unwrap();
        let windowed = batched
            .scenario(&PoissonArrivals::new(overload), 4_000)
            .policy(&BatchWindow::new(0.002))
            .run()
            .unwrap();
        assert!(fifo.saturated);
        assert!(
            windowed.qps > fifo.qps * 1.01,
            "batch-window qps {} vs per-query qps {}",
            windowed.qps,
            fifo.qps
        );
        assert!(
            windowed.mean_batch > 1.5,
            "mean batch {}",
            windowed.mean_batch
        );
    }

    #[test]
    fn replicated_engine_multiplies_capacity_and_reports_cluster() {
        let base = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .quality_queries(20)
            .build()
            .unwrap();
        let fleet = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .replicas(0, 3)
            .quality_queries(20)
            .build()
            .unwrap();
        assert!((fleet.max_qps() - 3.0 * base.max_qps()).abs() < 1e-6);
        assert_eq!(fleet.placement().fleet_for(0).replicas(), 3);
        assert_eq!(fleet.placement().fleet_for(1).replicas(), 1);
        assert_eq!(fleet.replica_cost(), 3);
        assert_eq!(base.replica_cost(), 1);
        let outcome = fleet.evaluate_at(100.0);
        assert_eq!(outcome.mapping, "cpu*3");
        assert_eq!(outcome.replicas, 3);
    }

    #[test]
    fn unknown_replicated_backend_is_a_build_error() {
        let err = Engine::commodity(two_stage())
            .replicas(9, 2)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownBackend { index: 9, .. }));
    }

    #[test]
    fn heterogeneous_fleet_engine_reports_weighted_capacity_and_cost() {
        let base = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .quality_queries(20)
            .build()
            .unwrap();
        let mixed = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .fleet(0, FleetSpec::mixed(&[(1, 1.0), (1, 0.5)]))
            .quality_queries(20)
            .build()
            .unwrap();
        // A current-gen box plus a half-speed old one drain like 1.5
        // current ones.
        assert!((mixed.max_qps() - 1.5 * base.max_qps()).abs() < 1e-6);
        assert_eq!(mixed.replica_cost(), 2);
        assert!((mixed.fleet_cost() - 1.5).abs() < 1e-12);
        assert_eq!(mixed.placement().fleet_for(0), FleetSpec::new(&[1.0, 0.5]));
        let outcome = mixed.evaluate_at(200.0);
        assert_eq!(outcome.mapping, "cpu*1@1.0+1@0.5");
        assert_eq!(outcome.replicas, 2);
        assert!((outcome.fleet_cost - 1.5).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_fleet_serves_with_speed_aware_routing() {
        use recpipe_qsim::ExpectedWait;
        let mixed = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .fleet(0, FleetSpec::mixed(&[(2, 1.0), (2, 0.5)]))
            .quality_queries(20)
            .build()
            .unwrap();
        let out = mixed
            .scenario(&PoissonArrivals::new(0.8 * mixed.max_qps()), 3_000)
            .router(&ExpectedWait)
            .run()
            .unwrap();
        assert_eq!(out.completed, 3_000);
        assert!(!out.saturated);
        // The router saw the real 4-replica mixed fleet.
        assert_eq!(out.replica_utilization[0].len(), 4);
    }

    #[test]
    fn serve_routed_on_unreplicated_engine_matches_serve_with() {
        use recpipe_qsim::JoinShortestQueue;
        let engine = Engine::commodity(two_stage())
            .quality_queries(20)
            .build()
            .unwrap();
        let arrivals = PoissonArrivals::new(250.0);
        let plain = engine.scenario(&arrivals, 1_500).run().unwrap();
        let routed = engine
            .scenario(&arrivals, 1_500)
            .router(&JoinShortestQueue)
            .run()
            .unwrap();
        assert_eq!(plain, routed);
    }

    #[test]
    fn replication_rescues_an_engine_past_single_pool_capacity() {
        use recpipe_qsim::JoinShortestQueue;
        let single = Engine::commodity(two_stage())
            .placement(Placement::gpu_only(2))
            .quality_queries(20)
            .build()
            .unwrap();
        let overload = single.max_qps() * 1.6;
        assert!(single.evaluate_at(overload).saturated);
        let fleet = Engine::commodity(two_stage())
            .placement(Placement::gpu_only(2))
            .replicas(1, 4)
            .quality_queries(20)
            .build()
            .unwrap();
        let out = fleet
            .scenario(&PoissonArrivals::new(overload), 3_000)
            .router(&JoinShortestQueue)
            .run()
            .unwrap();
        assert!(!out.saturated);
        assert_eq!(out.completed, 3_000);
        // The router saw a real 4-replica GPU fleet.
        assert_eq!(out.replica_utilization[1].len(), 4);
    }

    #[test]
    fn serve_scaled_resizes_the_fleet_through_the_policy_seam() {
        use recpipe_qsim::{AutoscaleConfig, JoinShortestQueue};
        let fleet = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .replicas(0, 4)
            .quality_queries(20)
            .build()
            .unwrap();
        let cfg = AutoscaleConfig::new(0, 1, 4, 0.5).with_initial_replicas(1);
        let mut policy = crate::ReactiveScaling::new(0.6, 4.0);
        let out = fleet
            .scenario(&PoissonArrivals::new(0.5 * fleet.max_qps()), 3_000)
            .router(&JoinShortestQueue)
            .autoscale(&cfg, &mut policy)
            .run()
            .unwrap();
        // The closed loop completed every query, recorded telemetry,
        // and grew the fleet past its 1-replica starting point (half
        // the 4-replica capacity overloads a single replica).
        assert_eq!(out.completed, 3_000);
        assert!(!out.windows.is_empty());
        assert!(out.windows.iter().any(|w| w.live_replicas > 1));
        assert!(out.cost_integral > 0.0);
    }

    #[test]
    fn replica_sweep_produces_deterministic_cost_aware_front() {
        // The co-optimization acceptance: sweeping replica counts
        // yields a reproducible Pareto front that carries replica cost,
        // keeps cheap clusters alongside fast ones, and is identical
        // across worker counts.
        let mut settings = crate::SchedulerSettings::quick();
        settings.fleet_options = [1, 2].map(FleetSpec::uniform).to_vec();
        let engine = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .load(400.0)
            .build()
            .unwrap();
        let front = engine.sweep(&settings);
        assert!(!front.is_empty());
        let again = engine.sweep(&settings);
        assert_eq!(front.points(), again.points());
        settings.workers = Some(4);
        let parallel = engine.sweep(&settings);
        assert_eq!(front.points(), parallel.points());

        // Cost is populated and varied; no point on the front is
        // dominated in all three objectives.
        assert!(front.iter().all(|p| p.replicas >= 1));
        assert!(front.iter().any(|p| p.replicas > 1));
        assert!(front.iter().any(|p| p.replicas == 1));
        for a in front.iter() {
            for b in front.iter() {
                let dominated =
                    a.p99_s < b.p99_s - 1e-15 && a.ndcg > b.ndcg + 1e-12 && a.replicas < b.replicas;
                assert!(!dominated, "{} dominates {}", a.mapping, b.mapping);
            }
        }
    }

    #[test]
    fn halving_sweep_through_the_engine_is_worker_count_independent() {
        // `Engine::sweep` honors the settings' budget; rung survivor
        // selection depends only on candidate-seeded results, so the
        // pruned front is identical across worker counts.
        let mut settings = crate::SchedulerSettings::quick();
        settings.fleet_options = [1, 2].map(FleetSpec::uniform).to_vec();
        settings.sweep_budget = crate::SweepBudget::halving(settings.sim_queries);
        let engine = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .load(400.0)
            .build()
            .unwrap();
        settings.workers = Some(1);
        let serial = engine.sweep(&settings);
        settings.workers = Some(4);
        let parallel = engine.sweep(&settings);
        assert!(!serial.is_empty());
        assert_eq!(serial.points(), parallel.points());
    }

    #[test]
    fn parallel_sweep_matches_serial_pareto_front() {
        // The worker pool must not change results: same candidates, same
        // per-candidate seeds, same Pareto front — only wall-clock moves.
        let mut settings = crate::SchedulerSettings::quick();
        let engine = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .load(200.0)
            .build()
            .unwrap();
        settings.workers = Some(1);
        let serial = engine.sweep(&settings);
        assert!(!serial.is_empty());
        // Three workers split the 14 pipelines' quality batch unevenly.
        for workers in [3, 4] {
            settings.workers = Some(workers);
            let parallel = engine.sweep(&settings);
            assert_eq!(serial.points(), parallel.points(), "{workers} workers");
        }
    }
}
