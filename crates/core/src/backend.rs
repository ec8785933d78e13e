//! The hardware seam: a [`Backend`] prices pipeline stages on one kind
//! of hardware, and a [`Placement`] assigns each pipeline stage to a
//! backend in a pool.
//!
//! This replaces the old hard-coded CPU/GPU/accelerator match arms: the
//! engine, the scheduler, and the queueing simulator all consume
//! hardware through this one trait, so adding a new device means
//! implementing [`Backend`] once — nothing downstream changes.

use std::collections::BTreeMap;
use std::sync::Arc;

use recpipe_accel::{BaselineAccel, RpAccel, ServiceProfile};
use recpipe_hwsim::{CpuModel, GpuModel, PcieModel, StageWork};
use recpipe_qsim::{BatchModel, PipelineSpec, ReplicaGroup, SpecError, StageSpec};

use crate::engine::EngineError;
use crate::PipelineConfig;

/// Bytes shipped per surviving item between devices (dense features,
/// sparse ids, score) — the payload a stage hands across an
/// interconnect when consecutive stages run on different backends.
pub const INTERMEDIATE_BYTES_PER_ITEM: u64 = 164;

/// A hardware target pipeline stages can be placed on.
///
/// The three methods are the entire contract:
///
/// * [`name`](Backend::name) identifies the backend in reports and
///   placement descriptions (`cpu`, `gpu`, `rpaccel(8,2)`, ...);
/// * [`resources`](Backend::resources) declares the queueing-simulator
///   resource pool *one instance* of this backend contributes (e.g. 64
///   CPU cores, 1 GPU, 8 accelerator lanes) — the engine replicates it
///   per the placement's replica counts;
/// * [`batch_latency`](Backend::batch_latency) prices a batch of
///   queries' stage, optionally split across `parallelism` resource
///   units. The engine prices one query as a batch of one.
///
/// Backends whose at-scale behavior is *not* well modeled as
/// independent per-stage service (RPAccel serializes all queries on its
/// shared DRAM system) can override [`chain_profile`](Backend::chain_profile)
/// to price a whole pipeline as a memory phase plus a compute phase; the
/// engine uses it whenever every stage of a pipeline is placed on that backend.
///
/// # Examples
///
/// A mock backend is a handful of lines — the test suite drives one
/// through `Engine::evaluate` end to end:
///
/// ```
/// use recpipe_core::Backend;
/// use recpipe_hwsim::StageWork;
/// use recpipe_qsim::ReplicaGroup;
///
/// #[derive(Debug)]
/// struct FixedLatency(f64);
///
/// impl Backend for FixedLatency {
///     fn name(&self) -> String {
///         "fixed".into()
///     }
///     fn resources(&self) -> ReplicaGroup {
///         ReplicaGroup::new("fixed", 4)
///     }
///     fn batch_latency(&self, _work: &StageWork, _parallelism: usize, batch: usize) -> f64 {
///         self.0 * batch as f64
///     }
/// }
/// ```
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// Short human-readable identifier used in placement descriptions.
    fn name(&self) -> String;

    /// The resource pool this backend contributes to the queueing
    /// simulation.
    fn resources(&self) -> ReplicaGroup;

    /// Service time in seconds of a batch of `batch` queries' stage on
    /// `parallelism` resource units (backends that cannot split a query
    /// simply ignore values above 1). Called with
    /// `1 <= batch <= max_batch()`; `batch = 1` is one query's price.
    fn batch_latency(&self, work: &StageWork, parallelism: usize, batch: usize) -> f64;

    /// Largest number of queries this backend profitably serves as one
    /// launched batch (1 = per-query serving, the default).
    fn max_batch(&self) -> usize {
        1
    }

    /// Whether this backend models splitting one query across multiple
    /// resource units (CPU model parallelism). When `false` (the
    /// default), the scheduler does not generate `parallelism > 1`
    /// placement variants for it — paying extra units for a backend
    /// that ignores the knob would misprice the design point.
    fn splits_queries(&self) -> bool {
        false
    }

    /// Optional whole-pipeline service profile of one launch of `batch`
    /// queries (`1 <= batch <= max_batch()`), consulted when every stage
    /// of `pipeline` is placed on this backend. Return `None` (the
    /// default) to price the pipeline stage by stage.
    fn chain_profile(&self, pipeline: &PipelineConfig, batch: usize) -> Option<ServiceProfile> {
        let _ = (pipeline, batch);
        None
    }
}

impl Backend for CpuModel {
    fn name(&self) -> String {
        "cpu".into()
    }

    fn resources(&self) -> ReplicaGroup {
        ReplicaGroup::new("cpu", self.cores)
    }

    fn max_batch(&self) -> usize {
        // Beyond a handful of queries the GEMM-efficiency gain
        // flattens while the batch's head-of-line cost keeps growing.
        8
    }

    fn batch_latency(&self, work: &StageWork, parallelism: usize, batch: usize) -> f64 {
        self.stage_latency(work, parallelism.min(self.cores), batch)
    }

    fn splits_queries(&self) -> bool {
        true
    }
}

impl Backend for GpuModel {
    fn name(&self) -> String {
        "gpu".into()
    }

    fn resources(&self) -> ReplicaGroup {
        ReplicaGroup::new("gpu", 1)
    }

    fn max_batch(&self) -> usize {
        // The device that lives on batching: launches, PCIe setup, and
        // the fixed per-query overhead amortize across the batch.
        16
    }

    fn batch_latency(&self, work: &StageWork, _parallelism: usize, batch: usize) -> f64 {
        self.stage_latency(work, batch)
    }
}

impl Backend for RpAccel {
    fn name(&self) -> String {
        let p = &self.config().partition;
        format!("rpaccel({},{})", p.frontend().len(), p.backend().len())
    }

    fn resources(&self) -> ReplicaGroup {
        ReplicaGroup::new("rpaccel", self.config().partition.query_lanes())
    }

    fn max_batch(&self) -> usize {
        // Matches the paper's 4-way sub-batched pipelining: enough to
        // amortize weight streaming without starving the top-k filter.
        4
    }

    fn batch_latency(&self, work: &StageWork, _parallelism: usize, batch: usize) -> f64 {
        self.query_latency(std::slice::from_ref(work), batch)
    }

    fn chain_profile(&self, pipeline: &PipelineConfig, batch: usize) -> Option<ServiceProfile> {
        Some(self.service_profile(&pipeline.stage_works(), batch))
    }
}

impl Backend for BaselineAccel {
    fn name(&self) -> String {
        "baseline-accel".into()
    }

    fn resources(&self) -> ReplicaGroup {
        ReplicaGroup::new("baseline-accel", 1)
    }

    fn max_batch(&self) -> usize {
        // A monolithic inference engine batches conservatively: weight
        // streaming amortizes, the host filter round trip does not.
        4
    }

    fn batch_latency(&self, work: &StageWork, _parallelism: usize, batch: usize) -> f64 {
        // The baseline serves a single monolithic stage; the top-64
        // host filter is the paper's serving configuration.
        self.query_latency(work, 64, batch)
    }

    fn chain_profile(&self, pipeline: &PipelineConfig, batch: usize) -> Option<ServiceProfile> {
        // The baseline models a single monolithic stage; multi-stage
        // pipelines fall back to the generic per-stage path so no
        // frontend work is silently dropped.
        if pipeline.num_stages() != 1 {
            return None;
        }
        let work = pipeline.stage_works().into_iter().next()?;
        Some(self.service_profile(&work, pipeline.items_served(), batch))
    }
}

/// Queueing decomposition of an accelerator service profile: a
/// serialized memory phase followed by a lanes-parallel compute phase,
/// each group cloned once per fleet member at that member's `speeds`
/// entry (replicating an accelerator clones its whole chain).
///
/// `batched` is the same profile measured at `batch` queries per
/// launch; each phase's batch model is the line through the two
/// measurements (`batch = 1` degenerates to per-query stages).
fn accel_profile_spec(
    profile: ServiceProfile,
    batched: ServiceProfile,
    batch: usize,
    speeds: &[f64],
) -> Result<PipelineSpec, SpecError> {
    let mem = StageSpec::new("mem", 0, 1, profile.dram_service_s.max(1e-9));
    let compute = StageSpec::new("compute", 1, 1, profile.compute_service_s);
    PipelineSpec::new(vec![
        ReplicaGroup::new("accel-mem", 1).with_fleet_speeds(speeds),
        ReplicaGroup::new("accel-lanes", profile.lanes).with_fleet_speeds(speeds),
    ])
    .with_stage(fit_batch(mem, batched.dram_service_s, batch))?
    .with_stage(fit_batch(compute, batched.compute_service_s, batch))
}

/// `stage` with the two-point linear batch model through its per-query
/// service time and the whole-batch service time `full` at `batch`
/// queries per launch.
fn fit_batch(stage: StageSpec, full: f64, batch: usize) -> StageSpec {
    let base = stage.service_time;
    if batch <= 1 || base <= 0.0 {
        return stage;
    }
    let slope = ((full - base) / (batch - 1) as f64).max(0.0);
    stage.with_batch(BatchModel::new(batch, (slope / base).clamp(0.0, 1.0)))
}

/// The generation mix of one backend's replica fleet: one service-speed
/// multiplier per replica, in replica-index order.
///
/// Speed 1.0 is the backend's current generation (the uniform pre-fleet
/// behavior); `0.6` models a previous-generation machine serving at 60%
/// of the baseline rate. Each replica inherits the backend's native
/// unit capacity — heterogeneous *capacities* are a qsim-level concern
/// ([`ReplicaProfile`](recpipe_qsim::ReplicaProfile)); at the placement
/// level a fleet mixes machine generations of one backend kind.
///
/// Speeds are stored as IEEE-754 bit patterns so the placement types
/// embedding fleets keep their derived `Hash`/`Eq` (the scheduler
/// dedups placements by hashing); constructors validate speeds finite
/// and positive, so bit equality is value equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FleetSpec {
    speed_bits: Vec<u64>,
}

impl FleetSpec {
    /// A uniform current-generation fleet of `replicas` machines.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn uniform(replicas: usize) -> Self {
        assert!(replicas > 0, "replica count must be positive");
        Self::new(&vec![1.0; replicas])
    }

    /// A fleet with one explicit speed per replica.
    ///
    /// # Panics
    ///
    /// Panics if `speeds` is empty or any speed is not strictly
    /// positive and finite.
    pub fn new(speeds: &[f64]) -> Self {
        assert!(!speeds.is_empty(), "fleet has no replicas");
        for &s in speeds {
            assert!(
                s.is_finite() && s > 0.0,
                "replica speed must be positive and finite"
            );
        }
        Self {
            speed_bits: speeds.iter().map(|s| s.to_bits()).collect(),
        }
    }

    /// A fleet from generation groups: `&[(2, 1.0), (2, 0.6)]` is two
    /// current-generation machines plus two previous-generation ones.
    ///
    /// # Panics
    ///
    /// Panics if the groups describe zero replicas or any speed is
    /// invalid.
    pub fn mixed(generations: &[(usize, f64)]) -> Self {
        let speeds: Vec<f64> = generations
            .iter()
            .flat_map(|&(count, speed)| std::iter::repeat_n(speed, count))
            .collect();
        Self::new(&speeds)
    }

    /// Number of replicas in the fleet (never zero).
    pub fn replicas(&self) -> usize {
        self.speed_bits.len()
    }

    /// The per-replica speeds, in replica-index order.
    pub fn speeds(&self) -> Vec<f64> {
        self.speed_bits.iter().map(|&b| f64::from_bits(b)).collect()
    }

    /// Whether every replica runs at the current-generation baseline.
    pub fn is_uniform_baseline(&self) -> bool {
        self.speed_bits.iter().all(|&b| b == 1.0f64.to_bits())
    }

    /// Profile-weighted hardware cost: the sum of replica speeds, so a
    /// previous-generation 0.6-speed machine prices at 0.6 of a
    /// current one. Equal to [`replicas`](Self::replicas) for uniform
    /// baseline fleets, keeping pre-fleet cost axes bit-identical.
    pub fn cost(&self) -> f64 {
        self.speeds().iter().sum()
    }

    /// Describe-annotation suffix: empty for one baseline replica,
    /// `*N` for a uniform fleet, and a generation mix like
    /// `*2@1.0+2@0.6` (count@speed per run of equal speeds) otherwise.
    pub fn annotation(&self) -> String {
        if self.is_uniform_baseline() {
            return if self.replicas() > 1 {
                format!("*{}", self.replicas())
            } else {
                String::new()
            };
        }
        let mut runs: Vec<(usize, f64)> = Vec::new();
        for s in self.speeds() {
            match runs.last_mut() {
                Some((count, speed)) if *speed == s => *count += 1,
                _ => runs.push((1, s)),
            }
        }
        let parts: Vec<String> = runs
            .iter()
            .map(|&(count, speed)| format!("{count}@{speed:?}"))
            .collect();
        format!("*{}", parts.join("+"))
    }
}

impl Default for FleetSpec {
    /// The single current-generation replica every pre-fleet site
    /// carried.
    fn default() -> Self {
        Self::uniform(1)
    }
}

/// Where one pipeline stage runs: a backend (by index into the engine's
/// pool) and how many of that backend's resource units serve one query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StageSite {
    /// Index into the backend pool.
    pub backend: usize,
    /// Resource units dedicated to each in-flight query (CPU model
    /// parallelism; 1 for backends that serve a query on one unit).
    pub parallelism: usize,
}

impl StageSite {
    /// A site on `backend` with the given per-query parallelism. A zero
    /// parallelism is an [`EngineError::Spec`] when an engine is built
    /// on it.
    pub fn new(backend: usize, parallelism: usize) -> Self {
        Self {
            backend,
            parallelism,
        }
    }
}

/// A per-stage assignment of pipeline stages to backends — the
/// scheduler's Step 2 decision, generalized beyond CPU/GPU — plus the
/// replica fleet of each backend the stages use (one baseline replica
/// unless set with [`with_fleet`](Placement::with_fleet)).
///
/// The index-based helpers ([`cpu_only`](Placement::cpu_only),
/// [`gpu_only`](Placement::gpu_only), ...) assume the *commodity pool
/// convention* used by `Engine::commodity`: backend 0 is the CPU,
/// backend 1 is the GPU.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    sites: Vec<StageSite>,
    /// Each used backend's fleet other than one baseline replica, so
    /// equal placements compare and hash equal however they were built.
    fleets: BTreeMap<usize, FleetSpec>,
}

impl Placement {
    /// Creates a placement from explicit per-stage sites.
    pub fn new(sites: Vec<StageSite>) -> Self {
        Self {
            sites,
            fleets: BTreeMap::new(),
        }
    }

    /// Every stage on `backend` with the given parallelism.
    pub fn uniform(backend: usize, stages: usize, parallelism: usize) -> Self {
        Self::new(vec![StageSite::new(backend, parallelism); stages])
    }

    /// Commodity convention: all stages on the CPU, one core per query.
    pub fn cpu_only(stages: usize) -> Self {
        Self::uniform(0, stages, 1)
    }

    /// Commodity convention: every stage on the GPU.
    pub fn gpu_only(stages: usize) -> Self {
        Self::uniform(1, stages, 1)
    }

    /// Commodity convention: frontend on the GPU, remaining stages on
    /// the CPU with `backend_cores` cores per query (the paper's winning
    /// heterogeneous configuration).
    pub fn gpu_frontend(stages: usize, backend_cores: usize) -> Self {
        let mut sites = vec![StageSite::new(1, 1)];
        let rest = stages.saturating_sub(1);
        sites.extend(vec![StageSite::new(0, 1); rest.saturating_sub(1)]);
        if rest > 0 {
            sites.push(StageSite::new(0, backend_cores));
        }
        Self::new(sites)
    }

    /// Per-stage sites.
    pub fn sites(&self) -> &[StageSite] {
        &self.sites
    }

    /// Number of stages this placement covers.
    pub fn num_stages(&self) -> usize {
        self.sites.len()
    }

    /// Sets `backend`'s replica fleet — the placement-level form of
    /// [`EngineBuilder::fleet`]. A no-op for a backend no stage is
    /// placed on (idle hardware has nothing to replicate).
    ///
    /// [`EngineBuilder::fleet`]: crate::EngineBuilder::fleet
    pub fn with_fleet(mut self, backend: usize, fleet: FleetSpec) -> Self {
        if fleet == FleetSpec::default() {
            self.fleets.remove(&backend);
        } else if self.sites.iter().any(|s| s.backend == backend) {
            self.fleets.insert(backend, fleet);
        }
        self
    }

    /// The replica fleet of `backend`'s emitted group (one baseline
    /// replica unless [`with_fleet`](Self::with_fleet) set another).
    pub fn fleet_for(&self, backend: usize) -> FleetSpec {
        self.fleets.get(&backend).cloned().unwrap_or_default()
    }

    /// Total replica cost: the sum of replica counts across the
    /// distinct backends this placement actually uses — the hardware
    /// axis of replica-aware Pareto fronts. Counts machines whatever
    /// their generation; see [`fleet_cost`](Self::fleet_cost) for the
    /// profile-weighted axis.
    pub fn replica_cost(&self) -> usize {
        self.used_backends()
            .into_iter()
            .map(|b| self.fleet_for(b).replicas())
            .sum()
    }

    /// Profile-weighted hardware cost: the sum of [`FleetSpec::cost`]
    /// across the distinct backends this placement uses, so a
    /// previous-generation 0.6-speed machine prices at 0.6 of a
    /// current one. Equal to [`replica_cost`](Self::replica_cost) (as
    /// a float) for uniform baseline fleets.
    pub fn fleet_cost(&self) -> f64 {
        self.used_backends()
            .into_iter()
            .map(|b| self.fleet_for(b).cost())
            .sum()
    }

    pub(crate) fn used_backends(&self) -> Vec<usize> {
        let mut used: Vec<usize> = self.sites.iter().map(|s| s.backend).collect();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Whether all stages share one backend (returns its index).
    pub fn sole_backend(&self) -> Option<usize> {
        let first = self.sites.first()?.backend;
        self.sites
            .iter()
            .all(|s| s.backend == first)
            .then_some(first)
    }

    /// Compact description against a backend pool, e.g. `gpu|cpu(x2)`,
    /// with replicated backends annotated as `cpu*3` and
    /// mixed-generation fleets showing the mix, e.g. `cpu*2@1.0+2@0.6`
    /// (count@speed per generation run). A placement that runs every
    /// stage on one backend with no model parallelism collapses to the
    /// bare (possibly fleet-annotated) backend name (e.g.
    /// `rpaccel(8,2)` or `rpaccel(8,2)*2`).
    ///
    /// # Panics
    ///
    /// Panics if a site references a backend outside the pool.
    pub fn describe(&self, pool: &[Arc<dyn Backend>]) -> String {
        let annotate = |s: &StageSite| {
            format!(
                "{}{}",
                pool[s.backend].name(),
                self.fleet_for(s.backend).annotation()
            )
        };
        if self.sole_backend().is_some() && self.sites.iter().all(|s| s.parallelism == 1) {
            return annotate(&self.sites[0]);
        }
        self.sites
            .iter()
            .map(|s| {
                let name = annotate(s);
                if s.parallelism > 1 {
                    format!("{name}(x{})", s.parallelism)
                } else {
                    name
                }
            })
            .collect::<Vec<_>>()
            .join("|")
    }
}

/// Builds the per-query queueing spec for `pipeline` under `placement`
/// over a backend `pool` — see [`build_serving_spec`], which this
/// forwards to with batching disabled.
///
/// # Errors
///
/// Returns an [`EngineError`] if the placement arity does not match the
/// pipeline, a site references a backend outside the pool, or a stage
/// over-requests its backend's capacity.
pub fn build_spec(
    pool: &[Arc<dyn Backend>],
    interconnect: &PcieModel,
    pipeline: &PipelineConfig,
    placement: &Placement,
) -> Result<PipelineSpec, EngineError> {
    build_serving_spec(pool, interconnect, pipeline, placement, false)
}

/// Builds the queueing spec for `pipeline` under `placement` over a
/// backend `pool` — the one code path every evaluation flows through.
///
/// If all stages land on a single backend that supplies a
/// [`Backend::chain_profile`], its mem + lanes decomposition is used
/// (scaled to the placement's fleet: replicating an accelerator clones
/// its whole chain). Otherwise each stage becomes a queueing stage on
/// its backend's resource group, priced as a batch of one — emitted
/// with the placement's fleet for that backend — and
/// consecutive stages on *different* backends pay `interconnect`
/// transfer for the surviving candidates. Replica-to-replica hops
/// within one backend are free: the model assumes a uniform same-tier
/// network behind the load balancer.
///
/// With `batching` enabled, each stage additionally carries a
/// [`BatchModel`] fitted to its backend's batch-scaling curve
/// ([`Backend::batch_latency`], or each phase's chain profile, probed
/// at batch 1 and [`Backend::max_batch`]), with interconnect transfer
/// scaling linearly across the batch. With `batching` disabled every
/// stage is per-query, preserving the pre-batching simulator's behavior
/// exactly.
///
/// # Errors
///
/// Returns an [`EngineError`] if the placement arity does not match the
/// pipeline, a site references a backend outside the pool, or a stage
/// over-requests its backend's capacity.
pub fn build_serving_spec(
    pool: &[Arc<dyn Backend>],
    interconnect: &PcieModel,
    pipeline: &PipelineConfig,
    placement: &Placement,
    batching: bool,
) -> Result<PipelineSpec, EngineError> {
    if placement.num_stages() != pipeline.num_stages() {
        return Err(EngineError::PlacementArity {
            stages: pipeline.num_stages(),
            sites: placement.num_stages(),
        });
    }
    if let Some(site) = placement.sites().iter().find(|s| s.backend >= pool.len()) {
        return Err(EngineError::UnknownBackend {
            index: site.backend,
            pool_size: pool.len(),
        });
    }
    let batch_of = |backend: &dyn Backend| if batching { backend.max_batch() } else { 1 };

    // The whole-chain decomposition models plain (parallelism-1)
    // occupancy; placements requesting model parallelism fall through
    // to the generic path, which both prices the parallelism and
    // validates it against the backend's capacity.
    let chain = placement
        .sole_backend()
        .filter(|_| placement.sites().iter().all(|s| s.parallelism == 1));
    if let Some(sole) = chain {
        let backend = pool[sole].as_ref();
        let batch = batch_of(backend);
        let profiles = backend
            .chain_profile(pipeline, 1)
            .zip(backend.chain_profile(pipeline, batch));
        if let Some((one, full)) = profiles {
            let speeds = placement.fleet_for(sole).speeds();
            return Ok(accel_profile_spec(one, full, batch, &speeds)?);
        }
    }

    let resources: Vec<ReplicaGroup> = pool
        .iter()
        .enumerate()
        .map(|(b, backend)| {
            backend
                .resources()
                .with_fleet_speeds(&placement.fleet_for(b).speeds())
        })
        .collect();
    let works = pipeline.stage_works();
    let mut spec = PipelineSpec::new(resources);
    let mut prev: Option<usize> = None;
    for (i, (work, site)) in works.iter().zip(placement.sites()).enumerate() {
        // Crossing backends ships the surviving candidates over the
        // interconnect.
        let crossing = prev.is_some_and(|p| p != site.backend);
        let transfer = if crossing {
            interconnect.transfer_time(work.items * INTERMEDIATE_BYTES_PER_ITEM)
        } else {
            0.0
        };
        let backend = pool[site.backend].as_ref();
        let name = format!("s{i}:{}", backend.name());
        // The spec's own check, made before a backend prices zero units.
        if site.parallelism == 0 {
            return Err(SpecError::ZeroUnits { stage: name }.into());
        }
        let batch = batch_of(backend);
        let base = backend.batch_latency(work, site.parallelism, 1) + transfer;
        let full = backend.batch_latency(work, site.parallelism, batch) + transfer * batch as f64;
        let stage = StageSpec::new(name, site.backend, site.parallelism, base);
        spec = spec.with_stage(fit_batch(stage, full, batch))?;
        prev = Some(site.backend);
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageConfig;
    use recpipe_accel::{Partition, RpAccelConfig};
    use recpipe_models::ModelKind;

    fn two_stage() -> PipelineConfig {
        PipelineConfig::builder()
            .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
            .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
            .build()
            .unwrap()
    }

    fn commodity_pool() -> Vec<Arc<dyn Backend>> {
        vec![Arc::new(CpuModel::cascade_lake()), Arc::new(GpuModel::t4())]
    }

    #[test]
    fn cpu_backend_prices_stages_like_the_model() {
        let cpu = CpuModel::cascade_lake();
        let work = &two_stage().stage_works()[0];
        assert_eq!(
            Backend::batch_latency(&cpu, work, 2, 1),
            CpuModel::stage_latency(&cpu, work, 2, 1)
        );
        assert_eq!(cpu.resources().capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cpu_backend_passes_a_zero_parallelism_to_the_model() {
        let work = &two_stage().stage_works()[0];
        Backend::batch_latency(&CpuModel::cascade_lake(), work, 0, 1);
    }

    #[test]
    fn placement_describe_names_backends() {
        let pool = commodity_pool();
        let p = Placement::new(vec![StageSite::new(1, 1), StageSite::new(0, 4)]);
        assert_eq!(p.describe(&pool), "gpu|cpu(x4)");
        // Uniform single-backend placements collapse to the bare name.
        assert_eq!(Placement::cpu_only(2).describe(&pool), "cpu");
        assert_eq!(
            Placement::new(vec![StageSite::new(0, 1), StageSite::new(0, 4)]).describe(&pool),
            "cpu|cpu(x4)"
        );
    }

    #[test]
    fn build_spec_charges_interconnect_on_crossing() {
        let pool = commodity_pool();
        let pcie = PcieModel::measured();
        let pipeline = two_stage();
        let hetero = build_spec(&pool, &pcie, &pipeline, &Placement::gpu_frontend(2, 1)).unwrap();
        let cpu_only = build_spec(&pool, &pcie, &pipeline, &Placement::cpu_only(2)).unwrap();
        // The backend stage gains the PCIe transfer when upstream is GPU.
        assert!(hetero.stages()[1].service_time > cpu_only.stages()[1].service_time);
        // Same backend on both stages: no transfer even with different
        // parallelism.
        let parallel = build_spec(
            &pool,
            &pcie,
            &pipeline,
            &Placement::new(vec![StageSite::new(0, 1), StageSite::new(0, 4)]),
        )
        .unwrap();
        assert!(parallel.stages()[1].service_time < cpu_only.stages()[1].service_time);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let pool = commodity_pool();
        let err = build_spec(
            &pool,
            &PcieModel::measured(),
            &two_stage(),
            &Placement::cpu_only(1),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::PlacementArity {
                stages: 2,
                sites: 1
            }
        ));
    }

    #[test]
    fn unknown_backend_is_an_error() {
        let pool = commodity_pool();
        let err = build_spec(
            &pool,
            &PcieModel::measured(),
            &two_stage(),
            &Placement::uniform(7, 2, 1),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::UnknownBackend { index: 7, .. }));
    }

    #[test]
    fn model_parallel_placements_skip_the_chain_profile() {
        // A sole RPAccel serves through its `chain_profile` (its specs
        // are pinned in `tests/backend_contract.rs`); model-parallel
        // placements go generic instead, which prices the parallelism
        // and validates it against capacity (lanes = 2 here).
        let accel = RpAccel::new(RpAccelConfig::paper_default(Partition::symmetric(8, 2)));
        let pool: Vec<Arc<dyn Backend>> = vec![Arc::new(accel)];
        let build = |parallelism| {
            let placement = Placement::uniform(0, 2, parallelism);
            build_spec(&pool, &PcieModel::measured(), &two_stage(), &placement)
        };
        assert_eq!(build(2).unwrap().resources()[0].name, "rpaccel");
        assert!(matches!(build(999).unwrap_err(), EngineError::Spec(_)));
    }

    #[test]
    fn baseline_accel_multi_stage_falls_back_to_per_stage_pricing() {
        // The baseline's chain decomposition models a single monolithic
        // stage; a multi-stage pipeline must NOT silently drop frontend
        // work — it takes the generic per-stage path instead.
        let baseline = BaselineAccel::paper_default();
        assert!(baseline.chain_profile(&two_stage(), 1).is_none());
        let single = PipelineConfig::single_stage(ModelKind::RmLarge, 4096, 64).unwrap();
        assert!(baseline.chain_profile(&single, 1).is_some());

        let pool: Vec<Arc<dyn Backend>> = vec![Arc::new(BaselineAccel::paper_default())];
        let spec = build_spec(
            &pool,
            &PcieModel::measured(),
            &two_stage(),
            &Placement::uniform(0, 2, 1),
        )
        .unwrap();
        // One queueing stage per pipeline stage, every stage priced.
        assert_eq!(spec.stages().len(), 2);
        assert!(spec.stages().iter().all(|s| s.service_time > 0.0));
    }

    #[test]
    fn replicated_placement_emits_replica_groups() {
        let pool = commodity_pool();
        let pipeline = two_stage();
        let placement = Placement::cpu_only(2).with_fleet(0, FleetSpec::uniform(3));
        let spec = build_spec(&pool, &PcieModel::measured(), &pipeline, &placement).unwrap();
        assert_eq!(spec.resources()[0].replicas(), 3);
        assert_eq!(spec.resources()[1].replicas(), 1);
        // Replication multiplies the analytic capacity of the CPU-bound
        // pipeline.
        let single = build_spec(
            &pool,
            &PcieModel::measured(),
            &pipeline,
            &Placement::cpu_only(2),
        )
        .unwrap();
        assert!((spec.max_qps() - 3.0 * single.max_qps()).abs() < 1e-6);
    }

    #[test]
    fn placement_replica_accessors_and_describe() {
        let pool = commodity_pool();
        let p = Placement::new(vec![StageSite::new(1, 1), StageSite::new(0, 4)])
            .with_fleet(0, FleetSpec::uniform(3))
            .with_fleet(1, FleetSpec::uniform(2));
        assert_eq!(p.fleet_for(0).replicas(), 3);
        assert_eq!(p.fleet_for(1).replicas(), 2);
        assert_eq!(p.replica_cost(), 5);
        assert_eq!(p.describe(&pool), "gpu*2|cpu*3(x4)");
        // Sole-backend collapse keeps the replica annotation.
        let sole = Placement::cpu_only(2).with_fleet(0, FleetSpec::uniform(4));
        assert_eq!(sole.describe(&pool), "cpu*4");
        assert_eq!(sole.replica_cost(), 4);
        // Unreplicated placements describe exactly as before.
        assert_eq!(Placement::cpu_only(2).replica_cost(), 1);
        assert_eq!(Placement::gpu_frontend(2, 2).replica_cost(), 2);
    }

    #[test]
    fn fleet_spec_constructors_and_cost() {
        let mix = FleetSpec::mixed(&[(2, 1.0), (2, 0.6)]);
        assert_eq!(mix, FleetSpec::new(&[1.0, 1.0, 0.6, 0.6]));
        assert_eq!(mix.replicas(), 4);
        assert!((mix.cost() - 3.2).abs() < 1e-12);
        assert!(!mix.is_uniform_baseline());
        assert_eq!(mix.annotation(), "*2@1.0+2@0.6");

        let uniform = FleetSpec::uniform(3);
        assert!(uniform.is_uniform_baseline());
        assert!((uniform.cost() - 3.0).abs() < 1e-12);
        assert_eq!(uniform.annotation(), "*3");
        assert_eq!(FleetSpec::default().annotation(), "");
        // Non-baseline uniform speeds still show the mix.
        assert_eq!(FleetSpec::new(&[0.6, 0.6]).annotation(), "*2@0.6");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn fleet_spec_rejects_bad_speeds() {
        FleetSpec::new(&[1.0, 0.0]);
    }

    #[test]
    fn mixed_fleet_describe_shows_the_generation_mix() {
        let pool = commodity_pool();
        let mix = FleetSpec::mixed(&[(2, 1.0), (2, 0.6)]);
        let sole = Placement::cpu_only(2).with_fleet(0, mix.clone());
        assert_eq!(sole.describe(&pool), "cpu*2@1.0+2@0.6");
        // Mixed fleet on one backend of a heterogeneous placement.
        let hetero = Placement::gpu_frontend(2, 2).with_fleet(1, FleetSpec::new(&[1.0, 0.5]));
        assert_eq!(hetero.describe(&pool), "gpu*1@1.0+1@0.5|cpu(x2)");
    }

    #[test]
    fn mixed_fleet_costs_weight_by_profile() {
        let mix = FleetSpec::mixed(&[(2, 1.0), (2, 0.6)]);
        let sole = Placement::cpu_only(2).with_fleet(0, mix);
        // Machine count is generation-blind; fleet cost prices the old
        // boxes at their speed.
        assert_eq!(sole.replica_cost(), 4);
        assert!((sole.fleet_cost() - 3.2).abs() < 1e-12);

        let hetero = Placement::gpu_frontend(2, 2).with_fleet(1, FleetSpec::new(&[1.0, 0.5]));
        assert_eq!(hetero.replica_cost(), 3);
        assert!((hetero.fleet_cost() - 2.5).abs() < 1e-12);

        // Uniform fleets keep cost == count, the pre-fleet axis.
        let uniform = Placement::cpu_only(2).with_fleet(0, FleetSpec::uniform(4));
        assert_eq!(uniform.replica_cost(), 4);
        assert!((uniform.fleet_cost() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_fleet_emits_heterogeneous_groups() {
        let pool = commodity_pool();
        let pipeline = two_stage();
        let placement = Placement::cpu_only(2).with_fleet(0, FleetSpec::new(&[1.0, 1.0, 0.6]));
        let spec = build_spec(&pool, &PcieModel::measured(), &pipeline, &placement).unwrap();
        let cpu_group = &spec.resources()[0];
        assert_eq!(cpu_group.replicas(), 3);
        let speeds: Vec<f64> = cpu_group.profiles().iter().map(|p| p.speed()).collect();
        assert_eq!(speeds, vec![1.0, 1.0, 0.6]);
        // Speed-weighted capacity: 2.6x the single pool.
        let single = build_spec(
            &pool,
            &PcieModel::measured(),
            &pipeline,
            &Placement::cpu_only(2),
        )
        .unwrap();
        assert!((spec.max_qps() - 2.6 * single.max_qps()).abs() < 1e-6);
    }

    #[test]
    fn over_capacity_parallelism_surfaces_as_spec_error() {
        let pool = commodity_pool();
        let err = build_spec(
            &pool,
            &PcieModel::measured(),
            &two_stage(),
            &Placement::new(vec![StageSite::new(1, 1), StageSite::new(1, 3)]),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Spec(_)));
    }
}
