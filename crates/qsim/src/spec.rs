use crate::LifecycleSchedule;

/// The hardware generation of one replica: how many units it holds and
/// how fast it serves them, relative to the group's baseline service
/// curve.
///
/// `speed` is a service-*rate* multiplier: a batch whose baseline
/// service time is `t` takes `t / speed` seconds on this replica.
/// `speed = 1.0` is the current generation (the uniform pre-fleet
/// behavior, reproduced bit-for-bit); `speed = 0.6` models a previous
/// generation serving at 60% of the baseline rate; `speed > 1.0` a
/// faster next-gen part. Capacity and speed together price a
/// mixed-generation fleet: an old box may hold the same units but
/// drain them more slowly. Built only by [`new`](Self::new) and
/// [`baseline`](Self::baseline), which check both values:
///
/// ```compile_fail
/// let _ = recpipe_qsim::ReplicaProfile { capacity: 0, speed: 1.0 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaProfile {
    /// Number of units this replica can hold concurrently.
    pub(crate) capacity: usize,
    /// Service-rate multiplier relative to the stage's baseline service
    /// time (1.0 = baseline; see the type-level docs).
    pub(crate) speed: f64,
}

impl ReplicaProfile {
    /// A replica profile with explicit capacity and speed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `speed` is not strictly positive
    /// and finite.
    pub fn new(capacity: usize, speed: f64) -> Self {
        assert!(capacity > 0, "replica capacity must be positive");
        assert!(
            speed.is_finite() && speed > 0.0,
            "replica speed must be positive and finite"
        );
        Self { capacity, speed }
    }

    /// A current-generation replica: `capacity` units at speed 1.0.
    pub fn baseline(capacity: usize) -> Self {
        Self::new(capacity, 1.0)
    }

    /// The service-rate multiplier (see the type-level docs).
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Whether this replica serves at the baseline rate.
    pub fn is_baseline(&self) -> bool {
        self.speed == 1.0
    }

    /// Unit-weighted service rate: `capacity x speed`, the replica's
    /// contribution to the group's aggregate drain rate.
    pub fn weighted_units(&self) -> f64 {
        self.capacity as f64 * self.speed
    }
}

/// A group of replica hardware pools (cores, devices, sub-array
/// groups), each described by a [`ReplicaProfile`] **with its own
/// waiting queue**.
///
/// A single-replica group is one pool with one queue. With more replicas the simulator routes every query
/// to one replica per stage (see [`Router`](crate::Router)); batches never span
/// replicas, and work queued at one replica cannot be stolen by an idle
/// sibling — the private-queue cost that distinguishes a scale-out fleet
/// behind a load balancer from one big shared pool. Profiles make
/// *heterogeneity* first-class: a fleet may mix machine generations
/// (different `speed`) and sizes (different `capacity`), and routers
/// see the difference through per-replica expected-wait signals.
///
/// [`replicated`](Self::replicated) remains the uniform constructor:
/// every spec it builds is bit-identical in behavior to the pre-fleet
/// `ReplicaGroup { capacity, replicas }` form.
///
/// # Validation policy
///
/// Like every constructor in this crate, the constructors panic on
/// structurally invalid scalar arguments (zero capacity, zero replicas,
/// non-positive speed); cross-references between stages and resources
/// are validated by [`PipelineSpec::with_stage`], which returns a
/// [`SpecError`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaGroup {
    /// Human-readable name for reports.
    pub name: String,
    profiles: Vec<ReplicaProfile>,
    /// Timed availability events replayed by lifecycle-aware runs
    /// (empty — and fully inert — by default).
    lifecycle: LifecycleSchedule,
}

impl ReplicaGroup {
    /// Creates a single-replica resource pool (the pre-cluster
    /// `ReplicaGroup`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        Self::replicated(name, capacity, 1)
    }

    /// Creates a group of `replicas` identical baseline-speed pools of
    /// `capacity` units each — the uniform constructor every earlier
    /// API produced, kept so existing specs behave bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `replicas == 0`.
    pub fn replicated(name: impl Into<String>, capacity: usize, replicas: usize) -> Self {
        assert!(replicas > 0, "replica count must be positive");
        Self::heterogeneous(name, vec![ReplicaProfile::baseline(capacity); replicas])
    }

    /// Creates a mixed-generation group from explicit per-replica
    /// profiles.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty (profiles validate themselves at
    /// [`ReplicaProfile::new`]).
    pub fn heterogeneous(name: impl Into<String>, profiles: Vec<ReplicaProfile>) -> Self {
        assert!(!profiles.is_empty(), "replica group has no replicas");
        Self {
            name: name.into(),
            profiles,
            lifecycle: LifecycleSchedule::empty(),
        }
    }

    /// Attaches a lifecycle schedule: timed provision / drain /
    /// fail-stop / recovery events replayed against this group's
    /// replicas by a [`Scenario`](crate::Scenario) with lifecycle,
    /// autoscaling, multi-path, or resilience set. Plain scenarios
    /// ignore the schedule entirely.
    ///
    /// [`with_fleet_speeds`](Self::with_fleet_speeds) clears the
    /// schedule: its events name replica indices, and resizing
    /// invalidates those identities.
    ///
    /// # Panics
    ///
    /// Panics if any event names a replica index outside the group.
    pub fn with_lifecycle(mut self, schedule: LifecycleSchedule) -> Self {
        for e in schedule.events() {
            assert!(
                e.replica < self.replicas(),
                "lifecycle event targets replica {} of a {}-replica group",
                e.replica,
                self.replicas()
            );
        }
        self.lifecycle = schedule;
        self
    }

    /// The group's lifecycle schedule (empty unless
    /// [`with_lifecycle`](Self::with_lifecycle) attached one).
    pub fn lifecycle(&self) -> &LifecycleSchedule {
        &self.lifecycle
    }

    /// Whether the group carries any lifecycle events.
    pub fn has_lifecycle(&self) -> bool {
        !self.lifecycle.is_empty()
    }

    /// The per-replica profiles, in replica-index order (the order
    /// routers and [`SimResult::replica_utilization`] report).
    ///
    /// [`SimResult::replica_utilization`]: crate::SimResult
    pub fn profiles(&self) -> &[ReplicaProfile] {
        &self.profiles
    }

    /// Number of replicas in the group (never zero).
    pub fn replicas(&self) -> usize {
        self.profiles.len()
    }

    /// The smallest per-replica capacity — the validation bound for
    /// stage `units`: a stage must fit on *every* replica, or routing
    /// could strand it on a pool that can never serve it. Equal to the
    /// uniform capacity on groups built by
    /// [`replicated`](Self::replicated).
    pub fn capacity(&self) -> usize {
        self.profiles
            .iter()
            .map(|p| p.capacity)
            .min()
            .expect("non-empty")
    }

    /// Whether every replica shares one baseline profile (the uniform
    /// pre-fleet case).
    pub fn is_uniform(&self) -> bool {
        self.profiles
            .iter()
            .all(|p| p.is_baseline() && p.capacity == self.profiles[0].capacity)
    }

    /// Total units across all replicas — the group's aggregate unit
    /// count (a batch still runs on *one* replica).
    pub fn total_units(&self) -> usize {
        self.profiles.iter().map(|p| p.capacity).sum()
    }

    /// Speed-weighted aggregate drain rate in unit-equivalents:
    /// `sum(capacity x speed)`. This is the capacity term of stability
    /// math on mixed fleets — equal to [`total_units`](Self::total_units)
    /// when every replica runs at baseline speed.
    pub fn weighted_units(&self) -> f64 {
        self.profiles
            .iter()
            .map(ReplicaProfile::weighted_units)
            .sum()
    }

    /// Expands the group into a mixed-generation fleet: one copy of the
    /// base profiles per entry of `speeds`, each copy's speeds
    /// multiplied by that entry. `&[1.0; n]` tiles the base profiles
    /// `n` times unchanged, so uniform fleets stay bit-identical to
    /// plain replication.
    ///
    /// # Panics
    ///
    /// Panics if `speeds` is empty or any speed is not strictly
    /// positive and finite.
    pub fn with_fleet_speeds(mut self, speeds: &[f64]) -> Self {
        assert!(!speeds.is_empty(), "fleet has no replicas");
        let base = self.profiles.clone();
        self.profiles = Vec::with_capacity(base.len() * speeds.len());
        for &speed in speeds {
            for p in &base {
                self.profiles
                    .push(ReplicaProfile::new(p.capacity, p.speed * speed));
            }
        }
        self.lifecycle = LifecycleSchedule::empty();
        self
    }
}

/// How a stage's service time scales when several queries are served as
/// one batch on the same resource units.
///
/// A batch of `b` queries takes
/// `service_time * (1 + marginal * (b - 1))` seconds:
///
/// * `marginal = 1` (the [`per_query`](Self::per_query) default) is
///   exactly today's per-query serving — `b` queries cost `b` service
///   times, and `max_batch = 1` never forms a batch;
/// * `marginal < 1` models hardware that amortizes fixed work (weight
///   streaming, kernel launches, PCIe setup) across the batch.
///
/// Built only by [`per_query`](Self::per_query) and [`new`](Self::new),
/// which checks both values:
///
/// ```compile_fail
/// let _ = recpipe_qsim::BatchModel { max_batch: 0, marginal: 1.0 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchModel {
    /// Largest number of queries one launch may aggregate.
    pub(crate) max_batch: usize,
    /// Fraction of the base service time each query after the first
    /// adds (1.0 = no batching benefit, 0.0 = perfect batching).
    pub(crate) marginal: f64,
}

impl BatchModel {
    /// Per-query serving: `max_batch = 1`, linear cost — the degenerate
    /// case matching the pre-batching simulator exactly.
    pub fn per_query() -> Self {
        Self {
            max_batch: 1,
            marginal: 1.0,
        }
    }

    /// A batching model with the given size cap and marginal cost.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or `marginal` is negative or not
    /// finite — the same constructor-panics policy every other
    /// constructor in this crate follows (earlier versions silently
    /// clamped `max_batch`, hiding caller bugs that
    /// [`ReplicaGroup::new`] would have reported).
    pub fn new(max_batch: usize, marginal: f64) -> Self {
        assert!(max_batch > 0, "batch cap must be positive");
        assert!(
            marginal.is_finite() && marginal >= 0.0,
            "marginal batch cost must be non-negative"
        );
        Self {
            max_batch,
            marginal,
        }
    }

    /// Largest number of queries one launch may aggregate.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Fraction of the base service time each query after the first
    /// adds.
    pub fn marginal(&self) -> f64 {
        self.marginal
    }

    /// Service time of a batch of `b` queries whose per-query base
    /// service time is `base`.
    pub fn service_time(&self, base: f64, b: usize) -> f64 {
        let extra = b.saturating_sub(1) as f64;
        base * (1.0 + self.marginal * extra)
    }

    /// Whether this model ever aggregates queries.
    pub fn batches(&self) -> bool {
        self.max_batch > 1
    }
}

impl Default for BatchModel {
    fn default() -> Self {
        Self::per_query()
    }
}

/// One pipeline stage: a batch of up to `batch.max_batch()` queries holds
/// `units` of resource `resource` for the batch's service time (for the
/// default per-query [`BatchModel`], `service_time` seconds per query).
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Stage name for reports.
    pub name: String,
    /// Index into the pipeline's resource list.
    pub resource: usize,
    /// Resource units one batch holds while in service.
    pub units: usize,
    /// Deterministic base service time per query, seconds.
    pub service_time: f64,
    /// How service time scales with batch size (default: per-query).
    pub batch: BatchModel,
}

impl StageSpec {
    /// Creates a per-query (non-batching) stage spec.
    // simlint: allow(ctor-validate) -- specs validate at attachment:
    // `PipelineSpec::with_stage` rejects zero units and non-positive or
    // non-finite service times with a typed `SpecError` (Result-based
    // by design, so sweeps can skip bad candidates without panicking).
    pub fn new(name: impl Into<String>, resource: usize, units: usize, service_time: f64) -> Self {
        Self {
            name: name.into(),
            resource,
            units,
            service_time,
            batch: BatchModel::per_query(),
        }
    }

    /// Replaces the stage's batching model.
    pub fn with_batch(mut self, batch: BatchModel) -> Self {
        self.batch = batch;
        self
    }

    /// Service time of a batch of `b` queries at this stage.
    pub fn batch_service_time(&self, b: usize) -> f64 {
        self.batch.service_time(self.service_time, b)
    }

    /// Per-query service time at the largest batch this stage forms —
    /// the stage's best-case amortized cost.
    pub fn amortized_service_time(&self) -> f64 {
        self.batch_service_time(self.batch.max_batch) / self.batch.max_batch as f64
    }
}

/// Error constructing a pipeline specification.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A stage referenced a resource index that does not exist.
    UnknownResource {
        /// The offending stage name.
        stage: String,
        /// The out-of-range index.
        resource: usize,
    },
    /// A stage demands more units than its resource has.
    UnitsExceedCapacity {
        /// The offending stage name.
        stage: String,
        /// Units requested.
        units: usize,
        /// Capacity available.
        capacity: usize,
    },
    /// A stage has a non-positive or non-finite service time.
    InvalidServiceTime {
        /// The offending stage name.
        stage: String,
        /// The bad value.
        service_time: f64,
    },
    /// A stage requested zero units.
    ZeroUnits {
        /// The offending stage name.
        stage: String,
    },
    /// A multi-path set member declares a different resource fleet than
    /// the set's (all paths must contend for one shared fleet — see
    /// [`PathSet::from_pipelines`](crate::PathSet::from_pipelines)).
    PathFleetMismatch {
        /// The offending path's name.
        path: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownResource { stage, resource } => {
                write!(f, "stage {stage} references unknown resource {resource}")
            }
            SpecError::UnitsExceedCapacity {
                stage,
                units,
                capacity,
            } => write!(
                f,
                "stage {stage} requests {units} units but capacity is {capacity}"
            ),
            SpecError::InvalidServiceTime {
                stage,
                service_time,
            } => write!(f, "stage {stage} has invalid service time {service_time}"),
            SpecError::ZeroUnits { stage } => write!(f, "stage {stage} requests zero units"),
            SpecError::PathFleetMismatch { path } => {
                write!(f, "path {path} does not share the path set's replica fleet")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete serving pipeline: resources plus an ordered stage list.
///
/// # Examples
///
/// ```
/// use recpipe_qsim::{PipelineSpec, ReplicaGroup, StageSpec};
///
/// // Two-stage GPU→CPU pipeline.
/// let spec = PipelineSpec::new(vec![
///     ReplicaGroup::new("gpu", 1),
///     ReplicaGroup::new("cpu", 64),
/// ])
/// .with_stage(StageSpec::new("frontend", 0, 1, 0.0012))?
/// .with_stage(StageSpec::new("backend", 1, 2, 0.008))?;
/// let out = spec.simulate(100.0, 2_000, 7);
/// assert!(out.qps > 90.0);
/// # Ok::<(), recpipe_qsim::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    resources: Vec<ReplicaGroup>,
    stages: Vec<StageSpec>,
}

impl PipelineSpec {
    /// Creates a pipeline over the given resources with no stages yet.
    pub fn new(resources: Vec<ReplicaGroup>) -> Self {
        Self {
            resources,
            stages: Vec::new(),
        }
    }

    /// Appends a stage, validating it against the resources.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the stage references a missing resource,
    /// over-requests units, or has an invalid service time.
    pub fn with_stage(mut self, stage: StageSpec) -> Result<Self, SpecError> {
        let resource =
            self.resources
                .get(stage.resource)
                .ok_or_else(|| SpecError::UnknownResource {
                    stage: stage.name.clone(),
                    resource: stage.resource,
                })?;
        if stage.units == 0 {
            return Err(SpecError::ZeroUnits {
                stage: stage.name.clone(),
            });
        }
        if stage.units > resource.capacity() {
            return Err(SpecError::UnitsExceedCapacity {
                stage: stage.name.clone(),
                units: stage.units,
                capacity: resource.capacity(),
            });
        }
        if !(stage.service_time.is_finite() && stage.service_time > 0.0) {
            return Err(SpecError::InvalidServiceTime {
                stage: stage.name.clone(),
                service_time: stage.service_time,
            });
        }
        self.stages.push(stage);
        Ok(self)
    }

    /// The resource pools.
    pub fn resources(&self) -> &[ReplicaGroup] {
        &self.resources
    }

    /// The ordered stages.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Maximum sustainable throughput in QPS (the tightest resource
    /// bottleneck across all replicas), serving one query per launch.
    /// Replica speeds weight the capacity: an old-generation replica at
    /// speed 0.6 contributes 0.6 of its units to the drain rate.
    pub fn max_qps(&self) -> f64 {
        bottleneck_qps(&self.resources, &self.stages, |s| s.service_time)
    }

    /// Maximum sustainable throughput in QPS when every stage serves
    /// full batches. Equals [`max_qps`](Self::max_qps) for per-query
    /// stages; higher when batching amortizes service time.
    pub fn max_qps_at_full_batch(&self) -> f64 {
        bottleneck_qps(
            &self.resources,
            &self.stages,
            StageSpec::amortized_service_time,
        )
    }

    /// Whether any stage aggregates queries into batches.
    pub fn has_batching(&self) -> bool {
        self.stages.iter().any(|s| s.batch.batches())
    }

    /// Whether any resource group has more than one replica (and a
    /// [`Router`](crate::Router) therefore has real choices to make).
    pub fn has_replication(&self) -> bool {
        self.resources.iter().any(|r| r.replicas() > 1)
    }

    /// Whether any resource group mixes replica generations (profiles
    /// differing in capacity or speed).
    pub fn has_heterogeneity(&self) -> bool {
        self.resources.iter().any(|r| !r.is_uniform())
    }

    /// Whether any resource group carries lifecycle events.
    pub fn has_lifecycle(&self) -> bool {
        self.resources.iter().any(ReplicaGroup::has_lifecycle)
    }

    /// Attaches a lifecycle schedule to resource group `resource` (see
    /// [`ReplicaGroup::with_lifecycle`]).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or any event names a replica
    /// the group does not have.
    pub fn with_group_lifecycle(mut self, resource: usize, schedule: LifecycleSchedule) -> Self {
        assert!(resource < self.resources.len(), "unknown resource group");
        let group = self.resources[resource].clone();
        self.resources[resource] = group.with_lifecycle(schedule);
        self
    }

    /// Sum of stage service times — the zero-load latency floor.
    pub fn service_floor(&self) -> f64 {
        self.stages.iter().map(|s| s.service_time).sum()
    }
}

/// The drain rate of the tightest resource group: each group's
/// speed-weighted units over the busy unit-seconds per query that
/// `stages` charge it, with `service` a stage's per-query service time.
/// Groups no stage loads never bind.
pub(crate) fn bottleneck_qps(
    resources: &[ReplicaGroup],
    stages: &[StageSpec],
    service: impl Fn(&StageSpec) -> f64,
) -> f64 {
    let mut load = vec![0.0; resources.len()];
    for s in stages {
        load[s.resource] += s.units as f64 * service(s);
    }
    resources
        .iter()
        .zip(load)
        .filter(|(_, load)| *load > 0.0)
        .map(|(r, load)| r.weighted_units() / load)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Vec<ReplicaGroup> {
        vec![ReplicaGroup::new("cpu", 64)]
    }

    #[test]
    fn valid_stage_is_accepted() {
        let spec = PipelineSpec::new(cpu())
            .with_stage(StageSpec::new("s0", 0, 1, 0.01))
            .unwrap();
        assert_eq!(spec.stages().len(), 1);
    }

    #[test]
    fn unknown_resource_is_rejected() {
        let err = PipelineSpec::new(cpu())
            .with_stage(StageSpec::new("s0", 5, 1, 0.01))
            .unwrap_err();
        assert!(matches!(err, SpecError::UnknownResource { .. }));
    }

    #[test]
    fn over_capacity_units_are_rejected() {
        let err = PipelineSpec::new(cpu())
            .with_stage(StageSpec::new("s0", 0, 100, 0.01))
            .unwrap_err();
        assert!(matches!(err, SpecError::UnitsExceedCapacity { .. }));
    }

    #[test]
    fn zero_units_are_rejected() {
        let err = PipelineSpec::new(cpu())
            .with_stage(StageSpec::new("s0", 0, 0, 0.01))
            .unwrap_err();
        assert!(matches!(err, SpecError::ZeroUnits { .. }));
    }

    #[test]
    fn invalid_service_time_is_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = PipelineSpec::new(cpu())
                .with_stage(StageSpec::new("s0", 0, 1, bad))
                .unwrap_err();
            assert!(matches!(err, SpecError::InvalidServiceTime { .. }));
        }
    }

    #[test]
    fn max_qps_is_bottleneck_bound() {
        // 64 cores, 10 ms per query → 6400 QPS; GPU 1 unit, 2 ms → 500.
        let spec = PipelineSpec::new(vec![
            ReplicaGroup::new("cpu", 64),
            ReplicaGroup::new("gpu", 1),
        ])
        .with_stage(StageSpec::new("cpu-stage", 0, 1, 0.010))
        .unwrap()
        .with_stage(StageSpec::new("gpu-stage", 1, 1, 0.002))
        .unwrap();
        assert!((spec.max_qps() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn shared_resource_load_accumulates() {
        let spec = PipelineSpec::new(cpu())
            .with_stage(StageSpec::new("front", 0, 1, 0.010))
            .unwrap()
            .with_stage(StageSpec::new("back", 0, 2, 0.005))
            .unwrap();
        assert!((spec.max_qps() - 3200.0).abs() < 1e-9);
    }

    #[test]
    fn service_floor_sums_stages() {
        let spec = PipelineSpec::new(cpu())
            .with_stage(StageSpec::new("a", 0, 1, 0.010))
            .unwrap()
            .with_stage(StageSpec::new("b", 0, 1, 0.007))
            .unwrap();
        assert!((spec.service_floor() - 0.017).abs() < 1e-12);
    }

    #[test]
    fn spec_error_composes_with_question_mark() {
        // SpecError implements std::error::Error, so callers can use `?`
        // into Box<dyn Error> (and anyhow-style wrappers).
        fn build() -> Result<PipelineSpec, Box<dyn std::error::Error>> {
            let spec = PipelineSpec::new(vec![ReplicaGroup::new("cpu", 4)])
                .with_stage(StageSpec::new("s0", 9, 1, 0.01))?;
            Ok(spec)
        }
        let err = build().unwrap_err();
        assert!(err.to_string().contains("unknown resource"));
        assert!(err.downcast_ref::<SpecError>().is_some());
    }

    #[test]
    fn spec_error_display_is_informative() {
        let err = SpecError::UnitsExceedCapacity {
            stage: "backend".into(),
            units: 9,
            capacity: 4,
        };
        let msg = err.to_string();
        assert!(msg.contains("backend") && msg.contains('9') && msg.contains('4'));
    }
}
