//! One serving scenario and its one [`run`](Scenario::run).
//!
//! A [`Scenario`] names everything a simulation needs: the workload (a
//! [`PipelineSpec`], or a [`PathSet`] behind an [`AdmissionPolicy`]),
//! arrivals, a query count and a seed, plus optional knobs. `run`
//! validates the whole scenario first and returns a typed [`SimError`]
//! for anything the event loop cannot serve, so it never panics on user
//! input. The optional runtimes arm in a fixed order — lifecycle,
//! autoscale, multipath, resilience — and each is inert unless set, so
//! a scenario replays the narrower run it extends bit for bit.

use recpipe_data::{ArrivalProcess, PoissonArrivals};

use crate::sim::{Inputs, Sim, MAX_ATTEMPTS, MAX_RESILIENT_STAGES};
use crate::{
    shard, AdmissionPolicy, AutoscaleConfig, Fifo, FleetController, LifecycleConfig, PathSet,
    PipelineSpec, ResilienceConfig, ResilienceStats, RoundRobin, Router, SchedulingPolicy,
    SimResult,
};

/// Why a [`Scenario`] could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A query arrived at a resource group whose replicas are all down,
    /// the [`FailurePolicy`](crate::FailurePolicy) asked to requeue,
    /// and no provision or recovery is pending that could ever serve
    /// it.
    NoAvailableReplica {
        /// The dead resource group's index.
        group: usize,
        /// Simulation time of the unroutable arrival.
        time: f64,
    },
    /// The pipeline has no stages.
    NoStages,
    /// The path set has no paths.
    NoPaths,
    /// The scenario asks for zero queries.
    NoQueries,
    /// The arrival stream's first time (the payload) is negative or not
    /// finite.
    FirstArrival(f64),
    /// More queries (the payload) than packed events can index.
    TooManyQueries(usize),
    /// The autoscaled resource group (the payload) does not exist.
    AutoscaleGroup(usize),
    /// The autoscale ceiling exceeds the scaled group's replicas.
    AutoscaleCeiling {
        /// The requested ceiling.
        max_replicas: usize,
        /// The group's replica count.
        replicas: usize,
    },
    /// A resilient pipeline has more stages (the payload) than a packed
    /// lane payload can name.
    TooManyStages(usize),
    /// A resilient retry policy allows more attempts per query (the
    /// payload) than the packed attempt counter holds.
    TooManyAttempts(usize),
    /// Two runtimes, named by their [`Scenario`] setters, that the
    /// event loop cannot serve together yet.
    Incompatible(&'static str, &'static str),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoAvailableReplica { group, time } => write!(
                f,
                "no available replica in resource group {group} at t={time:.3}s and no revival pending"
            ),
            SimError::NoStages => write!(f, "pipeline has no stages"),
            SimError::NoPaths => write!(f, "path set has no paths"),
            SimError::NoQueries => write!(f, "need at least one query"),
            SimError::FirstArrival(t) => write!(f, "first arrival time {t} is negative or not finite"),
            SimError::TooManyQueries(n) => {
                write!(f, "at most {} queries per run, got {n}", u32::MAX)
            }
            SimError::AutoscaleGroup(g) => write!(f, "autoscale group {g} does not exist"),
            SimError::AutoscaleCeiling {
                max_replicas,
                replicas,
            } => write!(
                f,
                "autoscale ceiling {max_replicas} exceeds the group's {replicas} replicas"
            ),
            SimError::TooManyStages(n) => write!(
                f,
                "resilient runs support at most {MAX_RESILIENT_STAGES} stages, got {n}"
            ),
            SimError::TooManyAttempts(n) => {
                write!(f, "at most {MAX_ATTEMPTS} attempts per query, got {n}")
            }
            SimError::Incompatible(a, b) => write!(f, "{a} and {b} cannot run together yet"),
        }
    }
}

impl std::error::Error for SimError {}

/// One simulation: a pipeline (or a path set behind an admission
/// policy), its traffic, and the optional runtimes around it. Defaults:
/// [`Fifo`] scheduling, [`RoundRobin`] routing, no lifecycle replay,
/// autoscaling, or resilience, and the serial event loop.
///
/// # Examples
///
/// ```
/// use recpipe_data::PoissonArrivals;
/// use recpipe_qsim::{JoinShortestQueue, PipelineSpec, ReplicaGroup, Scenario, StageSpec};
///
/// let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("cpu", 8, 4)])
///     .with_stage(StageSpec::new("rank", 0, 1, 0.010))?;
/// let result = Scenario::new(&spec, &PoissonArrivals::new(2_000.0), 5_000, 42)
///     .router(&JoinShortestQueue)
///     .run()?;
/// assert_eq!(result.completed, 5_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Scenario<'a> {
    inputs: Inputs<'a>,
    multipath: Option<(&'a PathSet, &'a dyn AdmissionPolicy)>,
    lifecycle: Option<&'a LifecycleConfig>,
    autoscale: Option<(&'a AutoscaleConfig, &'a mut dyn FleetController)>,
    resilience: Option<&'a ResilienceConfig>,
    workers: Option<usize>,
}

impl<'a> Scenario<'a> {
    /// `num_queries` arrivals from `arrivals`, seeded by `seed`, all
    /// served by `spec`.
    // simlint: allow(ctor-validate) -- validation is deferred to `run`,
    // which returns a typed `SimError` for every invalid input.
    pub fn new(
        spec: &'a PipelineSpec,
        arrivals: &'a dyn ArrivalProcess,
        num_queries: usize,
        seed: u64,
    ) -> Self {
        let inputs = Inputs {
            spec,
            arrivals,
            policy: &Fifo,
            router: &RoundRobin,
            num_queries,
            seed,
        };
        Self {
            inputs,
            multipath: None,
            lifecycle: None,
            autoscale: None,
            resilience: None,
            workers: None,
        }
    }

    /// Multi-path serving: `admission` sees each arriving query's load
    /// snapshot, the per-path profiles, and the last closed telemetry
    /// window, and admits it onto one of `paths` (all sharing one fleet)
    /// or sheds it; per-path outcomes land in
    /// [`SimResult::paths`](crate::SimResult::paths). A single-path set
    /// under [`AlwaysPrimary`](crate::AlwaysPrimary) replays the plain
    /// run bit for bit.
    pub fn multipath(
        paths: &'a PathSet,
        admission: &'a dyn AdmissionPolicy,
        arrivals: &'a dyn ArrivalProcess,
        num_queries: usize,
        seed: u64,
    ) -> Self {
        Self {
            multipath: Some((paths, admission)),
            ..Self::new(paths.spec(), arrivals, num_queries, seed)
        }
    }

    /// Sets when each replica launches a batch.
    pub fn policy(mut self, policy: &'a dyn SchedulingPolicy) -> Self {
        self.inputs.policy = policy;
        self
    }

    /// Sets which replica each query joins at every stage.
    pub fn router(mut self, router: &'a dyn Router) -> Self {
        self.inputs.router = router;
        self
    }

    /// Replays every group's
    /// [`LifecycleSchedule`](crate::LifecycleSchedule) as timed
    /// availability events under `cfg`'s failure policy, warm-up speed,
    /// and telemetry window; routers then see only up or warming
    /// replicas. Autoscaled, multi-path, and resilient scenarios replay
    /// the schedules under [`LifecycleConfig::default`] unless this is
    /// set.
    pub fn lifecycle(mut self, cfg: &'a LifecycleConfig) -> Self {
        self.lifecycle = Some(cfg);
        self
    }

    /// Closes the loop: at every boundary of `cfg`'s decision window
    /// `controller` sees the closing window and resizes `cfg`'s group
    /// within its band by provisioning down replicas through warm-up and
    /// draining live ones (drains finish their work). Replicas past
    /// `cfg`'s initial count start down, and the autoscale window
    /// replaces the lifecycle telemetry window.
    pub fn autoscale(
        mut self,
        cfg: &'a AutoscaleConfig,
        controller: &'a mut dyn FleetController,
    ) -> Self {
        self.autoscale = Some((cfg, controller));
        self
    }

    /// Arms per-query timeouts, the retry policy they consult, and
    /// hedging (see [`ResilienceConfig`]); stats land in
    /// [`SimResult::resilience`](crate::SimResult::resilience), and
    /// `completed + shed + dropped + timed_out` accounts for every
    /// open-loop query. An inert config replays the lifecycle-only run
    /// bit for bit.
    pub fn resilience(mut self, cfg: &'a ResilienceConfig) -> Self {
        self.resilience = Some(cfg);
        self
    }

    /// Shards the run by pipeline stage on at most `cap` threads (`0`:
    /// the machine's parallelism), with results identical to the serial
    /// run for every cap. Each thread steps a contiguous run of stage
    /// shards in turn, and this thread steps the last run, so `1`
    /// interleaves every shard here and spawns none. Scenarios with an
    /// optional runtime, and specs the decomposition cannot handle (one
    /// stage, shared groups, closed loops, zero service times), run
    /// serially.
    // simlint: allow(ctor-validate) -- every cap is valid: 0 selects the
    // machine's parallelism, and results are identical for every cap.
    pub fn workers(mut self, cap: usize) -> Self {
        self.workers = Some(cap);
        self
    }

    /// Validates the scenario and simulates it. The first 5% of queries
    /// are warmup; the result is `saturated` when an open-loop offered
    /// load exceeds the fully-batched capacity or a backlog outlives
    /// the arrivals.
    ///
    /// # Errors
    ///
    /// [`SimError::NoAvailableReplica`] when a query reaches a
    /// fully-down group under
    /// [`FailurePolicy::Requeue`](crate::FailurePolicy::Requeue) with
    /// no revival pending; every other variant is an invalid scenario,
    /// reported before any simulation work.
    pub fn run(self) -> Result<SimResult, SimError> {
        self.validate()?;
        let inputs = self.inputs;
        let plain = self.multipath.is_none()
            && self.lifecycle.is_none()
            && self.autoscale.is_none()
            && self.resilience.is_none();
        if let Some(cap) = self
            .workers
            .filter(|_| plain && shard::shardable(inputs.spec, inputs.arrivals))
        {
            return Ok(shard::run(inputs, cap));
        }
        let mut sim = Sim::new(inputs);
        if !plain {
            let mut cfg = self.lifecycle.cloned().unwrap_or_default();
            if let Some((scale, _)) = &self.autoscale {
                cfg = cfg.with_window(scale.window_s);
            }
            sim.enable_lifecycle(&cfg, self.autoscale);
        }
        if let Some((paths, admission)) = self.multipath {
            sim.enable_multipath(paths, admission, inputs.seed);
        }
        let inert = self.resilience.filter(|cfg| cfg.is_inert());
        if let Some(cfg) = self.resilience.filter(|cfg| !cfg.is_inert()) {
            sim.enable_resilience(cfg, inputs.seed);
        }
        let mut result = sim.run()?;
        if let Some(cfg) = inert {
            // An inert config arms nothing; it reports zeroed stats.
            result.resilience = Some(ResilienceStats {
                retries: vec![0; cfg.retry.max_attempts - 1],
                ..ResilienceStats::default()
            });
        }
        Ok(result)
    }

    /// The bounds that need the spec or more than one input, and the
    /// first arrival time, checked in O(1); each config checked its own
    /// ranges when it was built.
    fn validate(&self) -> Result<(), SimError> {
        let Inputs {
            spec, num_queries, ..
        } = self.inputs;
        match self.multipath {
            Some((paths, _)) if paths.num_paths() == 0 => return Err(SimError::NoPaths),
            None if spec.stages().is_empty() => return Err(SimError::NoStages),
            _ => {}
        }
        if num_queries == 0 {
            return Err(SimError::NoQueries);
        }
        if num_queries > u32::MAX as usize {
            return Err(SimError::TooManyQueries(num_queries));
        }
        // A stream never decreases, so its first time bounds the rest;
        // `-0.0` passes, as it equals `0.0`.
        if let Some(t0) = self.inputs.arrivals.stream(self.inputs.seed).next() {
            if !(t0 >= 0.0 && t0.is_finite()) {
                return Err(SimError::FirstArrival(t0));
            }
        }
        // Pairs no loop has served yet; among other things, a retry
        // re-enters flat stage 0, which would force a multi-path query
        // back onto path 0.
        let multipath = self.multipath.is_some();
        let (scaled, resilient) = (self.autoscale.is_some(), self.resilience.is_some());
        for (both, a, b) in [
            (multipath && resilient, "multipath", "resilience"),
            (multipath && scaled, "multipath", "autoscale"),
            (scaled && resilient, "autoscale", "resilience"),
        ] {
            if both {
                return Err(SimError::Incompatible(a, b));
            }
        }
        if let Some((cfg, _)) = &self.autoscale {
            let group = spec.resources().get(cfg.group);
            let replicas = group.ok_or(SimError::AutoscaleGroup(cfg.group))?.replicas();
            if cfg.max_replicas > replicas {
                return Err(SimError::AutoscaleCeiling {
                    max_replicas: cfg.max_replicas,
                    replicas,
                });
            }
        }
        if let Some(cfg) = self.resilience {
            if spec.stages().len() > MAX_RESILIENT_STAGES {
                return Err(SimError::TooManyStages(spec.stages().len()));
            }
            if cfg.retry.max_attempts > MAX_ATTEMPTS {
                return Err(SimError::TooManyAttempts(cfg.retry.max_attempts));
            }
        }
        Ok(())
    }
}

// Call-compatible shorthands, each one `Scenario` expression. The
// benchmark harness calls them; new code builds a `Scenario`.

/// A plain [`Scenario`] with `policy` and `router`; panics with the
/// [`SimError`] message on an invalid scenario.
pub fn serve_routed(
    spec: &PipelineSpec,
    arrivals: &dyn ArrivalProcess,
    policy: &dyn SchedulingPolicy,
    router: &dyn Router,
    num_queries: usize,
    seed: u64,
) -> SimResult {
    Scenario::new(spec, arrivals, num_queries, seed)
        .policy(policy)
        .router(router)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`serve_routed`] on at most `workers` shard threads.
pub fn serve_routed_sharded(
    spec: &PipelineSpec,
    arrivals: &dyn ArrivalProcess,
    policy: &dyn SchedulingPolicy,
    router: &dyn Router,
    num_queries: usize,
    seed: u64,
    workers: usize,
) -> SimResult {
    Scenario::new(spec, arrivals, num_queries, seed)
        .policy(policy)
        .router(router)
        .workers(workers)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`serve_routed`] with the lifecycle schedules replayed under `cfg`,
/// returning [`Scenario::run`]'s errors.
pub fn serve_lifecycle(
    spec: &PipelineSpec,
    arrivals: &dyn ArrivalProcess,
    policy: &dyn SchedulingPolicy,
    router: &dyn Router,
    num_queries: usize,
    seed: u64,
    cfg: &LifecycleConfig,
) -> Result<SimResult, SimError> {
    Scenario::new(spec, arrivals, num_queries, seed)
        .policy(policy)
        .router(router)
        .lifecycle(cfg)
        .run()
}

/// [`serve_lifecycle`] with `resilience` armed.
#[allow(clippy::too_many_arguments)]
pub fn serve_resilient(
    spec: &PipelineSpec,
    arrivals: &dyn ArrivalProcess,
    policy: &dyn SchedulingPolicy,
    router: &dyn Router,
    num_queries: usize,
    seed: u64,
    cfg: &LifecycleConfig,
    resilience: &ResilienceConfig,
) -> Result<SimResult, SimError> {
    Scenario::new(spec, arrivals, num_queries, seed)
        .policy(policy)
        .router(router)
        .lifecycle(cfg)
        .resilience(resilience)
        .run()
}

impl PipelineSpec {
    /// A [`Scenario`] of Poisson arrivals at `qps` (the paper's serving
    /// model).
    ///
    /// # Panics
    ///
    /// Panics unless `qps` is positive and finite, or with the
    /// [`SimError`] message on an invalid scenario.
    pub fn simulate(&self, qps: f64, num_queries: usize, seed: u64) -> SimResult {
        assert!(qps.is_finite() && qps > 0.0, "qps must be positive");
        Scenario::new(self, &PoissonArrivals::new(qps), num_queries, seed)
            .run()
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AlwaysPrimary, HedgePolicy, ReplicaGroup, RetryBudget, RetryPolicy, StageSpec, WindowStats,
    };

    /// `stages` 1 ms stages on one two-replica group.
    fn spec(stages: usize) -> PipelineSpec {
        let fleet = PipelineSpec::new(vec![ReplicaGroup::replicated("cpu", 4, 2)]);
        (0..stages).fold(fleet, |spec, i| {
            let stage = StageSpec::new(format!("s{i}"), 0, 1, 0.001);
            spec.with_stage(stage).expect("valid stage")
        })
    }

    /// Holds the fleet where it is.
    struct Hold;

    impl FleetController for Hold {
        fn name(&self) -> String {
            "hold".into()
        }

        fn desired_replicas(&mut self, _window: &WindowStats, live: usize) -> usize {
            live
        }
    }

    #[test]
    fn no_stages_is_a_typed_error() {
        let (spec, arrivals) = (spec(0), PoissonArrivals::new(100.0));
        let run = Scenario::new(&spec, &arrivals, 10, 1).run();
        assert_eq!(run, Err(SimError::NoStages));
    }

    #[test]
    fn no_paths_is_a_typed_error() {
        let paths = PathSet::new(vec![ReplicaGroup::new("cpu", 4)]);
        let arrivals = PoissonArrivals::new(100.0);
        let run = Scenario::multipath(&paths, &AlwaysPrimary, &arrivals, 10, 1).run();
        assert_eq!(run, Err(SimError::NoPaths));
    }

    #[test]
    fn zero_queries_is_a_typed_error() {
        let (spec, arrivals) = (spec(1), PoissonArrivals::new(100.0));
        let run = Scenario::new(&spec, &arrivals, 0, 1).run();
        assert_eq!(run, Err(SimError::NoQueries));
    }

    #[test]
    fn more_queries_than_packed_events_index_is_a_typed_error() {
        let (spec, arrivals) = (spec(1), PoissonArrivals::new(100.0));
        let n = u32::MAX as usize + 1;
        let run = Scenario::new(&spec, &arrivals, n, 1).run();
        assert_eq!(run, Err(SimError::TooManyQueries(n)));
    }

    #[test]
    fn autoscale_group_out_of_range_is_a_typed_error() {
        let (spec, arrivals) = (spec(1), PoissonArrivals::new(100.0));
        let cfg = AutoscaleConfig::new(3, 1, 2, 1.0);
        let run = Scenario::new(&spec, &arrivals, 10, 1)
            .autoscale(&cfg, &mut Hold)
            .run();
        assert_eq!(run, Err(SimError::AutoscaleGroup(3)));
    }

    #[test]
    fn autoscale_ceiling_above_the_group_is_a_typed_error() {
        let (spec, arrivals) = (spec(1), PoissonArrivals::new(100.0));
        let cfg = AutoscaleConfig::new(0, 1, 5, 1.0);
        let run = Scenario::new(&spec, &arrivals, 10, 1)
            .autoscale(&cfg, &mut Hold)
            .run();
        let ceiling = SimError::AutoscaleCeiling {
            max_replicas: 5,
            replicas: 2,
        };
        assert_eq!(run, Err(ceiling));
    }

    #[test]
    fn resilient_stages_beyond_the_lane_payload_are_a_typed_error() {
        let (deep, arrivals) = (spec(MAX_RESILIENT_STAGES + 1), PoissonArrivals::new(100.0));
        let cfg = ResilienceConfig::new().with_timeout(0.1);
        let run = Scenario::new(&deep, &arrivals, 10, 1)
            .resilience(&cfg)
            .run();
        assert_eq!(run, Err(SimError::TooManyStages(MAX_RESILIENT_STAGES + 1)));
    }

    #[test]
    fn attempts_beyond_the_attempt_counter_are_a_typed_error() {
        let (spec, arrivals) = (spec(1), PoissonArrivals::new(100.0));
        let retry = RetryPolicy::new(MAX_ATTEMPTS + 1, 0.01, 2.0);
        let cfg = ResilienceConfig::new().with_timeout(0.1).with_retry(retry);
        let run = Scenario::new(&spec, &arrivals, 10, 1)
            .resilience(&cfg)
            .run();
        assert_eq!(run, Err(SimError::TooManyAttempts(MAX_ATTEMPTS + 1)));
    }

    #[test]
    fn multipath_with_resilience_is_rejected() {
        let (paths, arrivals) = (PathSet::single(spec(1), 1.0), PoissonArrivals::new(100.0));
        let cfg = ResilienceConfig::new();
        let scenario = Scenario::multipath(&paths, &AlwaysPrimary, &arrivals, 10, 1);
        let run = scenario.resilience(&cfg).run();
        assert_eq!(run, Err(SimError::Incompatible("multipath", "resilience")));
    }

    #[test]
    fn multipath_with_autoscale_is_rejected() {
        let (paths, arrivals) = (PathSet::single(spec(1), 1.0), PoissonArrivals::new(100.0));
        let cfg = AutoscaleConfig::new(0, 1, 2, 1.0);
        let scenario = Scenario::multipath(&paths, &AlwaysPrimary, &arrivals, 10, 1);
        let run = scenario.autoscale(&cfg, &mut Hold).run();
        assert_eq!(run, Err(SimError::Incompatible("multipath", "autoscale")));
    }

    #[test]
    fn autoscale_with_resilience_is_rejected() {
        let (spec, arrivals) = (spec(1), PoissonArrivals::new(100.0));
        let (scale, resilience) = (AutoscaleConfig::new(0, 1, 2, 1.0), ResilienceConfig::new());
        let scenario = Scenario::new(&spec, &arrivals, 10, 1).resilience(&resilience);
        let run = scenario.autoscale(&scale, &mut Hold).run();
        assert_eq!(run, Err(SimError::Incompatible("autoscale", "resilience")));
    }

    #[test]
    fn the_limits_themselves_are_served() {
        let (spec, arrivals) = (spec(2), PoissonArrivals::new(100.0));
        let retry = RetryPolicy::new(MAX_ATTEMPTS, 0.01, 2.0);
        let cfg = ResilienceConfig::new().with_timeout(0.1).with_retry(retry);
        let scale = AutoscaleConfig::new(0, 1, 2, 1.0).with_initial_replicas(2);
        let full_speed = LifecycleConfig::new().with_warmup_speed(1.0);
        // The resilience ranges' closed ends: full jitter, an uncapped
        // backoff, an empty and a full refill, and a zero hedge delay.
        let edges = RetryPolicy::new(3, 0.0, 1.0)
            .with_jitter(1.0)
            .with_backoff_cap(f64::INFINITY);
        let edge_cfgs = [0.0, 1.0].map(|refill| {
            let retry = edges.clone().with_budget(RetryBudget::new(1.0, refill));
            let cfg = ResilienceConfig::new().with_timeout(0.1).with_retry(retry);
            cfg.with_hedge(HedgePolicy::after(0.0))
        });
        let base = || Scenario::new(&spec, &arrivals, 50, 1);
        assert!(base().resilience(&cfg).run().is_ok());
        for edge in &edge_cfgs {
            assert!(base().resilience(edge).run().is_ok(), "{edge:?}");
        }
        assert!(base().lifecycle(&full_speed).run().is_ok());
        assert!(base().autoscale(&scale, &mut Hold).run().is_ok());
    }

    #[test]
    fn sim_error_displays_group_and_time() {
        let e = SimError::NoAvailableReplica {
            group: 2,
            time: 1.5,
        };
        let msg = e.to_string();
        assert!(msg.contains('2') && msg.contains("1.5"));
        // Composes with `?` into Box<dyn Error>.
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.to_string().contains("no available replica"));
    }
}
