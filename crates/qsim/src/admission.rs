//! Multi-path serving: several pipelines sharing one replica fleet,
//! with a per-query admission policy choosing a path (or shedding) at
//! arrival time.
//!
//! Steady-state sweeps treat quality as a *design-time* choice: every
//! query of a run takes the same pipeline. Production serving does
//! better — hold several model paths live (a large high-quality ranker,
//! a distilled mid-size one, a cheap filter-only fallback) and pick one
//! per query from the load the cluster is actually under. Quality
//! becomes a runtime control variable: under pressure the fleet
//! *degrades* to cheaper paths before it *sheds*, trading a little
//! NDCG for a lot of goodput — the brown-out behavior real
//! recommendation fleets run.
//!
//! The vocabulary:
//!
//! * [`PathSet`] — an ordered list of pipelines ("paths") over one
//!   shared resource fleet, each tagged with a quality score. Path 0 is
//!   the *primary* (highest-quality) path; later paths are the
//!   degradation ladder.
//! * [`AdmissionPolicy`] — the extension trait called once per arriving
//!   query with an [`AdmissionCtx`] load snapshot; it returns
//!   [`Admit(path)`](Admission::Admit) or [`Shed`](Admission::Shed).
//! * [`PathProfile`] — per-path analytic signals (quality, zero-load
//!   latency floor, capacity bounds) policies reason over.
//! * Built-ins: [`AlwaysPrimary`] (the degenerate single-path case,
//!   bit-identical to the plain routed run),
//!   [`DeadlineAware`] (slack-based downgrade), and [`LoadAdaptive`]
//!   (utilization-knee brown-out with hysteresis).
//!
//! Determinism matches the router contract: a policy may keep per-run
//! state only inside the [`AdmissionState`] handed to it, so identical
//! seeds replay identical admission streams.

use crate::router::splitmix64;
use crate::spec::bottleneck_qps;
use crate::{PipelineSpec, ReplicaGroup, SpecError, StageSpec, WindowStats};

/// Largest number of paths one [`PathSet`] may hold: per-query path
/// assignments pack into a byte with two sentinel values reserved.
pub(crate) const MAX_PATHS: usize = 254;

/// Several serving pipelines ("paths") sharing one replica fleet, each
/// tagged with a quality score — the runtime form of the paper's
/// quality × latency trade-off.
///
/// Internally the paths concatenate into one flat [`PipelineSpec`] over
/// the shared resources: path `p` traverses the contiguous stage range
/// `entry(p) .. entry(p) + len`. Path 0 starts at flat stage 0, so a
/// single-path set served with [`AlwaysPrimary`] replays the plain
/// routed loop bit-for-bit.
///
/// # Examples
///
/// ```
/// use recpipe_qsim::{PathSet, ReplicaGroup, StageSpec};
///
/// let paths = PathSet::new(vec![ReplicaGroup::new("cpu", 16)])
///     .with_path("full", 0.97, vec![StageSpec::new("rank-large", 0, 4, 0.008)])?
///     .with_path("lite", 0.91, vec![StageSpec::new("rank-small", 0, 1, 0.002)])?;
/// assert_eq!(paths.num_paths(), 2);
/// assert!(paths.quality(0) > paths.quality(1));
/// # Ok::<(), recpipe_qsim::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PathSet {
    /// All paths' stages concatenated over the shared resources.
    spec: PipelineSpec,
    /// First flat stage index of each path.
    entry: Vec<usize>,
    /// Stage count of each path.
    lens: Vec<usize>,
    names: Vec<String>,
    qualities: Vec<f64>,
}

impl PathSet {
    /// Creates an empty path set over the given shared fleet.
    pub fn new(resources: Vec<ReplicaGroup>) -> Self {
        Self {
            spec: PipelineSpec::new(resources),
            entry: Vec::new(),
            lens: Vec::new(),
            names: Vec::new(),
            qualities: Vec::new(),
        }
    }

    /// Appends one path: an ordered stage list over the shared fleet,
    /// tagged with a quality score (the paper's NDCG axis — see
    /// `QualityEvaluator` in the core crate). Paths should be appended
    /// best-quality first: admission policies degrade by walking the
    /// index order.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when any stage fails
    /// [`PipelineSpec::with_stage`] validation against the shared
    /// resources.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, `quality` is negative or
    /// non-finite, or the set already holds the maximum of 254 paths —
    /// the crate's panic-on-construction policy.
    pub fn with_path(
        mut self,
        name: impl Into<String>,
        quality: f64,
        stages: Vec<StageSpec>,
    ) -> Result<Self, SpecError> {
        assert!(!stages.is_empty(), "path has no stages");
        assert!(
            quality.is_finite() && quality >= 0.0,
            "path quality must be non-negative and finite"
        );
        assert!(self.entry.len() < MAX_PATHS, "too many paths in one set");
        let entry = self.spec.stages().len();
        let len = stages.len();
        let mut spec = self.spec;
        for stage in stages {
            spec = spec.with_stage(stage)?;
        }
        self.spec = spec;
        self.entry.push(entry);
        self.lens.push(len);
        self.names.push(name.into());
        self.qualities.push(quality);
        Ok(self)
    }

    /// Wraps one complete pipeline as a single-path set — the
    /// degenerate case a [`Scenario::multipath`](crate::Scenario::multipath)
    /// run under [`AlwaysPrimary`] replays bit-identically to the plain
    /// routed run.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline has no stages or `quality` is negative or
    /// non-finite.
    pub fn single(spec: PipelineSpec, quality: f64) -> Self {
        assert!(!spec.stages().is_empty(), "path has no stages");
        assert!(
            quality.is_finite() && quality >= 0.0,
            "path quality must be non-negative and finite"
        );
        let lens = vec![spec.stages().len()];
        Self {
            spec,
            entry: vec![0],
            lens,
            names: vec!["primary".to_string()],
            qualities: vec![quality],
        }
    }

    /// Builds a path set from complete pipelines that must all declare
    /// the *same* resource fleet (the whole point of multi-path serving
    /// is contending for one set of machines).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::PathFleetMismatch`] when a pipeline's
    /// resources differ from the first pipeline's, and propagates any
    /// stage re-validation error.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty, any pipeline has no stages, or any
    /// quality is negative or non-finite.
    pub fn from_pipelines(
        paths: Vec<(impl Into<String>, f64, PipelineSpec)>,
    ) -> Result<Self, SpecError> {
        assert!(!paths.is_empty(), "path set has no paths");
        let mut iter = paths.into_iter();
        let (name, quality, first) = iter.next().expect("non-empty");
        let fleet = first.resources().to_vec();
        let mut set = Self::new(fleet.clone()).with_path(name, quality, first.stages().to_vec())?;
        for (name, quality, pipeline) in iter {
            let name = name.into();
            if pipeline.resources() != fleet.as_slice() {
                return Err(SpecError::PathFleetMismatch { path: name });
            }
            set = set.with_path(name, quality, pipeline.stages().to_vec())?;
        }
        Ok(set)
    }

    /// The combined flat pipeline (all paths' stages over the shared
    /// resources) the simulator runs.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Number of paths in the set.
    pub fn num_paths(&self) -> usize {
        self.entry.len()
    }

    /// First flat stage index of path `p`.
    pub fn entry(&self, p: usize) -> usize {
        self.entry[p]
    }

    /// The stages of path `p`, in traversal order.
    pub fn path_stages(&self, p: usize) -> &[StageSpec] {
        &self.spec.stages()[self.entry[p]..self.entry[p] + self.lens[p]]
    }

    /// Path names, in path order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Path quality scores, in path order.
    pub fn qualities(&self) -> &[f64] {
        &self.qualities
    }

    /// The name of path `p`.
    pub fn name(&self, p: usize) -> &str {
        &self.names[p]
    }

    /// The quality score of path `p`.
    pub fn quality(&self, p: usize) -> f64 {
        self.qualities[p]
    }

    /// Per-path analytic profiles (quality, latency floor, capacity
    /// bounds) — the signals handed to admission policies via
    /// [`AdmissionCtx::paths`].
    pub fn profiles(&self) -> Vec<PathProfile> {
        (0..self.num_paths()).map(|p| self.profile(p)).collect()
    }

    /// The analytic profile of path `p`, derived from only that path's
    /// stages against the shared fleet (other paths' load is a runtime
    /// matter, not a spec property).
    pub fn profile(&self, p: usize) -> PathProfile {
        let resources = self.spec.resources();
        let stages = self.path_stages(p);
        PathProfile {
            quality: self.qualities[p],
            service_floor_s: stages.iter().map(|s| s.service_time).sum(),
            max_qps: bottleneck_qps(resources, stages, |s| s.service_time),
            max_qps_full_batch: bottleneck_qps(
                resources,
                stages,
                StageSpec::amortized_service_time,
            ),
        }
    }

    /// Per-flat-stage "is this a path's final stage" table — the
    /// completion test the event loop runs per stage hop.
    pub(crate) fn last_of_path(&self) -> Vec<bool> {
        let mut last = vec![false; self.spec.stages().len()];
        for (&entry, &len) in self.entry.iter().zip(&self.lens) {
            last[entry + len - 1] = true;
        }
        last
    }
}

/// Analytic signals of one path, handed to admission policies: its
/// quality tag plus load-independent latency and capacity bounds
/// derived from the path's stages against the shared fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProfile {
    /// The path's quality score (path sets order these descending).
    pub quality: f64,
    /// Sum of the path's stage service times — its zero-load latency.
    pub service_floor_s: f64,
    /// Maximum sustainable throughput serving one query per launch.
    pub max_qps: f64,
    /// Maximum sustainable throughput at full batches (equal to
    /// [`max_qps`](Self::max_qps) for per-query stages).
    pub max_qps_full_batch: f64,
}

/// An admission decision for one arriving query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve the query on the given path index.
    Admit(usize),
    /// Reject the query without service (counted as shed).
    Shed,
}

/// Per-run mutable state an [`AdmissionPolicy`] may use: a degradation
/// level for hysteresis policies and a deterministic RNG stream —
/// mirror of [`RouterState`](crate::RouterState), so identical seeds
/// replay identical admission streams.
#[derive(Debug, Clone)]
pub struct AdmissionState {
    level: usize,
    rng: u64,
}

impl AdmissionState {
    /// Creates state with the level at 0 (no degradation) and the RNG
    /// seeded deterministically.
    pub fn new(seed: u64) -> Self {
        Self {
            level: 0,
            rng: seed,
        }
    }

    /// The current degradation level (0 = primary path).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Replaces the degradation level.
    pub fn set_level(&mut self, level: usize) {
        self.level = level;
    }

    /// Draws the next value of the deterministic RNG stream
    /// (splitmix64, the same generator routers use for probing).
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }
}

/// The load snapshot an [`AdmissionPolicy`] sees for one arriving
/// query, taken at the arrival instant before any routing happens.
#[derive(Debug)]
pub struct AdmissionCtx<'a> {
    /// Arrival time in simulated seconds.
    pub now: f64,
    /// The arriving query's index.
    pub query: usize,
    /// Queries admitted but not yet completed (or lost) — the
    /// cluster-wide concurrency the arrival joins.
    pub in_system: usize,
    /// Unit capacity of the live (non-down) fleet — the denominator
    /// that turns `in_system` into a pressure signal.
    pub capacity: usize,
    /// Waiting queries (queued plus parked) across all replicas.
    pub queue_depth: usize,
    /// Per-path analytic profiles, in path order (index 0 = primary).
    pub paths: &'a [PathProfile],
    /// The most recently closed telemetry window, when the run records
    /// windows — the feedback signal knee policies may read.
    pub window: Option<&'a WindowStats>,
}

impl AdmissionCtx<'_> {
    /// Concurrency per unit of live capacity — the dimensionless
    /// pressure signal load-adaptive policies threshold on (0.0 on an
    /// idle fleet; grows past 1.0 as queueing builds).
    pub fn pressure(&self) -> f64 {
        self.in_system as f64 / self.capacity.max(1) as f64
    }

    /// Crude expected latency of serving one more query on path `p`
    /// right now: the path's zero-load floor stretched by the current
    /// pressure. Deliberately simple — a load signal, not a queueing
    /// model — but monotone in both load and path cost, which is all a
    /// slack test needs.
    pub fn estimated_latency_s(&self, p: usize) -> f64 {
        self.paths[p].service_floor_s * (1.0 + self.pressure())
    }
}

/// The admission seam: called once per arriving query (before routing,
/// at stage 0 of the chosen path), it maps a load snapshot to a path —
/// or sheds. Policies must be deterministic given the context and
/// state, like routers: all randomness comes from
/// [`AdmissionState::next_u64`].
pub trait AdmissionPolicy {
    /// Short name for reports.
    fn name(&self) -> String;

    /// Decides the arriving query's fate.
    fn admit(&self, ctx: &AdmissionCtx<'_>, state: &mut AdmissionState) -> Admission;
}

/// The degenerate policy: every query takes the primary path. On a
/// single-path set this replays the plain routed run bit-for-bit — the
/// live-vs-live pin for the multi-path loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysPrimary;

impl AdmissionPolicy for AlwaysPrimary {
    fn name(&self) -> String {
        "always-primary".to_string()
    }

    fn admit(&self, _ctx: &AdmissionCtx<'_>, _state: &mut AdmissionState) -> Admission {
        Admission::Admit(0)
    }
}

/// Slack-based downgrade: admit the best (lowest-index) path whose
/// estimated latency (see [`AdmissionCtx::estimated_latency_s`]) fits
/// the deadline, shedding when even the cheapest path cannot.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineAware {
    deadline_s: f64,
}

impl DeadlineAware {
    /// A policy holding per-query latency under `deadline_s`.
    ///
    /// # Panics
    ///
    /// Panics unless `deadline_s` is strictly positive and finite.
    pub fn new(deadline_s: f64) -> Self {
        assert!(
            deadline_s.is_finite() && deadline_s > 0.0,
            "deadline must be positive and finite"
        );
        Self { deadline_s }
    }
}

impl AdmissionPolicy for DeadlineAware {
    fn name(&self) -> String {
        format!("deadline-aware({}ms)", self.deadline_s * 1e3)
    }

    fn admit(&self, ctx: &AdmissionCtx<'_>, _state: &mut AdmissionState) -> Admission {
        for p in 0..ctx.paths.len() {
            if ctx.estimated_latency_s(p) <= self.deadline_s {
                return Admission::Admit(p);
            }
        }
        Admission::Shed
    }
}

/// Utilization-knee brown-out with hysteresis: while the pressure
/// signal (see [`AdmissionCtx::pressure`]) sits above `degrade_at` the
/// degradation level ratchets one path deeper per arrival; below
/// `recover_at` it ratchets back. Past the last path the policy sheds.
/// The gap between the two thresholds is the hysteresis band that stops
/// the fleet from flapping between paths at the knee.
///
/// [`without_degradation`](Self::without_degradation) turns the ladder
/// off — the level jumps straight between "primary" and "shed", the
/// classic load-shedding baseline brown-out runs are measured against.
#[derive(Debug, Clone, Copy)]
pub struct LoadAdaptive {
    degrade_at: f64,
    recover_at: f64,
    degrade: bool,
}

impl LoadAdaptive {
    /// A brown-out policy degrading above `degrade_at` pressure and
    /// recovering below `recover_at`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < recover_at < degrade_at` and both are finite.
    pub fn new(degrade_at: f64, recover_at: f64) -> Self {
        assert!(
            degrade_at.is_finite() && recover_at.is_finite(),
            "thresholds must be finite"
        );
        assert!(
            0.0 < recover_at && recover_at < degrade_at,
            "need 0 < recover_at < degrade_at for hysteresis"
        );
        Self {
            degrade_at,
            recover_at,
            degrade: true,
        }
    }

    /// Disables the degradation ladder: overload sheds outright instead
    /// of walking down the path list (the shed-only ablation).
    pub fn without_degradation(mut self) -> Self {
        self.degrade = false;
        self
    }
}

impl AdmissionPolicy for LoadAdaptive {
    fn name(&self) -> String {
        let kind = if self.degrade { "degrade" } else { "shed-only" };
        format!(
            "load-adaptive({kind},{:.2}/{:.2})",
            self.degrade_at, self.recover_at
        )
    }

    fn admit(&self, ctx: &AdmissionCtx<'_>, state: &mut AdmissionState) -> Admission {
        let n = ctx.paths.len();
        let pressure = ctx.pressure();
        let mut level = state.level().min(n);
        if pressure > self.degrade_at {
            level = if self.degrade { (level + 1).min(n) } else { n };
        } else if pressure < self.recover_at {
            level = if self.degrade {
                level.saturating_sub(1)
            } else {
                0
            };
        }
        state.set_level(level);
        if level >= n {
            Admission::Shed
        } else {
            Admission::Admit(level)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchModel, ReplicaGroup};

    fn two_paths() -> PathSet {
        PathSet::new(vec![ReplicaGroup::new("cpu", 8)])
            .with_path(
                "full",
                0.97,
                vec![
                    StageSpec::new("filter", 0, 1, 0.001),
                    StageSpec::new("rank-large", 0, 4, 0.008),
                ],
            )
            .unwrap()
            .with_path(
                "lite",
                0.90,
                vec![StageSpec::new("rank-small", 0, 1, 0.002)],
            )
            .unwrap()
    }

    fn ctx_at<'a>(in_system: usize, capacity: usize, paths: &'a [PathProfile]) -> AdmissionCtx<'a> {
        AdmissionCtx {
            now: 1.0,
            query: 7,
            in_system,
            capacity,
            queue_depth: 0,
            paths,
            window: None,
        }
    }

    #[test]
    fn paths_concatenate_into_one_flat_spec() {
        let set = two_paths();
        assert_eq!(set.num_paths(), 2);
        assert_eq!(set.spec().stages().len(), 3);
        assert_eq!(set.entry(0), 0);
        assert_eq!(set.entry(1), 2);
        assert_eq!(set.path_stages(1)[0].name, "rank-small");
        assert_eq!(set.last_of_path(), vec![false, true, true]);
    }

    #[test]
    fn profiles_reflect_each_paths_own_load() {
        let set = two_paths();
        let profiles = set.profiles();
        // Full path: 1*0.001 + 4*0.008 = 0.033 unit-seconds on 8 units.
        assert!((profiles[0].max_qps - 8.0 / 0.033).abs() < 1e-9);
        assert!((profiles[0].service_floor_s - 0.009).abs() < 1e-12);
        // Lite path: 1*0.002 on the same 8 units.
        assert!((profiles[1].max_qps - 4000.0).abs() < 1e-9);
        assert!(profiles[1].max_qps > profiles[0].max_qps);
        assert!(profiles[0].quality > profiles[1].quality);
    }

    #[test]
    fn full_batch_bound_matches_the_pipeline_spec_exactly() {
        // The single-path profile must reproduce the PipelineSpec's
        // analytic bound bit-for-bit: the saturation test of a
        // single-path multipath run keys off it.
        let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("gpu", 2, 3)])
            .with_stage(StageSpec::new("rank", 0, 1, 0.004).with_batch(BatchModel::new(8, 0.25)))
            .unwrap()
            .with_stage(StageSpec::new("post", 0, 1, 0.001))
            .unwrap();
        let set = PathSet::single(spec.clone(), 0.95);
        let profile = set.profile(0);
        assert_eq!(
            profile.max_qps_full_batch.to_bits(),
            spec.max_qps_at_full_batch().to_bits()
        );
        assert_eq!(profile.max_qps.to_bits(), spec.max_qps().to_bits());
    }

    #[test]
    fn from_pipelines_requires_one_shared_fleet() {
        let fleet = vec![ReplicaGroup::new("cpu", 8)];
        let a = PipelineSpec::new(fleet.clone())
            .with_stage(StageSpec::new("s", 0, 1, 0.004))
            .unwrap();
        let b = PipelineSpec::new(vec![ReplicaGroup::new("cpu", 4)])
            .with_stage(StageSpec::new("s", 0, 1, 0.001))
            .unwrap();
        let err =
            PathSet::from_pipelines(vec![("full", 0.97, a.clone()), ("lite", 0.9, b)]).unwrap_err();
        assert!(matches!(err, SpecError::PathFleetMismatch { .. }));
        assert!(err.to_string().contains("lite"));

        let c = PipelineSpec::new(fleet)
            .with_stage(StageSpec::new("s2", 0, 1, 0.001))
            .unwrap();
        let ok = PathSet::from_pipelines(vec![("full", 0.97, a), ("lite", 0.9, c)]).unwrap();
        assert_eq!(ok.num_paths(), 2);
    }

    #[test]
    #[should_panic(expected = "path has no stages")]
    fn empty_paths_are_rejected() {
        let _ = PathSet::new(vec![ReplicaGroup::new("cpu", 8)]).with_path("x", 0.9, vec![]);
    }

    #[test]
    #[should_panic(expected = "quality must be non-negative")]
    fn nan_quality_is_rejected() {
        let _ = PathSet::new(vec![ReplicaGroup::new("cpu", 8)]).with_path(
            "x",
            f64::NAN,
            vec![StageSpec::new("s", 0, 1, 0.01)],
        );
    }

    #[test]
    fn always_primary_never_degrades() {
        let set = two_paths();
        let profiles = set.profiles();
        let mut state = AdmissionState::new(1);
        let ctx = ctx_at(10_000, 8, &profiles);
        assert_eq!(AlwaysPrimary.admit(&ctx, &mut state), Admission::Admit(0));
    }

    #[test]
    fn deadline_aware_walks_the_ladder_with_load() {
        let set = two_paths();
        let profiles = set.profiles();
        let policy = DeadlineAware::new(0.020);
        let mut state = AdmissionState::new(1);
        // Idle: primary fits (floor 9 ms < 20 ms deadline).
        assert_eq!(
            policy.admit(&ctx_at(0, 8, &profiles), &mut state),
            Admission::Admit(0)
        );
        // Pressure 2.0 stretches the primary's estimate to 27 ms; the
        // lite path (2 ms floor -> 6 ms) still fits.
        assert_eq!(
            policy.admit(&ctx_at(16, 8, &profiles), &mut state),
            Admission::Admit(1)
        );
        // Pressure 10: even 2 ms * 11 = 22 ms misses; shed.
        assert_eq!(
            policy.admit(&ctx_at(80, 8, &profiles), &mut state),
            Admission::Shed
        );
    }

    #[test]
    fn deadline_aware_zero_slack_sheds_instead_of_panicking() {
        // A deadline tighter than every path's zero-load floor leaves
        // no slack at all: the policy must shed every arrival — never
        // panic, never admit a path that cannot make the deadline even
        // on an idle fleet.
        let set = two_paths();
        let profiles = set.profiles();
        // Cheapest floor is the lite path's 2 ms; 1 ms is unservable.
        let policy = DeadlineAware::new(0.001);
        let mut state = AdmissionState::new(1);
        for in_system in [0usize, 8, 10_000] {
            assert_eq!(
                policy.admit(&ctx_at(in_system, 8, &profiles), &mut state),
                Admission::Shed
            );
        }
    }

    #[test]
    fn deadline_exactly_at_the_analytic_floor_admits_at_zero_load() {
        // At zero load the estimate is exactly the path's analytic
        // service floor (pressure 0 stretches by 1.0, which is exact in
        // IEEE), so a deadline equal to the floor admits on the <=
        // boundary — and one ulp less sheds the path.
        let set = two_paths();
        let profiles = set.profiles();
        let floor = profiles[1].service_floor_s; // lite path: 2 ms
        let idle = ctx_at(0, 8, &profiles);
        assert_eq!(idle.estimated_latency_s(1).to_bits(), floor.to_bits());
        let mut state = AdmissionState::new(1);
        let exact = DeadlineAware::new(floor);
        assert_eq!(exact.admit(&idle, &mut state), Admission::Admit(1));
        let shy = DeadlineAware::new(f64::from_bits(floor.to_bits() - 1));
        assert_eq!(shy.admit(&idle, &mut state), Admission::Shed);
        // Any backlog at all pushes the estimate past the exact floor.
        assert_eq!(
            exact.admit(&ctx_at(1, 8, &profiles), &mut state),
            Admission::Shed
        );
    }

    #[test]
    fn load_adaptive_ratchets_with_hysteresis() {
        let set = two_paths();
        let profiles = set.profiles();
        let policy = LoadAdaptive::new(1.0, 0.5);
        let mut state = AdmissionState::new(1);
        // Below the knee: stays primary.
        assert_eq!(
            policy.admit(&ctx_at(2, 8, &profiles), &mut state),
            Admission::Admit(0)
        );
        // Above the knee: one level per arrival, then shed.
        assert_eq!(
            policy.admit(&ctx_at(16, 8, &profiles), &mut state),
            Admission::Admit(1)
        );
        assert_eq!(
            policy.admit(&ctx_at(16, 8, &profiles), &mut state),
            Admission::Shed
        );
        // Inside the hysteresis band: holds the level (still shedding).
        assert_eq!(
            policy.admit(&ctx_at(6, 8, &profiles), &mut state),
            Admission::Shed
        );
        // Below recover_at: ratchets back one level per arrival.
        assert_eq!(
            policy.admit(&ctx_at(1, 8, &profiles), &mut state),
            Admission::Admit(1)
        );
        assert_eq!(
            policy.admit(&ctx_at(1, 8, &profiles), &mut state),
            Admission::Admit(0)
        );
    }

    #[test]
    fn shed_only_jumps_straight_between_extremes() {
        let set = two_paths();
        let profiles = set.profiles();
        let policy = LoadAdaptive::new(1.0, 0.5).without_degradation();
        let mut state = AdmissionState::new(1);
        assert_eq!(
            policy.admit(&ctx_at(16, 8, &profiles), &mut state),
            Admission::Shed
        );
        assert_eq!(
            policy.admit(&ctx_at(1, 8, &profiles), &mut state),
            Admission::Admit(0)
        );
    }

    #[test]
    fn admission_state_rng_is_deterministic() {
        let mut a = AdmissionState::new(42);
        let mut b = AdmissionState::new(42);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(AdmissionState::new(1).next_u64(), a.next_u64());
    }

    #[test]
    fn policy_names_are_informative() {
        assert_eq!(AlwaysPrimary.name(), "always-primary");
        assert!(DeadlineAware::new(0.05).name().contains("50"));
        let la = LoadAdaptive::new(1.5, 0.75);
        assert!(la.name().contains("degrade"));
        assert!(la.without_degradation().name().contains("shed-only"));
    }
}
