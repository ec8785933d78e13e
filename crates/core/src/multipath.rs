//! Multi-path quality-elastic serving at the engine level.
//!
//! The scheduler's Pareto front is a *design-time* artifact: every
//! query of a run takes the same pipeline. This module makes quality a
//! *runtime* control variable, following MP-Rec's multi-path serving:
//!
//! * [`PathSetBuilder`] (entered through [`Engine::paths`]) assembles a
//!   [`PathSet`] over the engine's backend pool — path 0 is the
//!   engine's own pipeline, each alternate a (typically lighter)
//!   pipeline contending for the same machines — measuring each path's
//!   NDCG with the engine's Monte-Carlo evaluator;
//! * [`Scenario::multipath`](recpipe_qsim::Scenario::multipath) runs
//!   the per-query admission loop (see
//!   [`AdmissionPolicy`]);
//! * [`AdmissionSweep`] grids admission-policy knobs over one path set
//!   and returns [`BrownoutOutcome`]s, reduced to a three-objective
//!   front by [`Scheduler::pareto_brownout`](crate::Scheduler::pareto_brownout)
//!   — the brown-out analogue of the cluster sweep's cost-aware front.

use recpipe_data::ArrivalProcess;
use recpipe_hwsim::PcieModel;
use recpipe_qsim::{
    AdmissionPolicy, AlwaysPrimary, DeadlineAware, LifecycleConfig, LoadAdaptive, PathSet,
    PathStats, Router, Scenario, SchedulingPolicy,
};

use crate::backend::build_serving_spec;
use crate::engine::{Engine, EngineError};
use crate::{PipelineConfig, Placement};

/// One planned path: a pipeline, where it runs, and (optionally) an
/// explicit quality overriding the Monte-Carlo measurement.
struct PlannedPath {
    name: Option<String>,
    quality: Option<f64>,
    pipeline: PipelineConfig,
    placement: Placement,
}

/// Builds a [`PathSet`] over an engine's backend pool; see
/// [`Engine::paths`].
///
/// Path 0 is the engine's own pipeline on its placement (named
/// `"primary"`); every [`alternate`](Self::alternate) appends one
/// degraded path. All paths share the pool's resource fleet — the whole
/// point of multi-path serving is contending for one set of machines —
/// so alternates must agree with the primary on per-backend fleets
/// (they do automatically unless a placement requests different
/// replica counts).
///
/// # Examples
///
/// ```
/// use recpipe_core::{Engine, Placement, PipelineConfig, StageConfig};
/// use recpipe_data::PoissonArrivals;
/// use recpipe_models::ModelKind;
/// use recpipe_qsim::{LoadAdaptive, Scenario};
///
/// let full = PipelineConfig::builder()
///     .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
///     .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
///     .build()?;
/// let lite = PipelineConfig::single_stage(ModelKind::RmSmall, 1024, 64)?;
///
/// let engine = Engine::commodity(full)
///     .placement(Placement::cpu_only(2))
///     .quality_queries(50)
///     .build()?;
/// let paths = engine
///     .paths()
///     .alternate(lite, Placement::cpu_only(1))
///     .build()?;
/// assert_eq!(paths.num_paths(), 2);
/// assert!(paths.quality(0) > paths.quality(1));
///
/// let admission = LoadAdaptive::new(0.8, 0.5);
/// let arrivals = PoissonArrivals::new(200.0);
/// let out = Scenario::multipath(&paths, &admission, &arrivals, 1_000, engine.seed()).run()?;
/// assert_eq!(out.paths.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PathSetBuilder<'e> {
    engine: &'e Engine,
    paths: Vec<PlannedPath>,
}

impl<'e> PathSetBuilder<'e> {
    pub(crate) fn for_engine(engine: &'e Engine) -> Self {
        Self {
            engine,
            paths: vec![PlannedPath {
                name: Some("primary".to_string()),
                quality: None,
                pipeline: engine.pipeline().clone(),
                placement: engine.placement().clone(),
            }],
        }
    }

    /// Appends a degraded path: a lighter pipeline on its own placement
    /// over the same backend pool, named by the pipeline's description
    /// and measured for quality at build time. Append best-quality
    /// first — admission policies degrade by walking the index order.
    pub fn alternate(mut self, pipeline: PipelineConfig, placement: Placement) -> Self {
        self.paths.push(PlannedPath {
            name: None,
            quality: None,
            pipeline,
            placement,
        });
        self
    }

    /// [`alternate`](Self::alternate) with an explicit name and quality
    /// tag (skips the Monte-Carlo measurement — the seam for calibrated
    /// or hypothetical quality scores).
    pub fn alternate_with_quality(
        mut self,
        name: impl Into<String>,
        quality: f64,
        pipeline: PipelineConfig,
        placement: Placement,
    ) -> Self {
        self.paths.push(PlannedPath {
            name: Some(name.into()),
            quality: Some(quality),
            pipeline,
            placement,
        });
        self
    }

    /// Builds the path set: each path's queueing spec is built exactly
    /// like the engine's own (same pool, PCIe link, and batching
    /// flag), qualities without explicit tags are measured together
    /// with the engine's evaluator settings (one shared-pool batch per
    /// dataset, bit-identical to measuring each alone), and the specs
    /// are merged over the shared fleet.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when a path's placement does not fit
    /// its pipeline or pool, or when a path's spec does not share the
    /// primary's resource fleet (e.g. placements disagreeing on replica
    /// counts, or chain-decomposed accelerator backends whose resources
    /// are per-pipeline).
    pub fn build(self) -> Result<PathSet, EngineError> {
        let mut specs = Vec::with_capacity(self.paths.len());
        for p in &self.paths {
            specs.push(build_serving_spec(
                self.engine.backends(),
                &PcieModel::measured(),
                &p.pipeline,
                &p.placement,
                self.engine.batching(),
            )?);
        }
        let untagged: Vec<PipelineConfig> = self
            .paths
            .iter()
            .filter(|p| p.quality.is_none())
            .map(|p| p.pipeline.clone())
            .collect();
        let mut measured = self.engine.measure_qualities(&untagged).into_iter();
        let entries = self
            .paths
            .into_iter()
            .zip(specs)
            .map(|(p, spec)| {
                let quality = p
                    .quality
                    .unwrap_or_else(|| measured.next().expect("one measurement per untagged path"));
                let name = p.name.unwrap_or_else(|| p.pipeline.describe());
                (name, quality, spec)
            })
            .collect();
        PathSet::from_pipelines(entries).map_err(EngineError::from)
    }
}

/// One admission design point of a brown-out sweep: a policy's knobs
/// and how the multi-path run fared under them.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutOutcome {
    /// The admission policy's self-reported name (knobs included).
    pub policy: String,
    /// Achieved completion rate in queries per second.
    pub qps: f64,
    /// p99 end-to-end latency in seconds.
    pub p99_s: f64,
    /// Quality-weighted goodput in quality-units per second (see
    /// [`SimResult::quality_goodput`](recpipe_qsim::SimResult::quality_goodput))
    /// — the scalar brown-out comparisons rank on.
    pub quality_goodput: f64,
    /// Fraction of offered queries lost (admission sheds plus lifecycle
    /// sheds and drops).
    pub shed_rate: f64,
    /// Whether the run exceeded sustainable capacity.
    pub saturated: bool,
    /// Per-path accounting, in path order.
    pub paths: Vec<PathStats>,
}

impl BrownoutOutcome {
    /// Completion-weighted mean path quality (`quality_goodput / qps`,
    /// 0.0 when nothing completed).
    pub fn mean_quality(&self) -> f64 {
        if self.qps > 0.0 {
            self.quality_goodput / self.qps
        } else {
            0.0
        }
    }
}

/// A grid of admission-policy knobs swept over one path set — the
/// brown-out analogue of the cluster sweep's replica grid. Policies are
/// enumerated in a deterministic order: [`AlwaysPrimary`], shed-only
/// [`LoadAdaptive`] knees, degrading knees, then [`DeadlineAware`]
/// deadlines.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionSweep {
    /// Include the degenerate admit-everything baseline.
    pub include_always_primary: bool,
    /// `(degrade_at, recover_at)` pressure knees for [`LoadAdaptive`].
    pub knees: Vec<(f64, f64)>,
    /// Also sweep each knee in shed-only form
    /// ([`LoadAdaptive::without_degradation`]) — the ablation the
    /// brown-out comparison ranks against.
    pub include_shed_only: bool,
    /// Deadlines in seconds for [`DeadlineAware`].
    pub deadlines_s: Vec<f64>,
}

impl AdmissionSweep {
    /// A small default grid: the baseline, two knees in both degrading
    /// and shed-only form, and two deadlines.
    pub fn quick() -> Self {
        Self {
            include_always_primary: true,
            knees: vec![(0.8, 0.5), (1.5, 0.75)],
            include_shed_only: true,
            deadlines_s: vec![0.025, 0.100],
        }
    }

    /// The grid's policies, in enumeration order.
    pub fn policies(&self) -> Vec<Box<dyn AdmissionPolicy>> {
        let mut out: Vec<Box<dyn AdmissionPolicy>> = Vec::new();
        if self.include_always_primary {
            out.push(Box::new(AlwaysPrimary));
        }
        if self.include_shed_only {
            for &(degrade, recover) in &self.knees {
                out.push(Box::new(
                    LoadAdaptive::new(degrade, recover).without_degradation(),
                ));
            }
        }
        for &(degrade, recover) in &self.knees {
            out.push(Box::new(LoadAdaptive::new(degrade, recover)));
        }
        for &deadline in &self.deadlines_s {
            out.push(Box::new(DeadlineAware::new(deadline)));
        }
        out
    }

    /// Runs every policy of the grid over `paths` under the same
    /// arrivals, scheduling, routing, and lifecycle configuration, and
    /// returns one [`BrownoutOutcome`] per policy in enumeration order.
    /// Feed the outcomes to
    /// [`Scheduler::pareto_brownout`](crate::Scheduler::pareto_brownout)
    /// for the three-objective front.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Sim`] when a run hits an unrecoverable
    /// availability hole.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        paths: &PathSet,
        arrivals: &dyn ArrivalProcess,
        policy: &dyn SchedulingPolicy,
        router: &dyn Router,
        queries: usize,
        seed: u64,
        cfg: &LifecycleConfig,
    ) -> Result<Vec<BrownoutOutcome>, EngineError> {
        let mut out = Vec::new();
        for admission in self.policies() {
            let mut sim = Scenario::multipath(paths, admission.as_ref(), arrivals, queries, seed)
                .policy(policy)
                .router(router)
                .lifecycle(cfg)
                .run()?;
            let lost = sim.shed + sim.dropped;
            out.push(BrownoutOutcome {
                policy: admission.name(),
                qps: sim.qps,
                p99_s: sim.p99_seconds(),
                quality_goodput: sim.quality_goodput(),
                shed_rate: lost as f64 / queries as f64,
                saturated: sim.saturated,
                paths: sim.paths,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QualityEvaluator, Scheduler, StageConfig};
    use recpipe_data::{DatasetKind, PoissonArrivals};
    use recpipe_models::ModelKind;
    use recpipe_qsim::{Fifo, RoundRobin};

    fn two_stage() -> PipelineConfig {
        PipelineConfig::builder()
            .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
            .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
            .build()
            .unwrap()
    }

    fn quick_engine() -> Engine {
        Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .quality_queries(50)
            .build()
            .unwrap()
    }

    #[test]
    fn ladder_builder_measures_decreasing_quality() {
        let engine = quick_engine();
        let lite = PipelineConfig::single_stage(ModelKind::RmSmall, 1024, 64).unwrap();
        let paths = engine
            .paths()
            .alternate(lite.clone(), Placement::cpu_only(1))
            .build()
            .unwrap();
        assert_eq!(paths.num_paths(), 2);
        assert_eq!(paths.name(0), "primary");
        assert_eq!(paths.name(1), lite.describe());
        // The funnel with the heavyweight ranker beats the lightweight
        // single-stage filter on measured NDCG.
        assert!(
            paths.quality(0) > paths.quality(1),
            "{} vs {}",
            paths.quality(0),
            paths.quality(1)
        );
    }

    #[test]
    fn batched_path_qualities_match_lone_evaluations() {
        let engine = Engine::commodity(two_stage())
            .placement(Placement::cpu_only(2))
            .quality_queries(30)
            .sub_batches(4)
            .seed(5)
            .build()
            .unwrap();
        let mid = PipelineConfig::single_stage(ModelKind::RmMed, 1024, 64).unwrap();
        let lite = PipelineConfig::single_stage(ModelKind::RmSmall, 1024, 64).unwrap();
        let movielens = PipelineConfig::builder()
            .dataset(DatasetKind::MovieLens1M)
            .stage(StageConfig::new(ModelKind::RmSmall, 1024, 64))
            .build()
            .unwrap();
        let paths = engine
            .paths()
            .alternate(mid.clone(), Placement::cpu_only(1))
            .alternate(movielens.clone(), Placement::cpu_only(1))
            .alternate_with_quality("tagged", 0.5, mid.clone(), Placement::cpu_only(1))
            .alternate(lite.clone(), Placement::cpu_only(1))
            .build()
            .unwrap();
        let lone = |p: &PipelineConfig| {
            QualityEvaluator::for_dataset(p.dataset(), 64)
                .queries(30)
                .sub_batches(4)
                .seed(5)
                .evaluate(p)
                .ndcg
                .to_bits()
        };
        let measured = [(0, &two_stage()), (1, &mid), (2, &movielens), (4, &lite)];
        for (idx, pipeline) in measured {
            assert_eq!(paths.quality(idx).to_bits(), lone(pipeline), "path {idx}");
        }
        assert_eq!(paths.quality(3), 0.5);
        assert_eq!(engine.quality().ndcg.to_bits(), lone(&two_stage()));
    }

    #[test]
    fn explicit_quality_skips_measurement() {
        let engine = quick_engine();
        let lite = PipelineConfig::single_stage(ModelKind::RmSmall, 1024, 64).unwrap();
        let paths = engine
            .paths()
            .alternate_with_quality("lite", 0.5, lite, Placement::cpu_only(1))
            .build()
            .unwrap();
        assert_eq!(paths.name(1), "lite");
        assert_eq!(paths.quality(1), 0.5);
    }

    #[test]
    fn mismatched_fleets_surface_as_errors() {
        let engine = quick_engine();
        let lite = PipelineConfig::single_stage(ModelKind::RmSmall, 1024, 64).unwrap();
        let err = engine
            .paths()
            .alternate(
                lite,
                Placement::cpu_only(1).with_fleet(0, crate::FleetSpec::uniform(2)),
            )
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("fleet"), "{err}");
    }

    #[test]
    fn single_path_serve_multipath_matches_serve_routed() {
        let engine = quick_engine();
        let paths = engine.paths().build().unwrap();
        let arrivals = PoissonArrivals::new(300.0);
        let mut multi = engine
            .serve_multipath(
                &paths,
                &arrivals,
                &Fifo,
                &RoundRobin,
                &AlwaysPrimary,
                1_500,
                &LifecycleConfig::default(),
            )
            .unwrap();
        let routed = engine.scenario(&arrivals, 1_500).run().unwrap();
        multi.paths.clear();
        multi.admission_shed = 0;
        assert_eq!(multi, routed);
    }

    #[test]
    fn admission_sweep_runs_the_grid_and_fronts_it() {
        let engine = quick_engine();
        let lite = PipelineConfig::single_stage(ModelKind::RmSmall, 1024, 64).unwrap();
        let paths = engine
            .paths()
            .alternate(lite, Placement::cpu_only(1))
            .build()
            .unwrap();
        let sweep = AdmissionSweep::quick();
        let expected = sweep.policies().len();
        let outcomes = sweep
            .run(
                &paths,
                &PoissonArrivals::new(400.0),
                &Fifo,
                &RoundRobin,
                1_200,
                0xbeef,
                &LifecycleConfig::default(),
            )
            .unwrap();
        assert_eq!(outcomes.len(), expected);
        assert!(outcomes.iter().any(|o| o.policy == "always-primary"));
        for o in &outcomes {
            assert!(o.shed_rate >= 0.0 && o.shed_rate <= 1.0);
            assert!(o.quality_goodput <= o.qps * 1.0 + 1e-9);
            assert!(o.mean_quality() <= 1.0 + 1e-9);
        }
        let n = outcomes.len();
        let front = Scheduler::pareto_brownout(outcomes);
        assert!(!front.is_empty() && front.len() <= n);
    }

    #[test]
    fn sweep_policies_enumerate_deterministically() {
        let sweep = AdmissionSweep::quick();
        let names: Vec<String> = sweep.policies().iter().map(|p| p.name()).collect();
        let again: Vec<String> = sweep.policies().iter().map(|p| p.name()).collect();
        assert_eq!(names, again);
        // Baseline + 2 shed-only + 2 degrading + 2 deadlines.
        assert_eq!(names.len(), 7);
    }
}
