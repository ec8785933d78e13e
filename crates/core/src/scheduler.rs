use std::collections::HashSet;
use std::sync::Arc;

use recpipe_data::{DatasetKind, PoissonArrivals};
use recpipe_hwsim::{CpuModel, PcieModel};
use recpipe_metrics::{Dominance, ParetoFront};
use recpipe_models::ModelKind;
use recpipe_qsim::{Scenario, SimResult};

use crate::backend::{build_spec, Backend, FleetSpec, Placement, StageSite};
use crate::engine::Outcome;
use crate::multipath::BrownoutOutcome;
use crate::parallel::{parallel_map, worker_threads};
use crate::{PipelineConfig, QualityEvaluator, StageConfig};

/// Knobs bounding the scheduler's exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerSettings {
    /// Dataset being served.
    pub dataset: DatasetKind,
    /// Candidate stage-0 item counts.
    pub items_grid: Vec<u64>,
    /// Candidate per-stage keep ratios (items_out = items_in / ratio).
    pub keep_ratios: Vec<u64>,
    /// Candidate per-query parallelism for backends that can split a
    /// query across resource units (CPU model parallelism).
    pub cores_options: Vec<usize>,
    /// Candidate replica fleets per backend. The sweep takes the cross
    /// product over the distinct backends each placement uses, so the
    /// Pareto front trades quality and latency against fleet cost. An
    /// option is a uniform replica count (`FleetSpec::uniform(4)`) or
    /// a generation mix (`FleetSpec::mixed(&[(2, 1.0), (2, 0.6)])`),
    /// so a sweep can trade "4 old replicas" against "2 new". Empty
    /// (the default) means one baseline replica per backend: the
    /// pre-cluster sweep, reproduced exactly.
    pub fleet_options: Vec<FleetSpec>,
    /// Deepest pipeline the search enumerates (`Engine::sweep` uses
    /// this; the `explore_*` methods take it as an explicit argument).
    pub max_stages: usize,
    /// Monte-Carlo queries for quality evaluation.
    pub quality_queries: usize,
    /// Simulated queries per performance point.
    pub sim_queries: usize,
    /// Base RNG seed; every candidate derives its own simulation seed
    /// from it (see [`candidate_seed`]).
    pub seed: u64,
    /// Worker threads for candidate evaluation (`None` = one per
    /// available core; `Some(1)` = serial). Results are deterministic
    /// and identical across worker counts.
    pub workers: Option<usize>,
    /// How the sweep spends its simulation budget: exhaustively
    /// ([`SweepBudget::Full`], the default — every candidate simulated
    /// at `sim_queries`) or with successive-halving early termination
    /// ([`SweepBudget::Halving`]).
    pub sweep_budget: SweepBudget,
}

/// How a sweep spends its per-candidate simulation budget.
///
/// The fleet cross product ([`SchedulerSettings::fleet_options`])
/// multiplies the placement grid, and most of that grid is nowhere near
/// the Pareto front; halving prunes it with cheap low-budget
/// simulations before spending the full budget on contenders.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum SweepBudget {
    /// Simulate every candidate at the full
    /// [`sim_queries`](SchedulerSettings::sim_queries) budget — the
    /// exhaustive pre-halving behavior, reproduced
    /// candidate-for-candidate.
    #[default]
    Full,
    /// Successive halving: simulate every candidate at `min_queries`,
    /// keep the rung's entire non-dominated quality/latency/cost front
    /// plus the best of the rest up to `survivor_fraction` of the pool
    /// (ranked by successive Pareto fronts, ties broken by enumeration
    /// order), double the budget, and repeat until the budget reaches
    /// `sim_queries`. Survivors' final outcomes are simulated at the
    /// full budget with their [`candidate_seed`], so every returned
    /// point is bit-identical to what [`SweepBudget::Full`] would have
    /// produced for that candidate — halving can only *omit* points
    /// (when a low-budget rung misranks an eventual front member), not
    /// distort them.
    Halving {
        /// Per-candidate simulated queries on the first rung (clamped
        /// up to at least 1 and down to `sim_queries`).
        min_queries: usize,
        /// Fraction of each rung's pool promoted to the next rung, in
        /// `(0, 1]`. The rung's whole non-dominated front survives
        /// regardless, so the front can exceed the fraction.
        survivor_fraction: f64,
    },
}

impl SweepBudget {
    /// The default halving schedule for a sweep simulating
    /// `sim_queries` per candidate: start at an eighth of the full
    /// budget (but at least 100 queries) and promote the best 40% per
    /// rung. The non-dominated-front floor lifts the effective survivor
    /// count to roughly half the pool in practice, which lands the
    /// four-rung schedule at or under half the exhaustive sweep's
    /// simulated queries.
    pub fn halving(sim_queries: usize) -> Self {
        SweepBudget::Halving {
            min_queries: (sim_queries / 8).max(100),
            survivor_fraction: 0.4,
        }
    }
}

/// Cost accounting for one sweep's simulation phase (quality
/// evaluations are budgeted separately and cached per pipeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Candidates enumerated (pipeline x placement x replica variants
    /// that passed the analytic stability pre-check).
    pub candidates: u64,
    /// Queueing simulations run across all rungs.
    pub simulations: u64,
    /// Total simulated queries across those simulations — the sweep's
    /// dominant cost, since every simulated query costs the same
    /// event-loop work whichever rung it runs in.
    pub simulated_queries: u64,
}

impl SweepStats {
    fn add_rung(&mut self, simulations: usize, queries_each: usize) {
        self.simulations += simulations as u64;
        self.simulated_queries += (simulations * queries_each) as u64;
    }
}

/// Derives the simulation seed of candidate `index` from the settings'
/// base seed (a splitmix64 step), so every design point runs an
/// independent arrival stream and parallel workers never share RNG
/// state. Both the serial and parallel paths use this, keeping them
/// bit-identical.
pub fn candidate_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SchedulerSettings {
    /// The paper's Criteo sweep: items 256-4096, ratios 8/16, model
    /// parallelism up to 4 cores.
    pub fn paper_default() -> Self {
        Self {
            dataset: DatasetKind::CriteoKaggle,
            items_grid: vec![256, 512, 1024, 2048, 3200, 4096],
            keep_ratios: vec![8, 16],
            cores_options: vec![1, 2, 4],
            fleet_options: Vec::new(),
            max_stages: 3,
            quality_queries: 200,
            sim_queries: 3_000,
            seed: 77,
            workers: None,
            sweep_budget: SweepBudget::Full,
        }
    }

    /// A trimmed sweep for fast tests: the pipeline/mapping grid
    /// shrinks, and quality is sampled at 400 queries, a standard error
    /// of about 0.0012 NDCG per pipeline. A selection between designs
    /// whose gap is that small needs a paired test, not point estimates.
    pub fn quick() -> Self {
        Self {
            dataset: DatasetKind::CriteoKaggle,
            items_grid: vec![1024, 4096],
            keep_ratios: vec![8],
            cores_options: vec![1, 2],
            fleet_options: Vec::new(),
            max_stages: 3,
            quality_queries: 400,
            sim_queries: 800,
            seed: 77,
            workers: None,
            sweep_budget: SweepBudget::Full,
        }
    }
}

/// One enumerated sweep candidate awaiting simulation: a pipeline, its
/// placement description, its (already evaluated) quality, and the
/// queueing spec to simulate. The candidate's position in the
/// enumeration order fixes its [`candidate_seed`] across budgets.
struct Candidate {
    pipeline: PipelineConfig,
    mapping: String,
    ndcg: f64,
    replicas: usize,
    fleet_cost: f64,
    spec: recpipe_qsim::PipelineSpec,
}

/// One candidate's provisional standing after a halving rung.
struct RungPoint {
    idx: usize,
    p99_s: f64,
    ndcg: f64,
    cost: f64,
    saturated: bool,
}

/// The axes of [`Scheduler::pareto_with_cost`] and of the halving
/// rungs: p99 min, NDCG max, fleet cost min (with all costs equal,
/// exactly [`Scheduler::pareto`]'s 2D dominance).
const P99_NDCG_COST: &[Dominance] = &[
    Dominance::Minimize,
    Dominance::Maximize,
    Dominance::Minimize,
];

/// The RecPipe inference scheduler: exhaustively explores multi-stage
/// parameters (Step 1) and hardware placements (Step 2), evaluating
/// quality with the Monte-Carlo evaluator and tail latency with the
/// queueing simulator. Every evaluated point is an [`Outcome`] — the
/// same struct `Engine::evaluate` returns — so Pareto extraction and
/// SLA selection share one code path with the rest of the system.
///
/// # Examples
///
/// ```
/// use recpipe_core::{Scheduler, SchedulerSettings};
///
/// let scheduler = Scheduler::new(SchedulerSettings::quick());
/// let points = scheduler.explore_cpu(200.0, 2);
/// assert!(!points.is_empty());
/// let frontier = Scheduler::pareto(points);
/// assert!(!frontier.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    settings: SchedulerSettings,
}

impl Scheduler {
    /// Creates a scheduler with the given search bounds.
    pub fn new(settings: SchedulerSettings) -> Self {
        Self { settings }
    }

    /// The settings in use.
    pub fn settings(&self) -> &SchedulerSettings {
        &self.settings
    }

    fn quality_evaluator(&self) -> QualityEvaluator {
        QualityEvaluator::for_dataset(self.settings.dataset, 64)
            .queries(self.settings.quality_queries)
            .seed(self.settings.seed)
    }

    /// Model-tier chains per stage count: the Pareto-ordered combinations
    /// the paper sweeps.
    fn model_chains(num_stages: usize) -> Vec<Vec<ModelKind>> {
        use ModelKind::*;
        match num_stages {
            1 => vec![vec![RmSmall], vec![RmMed], vec![RmLarge]],
            2 => vec![
                vec![RmSmall, RmLarge],
                vec![RmMed, RmLarge],
                vec![RmSmall, RmMed],
            ],
            3 => vec![vec![RmSmall, RmMed, RmLarge]],
            _ => Vec::new(),
        }
    }

    /// Enumerates every valid pipeline with up to `max_stages` stages
    /// (the paper's Step 1 algorithmic-scaling space). Ratio paths that
    /// clamp to identical item counts are deduplicated.
    pub fn enumerate_pipelines(&self, max_stages: usize) -> Vec<PipelineConfig> {
        let mut out = Vec::new();
        for stages in 1..=max_stages.min(3) {
            for chain in Self::model_chains(stages) {
                for &items0 in &self.settings.items_grid {
                    self.extend_pipelines(&chain, items0, stages, &mut out);
                }
            }
        }
        let mut seen = HashSet::new();
        out.retain(|p| seen.insert(p.clone()));
        out
    }

    fn extend_pipelines(
        &self,
        chain: &[ModelKind],
        items0: u64,
        stages: usize,
        out: &mut Vec<PipelineConfig>,
    ) {
        // Recursively expand keep-ratio choices per intermediate stage.
        fn rec(
            chain: &[ModelKind],
            ratios: &[u64],
            dataset: DatasetKind,
            items: u64,
            idx: usize,
            acc: &mut Vec<StageConfig>,
            out: &mut Vec<PipelineConfig>,
        ) {
            let last = idx + 1 == chain.len();
            if last {
                if items < 64 {
                    return;
                }
                acc.push(StageConfig::new(chain[idx], items, 64));
                let mut builder = PipelineConfig::builder().dataset(dataset);
                for s in acc.iter() {
                    builder = builder.stage(*s);
                }
                if let Ok(p) = builder.build() {
                    out.push(p);
                }
                acc.pop();
                return;
            }
            for &ratio in ratios {
                let next = (items / ratio).max(64);
                if next >= items {
                    continue;
                }
                acc.push(StageConfig::new(chain[idx], items, next));
                rec(chain, ratios, dataset, next, idx + 1, acc, out);
                acc.pop();
            }
        }
        let mut acc = Vec::with_capacity(stages);
        rec(
            chain,
            &self.settings.keep_ratios,
            self.settings.dataset,
            items0,
            0,
            &mut acc,
            out,
        );
    }

    /// Candidate placements of an `n`-stage pipeline over a backend
    /// pool: every backend hosts the whole pipeline; backends that
    /// model query-splitting ([`Backend::splits_queries`]) add
    /// model-parallel variants for the final (heavyweight) stage; and
    /// for multi-stage pipelines every ordered backend pair hosts a
    /// frontend/backend split.
    pub fn placements_for(&self, pool: &[Arc<dyn Backend>], n: usize) -> Vec<Placement> {
        let mut out = Vec::new();
        // Parallelism k is only worth exploring on backends that model
        // it AND have the units; elsewhere it would pay k units for no
        // speedup (and, on chain-spec backends, drop the whole-chain
        // decomposition).
        let allows_parallel =
            |b: usize, k: usize| pool[b].splits_queries() && k <= pool[b].resources().capacity();

        for b in 0..pool.len() {
            out.push(Placement::uniform(b, n, 1));
            for &k in &self.settings.cores_options {
                if k <= 1 || !allows_parallel(b, k) {
                    continue;
                }
                if n >= 2 {
                    out.push(Placement::new(
                        std::iter::repeat_n(StageSite::new(b, 1), n - 1)
                            .chain(std::iter::once(StageSite::new(b, k)))
                            .collect(),
                    ));
                } else {
                    out.push(Placement::uniform(b, 1, k));
                }
            }
        }

        if n >= 2 {
            for f in 0..pool.len() {
                for b in 0..pool.len() {
                    if f == b {
                        continue;
                    }
                    out.push(Placement::new(
                        std::iter::once(StageSite::new(f, 1))
                            .chain(std::iter::repeat_n(StageSite::new(b, 1), n - 1))
                            .collect(),
                    ));
                    for &k in &self.settings.cores_options {
                        if k <= 1 || !allows_parallel(b, k) {
                            continue;
                        }
                        out.push(Placement::new(
                            std::iter::once(StageSite::new(f, 1))
                                .chain(std::iter::repeat_n(StageSite::new(b, 1), n - 2))
                                .chain(std::iter::once(StageSite::new(b, k)))
                                .collect(),
                        ));
                    }
                }
            }
        }

        let mut seen = HashSet::new();
        out.retain(|p| seen.insert(p.clone()));
        out
    }

    /// The fleet grid a sweep crosses per backend:
    /// [`SchedulerSettings::fleet_options`], or one baseline replica
    /// when that is empty.
    pub fn effective_fleet_options(&self) -> Vec<FleetSpec> {
        if self.settings.fleet_options.is_empty() {
            vec![FleetSpec::uniform(1)]
        } else {
            self.settings.fleet_options.clone()
        }
    }

    /// Whether the sweep explores more than the single-baseline-replica
    /// cluster shape — the condition under which `Engine::sweep` adds
    /// the fleet-cost objective.
    pub fn sweeps_cluster_cost(&self) -> bool {
        self.effective_fleet_options()
            .iter()
            .any(|f| f.replicas() > 1 || !f.is_uniform_baseline())
    }

    /// Fleet variants of one placement: the cross product of
    /// [`effective_fleet_options`](Self::effective_fleet_options) over
    /// the distinct backends the placement uses. The options define the
    /// whole search space — any fleets the placement already carries
    /// are overwritten by the enumeration. With the default (empty)
    /// options and an unreplicated placement (what
    /// [`placements_for`](Self::placements_for) generates) this is the
    /// identity, so pre-cluster sweeps are reproduced
    /// candidate-for-candidate.
    pub fn fleet_variants(&self, placement: &Placement) -> Vec<Placement> {
        let opts = self.effective_fleet_options();
        let mut out = vec![placement.clone()];
        for b in placement.used_backends() {
            let mut next = Vec::with_capacity(out.len() * opts.len());
            for p in &out {
                for fleet in &opts {
                    next.push(p.clone().with_fleet(b, fleet.clone()));
                }
            }
            out = next;
        }
        let mut seen = HashSet::new();
        out.retain(|p| seen.insert(p.clone()));
        out
    }

    /// Explores the joint design space over an arbitrary backend pool —
    /// the generic engine behind [`explore_cpu`](Self::explore_cpu) and
    /// `Engine::sweep`. Quality uses `sub_batches`-way stitched top-k
    /// selection (1 = whole-batch); the measured PCIe link
    /// ([`PcieModel::measured`]) is charged when consecutive stages
    /// cross backends. Also returns the sweep's
    /// simulation-cost accounting — how budget pruning
    /// ([`SweepBudget::Halving`]) compares against the exhaustive
    /// sweep.
    ///
    /// Candidate evaluation fans across the settings' worker pool:
    /// quality first (one contiguous range of the Monte-Carlo queries per
    /// worker, each evaluating every pipeline, with per-query NDCGs
    /// reduced in query order), then the queueing simulations (one task
    /// per pipeline x placement, each with its own [`candidate_seed`]).
    /// Candidates keep their serial enumeration order, so the returned
    /// points are identical for any worker count.
    pub fn explore_pool(
        &self,
        qps: f64,
        max_stages: usize,
        pool: &[Arc<dyn Backend>],
        sub_batches: usize,
        sla_s: Option<f64>,
    ) -> (Vec<Outcome>, SweepStats) {
        let interconnect = &PcieModel::measured();
        let workers = worker_threads(self.settings.workers);
        let quality_eval = self.quality_evaluator().sub_batches(sub_batches);
        let pipelines = self.enumerate_pipelines(max_stages);

        // Phase 1: quality per pipeline (`enumerate_pipelines` already
        // deduplicates, so qualities index by position). Each worker
        // takes one contiguous range of the Monte-Carlo queries for the
        // whole grid, so every pipeline shares each query's pool and
        // funnel prefixes; reports do not depend on the split.
        let (reports, _) = quality_eval.evaluate_split(&pipelines, workers);
        let ndcgs: Vec<f64> = reports.iter().map(|report| report.ndcg).collect();

        // Phase 2: enumerate candidates serially (cheap, deterministic
        // order), then simulate each in parallel with its own seed.
        let mut candidates = Vec::new();
        for (pipeline, &ndcg) in pipelines.iter().zip(&ndcgs) {
            for base in self.placements_for(pool, pipeline.num_stages()) {
                for placement in self.fleet_variants(&base) {
                    let Ok(spec) = build_spec(pool, interconnect, pipeline, &placement) else {
                        continue;
                    };
                    // Analytic stability pre-check avoids simulating
                    // hopeless overloads.
                    if spec.max_qps() < qps * 0.7 {
                        continue;
                    }
                    candidates.push(Candidate {
                        pipeline: pipeline.clone(),
                        mapping: placement.describe(pool),
                        ndcg,
                        replicas: placement.replica_cost(),
                        fleet_cost: placement.fleet_cost(),
                        spec,
                    });
                }
            }
        }

        let sim_queries = self.settings.sim_queries;
        let mut stats = SweepStats {
            candidates: candidates.len() as u64,
            ..SweepStats::default()
        };

        // Phase 3: spend the simulation budget. `Full` is the
        // degenerate single-rung schedule (first rung already at the
        // full budget, so nothing is ever pruned); `Halving` climbs
        // geometrically growing rungs first. Either way, every returned
        // result was produced at the full budget with the candidate's
        // own enumeration-indexed seed, so a candidate's outcome is
        // identical under both budgets.
        let results: Vec<(usize, SimResult)> = match self.settings.sweep_budget {
            SweepBudget::Full => {
                self.simulate_rungs(&candidates, qps, workers, sim_queries, 1.0, &mut stats)
            }
            SweepBudget::Halving {
                min_queries,
                survivor_fraction,
            } => self.simulate_rungs(
                &candidates,
                qps,
                workers,
                min_queries,
                survivor_fraction,
                &mut stats,
            ),
        };

        // Each candidate index appears at most once in `results`, so
        // its pipeline/mapping move straight into the outcome.
        let mut candidates: Vec<Option<Candidate>> = candidates.into_iter().map(Some).collect();
        let points = results
            .into_iter()
            .map(|(i, mut sim)| {
                let c = candidates[i].take().expect("candidate consumed once");
                let p99_s = sim.p99_seconds();
                Outcome {
                    pipeline: c.pipeline,
                    mapping: c.mapping,
                    ndcg: c.ndcg,
                    p99_s,
                    p50_s: sim.p50_seconds(),
                    qps: sim.qps,
                    offered_qps: qps,
                    saturated: sim.saturated,
                    meets_sla: sla_s.map(|sla| !sim.saturated && p99_s <= sla),
                    replicas: c.replicas,
                    fleet_cost: c.fleet_cost,
                }
            })
            .collect();
        (points, stats)
    }

    /// Runs the rung-based simulation schedule over an enumerated
    /// candidate list: every rung simulates the surviving pool at the
    /// current budget, keeps the rung's non-dominated front plus the
    /// best of the rest (successive Pareto ranks, enumeration order
    /// breaking ties) up to `survivor_fraction`, and doubles the
    /// budget; the final rung runs at the full `sim_queries`. A first
    /// rung already at `sim_queries` is the [`SweepBudget::Full`]
    /// degenerate case — one rung, nothing pruned. Returns
    /// `(candidate index, full-budget result)` pairs in enumeration
    /// order.
    ///
    /// Candidates keep their enumeration-indexed [`candidate_seed`] on
    /// every rung, so a survivor's final simulation is bit-identical to
    /// the one [`SweepBudget::Full`] would have run.
    fn simulate_rungs(
        &self,
        candidates: &[Candidate],
        qps: f64,
        workers: usize,
        min_queries: usize,
        survivor_fraction: f64,
        stats: &mut SweepStats,
    ) -> Vec<(usize, SimResult)> {
        assert!(
            survivor_fraction > 0.0 && survivor_fraction <= 1.0,
            "survivor fraction must be in (0, 1]"
        );
        let full = self.settings.sim_queries;
        let base_seed = self.settings.seed;
        let mut alive: Vec<usize> = (0..candidates.len()).collect();
        let mut budget = min_queries.max(1).min(full);
        loop {
            let final_rung = budget >= full;
            let rung_queries = if final_rung { full } else { budget };
            let mut sims = parallel_map(&alive, workers, |_, &idx| {
                let arrivals = PoissonArrivals::new(qps);
                let seed = candidate_seed(base_seed, idx as u64);
                Scenario::new(&candidates[idx].spec, &arrivals, rung_queries, seed)
                    .run()
                    .unwrap_or_else(|e| panic!("candidate {idx}: {e}"))
            });
            stats.add_rung(alive.len(), rung_queries);
            if final_rung {
                return alive.into_iter().zip(sims).collect();
            }
            let ranked: Vec<RungPoint> = alive
                .iter()
                .zip(sims.iter_mut())
                .map(|(&idx, sim)| RungPoint {
                    idx,
                    p99_s: sim.p99_seconds(),
                    ndcg: candidates[idx].ndcg,
                    cost: candidates[idx].fleet_cost,
                    saturated: sim.saturated,
                })
                .collect();
            alive = Self::select_survivors(&ranked, survivor_fraction);
            budget *= 2;
        }
    }

    /// Picks a rung's survivors: the whole non-dominated front of the
    /// non-saturated points, then successive fronts (enumeration order
    /// within a front) until `survivor_fraction` of the pool is kept;
    /// saturated points fill any remainder so a borderline run
    /// misflagged at a low budget is not lost for good. Returned
    /// indices are sorted into enumeration order.
    fn select_survivors(ranked: &[RungPoint], survivor_fraction: f64) -> Vec<usize> {
        let target = ((ranked.len() as f64 * survivor_fraction).ceil() as usize).max(1);
        let mut pool: Vec<usize> = (0..ranked.len())
            .filter(|&i| !ranked[i].saturated)
            .collect();
        let mut survivors: Vec<usize> = Vec::with_capacity(target);
        let mut first_front = true;
        while !pool.is_empty() && (first_front || survivors.len() < target) {
            let front = ParetoFront::extract(pool.clone(), P99_NDCG_COST, |&i| {
                vec![ranked[i].p99_s, ranked[i].ndcg, ranked[i].cost]
            })
            .into_vec();
            for &i in &front {
                if first_front || survivors.len() < target {
                    survivors.push(ranked[i].idx);
                }
            }
            pool.retain(|i| !front.contains(i));
            first_front = false;
        }
        let fill = target.saturating_sub(survivors.len());
        survivors.extend(
            ranked
                .iter()
                .filter(|p| p.saturated)
                .take(fill)
                .map(|p| p.idx),
        );
        survivors.sort_unstable();
        survivors
    }

    /// Explores CPU-only execution (paper Section 5.1).
    pub fn explore_cpu(&self, qps: f64, max_stages: usize) -> Vec<Outcome> {
        let pool: Vec<Arc<dyn Backend>> = vec![Arc::new(CpuModel::cascade_lake())];
        self.explore_pool(qps, max_stages, &pool, 1, None).0
    }

    /// Quality-vs-latency Pareto frontier (maximize NDCG, minimize
    /// p99), dropping saturated points — the shared dominance path used
    /// by `Engine::sweep` and the figure binaries.
    pub fn pareto(points: Vec<Outcome>) -> ParetoFront<Outcome> {
        let stable: Vec<Outcome> = points.into_iter().filter(|p| !p.saturated).collect();
        ParetoFront::extract(stable, &[Dominance::Minimize, Dominance::Maximize], |p| {
            vec![p.p99_s, p.ndcg]
        })
    }

    /// Three-objective Pareto frontier for cluster sweeps: minimize
    /// p99, maximize NDCG, *minimize profile-weighted fleet cost*
    /// ([`Outcome::fleet_cost`]: previous-generation machines price at
    /// their speed) — so a cheaper cluster survives the front even
    /// when a larger or newer one beats its latency. Saturated points
    /// are dropped. With every point at equal cost this reduces to
    /// [`pareto`](Self::pareto); on uniform baseline fleets the cost
    /// equals the replica count, reproducing the pre-fleet axis
    /// bit-identically.
    pub fn pareto_with_cost(points: Vec<Outcome>) -> ParetoFront<Outcome> {
        let stable: Vec<Outcome> = points.into_iter().filter(|p| !p.saturated).collect();
        ParetoFront::extract(stable, P99_NDCG_COST, |p| {
            vec![p.p99_s, p.ndcg, p.fleet_cost]
        })
    }

    /// Three-objective Pareto frontier for brown-out sweeps
    /// ([`AdmissionSweep::run`](crate::AdmissionSweep::run)): maximize
    /// quality-weighted goodput, minimize p99, minimize shed rate.
    /// Unlike the design-time fronts, saturated points are *kept* —
    /// brown-out sweeps deliberately run past sustainable capacity,
    /// and how a policy fails under overload is exactly the question.
    pub fn pareto_brownout(points: Vec<BrownoutOutcome>) -> ParetoFront<BrownoutOutcome> {
        ParetoFront::extract(
            points,
            &[
                Dominance::Maximize,
                Dominance::Minimize,
                Dominance::Minimize,
            ],
            |p| vec![p.quality_goodput, p.p99_s, p.shed_rate],
        )
    }

    /// The highest-quality stable design meeting a latency SLA.
    pub fn best_quality_under_sla(points: &[Outcome], sla_s: f64) -> Option<&Outcome> {
        points
            .iter()
            .filter(|p| !p.saturated && p.p99_s <= sla_s)
            .max_by(|a, b| a.ndcg.partial_cmp(&b.ndcg).unwrap())
    }

    /// The lowest-latency stable design achieving at least `min_ndcg`
    /// (iso-quality selection).
    pub fn best_latency_at_quality(points: &[Outcome], min_ndcg: f64) -> Option<&Outcome> {
        points
            .iter()
            .filter(|p| !p.saturated && p.ndcg >= min_ndcg)
            .min_by(|a, b| a.p99_s.partial_cmp(&b.p99_s).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recpipe_accel::{Partition, RpAccel, RpAccelConfig};
    use recpipe_hwsim::GpuModel;

    fn scheduler() -> Scheduler {
        Scheduler::new(SchedulerSettings::quick())
    }

    #[test]
    fn enumeration_produces_valid_funnels() {
        let pipelines = scheduler().enumerate_pipelines(3);
        assert!(!pipelines.is_empty());
        for p in &pipelines {
            assert!(p.num_stages() <= 3);
            assert_eq!(p.items_served(), 64);
        }
    }

    #[test]
    fn enumeration_covers_all_stage_counts() {
        let pipelines = scheduler().enumerate_pipelines(3);
        for n in 1..=3 {
            assert!(
                pipelines.iter().any(|p| p.num_stages() == n),
                "missing {n}-stage configs"
            );
        }
    }

    #[test]
    fn cpu_exploration_returns_evaluated_points() {
        let points = scheduler().explore_cpu(150.0, 2);
        assert!(!points.is_empty());
        for p in &points {
            assert!((0.0..=1.0).contains(&p.ndcg));
            assert!(p.p99_s > 0.0);
            assert_eq!(p.offered_qps, 150.0);
        }
    }

    #[test]
    fn placements_cover_uniform_parallel_and_split() {
        let s = scheduler();
        let pool: Vec<Arc<dyn Backend>> =
            vec![Arc::new(CpuModel::cascade_lake()), Arc::new(GpuModel::t4())];
        let placements = s.placements_for(&pool, 2);
        let described: Vec<String> = placements.iter().map(|p| p.describe(&pool)).collect();
        assert!(described.contains(&"cpu".to_string()));
        assert!(described.contains(&"cpu|cpu(x2)".to_string()));
        assert!(described.contains(&"gpu".to_string()));
        assert!(described.contains(&"gpu|cpu".to_string()));
        assert!(described.contains(&"gpu|cpu(x2)".to_string()));
        // GPU capacity is 1, so no gpu(x2) variants appear.
        assert!(!described.iter().any(|d| d.contains("gpu(x")));
    }

    #[test]
    fn iso_quality_selection_prefers_multi_stage() {
        // Takeaway 1: at the max-quality target, the scheduler picks a
        // multi-stage design over single-stage on CPUs. A design is at
        // iso-quality when a one-sided 99% paired test over the sweep's
        // own per-query NDCGs puts it within 0.005 of the best design.
        // RMmed@4096 single-stage scores about 0.0053 below the best, so
        // at 400 queries its point estimate alone falls inside the window
        // at some seeds (the quick settings' 77 among them), while the
        // paired test does not decide it is inside.
        let s = scheduler();
        let points = s.explore_cpu(300.0, 2);
        let live = points.iter().filter(|p| !p.saturated);
        let max_quality = live.clone().map(|p| p.ndcg).fold(0.0, f64::max);
        // The designs the point estimates put in the window; the best first.
        let mut window: Vec<&Outcome> = live.filter(|p| p.ndcg >= max_quality - 0.005).collect();
        window.sort_by(|a, b| b.ndcg.total_cmp(&a.ndcg));
        let pipelines: Vec<PipelineConfig> = window.iter().map(|p| p.pipeline.clone()).collect();
        let ndcgs = s.quality_evaluator().query_ndcgs(&pipelines);
        let (picked, _) = window
            .iter()
            .zip(&ndcgs)
            .filter(|(_, scores)| paired_gap_bound(&ndcgs[0], scores) <= 0.005)
            .min_by(|(a, _), (b, _)| a.p99_s.total_cmp(&b.p99_s))
            .expect("the best design is inside its own window");
        assert!(
            picked.pipeline.num_stages() >= 2,
            "picked {} ({})",
            picked.pipeline.describe(),
            picked.mapping
        );
    }

    /// The one-sided 99% upper bound on the mean of `best - other`, paired
    /// query by query: the mean plus 2.326 standard errors.
    fn paired_gap_bound(best: &[f64], other: &[f64]) -> f64 {
        let n = best.len() as f64;
        let gaps: Vec<f64> = best.iter().zip(other).map(|(b, o)| b - o).collect();
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (n - 1.0);
        mean + 2.326 * (var / n).sqrt()
    }

    #[test]
    fn pareto_front_is_consistent() {
        let points = scheduler().explore_cpu(150.0, 2);
        let n = points.len();
        let front = Scheduler::pareto(points);
        assert!(!front.is_empty() && front.len() <= n);
        for a in front.iter() {
            for b in front.iter() {
                assert!(
                    !(a.p99_s < b.p99_s && a.ndcg > b.ndcg + 1e-12),
                    "{} dominates {}",
                    a.pipeline.describe(),
                    b.pipeline.describe()
                );
            }
        }
    }

    #[test]
    fn sla_selection_respects_bound() {
        let points = scheduler().explore_cpu(150.0, 2);
        if let Some(best) = Scheduler::best_quality_under_sla(&points, 0.025) {
            assert!(best.p99_s <= 0.025);
        }
    }

    #[test]
    fn parallel_variants_only_for_query_splitting_backends() {
        // RpAccel ignores the parallelism knob (and its whole-chain
        // decomposition would be bypassed), so the scheduler must not
        // generate (xK) variants over an accel pool.
        let s = scheduler();
        let accel = RpAccel::new(RpAccelConfig::paper_default(Partition::symmetric(8, 2)));
        let pool: Vec<Arc<dyn Backend>> = vec![Arc::new(accel)];
        for n in 1..=3 {
            for placement in s.placements_for(&pool, n) {
                assert!(
                    placement.sites().iter().all(|site| site.parallelism == 1),
                    "unexpected parallel variant {}",
                    placement.describe(&pool)
                );
            }
        }
    }

    #[test]
    fn fleet_variants_are_identity_at_default_options() {
        let s = scheduler();
        let placement = Placement::gpu_frontend(2, 2);
        assert_eq!(s.fleet_variants(&placement), vec![placement.clone()]);
    }

    #[test]
    fn fleet_variants_cross_distinct_backends() {
        let mut settings = SchedulerSettings::quick();
        settings.fleet_options = [1, 2].map(FleetSpec::uniform).to_vec();
        let s = Scheduler::new(settings);
        // Two distinct backends -> 2 x 2 variants; one backend -> 2.
        assert_eq!(s.fleet_variants(&Placement::gpu_frontend(2, 1)).len(), 4);
        assert_eq!(s.fleet_variants(&Placement::cpu_only(2)).len(), 2);
        let costs: Vec<usize> = s
            .fleet_variants(&Placement::cpu_only(2))
            .iter()
            .map(|p| p.replica_cost())
            .collect();
        assert_eq!(costs, vec![1, 2]);
    }

    #[test]
    fn cost_aware_pareto_keeps_cheap_clusters() {
        // A strictly slower but strictly cheaper point must survive the
        // three-objective front while being dropped from the 2D one.
        let base = scheduler().explore_cpu(150.0, 1);
        let mut cheap = base[0].clone();
        cheap.ndcg = 0.9;
        cheap.p99_s = 0.010;
        cheap.replicas = 1;
        cheap.fleet_cost = 1.0;
        cheap.saturated = false;
        let mut fast = cheap.clone();
        fast.p99_s = 0.005;
        fast.replicas = 4;
        fast.fleet_cost = 4.0;
        let front2d = Scheduler::pareto(vec![cheap.clone(), fast.clone()]);
        assert_eq!(front2d.len(), 1);
        let front3d = Scheduler::pareto_with_cost(vec![cheap, fast]);
        assert_eq!(front3d.len(), 2);
    }

    #[test]
    fn fleet_variants_cross_generation_mixes() {
        let mut settings = SchedulerSettings::quick();
        settings.fleet_options = vec![
            FleetSpec::uniform(1),
            FleetSpec::mixed(&[(1, 1.0), (1, 0.6)]),
        ];
        let s = Scheduler::new(settings);
        assert!(s.sweeps_cluster_cost());
        // One used backend -> 2 variants; two distinct backends -> 4.
        let variants = s.fleet_variants(&Placement::cpu_only(2));
        assert_eq!(variants.len(), 2);
        assert_eq!(s.fleet_variants(&Placement::gpu_frontend(2, 1)).len(), 4);
        let costs: Vec<f64> = variants.iter().map(|p| p.fleet_cost()).collect();
        assert_eq!(costs, vec![1.0, 1.6]);
        // The default grid sweeps no cluster cost axis.
        assert!(!scheduler().sweeps_cluster_cost());
    }

    #[test]
    fn fleet_option_sweep_keeps_a_mixed_generation_front_point() {
        // The heterogeneity acceptance: sweeping fleet options returns
        // a three-objective front with at least one mixed-generation
        // cluster on it — cheaper than the uniform two-replica fleet,
        // faster than anything a single replica can do at this load.
        let mut settings = SchedulerSettings::quick();
        settings.fleet_options = vec![
            FleetSpec::uniform(1),
            FleetSpec::uniform(2),
            FleetSpec::mixed(&[(1, 1.0), (1, 0.6)]),
        ];
        let s = Scheduler::new(settings);
        let pool: Vec<Arc<dyn Backend>> = vec![Arc::new(CpuModel::cascade_lake())];
        // A load high enough that single replicas queue hard on the
        // best pipelines: the mixed fleet's 1.6x drain rate buys real
        // p99, while the uniform two-replica fleet costs 2.0.
        let (points, _) = s.explore_pool(8_000.0, 2, &pool, 1, None);
        let front = Scheduler::pareto_with_cost(points);
        assert!(!front.is_empty());
        assert!(
            front.iter().any(|p| p.mapping.contains('@')),
            "no mixed-generation point on the front: {:?}",
            front.iter().map(|p| p.mapping.clone()).collect::<Vec<_>>()
        );
        // Fleet costs are profile-weighted on every point.
        for p in front.iter() {
            assert!(p.fleet_cost <= p.replicas as f64 + 1e-12);
        }
    }

    #[test]
    fn halving_sweep_halves_cost_and_preserves_the_pareto_front() {
        // The PR-4 acceptance: over a replica-options grid, successive
        // halving spends at most half the exhaustive sweep's simulated
        // queries yet returns the same Pareto-optimal placements — and
        // every point it returns is bit-identical to the corresponding
        // full-budget point (same candidate seed, same final budget).
        let mut settings = SchedulerSettings::quick();
        settings.fleet_options = [1, 2, 4].map(FleetSpec::uniform).to_vec();
        let pool: Vec<Arc<dyn Backend>> = vec![Arc::new(CpuModel::cascade_lake())];
        let qps = 2_000.0;

        let (full_points, full_stats) =
            Scheduler::new(settings.clone()).explore_pool(qps, 2, &pool, 1, None);

        settings.sweep_budget = SweepBudget::halving(settings.sim_queries);
        let (half_points, half_stats) =
            Scheduler::new(settings).explore_pool(qps, 2, &pool, 1, None);

        assert_eq!(half_stats.candidates, full_stats.candidates);
        assert!(
            half_stats.simulated_queries * 2 <= full_stats.simulated_queries,
            "halving spent {} simulated queries vs full's {}",
            half_stats.simulated_queries,
            full_stats.simulated_queries
        );
        assert!(half_stats.simulations < full_stats.simulations * 3);

        // Every halving point is a bit-identical member of the full
        // sweep's point set...
        assert!(!half_points.is_empty());
        for p in &half_points {
            assert!(
                full_points.contains(p),
                "halving point {} ({}) not in the full sweep",
                p.pipeline.describe(),
                p.mapping
            );
        }
        // ...and the Pareto fronts coincide exactly.
        let full_front = Scheduler::pareto_with_cost(full_points);
        let half_front = Scheduler::pareto_with_cost(half_points);
        assert_eq!(full_front.points(), half_front.points());
    }

    #[test]
    fn full_budget_stats_account_every_candidate() {
        let s = scheduler();
        let pool: Vec<Arc<dyn Backend>> = vec![Arc::new(CpuModel::cascade_lake())];
        let (points, stats) = s.explore_pool(150.0, 2, &pool, 1, None);
        assert_eq!(stats.candidates as usize, points.len());
        assert_eq!(stats.simulations, stats.candidates);
        assert_eq!(
            stats.simulated_queries,
            stats.simulations * s.settings().sim_queries as u64
        );
    }

    #[test]
    fn halving_min_queries_at_full_budget_degenerates_to_full() {
        // A first rung already at `sim_queries` is a single full rung:
        // identical points, identical cost.
        let mut settings = SchedulerSettings::quick();
        settings.fleet_options = [1, 2].map(FleetSpec::uniform).to_vec();
        let pool: Vec<Arc<dyn Backend>> = vec![Arc::new(CpuModel::cascade_lake())];
        let (full_points, full_stats) =
            Scheduler::new(settings.clone()).explore_pool(400.0, 1, &pool, 1, None);
        settings.sweep_budget = SweepBudget::Halving {
            min_queries: settings.sim_queries,
            survivor_fraction: 0.5,
        };
        let (degen_points, degen_stats) =
            Scheduler::new(settings).explore_pool(400.0, 1, &pool, 1, None);
        assert_eq!(full_points, degen_points);
        assert_eq!(full_stats, degen_stats);
    }

    #[test]
    fn survivor_selection_keeps_the_whole_front_and_fills_by_rank() {
        let point = |idx, p99_s, ndcg, cost: f64, saturated| RungPoint {
            idx,
            p99_s,
            ndcg,
            cost,
            saturated,
        };
        // Front: 10 (fast/low-quality) and 12 (slow/high-quality);
        // 11 is rank-2 (dominated only by 10); 13 is dominated twice
        // over; 14 is saturated.
        let ranked = vec![
            point(10, 0.010, 0.90, 1.0, false),
            point(11, 0.012, 0.89, 1.0, false),
            point(12, 0.030, 0.95, 1.0, false),
            point(13, 0.040, 0.88, 2.0, false),
            point(14, 0.005, 0.99, 1.0, true),
        ];
        // A tiny fraction still keeps the full non-dominated front.
        assert_eq!(Scheduler::select_survivors(&ranked, 0.2), vec![10, 12]);
        // A larger fraction fills from the next Pareto rank.
        assert_eq!(Scheduler::select_survivors(&ranked, 0.6), vec![10, 11, 12]);
        // Saturated points only pad once stable ranks run out.
        assert_eq!(
            Scheduler::select_survivors(&ranked, 1.0),
            vec![10, 11, 12, 13, 14]
        );
    }

    #[test]
    fn default_halving_schedule_is_an_eighth_with_half_survivors() {
        assert_eq!(SweepBudget::default(), SweepBudget::Full);
        match SweepBudget::halving(3_000) {
            SweepBudget::Halving {
                min_queries,
                survivor_fraction,
            } => {
                assert_eq!(min_queries, 375);
                assert!((survivor_fraction - 0.4).abs() < 1e-12);
            }
            SweepBudget::Full => panic!("expected a halving budget"),
        }
        // The 100-query floor engages for small sweeps.
        match SweepBudget::halving(400) {
            SweepBudget::Halving { min_queries, .. } => assert_eq!(min_queries, 100),
            SweepBudget::Full => panic!("expected a halving budget"),
        }
    }
}
