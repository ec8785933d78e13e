//! `sweep`: `Engine::sweep` over the commodity CPU+GPU engine at 500
//! QPS with a 25 ms SLA, on `SchedulerSettings::quick()`'s grid and
//! 400-query quality budget, on one worker. Almost all of its time is
//! `core::quality`. The traced run rebuilds the sweep from its public
//! pieces and must reproduce `Engine::sweep`'s front bit for bit, or
//! its per-layer split would describe a different program.

use recpipe_core::{
    build_spec, candidate_seed, Engine, Outcome, PipelineConfig, Placement, QualityEvaluator,
    Scheduler, SchedulerSettings, StageConfig,
};
use recpipe_hwsim::PcieModel;
use recpipe_metrics::ParetoFront;
use recpipe_models::ModelKind;
use recpipe_qsim::{PipelineSpec, SimResult};

use crate::trace::Tracer;
use crate::{Args, Checks, Layers, Metric, Modeled};

const QPS: f64 = 500.0;
const SLA_S: f64 = 0.025;
/// Iso-quality window below the front's best NDCG. Wider than
/// `examples/scheduler_sweep.rs`'s 0.003: that window is below the
/// Monte-Carlo resolution of a 400-query evaluation, so its winner flips
/// between designs from seed to seed (11 ms against 18 ms p99). Two
/// NDCG points separate the full-pool designs (about 0.91-0.93) from
/// the partial-pool ones (about 0.44) on every seed tried.
const ISO_QUALITY_SLACK: f64 = 0.02;
/// The repository's calibrated window around the paper's 92.25 NDCG
/// anchor — the only reference it holds.
const NDCG_WINDOW: (f64, f64) = (0.91, 0.94);
/// Queries each iso-quality contender is re-simulated with: the sweep's
/// own 800 leave fewer than ten samples beyond a p99, this leaves ~190.
const CONFIRM_QUERIES: usize = 20_000;

struct State {
    engine: Engine,
    settings: SchedulerSettings,
}

/// The engine and the scheduler settings: all `Engine::sweep` needs.
fn setup(seed: u64) -> State {
    let pipeline = PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
        .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
        .build()
        .expect("valid two-stage pipeline");
    let engine = Engine::commodity(pipeline)
        .placement(Placement::cpu_only(2))
        .load(QPS)
        .sla(SLA_S)
        .seed(seed)
        .build()
        .expect("valid commodity engine");
    let mut settings = SchedulerSettings::quick();
    settings.seed = seed;
    settings.workers = Some(1);
    settings.dataset = engine.pipeline().dataset();
    State { engine, settings }
}

struct Candidate {
    pipeline: usize,
    placement: Placement,
    spec: PipelineSpec,
}

struct Enumeration {
    pipelines: Vec<PipelineConfig>,
    /// Design points the sweep simulates (those passing the analytic
    /// stability pre-check): the unit `attempted` counts.
    candidates: Vec<Candidate>,
    /// Design points before spec errors and the pre-check pruned them.
    enumerated: u64,
}

/// The sweep's design space in `Engine::sweep`'s enumeration order:
/// pipelines, placements, fleet variants, specs, and the analytic
/// stability pre-check.
fn enumerate(engine: &Engine, settings: &SchedulerSettings, t: &mut Tracer) -> Enumeration {
    let scheduler = Scheduler::new(settings.clone());
    let pool = engine.backends();
    let pcie = PcieModel::measured();
    let pipelines = t.call("scheduler.enumerate_pipelines", || {
        scheduler.enumerate_pipelines(settings.max_stages)
    });
    let mut candidates = Vec::new();
    let mut enumerated = 0;
    for (pi, pipeline) in pipelines.iter().enumerate() {
        let placements = t.call("scheduler.placements_for", || {
            scheduler.placements_for(pool, pipeline.num_stages())
        });
        for base in &placements {
            let variants = t.call("scheduler.fleet_variants", || {
                scheduler.fleet_variants(base)
            });
            for placement in variants {
                enumerated += 1;
                let built = t.call("backend.build_spec", || {
                    build_spec(pool, &pcie, pipeline, &placement)
                });
                match built {
                    Ok(spec) if spec.max_qps() >= QPS * 0.7 => candidates.push(Candidate {
                        pipeline: pi,
                        placement,
                        spec,
                    }),
                    _ => {}
                }
            }
        }
    }
    Enumeration {
        pipelines,
        candidates,
        enumerated,
    }
}

/// `Engine::sweep` rebuilt from its public pieces, each layer call in a
/// span; every candidate's simulation is its own request.
fn decomposed(state: &State, t: &mut Tracer, layers: &mut Layers) -> ParetoFront<Outcome> {
    let settings = &state.settings;
    let pool = state.engine.backends();
    t.request("sweep.run", 0, |t| {
        let en = enumerate(&state.engine, settings, t);
        let evaluator = QualityEvaluator::for_dataset(settings.dataset, 64)
            .queries(settings.quality_queries)
            .seed(settings.seed);
        let ndcg: Vec<f64> = en
            .pipelines
            .iter()
            .map(|p| t.call("quality.evaluate", || evaluator.evaluate(p).ndcg))
            .collect();
        let mut points = Vec::with_capacity(en.candidates.len());
        for (idx, c) in en.candidates.iter().enumerate() {
            let seed = candidate_seed(settings.seed, idx as u64);
            let mut sim = t.request("sweep.candidate", idx as u64 + 1, |t| {
                t.call("qsim.simulate", || {
                    c.spec.simulate(QPS, settings.sim_queries, seed)
                })
            });
            layers.qsim_sim_queries += settings.sim_queries as u64;
            layers.qsim_batch_sum += sim.mean_batch;
            let p99_s = sim.p99_seconds();
            points.push(Outcome {
                pipeline: en.pipelines[c.pipeline].clone(),
                mapping: c.placement.describe(pool),
                ndcg: ndcg[c.pipeline],
                p99_s,
                p50_s: sim.p50_seconds(),
                qps: sim.qps,
                offered_qps: QPS,
                saturated: sim.saturated,
                meets_sla: Some(!sim.saturated && p99_s <= SLA_S),
                replicas: c.placement.replica_cost(),
                fleet_cost: c.placement.fleet_cost(),
            });
        }
        layers.quality_mc_queries += (en.pipelines.len() * settings.quality_queries) as u64;
        layers.scheduler_pipelines += en.pipelines.len() as u64;
        layers.scheduler_candidates += en.candidates.len() as u64;
        layers.scheduler_enumerated += en.enumerated;
        layers.pareto_points += points.len() as u64;
        let front = t.call("pareto.extract", || Scheduler::pareto(points));
        layers.pareto_front += front.len() as u64;
        front
    })
}

/// Checks a front and reads the modeled outputs off it: the best NDCG
/// under the SLA, and the iso-quality winner's latency. `space` is the
/// sweep's design space, so the winner's spec can be found again.
///
/// The winner is confirmed rather than read off the front: a front
/// point's p99 rests on 760 samples (fewer than ten beyond it), so which
/// design looks fastest flips from seed to seed. Every placement of the
/// front's pipelines within [`ISO_QUALITY_SLACK`] of its best NDCG is
/// re-simulated with [`CONFIRM_QUERIES`], and the lowest stable p99 wins.
fn check(
    front: &ParetoFront<Outcome>,
    state: &State,
    space: &Enumeration,
    checks: &mut Checks,
) -> Modeled {
    let weight = space.candidates.len() as u64;
    let points = front.points();
    let under_sla = Scheduler::best_quality_under_sla(points, SLA_S);
    checks.expect(under_sla.is_some(), weight, || {
        "no design meets the SLA".into()
    });
    let quality = under_sla.map_or(f64::NAN, |p| p.ndcg);
    checks.expect(
        (NDCG_WINDOW.0..=NDCG_WINDOW.1).contains(&quality),
        weight,
        || format!("best NDCG under the SLA {quality} is outside {NDCG_WINDOW:?}"),
    );

    let floor = points.iter().map(|p| p.ndcg).fold(0.0, f64::max) - ISO_QUALITY_SLACK;
    let mut winner: Option<(f64, f64, SimResult)> = None;
    for (idx, c) in space.candidates.iter().enumerate() {
        let pipeline = &space.pipelines[c.pipeline];
        let Some(iso) = points
            .iter()
            .find(|p| p.ndcg >= floor && p.pipeline == *pipeline)
        else {
            continue;
        };
        let seed = candidate_seed(state.settings.seed, idx as u64);
        let mut sim = c.spec.simulate(QPS, CONFIRM_QUERIES, seed);
        checks.ledger("confirmation completions", CONFIRM_QUERIES, sim.completed);
        let p99 = sim.p99_seconds();
        if !sim.saturated && winner.as_ref().is_none_or(|(_, best, _)| p99 < *best) {
            winner = Some((iso.ndcg, p99, sim));
        }
    }
    let Some((ndcg, _, sim)) = winner else {
        checks.expect(false, weight, || "no iso-quality winner".into());
        return Modeled {
            quality,
            ..Modeled::default()
        };
    };
    Modeled::of(&sim, CONFIRM_QUERIES, quality, ndcg * sim.qps)
}

pub fn run(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    if !args.trace {
        return crate::untraced(
            args,
            checks,
            || setup(args.seed),
            |state| state.engine.sweep(&state.settings),
            |state, front, checks| {
                let space = enumerate(&state.engine, &state.settings, &mut Tracer::off());
                let candidates = space.candidates.len() as u64;
                (candidates, check(front, state, &space, checks))
            },
        );
    }

    let state = setup(args.seed);
    let space = enumerate(&state.engine, &state.settings, &mut Tracer::off());
    let candidates = space.candidates.len() as u64;
    crate::traced_reps(args, |tracer, layers| {
        let (reference, plain_s) = crate::timed(|| state.engine.sweep(&state.settings));
        let (front, traced_s) = crate::timed(|| decomposed(&state, tracer, layers));
        checks.attempted += candidates;
        checks.expect(front == reference, candidates, || {
            "the traced sweep's front differs from Engine::sweep's".into()
        });
        check(&front, &state, &space, checks);
        (traced_s, plain_s)
    })
}
