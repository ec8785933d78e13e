//! `brownout`: `Engine::paths()` builds a three-path CPU ladder (full
//! funnel, lighter funnel, single-stage filter) over one shared CPU, and
//! the engine's Monte-Carlo evaluator measures each path's quality
//! during set-up. `serve_multipath` then runs under `LoadAdaptive`
//! through a diurnal ramp peaking at 3x the primary path's capacity.
//! The only workload on `qsim::admission`, `core::multipath` and deep
//! overload queues.

use recpipe_core::{Engine, PipelineConfig, Placement, QualityEvaluator, StageConfig};
use recpipe_data::DiurnalArrivals;
use recpipe_models::ModelKind;
use recpipe_qsim::{Fifo, LifecycleConfig, LoadAdaptive, PathSet, RoundRobin, SimResult};

use crate::trace::Tracer;
use crate::{Args, Checks, Metric, Modeled};

/// Few enough that the completions (about half are shed) stay below
/// the latency collector's 2^17-sample fold threshold, so the reported
/// percentiles are exact samples rather than histogram bin bounds.
const QUERIES: usize = 240_000;
/// Monte-Carlo queries per path-quality measurement (the sweep's
/// budget).
const QUALITY_QUERIES: usize = 400;
/// Ramp from half the primary path's capacity to three times it.
const TROUGH: f64 = 0.5;
const PEAK: f64 = 3.0;
/// About 2.7 ramp cycles over the run.
const PERIOD_S: f64 = 20.0;

struct State {
    engine: Engine,
    paths: PathSet,
    arrivals: DiurnalArrivals,
}

/// The ladder, best quality first: the primary funnel, a lighter
/// funnel, and a single-stage filter — all on the one CPU.
fn ladder() -> [(PipelineConfig, Placement); 3] {
    let funnel = |ranker| {
        PipelineConfig::builder()
            .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
            .stage(StageConfig::new(ranker, 256, 64))
            .build()
            .expect("valid funnel")
    };
    let lite = PipelineConfig::single_stage(ModelKind::RmSmall, 1024, 64).expect("valid filter");
    [
        (funnel(ModelKind::RmLarge), Placement::cpu_only(2)),
        (funnel(ModelKind::RmMed), Placement::cpu_only(2)),
        (lite, Placement::cpu_only(1)),
    ]
}

fn engine(seed: u64) -> Engine {
    let [(primary, placement), ..] = ladder();
    Engine::commodity(primary)
        .placement(placement)
        .quality_queries(QUALITY_QUERIES)
        .seed(seed)
        .build()
        .expect("valid commodity engine")
}

fn arrivals(engine: &Engine) -> DiurnalArrivals {
    let capacity = engine.max_qps();
    DiurnalArrivals::new(TROUGH * capacity, PEAK * capacity, PERIOD_S)
}

fn setup(seed: u64) -> State {
    let engine = engine(seed);
    let [_, mid, lite] = ladder();
    let paths = engine
        .paths()
        .alternate(mid.0, mid.1)
        .alternate(lite.0, lite.1)
        .build()
        .expect("every path fits the shared CPU");
    let arrivals = arrivals(&engine);
    State {
        engine,
        paths,
        arrivals,
    }
}

/// [`setup`] decomposed into its public layer calls: the engine build,
/// one quality evaluation per path with the engine's evaluator
/// settings, and the path-set build with those qualities given.
fn traced_setup(seed: u64, t: &mut Tracer) -> State {
    let engine = t.call("backend.engine_build", || engine(seed));
    let evaluator = QualityEvaluator::for_dataset(engine.pipeline().dataset(), 64)
        .queries(QUALITY_QUERIES)
        .seed(seed);
    let [_, mid, lite] = ladder();
    // The primary's quality is the engine's cached report, which the
    // path-set build reads back without measuring again.
    t.call("quality.evaluate", || engine.quality());
    let q_mid = t.call("quality.evaluate", || evaluator.evaluate(&mid.0).ndcg);
    let q_lite = t.call("quality.evaluate", || evaluator.evaluate(&lite.0).ndcg);
    let paths = t.call("multipath.build", || {
        engine
            .paths()
            .alternate_with_quality(mid.0.describe(), q_mid, mid.0, mid.1)
            .alternate_with_quality(lite.0.describe(), q_lite, lite.0, lite.1)
            .build()
            .expect("every path fits the shared CPU")
    });
    let arrivals = arrivals(&engine);
    State {
        engine,
        paths,
        arrivals,
    }
}

fn body(state: &State) -> SimResult {
    state
        .engine
        .serve_multipath(
            &state.paths,
            &state.arrivals,
            &Fifo,
            &RoundRobin,
            &LoadAdaptive::new(1.5, 0.75),
            QUERIES,
            &LifecycleConfig::new(),
        )
        .expect("no lifecycle schedule, so no query is stranded")
}

/// Checks one run's admission and per-path ledgers and reads its
/// modeled outputs; every query offered is one attempted unit.
fn check(out: &SimResult, checks: &mut Checks) -> (u64, Modeled) {
    let admitted: usize = out.paths.iter().map(|p| p.admitted).sum();
    checks.ledger(
        "admitted + admission shed",
        QUERIES,
        admitted + out.admission_shed,
    );
    for p in &out.paths {
        checks.ledger(
            &format!("path {} completed + shed + dropped", p.name),
            p.admitted,
            p.completed + p.shed + p.dropped,
        );
    }
    let completed: usize = out.paths.iter().map(|p| p.completed).sum();
    checks.ledger("path completions", out.completed, completed);
    let goodput = out.quality_goodput();
    let modeled = Modeled::of(out, QUERIES, goodput / out.qps, goodput);
    (QUERIES as u64, modeled)
}

pub fn run(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let seed = args.seed;
    if !args.trace {
        return crate::untraced(
            args,
            checks,
            || setup(seed),
            body,
            |_, out, checks| check(out, checks),
        );
    }

    let reference = setup(seed);
    crate::traced_reps(args, |tracer, layers| {
        let (state, (out, traced_s)) = tracer.request("brownout.run", layers.reps, |t| {
            let state = traced_setup(seed, t);
            let out = crate::timed(|| t.call("qsim.serve_multipath", || body(&state)));
            (state, out)
        });
        let (untraced, plain_s) = crate::timed(|| body(&reference));
        checks.attempted += QUERIES as u64;
        check(&out, checks);
        checks.expect(state.paths == reference.paths, QUERIES as u64, || {
            "the decomposed path set differs from Engine::paths()'s".into()
        });
        checks.expect(out == untraced, QUERIES as u64, || {
            "the traced brownout run differs from the untraced one".into()
        });
        layers.quality_mc_queries += 3 * QUALITY_QUERIES as u64;
        layers.qsim_sim_queries += QUERIES as u64;
        layers.qsim_batch_sum += out.mean_batch;
        for (slot, p) in layers.admitted.iter_mut().zip(&out.paths) {
            *slot += p.admitted as u64;
        }
        layers.admission_shed += out.admission_shed as u64;
        (traced_s, plain_s)
    })
}
