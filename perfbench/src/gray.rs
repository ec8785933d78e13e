//! `gray`: `serve_resilient` on a replicated two-stage batched fleet
//! under bursty MMPP arrivals near capacity, drawn from the seed during
//! set-up and replayed as a recorded trace. A seeded `FaultPlan`
//! injects a degrade burst and a fail-stop burst on the rank fleet, both
//! recovering; telemetry windows are on; a timeout, a budgeted retry and
//! a quantile hedge are armed. The load and faults are tuned so that
//! timeouts, retries, budget denials and hedge wins all occur. It stays
//! below the simulator's 2^20-query streaming threshold, so it records
//! into the finish vector. It exercises the event loop's optional
//! runtimes: timed events, lazy-cancellation carcasses, lifecycle
//! transitions.

use recpipe_data::{ArrivalProcess, MmppArrivals, TraceArrivals};
use recpipe_qsim::{
    serve_lifecycle, serve_resilient, serve_routed, serve_routed_sharded, BatchModel, FaultBurst,
    FaultKind, FaultPlan, Fifo, HedgePolicy, LifecycleConfig, PipelineSpec, ReplicaGroup,
    ResilienceConfig, RetryBudget, RetryPolicy, RoundRobin, SimResult, StageSpec,
};

use crate::trace::Tracer;
use crate::{Args, Checks, Metric, Modeled};

/// Below the simulator's 2^20-query streaming threshold.
const QUERIES: usize = 1_000_000;
const REPLICAS: usize = 4;
/// The rank fleet, which the faults hit.
const RANK_GROUP: usize = 1;

struct State {
    spec: PipelineSpec,
    arrivals: TraceArrivals,
    lifecycle: LifecycleConfig,
    resilience: ResilienceConfig,
    fault_events: usize,
}

fn setup(seed: u64, t: &mut Tracer) -> State {
    let plan = FaultPlan::new(seed)
        .burst(FaultBurst {
            time: 200.0,
            kind: FaultKind::Degrade { speed: 0.3 },
            count: 2,
            recover_after_s: Some(20.0),
        })
        .burst(FaultBurst {
            time: 600.0,
            kind: FaultKind::FailStop,
            count: 1,
            recover_after_s: Some(10.0),
        });
    let schedule = plan.expand(REPLICAS);
    let fault_events = schedule.events().len();
    let spec = PipelineSpec::new(vec![
        ReplicaGroup::replicated("filter", 1, REPLICAS),
        ReplicaGroup::replicated("rank", 1, REPLICAS),
    ])
    .with_group_lifecycle(RANK_GROUP, schedule)
    .with_stage(StageSpec::new("filter", 0, 1, 0.002).with_batch(BatchModel::new(8, 0.25)))
    .expect("valid filter stage")
    .with_stage(StageSpec::new("rank", 1, 1, 0.004).with_batch(BatchModel::new(8, 0.25)))
    .expect("valid rank stage");
    // Quiet at 60% and surging to 140% of the per-query capacity;
    // batching absorbs the surges.
    let capacity = spec.max_qps();
    let bursty = MmppArrivals::new(0.6 * capacity, 1.4 * capacity, 2.0, 0.5);
    let arrivals = t.call("data.trace_build", || {
        TraceArrivals::new(bursty.times(QUERIES, seed))
    });
    let resilience = ResilienceConfig::new()
        .with_timeout(0.060)
        .with_retry(RetryPolicy::new(3, 0.010, 2.0).with_budget(RetryBudget::new(100.0, 0.1)))
        .with_hedge(HedgePolicy::at_quantile(0.95));
    State {
        spec,
        arrivals,
        lifecycle: LifecycleConfig::new().with_window(1.0),
        resilience,
        fault_events,
    }
}

fn run_with(state: &State, seed: u64, resilience: &ResilienceConfig) -> SimResult {
    serve_resilient(
        &state.spec,
        &state.arrivals,
        &Fifo,
        &RoundRobin,
        QUERIES,
        seed,
        &state.lifecycle,
        resilience,
    )
    .expect("every fault recovers, so no query is stranded")
}

/// Checks one armed run and reads its modeled outputs; every query
/// offered is one attempted unit.
fn check(out: &SimResult, checks: &mut Checks) -> (u64, Modeled) {
    let stats = out.resilience.clone().unwrap_or_default();
    checks.ledger(
        "completed + shed + dropped + timed out",
        QUERIES,
        out.completed + out.shed + out.dropped + stats.timed_out,
    );
    checks.ledger(
        "timeouts against retries + timed out",
        stats.timeouts,
        stats.total_retries() + stats.timed_out,
    );
    let exercised = [
        ("timeouts", stats.timeouts),
        ("retries", stats.total_retries()),
        ("budget denials", stats.retries_denied),
        ("hedge wins", stats.hedges_won),
    ];
    for (what, n) in exercised {
        checks.expect(n > 0, 1, || format!("the gray run recorded no {what}"));
    }
    // A single unlabeled path: every completion counts at unit
    // quality, so goodput is the completion rate.
    (QUERIES as u64, Modeled::of(out, QUERIES, 1.0, out.qps))
}

pub fn run(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let seed = args.seed;
    if !args.trace {
        return crate::untraced(
            args,
            checks,
            || setup(seed, &mut Tracer::off()),
            |state| run_with(state, seed, &state.resilience),
            |_, out, checks| check(out, checks),
        );
    }

    // Ablation ladders on identical inputs. Shard: the plain routed loop
    // (which ignores the fault schedule), and the same run sharded by
    // stage on one worker and on every core — all three bit-identical.
    // Resilience: the routed loop, plus lifecycle, plus an inert
    // resilience runtime (which must equal the lifecycle-only run), plus
    // the armed one.
    crate::traced_reps(args, |tracer, layers| {
        let (state, routed, sharded, lifecycle, mut inert, (full, traced_s)) =
            tracer.request("gray.run", layers.reps, |t| {
                let state = setup(seed, t);
                let routed = t.call("shard.serial", || {
                    serve_routed(
                        &state.spec,
                        &state.arrivals,
                        &Fifo,
                        &RoundRobin,
                        QUERIES,
                        seed,
                    )
                });
                let sharded =
                    [("shard.one_worker", 1), ("shard.nproc", 0)].map(|(name, workers)| {
                        t.call(name, || {
                            serve_routed_sharded(
                                &state.spec,
                                &state.arrivals,
                                &Fifo,
                                &RoundRobin,
                                QUERIES,
                                seed,
                                workers,
                            )
                        })
                    });
                let lifecycle = t.call("ladder.lifecycle", || {
                    serve_lifecycle(
                        &state.spec,
                        &state.arrivals,
                        &Fifo,
                        &RoundRobin,
                        QUERIES,
                        seed,
                        &state.lifecycle,
                    )
                    .expect("every fault recovers, so no query is stranded")
                });
                let inert = t.call("ladder.inert", || {
                    run_with(&state, seed, &ResilienceConfig::new())
                });
                let full = crate::timed(|| {
                    t.call("qsim.serve_resilient", || {
                        run_with(&state, seed, &state.resilience)
                    })
                });
                (state, routed, sharded, lifecycle, inert, full)
            });
        let (reference, plain_s) = crate::timed(|| run_with(&state, seed, &state.resilience));

        checks.attempted += QUERIES as u64;
        check(&full, checks);
        checks.expect(reference == full, QUERIES as u64, || {
            "the traced gray run differs from the untraced one".into()
        });
        for (name, out) in ["one-worker", "all-core"].iter().zip(&sharded) {
            checks.expect(*out == routed, QUERIES as u64, || {
                format!("the {name} sharded run differs from the serial routed run")
            });
        }
        let inert_stats = inert.resilience.take().unwrap_or_default();
        checks.expect(
            inert_stats.timeouts == 0 && inert_stats.hedges_issued == 0 && inert == lifecycle,
            QUERIES as u64,
            || "the inert resilient run differs from the lifecycle-only run".into(),
        );

        let stats = full.resilience.clone().unwrap_or_default();
        layers.qsim_sim_queries += QUERIES as u64;
        layers.qsim_batch_sum += full.mean_batch;
        layers.lifecycle_events += state.fault_events as u64;
        layers.lifecycle_windows += full.windows.len() as u64;
        layers.res_offered += QUERIES as u64;
        layers.res_timeouts += stats.timeouts as u64;
        layers.res_retries += stats.total_retries() as u64;
        layers.res_denied += stats.retries_denied as u64;
        layers.res_hedges += stats.hedges_issued as u64;
        layers.res_hedges_won += stats.hedges_won as u64;
        layers.res_wasted_s += stats.wasted_service_s;
        (traced_s, plain_s)
    })
}
