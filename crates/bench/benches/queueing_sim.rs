//! Criterion bench: the discrete-event queueing simulator — the backbone
//! of every at-scale experiment — in its legacy per-query form, the
//! batching-aware v2 serving core, the v3 cluster-of-replicas loop, and
//! the scheduler's cluster sweep under full vs successive-halving
//! budgets.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recpipe_core::{Backend, FleetSpec, Scheduler, SchedulerSettings, SweepBudget};
use recpipe_data::{DiurnalArrivals, MmppArrivals, PoissonArrivals, TraceArrivals};
use recpipe_hwsim::{CpuModel, PcieModel};
use recpipe_qsim::{
    BatchModel, BatchWindow, ExpectedWait, HedgePolicy, JoinShortestQueue, LeastWorkLeft,
    LifecycleConfig, LifecycleEvent, LifecycleSchedule, LoadAdaptive, PathSet, PipelineSpec,
    PowerOfTwoChoices, ReplicaGroup, ReplicaProfile, ResilienceConfig, RetryBudget, RetryPolicy,
    RoundRobin, Router, Scenario, StageSpec,
};

fn two_stage() -> PipelineSpec {
    PipelineSpec::new(vec![
        ReplicaGroup::new("cpu", 64),
        ReplicaGroup::new("gpu", 1),
    ])
    .with_stage(StageSpec::new("front", 1, 1, 0.0012))
    .unwrap()
    .with_stage(StageSpec::new("back", 0, 2, 0.008))
    .unwrap()
}

fn bench_qsim(c: &mut Criterion) {
    let spec = two_stage();
    let mut group = c.benchmark_group("qsim");
    for &queries in &[1_000usize, 10_000] {
        group.bench_function(format!("two_stage_{queries}q"), |b| {
            b.iter(|| black_box(spec.simulate(black_box(300.0), queries, 7)))
        });
    }
    group.finish();
}

fn bench_qsim_v2(c: &mut Criterion) {
    // The v2 serving core with everything turned on: batched stages,
    // bursty MMPP arrivals, and a batch-window policy (timer events,
    // priority queues, batch formation).
    let spec = PipelineSpec::new(vec![
        ReplicaGroup::new("cpu", 64),
        ReplicaGroup::new("gpu", 1),
    ])
    .with_stage(StageSpec::new("front", 1, 1, 0.0012).with_batch(BatchModel::new(16, 0.15)))
    .unwrap()
    .with_stage(StageSpec::new("back", 0, 2, 0.008).with_batch(BatchModel::new(8, 0.8)))
    .unwrap();
    let arrivals = MmppArrivals::new(100.0, 900.0, 0.4, 0.1);
    let policy = BatchWindow::new(0.002);

    let mut group = c.benchmark_group("qsim_v2");
    for &queries in &[1_000usize, 10_000] {
        group.bench_function(format!("batched_mmpp_window_{queries}q"), |b| {
            b.iter(|| {
                black_box(
                    Scenario::new(&spec, &arrivals, queries, 7)
                        .policy(&policy)
                        .run()
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_qsim_cluster(c: &mut Criterion) {
    // The v3 cluster loop: a 4-replica mixed-job-size fleet at rho =
    // 0.9, one bench per router — the per-decision cost of oblivious
    // cycling vs full queue inspection vs two-probe sampling.
    let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, 4)])
        .with_stage(StageSpec::new("front", 0, 1, 0.002))
        .unwrap()
        .with_stage(StageSpec::new("back", 0, 1, 0.010))
        .unwrap();
    let arrivals = PoissonArrivals::new(0.9 * spec.max_qps());

    let mut group = c.benchmark_group("qsim_cluster");
    let routers: [(&str, &dyn Router); 4] = [
        ("round_robin", &RoundRobin),
        ("jsq", &JoinShortestQueue),
        ("po2", &PowerOfTwoChoices),
        ("least_work", &LeastWorkLeft),
    ];
    for (name, router) in routers {
        group.bench_function(format!("routed_10000q/{name}"), |b| {
            b.iter(|| {
                black_box(
                    Scenario::new(&spec, &arrivals, 10_000, 7)
                        .router(router)
                        .run()
                        .unwrap(),
                )
            })
        });
    }

    // The heterogeneous-fleet loop: a two-generation fleet (2 current
    // replicas + 2 at 40% speed) at rho = 0.9 of the weighted
    // capacity, routed by the speed-aware expected-wait estimator vs
    // JSQ — the per-decision cost of the remaining-work probe on top
    // of the per-replica speed bookkeeping.
    let two_gen = PipelineSpec::new(vec![ReplicaGroup::heterogeneous(
        "worker",
        vec![
            ReplicaProfile::baseline(1),
            ReplicaProfile::baseline(1),
            ReplicaProfile::new(1, 0.4),
            ReplicaProfile::new(1, 0.4),
        ],
    )])
    .with_stage(StageSpec::new("front", 0, 1, 0.002))
    .unwrap()
    .with_stage(StageSpec::new("back", 0, 1, 0.010))
    .unwrap();
    let hetero_arrivals = PoissonArrivals::new(0.9 * two_gen.max_qps());
    let hetero_routers: [(&str, &dyn Router); 2] = [
        ("jsq", &JoinShortestQueue),
        ("expected_wait", &ExpectedWait),
    ];
    for (name, router) in hetero_routers {
        group.bench_function(format!("two_gen_10000q/{name}"), |b| {
            b.iter(|| {
                black_box(
                    Scenario::new(&two_gen, &hetero_arrivals, 10_000, 7)
                        .router(router)
                        .run()
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_qsim_scale(c: &mut Criterion) {
    // The v7 scale path: a 10M-query recorded-trace replay through a
    // two-backend pipeline, sharded one thread per stage — streamed
    // arrivals, gated estimator bookkeeping, completion-time recording
    // into the folded histogram. This is the headline number the
    // sharded loop exists for; bench_smoke holds it to a single-digit
    // machine-normalized second budget.
    let filter = ReplicaGroup::heterogeneous(
        "filter",
        vec![
            ReplicaProfile::baseline(1),
            ReplicaProfile::baseline(1),
            ReplicaProfile::new(1, 0.6),
            ReplicaProfile::new(1, 0.6),
        ],
    );
    let rank = ReplicaGroup::replicated("rank", 1, 4);
    let spec = PipelineSpec::new(vec![filter, rank])
        .with_stage(StageSpec::new("filter", 0, 1, 0.002).with_batch(BatchModel::new(8, 0.25)))
        .unwrap()
        .with_stage(StageSpec::new("rank", 1, 1, 0.001).with_batch(BatchModel::new(8, 0.25)))
        .unwrap();
    // A deterministic synthetic "recorded" day of traffic: 100k
    // arrivals with pseudo-random gaps, tiled by the replay.
    let mut z = 42u64;
    let mut t = 0.0f64;
    let times: Vec<f64> = (0..100_000)
        .map(|_| {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t += ((z >> 33) as f64 / (1u64 << 31) as f64) * 2e-3;
            t
        })
        .collect();
    let trace = TraceArrivals::new(times).with_rate(0.7 * spec.max_qps_at_full_batch());

    let mut group = c.benchmark_group("qsim_scale");
    group.bench_function("trace_replay_10M", |b| {
        b.iter(|| {
            black_box(
                Scenario::new(&spec, &trace, 10_000_000, 7)
                    .workers(0)
                    .run()
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_qsim_lifecycle(c: &mut Criterion) {
    // The lifecycle-aware loop: a diurnal rate swing with a fail-stop
    // and recovery mid-climb, windowed telemetry on — the per-event
    // cost of availability masking, the generation counters, and the
    // window-boundary bookkeeping on top of the routed loop.
    let failures = LifecycleSchedule::empty()
        .with_event(LifecycleEvent::fail_stop(8.0, 0))
        .with_event(LifecycleEvent::recover(12.0, 0));
    let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 4, 6)])
        .with_group_lifecycle(0, failures)
        .with_stage(StageSpec::new("rank", 0, 1, 0.02))
        .unwrap();
    let arrivals = DiurnalArrivals::new(100.0, 900.0, 60.0);
    let cfg = LifecycleConfig::new().with_window(2.0);

    let mut group = c.benchmark_group("qsim_lifecycle");
    group.bench_function("diurnal_failures_10000q", |b| {
        b.iter(|| {
            black_box(
                Scenario::new(&spec, &arrivals, 10_000, 7)
                    .router(&JoinShortestQueue)
                    .lifecycle(&cfg)
                    .run()
                    .expect("replica 0 recovers, so the run cannot strand work"),
            )
        })
    });
    group.finish();
}

fn bench_qsim_multipath(c: &mut Criterion) {
    // The v8 multi-path admission loop under brown-out: a three-path
    // degradation ladder over one shared fleet, offered 1.5x the
    // primary path's capacity, with the load-adaptive policy walking
    // the ladder — the per-arrival cost of the admission probe, the
    // path-entry redirect, and the per-path accounting on top of the
    // routed loop.
    let paths = PathSet::new(vec![ReplicaGroup::replicated("worker", 8, 1)])
        .with_path("full", 1.00, vec![StageSpec::new("rm-large", 0, 1, 0.010)])
        .unwrap()
        .with_path("mid", 0.92, vec![StageSpec::new("rm-med", 0, 1, 0.004)])
        .unwrap()
        .with_path("lite", 0.80, vec![StageSpec::new("rm-small", 0, 1, 0.0015)])
        .unwrap();
    let arrivals = PoissonArrivals::new(1_200.0);
    let admission = LoadAdaptive::new(1.5, 0.75);
    let cfg = LifecycleConfig::new();

    let mut group = c.benchmark_group("qsim_multipath");
    group.bench_function("brownout_ladder3_10000q", |b| {
        b.iter(|| {
            black_box(
                Scenario::multipath(&paths, &admission, &arrivals, 10_000, 7)
                    .router(&JoinShortestQueue)
                    .lifecycle(&cfg)
                    .run()
                    .expect("no lifecycle schedule, so the run cannot strand work"),
            )
        })
    });
    group.finish();
}

fn bench_qsim_resilience(c: &mut Criterion) {
    // The v9 resilience loop on a gray-failing fleet: one of four
    // replicas limps at 25% speed from t = 0 while round-robin keeps
    // feeding it, with the full client-side defense stack armed — a
    // 250 ms timeout, budgeted 2-retry backoff, and a 30 ms hedge —
    // the per-event cost of timeout arming, lane bookkeeping, carcass
    // discard, and hedge dispatch on top of the routed loop.
    let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, 4)])
        .with_group_lifecycle(
            0,
            LifecycleSchedule::empty().with_event(LifecycleEvent::degrade(0.0, 0, 0.25)),
        )
        .with_stage(StageSpec::new("rank", 0, 1, 0.010))
        .unwrap();
    let arrivals = PoissonArrivals::new(150.0);
    let cfg = LifecycleConfig::new();
    let resilience = ResilienceConfig::new()
        .with_timeout(0.250)
        .with_retry(RetryPolicy::new(3, 0.020, 2.0).with_budget(RetryBudget::new(50.0, 0.1)))
        .with_hedge(HedgePolicy::after(0.030));

    let mut group = c.benchmark_group("qsim_resilience");
    group.bench_function("hedged_limp_10000q", |b| {
        b.iter(|| {
            black_box(
                Scenario::new(&spec, &arrivals, 10_000, 7)
                    .lifecycle(&cfg)
                    .resilience(&resilience)
                    .run()
                    .expect("degrades never strand work"),
            )
        })
    });
    group.finish();
}

fn bench_cluster_sweep(c: &mut Criterion) {
    // The scheduler's replica-grid sweep: the cross product that
    // motivated budget pruning. One worker isolates simulation work
    // from thread-pool scheduling; minimal quality sampling keeps the
    // focus on the queueing simulations the budgets control.
    let mut settings = SchedulerSettings::quick();
    settings.quality_queries = 5;
    settings.sim_queries = 6_000;
    settings.fleet_options = [1, 2, 4].map(FleetSpec::uniform).to_vec();
    settings.workers = Some(1);
    let pool: Vec<Arc<dyn Backend>> = vec![Arc::new(CpuModel::cascade_lake())];
    let interconnect = PcieModel::measured();

    let mut group = c.benchmark_group("sweep");
    let full = Scheduler::new(settings.clone());
    group.bench_function("replica_grid/full", |b| {
        b.iter(|| {
            black_box(full.explore_pool(black_box(2_000.0), 2, &pool, 1, None, &interconnect))
        })
    });
    settings.sweep_budget = SweepBudget::halving(settings.sim_queries);
    let halving = Scheduler::new(settings);
    group.bench_function("replica_grid/halving", |b| {
        b.iter(|| {
            black_box(halving.explore_pool(black_box(2_000.0), 2, &pool, 1, None, &interconnect))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_qsim,
    bench_qsim_v2,
    bench_qsim_cluster,
    bench_qsim_scale,
    bench_qsim_lifecycle,
    bench_qsim_multipath,
    bench_qsim_resilience,
    bench_cluster_sweep
);
criterion_main!(benches);
