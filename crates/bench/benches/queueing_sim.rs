//! Criterion bench: the discrete-event queueing simulator — the backbone
//! of every at-scale experiment — in its legacy per-query form, the
//! batching-aware v2 serving core, the v3 cluster-of-replicas loop, and
//! the scheduler's cluster sweep under full vs successive-halving
//! budgets. The scenarios `bench_smoke` gates are built by the
//! `recpipe_bench` library, so the two time the same runs.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recpipe_core::{Backend, FleetSpec, Scheduler, SchedulerSettings, SweepBudget};
use recpipe_data::MmppArrivals;
use recpipe_hwsim::CpuModel;
use recpipe_qsim::{
    BatchModel, BatchWindow, ExpectedWait, JoinShortestQueue, LeastWorkLeft, PipelineSpec,
    PowerOfTwoChoices, ReplicaGroup, RoundRobin, Router, Scenario, SimResult, StageSpec,
};

fn bench_qsim(c: &mut Criterion) {
    let run = recpipe_bench::two_stage();
    let mut group = c.benchmark_group("qsim");
    for &queries in &[1_000usize, 10_000] {
        group.bench_function(format!("two_stage_{queries}q"), |b| {
            b.iter(|| black_box(run(black_box(queries))))
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
    let mut group = c.benchmark_group("qsim_cluster");
    let run = recpipe_bench::routed_fleet();
    let routers: [(&str, &dyn Router); 4] = [
        ("round_robin", &RoundRobin),
        ("jsq", &JoinShortestQueue),
        ("po2", &PowerOfTwoChoices),
        ("least_work", &LeastWorkLeft),
    ];
    for (name, router) in routers {
        group.bench_function(format!("routed_10000q/{name}"), |b| {
            b.iter(|| black_box(run(router)))
        });
    }
    let run = recpipe_bench::two_gen_fleet();
    let routers: [(&str, &dyn Router); 2] = [
        ("jsq", &JoinShortestQueue),
        ("expected_wait", &ExpectedWait),
    ];
    for (name, router) in routers {
        group.bench_function(format!("two_gen_10000q/{name}"), |b| {
            b.iter(|| black_box(run(router)))
        });
    }
    group.finish();
}

fn bench_qsim_runtimes(c: &mut Criterion) {
    // The 10M-query sharded trace replay, then the lifecycle, multi-path
    // and resilience loops; `bench_smoke` holds the replay to a
    // single-digit machine-normalized second budget.
    let mut bench = |name: &str, run: &dyn Fn() -> SimResult| {
        c.bench_function(name, |b| b.iter(|| black_box(run())));
    };
    bench(
        "qsim_scale/trace_replay_10M",
        &recpipe_bench::trace_replay_10m(),
    );
    bench(
        "qsim_lifecycle/diurnal_failures_10000q",
        &recpipe_bench::diurnal_failures(),
    );
    bench(
        "qsim_multipath/brownout_ladder3_10000q",
        &recpipe_bench::brownout_ladder(),
    );
    bench(
        "qsim_resilience/hedged_limp_10000q",
        &recpipe_bench::hedged_limp(),
    );
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

    let mut group = c.benchmark_group("sweep");
    let full = Scheduler::new(settings.clone());
    group.bench_function("replica_grid/full", |b| {
        b.iter(|| black_box(full.explore_pool(black_box(2_000.0), 2, &pool, 1, None)))
    });
    settings.sweep_budget = SweepBudget::halving(settings.sim_queries);
    let halving = Scheduler::new(settings);
    group.bench_function("replica_grid/halving", |b| {
        b.iter(|| black_box(halving.explore_pool(black_box(2_000.0), 2, &pool, 1, None)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_qsim,
    bench_qsim_v2,
    bench_qsim_cluster,
    bench_qsim_runtimes,
    bench_cluster_sweep
);
criterion_main!(benches);
