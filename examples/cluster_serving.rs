//! Cluster-of-replicas serving: replicated backends behind pluggable
//! routers, heterogeneous replica fleets, and a scheduler sweep that
//! co-optimizes fleet generation mixes.
//!
//! The paper's datacenter-scale story serves millions of users across
//! fleets of CPUs and accelerators — and real fleets mix machine
//! generations (MP-Rec's case for heterogeneous execution paths). This
//! example scales the two-stage Criteo pipeline out instead of up:
//!
//! * a 4-replica GPU fleet absorbs an offered load that saturates the
//!   single-pool engine;
//! * routers split the same traffic on a uniform fleet — oblivious
//!   round-robin, full-information join-shortest-queue,
//!   power-of-two-choices sampling, and free-unit-driven
//!   least-work-left — and the tail shows what replica-state awareness
//!   buys;
//! * a *two-generation* fleet (2 current boxes + 2 previous-generation
//!   at 40% speed) re-races the routers plus the speed-aware
//!   `ExpectedWait` and affinity `Sticky` entries: query counts and
//!   free units are blind to replica speed, so expected wait (remaining
//!   work / speed) wins the tail;
//! * the same routers race on a *batched* fleet, where `LeastWorkLeft`
//!   forms the deepest steady-state batches — and JSQ's queue-length
//!   signal still wins the uniform-fleet tail;
//! * a fleet-option sweep produces a three-objective Pareto front:
//!   quality vs p99 vs *profile-weighted* fleet cost — old boxes price
//!   at their speed, so mixed-generation clusters survive between the
//!   small and large uniform ones.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example cluster_serving
//! ```

use recpipe::core::{Engine, PipelineConfig, Placement, StageConfig, Table};
use recpipe::data::PoissonArrivals;
use recpipe::models::ModelKind;
use recpipe::qsim::{
    BatchModel, BatchWindow, ExpectedWait, JoinShortestQueue, LeastWorkLeft, PipelineSpec,
    PowerOfTwoChoices, ReplicaGroup, ReplicaProfile, RoundRobin, Router, Scenario, StageSpec,
    Sticky,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipeline = PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
        .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
        .build()?;

    // --- Scale-out: one GPU vs a 4-replica GPU fleet -----------------
    let single = Engine::commodity(pipeline.clone())
        .placement(Placement::gpu_only(2))
        .quality_queries(100)
        .build()?;
    let fleet = Engine::commodity(pipeline.clone())
        .placement(Placement::gpu_only(2))
        .replicas(1, 4)
        .quality_queries(100)
        .build()?;
    let overload = single.max_qps() * 2.0;
    println!(
        "Single {} capacity: {:.0} QPS; fleet {} capacity: {:.0} QPS; offered: {:.0} QPS",
        single.placement().describe(single.backends()),
        single.max_qps(),
        fleet.placement().describe(fleet.backends()),
        fleet.max_qps(),
        overload,
    );
    let arrivals = PoissonArrivals::new(overload);
    let alone = single.scenario(&arrivals, 8_000).run()?;
    println!(
        "  single pool: saturated = {}, achieved {:.0} QPS\n",
        alone.saturated, alone.qps
    );

    // --- Router comparison on a uniform mixed-job-size fleet ---------
    // Short frontend + 5x backend on one replicated worker fleet at
    // rho = 0.9: the scenario where replica-state awareness pays.
    let mixed = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, 4)])
        .with_stage(StageSpec::new("front", 0, 1, 0.002))?
        .with_stage(StageSpec::new("back", 0, 1, 0.010))?;
    let qps = 0.9 * mixed.max_qps();
    let hot = PoissonArrivals::new(qps);
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(RoundRobin),
        Box::new(PowerOfTwoChoices),
        Box::new(JoinShortestQueue),
        Box::new(LeastWorkLeft),
    ];
    let mut table = Table::new(vec!["router", "p50 (ms)", "p99 (ms)", "QPS", "imbalance"]);
    println!(
        "Router comparison: 4-replica worker fleet, mixed 2 ms/10 ms stages, rho = 0.9 ({qps:.0} QPS)"
    );
    for router in &routers {
        let mut out = Scenario::new(&mixed, &hot, 20_000, 7)
            .router(router.as_ref())
            .run()?;
        table.row(vec![
            router.name(),
            format!("{:.2}", out.p50_seconds() * 1e3),
            format!("{:.2}", out.p99_seconds() * 1e3),
            format!("{:.0}", out.qps),
            format!("{:.3}", out.replica_imbalance()),
        ]);
    }
    println!("{table}");

    // --- Two-generation fleet: speed-aware routing ------------------
    // 2 current-generation replicas plus 2 previous-generation ones at
    // 40% speed, same stage pair, rho = 0.9 of the *weighted* capacity.
    // JSQ's query count and least-work's free units are blind to the
    // generation gap: a 2-query backlog on an old box outlasts a
    // 3-query backlog on a new one. ExpectedWait (remaining work /
    // speed) sees it; Sticky shows what pinning a query to its first
    // replica costs when speeds differ.
    let two_gen = PipelineSpec::new(vec![ReplicaGroup::heterogeneous(
        "worker",
        vec![
            ReplicaProfile::baseline(1),
            ReplicaProfile::baseline(1),
            ReplicaProfile::new(1, 0.4),
            ReplicaProfile::new(1, 0.4),
        ],
    )])
    .with_stage(StageSpec::new("front", 0, 1, 0.002))?
    .with_stage(StageSpec::new("back", 0, 1, 0.010))?;
    let qps = 0.9 * two_gen.max_qps();
    let hot = PoissonArrivals::new(qps);
    let hetero_routers: Vec<Box<dyn Router>> = vec![
        Box::new(RoundRobin),
        Box::new(JoinShortestQueue),
        Box::new(LeastWorkLeft),
        Box::new(Sticky),
        Box::new(ExpectedWait),
    ];
    let mut table = Table::new(vec!["router", "p50 (ms)", "p99 (ms)", "QPS"]);
    println!(
        "Two-generation fleet: 2 replicas @1.0 + 2 @0.4 (weighted capacity {:.0} QPS), \
         rho = 0.9 ({qps:.0} QPS)",
        two_gen.max_qps()
    );
    let mut jsq_p99 = f64::NAN;
    let mut ew_p99 = f64::NAN;
    for router in &hetero_routers {
        let mut out = Scenario::new(&two_gen, &hot, 20_000, 7)
            .router(router.as_ref())
            .run()?;
        if router.name() == "jsq" {
            jsq_p99 = out.p99_seconds();
        }
        if router.name() == "expected-wait" {
            ew_p99 = out.p99_seconds();
        }
        table.row(vec![
            router.name(),
            format!("{:.2}", out.p50_seconds() * 1e3),
            format!("{:.2}", out.p99_seconds() * 1e3),
            format!("{:.0}", out.qps),
        ]);
    }
    println!("{table}");
    println!(
        "  expected-wait cuts jsq's p99 by {:.0}% on the mixed generations\n",
        100.0 * (1.0 - ew_p99 / jsq_p99)
    );

    // --- Batched fleet: free-unit routing vs query counts -----------
    // Four 2-unit replicas serving a batched ranking stage behind a
    // 2 ms batch window. A replica with many queries riding one batch
    // frees them all at once, so JSQ's outstanding-query count
    // overrates its load; `LeastWorkLeft` reads the units actually
    // held instead, funneling arrivals toward startable replicas (and
    // into deeper batches); `Sticky` tracks its JSQ fallback here (the
    // rerank stage is unbatched — its batch-mate cohesion shows up
    // under bursty traffic, pinned in the qsim test suite).
    let batched = PipelineSpec::new(vec![ReplicaGroup::replicated("gpu", 2, 4)])
        .with_stage(StageSpec::new("rank", 0, 1, 0.004).with_batch(BatchModel::new(8, 0.2)))?
        .with_stage(StageSpec::new("rerank", 0, 2, 0.006))?;
    let qps = 0.85 * batched.max_qps();
    let window = BatchWindow::new(0.002);
    let busy = PoissonArrivals::new(qps);
    let batched_routers: Vec<Box<dyn Router>> = vec![
        Box::new(RoundRobin),
        Box::new(PowerOfTwoChoices),
        Box::new(JoinShortestQueue),
        Box::new(LeastWorkLeft),
        Box::new(Sticky),
        Box::new(ExpectedWait),
    ];
    let mut table = Table::new(vec!["router", "p50 (ms)", "p99 (ms)", "mean batch"]);
    println!(
        "Batched-fleet comparison: 4x2-unit replicas, batch-8 rank + 2-unit rerank, \
         2 ms window, rho = 0.85 ({qps:.0} QPS)"
    );
    for router in &batched_routers {
        let mut out = Scenario::new(&batched, &busy, 20_000, 7)
            .policy(&window)
            .router(router.as_ref())
            .run()?;
        table.row(vec![
            router.name(),
            format!("{:.2}", out.p50_seconds() * 1e3),
            format!("{:.2}", out.p99_seconds() * 1e3),
            format!("{:.2}", out.mean_batch),
        ]);
    }
    println!("{table}");

    // --- Fleet-option sweep: quality vs p99 vs weighted cost ---------
    // The scheduler crosses whole generation mixes per backend: one
    // current box, two current boxes, or one current + one
    // previous-generation at 60% speed (cost 1.6). Priced exhaustively
    // and with the successive-halving budget.
    use recpipe::core::{FleetSpec, Scheduler, SchedulerSettings, SweepBudget};
    use recpipe::hwsim::CpuModel;
    use std::sync::Arc;

    let mut settings = SchedulerSettings::quick();
    settings.fleet_options = vec![
        FleetSpec::uniform(1),
        FleetSpec::uniform(2),
        FleetSpec::mixed(&[(1, 1.0), (1, 0.6)]),
    ];
    settings.max_stages = 2;
    let pool: Vec<Arc<dyn recpipe::core::Backend>> = vec![Arc::new(CpuModel::cascade_lake())];
    let load = 8_000.0;
    let (full_points, full_stats) =
        Scheduler::new(settings.clone()).explore_pool(load, 2, &pool, 1, None);
    settings.sweep_budget = SweepBudget::halving(settings.sim_queries);
    let (halved_points, halved_stats) =
        Scheduler::new(settings).explore_pool(load, 2, &pool, 1, None);

    let front = Scheduler::pareto_with_cost(full_points);
    let halved_front = Scheduler::pareto_with_cost(halved_points);
    let mut pareto = Table::new(vec![
        "pipeline",
        "mapping",
        "fleet cost",
        "NDCG %",
        "p99 (ms)",
    ]);
    for p in front.iter() {
        pareto.row(vec![
            p.pipeline.describe(),
            p.mapping.clone(),
            format!("{:.1}", p.fleet_cost),
            format!("{:.2}", p.ndcg_percent()),
            format!("{:.2}", p.p99_ms()),
        ]);
    }
    println!("Fleet-aware Pareto front at {load:.0} QPS (quality x p99 x weighted fleet cost):");
    println!("{pareto}");
    let mixed_points = front.iter().filter(|p| p.mapping.contains('@')).count();
    println!(
        "Sweep budget: full = {} simulated queries over {} candidates; successive halving = {} \
         ({:.0}% of full) recovering {}/{} front points; {mixed_points} mixed-generation \
         cluster(s) on the front",
        full_stats.simulated_queries,
        full_stats.candidates,
        halved_stats.simulated_queries,
        100.0 * halved_stats.simulated_queries as f64 / full_stats.simulated_queries as f64,
        halved_front
            .iter()
            .filter(|p| front.points().contains(p))
            .count(),
        front.len(),
    );
    println!("Reading the results:");
    println!(
        "  - replication turns a saturating single pool into a stable fleet at the same load;"
    );
    println!("  - on the uniform fleet, JSQ routes around replicas grinding long backend");
    println!("    queries and d=2 sampling recovers most of its tail win with two probes;");
    println!("  - on the two-generation fleet, query counts and free units are blind to");
    println!("    replica speed: expected-wait (remaining work / speed) routes around the");
    println!("    old generation's long drains and beats JSQ's p99 outright;");
    println!("  - on the batched fleet, least-work-left's free-unit signal forms the deepest");
    println!("    steady-state batches, yet JSQ keeps the uniform-fleet tail win — queue");
    println!("    length stays the better latency signal when every replica drains at the");
    println!("    same rate;");
    println!("  - the weighted cost axis keeps mixed-generation clusters on the front: a");
    println!("    1.0+0.6 fleet (cost 1.6) lands between one and two current-generation");
    println!("    boxes on both price and tail latency;");
    println!("  - the halving budget prunes the fleet cross product for roughly half the");
    println!("    simulation cost while keeping the full-budget Pareto placements.");
    Ok(())
}
