//! End-to-end integration tests spanning every crate: the `Engine` API
//! driving quality and performance of full pipelines on all three
//! hardware targets.

use recpipe::accel::Partition;
use recpipe::core::{Engine, PipelineConfig, Placement, Scheduler, SchedulerSettings, StageConfig};
use recpipe::data::DatasetKind;
use recpipe::models::ModelKind;

fn single_stage(items: u64) -> PipelineConfig {
    PipelineConfig::single_stage(ModelKind::RmLarge, items, 64).unwrap()
}

fn two_stage(mid: u64) -> PipelineConfig {
    PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, mid))
        .stage(StageConfig::new(ModelKind::RmLarge, mid, 64))
        .build()
        .unwrap()
}

fn cpu_engine(pipeline: PipelineConfig, qps: f64) -> Engine {
    let stages = pipeline.num_stages();
    Engine::commodity(pipeline)
        .placement(Placement::cpu_only(stages))
        .load(qps)
        .quality_queries(200)
        .sim_queries(2_000)
        .build()
        .expect("valid CPU engine")
}

#[test]
fn paper_headline_multi_stage_is_iso_quality_and_much_faster_on_cpu() {
    // The paper's central claim (Figure 1, Section 5.1): decomposing the
    // monolith maintains quality while cutting tail latency ~4x on CPUs.
    let single = cpu_engine(single_stage(4096), 500.0).evaluate();
    let multi = cpu_engine(two_stage(256), 500.0).evaluate();

    assert!(
        (single.ndcg - multi.ndcg).abs() < 0.01,
        "iso-quality violated: {} vs {}",
        single.ndcg,
        multi.ndcg
    );
    let speedup = single.p99_s / multi.p99_s;
    assert!(
        (2.5..8.0).contains(&speedup),
        "CPU multi-stage speedup {speedup}"
    );
}

#[test]
fn accelerator_beats_both_commodity_platforms_at_iso_quality() {
    let pipeline = two_stage(512);
    let qps = 200.0;

    let cpu = cpu_engine(pipeline.clone(), qps).evaluate();
    let gpu_front = Engine::commodity(pipeline.clone())
        .placement(Placement::gpu_frontend(2, 1))
        .load(qps)
        .quality_queries(100)
        .sim_queries(2_000)
        .build()
        .unwrap()
        .evaluate();
    let accel = Engine::rpaccel(pipeline, Partition::symmetric(8, 2))
        .load(qps)
        .quality_queries(100)
        .sim_queries(2_000)
        .build()
        .unwrap()
        .evaluate();

    assert!(accel.p99_s < gpu_front.p99_s);
    assert!(accel.p99_s < cpu.p99_s);
}

#[test]
fn figure12_shape_rpaccel_vs_baseline_latency_and_throughput() {
    let multi = two_stage(512);
    let single = single_stage(4096);

    let rp = Engine::rpaccel(multi.clone(), Partition::symmetric(8, 2))
        .quality_queries(50)
        .sim_queries(2_000)
        .build()
        .unwrap();
    let base = Engine::baseline_accel(single.clone())
        .quality_queries(50)
        .sim_queries(2_000)
        .build()
        .unwrap();

    // Latency at moderate load: ~3x (paper) — accept 1.8-8x.
    let latency_gain = base.evaluate_at(200.0).p99_s / rp.evaluate_at(200.0).p99_s;
    assert!(
        (1.8..8.0).contains(&latency_gain),
        "latency gain {latency_gain}"
    );

    // Throughput: find the max stable load of each (paper: ~6x).
    let rp8 = Engine::rpaccel(multi, Partition::symmetric(8, 8))
        .quality_queries(50)
        .sim_queries(2_000)
        .build()
        .unwrap();
    let max_stable = |engine: &Engine| -> f64 {
        let mut qps = 100.0;
        while qps < 20_000.0 && !engine.evaluate_at(qps).saturated {
            qps *= 1.5;
        }
        qps
    };
    let rp_cap = max_stable(&rp8);
    let base_cap = max_stable(&base);
    assert!(
        rp_cap / base_cap >= 2.0,
        "throughput gain {} (rp {rp_cap} vs base {base_cap})",
        rp_cap / base_cap
    );
}

#[test]
fn engine_sweep_end_to_end_finds_multi_stage_winner() {
    let engine = Engine::commodity(two_stage(512))
        .placement(Placement::cpu_only(2))
        .load(400.0)
        .build()
        .unwrap();
    let settings = SchedulerSettings::quick();
    let frontier = engine.sweep(&settings);
    assert!(!frontier.is_empty());

    // A design is at iso-quality when a one-sided 99% paired test puts
    // its NDCG within 0.005 of the best design's. RMmed@4096 single-stage
    // scores about 0.0053 below the best, so at the sweep's 400 queries
    // its point estimate alone falls inside the window at some seeds (the
    // quick settings' 77 among them), while the paired test does not
    // decide it is inside. The evaluator reports means, and query `q`'s
    // draws do not depend on how many queries follow it, so the sweep's
    // own queries pair in 20 blocks of 20, read off the means of longer
    // and longer prefixes.
    use recpipe::core::{Outcome, QualityEvaluator};
    let live = frontier.points().iter().filter(|p| !p.saturated);
    let max_q = live.clone().map(|p| p.ndcg).fold(0.0, f64::max);
    // The designs the point estimates put in the window; the best first.
    let mut window: Vec<&Outcome> = live.filter(|p| p.ndcg >= max_q - 0.005).collect();
    window.sort_by(|a, b| b.ndcg.total_cmp(&a.ndcg));
    let pipelines: Vec<PipelineConfig> = window.iter().map(|p| p.pipeline.clone()).collect();
    let (blocks, size) = (20, settings.quality_queries / 20);
    let prefix_means: Vec<Vec<f64>> = (1..=blocks)
        .map(|k| {
            let reports = QualityEvaluator::for_dataset(settings.dataset, 64)
                .queries(k * size)
                .seed(settings.seed)
                .evaluate_all(&pipelines);
            reports.iter().map(|r| r.ndcg).collect()
        })
        .collect();
    // The longest prefix is the sweep's own sample.
    let swept: Vec<f64> = window.iter().map(|p| p.ndcg).collect();
    assert_eq!(prefix_means[blocks - 1], swept);
    // Block k's mean: (k + 1)·m[k] − k·m[k − 1], prefix means m.
    let block_mean = |design: usize, k: usize| {
        let before = k.checked_sub(1).map_or(0.0, |j| prefix_means[j][design]);
        (k + 1) as f64 * prefix_means[k][design] - k as f64 * before
    };
    let gap_bound = |design: usize| {
        let gaps: Vec<f64> = (0..blocks)
            .map(|k| block_mean(0, k) - block_mean(design, k))
            .collect();
        let mean = gaps.iter().sum::<f64>() / blocks as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (blocks - 1) as f64;
        // Student's t at 99%, one-sided, with 19 degrees of freedom.
        mean + 2.539 * (var / blocks as f64).sqrt()
    };
    let picked = (0..window.len())
        .filter(|&design| gap_bound(design) <= 0.005)
        .map(|design| window[design])
        .min_by(|a, b| a.p99_s.total_cmp(&b.p99_s))
        .expect("the best design is inside its own window");
    assert!(
        picked.pipeline.num_stages() >= 2,
        "picked {}",
        picked.pipeline
    );
}

#[test]
fn quality_and_performance_are_reproducible_across_runs() {
    let build = || cpu_engine(two_stage(256), 300.0);
    let a = build().evaluate();
    let b = build().evaluate();
    assert_eq!(a.ndcg, b.ndcg);
    assert_eq!(a.p99_s, b.p99_s);
    assert_eq!(a, b);
}

#[test]
fn movielens_pipelines_run_end_to_end() {
    for dataset in [DatasetKind::MovieLens1M, DatasetKind::MovieLens20M] {
        let items = if dataset == DatasetKind::MovieLens1M {
            1024
        } else {
            4096
        };
        let pipeline = PipelineConfig::builder()
            .dataset(dataset)
            .stage(StageConfig::new(ModelKind::RmSmall, items, items / 4))
            .stage(StageConfig::new(ModelKind::RmLarge, items / 4, 64))
            .build()
            .unwrap();

        let outcome = Engine::commodity(pipeline)
            .placement(Placement::cpu_only(2))
            .load(100.0)
            .quality_queries(100)
            .sim_queries(1_000)
            .build()
            .unwrap()
            .evaluate();
        assert!(outcome.ndcg > 0.5, "{dataset}: NDCG {}", outcome.ndcg);
        assert!(!outcome.saturated);
        assert!(outcome.p99_s > 0.0);
    }
}

#[test]
fn serving_core_matrix_end_to_end() {
    // The batching-aware serving core across the full stack: commodity
    // hardware with batch curves, bursty arrivals, and every policy.
    use recpipe::data::{ArrivalProcess, MmppArrivals, PoissonArrivals};
    use recpipe::qsim::{BatchWindow, EarliestDeadlineFirst, Fifo, SchedulingPolicy};

    let engine = Engine::commodity(two_stage(256))
        .placement(Placement::gpu_frontend(2, 2))
        .batching(true)
        .quality_queries(20)
        .build()
        .unwrap();

    let arrivals: Vec<Box<dyn ArrivalProcess>> = vec![
        Box::new(PoissonArrivals::new(300.0)),
        Box::new(MmppArrivals::new(75.0, 1_200.0, 0.8, 0.2)),
    ];
    let policies: Vec<Box<dyn SchedulingPolicy>> = vec![
        Box::new(Fifo),
        Box::new(BatchWindow::new(0.002)),
        Box::new(EarliestDeadlineFirst::new(0.025)),
    ];
    for arrival in &arrivals {
        for policy in &policies {
            let out = engine
                .scenario(arrival.as_ref(), 3_000)
                .policy(policy.as_ref())
                .run()
                .unwrap();
            assert_eq!(out.completed, 3_000, "{}/{}", arrival.name(), policy.name());
            assert!(out.mean_batch >= 1.0);
            for u in &out.utilization {
                assert!((0.0..=1.0).contains(u));
            }
        }
    }
}

#[test]
fn cluster_of_replicas_end_to_end() {
    // The cluster redesign across the full stack: a replicated
    // commodity fleet absorbs load that saturates the single-pool
    // engine, and load-aware routing beats oblivious round-robin at
    // high utilization.
    use recpipe::data::PoissonArrivals;
    use recpipe::qsim::JoinShortestQueue;

    let single = Engine::commodity(two_stage(256))
        .placement(Placement::gpu_only(2))
        .quality_queries(20)
        .build()
        .unwrap();
    let overload = single.max_qps() * 2.0;
    assert!(single.evaluate_at(overload).saturated);

    let fleet = Engine::commodity(two_stage(256))
        .placement(Placement::gpu_only(2))
        .replicas(1, 4)
        .quality_queries(20)
        .build()
        .unwrap();
    assert_eq!(fleet.placement().fleet_for(0).replicas(), 1);
    assert_eq!(fleet.placement().fleet_for(1).replicas(), 4);
    let arrivals = PoissonArrivals::new(overload);
    let rr = fleet.scenario(&arrivals, 6_000).run().unwrap();
    let jsq = fleet
        .scenario(&arrivals, 6_000)
        .router(&JoinShortestQueue)
        .run()
        .unwrap();
    assert!(!rr.saturated && !jsq.saturated);
    assert_eq!(rr.completed, 6_000);
    assert_eq!(jsq.completed, 6_000);
    // Four GPU replicas are visible in the per-replica breakdown.
    assert_eq!(rr.replica_utilization[1].len(), 4);
}

#[test]
fn heterogeneous_fleet_end_to_end() {
    // A two-generation commodity fleet across the full stack: the
    // engine builds a mixed-speed GPU fleet, reports profile-weighted
    // capacity and cost, and serves with speed-aware routing.
    use recpipe::core::FleetSpec;
    use recpipe::data::PoissonArrivals;
    use recpipe::qsim::{ExpectedWait, JoinShortestQueue};

    let uniform = Engine::commodity(two_stage(256))
        .placement(Placement::gpu_only(2))
        .quality_queries(20)
        .build()
        .unwrap();
    let mixed = Engine::commodity(two_stage(256))
        .placement(Placement::gpu_only(2))
        .fleet(1, FleetSpec::mixed(&[(2, 1.0), (2, 0.5)]))
        .quality_queries(20)
        .build()
        .unwrap();
    // 2 current + 2 half-speed GPUs drain like 3 current ones, but
    // cost 3.0 in profile-weighted terms while counting 4 machines.
    assert!((mixed.max_qps() - 3.0 * uniform.max_qps()).abs() < 1e-6);
    assert_eq!(mixed.replica_cost(), 4);
    assert!((mixed.fleet_cost() - 3.0).abs() < 1e-12);
    assert_eq!(
        mixed.placement().fleet_for(1),
        FleetSpec::new(&[1.0, 1.0, 0.5, 0.5])
    );
    let outcome = mixed.evaluate_at(100.0);
    assert!(outcome.mapping.contains("gpu*2@1.0+2@0.5"));
    assert!((outcome.fleet_cost - 3.0).abs() < 1e-12);

    // An offered load that saturates the uniform single pool is served
    // by the mixed fleet; both load-aware routers handle it.
    let overload = uniform.max_qps() * 1.8;
    assert!(uniform.evaluate_at(overload).saturated);
    let arrivals = PoissonArrivals::new(overload);
    for router in [
        &JoinShortestQueue as &dyn recpipe::qsim::Router,
        &ExpectedWait,
    ] {
        let out = mixed
            .scenario(&arrivals, 6_000)
            .router(router)
            .run()
            .unwrap();
        assert_eq!(out.completed, 6_000);
        assert!(!out.saturated);
        assert_eq!(out.replica_utilization[1].len(), 4);
    }
}

#[test]
fn trace_replay_end_to_end_reproduces_recorded_poisson_traffic() {
    // An open-loop run is fully determined by its arrival schedule:
    // recording a Poisson schedule and replaying it through
    // TraceArrivals must reproduce the simulation bit-for-bit. The
    // seed is pinned through the builder because `Engine::scenario`
    // passes the engine seed to the arrival process — the recording
    // must use the same one.
    use recpipe::data::{ArrivalProcess, PoissonArrivals, TraceArrivals};

    let seed = 42;
    let engine = Engine::commodity(two_stage(256))
        .placement(Placement::cpu_only(2))
        .quality_queries(20)
        .seed(seed)
        .build()
        .unwrap();
    let poisson = PoissonArrivals::new(300.0);
    let recorded = TraceArrivals::new(poisson.times(1_500, seed));
    let live = engine.scenario(&poisson, 1_500).run().unwrap();
    let replayed = engine.scenario(&recorded, 1_500).run().unwrap();
    assert_eq!(live.latency, replayed.latency);
    assert_eq!(live.qps, replayed.qps);
    assert_eq!(live.completed, replayed.completed);
}

#[test]
fn closed_loop_serving_end_to_end_obeys_littles_law() {
    use recpipe::data::ClosedLoopArrivals;

    let engine = cpu_engine(two_stage(256), 300.0);
    let floor = engine.service_floor();
    let think = 0.05;
    let clients = 16;
    let out = engine
        .scenario(&ClosedLoopArrivals::new(clients, think), 2_000)
        .run()
        .unwrap();
    assert_eq!(out.completed, 2_000);
    // X = N / (R + Z); response time is at least the service floor, so
    // throughput is bounded above — and with 64 idle cores the floor is
    // nearly achieved.
    let upper = clients as f64 / (floor + think);
    assert!(
        out.qps <= upper * 1.02 && out.qps > upper * 0.8,
        "qps {} vs Little bound {upper}",
        out.qps
    );
}

#[test]
fn closed_loop_clients_survive_failure_sheds_end_to_end() {
    use recpipe::data::ClosedLoopArrivals;
    use recpipe::qsim::{
        FailurePolicy, LifecycleConfig, LifecycleEvent, LifecycleSchedule, PipelineSpec,
        ReplicaGroup, Scenario, StageSpec,
    };

    // Eight closed-loop clients on one 2-replica group at 4 ms. Under
    // `Shed`, every query a failure sheds or drops must free its client
    // just as a completion does, so all 2,000 queries are still issued
    // and `completed + shed + dropped` accounts for each of them.
    let arrivals = ClosedLoopArrivals::new(8, 0.01);
    let cfg = LifecycleConfig::new().with_failure_policy(FailurePolicy::Shed);
    let run = |failed: &[usize]| {
        let mut schedule = LifecycleSchedule::empty();
        for &r in failed {
            schedule = schedule.with_event(LifecycleEvent::fail_stop(0.5, r));
        }
        for &r in failed {
            schedule = schedule.with_event(LifecycleEvent::recover(0.6, r));
        }
        let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, 2)])
            .with_stage(StageSpec::new("rank", 0, 1, 0.004))
            .unwrap()
            .with_group_lifecycle(0, schedule);
        Scenario::new(&spec, &arrivals, 2_000, 3)
            .lifecycle(&cfg)
            .run()
            .unwrap()
    };
    let healthy = run(&[]);
    assert_eq!(healthy.completed, 2_000);
    for failed in [&[0usize][..], &[0, 1]] {
        let out = run(failed);
        assert!(
            out.shed + out.dropped > 0,
            "{failed:?}: the outage lost nothing"
        );
        assert_eq!(out.completed + out.shed + out.dropped, 2_000, "{failed:?}");
        // A 0.1 s outage in a ~4 s run must not cost the population
        // clients: throughput stays near the failure-free run's.
        assert!(
            out.qps > 0.9 * healthy.qps,
            "{failed:?}: qps {} vs healthy {}",
            out.qps,
            healthy.qps
        );
    }
}

/// The exact outcome of one live-runtime run: every counter, the
/// per-path admitted/completed mix, and the bit patterns of p50, p99
/// and the fleet-cost integral; a digest of every window field; the
/// full resilience stats; and each path's losses and latency bits.
#[derive(Debug, PartialEq)]
struct Pinned {
    completed: usize,
    shed: usize,
    dropped: usize,
    timed_out: usize,
    windows: usize,
    paths: Vec<(usize, usize)>,
    p50: u64,
    p99: u64,
    cost: u64,
    window_digest: u64,
    resilience: Option<Resilience>,
    path_losses: Vec<PathLosses>,
}

/// `ResilienceStats` with its wasted service seconds as bits:
/// timeouts, timed out, retries by attempt, retries denied, hedges
/// issued, hedges won, wasted service.
type Resilience = (usize, usize, Vec<usize>, usize, usize, usize, u64);

/// A path's shed and dropped counts and the bits of its mean and p99.
type PathLosses = (usize, usize, u64, u64);

/// FNV-1a over 64-bit words: a stable digest of a series of bit patterns.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x100_0000_01b3)
    })
}

impl Pinned {
    fn of(mut out: recpipe::qsim::SimResult) -> Self {
        let window_digest = digest(out.windows.iter().flat_map(|w| {
            let counts = [w.arrivals, w.completed, w.shed, w.dropped, w.timed_out];
            let reals = [w.start, w.end, w.p99_s, w.mean_queue_depth, w.utilization];
            let paths = [
                w.live_replicas,
                w.path_admitted.len(),
                w.path_completed.len(),
            ];
            let per_path = w.path_admitted.iter().chain(&w.path_completed).copied();
            (counts.into_iter().chain(paths).chain(per_path))
                .map(|n| n as u64)
                .chain(reals.into_iter().chain([w.cost]).map(f64::to_bits))
                .collect::<Vec<_>>()
        }));
        Self {
            completed: out.completed,
            shed: out.shed,
            dropped: out.dropped,
            timed_out: out.timed_out(),
            windows: out.windows.len(),
            paths: out
                .paths
                .iter()
                .map(|p| (p.admitted, p.completed))
                .collect(),
            p50: out.p50_seconds().to_bits(),
            p99: out.p99_seconds().to_bits(),
            cost: out.cost_integral.to_bits(),
            window_digest,
            resilience: out.resilience.as_ref().map(|r| {
                let hedges = (r.hedges_issued, r.hedges_won);
                let (retries, wasted) = (r.retries.clone(), r.wasted_service_s.to_bits());
                let (timeouts, denied) = (r.timeouts, r.retries_denied);
                (
                    timeouts,
                    r.timed_out,
                    retries,
                    denied,
                    hedges.0,
                    hedges.1,
                    wasted,
                )
            }),
            path_losses: out
                .paths
                .iter()
                .map(|p| {
                    (
                        p.shed,
                        p.dropped,
                        p.mean_latency_s.to_bits(),
                        p.p99_s.to_bits(),
                    )
                })
                .collect(),
        }
    }
}

#[test]
fn live_runtimes_replay_their_pinned_outcomes_bit_for_bit() {
    // The lifecycle, autoscale, admission and resilience runtimes each
    // running live (not at an inert config) on a small fleet. Any
    // change to what the event loop computes moves at least one of
    // these exact values.
    use recpipe::core::ReactiveScaling;
    use recpipe::data::{DiurnalArrivals, MmppArrivals, PoissonArrivals};
    use recpipe::qsim::{
        AutoscaleConfig, BatchModel, FailurePolicy, FaultBurst, FaultKind, FaultPlan, HedgePolicy,
        JoinShortestQueue, LifecycleConfig, LifecycleEvent, LifecycleSchedule, LoadAdaptive,
        PathSet, PipelineSpec, ReplicaGroup, ResilienceConfig, RetryBudget, RetryPolicy, Scenario,
        StageSpec,
    };

    let worker = |replicas: usize, service_s: f64| {
        PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, replicas)])
            .with_stage(StageSpec::new("rank", 0, 1, service_s))
            .unwrap()
    };
    let windowed = LifecycleConfig::new().with_window(0.5);

    // A fail-stop and its recovery under `Requeue`: the dead replica's
    // queue and in-flight batch re-enter on the survivors.
    let schedule = LifecycleSchedule::empty()
        .with_event(LifecycleEvent::fail_stop(2.0, 0))
        .with_event(LifecycleEvent::recover(3.0, 0));
    let spec = worker(3, 0.004).with_group_lifecycle(0, schedule);
    let failover = Scenario::new(&spec, &PoissonArrivals::new(500.0), 4_000, 11)
        .router(&JoinShortestQueue)
        .lifecycle(&windowed)
        .run()
        .unwrap();

    // Reactive autoscaling through a compressed diurnal day.
    let spec = worker(6, 0.010);
    let band = AutoscaleConfig::new(0, 1, 6, 0.5)
        .with_initial_replicas(2)
        .with_warmup(0.2);
    let mut reactive = ReactiveScaling::new(0.6, 4.0);
    let scaled = Scenario::new(&spec, &DiurnalArrivals::new(50.0, 400.0, 8.0), 2_500, 12)
        .autoscale(&band, &mut reactive)
        .run()
        .unwrap();

    // A two-path brown-out: past the knee, arrivals degrade onto the
    // lighter path, then shed, instead of queueing behind the full one.
    let paths = PathSet::new(vec![ReplicaGroup::replicated("worker", 1, 2)])
        .with_path("full", 0.92, vec![StageSpec::new("rank", 0, 1, 0.008)])
        .unwrap()
        .with_path("lite", 0.85, vec![StageSpec::new("rank", 0, 1, 0.002)])
        .unwrap();
    let brownout = Scenario::multipath(
        &paths,
        &LoadAdaptive::new(1.5, 0.75),
        &PoissonArrivals::new(330.0),
        4_000,
        13,
    )
    .lifecycle(&windowed)
    .run()
    .unwrap();

    // Timeouts, budgeted retries and a quantile hedge while one
    // replica limps at quarter speed.
    let degrade = FaultPlan::new(5).degrade_burst(1.0, 1, 0.25).expand(4);
    let spec = worker(4, 0.008).with_group_lifecycle(0, degrade);
    let retry = RetryPolicy::new(3, 0.005, 2.0)
        .with_jitter(0.5)
        .with_budget(RetryBudget::new(50.0, 0.1));
    let resilience = ResilienceConfig::new()
        .with_timeout(0.050)
        .with_retry(retry)
        .with_hedge(HedgePolicy::at_quantile(0.9));
    let resilient = Scenario::new(&spec, &PoissonArrivals::new(250.0), 4_000, 14)
        .lifecycle(&windowed)
        .resilience(&resilience)
        .run()
        .unwrap();

    // A two-stage batched fleet under MMPP bursts near capacity, with a
    // limpware burst and a requeued fail-stop on the rank fleet (both
    // recovering), timeouts, budgeted retries and a p95 hedge: the only
    // pin whose queries flow on to a next stage.
    let plan = FaultPlan::new(15)
        .burst(FaultBurst {
            time: 5.0,
            kind: FaultKind::Degrade { speed: 0.3 },
            count: 2,
            recover_after_s: Some(5.0),
        })
        .burst(FaultBurst {
            time: 15.0,
            kind: FaultKind::FailStop,
            count: 1,
            recover_after_s: Some(2.0),
        });
    let batched = |name, group, service_s| {
        StageSpec::new(name, group, 1, service_s).with_batch(BatchModel::new(8, 0.25))
    };
    let spec = PipelineSpec::new(vec![
        ReplicaGroup::replicated("filter", 1, 4),
        ReplicaGroup::replicated("rank", 1, 4),
    ])
    .with_group_lifecycle(1, plan.expand(4))
    .with_stage(batched("filter", 0, 0.002))
    .unwrap()
    .with_stage(batched("rank", 1, 0.004))
    .unwrap();
    let capacity = spec.max_qps();
    let bursty = MmppArrivals::new(0.6 * capacity, 1.4 * capacity, 2.0, 0.5);
    let resilience = ResilienceConfig::new()
        .with_timeout(0.060)
        .with_retry(RetryPolicy::new(3, 0.010, 2.0).with_budget(RetryBudget::new(100.0, 0.1)))
        .with_hedge(HedgePolicy::at_quantile(0.95));
    let gray = Scenario::new(&spec, &bursty, 20_000, 15)
        .lifecycle(&windowed)
        .resilience(&resilience)
        .run()
        .unwrap();

    // Losses under `Shed`: replica 1 drains mid-batch, the survivors
    // fall behind, and a fail-stop strands replica 0's in-flight batch
    // (dropped) and its queue (shed); replica 0 returns through a
    // warm-up and replica 1 once its drain is done.
    let schedule = LifecycleSchedule::empty()
        .with_event(LifecycleEvent::drain(1.0, 1))
        .with_event(LifecycleEvent::fail_stop(1.5, 0))
        .with_event(LifecycleEvent::provision(2.0, 0, 0.5))
        .with_event(LifecycleEvent::provision(3.0, 1, 0.0));
    let spec = worker(4, 0.004).with_group_lifecycle(0, schedule);
    let shed_cfg = windowed.clone().with_failure_policy(FailurePolicy::Shed);
    let shedding = Scenario::new(&spec, &PoissonArrivals::new(800.0), 4_000, 16)
        .lifecycle(&shed_cfg)
        .run()
        .unwrap();

    // A whole-group outage under `Requeue`: both replicas fail at once,
    // and their stranded work and every arrival in the hole park until
    // the scheduled recoveries flush them.
    let schedule = LifecycleSchedule::empty()
        .with_event(LifecycleEvent::fail_stop(1.0, 0))
        .with_event(LifecycleEvent::fail_stop(1.0, 1))
        .with_event(LifecycleEvent::recover(1.2, 0))
        .with_event(LifecycleEvent::recover(1.3, 1));
    let spec = worker(2, 0.004).with_group_lifecycle(0, schedule);
    let outage = Scenario::new(&spec, &PoissonArrivals::new(300.0), 3_000, 17)
        .lifecycle(&windowed)
        .run()
        .unwrap();

    let pins = [
        (
            "failover",
            failover,
            Pinned {
                completed: 4_000,
                shed: 0,
                dropped: 0,
                timed_out: 0,
                windows: 17,
                paths: vec![],
                p50: 0x3f70_624d_d2f1_a9fc,
                p99: 0x3fa3_d454_2aa4_9952,
                cost: 0x4037_8439_76ff_76f8,
                window_digest: 0x2571_da77_a06d_7f12,
                resilience: None,
                path_losses: vec![],
            },
        ),
        (
            "scaled",
            scaled,
            Pinned {
                completed: 2_500,
                shed: 0,
                dropped: 0,
                timed_out: 0,
                windows: 24,
                paths: vec![],
                p50: 0x3f84_7ae1_47ae_147b,
                p99: 0x3fab_c0c1_25cf_9d62,
                cost: 0x4046_b450_95ae_28ac,
                window_digest: 0x2c46_62a4_9b14_87a4,
                resilience: None,
                path_losses: vec![],
            },
        ),
        (
            "brownout",
            brownout,
            Pinned {
                completed: 2_941,
                shed: 1_059,
                dropped: 0,
                timed_out: 0,
                windows: 25,
                paths: vec![(2_225, 2_225), (716, 716)],
                p50: 0x3f83_1574_7dcd_ad95,
                p99: 0x3f90_2ec8_50a2_6b0b,
                cost: 0x4038_4285_d819_109d,
                window_digest: 0xba12_2d11_7980_127d,
                resilience: None,
                path_losses: vec![
                    (0, 0, 0x3f85_8908_743a_30f6, 0x3f90_2ec8_50a2_6b0b),
                    (0, 0, 0x3f7c_e393_c146_0e8b, 0x3f90_297a_1943_1474),
                ],
            },
        ),
        (
            "resilient",
            resilient,
            Pinned {
                completed: 3_458,
                shed: 0,
                dropped: 0,
                timed_out: 542,
                windows: 33,
                paths: vec![],
                p50: 0x3f80_624d_d2f1_a9fc,
                p99: 0x3fb5_488f_b77e_c310,
                cost: 0x4050_4a31_7d1a_9bb6,
                window_digest: 0xa8fd_3adf_943e_7c24,
                resilience: Some((
                    896,
                    542,
                    vec![312, 42],
                    523,
                    950,
                    253,
                    0x402d_8937_4bc6_a64f,
                )),
                path_losses: vec![],
            },
        ),
        (
            "gray",
            gray,
            Pinned {
                completed: 19_047,
                shed: 0,
                dropped: 0,
                timed_out: 953,
                windows: 56,
                paths: vec![],
                p50: 0x3f7a_ab1f_cb43_d813,
                p99: 0x3fb3_74bc_6a7e_f9db,
                cost: 0x406b_8464_1f2d_f7b2,
                window_digest: 0x8b0b_1316_4c73_4ffb,
                resilience: Some((
                    1_298,
                    953,
                    vec![289, 56],
                    928,
                    1_850,
                    82,
                    0x4024_ae14_7ae1_4762,
                )),
                path_losses: vec![],
            },
        ),
        (
            "shedding",
            shedding,
            Pinned {
                completed: 3_991,
                shed: 8,
                dropped: 1,
                timed_out: 0,
                windows: 11,
                paths: vec![],
                p50: 0x3fc0_576a_b9cc_02e7,
                p99: 0x3fd8_6ffb_161c_8832,
                cost: 0x4031_9da7_e914_41fc,
                window_digest: 0x791f_89a5_9426_7224,
                resilience: None,
                path_losses: vec![],
            },
        ),
        (
            "outage",
            outage,
            Pinned {
                completed: 3_000,
                shed: 0,
                dropped: 0,
                timed_out: 0,
                windows: 21,
                paths: vec![],
                p50: 0x3f70_624d_d2f1_a9fc,
                p99: 0x3fcc_a54c_f878_9991,
                cost: 0x4033_f940_0654_ad4f,
                window_digest: 0xe1e1_717c_0a6b_2c56,
                resilience: None,
                path_losses: vec![],
            },
        ),
    ];
    for (name, out, expected) in pins {
        assert_eq!(Pinned::of(out), expected, "{name}");
    }
}

#[test]
fn quick_grid_qualities_keep_their_pinned_bits() {
    // One digest of every quick-grid report's NDCG and std bits per
    // dataset and sub-batch count, recorded when the keyed pools and
    // scoring noise came to be drawn by the ziggurats. Batching, sharing
    // funnel prefixes, the order of shortlists and splitting queries
    // across workers must not move a bit.
    // MovieLens-1M's pool has 1,024 items, so every 4,096-item funnel of
    // the grid is clipped to it, and its gains are `utility^2`.
    use recpipe::core::QualityEvaluator;
    let grid = Scheduler::new(SchedulerSettings::quick()).enumerate_pipelines(3);
    assert_eq!(grid.len(), 14);
    for (dataset, sub_batches, pinned) in [
        (DatasetKind::CriteoKaggle, 1, 0xc0f8_1247_45d7_0f3f),
        (DatasetKind::CriteoKaggle, 4, 0xc477_5fd7_b452_eadc),
        (DatasetKind::MovieLens1M, 1, 0xf8a4_cfc2_09ed_2367),
        (DatasetKind::MovieLens1M, 3, 0xc561_03ee_dfeb_5bcd),
    ] {
        let reports = QualityEvaluator::for_dataset(dataset, 64)
            .queries(24)
            .seed(77)
            .sub_batches(sub_batches)
            .evaluate_all(&grid);
        let bits = digest(
            reports
                .iter()
                .flat_map(|r| [r.ndcg.to_bits(), r.ndcg_std.to_bits()]),
        );
        assert_eq!(
            bits, pinned,
            "{dataset:?} at {sub_batches} sub-batches: {bits:#018x}"
        );
    }
}

#[test]
fn folded_latency_run_keeps_its_pinned_bits() {
    // 150k queries leave 142,500 post-warmup samples: past the 2^17 at
    // which `LatencyStats` folds into its histogram, so this is the one
    // root test whose latency collector runs folded. Every reported
    // statistic is pinned bit for bit.
    use recpipe::data::MmppArrivals;
    use recpipe::metrics::LatencyStats;
    use recpipe::qsim::{BatchModel, PipelineSpec, ReplicaGroup, Scenario, StageSpec};

    let batched = |name, group, service_s| {
        StageSpec::new(name, group, 1, service_s).with_batch(BatchModel::new(8, 0.25))
    };
    let spec = PipelineSpec::new(vec![
        ReplicaGroup::replicated("filter", 1, 4),
        ReplicaGroup::replicated("rank", 1, 4),
    ])
    .with_stage(batched("filter", 0, 0.002))
    .unwrap()
    .with_stage(batched("rank", 1, 0.004))
    .unwrap();
    let capacity = spec.max_qps();
    let bursty = MmppArrivals::new(0.6 * capacity, 1.4 * capacity, 2.0, 0.5);
    let mut out = Scenario::new(&spec, &bursty, 150_000, 16).run().unwrap();
    assert!(out.latency.len() > LatencyStats::fold_threshold());
    assert!(out.latency.is_folded());
    let bits = [
        out.p50_seconds().to_bits(),
        out.p99_seconds().to_bits(),
        out.latency.mean().as_secs_f64().to_bits(),
        out.qps.to_bits(),
    ];
    assert_eq!((out.completed, out.latency.len()), (150_000, 142_500));
    let pinned = [
        0x3f7a_933a_6b1c_13ee,
        0x3f8b_6162_f9fd_e5fd,
        0x3f7f_0a64_183e_a162,
        0x4088_1642_32a0_da1b,
    ];
    assert_eq!(bits, pinned, "p50, p99, mean, qps: {bits:#018x?}");
}
