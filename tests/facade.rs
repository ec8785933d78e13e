//! Smoke tests of the `recpipe` facade: every subsystem is reachable
//! through the re-exports and composes.

use recpipe::accel::{Partition, RpAccel, RpAccelConfig, SystolicArray, TopKFilter};
use recpipe::data::{DatasetSpec, Zipf};
use recpipe::hwsim::{CpuModel, GpuModel, LruCache, StageWork, StaticCacheModel};
use recpipe::metrics::{ndcg_at_k, LatencyStats};
use recpipe::models::{ModelConfig, ModelKind};
use recpipe::qsim::{PipelineSpec, ReplicaGroup, Scenario, StageSpec};
use recpipe::tensor::Matrix;

#[test]
fn tensor_through_facade() {
    let a = Matrix::identity(4);
    assert_eq!(a.matmul(&a).unwrap(), a);
}

#[test]
fn metrics_through_facade() {
    assert!((ndcg_at_k(&[2.0, 1.0], &[2.0, 1.0], 2) - 1.0).abs() < 1e-12);
    let mut stats = LatencyStats::new();
    stats.record_secs(0.010);
    assert!(stats.p99().as_secs_f64() > 0.009);
}

#[test]
fn data_through_facade() {
    use recpipe::data::{ArrivalProcess, PoissonArrivals};
    assert_eq!(DatasetSpec::criteo_kaggle().candidates_per_query, 4096);
    assert!(PoissonArrivals::new(100.0).stream(2).take(10).count() == 10);
    assert!(Zipf::new(1000, 0.9).cdf(1000) == 1.0);
}

#[test]
fn arrival_processes_through_facade() {
    use recpipe::data::{
        ArrivalProcess, ClosedLoopArrivals, DiurnalArrivals, MmppArrivals, PoissonArrivals,
    };
    let processes: Vec<Box<dyn ArrivalProcess>> = vec![
        Box::new(PoissonArrivals::new(200.0)),
        Box::new(MmppArrivals::new(50.0, 500.0, 0.5, 0.1)),
        Box::new(DiurnalArrivals::new(50.0, 350.0, 5.0)),
        Box::new(ClosedLoopArrivals::new(8, 0.02)),
    ];
    for p in &processes {
        assert!(p.mean_rate() > 0.0, "{}", p.name());
        assert_eq!(p.times(50, 1).len(), 50);
    }
}

#[test]
fn batched_serving_through_facade() {
    use recpipe::data::MmppArrivals;
    use recpipe::qsim::{BatchModel, BatchWindow};

    let spec = PipelineSpec::new(vec![ReplicaGroup::new("gpu", 1)])
        .with_stage(StageSpec::new("rank", 0, 1, 0.004).with_batch(BatchModel::new(8, 0.2)))
        .unwrap();
    let out = Scenario::new(&spec, &MmppArrivals::new(80.0, 600.0, 0.3, 0.1), 1_000, 3)
        .policy(&BatchWindow::new(0.002))
        .run()
        .unwrap();
    assert_eq!(out.completed, 1_000);
    assert!(out.mean_batch >= 1.0);
}

#[test]
fn cluster_routing_through_facade() {
    use recpipe::data::PoissonArrivals;
    use recpipe::qsim::{JoinShortestQueue, PowerOfTwoChoices, ReplicaGroup, RoundRobin, Router};

    let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 2, 3)])
        .with_stage(StageSpec::new("rank", 0, 1, 0.004))
        .unwrap();
    assert_eq!(spec.resources()[0].total_units(), 6);
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(RoundRobin),
        Box::new(JoinShortestQueue),
        Box::new(PowerOfTwoChoices),
    ];
    for router in &routers {
        let out = Scenario::new(&spec, &PoissonArrivals::new(400.0), 800, 1)
            .router(router.as_ref())
            .run()
            .unwrap();
        assert_eq!(out.completed, 800, "{}", router.name());
        assert_eq!(out.replica_utilization[0].len(), 3);
    }
}

#[test]
fn custom_router_through_facade() {
    use recpipe::data::PoissonArrivals;
    use recpipe::qsim::{ReplicaLoads, Router, RouterState, RoutingCtx};

    // A custom router is one decision over the group's loads: here, the
    // least-loaded replica with ties going to the highest index (the
    // mirror image of JSQ's lowest-index tie-break).
    #[derive(Debug)]
    struct LastLeastLoaded;
    impl Router for LastLeastLoaded {
        fn name(&self) -> String {
            "last-least-loaded".into()
        }
        fn route(
            &self,
            loads: &ReplicaLoads<'_>,
            _ctx: &RoutingCtx<'_>,
            _state: &mut RouterState,
        ) -> usize {
            (0..loads.len())
                .rev()
                .min_by_key(|&i| loads.load(i))
                .expect("loads are never empty")
        }
    }

    let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 2, 3)])
        .with_stage(StageSpec::new("rank", 0, 1, 0.004))
        .unwrap();
    let out = Scenario::new(&spec, &PoissonArrivals::new(600.0), 1_000, 1)
        .router(&LastLeastLoaded)
        .run()
        .unwrap();
    assert_eq!(out.completed, 1_000);
    let util = &out.replica_utilization[0];
    assert!(util.iter().all(|&u| u > 0.0), "{util:?}");
    // Ties go high, so the last replica carries the most work.
    assert!(util[2] > util[0], "{util:?}");
}

#[test]
fn heterogeneous_fleet_through_facade() {
    use recpipe::core::FleetSpec;
    use recpipe::data::PoissonArrivals;
    use recpipe::qsim::{ExpectedWait, ReplicaGroup, ReplicaProfile, Router, RoutingCtx, Sticky};

    // qsim-level: a two-generation group with speed-weighted capacity.
    let group = ReplicaGroup::heterogeneous(
        "worker",
        vec![ReplicaProfile::baseline(2), ReplicaProfile::new(2, 0.5)],
    );
    assert_eq!(group.total_units(), 4);
    assert!((group.weighted_units() - 3.0).abs() < 1e-12);

    let spec = PipelineSpec::new(vec![group])
        .with_stage(StageSpec::new("rank", 0, 1, 0.004))
        .unwrap();
    let routers: Vec<Box<dyn Router>> = vec![Box::new(ExpectedWait), Box::new(Sticky)];
    for router in &routers {
        let out = Scenario::new(&spec, &PoissonArrivals::new(0.7 * spec.max_qps()), 800, 1)
            .router(router.as_ref())
            .run()
            .unwrap();
        assert_eq!(out.completed, 800, "{}", router.name());
    }
    assert_eq!(RoutingCtx::root(0, 0, 0).prior_on_group(), None);

    // core-level: fleet specs annotate and price by generation.
    let fleet = FleetSpec::mixed(&[(1, 1.0), (1, 0.5)]);
    assert_eq!(fleet.annotation(), "*1@1.0+1@0.5");
    assert!((fleet.cost() - 1.5).abs() < 1e-12);
}

#[test]
fn trace_arrivals_through_facade() {
    use recpipe::data::{ArrivalProcess, TraceArrivals};
    let trace = TraceArrivals::new(vec![0.0, 0.5, 1.0, 1.5]).with_rate(8.0);
    assert!((trace.mean_rate() - 8.0).abs() < 1e-9);
    assert_eq!(trace.times(8, 0).len(), 8);
}

#[test]
fn models_and_hwsim_through_facade() {
    let cfg = ModelConfig::for_kind(ModelKind::RmMed, recpipe::data::DatasetKind::CriteoKaggle);
    let work = StageWork::new(cfg, 1024);
    let cpu = CpuModel::cascade_lake();
    let gpu = GpuModel::t4();
    assert!(cpu.stage_latency(&work, 1, 1) > 0.0);
    assert!(gpu.stage_latency(&work, 1) > 0.0);

    let mut lru = LruCache::new(4);
    lru.access(1);
    assert!(lru.access(1));
    let sc = StaticCacheModel::new(Zipf::new(10_000, 0.9), 100);
    assert!(sc.hit_rate() > 0.0);
}

#[test]
fn accel_through_facade() {
    let accel = RpAccel::new(RpAccelConfig::paper_default(Partition::symmetric(8, 8)));
    let stages = vec![StageWork::new(
        ModelConfig::for_kind(ModelKind::RmLarge, recpipe::data::DatasetKind::CriteoKaggle),
        512,
    )];
    assert!(accel.query_latency(&stages, 1) > 0.0);
    assert!(SystolicArray::paper_default().macs() == 128 * 128);
    let filter = TopKFilter::paper_default(64);
    assert_eq!(filter.num_bins(), 16);
}

#[test]
fn engine_through_facade() {
    use recpipe::core::{Engine, PipelineConfig, Placement};

    let pipeline = PipelineConfig::single_stage(ModelKind::RmMed, 4096, 64).unwrap();
    let engine = Engine::commodity(pipeline)
        .placement(Placement::cpu_only(1))
        .load(100.0)
        .quality_queries(50)
        .sim_queries(500)
        .build()
        .unwrap();
    let outcome = engine.evaluate();
    assert!(outcome.ndcg > 0.5);
    assert!(!outcome.saturated);
}

#[test]
fn qsim_through_facade() {
    let spec = PipelineSpec::new(vec![ReplicaGroup::new("cpu", 4)])
        .with_stage(StageSpec::new("s", 0, 1, 0.001))
        .unwrap();
    let out = spec.simulate(100.0, 500, 3);
    assert_eq!(out.completed, 500);
}
