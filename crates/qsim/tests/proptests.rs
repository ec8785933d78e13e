//! Property-based tests for the discrete-event queueing simulator:
//! conservation invariants across arrivals, policies, batch models,
//! fleets and the optional runtimes, and live-vs-live equivalences (an
//! inert runtime, a single-path set or a sharded run replays the plain
//! loop bit for bit). Pinned outcomes live in the golden corpus
//! (`golden/`, checked by `corpus.rs`).

use proptest::prelude::*;

use recpipe_data::{ClosedLoopArrivals, MmppArrivals, PoissonArrivals};
use recpipe_qsim::{
    serve_lifecycle, serve_resilient, serve_routed, serve_routed_sharded, AdmissionPolicy,
    AlwaysPrimary, AutoscaleConfig, BatchModel, BatchWindow, DeadlineAware, EarliestDeadlineFirst,
    ExpectedWait, FailurePolicy, FaultPlan, Fifo, FleetController, HedgePolicy, JoinShortestQueue,
    LeastWorkLeft, LifecycleConfig, LifecycleEvent, LifecycleSchedule, LoadAdaptive, PathSet,
    PipelineSpec, PowerOfTwoChoices, ReplicaGroup, ReplicaProfile, ResilienceConfig, RetryBudget,
    RetryPolicy, RoundRobin, Router, Scenario, SchedulingPolicy, StageSpec, Sticky, WindowStats,
};

fn pipeline(servers: usize, stages: Vec<f64>) -> PipelineSpec {
    let mut spec = PipelineSpec::new(vec![ReplicaGroup::new("pool", servers)]);
    for (i, s) in stages.into_iter().enumerate() {
        spec = spec
            .with_stage(StageSpec::new(format!("s{i}"), 0, 1, s))
            .unwrap();
    }
    spec
}

fn batched_pipeline(servers: usize, stages: Vec<f64>, max_batch: usize) -> PipelineSpec {
    let mut spec = PipelineSpec::new(vec![ReplicaGroup::new("pool", servers)]);
    for (i, s) in stages.into_iter().enumerate() {
        spec = spec
            .with_stage(
                StageSpec::new(format!("s{i}"), 0, 1, s)
                    .with_batch(BatchModel::new(max_batch, 0.25)),
            )
            .unwrap();
    }
    spec
}

fn policy_for(idx: usize) -> Box<dyn SchedulingPolicy> {
    match idx % 3 {
        0 => Box::new(Fifo),
        1 => Box::new(BatchWindow::new(0.002)),
        _ => Box::new(EarliestDeadlineFirst::new(0.05)),
    }
}

/// The six built-in routers; indices below 4 are the load routers
/// that read only the counter columns.
fn router_for(idx: usize) -> Box<dyn Router> {
    match idx % 6 {
        0 => Box::new(RoundRobin),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(PowerOfTwoChoices),
        3 => Box::new(LeastWorkLeft),
        4 => Box::new(ExpectedWait),
        _ => Box::new(Sticky),
    }
}

fn replicated_pipeline(
    replicas: usize,
    capacity: usize,
    stages: Vec<f64>,
    max_batch: usize,
) -> PipelineSpec {
    let mut spec = PipelineSpec::new(vec![ReplicaGroup::replicated("fleet", capacity, replicas)]);
    for (i, s) in stages.into_iter().enumerate() {
        spec = spec
            .with_stage(
                StageSpec::new(format!("s{i}"), 0, 1, s)
                    .with_batch(BatchModel::new(max_batch, 0.25)),
            )
            .unwrap();
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_query_completes(
        servers in 1usize..16,
        service_ms in 1u64..20,
        queries in 100usize..800,
    ) {
        let spec = pipeline(servers, vec![service_ms as f64 / 1e3]);
        let out = spec.simulate(50.0, queries, 1);
        prop_assert_eq!(out.completed, queries);
    }

    #[test]
    fn latency_never_beats_service_floor(
        servers in 1usize..8,
        s1 in 1u64..10,
        s2 in 1u64..10,
        qps in 1.0f64..100.0,
    ) {
        let spec = pipeline(servers, vec![s1 as f64 / 1e3, s2 as f64 / 1e3]);
        let floor = spec.service_floor();
        let mut out = spec.simulate(qps, 500, 2);
        // Even the fastest query pays both service times.
        prop_assert!(out.latency.percentile(0.0).as_secs_f64() >= floor - 1e-9);
    }

    #[test]
    fn p99_is_monotone_in_load(servers in 2usize..8, service_ms in 2u64..10) {
        let spec = pipeline(servers, vec![service_ms as f64 / 1e3]);
        let cap = spec.max_qps();
        let mut lo = spec.simulate(cap * 0.2, 4_000, 3);
        let mut hi = spec.simulate(cap * 0.85, 4_000, 3);
        prop_assert!(hi.latency.p99() >= lo.latency.p99());
    }

    #[test]
    fn utilization_is_bounded(
        servers in 1usize..8,
        service_ms in 1u64..10,
        qps in 1.0f64..2000.0,
    ) {
        let spec = pipeline(servers, vec![service_ms as f64 / 1e3]);
        let out = spec.simulate(qps, 1_000, 4);
        for u in &out.utilization {
            prop_assert!((0.0..=1.0).contains(u), "utilization {u}");
        }
    }

    #[test]
    fn offered_beyond_capacity_is_always_flagged(
        servers in 1usize..4,
        service_ms in 5u64..20,
    ) {
        let spec = pipeline(servers, vec![service_ms as f64 / 1e3]);
        let out = spec.simulate(spec.max_qps() * 2.0, 1_500, 5);
        prop_assert!(out.saturated);
    }

    #[test]
    fn seeds_are_deterministic(seed in 0u64..1000) {
        let spec = pipeline(4, vec![0.004, 0.002]);
        let mut a = spec.simulate(200.0, 800, seed);
        let mut b = spec.simulate(200.0, 800, seed);
        prop_assert_eq!(a.latency.p99(), b.latency.p99());
        prop_assert_eq!(a.qps, b.qps);
    }

    // --------------------------------------------------------------
    // qsim v2 conservation invariants
    // --------------------------------------------------------------

    #[test]
    fn every_arrival_completes_under_any_policy_and_batching(
        servers in 1usize..6,
        service_ms in 1u64..12,
        max_batch in 1usize..16,
        policy_idx in 0usize..3,
        queries in 100usize..600,
        seed in 0u64..100,
    ) {
        let spec = batched_pipeline(
            servers,
            vec![service_ms as f64 / 1e3, service_ms as f64 / 2e3],
            max_batch,
        );
        let policy = policy_for(policy_idx);
        let arrivals = PoissonArrivals::new(150.0);
        let out = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .run()
            .unwrap();
        prop_assert_eq!(out.completed, queries);
        prop_assert!(out.mean_batch >= 1.0 - 1e-12);
        prop_assert!(out.mean_batch <= max_batch as f64 + 1e-12);
    }

    #[test]
    fn resource_units_never_go_negative_under_batching(
        servers in 1usize..6,
        max_batch in 1usize..12,
        policy_idx in 0usize..3,
        seed in 0u64..100,
    ) {
        // The real invariant lives in the simulator's debug assertions
        // (units available before every launch, free <= capacity after
        // every release), which are ACTIVE in this test profile: any
        // double-booking panics the property. The completion count and
        // (clamped) utilization are the observable sanity checks.
        let spec = batched_pipeline(servers, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let arrivals = MmppArrivals::new(100.0, 1_000.0, 0.2, 0.1);
        let out = Scenario::new(&spec, &arrivals, 800, seed).policy(policy.as_ref()).run().unwrap();
        prop_assert_eq!(out.completed, 800);
        for u in &out.utilization {
            prop_assert!((0.0..=1.0).contains(u), "utilization {u}");
        }
    }

    // --------------------------------------------------------------
    // qsim v3: replica groups and routers
    // --------------------------------------------------------------

    #[test]
    fn every_query_completes_on_replicated_clusters(
        replicas in 1usize..6,
        capacity in 1usize..4,
        max_batch in 1usize..12,
        policy_idx in 0usize..3,
        router_idx in 0usize..4,
        queries in 100usize..600,
        seed in 0u64..100,
    ) {
        // Conservation across the full cluster matrix: replicas x
        // policies x routers x batching. The simulator's debug
        // assertions (units available before every launch, free <=
        // per-replica capacity after every release) are active here,
        // so any cross-replica unit leak panics the property.
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let out = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        prop_assert_eq!(out.completed, queries);
        prop_assert!(out.mean_batch >= 1.0 - 1e-12);
        prop_assert!(out.mean_batch <= max_batch as f64 + 1e-12);
        for u in &out.utilization {
            prop_assert!((0.0..=1.0).contains(u), "utilization {u}");
        }
        if replicas > 1 {
            prop_assert_eq!(out.replica_utilization.len(), 1);
            prop_assert_eq!(out.replica_utilization[0].len(), replicas);
            for u in &out.replica_utilization[0] {
                prop_assert!((0.0..=1.0).contains(u), "replica utilization {u}");
            }
        } else {
            prop_assert!(out.replica_utilization.is_empty());
        }
    }

    #[test]
    fn routed_serving_is_deterministic(
        replicas in 2usize..6,
        router_idx in 0usize..4,
        seed in 0u64..200,
    ) {
        let spec = replicated_pipeline(replicas, 1, vec![0.003, 0.006], 4);
        let router = router_for(router_idx);
        let arrivals = PoissonArrivals::new(150.0);
        let a = Scenario::new(&spec, &arrivals, 500, seed).router(router.as_ref()).run().unwrap();
        let b = Scenario::new(&spec, &arrivals, 500, seed).router(router.as_ref()).run().unwrap();
        prop_assert_eq!(a, b);
    }

    // --------------------------------------------------------------
    // qsim v4: heterogeneous fleets, routing context, expected wait
    // --------------------------------------------------------------

    #[test]
    fn every_query_completes_on_heterogeneous_fleets(
        fast in 1usize..4,
        slow in 1usize..4,
        speed_pct in 20u64..100,
        capacity in 1usize..3,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        queries in 100usize..500,
        seed in 0u64..100,
    ) {
        // Conservation across the mixed-generation matrix, with the new
        // routers (ExpectedWait, Sticky) in rotation. The simulator's
        // debug assertions are active here, so a unit leak, a counter
        // drift beyond float noise in the incrementally-maintained
        // remaining-work arrays, or a queued-count mismatch panics the
        // property.
        let mut profiles = vec![ReplicaProfile::baseline(capacity); fast];
        profiles.extend(std::iter::repeat_n(
            ReplicaProfile::new(capacity, speed_pct as f64 / 100.0),
            slow,
        ));
        let replicas = profiles.len();
        let mut spec =
            PipelineSpec::new(vec![ReplicaGroup::heterogeneous("fleet", profiles)]);
        for (i, s) in [0.004f64, 0.002].into_iter().enumerate() {
            spec = spec
                .with_stage(
                    StageSpec::new(format!("s{i}"), 0, 1, s)
                        .with_batch(BatchModel::new(max_batch, 0.25)),
                )
                .unwrap();
        }
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(60.0, 500.0, 0.2, 0.1);
        let out = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        prop_assert_eq!(out.completed, queries);
        prop_assert!(out.mean_batch >= 1.0 - 1e-12);
        prop_assert!(out.mean_batch <= max_batch as f64 + 1e-12);
        for u in &out.utilization {
            prop_assert!((0.0..=1.0).contains(u), "utilization {u}");
        }
        if replicas > 1 {
            prop_assert_eq!(out.replica_utilization.len(), 1);
            prop_assert_eq!(out.replica_utilization[0].len(), replicas);
            for u in &out.replica_utilization[0] {
                prop_assert!((0.0..=1.0).contains(u), "replica utilization {u}");
            }
        }
        // Heterogeneous routing is reproducible like everything else.
        let again = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        prop_assert_eq!(out, again);
    }

    #[test]
    fn closed_loop_completes_and_bounds_inflight(
        clients in 1usize..32,
        servers in 1usize..4,
        seed in 0u64..50,
    ) {
        let spec = pipeline(servers, vec![0.005]);
        let arrivals = ClosedLoopArrivals::new(clients, 0.01);
        let out = Scenario::new(&spec, &arrivals, 400, seed).run().unwrap();
        prop_assert_eq!(out.completed, 400);
        // At most `clients` queries are ever in flight, so the worst
        // wait is bounded by the population draining through servers.
        let bound = (clients as f64 / servers as f64).ceil() * 0.005 + 1e-9;
        prop_assert!(
            out.latency.max().as_secs_f64() <= bound,
            "max latency {} vs bound {bound}",
            out.latency.max().as_secs_f64()
        );
    }

    // --------------------------------------------------------------
    // qsim v6: replica lifecycle, failure injection, autoscaling
    // --------------------------------------------------------------

    #[test]
    fn empty_lifecycle_schedules_replay_the_plain_loop(
        fast in 1usize..4,
        slow in 0usize..3,
        speed_pct in 20u64..100,
        capacity in 1usize..3,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        queries in 100usize..600,
        seed in 0u64..300,
    ) {
        // The lifecycle subsystem (slot availability states, masked
        // routing, windowed telemetry, shed/drop accounting) must be
        // invisible when no lifecycle events exist: a scenario with
        // `lifecycle` set over empty schedules reproduces the plain run
        // bit-for-bit across the full router x policy x fleet x
        // batching matrix, heterogeneous fleets included.
        let mut profiles = vec![ReplicaProfile::baseline(capacity); fast];
        profiles.extend(std::iter::repeat_n(
            ReplicaProfile::new(capacity, speed_pct as f64 / 100.0),
            slow,
        ));
        let mut spec = PipelineSpec::new(vec![ReplicaGroup::heterogeneous("fleet", profiles)]);
        for (i, s) in [0.004f64, 0.002].into_iter().enumerate() {
            spec = spec
                .with_stage(
                    StageSpec::new(format!("s{i}"), 0, 1, s)
                        .with_batch(BatchModel::new(max_batch, 0.25)),
                )
                .unwrap();
        }
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let routed = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        let lifecycle = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        prop_assert_eq!(&routed, &lifecycle);
    }

    #[test]
    fn lifecycle_failures_conserve_every_query(
        replicas in 2usize..5,
        capacity in 1usize..3,
        max_batch in 1usize..6,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        fail_ms in proptest::collection::vec(50u64..1500, 1..4),
        fail_targets in proptest::collection::vec(0usize..8, 1..4),
        shed_policy in proptest::prelude::any::<bool>(),
        closed_loop in proptest::prelude::any::<bool>(),
        clients in 1usize..5,
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Random fail-stop schedules (each failed replica revived after
        // the last failure, so Requeue always has a way forward): every
        // injected query is accounted for exactly once -- completed,
        // shed, or dropped -- and under Requeue nothing is ever lost.
        // Closed-loop clients must survive their queries' losses, or a
        // small population stops issuing before `queries` is reached.
        // The simulator's debug assertions (unit conservation, counter
        // drift) are live here too.
        let mut fails: Vec<(f64, usize)> = fail_ms
            .iter()
            .zip(fail_targets.iter().cycle())
            .map(|(&ms, &r)| (ms as f64 / 1e3, r % replicas))
            .collect();
        fails.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let last = fails.last().unwrap().0;
        let mut schedule = LifecycleSchedule::empty();
        for &(t, r) in &fails {
            schedule = schedule.with_event(LifecycleEvent::fail_stop(t, r));
        }
        let mut revived: Vec<usize> = fails.iter().map(|&(_, r)| r).collect();
        revived.sort_unstable();
        revived.dedup();
        for (i, &r) in revived.iter().enumerate() {
            schedule =
                schedule.with_event(LifecycleEvent::recover(last + 0.01 * (i as f64 + 1.0), r));
        }
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch)
            .with_group_lifecycle(0, schedule);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals: Box<dyn recpipe_data::ArrivalProcess> = if closed_loop {
            Box::new(ClosedLoopArrivals::new(clients, 0.005))
        } else {
            Box::new(MmppArrivals::new(60.0, 500.0, 0.2, 0.1))
        };
        let cfg = if shed_policy {
            LifecycleConfig::new().with_failure_policy(FailurePolicy::Shed)
        } else {
            LifecycleConfig::new()
        };
        let out = Scenario::new(&spec, arrivals.as_ref(), queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&cfg)
            .run()
            .unwrap();
        prop_assert_eq!(out.completed + out.shed + out.dropped, queries);
        if !shed_policy {
            prop_assert_eq!(out.completed, queries);
            prop_assert_eq!(out.shed + out.dropped, 0);
        }
        // Failure replay is reproducible like everything else.
        let again = Scenario::new(&spec, arrivals.as_ref(), queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&cfg)
            .run()
            .unwrap();
        prop_assert_eq!(out, again);
    }
}

// ------------------------------------------------------------------
// qsim v7: sharded parallel loop + decay-aware ExpectedWait
// ------------------------------------------------------------------

/// A two-stage pipeline with per-stage backends (pairwise-distinct
/// resource groups) — the shape the per-stage shard decomposition
/// accepts. The first group mixes generations so the speed-aware
/// machinery is exercised too.
fn two_backend_pipeline(
    fast: usize,
    slow: usize,
    speed_pct: u64,
    capacity: usize,
    replicas2: usize,
    max_batch: usize,
) -> PipelineSpec {
    let mut profiles = vec![ReplicaProfile::baseline(capacity); fast];
    profiles.extend(std::iter::repeat_n(
        ReplicaProfile::new(capacity, speed_pct as f64 / 100.0),
        slow,
    ));
    let mut spec = PipelineSpec::new(vec![
        ReplicaGroup::heterogeneous("filter", profiles),
        ReplicaGroup::replicated("rank", capacity, replicas2),
    ]);
    for (i, (s, g)) in [(0.004f64, 0usize), (0.002, 1)].into_iter().enumerate() {
        spec = spec
            .with_stage(
                StageSpec::new(format!("s{i}"), g, 1, s)
                    .with_batch(BatchModel::new(max_batch, 0.25)),
            )
            .unwrap();
    }
    spec
}

proptest! {
    #[test]
    fn sharded_loop_matches_the_serial_loop_for_any_worker_count(
        fast in 1usize..3,
        slow in 0usize..3,
        speed_pct in 20u64..100,
        capacity in 1usize..3,
        replicas2 in 1usize..4,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        queries in 100usize..600,
        seed in 0u64..200,
    ) {
        // The per-stage shard decomposition must be invisible: on a
        // shardable spec the shard driver reproduces the serial loop
        // bit-for-bit on one thread, two threads and every core
        // (workers = 1, 2, 0) across the router x policy x fleet x
        // batching matrix. The worker count is a wall-clock knob, never
        // a results knob.
        let spec = two_backend_pipeline(fast, slow, speed_pct, capacity, replicas2, max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let serial = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        for workers in [1usize, 2, 0] {
            let sharded = Scenario::new(&spec, &arrivals, queries, seed)
                .policy(policy.as_ref())
                .router(router.as_ref())
                .workers(workers)
                .run()
                .unwrap();
            prop_assert_eq!(&serial, &sharded, "workers = {}", workers);
        }
    }

    #[test]
    fn ineligible_specs_fall_back_to_the_serial_loop(
        servers in 1usize..4,
        max_batch in 1usize..6,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        closed in proptest::prelude::any::<bool>(),
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Both stages share one resource group, so the decomposition
        // cannot split them; closed-loop arrivals are likewise out of
        // reach. The sharded entry point must detect this and produce
        // the serial result (not wrong answers, not a panic).
        let spec = batched_pipeline(servers, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let (serial, sharded) = if closed {
            let arrivals = ClosedLoopArrivals::new(8, 0.01);
            (
                Scenario::new(&spec, &arrivals, queries, seed)
                    .policy(policy.as_ref())
                    .router(router.as_ref())
                    .run()
                    .unwrap(),
                Scenario::new(&spec, &arrivals, queries, seed)
                    .policy(policy.as_ref())
                    .router(router.as_ref())
                    .workers(0)
                    .run()
                    .unwrap(),
            )
        } else {
            let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
            (
                Scenario::new(&spec, &arrivals, queries, seed)
                    .policy(policy.as_ref())
                    .router(router.as_ref())
                    .run()
                    .unwrap(),
                Scenario::new(&spec, &arrivals, queries, seed)
                    .policy(policy.as_ref())
                    .router(router.as_ref())
                    .workers(0)
                    .run()
                    .unwrap(),
            )
        };
        prop_assert_eq!(serial, sharded);
    }
}

#[test]
fn decay_aware_expected_wait_never_worsens_the_two_generation_tail() {
    // The PR-5 ExpectedWait estimator booked every in-flight batch at
    // its full cost until completion, so a replica about to free up
    // looked as busy as one that just launched. The decay-aware
    // estimator subtracts elapsed service, which matters exactly where
    // generations mix: a slow replica's long batches dominate its
    // apparent backlog long after most of the work has drained. On a
    // two-generation fleet near saturation the decayed estimator's p99
    // must be no worse than the full-booking one's, pinned here per
    // seed as recorded from the frozen PR-5 loop before it was retired.
    let profiles = vec![
        ReplicaProfile::baseline(1),
        ReplicaProfile::baseline(1),
        ReplicaProfile::new(1, 0.4),
        ReplicaProfile::new(1, 0.4),
    ];
    let mut spec = PipelineSpec::new(vec![ReplicaGroup::heterogeneous("fleet", profiles)]);
    for (i, s) in [0.002f64, 0.010].into_iter().enumerate() {
        spec = spec
            .with_stage(StageSpec::new(format!("s{i}"), 0, 1, s))
            .unwrap();
    }
    let arrivals = PoissonArrivals::new(0.9 * spec.max_qps_at_full_batch());
    let full_booking_p99 = [
        (7u64, 0x3fbd_3403_b959_38bd),
        (11, 0x3fb6_aaad_f19d_f01e),
        (23, 0x3fb4_e456_1195_bace),
        (42, 0x3fba_4c69_b6b9_2059),
        (101, 0x3fb8_f159_0018_cbf6),
    ];
    let mut improved = 0usize;
    for (seed, bits) in full_booking_p99 {
        let full_booking = f64::from_bits(bits);
        let decayed = Scenario::new(&spec, &arrivals, 4_000, seed)
            .router(&ExpectedWait)
            .run()
            .unwrap()
            .p99_seconds();
        assert!(
            decayed <= full_booking + 1e-9,
            "seed {seed}: decayed p99 {decayed} > full-booking p99 {full_booking}",
        );
        if decayed + 1e-12 < full_booking {
            improved += 1;
        }
    }
    // The improvement is real, not a wash: the tail strictly improves
    // on most seeds of this near-saturated mixed fleet.
    assert!(
        improved >= 3,
        "decay made a strict difference on only {improved}/5 seeds"
    );
}

// ------------------------------------------------------------------
// qsim v8: multi-path admission
// ------------------------------------------------------------------

/// The admission-policy rotation: the admit-everything baseline, a
/// deadline policy, and the load-adaptive pair (degrading and
/// shed-only ablation).
fn admission_for(idx: usize) -> Box<dyn AdmissionPolicy> {
    match idx % 4 {
        0 => Box::new(AlwaysPrimary),
        1 => Box::new(DeadlineAware::new(0.05)),
        2 => Box::new(LoadAdaptive::new(1.5, 0.75)),
        _ => Box::new(LoadAdaptive::new(0.8, 0.5).without_degradation()),
    }
}

/// A two-path ladder over one shared replicated fleet: the primary's
/// batched two-stage funnel plus a cheap single-stage alternate.
fn two_path_ladder(
    replicas: usize,
    capacity: usize,
    max_batch: usize,
    lite_quality: f64,
) -> PathSet {
    PathSet::new(vec![ReplicaGroup::replicated("fleet", capacity, replicas)])
        .with_path(
            "full",
            1.0,
            vec![
                StageSpec::new("filter", 0, 1, 0.004).with_batch(BatchModel::new(max_batch, 0.25)),
                StageSpec::new("rank", 0, 1, 0.002).with_batch(BatchModel::new(max_batch, 0.25)),
            ],
        )
        .unwrap()
        .with_path(
            "lite",
            lite_quality,
            vec![StageSpec::new("lite", 0, 1, 0.001)],
        )
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_path_always_primary_pins_the_routed_loop_bit_for_bit(
        replicas in 1usize..4,
        capacity in 1usize..3,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        quality in 0.0f64..1.0,
        queries in 100usize..600,
        seed in 0u64..200,
    ) {
        // The multi-path machinery must be invisible when unused: a
        // single-path set under the admit-everything policy and a
        // default lifecycle produces the PR-7 routed loop's result
        // bit-for-bit across the router x policy x fleet x batching
        // matrix -- AlwaysPrimary draws no randomness and schedules no
        // events, so the event streams are identical, not just the
        // summaries.
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let routed = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        let paths = PathSet::single(spec, quality);
        let mut multi = Scenario::multipath(&paths, &AlwaysPrimary, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        prop_assert_eq!(multi.paths.len(), 1);
        prop_assert_eq!(multi.paths[0].admitted, queries);
        prop_assert_eq!(multi.paths[0].completed, queries);
        prop_assert_eq!(multi.admission_shed, 0);
        // Strip the multipath-only accounting; everything else matches
        // the PR-7 loop exactly.
        multi.paths.clear();
        multi.admission_shed = 0;
        prop_assert_eq!(routed, multi);
    }

    #[test]
    fn admission_conserves_every_query_across_policies(
        replicas in 1usize..4,
        capacity in 1usize..3,
        max_batch in 1usize..6,
        admission_idx in 0usize..4,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        lite_quality_pct in 10u64..100,
        queries in 100usize..500,
        seed in 0u64..100,
    ) {
        // Whatever the admission policy decides, every injected query
        // is accounted for exactly once: admitted to some path or shed
        // at the door, and every admitted query completes, is shed by
        // lifecycle, or is dropped -- per path and in aggregate.
        let paths = two_path_ladder(
            replicas,
            capacity,
            max_batch,
            lite_quality_pct as f64 / 100.0,
        );
        let admission = admission_for(admission_idx);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let out = Scenario::multipath(&paths, admission.as_ref(), &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        let admitted: usize = out.paths.iter().map(|p| p.admitted).sum();
        let completed: usize = out.paths.iter().map(|p| p.completed).sum();
        let path_shed: usize = out.paths.iter().map(|p| p.shed).sum();
        let path_dropped: usize = out.paths.iter().map(|p| p.dropped).sum();
        prop_assert_eq!(admitted + out.admission_shed, queries);
        prop_assert_eq!(completed, out.completed);
        prop_assert_eq!(out.shed, out.admission_shed + path_shed);
        prop_assert_eq!(out.dropped, path_dropped);
        for p in &out.paths {
            prop_assert_eq!(p.admitted, p.completed + p.shed + p.dropped);
        }
        prop_assert_eq!(out.completed + out.shed + out.dropped, queries);
        // Quality-weighted goodput is bounded by raw throughput times
        // the best path quality.
        prop_assert!(out.quality_goodput() <= out.qps * 1.0 + 1e-9);
        // Admission decisions replay deterministically.
        let again = Scenario::multipath(&paths, admission.as_ref(), &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        prop_assert_eq!(out, again);
    }
}

/// A replicated batched fleet with a lifecycle schedule attached — the
/// shape the resilience properties run against.
fn faulted_pipeline(
    replicas: usize,
    capacity: usize,
    stages: Vec<f64>,
    max_batch: usize,
    schedule: LifecycleSchedule,
) -> PipelineSpec {
    let group = ReplicaGroup::replicated("fleet", capacity, replicas).with_lifecycle(schedule);
    let mut spec = PipelineSpec::new(vec![group]);
    for (i, s) in stages.into_iter().enumerate() {
        spec = spec
            .with_stage(
                StageSpec::new(format!("s{i}"), 0, 1, s)
                    .with_batch(BatchModel::new(max_batch, 0.25)),
            )
            .unwrap();
    }
    spec
}

/// The retry rotation the conservation property walks: no retries,
/// plain exponential backoff, jittered backoff, and a budgeted policy.
fn retry_for(idx: usize) -> RetryPolicy {
    match idx % 4 {
        0 => RetryPolicy::none(),
        1 => RetryPolicy::new(3, 0.002, 2.0).with_backoff_cap(0.010),
        2 => RetryPolicy::new(4, 0.001, 2.0).with_jitter(0.5),
        _ => RetryPolicy::new(3, 0.002, 2.0).with_budget(RetryBudget::new(5.0, 0.1)),
    }
}

/// The hedge rotation: no hedging, fixed-delay, quantile-derived.
fn hedge_for(idx: usize) -> Option<HedgePolicy> {
    match idx % 3 {
        0 => None,
        1 => Some(HedgePolicy::after(0.004)),
        _ => Some(HedgePolicy::at_quantile(0.95)),
    }
}

/// The fault rotation: a healthy fleet, a correlated degrade burst, a
/// fail-stop burst that recovers (so Requeue stays legal even on a
/// single-replica fleet), and both at once.
fn faults_for(idx: usize, replicas: usize, seed: u64) -> LifecycleSchedule {
    let plan = FaultPlan::new(seed);
    let hit = replicas.div_ceil(2);
    let plan = match idx % 4 {
        0 => plan,
        1 => plan.degrade_burst(0.05, hit, 0.25),
        2 => plan.burst(recpipe_qsim::FaultBurst {
            time: 0.05,
            kind: recpipe_qsim::FaultKind::FailStop,
            count: hit,
            recover_after_s: Some(0.3),
        }),
        _ => plan
            .degrade_burst(0.05, hit, 0.4)
            .burst(recpipe_qsim::FaultBurst {
                time: 0.2,
                kind: recpipe_qsim::FaultKind::FailStop,
                count: 1,
                recover_after_s: Some(0.2),
            }),
    };
    plan.expand(replicas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn inert_resilience_pins_the_routed_loop_bit_for_bit(
        replicas in 1usize..4,
        capacity in 1usize..3,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        retry_idx in 0usize..4,
        queries in 100usize..600,
        seed in 0u64..200,
    ) {
        // The resilience machinery must be invisible when unused: an
        // inert ResilienceConfig (no timeout, no hedge — a retry policy
        // alone arms nothing) under a default lifecycle produces the
        // PR-8 routed loop's result bit-for-bit across the router x
        // policy x fleet x batching matrix. The packed query ids stay
        // in the gen-0/lane-0 encoding, which is byte-identical to the
        // plain encoding, so the event streams match exactly — not
        // just the summaries.
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let inert = ResilienceConfig::new().with_retry(retry_for(retry_idx));
        let routed = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        let mut resilient = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .resilience(&inert)
            .run()
            .unwrap();
        let stats = resilient.resilience.take().expect("resilient runs report stats");
        prop_assert_eq!(&stats.retries, &vec![0; retry_for(retry_idx).max_attempts() - 1]);
        prop_assert_eq!(stats.timeouts, 0);
        prop_assert_eq!(stats.timed_out, 0);
        prop_assert_eq!(stats.total_retries(), 0);
        prop_assert_eq!(stats.hedges_issued, 0);
        prop_assert_eq!(routed, resilient);
    }

    #[test]
    fn resilience_conserves_every_query_under_fault_retry_hedge_rotation(
        replicas in 1usize..4,
        capacity in 1usize..3,
        max_batch in 1usize..6,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        retry_idx in 0usize..4,
        hedge_idx in 0usize..3,
        fault_idx in 0usize..4,
        shed_on_failure in proptest::prelude::any::<bool>(),
        timeout_ms in 4u64..40,
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Whatever the fault x retry x hedge combination does to
        // individual attempts, every injected query resolves exactly
        // once: completed, shed (by lifecycle stranding or the
        // end-of-run sweep), dropped, or timed-out-final.
        let schedule = faults_for(fault_idx, replicas, seed ^ 0xfa157);
        let spec = faulted_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch, schedule);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let mut resilience = ResilienceConfig::new()
            .with_timeout(timeout_ms as f64 / 1e3)
            .with_retry(retry_for(retry_idx));
        if let Some(h) = hedge_for(hedge_idx) {
            resilience = resilience.with_hedge(h);
        }
        let cfg = LifecycleConfig::new().with_failure_policy(if shed_on_failure {
            FailurePolicy::Shed
        } else {
            FailurePolicy::Requeue
        });
        let out = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&cfg)
            .resilience(&resilience)
            .run()
            .unwrap();
        let stats = out.resilience.as_ref().expect("resilient runs report stats");
        prop_assert_eq!(
            out.completed + out.shed + out.dropped + stats.timed_out,
            queries
        );
        // Attempt-level sanity: hedges never outnumber issues, retries
        // respect the policy's attempt cap, and every fired timeout is
        // either retried or resolves its query.
        prop_assert!(stats.hedges_won <= stats.hedges_issued);
        let max_retries = retry_for(retry_idx).max_attempts() - 1;
        prop_assert!(stats.total_retries() <= queries * max_retries);
        prop_assert_eq!(stats.timeouts, stats.total_retries() + stats.timed_out);
        prop_assert!(stats.retries_denied <= stats.timed_out);
        prop_assert!(stats.wasted_service_s >= 0.0);
        // The whole run replays deterministically from the same seed.
        let again = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&cfg)
            .resilience(&resilience)
            .run()
            .unwrap();
        prop_assert_eq!(out, again);
    }
}

/// Test controller for the autoscale conservation property: demands
/// `hi` replicas while a window leaves queries waiting, `lo` once the
/// backlog clears — a deterministic closed loop driven only by the
/// windowed telemetry, so replays are bit-exact.
struct PressureController {
    lo: usize,
    hi: usize,
}

impl FleetController for PressureController {
    fn name(&self) -> String {
        format!("pressure({},{})", self.lo, self.hi)
    }

    fn desired_replicas(&mut self, window: &WindowStats, _live: usize) -> usize {
        if window.mean_queue_depth > 0.5 {
            self.hi
        } else {
            self.lo
        }
    }
}

proptest! {
    #[test]
    fn serve_autoscaled_conserves_queries_and_replays(
        replicas in 2usize..5,
        capacity in 1usize..3,
        max_batch in 1usize..4,
        policy_idx in 0usize..3,
        router_idx in 0usize..4,
        initial_pct in 0u64..=100,
        window_cs in 5u64..30,
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Closed-loop resizing may grow, drain, and re-grow the fleet
        // mid-run, but the accounting is conserved: every injected
        // query completes, is shed, or is dropped; the live fleet never
        // leaves the configured band; and the whole run -- controller
        // decisions included -- replays bit-for-bit from the seed.
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let initial = (1 + initial_pct as usize * (replicas - 1) / 100).clamp(1, replicas);
        let cfg = AutoscaleConfig::new(0, 1, replicas, window_cs as f64 / 100.0)
            .with_initial_replicas(initial);
        let run = || {
            Scenario::new(&spec, &arrivals, queries, seed)
                .policy(policy.as_ref())
                .router(router.as_ref())
                .autoscale(&cfg, &mut PressureController { lo: 1, hi: replicas })
                .run()
                .unwrap()
        };
        let out = run();
        prop_assert_eq!(out.completed + out.shed + out.dropped, queries);
        prop_assert!(!out.windows.is_empty());
        for w in &out.windows {
            prop_assert!(
                w.live_replicas >= 1 && w.live_replicas <= replicas,
                "live fleet {} outside the [1, {}] band",
                w.live_replicas,
                replicas
            );
        }
        let again = run();
        prop_assert_eq!(out, again);
    }
}

// ---------------------------------------------------------------------------
// The pinned shorthands: each is one `Scenario` expression, so each
// must equal that expression bit for bit on a run that exercises it.
// ---------------------------------------------------------------------------

#[test]
fn shorthands_equal_their_scenario_expressions() {
    let spec = two_backend_pipeline(2, 1, 50, 2, 3, 4).with_group_lifecycle(
        1,
        LifecycleSchedule::empty()
            .with_event(LifecycleEvent::fail_stop(0.5, 0))
            .with_event(LifecycleEvent::recover(0.8, 0)),
    );
    let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
    let policy = BatchWindow::new(0.002);
    let cfg = LifecycleConfig::new().with_window(0.25);
    let resilience = ResilienceConfig::new()
        .with_timeout(0.05)
        .with_retry(RetryPolicy::new(2, 0.005, 2.0));
    let (n, seed) = (1_500, 9);
    let base = || {
        Scenario::new(&spec, &arrivals, n, seed)
            .policy(&policy)
            .router(&JoinShortestQueue)
    };

    let routed = base().run().unwrap();
    assert_eq!(
        serve_routed(&spec, &arrivals, &policy, &JoinShortestQueue, n, seed),
        routed
    );
    for workers in [1, 0] {
        assert_eq!(
            serve_routed_sharded(
                &spec,
                &arrivals,
                &policy,
                &JoinShortestQueue,
                n,
                seed,
                workers
            ),
            routed
        );
    }
    assert_eq!(
        serve_lifecycle(&spec, &arrivals, &policy, &JoinShortestQueue, n, seed, &cfg),
        base().lifecycle(&cfg).run()
    );
    assert_eq!(
        serve_resilient(
            &spec,
            &arrivals,
            &policy,
            &JoinShortestQueue,
            n,
            seed,
            &cfg,
            &resilience
        ),
        base().lifecycle(&cfg).resilience(&resilience).run()
    );
    assert_eq!(
        spec.simulate(300.0, n, seed),
        Scenario::new(&spec, &PoissonArrivals::new(300.0), n, seed)
            .run()
            .unwrap()
    );
}
