//! Conservation properties of the runtime pairs that serve together:
//! multi-path admission with resilience, multi-path admission with
//! autoscaling, and autoscaling with resilience. Whatever the pair does
//! to individual attempts and replicas, every query resolves exactly
//! once, in the run and on its path, and the window series adds up to
//! the run's counts.

use proptest::prelude::*;

use recpipe_data::MmppArrivals;
use recpipe_qsim::{
    AdmissionPolicy, AlwaysPrimary, AutoscaleConfig, BatchModel, DeadlineAware, FailurePolicy,
    FaultBurst, FaultKind, FaultPlan, FleetController, HedgePolicy, LifecycleConfig,
    LifecycleSchedule, LoadAdaptive, PathSet, PipelineSpec, ReplicaGroup, ResilienceConfig,
    RetryBudget, RetryPolicy, Scenario, SimResult, StageSpec, WindowStats,
};

/// The admission rotation: admit-everything, a deadline policy, and
/// the load-adaptive pair (degrading and shed-only).
fn admission_for(idx: usize) -> Box<dyn AdmissionPolicy> {
    match idx % 4 {
        0 => Box::new(AlwaysPrimary),
        1 => Box::new(DeadlineAware::new(0.05)),
        2 => Box::new(LoadAdaptive::new(1.5, 0.75)),
        _ => Box::new(LoadAdaptive::new(0.8, 0.5).without_degradation()),
    }
}

/// A timeout of `timeout_ms`, the retry rotation (none, capped
/// backoff, jittered, budgeted) and the hedge rotation (none, fixed,
/// quantile).
fn resilience_for(timeout_ms: u64, retry_idx: usize, hedge_idx: usize) -> ResilienceConfig {
    let retry = match retry_idx % 4 {
        0 => RetryPolicy::none(),
        1 => RetryPolicy::new(3, 0.002, 2.0).with_backoff_cap(0.010),
        2 => RetryPolicy::new(4, 0.001, 2.0).with_jitter(0.5),
        _ => RetryPolicy::new(3, 0.002, 2.0).with_budget(RetryBudget::new(5.0, 0.1)),
    };
    let cfg = ResilienceConfig::new()
        .with_timeout(timeout_ms as f64 / 1e3)
        .with_retry(retry);
    match hedge_idx % 3 {
        0 => cfg,
        1 => cfg.with_hedge(HedgePolicy::after(0.004)),
        _ => cfg.with_hedge(HedgePolicy::at_quantile(0.95)),
    }
}

/// The fault rotation over `replicas` slots: healthy, a limp burst, a
/// recovering fail-stop burst, and both.
fn faults_for(idx: usize, replicas: usize, seed: u64) -> LifecycleSchedule {
    let (plan, hit) = (FaultPlan::new(seed), replicas.div_ceil(2));
    let fail_stop = |time, count, recover| FaultBurst {
        time,
        kind: FaultKind::FailStop,
        count,
        recover_after_s: Some(recover),
    };
    let plan = match idx % 4 {
        0 => plan,
        1 => plan.degrade_burst(0.05, hit, 0.25),
        2 => plan.burst(fail_stop(0.05, hit, 0.3)),
        _ => plan
            .degrade_burst(0.05, hit, 0.4)
            .burst(fail_stop(0.2, 1, 0.2)),
    };
    plan.expand(replicas)
}

fn failure_policy(shed: bool) -> FailurePolicy {
    if shed {
        FailurePolicy::Shed
    } else {
        FailurePolicy::Requeue
    }
}

/// A two-path ladder over one replicated fleet running `lives`: the
/// primary's batched two-stage funnel and a cheap one-stage alternate.
fn ladder(replicas: usize, capacity: usize, max_batch: usize, lives: LifecycleSchedule) -> PathSet {
    let group = ReplicaGroup::replicated("fleet", capacity, replicas).with_lifecycle(lives);
    let batched = |name, service| {
        StageSpec::new(name, 0, 1, service).with_batch(BatchModel::new(max_batch, 0.25))
    };
    PathSet::new(vec![group])
        .with_path(
            "full",
            1.0,
            vec![batched("filter", 0.004), batched("rank", 0.002)],
        )
        .unwrap()
        .with_path("lite", 0.8, vec![batched("lite", 0.001)])
        .unwrap()
}

/// Demands `hi` replicas while a window leaves queries waiting, `lo`
/// once the backlog clears.
struct Pressure {
    lo: usize,
    hi: usize,
}

impl FleetController for Pressure {
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

/// Checks every ledger of a run of `n` queries: the run's, each path's
/// and admission's on multi-path runs, resilience's, and the window
/// series'.
fn ledgers_add_up(out: &SimResult, n: usize) {
    let timed_out = out.timed_out();
    assert_eq!(out.completed + out.shed + out.dropped + timed_out, n);
    if let Some(r) = &out.resilience {
        assert_eq!(r.timeouts, r.total_retries() + r.timed_out);
        assert!(r.retries_denied <= r.timed_out);
    }
    if !out.paths.is_empty() {
        let sum = |f: fn(&recpipe_qsim::PathStats) -> usize| out.paths.iter().map(f).sum::<usize>();
        assert_eq!(sum(|p| p.admitted) + out.admission_shed, n);
        for p in &out.paths {
            assert_eq!(p.admitted, p.completed + p.shed + p.dropped + p.timed_out);
        }
        assert_eq!(sum(|p| p.completed), out.completed);
        assert_eq!(sum(|p| p.shed) + out.admission_shed, out.shed);
        assert_eq!(sum(|p| p.dropped), out.dropped);
        assert_eq!(sum(|p| p.timed_out), timed_out);
    }
    assert!(!out.windows.is_empty());
    let total = |f: fn(&WindowStats) -> usize| out.windows.iter().map(f).sum::<usize>();
    assert_eq!(total(|w| w.arrivals), n);
    assert_eq!(total(|w| w.completed), out.completed);
    assert_eq!(total(|w| w.shed), out.shed);
    assert_eq!(total(|w| w.dropped), out.dropped);
    assert_eq!(total(|w| w.timed_out), timed_out);
    for (p, path) in out.paths.iter().enumerate() {
        let admitted: usize = out.windows.iter().map(|w| w.path_admitted[p]).sum();
        let completed: usize = out.windows.iter().map(|w| w.path_completed[p]).sum();
        assert_eq!((admitted, completed), (path.admitted, path.completed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multipath_and_resilience_conserve_every_query(
        replicas in 1usize..4,
        capacity in 1usize..3,
        max_batch in 1usize..6,
        admission_idx in 0usize..4,
        retry_idx in 0usize..4,
        hedge_idx in 0usize..3,
        fault_idx in 0usize..4,
        shed_on_failure in any::<bool>(),
        timeout_ms in 4u64..40,
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Retries and hedges re-enter their own path's first stage, and
        // a timed-out query counts on its path.
        let paths = ladder(replicas, capacity, max_batch, faults_for(fault_idx, replicas, seed));
        let admission = admission_for(admission_idx);
        let resilience = resilience_for(timeout_ms, retry_idx, hedge_idx);
        let lifecycle = LifecycleConfig::new()
            .with_failure_policy(failure_policy(shed_on_failure))
            .with_window(0.1);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let run = || {
            Scenario::multipath(&paths, admission.as_ref(), &arrivals, queries, seed)
                .lifecycle(&lifecycle)
                .resilience(&resilience)
                .run()
                .unwrap()
        };
        let out = run();
        ledgers_add_up(&out, queries);
        prop_assert_eq!(out, run());
    }

    #[test]
    fn multipath_and_autoscale_conserve_every_query(
        replicas in 2usize..5,
        capacity in 1usize..3,
        max_batch in 1usize..4,
        admission_idx in 0usize..4,
        initial_pct in 0u64..=100,
        window_cs in 5u64..30,
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // The controller resizes the fleet every path shares.
        let paths = ladder(replicas, capacity, max_batch, LifecycleSchedule::empty());
        let admission = admission_for(admission_idx);
        let initial = (1 + initial_pct as usize * (replicas - 1) / 100).clamp(1, replicas);
        let cfg = AutoscaleConfig::new(0, 1, replicas, window_cs as f64 / 100.0)
            .with_initial_replicas(initial);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let run = || {
            Scenario::multipath(&paths, admission.as_ref(), &arrivals, queries, seed)
                .autoscale(&cfg, &mut Pressure { lo: 1, hi: replicas })
                .run()
                .unwrap()
        };
        let out = run();
        ledgers_add_up(&out, queries);
        prop_assert_eq!(out, run());
    }

    #[test]
    fn autoscale_and_resilience_conserve_every_query(
        replicas in 2usize..5,
        capacity in 1usize..3,
        max_batch in 1usize..4,
        retry_idx in 0usize..4,
        hedge_idx in 0usize..3,
        fault_idx in 0usize..4,
        initial_pct in 0u64..=100,
        window_cs in 5u64..30,
        timeout_ms in 4u64..40,
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Retries and hedges ride a fleet that faults and is resized.
        let group = ReplicaGroup::replicated("fleet", capacity, replicas)
            .with_lifecycle(faults_for(fault_idx, replicas, seed));
        let spec = [("filter", 0.004), ("rank", 0.002)].into_iter().fold(
            PipelineSpec::new(vec![group]),
            |spec, (name, service)| {
                let stage = StageSpec::new(name, 0, 1, service);
                spec.with_stage(stage.with_batch(BatchModel::new(max_batch, 0.25)))
                    .unwrap()
            },
        );
        let resilience = resilience_for(timeout_ms, retry_idx, hedge_idx);
        let initial = (1 + initial_pct as usize * (replicas - 1) / 100).clamp(1, replicas);
        let cfg = AutoscaleConfig::new(0, 1, replicas, window_cs as f64 / 100.0)
            .with_initial_replicas(initial);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let run = || {
            Scenario::new(&spec, &arrivals, queries, seed)
                .resilience(&resilience)
                .autoscale(&cfg, &mut Pressure { lo: 1, hi: replicas })
                .run()
                .unwrap()
        };
        let out = run();
        ledgers_add_up(&out, queries);
        prop_assert_eq!(out, run());
    }
}
