//! Brown-out under an overload ramp: quality degradation vs load
//! shedding on one shared fleet.
//!
//! When offered load passes a fleet's capacity, something has to give.
//! The classic answer is *shedding* — reject queries until the queue
//! drains — which protects the tail by serving fewer users. Multi-path
//! serving adds a gentler lever: keep answering every query, but walk
//! overflow traffic down a ladder of cheaper model paths (RMlarge
//! funnel → RMmed funnel → RMsmall filter) that trade a little NDCG
//! for a lot of throughput. This example rides a diurnal ramp whose
//! peak is 3x the primary path's capacity and races four admission
//! policies over the *same* three-path ladder:
//!
//! * **always-primary** — no protection: the backlog grows without
//!   bound through the peak and the tail explodes;
//! * **load-adaptive (shed-only)** — the classic brown-out: above the
//!   pressure knee, arrivals are rejected outright;
//! * **load-adaptive (degrade)** — the same knee, but overload walks
//!   down the path ladder first and sheds only past its bottom;
//! * **deadline-aware** — per-query slack routing: the best path whose
//!   estimated latency still fits a 50 ms deadline.
//!
//! The scoreboard is *quality-weighted goodput* (completions per
//! second, each weighted by its path's quality score): shedding trades
//! completions for quality-per-completion, degradation keeps the
//! completions and pays a small quality discount — and wins.
//!
//! A last run composes the degrading policy with query-level
//! resilience — a timeout, a retry and a hedge — on a fleet of two
//! replicas, one of which limps through the middle of the day. Retries
//! and hedges re-enter their own query's path, and every query is still
//! counted once, on its path.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example brownout_serving
//! ```

use recpipe::core::{AdmissionSweep, Scheduler, Table};
use recpipe::data::DiurnalArrivals;
use recpipe::qsim::{
    Fifo, HedgePolicy, JoinShortestQueue, LifecycleConfig, LifecycleEvent, LifecycleSchedule,
    LoadAdaptive, PathSet, ReplicaGroup, ResilienceConfig, RetryPolicy, Scenario, StageSpec,
};

/// Queries in the compressed day.
const QUERIES: usize = 40_000;
/// The worker fleet's unit capacity (8 units -> 800 QPS on the primary
/// path).
const CAPACITY: usize = 8;

/// The day's traffic: trough 400 QPS at t = 0, peak 2400 QPS at
/// t = 20 — half the primary path's capacity at night, 3x at the peak.
fn ramp() -> DiurnalArrivals {
    DiurnalArrivals::new(400.0, 2400.0, 40.0)
}

/// The degradation ladder: three paths over one shared worker fleet, in
/// decreasing quality order. Per-path sustainable throughput at 8
/// units: full 800 QPS, mid 2000 QPS, lite ~5300 QPS — only the
/// lightest path can absorb the peak.
fn ladder(fleet: ReplicaGroup) -> PathSet {
    PathSet::new(vec![fleet])
        .with_path("full", 1.00, vec![StageSpec::new("rm-large", 0, 1, 0.010)])
        .expect("full path fits the fleet")
        .with_path("mid", 0.92, vec![StageSpec::new("rm-med", 0, 1, 0.004)])
        .expect("mid path fits the fleet")
        .with_path("lite", 0.80, vec![StageSpec::new("rm-small", 0, 1, 0.0015)])
        .expect("lite path fits the fleet")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paths = ladder(ReplicaGroup::replicated("worker", CAPACITY, 1));
    let sweep = AdmissionSweep {
        include_always_primary: true,
        knees: vec![(1.5, 0.75)],
        include_shed_only: true,
        deadlines_s: vec![0.050],
    };
    let outcomes = sweep.run(
        &paths,
        &ramp(),
        &Fifo,
        &JoinShortestQueue,
        QUERIES,
        17,
        &LifecycleConfig::new(),
    )?;

    println!(
        "Overload ramp ({} queries, trough 400 / peak 2400 QPS) over a {}-unit fleet;\n\
         ladder: full (q=1.00, 800 QPS) -> mid (q=0.92, 2000 QPS) -> lite (q=0.80, 5333 QPS)\n",
        QUERIES, CAPACITY
    );
    let mut table = Table::new(vec![
        "policy",
        "qps",
        "p99 ms",
        "shed %",
        "mean quality",
        "quality goodput",
    ]);
    for o in &outcomes {
        table.row(vec![
            o.policy.clone(),
            format!("{:.0}", o.qps),
            format!("{:.1}", o.p99_s * 1e3),
            format!("{:.1}", o.shed_rate * 100.0),
            format!("{:.3}", o.mean_quality()),
            format!("{:.0}", o.quality_goodput),
        ]);
    }
    println!("{table}");

    let by_name = |needle: &str| {
        outcomes
            .iter()
            .find(|o| o.policy.contains(needle))
            .expect("sweep ran the policy")
    };
    let primary = by_name("always-primary");
    let shed_only = by_name("shed-only");
    let degrade = by_name("degrade");

    // (a) Every query is accounted for, whatever the policy decided.
    for o in &outcomes {
        let admitted: usize = o.paths.iter().map(|p| p.admitted).sum();
        let completed: usize = o.paths.iter().map(|p| p.completed).sum();
        assert_eq!(
            admitted + (o.shed_rate * QUERIES as f64).round() as usize,
            QUERIES,
            "{}: admitted + shed must cover every arrival",
            o.policy
        );
        assert_eq!(
            completed, admitted,
            "{}: no lifecycle losses here",
            o.policy
        );
    }
    println!("conservation: all four runs account for every one of the {QUERIES} queries");

    // (b) The headline: degrade-then-shed beats shed-only on
    // quality-weighted goodput. Shedding protects quality-per-answer at
    // 1.00 but throws the overflow away; the ladder answers it at
    // 0.92/0.80 and keeps the goodput.
    assert!(
        degrade.quality_goodput > shed_only.quality_goodput,
        "degrade goodput {:.0} must beat shed-only {:.0}",
        degrade.quality_goodput,
        shed_only.quality_goodput
    );
    println!(
        "degradation beats shedding on quality-weighted goodput: {:.0} vs {:.0} \
         (+{:.0}%)",
        degrade.quality_goodput,
        shed_only.quality_goodput,
        100.0 * (degrade.quality_goodput / shed_only.quality_goodput - 1.0)
    );

    // (c) ... while also losing far fewer queries ...
    assert!(
        degrade.shed_rate < shed_only.shed_rate,
        "degrade shed rate {:.3} must be below shed-only {:.3}",
        degrade.shed_rate,
        shed_only.shed_rate
    );

    // (d) ... and both brown-out policies keep the tail orders of
    // magnitude below the unprotected run, which queues without bound
    // through the peak.
    assert!(
        degrade.p99_s < primary.p99_s && shed_only.p99_s < primary.p99_s,
        "brown-out must protect the tail: degrade {:.3}s / shed-only {:.3}s vs \
         unprotected {:.3}s",
        degrade.p99_s,
        shed_only.p99_s,
        primary.p99_s
    );
    println!(
        "brown-out protects the tail: p99 {:.0} ms (degrade) / {:.0} ms (shed-only) \
         vs {:.0} ms unprotected",
        degrade.p99_s * 1e3,
        shed_only.p99_s * 1e3,
        primary.p99_s * 1e3
    );

    // (e) The three-objective front (maximize goodput, minimize p99,
    // minimize shed) keeps the degrading policies: whoever tops the
    // front's goodput axis got there by walking the ladder, not by
    // rejecting users.
    let front = Scheduler::pareto_brownout(outcomes.clone());
    println!(
        "\nbrown-out Pareto front ({} of {} policies):",
        front.len(),
        outcomes.len()
    );
    for o in front.iter() {
        println!(
            "  {:<32} goodput {:>5.0}  p99 {:>7.1} ms  shed {:>4.1}%",
            o.policy,
            o.quality_goodput,
            o.p99_s * 1e3,
            o.shed_rate * 100.0
        );
    }
    let best = front
        .iter()
        .max_by(|a, b| a.quality_goodput.partial_cmp(&b.quality_goodput).unwrap())
        .expect("front is never empty");
    assert!(
        !best.policy.contains("always-primary") && !best.policy.contains("shed-only"),
        "the front's goodput champion must be a degrading policy, got {}",
        best.policy
    );
    println!("\ngoodput champion on the front: {}", best.policy);

    // (f) The degrading policy again, with a 30 ms timeout, one retry
    // and a hedge after 15 ms, on two 4-unit replicas; replica 1 limps
    // at 30% speed from t = 10 to t = 30, through the peak.
    let limp = LifecycleSchedule::empty()
        .with_event(LifecycleEvent::degrade(10.0, 1, 0.3))
        .with_event(LifecycleEvent::recover(30.0, 1));
    let limping = ladder(ReplicaGroup::replicated("worker", CAPACITY / 2, 2).with_lifecycle(limp));
    let resilience = ResilienceConfig::new()
        .with_timeout(0.030)
        .with_retry(RetryPolicy::new(2, 0.005, 2.0))
        .with_hedge(HedgePolicy::after(0.015));
    let degrading = LoadAdaptive::new(1.5, 0.75);
    let out = Scenario::multipath(&limping, &degrading, &ramp(), QUERIES, 17)
        .router(&JoinShortestQueue)
        .resilience(&resilience)
        .run()?;
    let stats = out
        .resilience
        .as_ref()
        .expect("resilient runs report stats");
    println!(
        "\nload-adaptive (degrade) + timeout, retry and hedge, replica 1 limping: \
         {} completed, {} shed at admission, {} timed out; {} retries, {} of {} hedges won",
        out.completed,
        out.admission_shed,
        stats.timed_out,
        stats.total_retries(),
        stats.hedges_won,
        stats.hedges_issued
    );
    let admitted: usize = out.paths.iter().map(|p| p.admitted).sum();
    assert_eq!(
        admitted + out.admission_shed,
        QUERIES,
        "admitted + shed at admission must cover every arrival"
    );
    for p in &out.paths {
        assert_eq!(
            p.admitted,
            p.completed + p.shed + p.dropped + p.timed_out,
            "path {}: every admitted query resolves once, on its path",
            p.name
        );
    }
    println!("conservation: every path's admissions resolve on that path");
    Ok(())
}
