//! Query-level resilience on a gray-failing fleet: hedged requests
//! against a limping replica, and retry budgets against retry storms.
//!
//! Fleets don't just fail cleanly. The nastier production mode is
//! *limpware* — a replica that keeps accepting work at a fraction of
//! its profile speed (failing NIC, thermal throttling, a noisy
//! neighbor) and is therefore invisible to availability masking: the
//! router still sees it as up, and an oblivious balancer keeps feeding
//! it. This example injects exactly that fault and shows the two
//! classic client-side defenses doing their jobs:
//!
//! * **Hedged requests** — a 4-replica fleet has one replica degraded
//!   to 25% speed. Round-robin routing strands a quarter of the
//!   traffic behind it and the tail explodes. Re-running with a hedge
//!   (duplicate any attempt still outstanding after 50 ms onto a
//!   *different* replica; first completion wins, the loser is
//!   cancelled lazily) collapses p99 by orders of magnitude for a
//!   modest wasted-work bill.
//! * **Retry budgets** — the same fleet, healthy, hit by a flash
//!   crowd: steady 250 QPS with a 1.5 s burst at 1600 QPS, against
//!   400 QPS of capacity. With a 50 ms timeout and up to 3 retries,
//!   the burst's backlog makes *every* query time out — and unbounded
//!   retries turn 250 QPS of offered load into ~1000 QPS of attempts,
//!   a metastable congestion collapse that outlives the burst by the
//!   rest of the run. A global retry *budget* (token bucket refilled
//!   by successes) drains under the storm, resolves further timeouts
//!   as final, and lets the fleet work off the backlog — goodput
//!   recovers.
//!
//! Both headline comparisons are asserted, along with the resilience
//! ledger: every query resolves exactly once as completed, shed,
//! dropped, or timed-out-final.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example resilient_serving
//! ```

use recpipe::core::Table;
use recpipe::data::{PoissonArrivals, TraceArrivals};
use recpipe::qsim::{
    HedgePolicy, LifecycleConfig, LifecycleEvent, LifecycleSchedule, PipelineSpec, ReplicaGroup,
    ResilienceConfig, RetryBudget, RetryPolicy, Scenario, SimResult, StageSpec,
};

/// Replicas in the worker fleet (100 QPS each on the 10 ms stage).
const REPLICAS: usize = 4;
/// The limping replica's speed as a fraction of its profile.
const LIMP_SPEED: f64 = 0.25;
/// A timeout that never fires inside these runs — it arms the
/// resilience machinery without resolving anything early, isolating
/// the hedging effect.
const NEVER_S: f64 = 3600.0;

/// A single 10 ms ranking stage over the worker fleet, optionally with
/// one replica limping from t = 0.
fn fleet(limping: bool) -> PipelineSpec {
    let mut group = ReplicaGroup::replicated("worker", 1, REPLICAS);
    if limping {
        group = group.with_lifecycle(
            LifecycleSchedule::empty().with_event(LifecycleEvent::degrade(0.0, 0, LIMP_SPEED)),
        );
    }
    PipelineSpec::new(vec![group])
        .with_stage(StageSpec::new("rank", 0, 1, 0.010))
        .expect("valid stage")
}

/// A deterministic flash crowd: evenly spaced arrivals at `base` QPS,
/// except a burst at `burst` QPS between `from` and `until` seconds.
fn flash_crowd(queries: usize, base: f64, burst: f64, from: f64, until: f64) -> TraceArrivals {
    let mut times = Vec::with_capacity(queries);
    let mut t = 0.0;
    while times.len() < queries {
        times.push(t);
        let rate = if t >= from && t < until { burst } else { base };
        t += 1.0 / rate;
    }
    TraceArrivals::new(times)
}

/// The conservation ledger every resilient run must balance.
fn assert_conserved(label: &str, out: &SimResult, queries: usize) {
    let stats = out.resilience.as_ref().expect("resilient run");
    assert_eq!(
        out.completed + out.shed + out.dropped + stats.timed_out,
        queries,
        "{label}: every query resolves exactly once"
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: a limping replica, with and without hedging ---------
    //
    // Offered 150 QPS against a nominal 400 QPS fleet — comfortable,
    // except replica 0 limps at 25 QPS while round-robin keeps feeding
    // it 37.5: the queue behind the limper grows for the whole run,
    // and a quarter of the traffic is stranded behind it.
    let queries = 20_000;
    let arrivals = PoissonArrivals::new(150.0);
    let spec = fleet(true);
    let cfg = LifecycleConfig::new();

    let no_hedge = ResilienceConfig::new().with_timeout(NEVER_S);
    let mut plain = Scenario::new(&spec, &arrivals, queries, 42)
        .lifecycle(&cfg)
        .resilience(&no_hedge)
        .run()?;

    let hedged_cfg = no_hedge.clone().with_hedge(HedgePolicy::after(0.050));
    let mut hedged = Scenario::new(&spec, &arrivals, queries, 42)
        .lifecycle(&cfg)
        .resilience(&hedged_cfg)
        .run()?;

    let (plain_p99, plain_p50) = (plain.p99_seconds(), plain.p50_seconds());
    let (hedged_p99, hedged_p50) = (hedged.p99_seconds(), hedged.p50_seconds());
    println!(
        "Limping fleet: {REPLICAS} replicas at 100 QPS, replica 0 degraded to {:.0}%;\n\
         150 QPS offered round-robin, {queries} queries\n",
        LIMP_SPEED * 100.0
    );
    let mut table = Table::new(vec![
        "configuration",
        "p99 ms",
        "p50 ms",
        "hedges",
        "won",
        "wasted s",
    ]);
    for (name, p99, p50, out) in [
        ("no hedge", plain_p99, plain_p50, &plain),
        ("hedge @50ms", hedged_p99, hedged_p50, &hedged),
    ] {
        let s = out.resilience.as_ref().expect("resilient run");
        table.row(vec![
            name.to_string(),
            format!("{:.1}", p99 * 1e3),
            format!("{:.1}", p50 * 1e3),
            format!("{}", s.hedges_issued),
            format!("{}", s.hedges_won),
            format!("{:.1}", s.wasted_service_s),
        ]);
    }
    println!("{table}");

    assert_conserved("no-hedge", &plain, queries);
    assert_conserved("hedged", &hedged, queries);
    let hstats = hedged.resilience.as_ref().expect("resilient run");
    assert!(hstats.hedges_issued > 0, "the limper forces hedges");
    assert!(hstats.hedges_won > 0, "hedges beat the limper's queue");
    // The headline: hedging collapses the gray-failure tail. The
    // no-hedge p99 is the limper's runaway queue (tens of seconds);
    // hedged queries escape onto a healthy replica after 50 ms.
    assert!(
        hedged_p99 < plain_p99 * 0.5,
        "hedging must cut p99 at least in half: {:.1} ms vs {:.1} ms",
        hedged_p99 * 1e3,
        plain_p99 * 1e3
    );
    println!(
        "hedging cuts p99 {:.0}x: {:.0} ms -> {:.0} ms\n",
        plain_p99 / hedged_p99,
        plain_p99 * 1e3,
        hedged_p99 * 1e3
    );

    // --- Part 2: retry storm vs retry budget under a flash crowd -----
    //
    // The healthy fleet sustains 400 QPS; the trace offers a steady
    // 250, except a 1.5 s burst at 1600 between t = 2 s and t = 3.5 s.
    // The burst leaves ~1800 queries of backlog, so post-burst
    // arrivals time out at 50 ms — and with lazy cancellation their
    // abandoned attempts still burn service time as carcasses. At up
    // to 3 retries per query, 250 QPS of offered load becomes ~1000
    // QPS of attempts: more than capacity, so the congestion sustains
    // itself long after the burst — unless a retry budget cuts the
    // amplification back below capacity.
    let queries = 25_000;
    let crowd = flash_crowd(queries, 250.0, 1600.0, 2.0, 3.5);
    let spec = fleet(false);
    let timeout_retry = RetryPolicy::new(4, 0.010, 2.0);

    let storm_cfg = ResilienceConfig::new()
        .with_timeout(0.050)
        .with_retry(timeout_retry.clone());
    let storm = Scenario::new(&spec, &crowd, queries, 17)
        .lifecycle(&cfg)
        .resilience(&storm_cfg)
        .run()?;

    let budget_cfg = ResilienceConfig::new()
        .with_timeout(0.050)
        .with_retry(timeout_retry.with_budget(RetryBudget::new(100.0, 0.05)));
    let budgeted = Scenario::new(&spec, &crowd, queries, 17)
        .lifecycle(&cfg)
        .resilience(&budget_cfg)
        .run()?;

    println!(
        "Flash crowd: steady 250 QPS with a 1.5 s burst at 1600 QPS against a\n\
         400 QPS fleet; 50 ms timeout, <=3 retries, {queries} queries\n"
    );
    let mut table = Table::new(vec![
        "configuration",
        "completed",
        "timed out",
        "retries",
        "denied",
        "wasted s",
    ]);
    for (name, out) in [
        ("unbounded retries", &storm),
        ("retry budget 100+5%", &budgeted),
    ] {
        let s = out.resilience.as_ref().expect("resilient run");
        table.row(vec![
            name.to_string(),
            format!("{}", out.completed),
            format!("{}", s.timed_out),
            format!("{}", s.total_retries()),
            format!("{}", s.retries_denied),
            format!("{:.1}", s.wasted_service_s),
        ]);
    }
    println!("{table}");

    assert_conserved("storm", &storm, queries);
    assert_conserved("budgeted", &budgeted, queries);
    let sstats = storm.resilience.as_ref().expect("resilient run");
    let bstats = budgeted.resilience.as_ref().expect("resilient run");
    assert!(
        sstats.total_retries() > bstats.total_retries(),
        "the budget must bound the retry volume"
    );
    assert!(
        bstats.retries_denied > 0,
        "the budget drains under overload"
    );
    assert!(
        sstats.wasted_service_s > bstats.wasted_service_s,
        "unbounded retries burn more capacity on carcasses"
    );
    // The headline: bounding retry amplification lets the fleet work
    // off the burst instead of tipping into metastable collapse.
    assert!(
        budgeted.completed > storm.completed,
        "the retry budget must avert congestion collapse: {} vs {} completions",
        budgeted.completed,
        storm.completed
    );
    println!(
        "retry budget averts the storm: {} -> {} of {queries} queries completed",
        storm.completed, budgeted.completed
    );

    Ok(())
}
