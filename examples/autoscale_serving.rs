//! Closed-loop autoscaling over a diurnal day with injected failures:
//! reactive vs predictive fleet resizing vs static provisioning.
//!
//! Steady-state sweeps answer "how many replicas for this load?" — but
//! production load is a day/night cycle punctuated by machine failures,
//! and the interesting question is *transient*: how many SLO-violating
//! minutes does a sizing strategy concede while the rate swings and a
//! box dies at the worst moment, and what does avoiding them cost?
//! This example races four strategies over the same compressed day
//! (trough 100 QPS, peak 900 QPS) with a fail-stop near the peak:
//!
//! * **static under-provisioned** — 3 replicas (600 QPS): cheap, and
//!   crushed at the peak;
//! * **static N+1** — 6 replicas (1200 QPS): rides out both the peak
//!   and the failure, paying for idle capacity all night;
//! * **reactive** — utilization/queue-depth chasing within a 2..8
//!   band: capacity follows demand, but only *after* a window has run
//!   hot, and warm-up delays the fix;
//! * **predictive** — EWMA + one-window trend extrapolation: replicas
//!   are warming *before* the peak needs them, at a small headroom
//!   premium.
//!
//! Every run replays the same failure schedule (replica 0 fail-stops
//! mid-rush and recovers 5 s later) under the requeue policy, so killed
//! and stranded queries re-enter on surviving replicas: the damage
//! shows up as latency, never as lost queries.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example autoscale_serving
//! ```

use recpipe::core::{PredictiveScaling, ReactiveScaling, Table};
use recpipe::data::DiurnalArrivals;
use recpipe::qsim::{
    AutoscaleConfig, FleetController, JoinShortestQueue, LifecycleConfig, LifecycleEvent,
    LifecycleSchedule, PipelineSpec, ReplicaGroup, Scenario, SimResult, StageSpec,
};

/// p99 SLO the day is judged against.
const SLO_P99_S: f64 = 0.1;
/// Telemetry window width: the autoscaler's decision cadence.
const WINDOW_S: f64 = 2.0;
/// Queries in the compressed day (~60 simulated seconds at 500 QPS
/// mean).
const QUERIES: usize = 30_000;
/// One replica's sustainable throughput: 4 units / (1 unit x 20 ms).
const PER_REPLICA_QPS: f64 = 200.0;

/// The day's traffic: trough 100 QPS at t = 0, peak 900 QPS at t = 30.
fn day() -> DiurnalArrivals {
    DiurnalArrivals::new(100.0, 900.0, 60.0)
}

/// The failure story every strategy must ride out: replica 0 dies
/// during the morning rush and comes back 5 s later.
fn failures() -> LifecycleSchedule {
    LifecycleSchedule::empty()
        .with_event(LifecycleEvent::fail_stop(24.0, 0))
        .with_event(LifecycleEvent::recover(29.0, 0))
}

/// A worker fleet of `replicas` boxes (4 units each, 20 ms ranking
/// stage -> 200 QPS per replica) with the failure schedule attached.
fn fleet(replicas: usize) -> PipelineSpec {
    PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 4, replicas)])
        .with_group_lifecycle(0, failures())
        .with_stage(StageSpec::new("rank", 0, 1, 0.02))
        .expect("stage fits the worker group")
}

/// Violation x cost score: `(1 + SLO-violating minutes) * mean fleet
/// cost` — a strategy wins by being cheap *and* healthy, and the `1 +`
/// keeps zero-violation runs comparable on cost.
fn score(result: &SimResult) -> f64 {
    (1.0 + result.slo_violation_minutes(SLO_P99_S)) * result.mean_fleet_cost()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arrivals = day();
    let lifecycle = LifecycleConfig::new().with_window(WINDOW_S);

    // --- Static baselines: fixed fleets riding the same day ---------
    let static_under = Scenario::new(&fleet(3), &arrivals, QUERIES, 11)
        .router(&JoinShortestQueue)
        .lifecycle(&lifecycle)
        .run()?;
    let static_n1 = Scenario::new(&fleet(6), &arrivals, QUERIES, 11)
        .router(&JoinShortestQueue)
        .lifecycle(&lifecycle)
        .run()?;

    // --- Closed-loop strategies: an 8-replica ceiling, 2 floor ------
    let scaled = fleet(8);
    let band = AutoscaleConfig::new(0, 2, 8, WINDOW_S)
        .with_initial_replicas(3)
        .with_warmup(1.0);
    let mut reactive_policy = ReactiveScaling::new(0.6, 4.0);
    let reactive = Scenario::new(&scaled, &arrivals, QUERIES, 11)
        .router(&JoinShortestQueue)
        .autoscale(&band, &mut reactive_policy)
        .run()?;
    let mut predictive_policy = PredictiveScaling::new(0.5, PER_REPLICA_QPS, 1.25);
    let predictive = Scenario::new(&scaled, &arrivals, QUERIES, 11)
        .router(&JoinShortestQueue)
        .autoscale(&band, &mut predictive_policy)
        .run()?;

    println!(
        "Diurnal day ({} queries, trough {:.0} / peak {:.0} QPS), replica 0 fails at t=24s, \
         recovers at t=29s; p99 SLO {} ms\n",
        QUERIES,
        100.0,
        900.0,
        SLO_P99_S * 1e3
    );
    let mut table = Table::new(vec![
        "strategy",
        "SLO-violating min",
        "mean fleet cost",
        "score",
        "completed",
    ]);
    let runs: Vec<(String, &SimResult)> = vec![
        ("static 3 (under)".to_string(), &static_under),
        ("static 6 (N+1)".to_string(), &static_n1),
        (reactive_policy.name(), &reactive),
        (predictive_policy.name(), &predictive),
    ];
    for (name, result) in &runs {
        table.row(vec![
            name.clone(),
            format!("{:.2}", result.slo_violation_minutes(SLO_P99_S)),
            format!("{:.2}", result.mean_fleet_cost()),
            format!("{:.2}", score(result)),
            format!("{}", result.completed),
        ]);
    }
    println!("{table}");

    // (c) The requeue policy loses nothing: the fail-stop killed
    // in-flight work and stranded queued queries, and every one of them
    // re-entered on a surviving replica.
    for (name, result) in &runs {
        assert_eq!(
            result.completed + result.shed + result.dropped,
            QUERIES,
            "{name}: every query must be accounted for"
        );
        assert_eq!(result.dropped, 0, "{name}: requeue never drops");
        assert_eq!(result.shed, 0, "{name}: requeue never sheds");
    }
    println!("conservation: all four runs completed every one of the {QUERIES} queries");

    // (a) Closing the loop beats static under-provisioning on health.
    let reactive_viol = reactive.slo_violation_minutes(SLO_P99_S);
    let under_viol = static_under.slo_violation_minutes(SLO_P99_S);
    assert!(
        reactive_viol < under_viol,
        "reactive ({reactive_viol:.2} min) must beat static under-provisioning \
         ({under_viol:.2} min) on SLO-violating minutes"
    );
    println!(
        "reactive scaling cuts SLO-violating minutes {under_viol:.2} -> {reactive_viol:.2} \
         vs the under-provisioned static fleet"
    );

    // (b) Prediction beats reaction on the joint violation x cost
    // score: warming capacity ahead of the peak trades a little
    // steady-state cost for far fewer hot windows.
    assert!(
        score(&predictive) < score(&reactive),
        "predictive score {:.2} must beat reactive {:.2}",
        score(&predictive),
        score(&reactive)
    );
    println!(
        "predictive scaling wins the violation x cost score: {:.2} vs reactive {:.2}",
        score(&predictive),
        score(&reactive)
    );
    Ok(())
}
