//! Oracles that check the simulator against queueing truth rather than
//! against its own history: Pollaczek–Khinchine's M/D/1 mean wait,
//! Little's law over the telemetry windows, and exact power-of-two
//! time scaling.
//!
//! There is no Erlang-C (M/M/c) check: stage service times are
//! deterministic, so exponential service cannot be simulated.

use std::sync::OnceLock;

use recpipe_data::{ArrivalProcess, MmppArrivals, PoissonArrivals, TraceArrivals};
use recpipe_qsim::{
    BatchModel, BatchWindow, JoinShortestQueue, LifecycleConfig, PipelineSpec, ReplicaGroup,
    Scenario, SimResult, StageSpec,
};

/// The M/D/1 server's service time in seconds.
const SERVICE_S: f64 = 0.01;

/// M/D/1 runs, 60,000 queries each, at every `(rho, seed)` of
/// ρ ∈ {0.3, 0.5, 0.7, 0.85} and seeds 1–3, with 1 s telemetry
/// windows. Shared by the two tests that read them.
fn md1_runs() -> &'static [(f64, SimResult)] {
    static RUNS: OnceLock<Vec<(f64, SimResult)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let spec = PipelineSpec::new(vec![ReplicaGroup::new("server", 1)])
            .with_stage(StageSpec::new("serve", 0, 1, SERVICE_S))
            .unwrap();
        let windowed = LifecycleConfig::new().with_window(1.0);
        let mut runs = Vec::new();
        for rho in [0.3, 0.5, 0.7, 0.85] {
            for seed in 1..=3 {
                let arrivals = PoissonArrivals::new(rho / SERVICE_S);
                let out = Scenario::new(&spec, &arrivals, 60_000, seed)
                    .lifecycle(&windowed)
                    .run()
                    .unwrap();
                runs.push((rho, out));
            }
        }
        runs
    })
}

/// Mean queueing delay: mean latency less the service time.
fn mean_wait(out: &SimResult) -> f64 {
    out.latency.mean().as_secs_f64() - SERVICE_S
}

#[test]
fn md1_mean_wait_matches_pollaczek_khinchine() {
    // E[wait] = ρs / (2(1 − ρ)). Every run reads within 3.6% of it;
    // the band is 5%.
    for (rho, out) in md1_runs() {
        let theory = rho * SERVICE_S / (2.0 * (1.0 - rho));
        let err = (mean_wait(out) - theory).abs() / theory;
        assert!(err < 0.05, "rho {rho}: wait {} vs {theory}", mean_wait(out));
    }
}

#[test]
fn md1_windows_obey_littles_law() {
    // L = λW for the waiting room: the windows' time-averaged queue
    // depth equals completions per second times the mean wait. Every
    // run reads within 0.6%; the band is 1%.
    for (rho, out) in md1_runs() {
        let span: f64 = out.windows.iter().map(|w| w.duration()).sum();
        let depth = out
            .windows
            .iter()
            .map(|w| w.mean_queue_depth * w.duration())
            .sum::<f64>()
            / span;
        let littles = out.completed as f64 / span * mean_wait(out);
        let err = (depth - littles).abs() / littles;
        assert!(err < 0.01, "rho {rho}: depth {depth} vs lambda W {littles}");
    }
}

/// Two batched groups under JSQ and a batch window, replaying `trace`
/// with every time multiplied by `k`.
fn scaled_run(trace: &[f64], k: f64) -> SimResult {
    let batched = |name, group, service_s: f64| {
        StageSpec::new(name, group, 1, k * service_s).with_batch(BatchModel::new(8, 0.25))
    };
    let spec = PipelineSpec::new(vec![
        ReplicaGroup::replicated("filter", 2, 3),
        ReplicaGroup::replicated("rank", 1, 4),
    ])
    .with_stage(batched("filter", 0, 0.003))
    .unwrap()
    .with_stage(batched("rank", 1, 0.005))
    .unwrap();
    let arrivals = TraceArrivals::new(trace.iter().map(|t| k * t).collect());
    let policy = BatchWindow::new(k * 0.002);
    Scenario::new(&spec, &arrivals, trace.len(), 5)
        .policy(&policy)
        .router(&JoinShortestQueue)
        .run()
        .unwrap()
}

#[test]
fn doubling_every_time_doubles_every_latency() {
    // Multiplying every time by 2 is exact in binary floating point, so
    // every event keeps its order and every latency doubles. Latencies
    // are kept in nanoseconds, so each sorted sample doubles to within
    // 1 ns; utilization, mean batch and completions are bit-identical.
    let trace = MmppArrivals::new(300.0, 1_500.0, 0.2, 0.1).times(5_000, 21);
    let (mut base, mut doubled) = (scaled_run(&trace, 1.0), scaled_run(&trace, 2.0));
    assert_eq!(base.completed, doubled.completed);
    assert_eq!(base.utilization, doubled.utilization);
    assert_eq!(base.mean_batch.to_bits(), doubled.mean_batch.to_bits());
    let n = base.latency.len();
    assert_eq!(n, doubled.latency.len());
    for i in 0..n {
        let p = 100.0 * (i as f64 + 0.5) / n as f64;
        let once = base.latency.percentile(p).as_nanos() as i128;
        let twice = doubled.latency.percentile(p).as_nanos() as i128;
        assert!(
            (twice - 2 * once).abs() <= 1,
            "sample {i}: {once} ns -> {twice} ns"
        );
    }
}
