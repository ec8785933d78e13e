use recpipe_metrics::LatencyStats;

use crate::{ResilienceStats, WindowStats};

/// Outcome of one at-scale simulation run.
///
/// # Examples
///
/// ```
/// use recpipe_qsim::{PipelineSpec, ReplicaGroup, StageSpec};
///
/// let spec = PipelineSpec::new(vec![ReplicaGroup::new("cpu", 8)])
///     .with_stage(StageSpec::new("rank", 0, 1, 0.005))?;
/// let mut result = spec.simulate(100.0, 2_000, 1);
/// println!("p99 = {:.2} ms", result.p99_seconds() * 1e3);
/// # Ok::<(), recpipe_qsim::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// End-to-end per-query latency distribution (post-warmup).
    pub latency: LatencyStats,
    /// Achieved completion rate in queries per second.
    pub qps: f64,
    /// Queries that completed.
    pub completed: usize,
    /// Whether the run exceeded sustainable capacity.
    pub saturated: bool,
    /// Mean utilization of each resource group (same order as the
    /// spec), aggregated across the group's replicas.
    pub utilization: Vec<f64>,
    /// Mean queries per launched batch (1.0 under per-query serving).
    pub mean_batch: f64,
    /// Per-replica utilization of each resource group (outer index:
    /// group, inner: replica). Populated only for replicated pipelines;
    /// empty on single-replica runs, whose results stay bit-identical
    /// to the pre-cluster simulator.
    pub replica_utilization: Vec<Vec<f64>>,
    /// Queries dropped without service (routed to a dead group or
    /// stranded in a dead replica's queue under
    /// [`FailurePolicy::Shed`](crate::FailurePolicy::Shed)). Zero on
    /// lifecycle-free runs.
    pub shed: usize,
    /// Queries killed mid-service by a fail-stop under
    /// [`FailurePolicy::Shed`](crate::FailurePolicy::Shed). Zero on
    /// lifecycle-free runs.
    pub dropped: usize,
    /// Time integral of fleet cost over the run: `sum(speed)` of
    /// non-down replicas integrated over simulated seconds (so a
    /// replica-second of a speed-0.5 box costs 0.5). Zero on
    /// lifecycle-free runs — the cost axis of autoscaling comparisons.
    pub cost_integral: f64,
    /// Per-window telemetry series (see
    /// [`WindowStats`]); empty unless the run was
    /// configured with a telemetry window.
    pub windows: Vec<WindowStats>,
    /// Per-path accounting of a multi-path run (see
    /// [`Scenario::multipath`](crate::Scenario::multipath)), in path order.
    /// Empty on single-pipeline runs.
    pub paths: Vec<PathStats>,
    /// Queries rejected by the admission policy before entering any
    /// path (a subset of [`shed`](Self::shed), which also counts
    /// lifecycle sheds). Zero outside multi-path runs.
    pub admission_shed: usize,
    /// Query-level resilience telemetry of a
    /// [`Scenario::resilience`](crate::Scenario::resilience) run: timeouts,
    /// retries by attempt, hedges issued/won, and wasted service
    /// seconds. `None` outside resilient runs.
    pub resilience: Option<ResilienceStats>,
}

impl SimResult {
    /// Queries resolved as timed-out-final (0 outside
    /// resilient runs) — the fourth
    /// term of the conservation ledger `completed + shed + dropped +
    /// timed_out`.
    pub fn timed_out(&self) -> usize {
        self.resilience.as_ref().map_or(0, |r| r.timed_out)
    }

    /// Quality-weighted goodput in quality-units per second: achieved
    /// QPS scaled by the completion-weighted mean path quality — the
    /// scalar brown-out comparisons rank on (degrading to a cheaper
    /// path keeps most of the quality; shedding keeps none). 0.0
    /// outside multi-path runs or when nothing completed.
    pub fn quality_goodput(&self) -> f64 {
        let completed: usize = self.paths.iter().map(|p| p.completed).sum();
        if completed == 0 {
            return 0.0;
        }
        let mean_quality = self
            .paths
            .iter()
            .map(|p| p.quality * p.completed as f64)
            .sum::<f64>()
            / completed as f64;
        let goodput = self.qps * mean_quality;
        // A zero-duration run reports a non-finite qps (completions
        // over an empty span); clamp to 0.0 so sweep tables and Pareto
        // sorts never see NaN/inf.
        if goodput.is_finite() {
            goodput
        } else {
            0.0
        }
    }

    /// Simulated minutes spent violating a p99 SLO: the summed duration
    /// of windows where tail latency exceeded `slo_p99_s`, queries were
    /// shed or dropped, or work waited while nothing completed (see
    /// [`WindowStats::violates`](crate::WindowStats::violates)) — the
    /// transient-health metric steady-state sweeps cannot produce.
    /// Requires the run to have recorded windows; 0.0 otherwise.
    pub fn slo_violation_minutes(&self, slo_p99_s: f64) -> f64 {
        // Folded from +0.0 (an empty `f64` sum is -0.0, which would
        // print a violation-free run as "-0.00 minutes").
        self.windows
            .iter()
            .filter(|w| w.violates(slo_p99_s))
            .map(WindowStats::duration)
            .fold(0.0, |acc, d| acc + d)
            / 60.0
    }

    /// Mean fleet cost per simulated second over the run's windowed
    /// span: [`cost_integral`](Self::cost_integral) divided by the
    /// total window duration (0.0 without windows).
    pub fn mean_fleet_cost(&self) -> f64 {
        let span: f64 = self.windows.iter().map(WindowStats::duration).sum();
        if span > 0.0 {
            let cost = self.cost_integral / span;
            // Degenerate window spans (subnormal durations against a
            // finite integral) must not leak inf/NaN into cost tables.
            if cost.is_finite() {
                cost
            } else {
                0.0
            }
        } else {
            0.0
        }
    }

    /// Largest absolute difference between any replica's utilization
    /// and its group's mean — a scalar imbalance summary (0.0 for
    /// single-replica runs and perfectly balanced clusters).
    pub fn replica_imbalance(&self) -> f64 {
        self.replica_utilization
            .iter()
            .flat_map(|group| {
                let mean = group.iter().sum::<f64>() / group.len().max(1) as f64;
                group.iter().map(move |u| (u - mean).abs())
            })
            .fold(0.0, f64::max)
    }

    /// p99 tail latency in seconds — the paper's SLA metric.
    pub fn p99_seconds(&mut self) -> f64 {
        self.latency.p99().as_secs_f64()
    }

    /// Median latency in seconds.
    pub fn p50_seconds(&mut self) -> f64 {
        self.latency.p50().as_secs_f64()
    }

    /// Whether the run met an SLA: stable and p99 under `sla_seconds`.
    pub fn meets_sla(&mut self, sla_seconds: f64) -> bool {
        !self.saturated && self.p99_seconds() <= sla_seconds
    }
}

/// Per-path accounting of one multi-path run: how many queries the
/// admission policy sent down the path, how they fared, and the path's
/// post-warmup latency summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// The path's name (from the [`PathSet`](crate::PathSet)).
    pub name: String,
    /// The path's quality tag.
    pub quality: f64,
    /// Queries admitted onto the path.
    pub admitted: usize,
    /// Admitted queries that completed the path's final stage.
    pub completed: usize,
    /// Admitted queries shed after admission (dead-group arrivals and
    /// stranded queue entries under [`FailurePolicy::Shed`](crate::FailurePolicy::Shed),
    /// plus end-of-run parked leftovers).
    pub shed: usize,
    /// Admitted queries killed mid-service by fail-stops.
    pub dropped: usize,
    /// Mean post-warmup latency of the path's completions in seconds
    /// (0.0 when none recorded).
    pub mean_latency_s: f64,
    /// p99 post-warmup latency of the path's completions in seconds
    /// (0.0 when none recorded).
    pub p99_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn result_with_latencies(ms: &[u64], saturated: bool) -> SimResult {
        let mut stats = LatencyStats::new();
        for &m in ms {
            stats.record(Duration::from_millis(m));
        }
        SimResult {
            latency: stats,
            qps: 100.0,
            completed: ms.len(),
            saturated,
            utilization: vec![0.5],
            mean_batch: 1.0,
            replica_utilization: Vec::new(),
            shed: 0,
            dropped: 0,
            cost_integral: 0.0,
            windows: Vec::new(),
            paths: Vec::new(),
            admission_shed: 0,
            resilience: None,
        }
    }

    #[test]
    fn sla_check_uses_p99_and_stability() {
        let mut ok = result_with_latencies(&[10; 100], false);
        assert!(ok.meets_sla(0.025));
        let mut slow = result_with_latencies(&[30; 100], false);
        assert!(!slow.meets_sla(0.025));
        let mut unstable = result_with_latencies(&[10; 100], true);
        assert!(!unstable.meets_sla(0.025));
    }

    #[test]
    fn percentile_accessors_convert_units() {
        let mut r = result_with_latencies(&[20; 10], false);
        assert!((r.p99_seconds() - 0.020).abs() < 1e-9);
        assert!((r.p50_seconds() - 0.020).abs() < 1e-9);
    }

    fn path(name: &str, quality: f64, completed: usize) -> PathStats {
        PathStats {
            name: name.to_string(),
            quality,
            admitted: completed,
            completed,
            shed: 0,
            dropped: 0,
            mean_latency_s: 0.01,
            p99_s: 0.02,
        }
    }

    #[test]
    fn quality_goodput_weights_qps_by_completion_mix() {
        let mut r = result_with_latencies(&[10; 100], false);
        r.paths = vec![path("full", 1.0, 75), path("lite", 0.8, 25)];
        r.admission_shed = 10;
        // Mean quality = (1.0*75 + 0.8*25) / 100 = 0.95; qps = 100.
        assert!((r.quality_goodput() - 95.0).abs() < 1e-9);
        assert_eq!(r.admission_shed, 10);
    }

    #[test]
    fn quality_goodput_is_zero_without_paths_or_completions() {
        let plain = result_with_latencies(&[10; 4], false);
        assert_eq!(plain.quality_goodput(), 0.0);
        let mut starved = result_with_latencies(&[], false);
        starved.paths = vec![path("full", 1.0, 0)];
        starved.admission_shed = 50;
        assert_eq!(starved.quality_goodput(), 0.0);
    }

    #[test]
    fn quality_goodput_guards_zero_duration_runs() {
        // A degenerate run (all completions at t = 0) can report an
        // infinite or NaN qps; the quality weighting must not leak it.
        let mut r = result_with_latencies(&[10; 4], false);
        r.paths = vec![path("full", 1.0, 4)];
        r.qps = f64::INFINITY;
        assert_eq!(r.quality_goodput(), 0.0);
        r.qps = f64::NAN;
        assert_eq!(r.quality_goodput(), 0.0);
        r.qps = 100.0;
        assert!((r.quality_goodput() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mean_fleet_cost_guards_zero_duration_runs() {
        let no_windows = result_with_latencies(&[10; 4], false);
        assert_eq!(no_windows.mean_fleet_cost(), 0.0);
        // A subnormal window span against a finite integral overflows
        // the division; the accessor clamps instead of reporting inf.
        let mut r = result_with_latencies(&[10; 4], false);
        r.cost_integral = 1e308;
        r.windows.push(WindowStats {
            start: 0.0,
            end: 1e-320,
            arrivals: 0,
            completed: 0,
            shed: 0,
            dropped: 0,
            timed_out: 0,
            p99_s: 0.0,
            mean_queue_depth: 0.0,
            utilization: 0.0,
            live_replicas: 1,
            cost: 0.0,
            path_admitted: Vec::new(),
            path_completed: Vec::new(),
        });
        let cost = r.mean_fleet_cost();
        assert!(cost.is_finite());
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn timed_out_reads_through_the_resilience_outcome() {
        let plain = result_with_latencies(&[10; 4], false);
        assert_eq!(plain.timed_out(), 0);
        let mut resilient = result_with_latencies(&[10; 4], false);
        resilient.resilience = Some(ResilienceStats {
            timed_out: 7,
            ..ResilienceStats::default()
        });
        assert_eq!(resilient.timed_out(), 7);
        assert_eq!(resilient.resilience.as_ref().unwrap().timed_out, 7);
    }
}
