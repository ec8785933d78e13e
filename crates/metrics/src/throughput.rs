use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Measures achieved system throughput in queries per second (QPS).
///
/// The meter records query completion timestamps (simulation time) and
/// reports the completion rate over the observed span. The paper's
/// throughput axis is "queries processed per second" under a Poisson
/// arrival process.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use recpipe_metrics::ThroughputMeter;
///
/// let mut meter = ThroughputMeter::new();
/// for i in 0..100 {
///     meter.record_completion(Duration::from_millis(10 * i));
/// }
/// // 100 completions over 0.99 s ≈ 101 QPS.
/// assert!((meter.qps() - 100.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ThroughputMeter {
    completions: u64,
    first: Option<Duration>,
    last: Option<Duration>,
}

impl ThroughputMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a query completion at simulation time `at`.
    pub fn record_completion(&mut self, at: Duration) {
        self.completions += 1;
        if self.first.is_none() || Some(at) < self.first {
            self.first = Some(at);
        }
        if self.last.is_none() || Some(at) > self.last {
            self.last = Some(at);
        }
    }

    /// Time span between first and last completion.
    pub fn span(&self) -> Duration {
        match (self.first, self.last) {
            (Some(f), Some(l)) => l.saturating_sub(f),
            _ => Duration::ZERO,
        }
    }

    /// Achieved queries per second over the observed span.
    ///
    /// Returns `0.0` with fewer than two completions (rate undefined).
    pub fn qps(&self) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 || self.completions < 2 {
            return 0.0;
        }
        // (n - 1) inter-completion intervals over the span.
        (self.completions - 1) as f64 / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_reports_zero() {
        let m = ThroughputMeter::new();
        assert_eq!(m.qps(), 0.0);
        assert_eq!(m.span(), Duration::ZERO);
    }

    #[test]
    fn single_completion_has_no_rate() {
        let mut m = ThroughputMeter::new();
        m.record_completion(Duration::from_secs(1));
        assert_eq!(m.qps(), 0.0);
    }

    #[test]
    fn uniform_completions_give_exact_rate() {
        let mut m = ThroughputMeter::new();
        // 11 completions, one every 100 ms → exactly 10 QPS.
        for i in 0..11 {
            m.record_completion(Duration::from_millis(100 * i));
        }
        assert!((m.qps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_recording_is_handled() {
        let mut m = ThroughputMeter::new();
        m.record_completion(Duration::from_secs(2));
        m.record_completion(Duration::from_secs(0));
        m.record_completion(Duration::from_secs(1));
        assert_eq!(m.span(), Duration::from_secs(2));
        assert!((m.qps() - 1.0).abs() < 1e-9);
    }
}
