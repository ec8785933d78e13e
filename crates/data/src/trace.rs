//! Trace replay: drive the simulator with recorded arrival timestamps.
//!
//! Synthetic processes (Poisson, MMPP, diurnal) are parsimonious but
//! production-shaped only by construction. [`TraceArrivals`] replays an
//! actual recorded slice of arrival times — a day of front-end logs, a
//! captured flash crowd, or a schedule generated by another process —
//! optionally rescaled to a target rate so one trace sweeps a whole
//! load axis.

use crate::ArrivalProcess;

/// An [`ArrivalProcess`] that replays a recorded slice of absolute
/// arrival timestamps.
///
/// * Replay is **deterministic**: the seed passed to
///   [`times`](ArrivalProcess::times) is ignored — the trace *is* the
///   randomness.
/// * Asking for more arrivals than the slice holds **tiles** the trace:
///   each wrap shifts the slice by one period (the recorded span plus
///   one mean gap, so the seam gap matches the trace's own spacing).
/// * [`with_rate`](Self::with_rate) rescales all timestamps so the
///   replayed mean rate hits a target QPS — the rate-rescaling knob for
///   sweeping recorded traffic shapes across load levels.
///
/// # Examples
///
/// ```
/// use recpipe_data::{ArrivalProcess, TraceArrivals};
///
/// // A recorded burst: three queries in 10 ms, then a quiet gap.
/// let trace = TraceArrivals::new(vec![0.0, 0.004, 0.010, 0.100]);
/// assert_eq!(trace.times(4, 0), vec![0.0, 0.004, 0.010, 0.100]);
///
/// // The same shape, twice as fast.
/// let fast = TraceArrivals::new(vec![0.0, 0.004, 0.010, 0.100])
///     .with_rate(2.0 * trace.mean_rate());
/// assert!((fast.times(4, 0)[3] - 0.050).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArrivals {
    times: Vec<f64>,
    /// Multiplier applied to every recorded timestamp (1.0 = verbatim
    /// replay; smaller = faster replay, higher rate).
    scale: f64,
}

impl TraceArrivals {
    /// Creates a replay of the recorded timestamps.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty, or any timestamp is negative,
    /// non-finite, or out of order (decreasing). Equal consecutive
    /// timestamps are allowed — simultaneous arrivals are a real (and
    /// adversarial) traffic shape.
    pub fn new(times: Vec<f64>) -> Self {
        assert!(!times.is_empty(), "trace must hold at least one arrival");
        for w in times.windows(2) {
            assert!(w[1] >= w[0], "trace timestamps must be non-decreasing");
        }
        for &t in &times {
            assert!(
                t.is_finite() && t >= 0.0,
                "trace timestamps must be non-negative"
            );
        }
        Self { times, scale: 1.0 }
    }

    /// Rescales the trace so its mean replay rate becomes `target_qps`,
    /// preserving the traffic's *shape* (burst structure, relative
    /// gaps) while moving its *level*.
    ///
    /// # Panics
    ///
    /// Panics if `target_qps` is not strictly positive and finite.
    pub fn with_rate(mut self, target_qps: f64) -> Self {
        assert!(
            target_qps.is_finite() && target_qps > 0.0,
            "target rate must be positive"
        );
        // The native (unscaled) mean rate: `len` arrivals per tiling
        // period, which is always positive and finite by construction.
        let native = self.times.len() as f64 / self.period();
        self.scale = native / target_qps;
        self
    }

    /// Number of recorded arrivals.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The tiling period in *recorded* (unscaled) seconds: the span
    /// plus one mean gap, so each wrap continues the trace's spacing.
    /// Zero-span traces (a lone arrival, or a purely simultaneous
    /// burst) tile at 1 second — the burst repeats once per second
    /// rather than collapsing every tile onto one instant.
    fn period(&self) -> f64 {
        let n = self.times.len();
        let span = self.times[n - 1] - self.times[0];
        if n > 1 && span > 0.0 {
            span + span / (n - 1) as f64
        } else {
            1.0
        }
    }
}

impl ArrivalProcess for TraceArrivals {
    fn name(&self) -> String {
        if (self.scale - 1.0).abs() < 1e-12 {
            format!("trace({})", self.times.len())
        } else {
            format!("trace({},x{:.3})", self.times.len(), 1.0 / self.scale)
        }
    }

    fn mean_rate(&self) -> f64 {
        // `len` arrivals per (scaled) tiling period — consistent with
        // what `times` produces asymptotically, and equal to the usual
        // `(n - 1) / span` for multi-arrival traces at scale 1.
        // Zero-span bursts tile at one burst per (scaled) second, so
        // the rate stays finite.
        self.times.len() as f64 / (self.period() * self.scale)
    }

    fn stream(&self, _seed: u64) -> Box<dyn Iterator<Item = f64> + Send + '_> {
        // Lazy tiled replay: a 10M-query run walks the recorded slice
        // in place instead of materializing ~80 MB of timestamps
        // before the event loop starts.
        let len = self.times.len();
        let period = self.period();
        let scale = self.scale;
        Box::new(
            (0..).map(move |i: usize| (self.times[i % len] + (i / len) as f64 * period) * scale),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_verbatim_and_seed_independent() {
        let trace = TraceArrivals::new(vec![0.0, 0.1, 0.15, 0.4]);
        assert_eq!(trace.times(4, 1), vec![0.0, 0.1, 0.15, 0.4]);
        assert_eq!(trace.times(4, 1), trace.times(4, 999));
    }

    #[test]
    fn tiling_extends_the_trace_monotonically() {
        let trace = TraceArrivals::new(vec![0.0, 1.0, 2.0]);
        // Span 2, mean gap 1 → period 3: wraps land at 3, 4, 5, 6, ...
        let times = trace.times(7, 0);
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn mean_rate_matches_recorded_spacing() {
        // 5 arrivals over 4 seconds, 1 s apart → 1 QPS.
        let trace = TraceArrivals::new(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert!((trace.mean_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "target rate must be positive")]
    fn with_rate_rejects_non_positive_rate() {
        let _ = TraceArrivals::new(vec![0.0, 1.0]).with_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "target rate must be positive")]
    fn with_rate_rejects_non_finite_rate() {
        let _ = TraceArrivals::new(vec![0.0, 1.0]).with_rate(f64::INFINITY);
    }

    #[test]
    fn with_rate_rescales_shape_preserving() {
        let trace = TraceArrivals::new(vec![0.0, 1.0, 2.0, 3.0, 4.0]).with_rate(10.0);
        assert!((trace.mean_rate() - 10.0).abs() < 1e-9);
        let times = trace.times(5, 0);
        // Same shape, 10x compressed.
        assert!((times[4] - 0.4).abs() < 1e-12);
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|g| (g - 0.1).abs() < 1e-12));
    }

    #[test]
    fn simultaneous_arrivals_are_preserved() {
        let burst = TraceArrivals::new(vec![0.5; 8]);
        assert_eq!(burst.times(8, 3), vec![0.5; 8]);
        // A zero-span burst tiles at 1 s per burst instead of
        // collapsing every tile onto one instant, keeping the mean
        // rate finite (8 arrivals per second here).
        let tiled = burst.times(16, 3);
        assert_eq!(tiled[8..16], vec![1.5; 8][..]);
        assert!((burst.mean_rate() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn single_arrival_trace_tiles_at_one_second() {
        let lone = TraceArrivals::new(vec![0.25]);
        assert_eq!(lone.times(3, 0), vec![0.25, 1.25, 2.25]);
        assert!((lone.mean_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn observed_replay_rate_matches_mean_rate_across_tiles() {
        let trace = TraceArrivals::new(vec![0.0, 0.2, 0.3, 0.9]).with_rate(40.0);
        let n = 4_000;
        let times = trace.times(n, 0);
        let rate = (n as f64 - 1.0) / (times[n - 1] - times[0]);
        assert!((rate - 40.0).abs() / 40.0 < 0.05, "observed {rate}");
    }

    #[test]
    fn stream_reproduces_times_across_tiles() {
        let trace = TraceArrivals::new(vec![0.0, 0.2, 0.3, 0.9]).with_rate(40.0);
        let streamed: Vec<f64> = trace.stream(3).take(5_000).collect();
        assert_eq!(streamed, trace.times(5_000, 3));
    }

    #[test]
    #[should_panic(expected = "at least one arrival")]
    fn empty_trace_is_rejected() {
        TraceArrivals::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_trace_is_rejected() {
        TraceArrivals::new(vec![1.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_timestamps_are_rejected() {
        TraceArrivals::new(vec![-1.0, 0.5]);
    }

    #[test]
    fn rescaling_an_instantaneous_burst_rescales_its_repetition() {
        // Native: a 2-query burst per second (2 QPS). At 100 QPS the
        // burst repeats every 20 ms.
        let burst = TraceArrivals::new(vec![1.0, 1.0]).with_rate(100.0);
        assert!((burst.mean_rate() - 100.0).abs() < 1e-9);
        let times = burst.times(4, 0);
        assert!((times[1] - times[0]).abs() < 1e-12);
        assert!((times[2] - times[0] - 0.02).abs() < 1e-12);
    }
}
