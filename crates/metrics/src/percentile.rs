use std::borrow::Cow;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Sample count above which a collector folds its exact sample vector
/// into the fixed log-spaced histogram (see [`LatencyStats`]).
///
/// Below this threshold every accessor is computed from the sorted
/// sample vector exactly as in earlier revisions — bit-for-bit — so the
/// 10k-query runs that all existing pins and baselines exercise are
/// unaffected. Above it, memory stays bounded at the fixed bin array
/// regardless of how many samples are recorded.
const FOLD_THRESHOLD: usize = 1 << 17;

/// Sub-bin resolution: each power-of-two octave is split into
/// `2^SUB_BITS` equal-width bins, bounding relative quantile error by
/// `2^-SUB_BITS` (~1.6%).
const SUB_BITS: u32 = 6;

/// Bins per octave.
const SUBS: usize = 1 << SUB_BITS;

/// Total bin count: `SUBS` exact unit bins for values below `SUBS`,
/// then `SUBS` bins per octave for exponents `SUB_BITS..=63`.
const NUM_BINS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Histogram bin index for a nanosecond value.
///
/// Values below `SUBS` map to their own exact bin; larger values map to
/// the octave given by their leading bit, subdivided by the next
/// `SUB_BITS` bits of the mantissa.
fn bin_index(ns: u64) -> usize {
    if ns < SUBS as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = ((ns >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    SUBS + ((exp - SUB_BITS) as usize) * SUBS + sub
}

/// Inclusive lower bound (in nanoseconds) of histogram bin `idx`.
fn bin_lower(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let block = (idx - SUBS) / SUBS;
    let sub = (idx - SUBS) % SUBS;
    ((SUBS + sub) as u64) << block
}

/// Collects per-query latencies and reports tail statistics.
///
/// The RecPipe paper's SLA metric is the 99th-percentile (p99) latency
/// over tens of thousands of simulated queries; this type is the sink the
/// queueing simulator drains into.
///
/// # Exact vs histogram representation
///
/// Up to [`LatencyStats::fold_threshold`] samples, the collector keeps
/// the raw sample vector and percentiles use the *nearest-rank* method
/// on the sorted sample — exact (no interpolation) and monotone in the
/// requested rank, identical to earlier revisions of this type.
///
/// Beyond that threshold the samples fold permanently into a fixed
/// log-spaced histogram (64 sub-bins per power-of-two octave), so a
/// 10M-query run holds a constant-size bin array instead of an O(N)
/// vector. Histogram percentiles return the lower bound of the bin
/// containing the nearest-rank sample, clamped to the observed
/// `[min, max]` — within one bin width (relative error ≤ 2⁻⁶ ≈ 1.6%) of
/// the exact answer, still monotone in rank, and never above the true
/// maximum. The folded state is a pure multiset summary: recording
/// order cannot change any reported statistic.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use recpipe_metrics::LatencyStats;
///
/// let mut stats = LatencyStats::new();
/// for ms in 1..=100 {
///     stats.record(Duration::from_millis(ms));
/// }
/// assert_eq!(stats.p99(), Duration::from_millis(99));
/// assert_eq!(stats.p50(), Duration::from_millis(50));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Raw samples while in exact mode; empty once folded.
    samples_ns: Vec<u64>,
    sorted: bool,
    /// Log-spaced bin counts; empty while in exact mode.
    bins: Vec<u64>,
    /// Folded-sample count (exact mode keeps this at zero).
    count: u64,
    /// Folded-sample sum; u128 so a u64::MAX-nanosecond outlier cannot
    /// overflow the mean of billions of samples.
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty collector with capacity for `n` samples.
    ///
    /// Capacity is capped at the fold threshold: a collector never
    /// holds more raw samples than that, so pre-allocating for a
    /// 10M-query run would waste the very memory folding bounds.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples_ns: Vec::with_capacity(n.min(FOLD_THRESHOLD + 1)),
            sorted: true,
            ..Self::default()
        }
    }

    /// Sample count at which the collector switches from the exact
    /// sample vector to the fixed log-spaced histogram.
    pub fn fold_threshold() -> usize {
        FOLD_THRESHOLD
    }

    /// Whether this collector has folded into histogram form.
    pub fn is_folded(&self) -> bool {
        !self.bins.is_empty()
    }

    /// Width (in nanoseconds) of the histogram bin containing `ns`:
    /// the guaranteed worst-case percentile error once folded.
    pub fn bin_width_at(ns: u64) -> u64 {
        if ns < SUBS as u64 {
            1
        } else {
            1u64 << (63 - ns.leading_zeros() - SUB_BITS)
        }
    }

    /// Adds one value to the folded histogram state.
    fn fold_one(&mut self, ns: u64) {
        self.bins[bin_index(ns)] += 1;
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    /// Irreversibly converts the exact sample vector into histogram
    /// form. No-op when already folded.
    fn fold(&mut self) {
        if self.is_folded() {
            return;
        }
        self.bins = vec![0u64; NUM_BINS];
        let samples = std::mem::take(&mut self.samples_ns);
        for ns in samples {
            self.fold_one(ns);
        }
        self.sorted = true;
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos() as u64;
        if self.is_folded() {
            self.fold_one(ns);
            return;
        }
        self.samples_ns.push(ns);
        self.sorted = false;
        if self.samples_ns.len() > FOLD_THRESHOLD {
            self.fold();
        }
    }

    /// Records a latency expressed in seconds.
    ///
    /// Negative or non-finite values are clamped to zero.
    pub fn record_secs(&mut self, seconds: f64) {
        let s = if seconds.is_finite() {
            seconds.max(0.0)
        } else {
            0.0
        };
        self.record(Duration::from_secs_f64(s));
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        if self.is_folded() {
            self.count as usize
        } else {
            self.samples_ns.len()
        }
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Latency at percentile `p` (in `[0, 100]`) by nearest rank.
    ///
    /// Exact below the fold threshold; once folded, returns the lower
    /// bound of the bin holding the nearest-rank sample clamped to the
    /// observed `[min, max]` (within one bin width of exact).
    ///
    /// Returns [`Duration::ZERO`] when no samples are recorded.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or not finite.
    pub fn percentile(&mut self, p: f64) -> Duration {
        assert!(
            p.is_finite() && (0.0..=100.0).contains(&p),
            "percentile must be in [0, 100]"
        );
        if self.is_empty() {
            return Duration::ZERO;
        }
        if self.is_folded() {
            let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
            let rank = rank.clamp(1, self.count);
            let mut cum = 0u64;
            for (idx, &c) in self.bins.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    let ns = bin_lower(idx).clamp(self.min_ns, self.max_ns);
                    return Duration::from_nanos(ns);
                }
            }
            return Duration::from_nanos(self.max_ns);
        }
        self.sort();
        let n = self.samples_ns.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        Duration::from_nanos(self.samples_ns[idx])
    }

    /// Median latency.
    pub fn p50(&mut self) -> Duration {
        self.percentile(50.0)
    }

    /// 99th-percentile tail latency — the paper's SLA metric.
    pub fn p99(&mut self) -> Duration {
        self.percentile(99.0)
    }

    /// Arithmetic mean latency, or zero if empty.
    ///
    /// Exact in both representations: the fold keeps the true sum.
    pub fn mean(&self) -> Duration {
        if self.is_folded() {
            if self.count == 0 {
                return Duration::ZERO;
            }
            return Duration::from_nanos((self.sum_ns / self.count as u128) as u64);
        }
        if self.samples_ns.is_empty() {
            return Duration::ZERO;
        }
        let sum: u128 = self.samples_ns.iter().map(|&x| x as u128).sum();
        Duration::from_nanos((sum / self.samples_ns.len() as u128) as u64)
    }

    /// Maximum observed latency, or zero if empty.
    ///
    /// Exact in both representations: the fold keeps the true maximum.
    pub fn max(&self) -> Duration {
        if self.is_folded() {
            if self.count == 0 {
                return Duration::ZERO;
            }
            return Duration::from_nanos(self.max_ns);
        }
        self.samples_ns
            .iter()
            .max()
            .map(|&ns| Duration::from_nanos(ns))
            .unwrap_or(Duration::ZERO)
    }

    /// The exact samples in ascending order, borrowed when already
    /// sorted.
    fn sorted_samples(&self) -> Cow<'_, [u64]> {
        if self.sorted {
            return Cow::Borrowed(&self.samples_ns);
        }
        let mut samples = self.samples_ns.clone();
        samples.sort_unstable();
        Cow::Owned(samples)
    }
}

/// Value equality: two exact collectors are equal when they hold the
/// same multiset of samples, two folded ones when their bins, count,
/// sum, min and max match, and an exact collector never equals a
/// folded one. No accessor reads the order samples were recorded in,
/// or whether a percentile read has sorted them, so neither counts.
impl PartialEq for LatencyStats {
    fn eq(&self, other: &Self) -> bool {
        match (self.is_folded(), other.is_folded()) {
            (true, true) => {
                self.count == other.count
                    && self.sum_ns == other.sum_ns
                    && self.min_ns == other.min_ns
                    && self.max_ns == other.max_ns
                    && self.bins == other.bins
            }
            (false, false) => {
                self.samples_ns.len() == other.samples_ns.len()
                    && self.sorted_samples() == other.sorted_samples()
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> LatencyStats {
        let mut s = LatencyStats::new();
        for ms in 1..=n {
            s.record(Duration::from_millis(ms));
        }
        s
    }

    #[test]
    fn empty_stats_return_zero() {
        let mut s = LatencyStats::new();
        assert_eq!(s.p99(), Duration::ZERO);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
        assert!(s.is_empty());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = LatencyStats::new();
        s.record(Duration::from_millis(7));
        assert_eq!(s.percentile(0.0), Duration::from_millis(7));
        assert_eq!(s.p50(), Duration::from_millis(7));
        assert_eq!(s.p99(), Duration::from_millis(7));
        assert_eq!(s.percentile(100.0), Duration::from_millis(7));
    }

    #[test]
    fn nearest_rank_on_uniform_grid() {
        let mut s = filled(100);
        assert_eq!(s.p50(), Duration::from_millis(50));
        assert_eq!(s.percentile(95.0), Duration::from_millis(95));
        assert_eq!(s.p99(), Duration::from_millis(99));
        assert_eq!(s.percentile(100.0), Duration::from_millis(100));
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut s = filled(1000);
        let p50 = s.p50();
        let p95 = s.percentile(95.0);
        let p99 = s.p99();
        assert!(p50 <= p95);
        assert!(p95 <= p99);
        assert!(p99 <= s.max());
    }

    #[test]
    fn mean_of_uniform_grid() {
        let s = filled(100);
        let mean_ms = s.mean().as_secs_f64() * 1e3;
        assert!((mean_ms - 50.5).abs() < 0.01);
    }

    #[test]
    fn order_of_recording_does_not_matter() {
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        for ms in [5u64, 1, 9, 3, 7] {
            a.record(Duration::from_millis(ms));
        }
        for ms in [9u64, 7, 5, 3, 1] {
            b.record(Duration::from_millis(ms));
        }
        assert_eq!(a, b);
        // Reading a percentile sorts `b`'s samples; it still holds the
        // same multiset.
        assert_eq!(b.p99(), Duration::from_millis(9));
        assert_eq!(a, b);
        assert_eq!(a.p50(), b.p50());
        assert_eq!(a.p99(), b.p99());
        assert_eq!(LatencyStats::new(), LatencyStats::with_capacity(8));

        // Same count, min, max and sum; different samples.
        let exact = |samples: &[u64]| {
            let mut s = LatencyStats::new();
            for &ms in samples {
                s.record(Duration::from_millis(ms));
            }
            s
        };
        let (c, d) = (exact(&[1, 5, 6, 8]), exact(&[1, 4, 7, 8]));
        assert_eq!((c.len(), c.mean(), c.max()), (d.len(), d.mean(), d.max()));
        assert_ne!(c, d);

        // A folded pair recorded in opposite orders.
        let n = FOLD_THRESHOLD as u64 + 10;
        let (mut fwd, mut rev) = (LatencyStats::new(), LatencyStats::new());
        for i in 1..=n {
            fwd.record(Duration::from_nanos(i * 977));
            rev.record(Duration::from_nanos((n + 1 - i) * 977));
        }
        assert!(fwd.is_folded() && rev.is_folded());
        assert_eq!(fwd, rev);

        // An exact collector never equals a folded one, even empty.
        let mut folded = LatencyStats::new();
        folded.fold();
        assert_ne!(folded, LatencyStats::new());
    }

    #[test]
    fn record_secs_clamps_pathological_input() {
        let mut s = LatencyStats::new();
        s.record_secs(-1.0);
        s.record_secs(f64::NAN);
        assert_eq!(s.max(), Duration::ZERO);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        let mut s = filled(10);
        s.percentile(101.0);
    }

    #[test]
    fn bin_index_and_lower_bound_are_consistent() {
        // Every probed value lands in a bin whose [lower, lower+width)
        // range contains it, and bin indices are monotone in the value.
        let mut last_idx = 0usize;
        for shift in 0..60 {
            for off in [0u64, 1, 63, 64, 65] {
                let v = (1u64 << shift).saturating_add(off);
                let idx = bin_index(v);
                let lo = bin_lower(idx);
                let width = LatencyStats::bin_width_at(v);
                assert!(lo <= v, "lower {lo} > value {v}");
                assert!(v < lo + width, "value {v} outside bin [{lo}, {lo}+{width})");
                assert!(idx >= last_idx || v < bin_lower(last_idx));
                last_idx = idx.max(last_idx);
            }
        }
        assert!(bin_index(u64::MAX) < NUM_BINS);
        assert_eq!(bin_index(0), 0);
        assert_eq!(bin_lower(0), 0);
    }

    #[test]
    fn folding_kicks_in_above_the_threshold_and_bounds_memory() {
        let mut s = LatencyStats::new();
        for i in 0..=FOLD_THRESHOLD as u64 {
            s.record(Duration::from_nanos(i * 1000 + 1));
        }
        assert!(s.is_folded());
        assert_eq!(s.len(), FOLD_THRESHOLD + 1);
        assert!(s.samples_ns.is_empty(), "raw samples dropped after fold");
        assert_eq!(s.bins.len(), NUM_BINS);
    }

    #[test]
    fn folded_percentiles_track_exact_within_one_bin_width() {
        // Same stream into a folded collector and an exact sorted
        // sample.
        let n = FOLD_THRESHOLD as u64 + 4096;
        let mut folded = LatencyStats::new();
        let mut exact_samples: Vec<u64> = Vec::new();
        let mut z = 0x1234_5678u64;
        for _ in 0..n {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = 1_000 + (z >> 33) % 50_000_000; // 1us..50ms spread
            folded.record(Duration::from_nanos(ns));
            exact_samples.push(ns);
        }
        assert!(folded.is_folded());
        exact_samples.sort_unstable();
        for p in [50.0, 95.0, 99.0, 99.9] {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            let exact = exact_samples[rank.clamp(1, n as usize) - 1];
            let approx = folded.percentile(p).as_nanos() as u64;
            let tol = LatencyStats::bin_width_at(exact);
            assert!(
                approx.abs_diff(exact) <= tol,
                "p{p}: approx {approx} vs exact {exact} (tol {tol})"
            );
        }
        let true_max = *exact_samples.last().unwrap();
        let p100 = folded.percentile(100.0).as_nanos() as u64;
        assert!(p100 <= true_max);
        assert!(true_max - p100 <= LatencyStats::bin_width_at(true_max));
        assert_eq!(folded.max().as_nanos() as u64, true_max);
    }

    #[test]
    fn folded_mean_and_max_stay_exact() {
        let mut s = LatencyStats::new();
        let n = FOLD_THRESHOLD as u64 + 10;
        for i in 1..=n {
            s.record(Duration::from_nanos(i));
        }
        assert!(s.is_folded());
        assert_eq!(s.mean(), Duration::from_nanos(n.div_ceil(2)));
        assert_eq!(s.max(), Duration::from_nanos(n));
    }

    #[test]
    fn with_capacity_never_preallocates_past_the_fold_threshold() {
        let s = LatencyStats::with_capacity(10_000_000);
        assert!(s.samples_ns.capacity() <= FOLD_THRESHOLD + 1);
    }
}
