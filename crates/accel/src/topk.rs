/// Streaming, approximate top-k filtering unit (paper Figure 10(b),
/// Takeaway 6).
///
/// The final MLP layer emits one CTR score per cycle. Instead of sorting
/// (whose latency scales with item count and whose hardware is
/// area-hungry), the unit:
///
/// 1. maintains `num_bins` score buckets over `[0, 1)`;
/// 2. drops scores below `ctr_threshold` (saving id-buffer SRAM: the
///    paper reduces the weight-SRAM overhead from 12% to 3% at a 0.5
///    threshold);
/// 3. after the stream ends, walks bins from the top until at least `k`
///    ids are covered and forwards those ids — *at least* `k`,
///    approximately ordered at bin granularity.
///
/// The selected set is a superset of the true top-`m` for some `m <= k`
/// and always contains every item whose score clears the lowest selected
/// bin — the inter-stage filter does not need total order (scores are
/// recomputed by the next stage anyway), which is why the approximation
/// does not degrade end-to-end quality.
///
/// # Examples
///
/// ```
/// use recpipe_accel::TopKFilter;
///
/// let filter = TopKFilter::paper_default(512);
/// let scores: Vec<(u64, f64)> = (0..4096).map(|i| (i, (i % 1000) as f64 / 1000.0)).collect();
/// let out = filter.filter(&scores);
/// assert!(out.selected.len() >= 512);
/// assert!(out.drain_cycles < 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKFilter {
    num_bins: usize,
    k: usize,
    ctr_threshold: f64,
}

/// Result of filtering one score stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutcome {
    /// Ids forwarded to the next stage (at least `k` when enough items
    /// clear the threshold), in bin-major (approximately descending
    /// score) order.
    pub selected: Vec<u64>,
    /// Ids that cleared the CTR threshold and therefore occupied id
    /// buffer space.
    pub buffered: usize,
    /// Cycles to identify the selected bins and copy their ids out after
    /// the stream ends (the only non-overlapped latency; binning itself
    /// rides on the score stream at one per cycle).
    pub drain_cycles: u64,
}

impl TopKFilter {
    /// Bytes buffered per candidate id: the id plus the dense/categorical
    /// input payload the next stage will need (13 dense floats + 26
    /// sparse ids + score/metadata).
    pub const BYTES_PER_BUFFERED_ITEM: u64 = 192;

    /// Creates a filter with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_bins == 0`, `k == 0`, or the threshold is outside
    /// `[0, 1)`.
    pub fn new(num_bins: usize, k: usize, ctr_threshold: f64) -> Self {
        assert!(num_bins > 0, "need at least one bin");
        assert!(k > 0, "k must be positive");
        assert!(
            (0.0..1.0).contains(&ctr_threshold),
            "threshold must be in [0, 1)"
        );
        Self {
            num_bins,
            k,
            ctr_threshold,
        }
    }

    /// The paper's configuration: 16 bins, CTR threshold 0.5.
    pub fn paper_default(k: usize) -> Self {
        Self::new(16, k, 0.5)
    }

    /// Number of score buckets.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Items forwarded per query (minimum).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Scores below this are never buffered.
    pub fn ctr_threshold(&self) -> f64 {
        self.ctr_threshold
    }

    fn bin_of(&self, score: f64) -> usize {
        let s = score.clamp(0.0, 1.0 - f64::EPSILON);
        (s * self.num_bins as f64) as usize
    }

    /// Filters a stream of `(id, score)` pairs.
    pub fn filter(&self, scores: &[(u64, f64)]) -> FilterOutcome {
        let mut bins: Vec<Vec<u64>> = vec![Vec::new(); self.num_bins];
        let mut buffered = 0usize;
        for &(id, score) in scores {
            if score < self.ctr_threshold {
                continue;
            }
            bins[self.bin_of(score)].push(id);
            buffered += 1;
        }

        let mut selected = Vec::with_capacity(self.k);
        for bin in bins.iter().rev() {
            if selected.len() >= self.k {
                break;
            }
            selected.extend_from_slice(bin);
        }
        // If thresholding starved the filter, fall back to the best
        // below-threshold items so downstream stages always have k
        // candidates (rare in practice; CTR mass sits above 0.5 for
        // retrieved candidates).
        if selected.len() < self.k {
            let mut rest: Vec<(u64, f64)> = scores
                .iter()
                .copied()
                .filter(|&(_, s)| s < self.ctr_threshold)
                .collect();
            rest.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            for (id, _) in rest {
                if selected.len() >= self.k {
                    break;
                }
                selected.push(id);
            }
        }

        // Drain: scan bin counters (num_bins cycles) then copy the
        // selected ids to DRAM at one per cycle.
        let drain_cycles = self.num_bins as u64 + selected.len() as u64;
        FilterOutcome {
            selected,
            buffered,
            drain_cycles,
        }
    }

    /// Fraction of a weight SRAM of `sram_bytes` consumed by buffering
    /// `buffered` candidate payloads (Figure 10(b): 4K items on an 8 MB
    /// SRAM is ~10-12%; a 0.5 threshold cuts it to ~3%).
    pub fn sram_overhead(buffered: usize, sram_bytes: u64) -> f64 {
        (buffered as u64 * Self::BYTES_PER_BUFFERED_ITEM) as f64 / sram_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SRAM_8MB: u64 = 8 * 1024 * 1024;

    fn uniform_scores(n: u64, seed: u64) -> Vec<(u64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|i| (i, rng.gen::<f64>())).collect()
    }

    #[test]
    fn selects_at_least_k() {
        let filter = TopKFilter::paper_default(512);
        let out = filter.filter(&uniform_scores(4096, 1));
        assert!(out.selected.len() >= 512);
    }

    #[test]
    fn selected_contains_every_true_top_item_above_threshold() {
        // Every true top-k item with score >= the lowest selected bin's
        // floor must be present: the filter never drops a clear winner.
        let filter = TopKFilter::paper_default(64);
        let scores = uniform_scores(1024, 2);
        let out = filter.filter(&scores);

        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let selected: std::collections::HashSet<u64> = out.selected.iter().copied().collect();
        for &(id, score) in sorted.iter().take(32) {
            if score >= 0.5 + 1.0 / 16.0 {
                assert!(selected.contains(&id), "dropped top item {id} ({score})");
            }
        }
    }

    #[test]
    fn threshold_cuts_buffer_occupancy_4x() {
        // Figure 10(b): thresholding at 0.5 cuts id-buffer SRAM from ~12%
        // to ~3% for uniform-ish CTR scores.
        let with_thresh = TopKFilter::new(16, 512, 0.5);
        let without = TopKFilter::new(16, 512, 0.0);
        let scores = uniform_scores(4096, 3);
        let all = without.filter(&scores).buffered;
        let cut = with_thresh.filter(&scores).buffered;
        let full_overhead = TopKFilter::sram_overhead(all, SRAM_8MB);
        let cut_overhead = TopKFilter::sram_overhead(cut, SRAM_8MB);
        assert!(
            (0.07..0.13).contains(&full_overhead),
            "full overhead {full_overhead}"
        );
        assert!(
            (0.02..0.06).contains(&cut_overhead),
            "thresholded overhead {cut_overhead}"
        );
    }

    #[test]
    fn drain_is_a_couple_hundred_cycles_for_small_k() {
        // Paper: "a couple hundred accelerator cycles, negligible
        // compared to model inference".
        let filter = TopKFilter::paper_default(64);
        let out = filter.filter(&uniform_scores(4096, 4));
        assert!(out.drain_cycles < 600, "drain cycles {}", out.drain_cycles);
    }

    #[test]
    fn starved_filter_falls_back_below_threshold() {
        // All scores below the threshold: the filter must still forward k
        // candidates.
        let filter = TopKFilter::new(16, 8, 0.9);
        let scores: Vec<(u64, f64)> = (0..32).map(|i| (i, 0.1 + (i as f64) * 0.01)).collect();
        let out = filter.filter(&scores);
        assert_eq!(out.selected.len(), 8);
        // And they are the best below-threshold items.
        assert!(out.selected.contains(&31));
    }

    #[test]
    fn empty_stream_yields_empty_selection() {
        let filter = TopKFilter::paper_default(64);
        let out = filter.filter(&[]);
        assert!(out.selected.is_empty());
        assert_eq!(out.buffered, 0);
    }

    #[test]
    fn bin_order_is_approximately_descending() {
        let filter = TopKFilter::new(16, 16, 0.0);
        let scores: Vec<(u64, f64)> = (0..64).map(|i| (i, i as f64 / 64.0)).collect();
        let out = filter.filter(&scores);
        // First selected id must come from the top bin.
        let first_score = out.selected[0] as f64 / 64.0;
        assert!(first_score >= 1.0 - 2.0 / 16.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_of_one_panics() {
        TopKFilter::new(16, 8, 1.0);
    }
}
