//! Discounted cumulative gain and its normalized form.
//!
//! Following Järvelin & Kekäläinen (and the RecPipe paper, Section 2.2),
//! for a ranked list of `N` items with gains `rel_i`:
//!
//! ```text
//! DCG = Σ_{i=1..N} rel_i / log2(i + 1)
//! NDCG = DCG(measured ordering) / DCG(ideal ordering)
//! ```
//!
//! The paper reports NDCG of the top **64** items served, scaled to
//! percent (e.g. the Criteo maximum-quality target is NDCG 92.25).

use std::cmp::Ordering;

/// Discounted cumulative gain of `gains` listed in ranked order
/// (position 0 is the top-ranked item).
///
/// # Examples
///
/// ```
/// use recpipe_metrics::dcg;
/// // Gain 3 at rank 1 is worth 3/log2(2) = 3.
/// assert!((dcg(&[3.0]) - 3.0).abs() < 1e-9);
/// ```
pub fn dcg(gains: &[f64]) -> f64 {
    discounted(gains.iter().copied(), (0..).map(discount))
}

/// The discount `log2(i + 2)` of rank position `i`.
fn discount(i: usize) -> f64 {
    ((i + 2) as f64).log2()
}

/// The one DCG sum: each gain divided by its position's discount,
/// summed in rank order.
fn discounted(gains: impl Iterator<Item = f64>, discounts: impl Iterator<Item = f64>) -> f64 {
    gains.zip(discounts).map(|(g, d)| g / d).sum()
}

/// NDCG of a ranking whose DCG is `dcg` against the ideal ordering's
/// DCG: `1.0` when the ideal DCG is zero (nothing to gain, nothing
/// lost).
fn normalized(dcg: f64, ideal_dcg: f64) -> f64 {
    if ideal_dcg <= 0.0 {
        return 1.0;
    }
    (dcg / ideal_dcg).clamp(0.0, 1.0)
}

/// NDCG@k for many rankings: the `k` rank discounts are computed once,
/// and each ranking is scored against a normalizer, the DCG of the
/// ideal prefix, that the caller computes once for all the rankings of
/// one query. Every value is bit for bit what [`ndcg_at_k`] returns.
///
/// # Examples
///
/// ```
/// use recpipe_metrics::{ndcg_at_k, NdcgAtK};
/// let (ranked, ideal) = ([1.0, 3.0, 0.0], [3.0, 1.0, 0.0]);
/// let at_2 = NdcgAtK::new(2);
/// let normalizer = at_2.dcg(ideal);
/// assert_eq!(at_2.ndcg(ranked, normalizer), ndcg_at_k(&ranked, &ideal, 2));
/// ```
#[derive(Debug, Clone)]
pub struct NdcgAtK {
    /// The discounts of rank positions `0..k`.
    discounts: Vec<f64>,
}

impl NdcgAtK {
    /// NDCG of the top `k` positions.
    pub fn new(k: usize) -> Self {
        Self {
            discounts: (0..k).map(discount).collect(),
        }
    }

    /// DCG of the first `k` of `gains`, listed in ranked order.
    pub fn dcg(&self, gains: impl IntoIterator<Item = f64>) -> f64 {
        discounted(gains.into_iter(), self.discounts.iter().copied())
    }

    /// NDCG of the first `k` of the `ranked` gains against `ideal_dcg`,
    /// the [`dcg`](Self::dcg) of the ideal ordering.
    pub fn ndcg(&self, ranked: impl IntoIterator<Item = f64>, ideal_dcg: f64) -> f64 {
        normalized(self.dcg(ranked), ideal_dcg)
    }
}

/// Returns `gains` sorted descending — the ideal ordering used as the
/// NDCG normalizer.
pub fn ideal_sorted(gains: &[f64]) -> Vec<f64> {
    let mut sorted = gains.to_vec();
    sorted.sort_by(|a, b| descending(*a, *b));
    sorted
}

/// The `k` largest `gains`, sorted descending: exactly the first `k`
/// entries of [`ideal_sorted`], which is all [`ndcg_at_k`] reads of
/// the ideal ordering, found without sorting the whole pool.
///
/// # Examples
///
/// ```
/// use recpipe_metrics::{ideal_sorted, ideal_top_k};
/// let gains = [1.0, 4.0, 2.0, 4.0, 3.0];
/// assert_eq!(ideal_top_k(&gains, 3), ideal_sorted(&gains)[..3]);
/// ```
pub fn ideal_top_k(gains: &[f64], k: usize) -> Vec<f64> {
    top_k_positions(gains, k, |&g| g)
        .into_iter()
        .map(|pos| gains[pos])
        .collect()
}

/// Lists at least this long are prefiltered by a sample of their scores
/// before a top-k selection; for shorter ones the sample costs more
/// than it saves.
const PREFILTER_MIN_LEN: usize = 1024;

/// Scores in the prefilter's evenly spaced sample.
const SAMPLE_LEN: usize = 256;

/// Positions of the `k` highest-scoring `items` (all of them when
/// `k >= items.len()`), in input order.
///
/// Equal scores keep the earliest positions, so the set is exactly the
/// first `k` positions of a stable descending sort by `score`, ties
/// included, put back in input order. Nothing is sorted: the scores are
/// copied once, long lists keep only the items at or above a threshold
/// read from an evenly spaced sample of their scores (all items when
/// fewer than `k` pass, so the set is exact whatever the scores), a
/// linear-time selection finds the `k`-th largest score among them, and
/// one pass keeps the set in input order. Neither pass over the items
/// branches on a score. Scores must not be NaN.
///
/// # Examples
///
/// ```
/// use recpipe_metrics::top_k_set;
/// let scores = [0.5, 0.9, 0.1, 0.9];
/// assert_eq!(top_k_set(&scores, 2, |&s| s), vec![1, 3]);
/// assert_eq!(top_k_set(&scores, 3, |&s| s), vec![0, 1, 3]);
/// ```
pub fn top_k_set<T>(items: &[T], k: usize, score: impl Fn(&T) -> f64) -> Vec<usize> {
    top_k_scored(items, k, score)
        .into_iter()
        .map(|(pos, _)| pos)
        .collect()
}

/// Positions of the `k` highest-scoring `items` (all of them when
/// `k >= items.len()`), best first.
///
/// Equal scores keep their input order, so the result is exactly the
/// first `k` positions of a stable descending sort by `score`, ties
/// included: the [`top_k_set`], stable-sorted by score. Only those `k`
/// items are sorted. Scores must not be NaN.
///
/// # Examples
///
/// ```
/// use recpipe_metrics::top_k_positions;
/// let scores = [0.5, 0.9, 0.1, 0.9];
/// assert_eq!(top_k_positions(&scores, 3, |&s| s), vec![1, 3, 0]);
/// ```
pub fn top_k_positions<T>(items: &[T], k: usize, score: impl Fn(&T) -> f64) -> Vec<usize> {
    let mut top = top_k_scored(items, k, score);
    top.sort_by(|a, b| descending(a.1, b.1));
    top.into_iter().map(|(pos, _)| pos).collect()
}

/// Descending score order; equal scores (`-0.0` and `0.0` among them)
/// compare equal.
fn descending(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a).unwrap_or(Ordering::Equal)
}

/// The [`top_k_set`] of `items` with each member's score.
fn top_k_scored<T>(items: &[T], k: usize, score: impl Fn(&T) -> f64) -> Vec<(usize, f64)> {
    if k >= items.len() {
        return items.iter().map(score).enumerate().collect();
    }
    if k == 0 {
        return Vec::new();
    }
    let (kept, mut scores) = candidates(items, k, &score);
    // Select the k-th largest score in place, then keep, in input order,
    // every candidate above it and the earliest of those tied with it.
    let (above, &mut kth, _) = scores.select_nth_unstable_by(k - 1, |a, b| descending(*a, *b));
    let mut ties = k - above.iter().filter(|&&s| s > kth).count();
    // Every candidate is written; only the kept advance the end, so no
    // branch depends on a score. The end never passes `k`.
    let mut top = vec![(0, 0.0); k + 1];
    let mut len = 0;
    for pos in kept {
        let s = score(&items[pos]);
        let tie = s == kth;
        let keep = (s > kth) | (tie & (ties > 0));
        top[len] = (pos, s);
        len += usize::from(keep);
        ties -= usize::from(keep & tie);
    }
    top.truncate(k);
    top
}

/// Positions, in input order, of the items the top `k < items.len()`
/// is selected among, and a copy of their scores: on long lists only
/// the items at or above [`prefilter_threshold`], unless fewer than
/// `k` reach it.
fn candidates<T>(items: &[T], k: usize, score: &impl Fn(&T) -> f64) -> (Vec<usize>, Vec<f64>) {
    if let Some(threshold) = prefilter_threshold(items, k, score) {
        // Every item is written; only those at or above the threshold
        // advance the end, so no branch depends on a score.
        let mut kept = vec![0; items.len()];
        let mut len = 0;
        for (pos, item) in items.iter().enumerate() {
            kept[len] = pos;
            len += usize::from(score(item) >= threshold);
        }
        if len >= k {
            kept.truncate(len);
            let scores = kept.iter().map(|&pos| score(&items[pos])).collect();
            return (kept, scores);
        }
    }
    (
        (0..items.len()).collect(),
        items.iter().map(score).collect(),
    )
}

/// A score that at least `k` of `items` very likely reach: the `r`-th
/// largest of an evenly spaced sample of `SAMPLE_LEN` scores, with `r`
/// about four standard deviations above the number of sampled items
/// expected among the top `k`. `None` for lists too short to sample,
/// or when the threshold would keep nearly every item anyway.
fn prefilter_threshold<T>(items: &[T], k: usize, score: impl Fn(&T) -> f64) -> Option<f64> {
    let n = items.len();
    if n < PREFILTER_MIN_LEN {
        return None;
    }
    let expected = (k * SAMPLE_LEN) as f64 / n as f64;
    let rank = (expected + 4.0 * expected.sqrt()).ceil() as usize + 4;
    if rank >= SAMPLE_LEN {
        return None;
    }
    let mut sample: Vec<f64> = (0..SAMPLE_LEN)
        .map(|i| score(&items[i * n / SAMPLE_LEN]))
        .collect();
    let (_, &mut threshold, _) = sample.select_nth_unstable_by(rank - 1, |a, b| descending(*a, *b));
    Some(threshold)
}

/// Normalized DCG over full lists.
///
/// `ranked` holds the gains of the items in the order the system served
/// them; `ideal` holds the gains of the best-possible ordering (usually
/// [`ideal_sorted`] of the full candidate pool). Returns a value in
/// `[0, 1]`; returns `1.0` when the ideal DCG is zero (nothing to gain,
/// nothing lost).
pub fn ndcg(ranked: &[f64], ideal: &[f64]) -> f64 {
    normalized(dcg(ranked), dcg(ideal))
}

/// NDCG of the top `k` positions.
///
/// This is the paper's quality metric with `k = 64`: the measured DCG of
/// the first `k` served items against the DCG of the `k` best candidates.
///
/// # Examples
///
/// ```
/// use recpipe_metrics::ndcg_at_k;
/// let perfect = ndcg_at_k(&[3.0, 2.0, 1.0], &[3.0, 2.0, 1.0], 3);
/// assert!((perfect - 1.0).abs() < 1e-9);
/// ```
pub fn ndcg_at_k(ranked: &[f64], ideal: &[f64], k: usize) -> f64 {
    let rk = ranked.len().min(k);
    let ik = ideal.len().min(k);
    ndcg(&ranked[..rk], &ideal[..ik])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcg_discounts_by_position() {
        // Same gain is worth more at a higher rank.
        let front = dcg(&[1.0, 0.0]);
        let back = dcg(&[0.0, 1.0]);
        assert!(front > back);
    }

    #[test]
    fn dcg_of_empty_is_zero() {
        assert_eq!(dcg(&[]), 0.0);
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let gains = [5.0, 3.0, 1.0, 0.5];
        let ideal = ideal_sorted(&gains);
        assert!((ndcg(&ideal, &ideal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_reversed_ranking_is_less_than_one() {
        let ideal = [4.0, 3.0, 2.0, 1.0];
        let reversed = [1.0, 2.0, 3.0, 4.0];
        let q = ndcg(&reversed, &ideal);
        assert!(q < 1.0);
        assert!(q > 0.0);
    }

    #[test]
    fn ndcg_all_zero_gains_is_one() {
        assert_eq!(ndcg(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn ndcg_at_k_ignores_tail() {
        let ideal = [3.0, 2.0, 1.0, 0.0];
        // Top-2 correct, tail scrambled: NDCG@2 is perfect.
        let ranked = [3.0, 2.0, 0.0, 1.0];
        assert!((ndcg_at_k(&ranked, &ideal, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_at_k_with_k_larger_than_lists() {
        let q = ndcg_at_k(&[1.0], &[1.0], 100);
        assert!((q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_good_item_lowers_ndcg() {
        // Serving mediocre items when a great one existed hurts quality —
        // this is exactly why ranking more candidates raises quality.
        let ideal = [10.0, 1.0, 1.0];
        let served_without_best = [1.0, 1.0, 0.0];
        assert!(ndcg_at_k(&served_without_best, &ideal, 3) < 0.5);
    }

    #[test]
    fn a_misleading_sample_falls_back_to_every_item() {
        // Every sampled score is the top one, so the sampled threshold
        // keeps fewer than k items and the selection runs over all.
        let n = 4 * PREFILTER_MIN_LEN;
        let stride = n / SAMPLE_LEN;
        let scores: Vec<f64> = (0..n)
            .map(|i| {
                if i % stride == 0 {
                    1.0
                } else {
                    (i % 7) as f64 / 10.0
                }
            })
            .collect();
        let k = SAMPLE_LEN + 100;
        assert_eq!(prefilter_threshold(&scores, k, |&s| s), Some(1.0));
        let mut stable: Vec<usize> = (0..n).collect();
        stable.sort_by(|&a, &b| descending(scores[a], scores[b]));
        let mut set = stable[..k].to_vec();
        set.sort_unstable();
        assert_eq!(top_k_set(&scores, k, |&s| s), set);
        assert_eq!(top_k_positions(&scores, k, |&s| s), stable[..k]);
    }

    #[test]
    fn ideal_sorted_is_descending() {
        let s = ideal_sorted(&[1.0, 3.0, 2.0]);
        assert_eq!(s, vec![3.0, 2.0, 1.0]);
    }
}
