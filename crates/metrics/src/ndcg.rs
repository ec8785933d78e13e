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
    gains
        .iter()
        .enumerate()
        .map(|(i, &g)| g / ((i + 2) as f64).log2())
        .sum()
}

/// Returns `gains` sorted descending — the ideal ordering used as the
/// NDCG normalizer.
pub fn ideal_sorted(gains: &[f64]) -> Vec<f64> {
    let mut sorted = gains.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
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

/// Positions of the `k` highest-scoring `items` (all of them when
/// `k >= items.len()`), best first.
///
/// Equal scores keep their input order, so the result is exactly the
/// first `k` positions of a stable descending sort by `score`, ties
/// included. It costs a linear-time selection of the `k`-th largest
/// score plus a sort of the `k` survivors instead of a sort of every
/// item. Scores must not be NaN.
///
/// # Examples
///
/// ```
/// use recpipe_metrics::top_k_positions;
/// let scores = [0.5, 0.9, 0.1, 0.9];
/// assert_eq!(top_k_positions(&scores, 3, |&s| s), vec![1, 3, 0]);
/// ```
pub fn top_k_positions<T>(items: &[T], k: usize, score: impl Fn(&T) -> f64) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let descending = |a: &f64, b: &f64| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal);
    let scores: Vec<f64> = items.iter().map(score).collect();
    let mut top: Vec<(usize, f64)> = if k < scores.len() {
        // Keep, in input order, every score above the k-th largest and
        // the earliest of the scores tied with it.
        let mut pivot = scores.clone();
        let (above, &mut kth, _) = pivot.select_nth_unstable_by(k - 1, descending);
        let mut ties = k - above.iter().filter(|&&s| s > kth).count();
        let mut top = Vec::with_capacity(k);
        for (pos, &s) in scores.iter().enumerate() {
            if s > kth || (s == kth && ties > 0) {
                ties -= usize::from(s == kth);
                top.push((pos, s));
            }
        }
        top
    } else {
        scores.into_iter().enumerate().collect()
    };
    // Stable, so equal scores stay in input order.
    top.sort_by(|a, b| descending(&a.1, &b.1));
    top.into_iter().map(|(pos, _)| pos).collect()
}

/// Normalized DCG over full lists.
///
/// `ranked` holds the gains of the items in the order the system served
/// them; `ideal` holds the gains of the best-possible ordering (usually
/// [`ideal_sorted`] of the full candidate pool). Returns a value in
/// `[0, 1]`; returns `1.0` when the ideal DCG is zero (nothing to gain,
/// nothing lost).
pub fn ndcg(ranked: &[f64], ideal: &[f64]) -> f64 {
    let ideal_dcg = dcg(ideal);
    if ideal_dcg <= 0.0 {
        return 1.0;
    }
    (dcg(ranked) / ideal_dcg).clamp(0.0, 1.0)
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
    fn ideal_sorted_is_descending() {
        let s = ideal_sorted(&[1.0, 3.0, 2.0]);
        assert_eq!(s, vec![3.0, 2.0, 1.0]);
    }
}
