/// Confusion-matrix counts for a binary click-through-rate classifier.
///
/// The paper's "model error" (Table 1: 21.36% / 21.26% / 21.13%) is the
/// fraction of single user-item interactions the model misclassifies —
/// the *accuracy* metric that quality (NDCG) subsumes.
///
/// # Examples
///
/// ```
/// use recpipe_metrics::BinaryConfusion;
///
/// let mut cm = BinaryConfusion::new();
/// cm.observe(0.9, true);  // correct positive
/// cm.observe(0.2, true);  // missed positive
/// cm.observe(0.1, false); // correct negative
/// assert!((cm.error() - 1.0 / 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryConfusion {
    /// Predicted positive, actually positive.
    pub true_positives: u64,
    /// Predicted positive, actually negative.
    pub false_positives: u64,
    /// Predicted negative, actually negative.
    pub true_negatives: u64,
    /// Predicted negative, actually positive.
    pub false_negatives: u64,
}

impl BinaryConfusion {
    /// Decision threshold applied to scores: `score > 0.5` predicts a click.
    pub const THRESHOLD: f64 = 0.5;

    /// Creates an empty confusion matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction (`score` in `[0, 1]`) against the label.
    pub fn observe(&mut self, score: f64, clicked: bool) {
        let predicted = score > Self::THRESHOLD;
        match (predicted, clicked) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
            (false, true) => self.false_negatives += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Misclassification rate in `[0, 1]`; `0` when empty.
    pub fn error(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.false_positives + self.false_negatives) as f64 / total as f64
    }

    /// Classification accuracy (`1 - error`).
    pub fn accuracy(&self) -> f64 {
        1.0 - self.error()
    }
}

/// Area under the ROC curve via the rank-sum (Mann–Whitney U) statistic.
///
/// Returns `0.5` when either class is absent (no ranking information).
///
/// # Panics
///
/// Panics if the slice lengths differ.
///
/// # Examples
///
/// ```
/// // Perfectly separated scores give AUC 1.0.
/// let auc = recpipe_metrics::auc(&[0.9, 0.8, 0.1], &[true, true, false]);
/// assert!((auc - 1.0).abs() < 1e-9);
/// ```
pub fn auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let mut indexed: Vec<(f64, bool)> =
        scores.iter().copied().zip(labels.iter().copied()).collect();
    indexed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    let positives = labels.iter().filter(|&&l| l).count() as f64;
    let negatives = labels.len() as f64 - positives;
    if positives == 0.0 || negatives == 0.0 {
        return 0.5;
    }

    // Average ranks over tied scores, then apply the rank-sum formula.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    let n = indexed.len();
    while i < n {
        let mut j = i;
        while j + 1 < n && indexed[j + 1].0 == indexed[i].0 {
            j += 1;
        }
        // Ranks are 1-based; ties share the average rank of the run.
        let avg_rank = ((i + 1 + j + 1) as f64) / 2.0;
        for item in indexed.iter().take(j + 1).skip(i) {
            if item.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum_pos - positives * (positives + 1.0) / 2.0) / (positives * negatives)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts_all_quadrants() {
        let mut cm = BinaryConfusion::new();
        cm.observe(0.9, true);
        cm.observe(0.9, false);
        cm.observe(0.1, true);
        cm.observe(0.1, false);
        assert_eq!(cm.true_positives, 1);
        assert_eq!(cm.false_positives, 1);
        assert_eq!(cm.false_negatives, 1);
        assert_eq!(cm.true_negatives, 1);
        assert!((cm.error() - 0.5).abs() < 1e-12);
        assert!((cm.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_confusion_has_zero_error() {
        assert_eq!(BinaryConfusion::new().error(), 0.0);
    }

    #[test]
    fn auc_perfect_separation() {
        let scores = [0.9, 0.8, 0.7, 0.2, 0.1];
        let labels = [true, true, true, false, false];
        assert!((auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_inverted_separation_is_zero() {
        let scores = [0.1, 0.2, 0.9];
        let labels = [true, true, false];
        assert!(auc(&scores, &labels) < 1e-12);
    }

    #[test]
    fn auc_with_ties_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_returns_half() {
        assert_eq!(auc(&[0.3, 0.7], &[true, true]), 0.5);
        assert_eq!(auc(&[0.3, 0.7], &[false, false]), 0.5);
    }

    #[test]
    fn auc_is_threshold_free() {
        // Scaling scores monotonically must not change AUC.
        let scores = [0.2, 0.4, 0.6, 0.8];
        let scaled: Vec<f64> = scores.iter().map(|s| s * 0.5).collect();
        let labels = [false, true, false, true];
        assert!((auc(&scores, &labels) - auc(&scaled, &labels)).abs() < 1e-12);
    }
}
