use crate::ModelKind;

/// CTR-prediction error (percent) as a function of pure-MLP FLOPs, fitted
/// to the paper's Table 1.
///
/// The fit `error% = 21.128 + 180 * flops^-0.95` passes through all three
/// published points:
///
/// | model   | MLP FLOPs | paper error | fit    |
/// |---------|-----------|-------------|--------|
/// | RMsmall | ~1.1K     | 21.36%      | 21.36% |
/// | RMmed   | ~2.0K     | 21.26%      | 21.26% |
/// | RMlarge | ~180K     | 21.13%      | 21.13% |
///
/// It also provides the smooth accuracy-vs-complexity curve of the
/// Figure 2 hyperparameter sweep, saturating toward the 21.128% error
/// floor inherent to the dataset's label noise.
///
/// # Examples
///
/// ```
/// let err = recpipe_models::error_percent_from_flops(1_150);
/// assert!((err - 21.36).abs() < 0.05);
/// ```
pub fn error_percent_from_flops(flops: u64) -> f64 {
    const FLOOR: f64 = 21.128;
    const SCALE: f64 = 180.0;
    const EXPONENT: f64 = -0.95;
    FLOOR + SCALE * (flops.max(1) as f64).powf(EXPONENT)
}

/// Calibrated statistical accuracy model linking a model tier to (a) its
/// CTR error and (b) the score-noise level used by the quality evaluator.
///
/// The statistical quality path scores item `i` as
/// `utility_i + Normal(0, sigma)`; larger sigma means a less accurate
/// model. The sigma values below were calibrated (see
/// `recpipe-bench/src/bin/calibrate.rs`) so that single-stage NDCG@64 on
/// the Criteo-like workload reproduces the paper:
///
/// * RMlarge ranking 4096 items → NDCG ≈ 92.25 (the paper's max-quality
///   target),
/// * RMsmall ranking 4096 items → NDCG ≈ 91.3 (Figure 3),
/// * RMsmall→RMlarge two-stage at 4096→256 → NDCG ≈ 92.25 (iso-quality,
///   Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyModel {
    sigma_small: f64,
    sigma_med: f64,
    sigma_large: f64,
}

impl AccuracyModel {
    /// Calibrated constants for the Criteo-like workload (see the
    /// `calibrate` binary): single-stage NDCG@64 at 4096 items lands at
    /// 91.3 / 91.8 / 92.25 for the three tiers.
    pub fn criteo() -> Self {
        Self {
            sigma_small: 0.750,
            sigma_med: 0.730,
            sigma_large: 0.705,
        }
    }

    /// Calibrated constants for the MovieLens-like workloads (NeuMF's
    /// smaller corpora leave less headroom between tiers).
    pub fn movielens() -> Self {
        Self {
            sigma_small: 0.68,
            sigma_med: 0.64,
            sigma_large: 0.60,
        }
    }

    /// Score-noise standard deviation for a model tier.
    pub fn sigma(&self, kind: ModelKind) -> f64 {
        match kind {
            ModelKind::RmSmall => self.sigma_small,
            ModelKind::RmMed => self.sigma_med,
            ModelKind::RmLarge => self.sigma_large,
        }
    }

    /// Overrides one tier's sigma (used by the calibration harness).
    ///
    /// # Panics
    ///
    /// Panics unless `sigma` is finite and non-negative. Zero is a
    /// noiseless oracle tier.
    pub fn with_sigma(mut self, kind: ModelKind, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and non-negative, got {sigma}"
        );
        match kind {
            ModelKind::RmSmall => self.sigma_small = sigma,
            ModelKind::RmMed => self.sigma_med = sigma,
            ModelKind::RmLarge => self.sigma_large = sigma,
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use recpipe_data::DatasetKind;

    #[test]
    fn fit_reproduces_table1_errors() {
        // MLP FLOPs of the three tiers (bottom + top towers).
        let cases = [
            (ModelKind::RmSmall, 21.36),
            (ModelKind::RmMed, 21.26),
            (ModelKind::RmLarge, 21.13),
        ];
        for (kind, expected) in cases {
            let cost = ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle).cost();
            let err = error_percent_from_flops(cost.mlp_flops_per_item);
            assert!(
                (err - expected).abs() < 0.05,
                "{kind}: fit {err} vs paper {expected}"
            );
        }
    }

    #[test]
    fn error_is_monotone_decreasing_in_flops() {
        let mut prev = f64::INFINITY;
        for flops in [500u64, 1_000, 5_000, 50_000, 500_000] {
            let err = error_percent_from_flops(flops);
            assert!(err < prev);
            prev = err;
        }
    }

    #[test]
    fn error_approaches_floor() {
        let err = error_percent_from_flops(100_000_000);
        assert!((err - 21.128).abs() < 0.01);
    }

    #[test]
    fn sigma_ordering_matches_accuracy_ordering() {
        for model in [AccuracyModel::criteo(), AccuracyModel::movielens()] {
            assert!(model.sigma(ModelKind::RmSmall) > model.sigma(ModelKind::RmMed));
            assert!(model.sigma(ModelKind::RmMed) > model.sigma(ModelKind::RmLarge));
        }
    }

    #[test]
    fn with_sigma_overrides_one_tier() {
        let m = AccuracyModel::criteo().with_sigma(ModelKind::RmMed, 0.123);
        assert_eq!(m.sigma(ModelKind::RmMed), 0.123);
        assert_eq!(
            m.sigma(ModelKind::RmSmall),
            AccuracyModel::criteo().sigma(ModelKind::RmSmall)
        );
        // A noiseless tier is legal.
        let oracle = AccuracyModel::criteo().with_sigma(ModelKind::RmSmall, 0.0);
        assert_eq!(oracle.sigma(ModelKind::RmSmall), 0.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn with_sigma_rejects_nan() {
        AccuracyModel::criteo().with_sigma(ModelKind::RmSmall, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn with_sigma_rejects_a_negative_sigma() {
        AccuracyModel::criteo().with_sigma(ModelKind::RmSmall, -0.5);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn with_sigma_rejects_an_infinite_sigma() {
        AccuracyModel::criteo().with_sigma(ModelKind::RmSmall, f64::INFINITY);
    }
}
