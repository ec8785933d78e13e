/// One ranking request: a user context plus a pool of candidate items with
/// hidden true utilities.
///
/// The *utility* of candidate `i` is the latent "how much would this user
/// like this item" value the recommendation system is trying to estimate.
/// Models observe noisy versions of it; quality (NDCG) is computed against
/// the true values — exactly how the paper separates model accuracy from
/// application quality.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingQuery {
    /// Monotone query identifier.
    pub id: u64,
    /// True (hidden) utilities of each candidate item, in score space.
    /// Gains for NDCG are `utility^gain_exponent` (see
    /// [`DatasetSpec::gain_exponent`](crate::DatasetSpec::gain_exponent)).
    pub utilities: Vec<f64>,
}

impl RankingQuery {
    /// Number of candidate items in the pool.
    pub fn num_candidates(&self) -> usize {
        self.utilities.len()
    }
}

/// One labeled training example for the learned-model path (Figure 2).
///
/// Dense features and sparse ids are drawn from a latent-factor process in
/// which the click probability is a logistic function of the user-item
/// affinity, so models that learn the latent structure achieve lower error.
#[derive(Debug, Clone, PartialEq)]
pub struct ClickSample {
    /// Continuous input features (13 for the Criteo-like profile).
    pub dense: Vec<f32>,
    /// One categorical id per embedding table.
    pub sparse: Vec<u32>,
    /// Whether the user clicked.
    pub clicked: bool,
    /// The latent click probability the sample was drawn from (available
    /// to tests and calibration; real datasets do not expose this).
    pub true_ctr: f32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_candidates_counts_pool() {
        let q = RankingQuery {
            id: 2,
            utilities: vec![0.0; 128],
        };
        assert_eq!(q.num_candidates(), 128);
    }
}
