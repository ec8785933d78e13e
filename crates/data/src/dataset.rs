/// The three open-source workloads evaluated in the paper (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Criteo Kaggle display-advertising CTR dataset — served by DLRM,
    /// embedding-capacity dominated.
    CriteoKaggle,
    /// MovieLens 1M — served by neural matrix factorization, MLP dominated.
    MovieLens1M,
    /// MovieLens 20M — served by neural matrix factorization, larger corpus.
    MovieLens20M,
}

impl DatasetKind {
    /// All dataset kinds, in the order the paper's summary figure uses.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::CriteoKaggle,
        DatasetKind::MovieLens1M,
        DatasetKind::MovieLens20M,
    ];

    /// Human-readable dataset name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::CriteoKaggle => "Criteo Kaggle",
            DatasetKind::MovieLens1M => "MovieLens 1M",
            DatasetKind::MovieLens20M => "MovieLens 20M",
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistical description of a synthetic dataset.
///
/// The spec captures the workload properties the RecPipe evaluation depends
/// on — candidate-pool sizes, categorical-feature cardinalities, embedding
/// access locality, and gain-distribution shape — without the raw data.
///
/// # Examples
///
/// ```
/// use recpipe_data::DatasetSpec;
///
/// let criteo = DatasetSpec::criteo_kaggle();
/// assert_eq!(criteo.num_sparse_features, 26);
/// assert_eq!(criteo.candidates_per_query, 4096);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which workload this spec models.
    pub kind: DatasetKind,
    /// Number of dense (continuous) input features per item.
    pub num_dense_features: usize,
    /// Number of sparse (categorical) features, i.e. embedding tables.
    pub num_sparse_features: usize,
    /// Rows per embedding table (uniform across tables for simplicity;
    /// Criteo's 26 tables hold ~67M rows total in the paper's 1–8 GB
    /// models).
    pub rows_per_table: u64,
    /// Candidate items entering the first ranking stage of each query.
    pub candidates_per_query: usize,
    /// Zipf exponent of embedding-id popularity; larger means hotter heads
    /// and better cacheability.
    pub zipf_exponent: f64,
    /// Gain transform exponent: item gain is `utility^gain_exponent`.
    /// Heavier tails (larger values) make quality more sensitive to the
    /// number of items ranked (Figure 3).
    pub gain_exponent: f64,
    /// Typical per-stage reduction in items to rank (paper Section 8:
    /// roughly 5.0x / 2.5x / 4.0x for Criteo / ML-1M / ML-20M).
    pub stage_reduction: f64,
    /// Number of items served to the user; quality is NDCG over this
    /// prefix (64 throughout the paper).
    pub top_k_served: usize,
}

impl DatasetSpec {
    /// Criteo Kaggle profile: 13 dense + 26 sparse features, deep
    /// embedding capacity, 4096-item candidate pools.
    pub fn criteo_kaggle() -> Self {
        Self {
            kind: DatasetKind::CriteoKaggle,
            num_dense_features: 13,
            num_sparse_features: 26,
            rows_per_table: 2_600_000,
            candidates_per_query: 4096,
            zipf_exponent: 0.9,
            gain_exponent: 3.0,
            stage_reduction: 5.0,
            top_k_served: 64,
        }
    }

    /// MovieLens 1M profile: two embedding tables (users, items), small
    /// corpus, MLP-dominated neural matrix factorization.
    pub fn movielens_1m() -> Self {
        Self {
            kind: DatasetKind::MovieLens1M,
            num_dense_features: 0,
            num_sparse_features: 2,
            rows_per_table: 6040,
            candidates_per_query: 1024,
            zipf_exponent: 0.75,
            gain_exponent: 2.0,
            stage_reduction: 2.5,
            top_k_served: 64,
        }
    }

    /// MovieLens 20M profile: larger corpus than 1M, still MLP dominated.
    pub fn movielens_20m() -> Self {
        Self {
            kind: DatasetKind::MovieLens20M,
            num_dense_features: 0,
            num_sparse_features: 2,
            rows_per_table: 138_000,
            candidates_per_query: 4096,
            zipf_exponent: 0.85,
            gain_exponent: 2.5,
            stage_reduction: 4.0,
            top_k_served: 64,
        }
    }

    /// Builds the spec for a [`DatasetKind`].
    pub fn for_kind(kind: DatasetKind) -> Self {
        match kind {
            DatasetKind::CriteoKaggle => Self::criteo_kaggle(),
            DatasetKind::MovieLens1M => Self::movielens_1m(),
            DatasetKind::MovieLens20M => Self::movielens_20m(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criteo_matches_paper_shape() {
        let spec = DatasetSpec::criteo_kaggle();
        assert_eq!(spec.num_dense_features, 13);
        assert_eq!(spec.num_sparse_features, 26);
        assert_eq!(spec.candidates_per_query, 4096);
        assert_eq!(spec.top_k_served, 64);
        // ~67M total rows to reproduce Table 1 model sizes.
        assert!(spec.rows_per_table * spec.num_sparse_features as u64 > 60_000_000);
    }

    #[test]
    fn movielens_is_mlp_dominated() {
        for spec in [DatasetSpec::movielens_1m(), DatasetSpec::movielens_20m()] {
            assert_eq!(spec.num_dense_features, 0);
            assert_eq!(spec.num_sparse_features, 2);
        }
    }

    #[test]
    fn for_kind_round_trips() {
        for kind in DatasetKind::ALL {
            assert_eq!(DatasetSpec::for_kind(kind).kind, kind);
        }
    }

    #[test]
    fn stage_reductions_match_paper_section8() {
        assert_eq!(DatasetSpec::criteo_kaggle().stage_reduction, 5.0);
        assert_eq!(DatasetSpec::movielens_1m().stage_reduction, 2.5);
        assert_eq!(DatasetSpec::movielens_20m().stage_reduction, 4.0);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(DatasetKind::CriteoKaggle.to_string(), "Criteo Kaggle");
    }
}
