use recpipe_data::DatasetKind;
use serde::{Deserialize, Serialize};

use crate::ModelCost;

/// The Pareto-optimal model tiers of the paper's Table 1.
///
/// For Criteo these are DLRM configurations; for the MovieLens datasets
/// they map onto proportionally-sized neural matrix factorization models
/// (the paper trains NeuMF for MovieLens, Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Lightweight frontend filter (Table 1: RMsmall — 1.1K FLOPs, 1 GB).
    RmSmall,
    /// Mid-tier model (Table 1: RMmed — 2.0K FLOPs, 4 GB).
    RmMed,
    /// Heavyweight backend ranker (Table 1: RMlarge — 180K FLOPs, 8 GB).
    RmLarge,
}

impl ModelKind {
    /// All tiers in increasing complexity order.
    pub const ALL: [ModelKind; 3] = [ModelKind::RmSmall, ModelKind::RmMed, ModelKind::RmLarge];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::RmSmall => "RMsmall",
            ModelKind::RmMed => "RMmed",
            ModelKind::RmLarge => "RMlarge",
        }
    }

    /// Convenience: the model configuration for a dataset.
    pub fn config(self, dataset: DatasetKind) -> ModelConfig {
        ModelConfig::for_kind(self, dataset)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Network architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchKind {
    /// Facebook's Deep Learning Recommendation Model: bottom MLP over
    /// dense features, embedding lookups, feature interaction, top MLP.
    Dlrm,
    /// Neural matrix factorization (He et al.): GMF + MLP towers over
    /// user/item embeddings.
    NeuMf,
}

/// A concrete recommendation-model architecture: the red-highlighted
/// hyperparameters of the paper's Figure 2 (embedding dimension, MLP
/// depth/width) plus table geometry.
///
/// # Examples
///
/// ```
/// use recpipe_data::DatasetKind;
/// use recpipe_models::{ModelConfig, ModelKind};
///
/// let cfg = ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle);
/// assert_eq!(cfg.embedding_dim, 4);
/// assert_eq!(cfg.mlp_bottom, vec![13, 64, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Which tier this config realizes.
    pub kind: ModelKind,
    /// Architecture family.
    pub arch: ArchKind,
    /// Embedding latent-vector dimension.
    pub embedding_dim: usize,
    /// Bottom-MLP dimension chain (first entry = dense-feature count).
    /// Empty for NeuMF (no dense features).
    pub mlp_bottom: Vec<usize>,
    /// Top-MLP dimension chain (last entry = 1, the CTR output).
    pub mlp_top: Vec<usize>,
    /// Number of embedding tables (sparse features).
    pub num_tables: usize,
    /// Rows per embedding table.
    pub rows_per_table: u64,
}

impl ModelConfig {
    /// Builds the Table 1 (Criteo/DLRM) or MovieLens (NeuMF) configuration
    /// for a model tier.
    pub fn for_kind(kind: ModelKind, dataset: DatasetKind) -> Self {
        match dataset {
            DatasetKind::CriteoKaggle => Self::criteo(kind),
            DatasetKind::MovieLens1M => Self::movielens(kind, 6040),
            DatasetKind::MovieLens20M => Self::movielens(kind, 138_000),
        }
    }

    /// Table 1 DLRM configurations, verbatim.
    fn criteo(kind: ModelKind) -> Self {
        let (dim, bottom, top) = match kind {
            ModelKind::RmSmall => (4, vec![13, 64, 4], vec![64, 1]),
            ModelKind::RmMed => (16, vec![13, 64, 16], vec![64, 1]),
            ModelKind::RmLarge => (32, vec![13, 512, 256, 128, 64, 32], vec![96, 1]),
        };
        Self {
            kind,
            arch: ArchKind::Dlrm,
            embedding_dim: dim,
            mlp_bottom: bottom,
            mlp_top: top,
            num_tables: 26,
            rows_per_table: 2_600_000,
        }
    }

    /// NeuMF configurations scaled to match the paper's MLP-dominated
    /// MovieLens profile; tiers preserve the complexity ordering.
    fn movielens(kind: ModelKind, rows: u64) -> Self {
        let (dim, top) = match kind {
            ModelKind::RmSmall => (8, vec![16, 16, 1]),
            ModelKind::RmMed => (16, vec![32, 32, 16, 1]),
            ModelKind::RmLarge => (64, vec![128, 128, 64, 32, 1]),
        };
        Self {
            kind,
            arch: ArchKind::NeuMf,
            embedding_dim: dim,
            mlp_bottom: Vec::new(),
            mlp_top: top,
            num_tables: 2,
            rows_per_table: rows,
        }
    }

    /// Cost footprint (FLOPs, lookups, bytes) of this architecture.
    pub fn cost(&self) -> ModelCost {
        ModelCost::of(self)
    }

    /// Input dimensionality of the top MLP.
    pub fn top_input_dim(&self) -> usize {
        self.mlp_top.first().copied().unwrap_or(0)
    }

    /// Number of dense features consumed (0 for NeuMF).
    pub fn num_dense_features(&self) -> usize {
        self.mlp_bottom.first().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_dimensions_are_verbatim() {
        let small = ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle);
        assert_eq!(small.embedding_dim, 4);
        assert_eq!(small.mlp_bottom, vec![13, 64, 4]);
        assert_eq!(small.mlp_top, vec![64, 1]);

        let med = ModelConfig::for_kind(ModelKind::RmMed, DatasetKind::CriteoKaggle);
        assert_eq!(med.embedding_dim, 16);
        assert_eq!(med.mlp_bottom, vec![13, 64, 16]);

        let large = ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::CriteoKaggle);
        assert_eq!(large.embedding_dim, 32);
        assert_eq!(large.mlp_bottom, vec![13, 512, 256, 128, 64, 32]);
        assert_eq!(large.mlp_top, vec![96, 1]);
    }

    #[test]
    fn tiers_are_ordered_by_complexity() {
        for dataset in DatasetKind::ALL {
            let flops: Vec<u64> = ModelKind::ALL
                .iter()
                .map(|&k| ModelConfig::for_kind(k, dataset).cost().flops_per_item)
                .collect();
            assert!(
                flops[0] < flops[1] && flops[1] < flops[2],
                "{dataset}: {flops:?}"
            );
        }
    }

    #[test]
    fn movielens_is_neumf() {
        let cfg = ModelConfig::for_kind(ModelKind::RmMed, DatasetKind::MovieLens1M);
        assert_eq!(cfg.arch, ArchKind::NeuMf);
        assert_eq!(cfg.num_tables, 2);
        assert!(cfg.mlp_bottom.is_empty());
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ModelKind::RmSmall.to_string(), "RMsmall");
        assert_eq!(ModelKind::RmLarge.to_string(), "RMlarge");
    }

    #[test]
    fn kind_config_shortcut_agrees() {
        let a = ModelKind::RmMed.config(DatasetKind::CriteoKaggle);
        let b = ModelConfig::for_kind(ModelKind::RmMed, DatasetKind::CriteoKaggle);
        assert_eq!(a, b);
    }
}
