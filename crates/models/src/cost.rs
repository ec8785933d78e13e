use crate::{ArchKind, ModelConfig};

/// Static cost footprint of one model — the quantities every hardware
/// model in the framework consumes.
///
/// FLOP counts follow the paper's convention (Table 1 counts one FLOP per
/// multiply-accumulate): RMsmall ≈ 1.1K, RMmed ≈ 1.9K, RMlarge ≈ 181K per
/// item.
///
/// # Examples
///
/// ```
/// use recpipe_data::DatasetKind;
/// use recpipe_models::{ModelConfig, ModelKind};
///
/// let cost = ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle).cost();
/// assert_eq!(cost.sparse_lookups_per_item, 26);
/// assert!((cost.model_bytes as f64 / 1e9 - 1.08).abs() < 0.1); // ~1 GB
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelCost {
    /// Multiply-accumulates per ranked item (MLP towers + interaction).
    pub flops_per_item: u64,
    /// Pure-MLP multiply-accumulates per item, Table 1's FLOP convention
    /// (excludes the feature-interaction dots).
    pub mlp_flops_per_item: u64,
    /// Embedding-table lookups per ranked item (one per table).
    pub sparse_lookups_per_item: u64,
    /// Bytes fetched per embedding lookup (`dim * 4`).
    pub bytes_per_lookup: u64,
    /// Total embedding storage in bytes (Table 1 "Model Size").
    pub model_bytes: u64,
    /// MLP parameter bytes (weights held on-chip / in cache).
    pub mlp_param_bytes: u64,
    /// Bytes of dense input per item.
    pub dense_input_bytes: u64,
}

impl ModelCost {
    /// Computes the footprint of a [`ModelConfig`].
    pub fn of(config: &ModelConfig) -> Self {
        let chain_macs =
            |dims: &[usize]| -> u64 { dims.windows(2).map(|w| (w[0] * w[1]) as u64).sum() };
        let chain_params =
            |dims: &[usize]| -> u64 { dims.windows(2).map(|w| (w[0] * w[1] + w[1]) as u64).sum() };

        let bottom_macs = chain_macs(&config.mlp_bottom);
        let top_macs = chain_macs(&config.mlp_top);
        // Feature interaction: pairwise dot products among the embedding
        // vectors (and bottom output for DLRM), each dot costing `dim`
        // MACs. NeuMF's GMF path is one elementwise product (dim MACs).
        let interaction_macs = match config.arch {
            ArchKind::Dlrm => {
                let vectors = config.num_tables as u64 + 1;
                vectors * (vectors - 1) / 2 * config.embedding_dim as u64
            }
            ArchKind::NeuMf => config.embedding_dim as u64,
        };

        let model_bytes =
            config.num_tables as u64 * config.rows_per_table * config.embedding_dim as u64 * 4;

        Self {
            flops_per_item: bottom_macs + top_macs + interaction_macs,
            mlp_flops_per_item: bottom_macs + top_macs,
            sparse_lookups_per_item: config.num_tables as u64,
            bytes_per_lookup: config.embedding_dim as u64 * 4,
            model_bytes,
            mlp_param_bytes: (chain_params(&config.mlp_bottom) + chain_params(&config.mlp_top)) * 4,
            dense_input_bytes: config.num_dense_features() as u64 * 4,
        }
    }

    /// Embedding bytes touched per ranked item.
    pub fn embedding_bytes_per_item(&self) -> u64 {
        self.sparse_lookups_per_item * self.bytes_per_lookup
    }

    /// Total compute for ranking `items` candidates.
    pub fn flops_for_items(&self, items: u64) -> u64 {
        self.flops_per_item * items
    }

    /// Total embedding traffic for ranking `items` candidates.
    pub fn embedding_bytes_for_items(&self, items: u64) -> u64 {
        self.embedding_bytes_per_item() * items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;
    use recpipe_data::DatasetKind;

    fn criteo(kind: ModelKind) -> ModelCost {
        ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle).cost()
    }

    #[test]
    fn table1_flops_within_tolerance() {
        // Table 1: 1.1K / 2.0K / 180K FLOPs. The interaction term adds the
        // pairwise dots on top of the pure-MLP MACs; stay within 2.5x of
        // the quoted numbers and preserve exact MLP MACs separately.
        let small = criteo(ModelKind::RmSmall);
        let med = criteo(ModelKind::RmMed);
        let large = criteo(ModelKind::RmLarge);
        assert!(small.flops_per_item >= 1_100 && small.flops_per_item < 4_000);
        assert!(med.flops_per_item >= 1_900 && med.flops_per_item < 8_000);
        assert!(large.flops_per_item >= 180_000 && large.flops_per_item < 200_000);
        // Pure-MLP MACs reproduce the Table 1 column exactly.
        assert_eq!(small.mlp_flops_per_item, 13 * 64 + 64 * 4 + 64);
        assert_eq!(med.mlp_flops_per_item, 13 * 64 + 64 * 16 + 64);
        assert_eq!(
            large.mlp_flops_per_item,
            13 * 512 + 512 * 256 + 256 * 128 + 128 * 64 + 64 * 32 + 96
        );
    }

    #[test]
    fn table1_model_sizes() {
        // Table 1: 1 GB / 4 GB / 8 GB.
        let gb = |c: ModelCost| c.model_bytes as f64 / 1e9;
        assert!((gb(criteo(ModelKind::RmSmall)) - 1.0).abs() < 0.15);
        assert!((gb(criteo(ModelKind::RmMed)) - 4.0).abs() < 0.4);
        assert!((gb(criteo(ModelKind::RmLarge)) - 8.0).abs() < 0.7);
    }

    #[test]
    fn figure1c_multistage_savings() {
        // Figure 1(c): at iso-quality, two-stage (RMsmall@4096 →
        // RMlarge@512) vs one-stage RMlarge@4096 cuts compute ~7.5x and
        // embedding traffic ~4x.
        let small = criteo(ModelKind::RmSmall);
        let large = criteo(ModelKind::RmLarge);

        let single_flops = large.flops_for_items(4096);
        let multi_flops = small.flops_for_items(4096) + large.flops_for_items(512);
        let compute_saving = single_flops as f64 / multi_flops as f64;

        let single_mem = large.embedding_bytes_for_items(4096);
        let multi_mem =
            small.embedding_bytes_for_items(4096) + large.embedding_bytes_for_items(512);
        let memory_saving = single_mem as f64 / multi_mem as f64;

        assert!(
            compute_saving > 4.0 && compute_saving < 12.0,
            "compute saving {compute_saving}"
        );
        assert!(
            memory_saving > 2.5 && memory_saving < 6.0,
            "memory saving {memory_saving}"
        );
    }

    #[test]
    fn lookup_bytes_track_dimension() {
        assert_eq!(criteo(ModelKind::RmSmall).bytes_per_lookup, 16);
        assert_eq!(criteo(ModelKind::RmLarge).bytes_per_lookup, 128);
    }

    #[test]
    fn per_item_scaling_is_linear() {
        let c = criteo(ModelKind::RmMed);
        assert_eq!(c.flops_for_items(10), c.flops_per_item * 10);
        assert_eq!(
            c.embedding_bytes_for_items(7),
            c.embedding_bytes_per_item() * 7
        );
    }

    #[test]
    fn neumf_cost_is_mlp_dominated() {
        let cfg = ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::MovieLens1M);
        let cost = cfg.cost();
        // Embedding traffic per item is small relative to MLP compute.
        assert!(cost.flops_per_item > 10 * cost.embedding_bytes_per_item());
    }

    #[test]
    fn dense_input_bytes_for_criteo() {
        assert_eq!(criteo(ModelKind::RmSmall).dense_input_bytes, 13 * 4);
    }
}
