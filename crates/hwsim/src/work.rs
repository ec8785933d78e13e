use recpipe_models::{ModelConfig, ModelCost};
use serde::{Deserialize, Serialize};

/// The work of one pipeline stage for one query: rank `items` candidates
/// with `model`.
///
/// # Examples
///
/// ```
/// use recpipe_data::DatasetKind;
/// use recpipe_hwsim::StageWork;
/// use recpipe_models::{ModelConfig, ModelKind};
///
/// let work = StageWork::new(
///     ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle),
///     4096,
/// );
/// assert_eq!(work.items, 4096);
/// assert!(work.input_bytes() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StageWork {
    /// The model executed by this stage.
    pub model: ModelConfig,
    /// Number of candidate items this stage scores.
    pub items: u64,
}

impl StageWork {
    /// Creates the stage work description.
    pub fn new(model: ModelConfig, items: u64) -> Self {
        Self { model, items }
    }

    /// Cost footprint of the stage's model.
    pub fn cost(&self) -> ModelCost {
        self.model.cost()
    }

    /// Bytes of query input this stage consumes (dense features + sparse
    /// ids for every item) — the payload that crosses PCIe to discrete
    /// devices.
    pub fn input_bytes(&self) -> u64 {
        let cost = self.cost();
        let per_item = cost.dense_input_bytes + cost.sparse_lookups_per_item * 4;
        per_item * self.items
    }

    /// Total multiply-accumulates for the stage.
    pub fn total_flops(&self) -> u64 {
        self.cost().flops_for_items(self.items)
    }

    /// Total embedding bytes fetched by the stage.
    pub fn total_embedding_bytes(&self) -> u64 {
        self.cost().embedding_bytes_for_items(self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recpipe_data::DatasetKind;
    use recpipe_models::ModelKind;

    fn work(kind: ModelKind, items: u64) -> StageWork {
        StageWork::new(
            ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle),
            items,
        )
    }

    #[test]
    fn input_bytes_count_dense_and_sparse() {
        let w = work(ModelKind::RmSmall, 10);
        // 13 dense floats + 26 sparse u32 ids per item.
        assert_eq!(w.input_bytes(), (13 * 4 + 26 * 4) * 10);
    }

    #[test]
    fn totals_scale_with_items() {
        let w1 = work(ModelKind::RmMed, 100);
        let w2 = work(ModelKind::RmMed, 200);
        assert_eq!(w2.total_flops(), 2 * w1.total_flops());
        assert_eq!(w2.total_embedding_bytes(), 2 * w1.total_embedding_bytes());
    }

    #[test]
    fn larger_model_does_more_work_per_item() {
        let small = work(ModelKind::RmSmall, 100);
        let large = work(ModelKind::RmLarge, 100);
        assert!(large.total_flops() > small.total_flops());
    }
}
