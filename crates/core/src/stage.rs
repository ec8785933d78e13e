use recpipe_data::DatasetKind;
use recpipe_hwsim::StageWork;
use recpipe_models::{ModelConfig, ModelKind};

/// One stage of a multi-stage ranking pipeline: a model tier paired with
/// the number of candidate items it scores (`items_in`) and forwards to
/// the next stage (`items_out`).
///
/// # Examples
///
/// ```
/// use recpipe_core::StageConfig;
/// use recpipe_models::ModelKind;
///
/// // RMsmall filters 4096 candidates down to 256.
/// let stage = StageConfig::new(ModelKind::RmSmall, 4096, 256);
/// assert_eq!(stage.items_in / stage.items_out, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageConfig {
    /// Which Pareto-optimal model tier ranks this stage.
    pub model: ModelKind,
    /// Candidate items entering the stage.
    pub items_in: u64,
    /// Items surviving the stage's top-k filter.
    pub items_out: u64,
}

impl StageConfig {
    /// Creates a stage configuration.
    pub fn new(model: ModelKind, items_in: u64, items_out: u64) -> Self {
        Self {
            model,
            items_in,
            items_out,
        }
    }

    /// The concrete model architecture for a dataset.
    pub fn model_config(&self, dataset: DatasetKind) -> ModelConfig {
        self.model.config(dataset)
    }

    /// The hardware work descriptor for a dataset.
    pub fn work(&self, dataset: DatasetKind) -> StageWork {
        StageWork::new(self.model_config(dataset), self.items_in)
    }
}

impl std::fmt::Display for StageConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}→{}", self.model, self.items_in, self.items_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_carries_items_in() {
        let s = StageConfig::new(ModelKind::RmLarge, 256, 64);
        let w = s.work(DatasetKind::CriteoKaggle);
        assert_eq!(w.items, 256);
        assert_eq!(w.model.kind, ModelKind::RmLarge);
    }

    #[test]
    fn display_is_compact() {
        let s = StageConfig::new(ModelKind::RmMed, 1024, 128);
        assert_eq!(s.to_string(), "RMmed@1024→128");
    }
}
