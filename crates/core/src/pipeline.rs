use recpipe_data::DatasetKind;
use recpipe_hwsim::StageWork;
use recpipe_models::ModelKind;

use crate::StageConfig;

/// Error validating a [`PipelineConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The pipeline has no stages.
    Empty,
    /// A stage forwards more items than it ranks.
    ExpandingStage {
        /// Index of the offending stage.
        stage: usize,
    },
    /// Consecutive stages disagree on the item count handed over.
    ItemMismatch {
        /// Index of the downstream stage.
        stage: usize,
        /// Items the upstream stage forwards.
        upstream_out: u64,
        /// Items the downstream stage expects.
        downstream_in: u64,
    },
    /// Model complexity decreases along the pipeline (the funnel must
    /// refine, not coarsen).
    DecreasingModel {
        /// Index of the offending stage.
        stage: usize,
    },
    /// A stage ranks zero items.
    ZeroItems {
        /// Index of the offending stage.
        stage: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Empty => write!(f, "pipeline has no stages"),
            PipelineError::ExpandingStage { stage } => {
                write!(f, "stage {stage} forwards more items than it ranks")
            }
            PipelineError::ItemMismatch {
                stage,
                upstream_out,
                downstream_in,
            } => write!(
                f,
                "stage {stage} expects {downstream_in} items but receives {upstream_out}"
            ),
            PipelineError::DecreasingModel { stage } => {
                write!(f, "stage {stage} uses a smaller model than its predecessor")
            }
            PipelineError::ZeroItems { stage } => write!(f, "stage {stage} ranks zero items"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A validated multi-stage ranking funnel (paper Figure 4): stages rank
/// progressively fewer items with progressively heavier models.
///
/// # Examples
///
/// ```
/// use recpipe_core::{PipelineConfig, StageConfig};
/// use recpipe_models::ModelKind;
///
/// let two_stage = PipelineConfig::builder()
///     .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
///     .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
///     .build()?;
/// assert_eq!(two_stage.num_stages(), 2);
/// assert_eq!(two_stage.describe(), "RMsmall@4096→256 | RMlarge@256→64");
/// # Ok::<(), recpipe_core::PipelineError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    stages: Vec<StageConfig>,
    dataset: DatasetKind,
}

impl PipelineConfig {
    /// Starts building a pipeline (defaults to the Criteo-like dataset).
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::new()
    }

    /// Convenience: a single-stage pipeline serving the top `served`
    /// items from `items` candidates.
    pub fn single_stage(model: ModelKind, items: u64, served: u64) -> Result<Self, PipelineError> {
        Self::builder()
            .stage(StageConfig::new(model, items, served))
            .build()
    }

    /// The ordered stages.
    pub fn stages(&self) -> &[StageConfig] {
        &self.stages
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The dataset this pipeline serves.
    pub fn dataset(&self) -> DatasetKind {
        self.dataset
    }

    /// Candidate items entering the funnel.
    pub fn items_in(&self) -> u64 {
        self.stages.first().map(|s| s.items_in).unwrap_or(0)
    }

    /// Items served to the user.
    pub fn items_served(&self) -> u64 {
        self.stages.last().map(|s| s.items_out).unwrap_or(0)
    }

    /// Hardware work descriptors for every stage.
    pub fn stage_works(&self) -> Vec<StageWork> {
        self.stages.iter().map(|s| s.work(self.dataset)).collect()
    }

    /// Total multiply-accumulates per query across stages.
    pub fn total_flops(&self) -> u64 {
        self.stage_works().iter().map(StageWork::total_flops).sum()
    }

    /// Total embedding bytes per query across stages.
    pub fn total_embedding_bytes(&self) -> u64 {
        self.stage_works()
            .iter()
            .map(StageWork::total_embedding_bytes)
            .sum()
    }

    /// Compact human-readable description.
    pub fn describe(&self) -> String {
        self.stages
            .iter()
            .map(StageConfig::to_string)
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

impl std::fmt::Display for PipelineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Builder for [`PipelineConfig`], validating the funnel shape at
/// [`build`](PipelineBuilder::build).
#[derive(Debug, Clone, Default)]
pub struct PipelineBuilder {
    stages: Vec<StageConfig>,
    dataset: Option<DatasetKind>,
}

impl PipelineBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage.
    pub fn stage(mut self, stage: StageConfig) -> Self {
        self.stages.push(stage);
        self
    }

    /// Sets the dataset (defaults to Criteo Kaggle).
    pub fn dataset(mut self, dataset: DatasetKind) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Validates and builds the pipeline.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] if the funnel is empty, expands item
    /// counts, mismatches hand-over counts, ranks zero items, or uses a
    /// *less* complex model downstream.
    pub fn build(self) -> Result<PipelineConfig, PipelineError> {
        if self.stages.is_empty() {
            return Err(PipelineError::Empty);
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.items_in == 0 || s.items_out == 0 {
                return Err(PipelineError::ZeroItems { stage: i });
            }
            if s.items_out > s.items_in {
                return Err(PipelineError::ExpandingStage { stage: i });
            }
        }
        for i in 1..self.stages.len() {
            let upstream = &self.stages[i - 1];
            let downstream = &self.stages[i];
            if upstream.items_out != downstream.items_in {
                return Err(PipelineError::ItemMismatch {
                    stage: i,
                    upstream_out: upstream.items_out,
                    downstream_in: downstream.items_in,
                });
            }
            if downstream.model < upstream.model {
                return Err(PipelineError::DecreasingModel { stage: i });
            }
        }
        Ok(PipelineConfig {
            stages: self.stages,
            dataset: self.dataset.unwrap_or(DatasetKind::CriteoKaggle),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(model: ModelKind, items_in: u64, items_out: u64) -> StageConfig {
        StageConfig::new(model, items_in, items_out)
    }

    #[test]
    fn valid_two_stage_builds() {
        let p = PipelineConfig::builder()
            .stage(stage(ModelKind::RmSmall, 4096, 256))
            .stage(stage(ModelKind::RmLarge, 256, 64))
            .build()
            .unwrap();
        assert_eq!(p.num_stages(), 2);
        assert_eq!(p.items_in(), 4096);
        assert_eq!(p.items_served(), 64);
    }

    #[test]
    fn empty_pipeline_is_rejected() {
        assert_eq!(
            PipelineConfig::builder().build().unwrap_err(),
            PipelineError::Empty
        );
    }

    #[test]
    fn expanding_stage_is_rejected() {
        let err = PipelineConfig::builder()
            .stage(stage(ModelKind::RmSmall, 100, 200))
            .build()
            .unwrap_err();
        assert!(matches!(err, PipelineError::ExpandingStage { stage: 0 }));
    }

    #[test]
    fn item_mismatch_is_rejected() {
        let err = PipelineConfig::builder()
            .stage(stage(ModelKind::RmSmall, 4096, 256))
            .stage(stage(ModelKind::RmLarge, 512, 64))
            .build()
            .unwrap_err();
        assert!(matches!(err, PipelineError::ItemMismatch { stage: 1, .. }));
    }

    #[test]
    fn decreasing_model_is_rejected() {
        let err = PipelineConfig::builder()
            .stage(stage(ModelKind::RmLarge, 4096, 256))
            .stage(stage(ModelKind::RmSmall, 256, 64))
            .build()
            .unwrap_err();
        assert!(matches!(err, PipelineError::DecreasingModel { stage: 1 }));
    }

    #[test]
    fn equal_models_across_stages_are_allowed() {
        // Same tier twice is a valid (if unusual) funnel.
        let p = PipelineConfig::builder()
            .stage(stage(ModelKind::RmMed, 2048, 256))
            .stage(stage(ModelKind::RmMed, 256, 64))
            .build();
        assert!(p.is_ok());
    }

    #[test]
    fn zero_items_is_rejected() {
        let err = PipelineConfig::builder()
            .stage(stage(ModelKind::RmSmall, 0, 0))
            .build()
            .unwrap_err();
        assert!(matches!(err, PipelineError::ZeroItems { stage: 0 }));
    }

    #[test]
    fn totals_aggregate_stages() {
        let single = PipelineConfig::single_stage(ModelKind::RmLarge, 4096, 64).unwrap();
        let multi = PipelineConfig::builder()
            .stage(stage(ModelKind::RmSmall, 4096, 512))
            .stage(stage(ModelKind::RmLarge, 512, 64))
            .build()
            .unwrap();
        // Figure 1(c): the funnel cuts compute and embedding traffic.
        assert!(single.total_flops() > 4 * multi.total_flops());
        assert!(single.total_embedding_bytes() > 2 * multi.total_embedding_bytes());
    }

    #[test]
    fn describe_lists_stages() {
        let p = PipelineConfig::builder()
            .stage(stage(ModelKind::RmSmall, 1024, 128))
            .stage(stage(ModelKind::RmLarge, 128, 64))
            .build()
            .unwrap();
        assert_eq!(p.describe(), "RMsmall@1024→128 | RMlarge@128→64");
    }

    #[test]
    fn dataset_defaults_to_criteo() {
        let p = PipelineConfig::single_stage(ModelKind::RmSmall, 64, 64).unwrap();
        assert_eq!(p.dataset(), DatasetKind::CriteoKaggle);
    }

    #[test]
    fn error_display_messages() {
        let e = PipelineError::ItemMismatch {
            stage: 1,
            upstream_out: 256,
            downstream_in: 512,
        };
        let msg = e.to_string();
        assert!(msg.contains("256") && msg.contains("512"));
    }

    #[test]
    fn error_composes_with_question_mark() {
        // PipelineError implements std::error::Error, so callers can use
        // `?` into Box<dyn Error> (and anyhow-style wrappers).
        fn build() -> Result<PipelineConfig, Box<dyn std::error::Error>> {
            let p = PipelineConfig::builder().build()?;
            Ok(p)
        }
        let err = build().unwrap_err();
        assert!(err.to_string().contains("no stages"));
        assert!(err.downcast_ref::<PipelineError>().is_some());
    }
}
