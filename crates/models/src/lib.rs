//! Recommendation models for RecPipe: DLRM, neural matrix factorization,
//! and the Pareto-optimal model zoo of the paper's Table 1.
//!
//! Two parallel representations serve different purposes:
//!
//! * **Functional models** ([`Dlrm`], [`NeuMf`], [`Mlp`]) — real forward
//!   passes and SGD training with manual backpropagation, used to
//!   demonstrate the accuracy-vs-complexity tradeoff (Figure 2) on the
//!   synthetic click data.
//! * **Cost models** ([`ModelConfig`], [`ModelCost`]) — FLOPs, embedding
//!   lookups, and byte footprints used by the hardware simulators. These
//!   reproduce Table 1 exactly: RMsmall/RMmed/RMlarge at 1.1K/1.9K/181K
//!   FLOPs and 1/4/8 GB.
//!
//! The calibrated [`AccuracyModel`] maps model complexity to
//! CTR-prediction error and to the score-noise level used by the
//! statistical quality evaluator in `recpipe-core`.
//!
//! # Examples
//!
//! ```
//! use recpipe_models::{ModelKind, ModelConfig};
//! use recpipe_data::DatasetKind;
//!
//! let cfg = ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::CriteoKaggle);
//! let cost = cfg.cost();
//! assert!(cost.flops_per_item > 100_000); // Table 1: 180K FLOPs
//! ```

mod accuracy;
mod cost;
mod dlrm;
mod embedding;
mod mlp;
mod neumf;
mod train;
mod zoo;

pub use accuracy::{error_percent_from_flops, AccuracyModel};
pub use cost::ModelCost;
pub use dlrm::Dlrm;
pub use embedding::EmbeddingTable;
pub use mlp::{DenseLayer, Mlp};
pub use neumf::NeuMf;
pub use train::{TrainReport, Trainer};
pub use zoo::{ArchKind, ModelConfig, ModelKind};
