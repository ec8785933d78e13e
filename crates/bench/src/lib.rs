//! Shared helpers for the RecPipe experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it:
//!
//! ```text
//! cargo run --release -p recpipe-bench --bin tab01_models
//! cargo run --release -p recpipe-bench --bin fig03_quality
//! ...
//! ```
//!
//! This library crate holds the small utilities those binaries share.

use recpipe_core::{PipelineConfig, StageConfig};
use recpipe_models::ModelKind;

/// Builds the paper's canonical Criteo two-stage pipeline:
/// RMsmall@4096 → RMlarge@`mid` → 64 served.
///
/// # Examples
///
/// ```
/// let p = recpipe_bench::criteo_two_stage(256);
/// assert_eq!(p.num_stages(), 2);
/// ```
pub fn criteo_two_stage(mid: u64) -> PipelineConfig {
    PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, mid))
        .stage(StageConfig::new(ModelKind::RmLarge, mid, 64))
        .build()
        .expect("canonical two-stage pipeline is valid")
}

/// Builds the paper's canonical Criteo single-stage pipeline:
/// RMlarge@`items` → 64 served.
pub fn criteo_single_stage(items: u64) -> PipelineConfig {
    PipelineConfig::single_stage(ModelKind::RmLarge, items, 64)
        .expect("canonical single-stage pipeline is valid")
}

/// Builds the canonical Criteo three-stage pipeline:
/// RMsmall@4096 → RMmed@512 → RMlarge@128 → 64.
pub fn criteo_three_stage() -> PipelineConfig {
    PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, 512))
        .stage(StageConfig::new(ModelKind::RmMed, 512, 128))
        .stage(StageConfig::new(ModelKind::RmLarge, 128, 64))
        .build()
        .expect("canonical three-stage pipeline is valid")
}

/// Formats seconds as milliseconds with two decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_pipelines_are_valid() {
        assert_eq!(criteo_two_stage(256).num_stages(), 2);
        assert_eq!(criteo_single_stage(4096).num_stages(), 1);
        assert_eq!(criteo_three_stage().num_stages(), 3);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.0123), "12.30");
    }
}
