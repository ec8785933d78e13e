//! RPAccel — a cycle-level simulator of the paper's specialized
//! multi-stage recommendation accelerator, plus the Centaur-like baseline
//! it is compared against.
//!
//! The accelerator (paper Figures 5 and 9) combines:
//!
//! * a weight-stationary [`SystolicArray`] MLP engine (Table 3:
//!   128x128 MACs at 250 MHz) that can be *fissioned* into sub-arrays
//!   ([`Partition`]) to process multiple stages and queries concurrently
//!   (O.3);
//! * streaming bucketed [`TopKFilter`] units that select the items
//!   forwarded to the next stage without a host round trip (O.2);
//! * a dual [`EmbeddingCache`]: a static partition for hot vectors of
//!   every stage and a look-ahead partition that prefetches backend
//!   vectors while the frontend runs (O.4);
//! * [`SubBatchSchedule`] pipelining that overlaps frontend and backend
//!   stages within one query (O.5).
//!
//! [`RpAccel`] composes all of the above into per-query latencies and
//! at-scale executor parameters; [`BaselineAccel`] models the
//! single-stage, host-filtered design point of Centaur. [`AreaPowerModel`]
//! reproduces the Figure 11 overhead breakdown, and [`scaling`] the
//! SSD-backed future-model study of Figure 13.
//!
//! # Examples
//!
//! ```
//! use recpipe_accel::{Partition, RpAccel, RpAccelConfig};
//! use recpipe_data::DatasetKind;
//! use recpipe_hwsim::StageWork;
//! use recpipe_models::{ModelConfig, ModelKind};
//!
//! let accel = RpAccel::new(RpAccelConfig::paper_default(Partition::symmetric(8, 8)));
//! let stages = vec![
//!     StageWork::new(ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle), 4096),
//!     StageWork::new(ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::CriteoKaggle), 512),
//! ];
//! let latency = accel.query_latency(&stages);
//! assert!(latency > 0.0 && latency < 0.01);
//! ```

mod area;
mod baseline;
mod embcache;
mod pipeline;
mod reconfig;
mod rpaccel;
pub mod scaling;
mod systolic;
mod topk;

pub use area::{AreaPowerModel, Component};
pub use baseline::BaselineAccel;
pub use embcache::{EmbeddingCache, EmbeddingCacheConfig};
pub use pipeline::SubBatchSchedule;
pub use reconfig::{Partition, SubArray};
pub use rpaccel::{RpAccel, RpAccelConfig, ServiceProfile};
pub use scaling::FutureScaling;
pub use systolic::{LayerRun, SystolicArray};
pub use topk::{FilterOutcome, TopKFilter};
