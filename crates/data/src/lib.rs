//! Synthetic recommendation datasets, distributions, and arrival processes.
//!
//! The RecPipe paper evaluates on Criteo Kaggle and MovieLens 1M/20M. Those
//! datasets are not redistributable here, so this crate provides *calibrated
//! synthetic equivalents* that preserve the properties the evaluation
//! actually depends on:
//!
//! * the **candidate-pool shape** of each dataset — items per query and
//!   the NDCG gain on graded true utilities (drives the quality metric and
//!   the items-ranked axis of Figure 3; `recpipe-core`'s quality evaluator
//!   draws the pools),
//! * **Zipfian categorical feature ids** (drives embedding-cache hit rates,
//!   Figure 10c and 13),
//! * latent-factor **click samples** for actually training models (Figure 2),
//! * pluggable **arrival processes** behind the [`ArrivalProcess`] trait —
//!   Poisson (the paper's load model), bursty MMPP, diurnal cycles,
//!   closed-loop client populations, and recorded-trace replay with rate
//!   rescaling (drives tail latency at a system load).
//!
//! All samplers take explicit seeds: every experiment in the repository is
//! reproducible bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use recpipe_data::{ClickGenerator, DatasetSpec};
//!
//! let spec = DatasetSpec::criteo_kaggle();
//! assert_eq!(spec.candidates_per_query, 4096);
//! let mut clicks = ClickGenerator::new(&spec, 1000, 42);
//! assert_eq!(clicks.take_samples(8).len(), 8);
//! ```

mod arrival;
mod dataset;
mod dist;
mod query;
mod synthetic;
mod trace;

pub use arrival::{
    ArrivalProcess, ClosedLoopArrivals, ClosedLoopSpec, DiurnalArrivals, MmppArrivals,
    PoissonArrivals,
};
pub use dataset::{DatasetKind, DatasetSpec};
pub use dist::{Exponential, Normal, Zipf};
pub use query::ClickSample;
pub use synthetic::{ClickGenerator, EmbeddingTrace};
pub use trace::TraceArrivals;
