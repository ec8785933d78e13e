//! Synthetic recommendation datasets, distributions, and arrival processes.
//!
//! The RecPipe paper evaluates on Criteo Kaggle and MovieLens 1M/20M. Those
//! datasets are not redistributable here, so this crate provides *calibrated
//! synthetic equivalents* that preserve the properties the evaluation
//! actually depends on:
//!
//! * a per-query candidate pool with graded **true utilities** (drives the
//!   quality metric and the items-ranked axis of Figure 3),
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
//! use recpipe_data::{DatasetSpec, QueryGenerator};
//!
//! let spec = DatasetSpec::criteo_kaggle();
//! let mut gen = QueryGenerator::new(&spec, 42);
//! let query = gen.next_query();
//! assert_eq!(query.utilities.len(), spec.candidates_per_query);
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
pub use query::{ClickSample, RankingQuery};
pub use synthetic::{ClickGenerator, EmbeddingTrace, QueryGenerator};
pub use trace::TraceArrivals;
