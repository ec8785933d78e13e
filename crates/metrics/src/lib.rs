//! Quality, accuracy, and performance metrics for RecPipe.
//!
//! The RecPipe paper optimizes three application-level targets:
//! quality, tail latency and throughput. This crate measures the first
//! two (the simulator reports throughput as its run's `qps`):
//!
//! * **Quality** — normalized discounted cumulative gain ([`ndcg_at_k`]) of
//!   the ordered list of served items, not just pointwise model accuracy.
//! * **Tail latency** — 99th-percentile query latency ([`LatencyStats`]).
//!
//! The crate also provides binary-classification [`accuracy`](BinaryConfusion)
//! helpers (the per-item metric the paper contrasts with quality) and the
//! shared Pareto machinery, [`ParetoFront`], that the scheduler and the
//! `Engine`'s `sweep` use as their one dominance path.
//!
//! # Examples
//!
//! ```
//! use recpipe_metrics::ndcg_at_k;
//!
//! // The model ranked the best item (gain 3.0) second.
//! let ranked = [1.0, 3.0, 0.0];
//! let ideal = [3.0, 1.0, 0.0];
//! let q = ndcg_at_k(&ranked, &ideal, 3);
//! assert!(q > 0.75 && q < 1.0);
//! ```

mod accuracy;
mod ndcg;
mod pareto;
mod percentile;

pub use accuracy::{auc, BinaryConfusion};
pub use ndcg::{
    dcg, ideal_sorted, ideal_top_k, ndcg, ndcg_at_k, top_k_positions, top_k_set, NdcgAtK,
};
pub use pareto::{Dominance, ParetoFront};
pub use percentile::LatencyStats;
