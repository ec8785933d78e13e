//! Analytic hardware cost models for RecPipe: commodity CPUs and GPUs,
//! interconnect, the memory hierarchy, and embedding caches.
//!
//! The paper measures real Cascade Lake CPUs and NVIDIA T4 GPUs (Table 2);
//! this crate substitutes calibrated roofline-style models that reproduce
//! the *relationships* the evaluation depends on:
//!
//! * small-GEMM inefficiency makes lightweight models latency-bound on
//!   both CPUs and GPUs (paper: "comparable latency for RMsmall versus
//!   RMlarge on the GPU");
//! * one query occupies one CPU core by default (the paper runs one
//!   PyTorch/MKL thread per core), with optional multi-core model
//!   parallelism for backend stages;
//! * GPUs serialize queries but parallelize within a query, so they win
//!   latency at low load and collapse at high load;
//! * embedding lookups are bandwidth-bound with Zipf-driven cache hits.
//!
//! Every constant is a named field with a documented rationale; the
//! presets [`CpuModel::cascade_lake`] and [`GpuModel::t4`] carry the
//! Table 2 specifications. Each device has one price method,
//! `stage_latency`, which takes the batch: a launch of `batch` queries
//! concatenates their candidate sets, and `1` prices one query.
//!
//! # Examples
//!
//! ```
//! use recpipe_data::DatasetKind;
//! use recpipe_hwsim::{CpuModel, StageWork};
//! use recpipe_models::{ModelConfig, ModelKind};
//!
//! let cpu = CpuModel::cascade_lake();
//! let work = StageWork::new(
//!     ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::CriteoKaggle),
//!     4096,
//! );
//! let latency = cpu.stage_latency(&work, 1, 1); // one core, one query
//! assert!(latency > 0.01 && latency < 0.5); // tens of milliseconds
//! ```

mod cache;
mod cpu;
mod gpu;
mod mem;
mod pcie;
mod work;

pub use cache::{amat, LruCache, StaticCacheModel};
pub use cpu::CpuModel;
pub use gpu::GpuModel;
pub use mem::MemoryModel;
pub use pcie::PcieModel;
pub use work::StageWork;
