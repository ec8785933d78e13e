//! Minimal dense linear algebra for the RecPipe recommendation framework.
//!
//! Recommendation inference is dominated by small-to-medium dense
//! matrix-matrix products (the MLP towers of DLRM-style models) plus
//! elementwise activations. This crate provides exactly those kernels —
//! a row-major [`Matrix`] with a blocked GEMM, activation functions, and
//! weight initializers — with no external BLAS dependency so that the
//! whole framework is self-contained and deterministic.
//!
//! # Examples
//!
//! ```
//! use recpipe_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c, a);
//! ```

mod activation;
mod error;
mod init;
mod matrix;
mod ops;

pub use activation::{relu, sigmoid, Activation};
pub use error::ShapeError;
pub use init::Initializer;
pub use matrix::Matrix;
pub use ops::{add_bias_inplace, dot, l2_norm};
