use rand::Rng;
use recpipe_tensor::{Initializer, Matrix};

/// A trainable embedding table: `rows x dim` dense storage with per-row
/// lookup and SGD update.
///
/// Used by the functional model path. Production-scale tables (Table 1:
/// up to 8 GB) are never materialized: their capacity and lookup bytes
/// are accounted analytically by [`ModelCost`](crate::ModelCost).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recpipe_models::EmbeddingTable;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let table = EmbeddingTable::new(100, 8, &mut rng);
/// assert_eq!(table.lookup(42).len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    weights: Matrix,
}

impl EmbeddingTable {
    /// Creates a table with `rows` rows of dimension `dim`, initialized
    /// uniformly in `[-1/sqrt(dim), 1/sqrt(dim)]`.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `dim == 0`.
    pub fn new<R: Rng + ?Sized>(rows: usize, dim: usize, rng: &mut R) -> Self {
        assert!(rows > 0 && dim > 0, "table must be non-empty");
        let scale = 1.0 / (dim as f32).sqrt();
        Self {
            weights: Initializer::Uniform { scale }.init(rng, rows, dim),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.weights.rows()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.weights.cols()
    }

    /// Storage footprint in bytes (`rows * dim * 4`).
    pub fn bytes(&self) -> u64 {
        (self.rows() as u64) * (self.dim() as u64) * 4
    }

    /// Borrows the embedding vector for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= rows`.
    pub fn lookup(&self, id: usize) -> &[f32] {
        self.weights.row(id)
    }

    /// Applies an SGD update `row -= lr * grad` to the row for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `grad.len() != dim`.
    pub fn sgd_update(&mut self, id: usize, grad: &[f32], lr: f32) {
        assert_eq!(grad.len(), self.dim(), "gradient dimension mismatch");
        for (w, &g) in self.weights.row_mut(id).iter_mut().zip(grad.iter()) {
            *w -= lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_returns_requested_row() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut table = EmbeddingTable::new(10, 4, &mut rng);
        table.sgd_update(3, &[-1.0, -1.0, -1.0, -1.0], 1.0);
        let before_other = table.lookup(2).to_vec();
        // Row 3 moved by +1 in every coordinate; others untouched.
        assert!(table.lookup(3).iter().all(|&x| x > 0.4));
        assert_eq!(table.lookup(2), &before_other[..]);
    }

    #[test]
    fn bytes_accounts_full_table() {
        let mut rng = StdRng::seed_from_u64(4);
        let table = EmbeddingTable::new(100, 16, &mut rng);
        assert_eq!(table.bytes(), 100 * 16 * 4);
    }

    #[test]
    fn sgd_update_moves_against_gradient() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut table = EmbeddingTable::new(4, 2, &mut rng);
        let before = table.lookup(1).to_vec();
        table.sgd_update(1, &[1.0, -2.0], 0.1);
        let after = table.lookup(1);
        assert!((after[0] - (before[0] - 0.1)).abs() < 1e-6);
        assert!((after[1] - (before[1] + 0.2)).abs() < 1e-6);
    }
}
