use rand::Rng;

use crate::Matrix;

/// Weight initialization scheme for MLP layers and embedding tables.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recpipe_tensor::Initializer;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let w = Initializer::XavierUniform.init(&mut rng, 16, 8);
/// assert_eq!(w.shape(), (16, 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Initializer {
    /// Glorot/Xavier uniform: `U(-sqrt(6/(fan_in+fan_out)), +...)`.
    XavierUniform,
    /// He/Kaiming uniform: `U(-sqrt(6/fan_in), +...)`, suited to ReLU nets.
    HeUniform,
    /// Uniform in `[-scale, scale]`.
    Uniform {
        /// Half-width of the sampling interval.
        scale: f32,
    },
}

impl Initializer {
    /// Samples a `rows x cols` matrix from this distribution.
    pub fn init<R: Rng + ?Sized>(self, rng: &mut R, rows: usize, cols: usize) -> Matrix {
        let bound = match self {
            Initializer::XavierUniform => (6.0 / (rows + cols) as f32).sqrt(),
            Initializer::HeUniform => (6.0 / rows as f32).sqrt(),
            Initializer::Uniform { scale } => scale,
        };
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Initializer::XavierUniform.init(&mut rng, 10, 10);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= bound + 1e-6));
    }

    #[test]
    fn he_respects_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = Initializer::HeUniform.init(&mut rng, 25, 4);
        let bound = (6.0f32 / 25.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= bound + 1e-6));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let wa = Initializer::XavierUniform.init(&mut a, 8, 8);
        let wb = Initializer::XavierUniform.init(&mut b, 8, 8);
        assert_eq!(wa, wb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let wa = Initializer::XavierUniform.init(&mut a, 8, 8);
        let wb = Initializer::XavierUniform.init(&mut b, 8, 8);
        assert_ne!(wa, wb);
    }

    #[test]
    fn uniform_scale_zero_gives_zeros() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Initializer::Uniform { scale: 0.0 }.init(&mut rng, 3, 3);
        assert!(w.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn init_is_not_all_zero_for_positive_scale() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = Initializer::Uniform { scale: 1.0 }.init(&mut rng, 4, 4);
        assert!(w.as_slice().iter().any(|&x| x != 0.0));
    }
}
