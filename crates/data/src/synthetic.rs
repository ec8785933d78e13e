use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{ClickSample, DatasetSpec, Normal, Zipf};

/// Latent-factor click generator for the learned-model path.
///
/// Each user and item owns a latent vector; the click probability is a
/// logistic function of their inner product. Dense features are noisy views
/// of the latent affinity, and sparse ids index the user/item (plus Zipfian
/// context features), so a DLRM that learns the embedding space can
/// genuinely reduce its error with capacity — reproducing the shape of the
/// paper's Figure 2 hyperparameter sweep.
#[derive(Debug, Clone)]
pub struct ClickGenerator {
    num_dense: usize,
    num_sparse: usize,
    /// Cardinality of each sparse feature (bounded for trainability).
    vocab: u32,
    latent_dim: usize,
    noise: Normal,
    rng: StdRng,
}

impl ClickGenerator {
    /// Default latent dimensionality of the generating process.
    pub const LATENT_DIM: usize = 8;

    /// Creates a click generator for the given dataset spec.
    ///
    /// `vocab` bounds each sparse feature's cardinality so the trained
    /// models stay laptop-sized; the full-capacity tables are exercised by
    /// the virtual-table cost models instead.
    pub fn new(spec: &DatasetSpec, vocab: u32, seed: u64) -> Self {
        assert!(vocab > 0, "vocab must be positive");
        Self {
            num_dense: spec.num_dense_features.max(1),
            num_sparse: spec.num_sparse_features,
            vocab,
            latent_dim: Self::LATENT_DIM,
            noise: Normal::new(0.0, 0.25),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Deterministic pseudo-latent vector for a categorical id.
    fn latent(&self, table: usize, id: u32) -> Vec<f64> {
        // SplitMix64-style hash of (table, id, dim) — stable, cheap, and
        // avoids storing vocab * latent_dim floats.
        (0..self.latent_dim)
            .map(|d| {
                let mut h = (table as u64) << 40 ^ (id as u64) << 8 ^ d as u64;
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
                h ^= h >> 33;
                h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
                h ^= h >> 33;
                // Map to [-0.5, 0.5].
                (h as f64 / u64::MAX as f64) - 0.5
            })
            .collect()
    }

    /// Draws one labeled sample.
    pub fn next_sample(&mut self) -> ClickSample {
        let sparse: Vec<u32> = (0..self.num_sparse)
            .map(|_| self.rng.gen_range(0..self.vocab))
            .collect();

        // Affinity is the mean pairwise interaction of the first two
        // sparse features' latents (user x item), like matrix factorization.
        let u = self.latent(0, sparse.first().copied().unwrap_or(0));
        let v = self.latent(1, sparse.get(1).copied().unwrap_or(0));
        let affinity: f64 = u.iter().zip(v.iter()).map(|(a, b)| a * b).sum::<f64>() * 12.0;

        let true_ctr = 1.0 / (1.0 + (-affinity).exp());
        let clicked = self.rng.gen::<f64>() < true_ctr;

        // Dense features: *nonlinear* encodings of the affinity. A linear
        // readout cannot decode them; wider/deeper bottom MLPs
        // approximate the inverse better — which is what gives model
        // capacity something to buy (Figure 2's accuracy-vs-complexity
        // tradeoff).
        let dense: Vec<f32> = (0..self.num_dense)
            .map(|d| {
                let scale = 0.8 + 0.5 * d as f64;
                let phase = d as f64 * 0.7;
                let encoded = (affinity * scale + phase).sin();
                (encoded + self.noise.sample(&mut self.rng)) as f32
            })
            .collect();

        ClickSample {
            dense,
            sparse,
            clicked,
            true_ctr: true_ctr as f32,
        }
    }

    /// Draws a batch of `n` samples.
    pub fn take_samples(&mut self, n: usize) -> Vec<ClickSample> {
        (0..n).map(|_| self.next_sample()).collect()
    }
}

/// A stream of embedding-table lookups with Zipfian popularity, used by the
/// cache simulators (Figure 10c, Figure 13).
///
/// Rank-space ids: id `k` is the `k`-th most popular row, so "cache the
/// top-`C` ids" corresponds to caching ids `1..=C`.
#[derive(Debug, Clone)]
pub struct EmbeddingTrace {
    zipf: Zipf,
    rng: StdRng,
}

impl EmbeddingTrace {
    /// Creates a trace for a table with `rows` rows and the dataset's
    /// Zipf skew.
    pub fn new(rows: u64, zipf_exponent: f64, seed: u64) -> Self {
        Self {
            zipf: Zipf::new(rows, zipf_exponent),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The underlying popularity distribution.
    pub fn popularity(&self) -> Zipf {
        self.zipf
    }

    /// Draws the next accessed row id (1-based popularity rank).
    pub fn next_access(&mut self) -> u64 {
        self.zipf.sample(&mut self.rng)
    }

    /// Draws a batch of `n` accesses.
    pub fn take_accesses(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_access()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn click_generator_labels_follow_ctr() {
        let spec = DatasetSpec::criteo_kaggle();
        let mut gen = ClickGenerator::new(&spec, 1000, 7);
        let samples = gen.take_samples(5000);
        let click_rate = samples.iter().filter(|s| s.clicked).count() as f64 / 5000.0;
        let mean_ctr = samples.iter().map(|s| s.true_ctr as f64).sum::<f64>() / 5000.0;
        assert!(
            (click_rate - mean_ctr).abs() < 0.03,
            "click rate {click_rate} vs mean ctr {mean_ctr}"
        );
    }

    #[test]
    fn click_samples_have_spec_shape() {
        let spec = DatasetSpec::criteo_kaggle();
        let mut gen = ClickGenerator::new(&spec, 100, 3);
        let s = gen.next_sample();
        assert_eq!(s.dense.len(), 13);
        assert_eq!(s.sparse.len(), 26);
        assert!(s.sparse.iter().all(|&id| id < 100));
        assert!((0.0..=1.0).contains(&(s.true_ctr as f64)));
    }

    #[test]
    fn click_ctr_varies_across_pairs() {
        // The latent model must produce heterogeneous CTRs or nothing is
        // learnable.
        let spec = DatasetSpec::criteo_kaggle();
        let mut gen = ClickGenerator::new(&spec, 1000, 11);
        let samples = gen.take_samples(500);
        let min = samples.iter().map(|s| s.true_ctr).fold(1.0f32, f32::min);
        let max = samples.iter().map(|s| s.true_ctr).fold(0.0f32, f32::max);
        assert!(max - min > 0.2, "CTR spread too small: [{min}, {max}]");
    }

    #[test]
    fn embedding_trace_is_skewed() {
        let mut trace = EmbeddingTrace::new(1_000_000, 0.9, 13);
        let accesses = trace.take_accesses(10_000);
        let hot = accesses.iter().filter(|&&id| id <= 10_000).count();
        assert!(
            hot as f64 / 10_000.0 > 0.4,
            "top-1% share {}",
            hot as f64 / 10_000.0
        );
    }
}
