use rand::Rng;
use recpipe_tensor::{sigmoid, Activation, Matrix};

use crate::{EmbeddingTable, Mlp, ModelConfig};

/// A functional Deep Learning Recommendation Model (Naumov et al.).
///
/// Architecture (paper Figure 2, top):
///
/// 1. a **bottom MLP** processes the dense features into a `dim`-vector;
/// 2. each sparse feature indexes an **embedding table**, yielding one
///    `dim`-vector per table;
/// 3. **feature interaction** takes pairwise dot products among all
///    vectors (bottom output + embeddings), concatenated after the bottom
///    output and fitted (truncate / zero-pad) to the top MLP's input width;
/// 4. a **top MLP** produces the CTR logit; the model applies a sigmoid.
///
/// Training uses per-batch SGD on binary cross-entropy with manual
/// backpropagation through all four blocks.
///
/// The table row count is a constructor argument (`vocab`) rather than the
/// production-scale `ModelConfig::rows_per_table`, so trained models stay
/// laptop-sized; capacity effects are modeled by
/// [`ModelCost`](crate::ModelCost).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recpipe_data::DatasetKind;
/// use recpipe_models::{Dlrm, ModelConfig, ModelKind};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cfg = ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle);
/// let model = Dlrm::new(&cfg, 1000, &mut rng);
/// let ctr = model.predict(&[0.0; 13], &vec![3u32; 26]);
/// assert!((0.0..=1.0).contains(&ctr));
/// ```
#[derive(Debug, Clone)]
pub struct Dlrm {
    bottom: Mlp,
    tables: Vec<EmbeddingTable>,
    top: Mlp,
    embedding_dim: usize,
    top_input_dim: usize,
}

impl Dlrm {
    /// Builds a DLRM from a model configuration with `vocab` rows per
    /// embedding table.
    ///
    /// # Panics
    ///
    /// Panics if the config has an empty bottom or top MLP, or `vocab`
    /// is zero.
    pub fn new<R: Rng + ?Sized>(config: &ModelConfig, vocab: usize, rng: &mut R) -> Self {
        assert!(
            config.mlp_bottom.len() >= 2,
            "DLRM requires a bottom MLP (got {:?})",
            config.mlp_bottom
        );
        assert!(config.mlp_top.len() >= 2, "DLRM requires a top MLP");
        let bottom = Mlp::new(
            &config.mlp_bottom,
            Activation::Relu,
            Activation::Linear,
            rng,
        );
        let tables = (0..config.num_tables)
            .map(|_| EmbeddingTable::new(vocab, config.embedding_dim, rng))
            .collect();
        // Top MLP emits a logit; sigmoid is fused into the loss.
        let top = Mlp::new(&config.mlp_top, Activation::Relu, Activation::Linear, rng);
        Self {
            bottom,
            tables,
            top,
            embedding_dim: config.embedding_dim,
            top_input_dim: config.top_input_dim(),
        }
    }

    /// Number of embedding tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Embedding dimensionality.
    pub fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    /// Builds the interaction feature vector from the bottom output and
    /// embedding vectors: `[bottom ; pairwise dots]`, truncated or
    /// zero-padded to the top MLP's input width.
    fn interact(&self, bottom_out: &[f32], embeddings: &[Vec<f32>]) -> Vec<f32> {
        let mut features = Vec::with_capacity(self.top_input_dim);
        features.extend_from_slice(bottom_out);
        let mut vectors: Vec<&[f32]> = Vec::with_capacity(embeddings.len() + 1);
        vectors.push(bottom_out);
        for e in embeddings {
            vectors.push(e);
        }
        'outer: for i in 0..vectors.len() {
            for j in (i + 1)..vectors.len() {
                if features.len() >= self.top_input_dim {
                    break 'outer;
                }
                features.push(recpipe_tensor::dot(vectors[i], vectors[j]));
            }
        }
        features.resize(self.top_input_dim, 0.0);
        features
    }

    /// Predicted click-through rate for one item.
    ///
    /// # Panics
    ///
    /// Panics if `dense` or `sparse` lengths disagree with the config, or
    /// a sparse id exceeds the vocabulary.
    pub fn predict(&self, dense: &[f32], sparse: &[u32]) -> f32 {
        assert_eq!(sparse.len(), self.tables.len(), "sparse feature count");
        let bottom_out = self
            .bottom
            .forward(&Matrix::from_vec(1, dense.len(), dense.to_vec()));
        let embeddings: Vec<Vec<f32>> = sparse
            .iter()
            .zip(self.tables.iter())
            .map(|(&id, t)| t.lookup(id as usize).to_vec())
            .collect();
        let features = self.interact(bottom_out.row(0), &embeddings);
        let logit = self
            .top
            .forward(&Matrix::from_vec(1, features.len(), features));
        sigmoid(logit.get(0, 0))
    }

    /// One SGD step on a single labeled example; returns the BCE loss
    /// before the update.
    pub fn train_step(&mut self, dense: &[f32], sparse: &[u32], clicked: bool, lr: f32) -> f32 {
        assert_eq!(sparse.len(), self.tables.len(), "sparse feature count");
        let x = Matrix::from_vec(1, dense.len(), dense.to_vec());
        let bottom_cache = self.bottom.forward_cached(&x);
        let bottom_out = bottom_cache.last().expect("non-empty").row(0).to_vec();

        let embeddings: Vec<Vec<f32>> = sparse
            .iter()
            .zip(self.tables.iter())
            .map(|(&id, t)| t.lookup(id as usize).to_vec())
            .collect();

        let features = self.interact(&bottom_out, &embeddings);
        let fx = Matrix::from_vec(1, features.len(), features.clone());
        let top_cache = self.top.forward_cached(&fx);
        let logit = top_cache.last().expect("non-empty").get(0, 0);
        let p = sigmoid(logit);
        let y = if clicked { 1.0 } else { 0.0 };

        let eps = 1e-7f32;
        let loss = -(y * (p + eps).ln() + (1.0 - y) * (1.0 - p + eps).ln());

        // Fused sigmoid + BCE derivative: dL/dlogit = p - y.
        let grad_logit = Matrix::from_vec(1, 1, vec![p - y]);
        let grad_features = self.top.backward_sgd(&top_cache, &grad_logit, lr);

        // Route the feature gradient back through the interaction.
        let d = self.embedding_dim;
        let mut grad_bottom = vec![0.0f32; bottom_out.len()];
        let mut grad_embeddings = vec![vec![0.0f32; d]; embeddings.len()];

        // First `bottom_out.len()` features are the bottom output itself.
        for (g, &gf) in grad_bottom.iter_mut().zip(grad_features.as_slice().iter()) {
            *g += gf;
        }

        // Remaining features are pairwise dots in deterministic order.
        let num_vectors = embeddings.len() + 1;
        let mut fidx = bottom_out.len();
        'outer: for i in 0..num_vectors {
            for j in (i + 1)..num_vectors {
                if fidx >= self.top_input_dim {
                    break 'outer;
                }
                let g = grad_features.as_slice()[fidx];
                fidx += 1;
                if g == 0.0 {
                    continue;
                }
                // d(v_i . v_j)/dv_i = v_j and vice versa; vector 0 is the
                // bottom output.
                let vi: &[f32] = if i == 0 {
                    &bottom_out
                } else {
                    &embeddings[i - 1]
                };
                let vj: &[f32] = &embeddings[j - 1]; // j >= 1 always
                if i == 0 {
                    for (gb, &w) in grad_bottom.iter_mut().zip(vj.iter()) {
                        *gb += g * w;
                    }
                } else {
                    for (ge, &w) in grad_embeddings[i - 1].iter_mut().zip(vj.iter()) {
                        *ge += g * w;
                    }
                }
                for (ge, &w) in grad_embeddings[j - 1].iter_mut().zip(vi.iter()) {
                    *ge += g * w;
                }
            }
        }

        // Update embeddings and bottom MLP.
        for ((table, &id), grad) in self
            .tables
            .iter_mut()
            .zip(sparse.iter())
            .zip(grad_embeddings.iter())
        {
            table.sgd_update(id as usize, grad, lr);
        }
        let gb = Matrix::from_vec(1, grad_bottom.len(), grad_bottom);
        self.bottom.backward_sgd(&bottom_cache, &gb, lr);
        loss
    }

    /// Total parameter count (MLPs + embedding tables).
    pub fn num_params(&self) -> u64 {
        let table_params: u64 = self
            .tables
            .iter()
            .map(|t| (t.rows() * t.dim()) as u64)
            .sum();
        self.bottom.num_params() + self.top.num_params() + table_params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use recpipe_data::DatasetKind;

    fn small_dlrm(seed: u64) -> Dlrm {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle);
        Dlrm::new(&cfg, 50, &mut rng)
    }

    #[test]
    fn predict_is_probability() {
        let model = small_dlrm(1);
        let ctr = model.predict(&[0.5; 13], &[7u32; 26]);
        assert!((0.0..=1.0).contains(&ctr));
    }

    #[test]
    fn predict_is_deterministic() {
        let model = small_dlrm(2);
        let a = model.predict(&[0.1; 13], &[3u32; 26]);
        let b = model.predict(&[0.1; 13], &[3u32; 26]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_sparse_ids_change_prediction() {
        let model = small_dlrm(3);
        let a = model.predict(&[0.1; 13], &[3u32; 26]);
        let b = model.predict(&[0.1; 13], &[40u32; 26]);
        assert_ne!(a, b);
    }

    #[test]
    fn train_step_reduces_loss_on_repeated_example() {
        let mut model = small_dlrm(4);
        let dense = [0.3; 13];
        let sparse = vec![5u32; 26];
        let first = model.train_step(&dense, &sparse, true, 0.05);
        for _ in 0..50 {
            model.train_step(&dense, &sparse, true, 0.05);
        }
        let last = model.train_step(&dense, &sparse, true, 0.05);
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn training_separates_two_classes() {
        let mut model = small_dlrm(5);
        let pos_sparse: Vec<u32> = (0..26).map(|_| 1).collect();
        let neg_sparse: Vec<u32> = (0..26).map(|_| 2).collect();
        for _ in 0..150 {
            model.train_step(&[1.0; 13], &pos_sparse, true, 0.05);
            model.train_step(&[-1.0; 13], &neg_sparse, false, 0.05);
        }
        let p_pos = model.predict(&[1.0; 13], &pos_sparse);
        let p_neg = model.predict(&[-1.0; 13], &neg_sparse);
        assert!(
            p_pos > 0.7 && p_neg < 0.3,
            "failed to separate: pos {p_pos}, neg {p_neg}"
        );
    }

    #[test]
    fn rmlarge_config_builds_and_predicts() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::CriteoKaggle);
        let model = Dlrm::new(&cfg, 20, &mut rng);
        assert_eq!(model.embedding_dim(), 32);
        let ctr = model.predict(&[0.0; 13], &[1u32; 26]);
        assert!((0.0..=1.0).contains(&ctr));
    }

    #[test]
    fn param_count_includes_tables() {
        let model = small_dlrm(7);
        // 26 tables * 50 rows * dim 4 = 5200 embedding params at minimum.
        assert!(model.num_params() > 5200);
    }

    #[test]
    #[should_panic(expected = "sparse feature count")]
    fn wrong_sparse_arity_panics() {
        let model = small_dlrm(8);
        model.predict(&[0.0; 13], &[1, 2, 3]);
    }
}
