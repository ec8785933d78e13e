use rand::Rng;
use recpipe_tensor::{add_bias_inplace, Activation, Initializer, Matrix};

/// One fully-connected layer: `Y = act(X W + b)`.
///
/// Weights are `in_dim x out_dim` so activations stay row-major batches
/// (`batch x dim`).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f32>,
    activation: Activation,
}

impl DenseLayer {
    /// Creates a layer with He-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self {
            weights: Initializer::HeUniform.init(rng, in_dim, out_dim),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's nonlinearity.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass for a batch (`batch x in_dim`) → (`batch x out_dim`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x
            .matmul(&self.weights)
            .expect("layer input dimension mismatch");
        add_bias_inplace(&mut y, &self.bias);
        self.activation.apply_inplace(&mut y);
        y
    }

    /// Backward pass.
    ///
    /// Given the layer input `x`, its output `y`, and the gradient of the
    /// loss with respect to `y`, applies an SGD step to the weights/bias
    /// and returns the gradient with respect to `x`.
    pub fn backward_sgd(&mut self, x: &Matrix, y: &Matrix, grad_y: &Matrix, lr: f32) -> Matrix {
        // dZ = dY ⊙ act'(Y), where Z is the pre-activation.
        let mut grad_z = grad_y.clone();
        for (gz, &out) in grad_z.as_mut_slice().iter_mut().zip(y.as_slice().iter()) {
            *gz *= self.activation.grad_from_output(out);
        }
        // dW = Xᵀ dZ ; db = column sums of dZ ; dX = dZ Wᵀ.
        let grad_w = x
            .transpose()
            .matmul(&grad_z)
            .expect("backward shape mismatch");
        let grad_x = grad_z
            .matmul(&self.weights.transpose())
            .expect("backward shape mismatch");

        for r in 0..self.weights.rows() {
            for c in 0..self.weights.cols() {
                let w = self.weights.get(r, c) - lr * grad_w.get(r, c);
                self.weights.set(r, c, w);
            }
        }
        for c in 0..self.bias.len() {
            let db: f32 = (0..grad_z.rows()).map(|r| grad_z.get(r, c)).sum();
            self.bias[c] -= lr * db;
        }
        grad_x
    }

    /// Number of multiply-accumulate operations per input row.
    pub fn macs_per_row(&self) -> u64 {
        (self.in_dim() as u64) * (self.out_dim() as u64)
    }

    /// Parameter count (weights + bias).
    pub fn num_params(&self) -> u64 {
        self.macs_per_row() + self.out_dim() as u64
    }
}

/// A multi-layer perceptron: the building block of both DLRM towers and
/// the NeuMF predictor.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recpipe_models::Mlp;
/// use recpipe_tensor::{Activation, Matrix};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // The paper's RMsmall bottom tower: 13-64-4.
/// let mlp = Mlp::new(&[13, 64, 4], Activation::Relu, Activation::Linear, &mut rng);
/// let x = Matrix::zeros(2, 13);
/// assert_eq!(mlp.forward(&x).shape(), (2, 4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Creates an MLP from a full dimension chain (`dims[0]` is the input
    /// size). Hidden layers use `hidden`, the final layer uses `output`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == dims.len() { output } else { hidden };
                DenseLayer::new(w[0], w[1], act, rng)
            })
            .collect();
        Self { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Borrows the layers.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Forward pass for a batch.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Forward pass that also returns every intermediate activation
    /// (`outputs[0]` is the input, `outputs[i+1]` the output of layer `i`),
    /// as needed by [`backward_sgd`](Self::backward_sgd).
    pub fn forward_cached(&self, x: &Matrix) -> Vec<Matrix> {
        let mut outputs = Vec::with_capacity(self.layers.len() + 1);
        outputs.push(x.clone());
        for layer in &self.layers {
            let next = layer.forward(outputs.last().expect("non-empty"));
            outputs.push(next);
        }
        outputs
    }

    /// Backpropagates `grad_out` through the network, applying SGD updates,
    /// and returns the gradient with respect to the input.
    ///
    /// `cached` must come from [`forward_cached`](Self::forward_cached) on
    /// the same input.
    pub fn backward_sgd(&mut self, cached: &[Matrix], grad_out: &Matrix, lr: f32) -> Matrix {
        assert_eq!(
            cached.len(),
            self.layers.len() + 1,
            "cached activations do not match layer count"
        );
        let mut grad = grad_out.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            grad = layer.backward_sgd(&cached[i], &cached[i + 1], &grad, lr);
        }
        grad
    }

    /// Multiply-accumulates per input row across all layers.
    pub fn macs_per_row(&self) -> u64 {
        self.layers.iter().map(DenseLayer::macs_per_row).sum()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> u64 {
        self.layers.iter().map(DenseLayer::num_params).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn forward_shape_follows_dims() {
        let mlp = Mlp::new(
            &[13, 64, 4],
            Activation::Relu,
            Activation::Linear,
            &mut rng(),
        );
        let x = Matrix::zeros(3, 13);
        assert_eq!(mlp.forward(&x).shape(), (3, 4));
        assert_eq!(mlp.in_dim(), 13);
        assert_eq!(mlp.out_dim(), 4);
    }

    #[test]
    fn macs_match_table1_small_bottom() {
        // 13-64-4 → 13*64 + 64*4 = 1088 MACs, the dominant term of
        // Table 1's 1.1K FLOPs for RMsmall.
        let mlp = Mlp::new(
            &[13, 64, 4],
            Activation::Relu,
            Activation::Linear,
            &mut rng(),
        );
        assert_eq!(mlp.macs_per_row(), 13 * 64 + 64 * 4);
    }

    #[test]
    fn sigmoid_output_is_probability() {
        let mlp = Mlp::new(
            &[4, 8, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng(),
        );
        let x = Matrix::filled(5, 4, 0.3);
        let y = mlp.forward(&x);
        for r in 0..5 {
            let p = y.get(r, 0);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn forward_cached_last_equals_forward() {
        let mlp = Mlp::new(
            &[6, 12, 3],
            Activation::Relu,
            Activation::Linear,
            &mut rng(),
        );
        let x = Matrix::filled(2, 6, 0.5);
        let cached = mlp.forward_cached(&x);
        assert_eq!(cached.len(), 3);
        assert_eq!(cached.last().unwrap(), &mlp.forward(&x));
    }

    #[test]
    fn sgd_reduces_regression_loss() {
        // Fit y = mean(x) with a tiny MLP; loss must drop substantially.
        let mut mlp = Mlp::new(
            &[4, 16, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng(),
        );
        let mut data_rng = StdRng::seed_from_u64(7);
        let loss = |mlp: &Mlp, xs: &Matrix, ys: &[f32]| -> f32 {
            let pred = mlp.forward(xs);
            ys.iter()
                .enumerate()
                .map(|(i, &t)| (pred.get(i, 0) - t).powi(2))
                .sum::<f32>()
                / ys.len() as f32
        };

        let xs = Initializer::Uniform { scale: 1.0 }.init(&mut data_rng, 64, 4);
        let ys: Vec<f32> = (0..64)
            .map(|r| xs.row(r).iter().sum::<f32>() / 4.0)
            .collect();

        let initial = loss(&mlp, &xs, &ys);
        for _ in 0..300 {
            let cached = mlp.forward_cached(&xs);
            let pred = cached.last().unwrap();
            let mut grad = Matrix::zeros(64, 1);
            for (i, &target) in ys.iter().enumerate() {
                grad.set(i, 0, 2.0 * (pred.get(i, 0) - target) / 64.0);
            }
            mlp.backward_sgd(&cached, &grad, 0.1);
        }
        let trained = loss(&mlp, &xs, &ys);
        assert!(
            trained < initial * 0.2,
            "loss {initial} -> {trained} did not improve enough"
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Check dX from backward against numeric differentiation of a
        // scalar loss L = sum(forward(x)).
        let mlp = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Linear, &mut rng());
        let x = Matrix::from_rows(&[&[0.3, -0.2, 0.9]]);

        let cached = mlp.forward_cached(&x);
        let grad_out = Matrix::filled(1, 2, 1.0); // dL/dY for L = sum(Y)
        let mut probe = mlp.clone();
        let grad_x = probe.backward_sgd(&cached, &grad_out, 0.0); // lr=0: no update

        let f = |m: &Mlp, x: &Matrix| -> f32 { m.forward(x).as_slice().iter().sum() };
        let eps = 1e-3;
        for c in 0..3 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let numeric = (f(&mlp, &xp) - f(&mlp, &xm)) / (2.0 * eps);
            let analytic = grad_x.get(0, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "col {c}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn zero_lr_backward_does_not_change_weights() {
        let mut mlp = Mlp::new(
            &[2, 3, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng(),
        );
        let reference = mlp.clone();
        let x = Matrix::filled(1, 2, 0.7);
        let cached = mlp.forward_cached(&x);
        let grad = Matrix::filled(1, 1, 0.5);
        mlp.backward_sgd(&cached, &grad, 0.0);
        assert_eq!(mlp, reference);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn single_dim_mlp_panics() {
        Mlp::new(&[4], Activation::Relu, Activation::Linear, &mut rng());
    }
}
