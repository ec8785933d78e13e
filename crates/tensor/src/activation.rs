use crate::Matrix;

/// Nonlinearity applied after a linear layer.
///
/// DLRM-style models use ReLU inside the MLP towers and a sigmoid on the
/// final click-through-rate (CTR) output.
///
/// # Examples
///
/// ```
/// use recpipe_tensor::Activation;
///
/// assert_eq!(Activation::Relu.apply(-1.0), 0.0);
/// assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
/// assert_eq!(Activation::Linear.apply(3.5), 3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// `max(0, x)` — used by hidden MLP layers.
    Relu,
    /// Logistic sigmoid — used on the CTR output.
    Sigmoid,
    /// Identity — no nonlinearity.
    Linear,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => relu(x),
            Activation::Sigmoid => sigmoid(x),
            Activation::Linear => x,
        }
    }

    /// Derivative of the activation expressed in terms of the *output* `y`.
    ///
    /// Using the output avoids recomputing the forward pass during
    /// backpropagation: `relu'(x) = 1[y > 0]`, `sigmoid'(x) = y (1 - y)`.
    pub fn grad_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }

    /// Applies the activation to every element of a matrix in place.
    pub fn apply_inplace(self, m: &mut Matrix) {
        m.map_inplace(|x| self.apply(x));
    }
}

/// Rectified linear unit: `max(0, x)`.
///
/// # Examples
///
/// ```
/// assert_eq!(recpipe_tensor::relu(2.0), 2.0);
/// assert_eq!(recpipe_tensor::relu(-2.0), 0.0);
/// ```
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Numerically stable logistic sigmoid `1 / (1 + e^-x)`.
///
/// # Examples
///
/// ```
/// let y = recpipe_tensor::sigmoid(100.0);
/// assert!(y > 0.999 && y <= 1.0);
/// ```
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(relu(-5.0), 0.0);
        assert_eq!(relu(0.0), 0.0);
        assert_eq!(relu(5.0), 5.0);
    }

    #[test]
    fn sigmoid_midpoint_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        let x = 1.3;
        assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    #[test]
    fn activation_grad_from_output() {
        assert_eq!(Activation::Relu.grad_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.grad_from_output(0.0), 0.0);
        assert_eq!(Activation::Linear.grad_from_output(7.0), 1.0);
        assert!((Activation::Sigmoid.grad_from_output(0.5) - 0.25).abs() < 1e-7);
    }

    #[test]
    fn apply_inplace_transforms_matrix() {
        let mut m = Matrix::from_rows(&[&[-1.0, 2.0]]);
        Activation::Relu.apply_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 2.0]);
    }
}
