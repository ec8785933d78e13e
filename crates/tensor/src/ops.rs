use crate::Matrix;

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
///
/// # Examples
///
/// ```
/// assert_eq!(recpipe_tensor::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
///
/// # Examples
///
/// ```
/// assert!((recpipe_tensor::l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
/// ```
#[inline]
pub fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Adds the bias vector to every row of the activations matrix in place.
///
/// # Panics
///
/// Panics if `bias.len() != m.cols()`.
pub fn add_bias_inplace(m: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), m.cols(), "bias length must equal column count");
    let rows = m.rows();
    for r in 0..rows {
        for (x, b) in m.row_mut(r).iter_mut().zip(bias.iter()) {
            *x += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_of_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn l2_norm_of_zero_vector() {
        assert_eq!(l2_norm(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn add_bias_broadcasts_over_rows() {
        let mut m = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        add_bias_inplace(&mut m, &[10.0, 20.0]);
        assert_eq!(m.row(0), &[11.0, 21.0]);
        assert_eq!(m.row(1), &[12.0, 22.0]);
    }
}
