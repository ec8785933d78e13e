//! Random distributions implemented on top of `rand`'s uniform source.
//!
//! `rand` 0.8 ships only uniform sampling; the normal, exponential, and
//! Zipf distributions RecPipe needs are implemented here rather than
//! pulling in an extra dependency (see DESIGN.md).

use rand::Rng;

/// Gaussian distribution sampled with the Marsaglia polar method.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recpipe_data::Normal;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let n = Normal::new(10.0, 2.0);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std.is_finite() && std >= 0.0, "std must be non-negative");
        Self { mean, std }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.std == 0.0 {
            return self.mean;
        }
        // Marsaglia polar method; rejection loop terminates with
        // probability 1 (acceptance ~78.5% per iteration).
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std * u * factor;
            }
        }
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for true-utility tails and Poisson inter-arrival gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive"
        );
        Self { lambda }
    }

    /// Mean of the distribution (`1 / lambda`).
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws one sample by inverse-CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u in [0, 1); 1-u in (0, 1] avoids ln(0).
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.lambda
    }
}

/// Zipfian distribution over ranks `1..=n` with exponent `s`.
///
/// Embedding-table lookups in production recommendation workloads follow a
/// power law — a small set of hot vectors absorbs most accesses — which is
/// exactly what makes on-chip embedding caches effective (paper Section 6.2,
/// Takeaway 7). Sampling uses the continuous inverse-CDF approximation
/// `F(x) ∝ x^(1-s)`, which is accurate for the large `n` (millions of rows)
/// used by the cache models and keeps sampling O(1).
///
/// Rank 1 is the hottest item.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recpipe_data::Zipf;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let z = Zipf::new(1_000_000, 0.9);
/// let rank = z.sample(&mut rng);
/// assert!((1..=1_000_000).contains(&rank));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(s.is_finite() && s >= 0.0, "exponent must be non-negative");
        Self { n, s }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Draws one rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen(); // [0, 1)
        let x = if (self.s - 1.0).abs() < 1e-9 {
            // s = 1: F^-1(u) = n^u.
            (self.n as f64).powf(u)
        } else {
            let t = 1.0 - self.s;
            // F(x) = (x^t - 1) / (n^t - 1)
            let n_t = (self.n as f64).powf(t);
            ((n_t - 1.0) * u + 1.0).powf(1.0 / t)
        };
        (x.floor() as u64).clamp(1, self.n)
    }

    /// Probability that a sample's rank is `<= k` (fraction of accesses
    /// absorbed by the `k` hottest items).
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=n`.
    pub fn cdf(&self, k: u64) -> f64 {
        assert!((1..=self.n).contains(&k), "rank out of range");
        if k == self.n {
            return 1.0;
        }
        if (self.s - 1.0).abs() < 1e-9 {
            ((k + 1) as f64).ln() / ((self.n as f64).ln().max(f64::MIN_POSITIVE))
        } else {
            let t = 1.0 - self.s;
            let n_t = (self.n as f64).powf(t);
            (((k + 1) as f64).powf(t) - 1.0) / (n_t - 1.0)
        }
        .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sample_statistics() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = Normal::new(5.0, 2.0);
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean was {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std was {}", var.sqrt());
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = Normal::new(3.0, 0.0);
        assert_eq!(n.sample(&mut rng), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn normal_rejects_negative_std() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = StdRng::seed_from_u64(12);
        let e = Exponential::new(4.0);
        let mean = (0..20_000).map(|_| e.sample(&mut rng)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.25).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn exponential_samples_are_nonnegative() {
        let mut rng = StdRng::seed_from_u64(13);
        let e = Exponential::new(0.5);
        assert!((0..1000).all(|_| e.sample(&mut rng) >= 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    fn zipf_samples_in_range() {
        let mut rng = StdRng::seed_from_u64(14);
        let z = Zipf::new(1000, 0.8);
        for _ in 0..5000 {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = StdRng::seed_from_u64(15);
        let z = Zipf::new(100_000, 0.9);
        let hot = (0..20_000).filter(|_| z.sample(&mut rng) <= 1000).count();
        // Top 1% of ranks should absorb far more than 1% of accesses.
        assert!(
            hot as f64 / 20_000.0 > 0.3,
            "top-1% share was {}",
            hot as f64 / 20_000.0
        );
    }

    #[test]
    fn zipf_cdf_is_monotone_and_complete() {
        let z = Zipf::new(10_000, 0.7);
        let mut prev = 0.0;
        for k in [1u64, 10, 100, 1000, 9999, 10_000] {
            let c = z.cdf(k);
            assert!(c >= prev, "cdf not monotone at {k}");
            prev = c;
        }
        assert!((z.cdf(10_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_cdf_matches_empirical_frequency() {
        let mut rng = StdRng::seed_from_u64(16);
        let z = Zipf::new(50_000, 0.9);
        let k = 500;
        let analytic = z.cdf(k);
        let hits = (0..40_000).filter(|_| z.sample(&mut rng) <= k).count();
        let empirical = hits as f64 / 40_000.0;
        assert!(
            (analytic - empirical).abs() < 0.02,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn zipf_exponent_one_path() {
        let mut rng = StdRng::seed_from_u64(17);
        let z = Zipf::new(1000, 1.0);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
        }
        assert!(z.cdf(1000) == 1.0);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        // s = 0 degenerates to uniform: cdf(k) ≈ k/n.
        let z = Zipf::new(1000, 0.0);
        assert!((z.cdf(500) - 0.5).abs() < 0.01);
    }
}
