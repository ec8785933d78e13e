//! The quality evaluator's draws: SplitMix64 sequences, turned into
//! standard normals and `Exp(1)` variates by Marsaglia–Tsang ziggurats
//! (Marsaglia and Tsang, "The Ziggurat Method for Generating Random
//! Variables", 2000).
//!
//! A ziggurat covers a decreasing density with 256 layers of equal
//! area: a base strip of width `R` that also holds the tail beyond `R`,
//! and 255 rectangles stacked on it up to the mode. A draw takes one
//! `u64`. Its low 8 bits pick a layer, bit 8 is the normal's sign, and
//! its top 53 bits place an abscissa across the layer. An abscissa
//! narrower than the layer above lies under the density and is returned
//! at once: one table read and one multiply, about 99% of draws. The
//! rest test the wedge the layer sticks out past the density with `exp`,
//! or, in the base strip, draw from the tail with `ln`, and a rejected
//! wedge point starts over with the next `u64`.

use std::sync::OnceLock;

/// SplitMix64's increment.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output once its state has stepped from `state`.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 sequence: output `n` is `splitmix64(seed + n·GAMMA)`.
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The sequence seeded by output `index` of the one seeded with `key`:
    /// one of many independent sequences under one key, each reached
    /// without drawing the ones before it.
    pub(crate) fn at(key: u64, index: u64) -> Self {
        Self::new(splitmix64(key.wrapping_add(index.wrapping_mul(GAMMA))))
    }

    fn next_u64(&mut self) -> u64 {
        let bits = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        bits
    }

    /// A uniform over `(0, 1]` from 53 random bits: a safe `ln` argument.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / TWO_53
    }
}

/// The standard normal's and `Exp(1)`'s ziggurats, built once.
pub(crate) struct Ziggurats {
    normal: Ziggurat,
    exponential: Ziggurat,
}

impl Ziggurats {
    pub(crate) fn get() -> &'static Self {
        static TABLES: OnceLock<Ziggurats> = OnceLock::new();
        TABLES.get_or_init(|| Self {
            normal: Ziggurat::new(NORMAL_R, NORMAL_V, normal_density, normal_tail, |y| {
                (-2.0 * y.ln()).sqrt()
            }),
            exponential: Ziggurat::new(EXP_R, EXP_V, exp_density, exp_tail, |y| -y.ln()),
        })
    }

    /// One standard normal from `rng`.
    #[inline]
    pub(crate) fn normal(&self, rng: &mut SplitMix64) -> f64 {
        let bits = rng.next_u64();
        let x = self.normal.magnitude(rng, bits);
        // Bit 8 moved to the sign bit: a branch on a random bit would be
        // mispredicted half the time.
        f64::from_bits(x.to_bits() ^ ((bits & 0x100) << 55))
    }

    /// One `Exp(1)` variate from `rng`.
    #[inline]
    pub(crate) fn exponential(&self, rng: &mut SplitMix64) -> f64 {
        let bits = rng.next_u64();
        self.exponential.magnitude(rng, bits)
    }
}

/// 2^53: the abscissa's resolution.
const TWO_53: f64 = (1u64 << 53) as f64;

/// Layers per ziggurat.
const LAYERS: usize = 256;

/// `exp(-x²/2)`: the standard normal's density up to its constant.
fn normal_density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Marsaglia's normal tail: `R + x` with `x` exponential of rate `R`,
/// kept with probability `exp(-x²/2)`.
fn normal_tail(rng: &mut SplitMix64) -> f64 {
    loop {
        let x = -rng.unit().ln() / NORMAL_R;
        let y = -rng.unit().ln();
        if 2.0 * y > x * x {
            return NORMAL_R + x;
        }
    }
}

/// `exp(-x)`: the `Exp(1)` density.
fn exp_density(x: f64) -> f64 {
    (-x).exp()
}

/// The exponential forgets: its tail beyond `R` is `R` plus an `Exp(1)`.
fn exp_tail(rng: &mut SplitMix64) -> f64 {
    EXP_R - rng.unit().ln()
}

/// The normal ziggurat's base strip width `R` and common layer area `V`,
/// solved so that the 255th rectangle reaches the mode exactly.
const NORMAL_R: f64 = 3.654_152_885_361_009;
const NORMAL_V: f64 = 0.004_928_673_233_974_655;
/// The exponential ziggurat's `R` and `V`.
const EXP_R: f64 = 7.697_117_470_131_05;
const EXP_V: f64 = 0.003_949_659_822_581_557;

/// One density's layers.
struct Ziggurat {
    /// Per layer: the 53-bit abscissa below which a draw lies under the
    /// density (the ratio of the next layer's width to this one's), and
    /// this layer's width over 2^53.
    fast: [(u64, f64); LAYERS],
    /// The density at each layer's outer edge, rising to 1 at the mode.
    f: [f64; LAYERS + 1],
    density: fn(f64) -> f64,
    /// A draw beyond `R`.
    tail: fn(&mut SplitMix64) -> f64,
}

impl Ziggurat {
    /// The layers of `density`, with inverse `inverse`, cut at `r` into
    /// areas `v`.
    fn new(
        r: f64,
        v: f64,
        density: fn(f64) -> f64,
        tail: fn(&mut SplitMix64) -> f64,
        inverse: fn(f64) -> f64,
    ) -> Self {
        // Edge 0 widens the base strip into a rectangle of area `v`;
        // every layer above reaches as high as its area allows, and the
        // last one to the mode at 0.
        let mut x = [0.0; LAYERS + 1];
        x[0] = v / density(r);
        x[1] = r;
        for i in 1..LAYERS - 1 {
            x[i + 1] = inverse(density(x[i]) + v / x[i]);
        }
        Self {
            fast: std::array::from_fn(|i| ((x[i + 1] / x[i] * TWO_53) as u64, x[i] / TWO_53)),
            f: x.map(density),
            density,
            tail,
        }
    }

    /// The magnitude of the draw that starts with `bits`.
    #[inline]
    fn magnitude(&self, rng: &mut SplitMix64, bits: u64) -> f64 {
        let (under, scale) = self.fast[usize::from(bits as u8)];
        let abscissa = bits >> 11;
        if abscissa < under {
            abscissa as f64 * scale
        } else {
            self.slow(rng, bits)
        }
    }

    /// [`magnitude`](Self::magnitude) past the fast path: a wedge test or
    /// a tail draw, and on a rejected wedge point the next `u64`'s draw.
    #[cold]
    #[inline(never)]
    fn slow(&self, rng: &mut SplitMix64, mut bits: u64) -> f64 {
        loop {
            let layer = usize::from(bits as u8);
            let (under, scale) = self.fast[layer];
            let abscissa = bits >> 11;
            let x = abscissa as f64 * scale;
            if abscissa < under {
                return x;
            }
            if layer == 0 {
                count_slow(1);
                return (self.tail)(rng);
            }
            count_slow(0);
            // A height uniform over the layer; under the density it is a
            // draw from the wedge.
            let (low, high) = (self.f[layer], self.f[layer + 1]);
            if low + (high - low) * rng.unit() < (self.density)(x) {
                return x;
            }
            bits = rng.next_u64();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Draws that left the fast path on this thread: wedge tests and
    /// tail draws.
    static SLOW: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// Counts a wedge test (0) or a tail draw (1).
#[cfg(test)]
fn count_slow(path: usize) {
    SLOW.with(|slow| {
        let mut counts = slow.get();
        counts[path] += 1;
        slow.set(counts);
    });
}

/// Counts nothing outside tests.
#[cfg(not(test))]
fn count_slow(_: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_slow_paths_run_as_often_as_the_layers_imply() {
        // A draw tries `256·V / area` times on average (the density's
        // area over the ziggurat's), and each try tests a wedge or goes
        // to the tail as often as its layer's abscissa passes the one
        // above. The fast path never returns a magnitude beyond `R`, and
        // a tail draw always does.
        let zigs = Ziggurats::get();
        type Draw = fn(&Ziggurats, &mut SplitMix64) -> f64;
        let draws: [(&str, Draw, &Ziggurat, f64, f64, f64); 2] = [
            (
                "normal",
                Ziggurats::normal,
                &zigs.normal,
                NORMAL_R,
                NORMAL_V,
                (std::f64::consts::PI / 2.0).sqrt(),
            ),
            (
                "exponential",
                Ziggurats::exponential,
                &zigs.exponential,
                EXP_R,
                EXP_V,
                1.0,
            ),
        ];
        let n = 1_000_000;
        for (name, draw, zig, r, v, area) in draws {
            let tries = n as f64 * LAYERS as f64 * v / area;
            let slow = |layer: usize| (1.0 - zig.fast[layer].0 as f64 / TWO_53) / LAYERS as f64;
            let expected = [(1..LAYERS).map(slow).sum::<f64>() * tries, slow(0) * tries];
            SLOW.with(|counts| counts.set([0; 2]));
            let mut rng = SplitMix64::new(splitmix64(name.len() as u64));
            let beyond = (0..n).filter(|_| draw(zigs, &mut rng).abs() > r).count() as u64;
            let counts = SLOW.with(|counts| counts.get());
            for (path, (count, expected)) in
                ["wedge", "tail"].iter().zip(counts.iter().zip(expected))
            {
                // Five standard deviations of a Poisson count.
                assert!(
                    (*count as f64 - expected).abs() < 5.0 * expected.sqrt(),
                    "{name}: {count} {path} draws, {expected:.0} expected"
                );
            }
            assert_eq!(beyond, counts[1], "{name}");
        }
    }

    #[test]
    fn layers_have_equal_areas_and_close_at_the_mode() {
        let zigs = Ziggurats::get();
        for (name, zig, v) in [
            ("normal", &zigs.normal, NORMAL_V),
            ("exponential", &zigs.exponential, EXP_V),
        ] {
            let width = |i: usize| zig.fast[i].1 * TWO_53;
            // The base strip as a rectangle under the density at `R`,
            // then every layer between its two edges' densities, up to
            // the mode's density of 1.
            assert!((width(0) * zig.f[1] / v - 1.0).abs() < 1e-12, "{name} base");
            assert_eq!(zig.f[LAYERS], 1.0, "{name}");
            for i in 1..LAYERS {
                let area = width(i) * (zig.f[i + 1] - zig.f[i]);
                assert!(
                    (area / v - 1.0).abs() < 1e-9,
                    "{name} layer {i}: area {area}"
                );
            }
        }
    }
}
