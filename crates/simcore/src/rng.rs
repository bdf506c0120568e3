//! Deterministic random-number generation for simulations.
//!
//! All stochastic components draw from a [`SimRng`], a seedable generator
//! with support for *stream splitting*: deriving an independent child
//! generator for a named subsystem so that adding randomness to one module
//! does not perturb the draw sequence of another.

use crate::hash::{fnv1a, FNV_OFFSET};

/// A deterministic, splittable random-number generator.
///
/// The core is xoshiro256++ with its 256-bit state expanded from the seed
/// by SplitMix64. Every seeded artifact, digest and golden file in the
/// workspace depends on the exact draw sequence, which a test pins.
///
/// # Examples
///
/// ```
/// use socc_sim::rng::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_f64(), b.next_f64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns its mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        // SplitMix64's output mix is a bijection and its four states here
        // are distinct, so at most one word is zero: xoshiro's forbidden
        // all-zero state cannot arise.
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator for the subsystem `label`.
    ///
    /// The child's stream depends on the parent seed state and the label but
    /// consuming it does not advance the parent, and two children with
    /// different labels are (statistically) independent.
    pub fn split(&self, label: &str) -> Self {
        // FNV-1a over the label mixed with a draw-free peek of parent state:
        // clone the parent so splitting does not advance it.
        let h = fnv1a(FNV_OFFSET, label.as_bytes());
        let base = self.clone().next_u64();
        Self::seed(base ^ h)
    }

    /// The next raw 64-bit word (one xoshiro256++ step).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`: the top 53 bits of one word.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "cannot sample empty range");
        let span = (hi - lo) as u64;
        // Lemire's widening multiply: the high word is the offset. Low
        // words below 2^64 mod span are redrawn so every offset is equally
        // likely.
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        if (m as u64) < span {
            let threshold = span.wrapping_neg() % span;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(span);
            }
        }
        lo + (m >> 64) as usize
    }

    /// Exponential draw with the given rate (events per unit time).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -u.ln() / rate
    }

    /// Standard normal draw (Box–Muller).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with mean `mu` and standard deviation `sigma`.
    pub(crate) fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.standard_normal()
    }

    /// Log-normal draw parameterized by the mean and sigma of the underlying
    /// normal distribution.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson draw with mean `lambda` (Knuth's method for small lambda,
    /// normal approximation above 30).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "poisson mean must be non-negative");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let v = self.normal(lambda, lambda.sqrt()).round();
            return v.max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_f64(), b.next_f64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).filter(|_| a.next_f64() == b.next_f64()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_does_not_advance_parent() {
        let parent = SimRng::seed(99);
        let mut p1 = parent.clone();
        let _child = parent.split("net");
        let mut p2 = parent.clone();
        assert_eq!(p1.next_f64(), p2.next_f64());
    }

    #[test]
    fn split_streams_are_label_dependent() {
        let parent = SimRng::seed(5);
        let mut a = parent.split("alpha");
        let mut b = parent.split("beta");
        assert_ne!(a.next_f64(), b.next_f64());
    }

    #[test]
    fn unit_draws_stay_below_one() {
        let mut r = SimRng::seed(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "draw {x}");
        }
    }

    #[test]
    fn unit_draws_have_mean_half() {
        let mut r = SimRng::seed(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_usize_respects_bounds_and_hits_every_value() {
        let mut r = SimRng::seed(2);
        for _ in 0..10_000 {
            let v = r.uniform_usize(3, 17);
            assert!((3..17).contains(&v));
        }
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[r.uniform_usize(0, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_usize_splits_thirds_evenly() {
        let mut r = SimRng::seed(7);
        let n = 60_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[r.uniform_usize(0, 3)] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.01, "frac {frac}");
        }
    }

    /// Every seeded artifact depends on the exact draw sequence: pin an
    /// FNV-1a fold of ~480k draws across the public draw paths, including
    /// Lemire's rejection path (spans near 2^63) and `split`.
    #[test]
    fn draw_sequence_is_pinned() {
        let mut h = FNV_OFFSET;
        let mut fold = |x: u64| h = fnv1a(h, &x.to_le_bytes());
        for seed in [0, 1, 7, 42, u64::MAX, 0xdead_beef_1234_5678] {
            let mut r = SimRng::seed(seed);
            for i in 0..20_000usize {
                fold(r.next_f64().to_bits());
                let lo = i % 3;
                fold(r.uniform_usize(lo, lo + 1 + (i * 7919) % 1000) as u64);
                fold(r.uniform_usize(0, usize::MAX) as u64);
                fold(r.uniform_usize(0, (1 << 63) + 12345) as u64);
                if i % 100 == 0 {
                    fold(r.split("x").next_f64().to_bits());
                }
                fold(r.poisson(3.5));
            }
        }
        assert_eq!(format!("{h:016x}"), "ab35cdbf555ce311");
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::seed(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::seed(12);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.08, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn poisson_mean_close_small_and_large() {
        let mut r = SimRng::seed(13);
        for lambda in [0.5, 4.0, 80.0] {
            let n = 10_000;
            let mean: f64 = (0..n).map(|_| r.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.08,
                "lambda {lambda} mean {mean}"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(16);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
