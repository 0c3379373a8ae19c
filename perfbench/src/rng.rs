//! Seeded input generation: a SplitMix64 stream and a Zipf sampler.
//! Every input the benchmark feeds the programs comes from here, so a
//! seed fixes the inputs exactly. Also the FNV-1a hash the output
//! digests use.

/// SplitMix64: tiny, fast, and fully specified, so inputs never change
/// with a dependency's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// Exponential with the given rate (Poisson inter-arrival time).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a over bytes: the digest the simulate gate records.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_key_stream_is_deterministic_per_seed() {
        let zipf = Zipf::new(4096, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let keys = draw(7);
        assert!(keys.iter().all(|&k| k < 4096));
        // Rank 0 is the most popular: ~1/H(4096) ≈ 11% of draws.
        let top = keys.iter().filter(|&&k| k == 0).count();
        assert!((150..300).contains(&top), "rank-0 share {top}/2000");
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            assert!(rng.below(29) < 29);
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(rng.exponential(400.0) >= 0.0);
        }
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
