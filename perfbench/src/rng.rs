//! A tiny deterministic generator (SplitMix64) for the benchmark's inputs.
//! Every request stream and mutation schedule derives from the `--seed`
//! argument through this type, so the same seed always yields the same
//! inputs.

/// SplitMix64: small, fast and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`salt`) under one seed.
    pub fn derive(seed: u64, salt: u64) -> Rng {
        let mut base = Rng(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
        Rng(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(5, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(5, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::derive(5, 1).next_u64(), Rng::derive(5, 2).next_u64());
        assert_ne!(Rng::derive(5, 1).next_u64(), Rng::derive(6, 1).next_u64());
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = Rng::derive(9, 0);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
