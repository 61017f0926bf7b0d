//! Seeded request streams: one `StdRng` per request, and a Zipf sampler.
//! Every stream is a pure function of the run's seed and the request
//! index, so it does not depend on how connections interleave.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// The generator for request `index` of stream `stream` under `seed`.
pub fn for_request(seed: u64, stream: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (index as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
    )
}

/// Zipf over `0..n`: rank `r` has weight `1/(r+1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty support");
        let u = rng.random::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_seed_and_index() {
        let draw = |seed, i| for_request(seed, 1, i).random::<u64>();
        let a: Vec<u64> = (0..5).map(|i| draw(7, i)).collect();
        let b: Vec<u64> = (0..5).map(|i| draw(7, i)).collect();
        let c: Vec<u64> = (0..5).map(|i| draw(8, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a[0], a[1]);
        assert_ne!(a[0], for_request(7, 2, 0).random::<u64>());
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        let zero = draws.iter().filter(|&&d| d == 0).count();
        let tail = draws.iter().filter(|&&d| d >= 500).count();
        assert!(draws.iter().all(|&d| d < 1000));
        // P(0) = 1/H(1000) ≈ 0.134; P(>=500) ≈ 0.093.
        assert!((2400..3000).contains(&zero), "{zero}");
        assert!((1500..2200).contains(&tail), "{tail}");
    }
}
