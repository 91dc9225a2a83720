//! Seeded inputs: the request mix.
//!
//! The benchmark draws from its own SplitMix64 stream so that the inputs depend only on
//! `--seed` and this file, never on the program's RNG.

/// SplitMix64: tiny, seedable, and good enough for shuffles.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for purpose `tag` under `seed`.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut s = SplitMix64(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` picks from a pool of `pool` items: back-to-back seeded permutations, so any
/// `pool` consecutive picks starting at a multiple of `pool` cover the whole pool.
pub fn mix(seed: u64, pool: usize, n: usize) -> Vec<usize> {
    assert!(pool > 0);
    let mut rng = SplitMix64::stream(seed, 1);
    let mut out = Vec::with_capacity(n + pool);
    while out.len() < n {
        let mut perm: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        out.extend(perm);
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        assert_eq!(mix(7, 40, 500), mix(7, 40, 500));
        assert_ne!(mix(7, 40, 500), mix(8, 40, 500));
    }

    #[test]
    fn mix_covers_the_pool_every_cycle() {
        let m = mix(11, 13, 13 * 5 + 4);
        assert_eq!(m.len(), 69);
        for cycle in m.chunks(13).take(5) {
            let mut c = cycle.to_vec();
            c.sort_unstable();
            assert_eq!(c, (0..13).collect::<Vec<_>>());
        }
    }
}
