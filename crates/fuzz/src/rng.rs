//! The fuzzer's draws from the interpreter's xorshift64\* stream — the
//! same stream the original `tests/pipeline_fuzz.rs` used, decoupled from
//! `rand` so generated populations stay stable across dependency upgrades
//! and identical between the `cargo test` harness and the `repro_fuzz`
//! binary.

use matic_interp::Xorshift64Star;

/// A fuzz generator: uniform integers, signed floats and picks.
#[derive(Debug, Clone)]
pub struct Rng(Xorshift64Star);

impl Rng {
    /// Seeds the generator (zero is lifted to one — xorshift has a fixed
    /// point at zero).
    pub fn new(seed: u64) -> Rng {
        Rng(Xorshift64Star::new(seed))
    }

    /// Next raw 64-bit draw.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform draw in `[-1, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.0.next_f64() * 2.0 - 1.0
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[self.below(pool.len() as u64) as usize]
    }
}

/// Derives the per-case generator for `(sweep seed, case index)` via a
/// splitmix64 finalizer, so case populations are identical whether cases
/// are generated sequentially (the test harness) or fanned out over a
/// thread pool (`repro_fuzz`), and any single case can be regenerated
/// from its coordinates alone.
pub fn case_rng(seed: u64, index: u64) -> Rng {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Rng::new(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn case_rngs_are_order_independent() {
        let early = case_rng(42, 3).next();
        // Generating other cases first must not disturb case 3.
        let _ = case_rng(42, 0).next();
        let _ = case_rng(42, 7).next();
        assert_eq!(case_rng(42, 3).next(), early);
        assert_ne!(case_rng(42, 3).next(), case_rng(42, 4).next());
        assert_ne!(case_rng(42, 3).next(), case_rng(43, 3).next());
    }

    #[test]
    fn f64_stays_in_range() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let v = rng.f64();
            assert!((-1.0..1.0).contains(&v));
        }
    }
}
