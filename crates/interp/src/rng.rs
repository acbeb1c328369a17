//! The workspace's one pseudo-random stream: xorshift64\*, deterministic
//! and free of dependencies, so every stream it drives stays bit-identical
//! across builds. The interpreter's `rand`/`randn`, the benchmark
//! stimulus, the fuzz populations and synthesized signature inputs each
//! seed it and map its draws in their own way.

/// A 64-bit xorshift\* generator.
#[derive(Debug, Clone)]
pub struct Xorshift64Star(u64);

impl Xorshift64Star {
    /// Seeds the generator; zero, xorshift's fixed point, is lifted to one.
    pub fn new(seed: u64) -> Xorshift64Star {
        Xorshift64Star(seed.max(1))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw in `[0, 1)`: the top 53 bits of the next draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_pinned() {
        let mut r = Xorshift64Star::new(0);
        assert_eq!(r.next_u64(), 5_180_492_295_206_395_165);
        let mut a = Xorshift64Star::new(7);
        let mut b = Xorshift64Star::new(7);
        for _ in 0..100 {
            let v = a.next_f64();
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v.to_bits(), b.next_f64().to_bits());
        }
    }
}
