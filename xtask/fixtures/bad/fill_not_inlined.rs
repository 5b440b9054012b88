//! Fixture: the seeded fill's generator step lost its `#[inline(always)]`.

struct Streams([[u64; 16]; 4]);

/// The unit value of a word, correctly attributed.
#[inline(always)]
fn unit(w: u64) -> f64 {
    f64::from_bits(0x3ff0_0000_0000_0000 | w >> 12) - 1.0
}

impl Streams {
    /// One step of every stream: `#[inline]` is a hint, and a call per
    /// step from the fill's sandwich is what it became.
    #[inline]
    fn step(&mut self) -> [u64; 16] {
        let [_, s1, _, _] = &mut self.0;
        let mut out = [0; 16];
        for l in 0..16 {
            out[l] = s1[l].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        }
        out
    }
}
