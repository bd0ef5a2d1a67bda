//! A minimal multiplicative hasher for the crate's internal maps.
//!
//! The arena's free lists key on tiny fixed keys — `(rows, cols)` shape
//! pairs for tensors, element counts for packing scratch — and are
//! probed on every tensor acquire/release, tens of thousands of times
//! per training iteration. `std`'s default SipHash is DoS-resistant but ~10× slower
//! than needed for keys that never come from untrusted input; this
//! hasher is one multiply and one xor-shift per word, in the spirit of
//! the multiplicative hashers common in compiler workloads.

use std::hash::{BuildHasherDefault, Hasher};

/// One-multiply-per-word hasher for small trusted keys.
#[derive(Default)]
pub(crate) struct FastHasher(u64);

/// `BuildHasher` plugging [`FastHasher`] into `HashMap`.
pub(crate) type FastBuild = BuildHasherDefault<FastHasher>;

const MUL: u64 = 0xd6e8_feb8_6659_fd93;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low-entropy keys spread over the table bits.
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(MUL);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(MUL);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn distinct_keys_round_trip() {
        let mut m: HashMap<(usize, usize), u32, FastBuild> = HashMap::default();
        for r in 0..50 {
            for c in 0..50 {
                m.insert((r, c), (r * 100 + c) as u32);
            }
        }
        assert_eq!(m.len(), 2500);
        assert_eq!(m[&(13, 37)], 1337);
    }

    #[test]
    fn shape_keys_spread() {
        // Typical keys are small round shapes; the avalanche must keep
        // them from colliding into a handful of buckets.
        let hashes: std::collections::HashSet<u64> = (1..64usize)
            .flat_map(|r| (1..64usize).map(move |c| (r, c)))
            .map(|(r, c)| {
                let mut h = FastHasher::default();
                h.write_usize(r);
                h.write_usize(c);
                h.finish()
            })
            .collect();
        assert_eq!(hashes.len(), 63 * 63);
    }
}
