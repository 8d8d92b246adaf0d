//! The one hasher for this crate's maps keyed by app ids, user ids and
//! access frequencies.
//!
//! Every such key comes from a trace or the catalogue, never from a
//! client, so hash flooding cannot reach these maps and the keyed SipHash
//! of `std` (about 15 ns a lookup) buys nothing here. A multiply by an
//! odd constant spreads the integer over the high bits, and `finish`
//! rotates those bits down to where the table takes its bucket index.
//! No output depends on map iteration order: `std`'s own hasher is keyed
//! at random per process, so no caller could have relied on one.
//! Maps keyed by anything a client sends keep SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

/// An odd constant with well-mixed bits (the 64-bit golden ratio).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(MIX);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over integer keys drawn from traces and the catalogue.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(key: impl Hash) -> u64 {
        let mut hasher = IdHasher::default();
        key.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn distinct_small_keys_hash_apart_in_the_low_bits() {
        // The table indexes buckets by the low bits: dense ids and ids
        // sharing their low bits must still land in distinct buckets.
        for stride in [1u32, 64, 1 << 12] {
            let mut buckets: Vec<u64> =
                (0..1_024u32).map(|i| hash_of(i * stride) & 0xfff).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(
                buckets.len() > 600,
                "stride {stride}: {} distinct buckets",
                buckets.len()
            );
        }
    }
}
