//! Hierarchical deterministic seeding.
//!
//! Every stochastic component in the workspace (marketplace generator,
//! model simulators, crawler fault injection, bootstrap resampling) draws
//! randomness from a [`Seed`]. Seeds form a tree: `seed.child("users")`
//! derives a statistically independent stream for the user subsystem, and
//! `seed.child_indexed("user", i)` one per entity. The derivation is a
//! small dedicated mixer (an FNV-1a/SplitMix64 hybrid), so experiment
//! outputs are stable across platforms and crate versions — unlike
//! `rand::rngs::StdRng`, whose algorithm is documented as unstable, the
//! actual generator is a pinned `ChaCha12Rng`.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// A 64-bit node in a deterministic seed tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Seed(pub u64);

/// SplitMix64 finalizer — a full-avalanche 64-bit mixer.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seed {
    /// Builds the root of a seed tree.
    pub fn new(value: u64) -> Seed {
        Seed(value)
    }

    /// Derives a child seed for the named subsystem.
    ///
    /// Two distinct labels always produce distinct streams; the same label
    /// always produces the same stream.
    pub fn child(self, label: &str) -> Seed {
        let mut acc = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in label.as_bytes() {
            acc = (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Seed(splitmix64(acc))
    }

    /// Derives the `index`-th child seed under `label` (one per entity).
    pub fn child_indexed(self, label: &str, index: u64) -> Seed {
        self.child(label).indexed(index)
    }

    /// Derives the `index`-th child of this node:
    /// `seed.child_indexed(label, i)` is `seed.child(label).indexed(i)`,
    /// so a caller that derives many indexed children under one label
    /// can derive the label's node once.
    pub fn indexed(self, index: u64) -> Seed {
        Seed(splitmix64(self.0 ^ splitmix64(index)))
    }

    /// Instantiates the pinned random number generator for this node.
    pub fn rng(self) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn children_are_deterministic() {
        let root = Seed::new(42);
        assert_eq!(root.child("users"), root.child("users"));
        assert_eq!(root.child_indexed("user", 7), root.child_indexed("user", 7));
    }

    #[test]
    fn distinct_labels_give_distinct_seeds() {
        let root = Seed::new(42);
        assert_ne!(root.child("users"), root.child("apps"));
        assert_ne!(root.child("a"), root.child("aa"));
        assert_ne!(root.child_indexed("user", 1), root.child_indexed("user", 2));
        // label/index pairs must not collide with plain labels
        assert_ne!(root.child_indexed("user", 0), root.child("user"));
    }

    #[test]
    fn indexed_children_of_a_label_node_are_child_indexed() {
        let root = Seed::new(42);
        let route = root.child("route");
        for index in [0, 1, 7, u64::MAX] {
            assert_eq!(route.indexed(index), root.child_indexed("route", index));
        }
    }

    #[test]
    fn distinct_roots_give_distinct_streams() {
        let mut a = Seed::new(1).rng();
        let mut b = Seed::new(2).rng();
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn rng_stream_is_reproducible() {
        let mut a = Seed::new(99).child("x").rng();
        let mut b = Seed::new(99).child("x").rng();
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn splitmix_avalanches() {
        // Flipping one input bit must change roughly half the output bits.
        let a = splitmix64(0);
        let b = splitmix64(1);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "weak avalanche: {flipped}");
    }
}
