//! The one content hasher of the workspace.
//!
//! Content-addressed tables — the polynomial interner, polynomial ids, the
//! memo-cache's shards and the generalized-tuple sets — key on hashes of
//! exact values that the program built itself, never on text from outside.
//! They need a hash that is cheap per word and the same on every thread,
//! run and host, not one that resists keys crafted to collide: every probe
//! confirms a hit by structural equality, so a collision costs a compare
//! and never a wrong answer.
//!
//! [`ContentHasher`] combines each 64-bit word FxHash-style,
//! `h = (rotl(h, 5) ^ w) · K`, and finishes with murmur3's `fmix64`, so the
//! low bits (which pick a shard or a bucket) depend on every input bit.
//! There is no key and no random state.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiplier (the odd 64-bit constant of rustc's `FxHasher`).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fixed-key word hasher for content-addressed tables (see the module
/// docs). Deterministic across threads, runs and hosts.
#[derive(Clone, Copy, Default, Debug)]
pub struct ContentHasher {
    h: u64,
}

/// `BuildHasher` for `HashMap`s keyed by program-built content.
pub type BuildContentHasher = BuildHasherDefault<ContentHasher>;

impl ContentHasher {
    fn word(&mut self, w: u64) {
        self.h = (self.h.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

/// murmur3's 64-bit finaliser: a bijection that spreads every input bit
/// over the whole word.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

impl Hasher for ContentHasher {
    fn finish(&self) -> u64 {
        fmix64(self.h)
    }

    /// Bytes in native-endian words of eight, the last one zero-padded, so
    /// an integer slice (which `Hash` writes as its raw bytes) hashes as its
    /// own words on every host. Slices and strings write their length (or a
    /// terminator) themselves, so the padding is unambiguous.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word.iter_mut().zip(chunk).for_each(|(w, &b)| *w = b);
            self.word(u64::from_ne_bytes(word));
        }
    }

    // The signed `write_i*` defaults delegate to these, one word each.
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildContentHasher::default().hash_one(t)
    }

    /// Pinned values: the hash is a pure function of its input, with no
    /// per-process key.
    #[test]
    fn values_are_pinned() {
        assert_eq!(ContentHasher::default().finish(), 0);
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), fmix64(K));
        assert_eq!(
            hash_of(&(1u64, 2u64)),
            fmix64((K.rotate_left(5) ^ 2).wrapping_mul(K))
        );
    }

    /// A `u64` slice hashes as its words, and a short tail as one padded
    /// word.
    #[test]
    fn slices_hash_as_words() {
        let mut a = ContentHasher::default();
        let (x, y) = (0x0807_0605_0403_0201u64, 9u64);
        a.write(&[x.to_ne_bytes(), y.to_ne_bytes()].concat());
        let mut b = ContentHasher::default();
        b.write_u64(x);
        b.write_u64(y);
        assert_eq!(a.finish(), b.finish());
        let mut c = ContentHasher::default();
        c.write(&[9]);
        let mut d = ContentHasher::default();
        d.write_u64(u64::from_ne_bytes([9, 0, 0, 0, 0, 0, 0, 0]));
        assert_eq!(c.finish(), d.finish());
    }

    /// No two of a structured corpus of integers collide: every `Int` in
    /// `−2¹⁶..2¹⁶`, and four-limb values that differ in one limb.
    #[test]
    fn integer_corpus_has_no_collisions() {
        use crate::Int;
        let mut seen = std::collections::BTreeSet::new();
        for v in -(1i64 << 16)..(1i64 << 16) {
            assert!(seen.insert(hash_of(&Int::from(v))), "collision at {v}");
        }
        let limb = |j: u64, w: u64| &Int::from(w) << (64 * j);
        let base = [7u64, 1 << 40, u64::MAX, 3];
        let build = |limbs: &[u64; 4]| {
            (0..4u64).fold(Int::zero(), |acc, j| &acc + &limb(j, limbs[j as usize]))
        };
        let mut multi = 0usize;
        for j in 0..4 {
            for w in (0u64..512).chain([u64::MAX - 1, 1 << 63]) {
                let mut limbs = base;
                limbs[j] = w;
                if limbs == base && j > 0 {
                    continue;
                }
                for v in [build(&limbs), -build(&limbs)] {
                    assert!(seen.insert(hash_of(&v)), "collision at limb {j} = {w}");
                    multi += 1;
                }
            }
        }
        assert!(multi > 4000);
    }

    /// Word order matters, and the finaliser moves the low bits.
    #[test]
    fn order_and_low_bits() {
        assert_ne!(hash_of(&(1u64, 2u64)), hash_of(&(2u64, 1u64)));
        let shards: std::collections::BTreeSet<u64> =
            (0u64..64).map(|i| hash_of(&(i << 32)) & 15).collect();
        assert_eq!(shards.len(), 16, "high-bit-only inputs reach every shard");
    }
}
