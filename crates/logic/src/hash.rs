//! The hasher of the analysis path's id-keyed tables.
//!
//! Chart parsing, over-generation and winnowing probe hash tables keyed by
//! arena nodes and ids millions of times per corpus.  std's default
//! SipHash is built to resist keys chosen by an adversary, which none of
//! these keys can be, at a cost per probe well above a multiply-rotate
//! hash of the few machine words each key holds.
//! [`IdMap`] and [`IdSet`] are std's tables over [`IdHasher`]; tables whose
//! keys are text from outside the program (the [`crate::Interner`]'s map,
//! the lexicon's entries, the term dictionary) keep std's hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate (Fx-style) [`Hasher`] for keys the program assigns.
///
/// Every key hashed with it is a node or id an arena assigns: a `u32` id,
/// a symbol, a predicate name from the lexicon's own vocabulary, or a node
/// built of those.  The only part that comes from a document's text is a
/// number leaf's value, which at worst makes some numbers share a bucket.
/// A collision costs time, never a wrong answer: the table still compares
/// keys for equality.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

/// The odd multiplier of rustc's `FxHasher`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`HashMap`] keyed by arena nodes or ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A [`HashSet`] of arena nodes or ids, hashed with [`IdHasher`].
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_are_deterministic_and_tell_small_ids_apart() {
        assert_eq!(hash_of(7u32), hash_of(7u32));
        let hashes: IdSet<u64> = (0u32..4096).map(hash_of).collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        // A tail shorter than a word is padded into one, so a change in it
        // must still move the hash.
        assert_ne!(hash_of([1u8, 2, 3]), hash_of([1u8, 2, 4]));
        assert_ne!(
            hash_of(*b"123456789"),
            hash_of(*b"123456780"),
            "the ninth byte lands in a second word"
        );
    }
}
