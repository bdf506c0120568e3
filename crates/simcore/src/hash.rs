//! Hash maps and sets whose layout is the same in every process.
//!
//! std's `HashMap` seeds SipHash per process, so where its entries land,
//! when it grows and what order it iterates in change from run to run.
//! Nothing simulated may read the iteration order, but the allocation
//! count and peak heap follow the layout, so counters built on them drift
//! between two runs of one binary. [`IdMap`] and [`IdSet`] hash with
//! [`IdHasher`] instead: a multiply-and-rotate over the key's words,
//! seeded with nothing.
//!
//! The keys on simulated paths are dense counters (workload, stream,
//! transfer, link and node ids) and short tuples or vectors of them. For
//! those one multiply mixes enough: the product's low bits, which pick
//! the bucket, differ between nearby ids, and its high bits, which fill
//! hashbrown's control byte, are well mixed.
//!
//! [`fnv1a`] is the other hash here: the 64-bit FNV-1a fold behind every
//! digest the simulator pins (run digests, event-log digests, RNG stream
//! splits and the tests' byte pins).

// The one place the simulated paths' maps come from std.
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of Fibonacci hashing: 2^64 divided by the golden ratio,
/// made odd.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A deterministic word-at-a-time hasher for integer-like keys.
///
/// A single `u64` key hashes to `key × K`; each further word is folded in
/// as `(state.rotate_left(5) ^ word) × K`. Byte slices are read eight
/// bytes at a time, little-endian, with the tail zero-padded.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
            self.write_u64(word);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`IdMap`] and [`IdSet`].
pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` hashed with [`IdHasher`]: the same layout in every process.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` hashed with [`IdHasher`]: the same layout in every process.
#[allow(clippy::disallowed_types)]
pub type IdSet<T> = HashSet<T, IdBuildHasher>;

/// The FNV-1a offset basis: the state a fresh [`fnv1a`] digest starts at.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`, continuing from `state` (start at
/// [`FNV_OFFSET`]). Words fold as their little-endian bytes.
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn one_word_key_is_one_multiply() {
        assert_eq!(hash_of(&7u64), 7u64.wrapping_mul(K));
        assert_eq!(hash_of(&7u32), hash_of(&7u64), "widths agree");
    }

    #[test]
    fn hashes_do_not_depend_on_the_process() {
        // Fixed values: a change here changes every map's layout.
        assert_eq!(hash_of(&(1u32, 2u32)), 0x6a34_b9ab_3cfd_7485);
        assert_eq!(hash_of(&vec![3u32, 4, 5]), hash_of(&vec![3u32, 4, 5]));
        assert_ne!(hash_of(&vec![3u32, 4, 5]), hash_of(&vec![3u32, 5, 4]));
    }

    #[test]
    fn maps_and_sets_work_as_std_ones() {
        let mut m: IdMap<u64, &str> = IdMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&2), Some(&"b"));
        assert_eq!(m.remove(&1), Some("a"));
        let s: IdSet<(u32, u32)> = [(1, 2), (3, 4)].into_iter().collect();
        assert!(s.contains(&(3, 4)));
    }
}
