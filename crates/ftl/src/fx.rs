//! A fast, deterministic hasher for LPN-keyed tables.
//!
//! The alternative first-stage classifiers' frequency tables sit on the
//! per-request hot path and key their maps by [`Lpn`](crate::Lpn) — small
//! integers with plenty of entropy in the low bits. The standard library's
//! SipHash is DoS-resistant but costs more than the table operation it guards.
//! This multiply-fold hasher (the FxHash construction used by rustc) is an
//! order of magnitude cheaper and — unlike `RandomState` — has no per-instance
//! seed, so replays stay deterministic by construction. (The PPB hotness state
//! — `LruList`, `ColdArea` — does not hash at all: it is indexed by LPN.)
//!
//! Nothing in the simulator iterates these maps in storage order, so the hash
//! function cannot leak into simulated behaviour; it only changes wall-clock
//! speed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative folding constant (2^64 / golden ratio, forced odd).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The FxHash word-folding hasher: `hash = (rotl5(hash) ^ word) * SEED`.
///
/// Not DoS-resistant — use only for keys the workload itself cannot choose
/// adversarially (LPNs derived from trace offsets are fine).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// Seedless `BuildHasher` for [`FxHasher`]; equal keys hash equally across
/// every map instance and process run.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equally_across_instances() {
        assert_eq!(hash_of(&crate::Lpn(42)), hash_of(&crate::Lpn(42)));
        assert_ne!(hash_of(&crate::Lpn(42)), hash_of(&crate::Lpn(43)));
    }

    #[test]
    fn sequential_keys_spread_across_the_table() {
        // The multiply must push entropy into the high bits hashbrown uses
        // for bucket selection.
        let buckets: FxHashSet<u64> = (0u64..256).map(|n| hash_of(&n) >> 57).collect();
        assert!(buckets.len() > 64, "only {} distinct high-7-bit values", buckets.len());
    }

    #[test]
    fn byte_stream_and_word_writes_are_supported() {
        let mut a = FxHasher::default();
        a.write(b"0123456789abcdef");
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes(*b"01234567"));
        b.write_u64(u64::from_le_bytes(*b"89abcdef"));
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"012");
        assert_ne!(c.finish(), 0);
    }

    #[test]
    fn map_operations_behave_like_std() {
        let mut map: FxHashMap<u64, u32> = FxHashMap::default();
        for n in 0..1_000u64 {
            map.insert(n, n as u32);
        }
        assert_eq!(map.len(), 1_000);
        for n in 0..1_000u64 {
            assert_eq!(map.get(&n), Some(&(n as u32)));
        }
        for n in (0..1_000u64).step_by(2) {
            assert_eq!(map.remove(&n), Some(n as u32));
        }
        assert_eq!(map.len(), 500);
    }
}
