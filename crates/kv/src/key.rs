//! Keys compared as integers first.
//!
//! [`key_prefix`] packs a key's first eight bytes, big-endian and zero-padded,
//! into a `u64` that orders the way the keys do wherever it can tell them
//! apart: `key_prefix(a) < key_prefix(b)` implies `a < b`. Equal prefixes say
//! nothing — `"ab"` and `"ab\0"` share one, as do any two keys that agree on
//! their first eight bytes — so every comparison falls back to the full keys
//! on a tie. The sorted key lists of the read path (a level's fences, a
//! table's sparse index) keep their prefixes in one contiguous `Vec<u64>`, so
//! a search touches the keys themselves only inside the run of tied prefixes.

use std::cmp::Ordering;

/// The first eight bytes of `key` as a big-endian integer, zero-padded.
pub(crate) fn key_prefix(key: &[u8]) -> u64 {
    match key.first_chunk::<8>() {
        Some(head) => u64::from_be_bytes(*head),
        None => {
            let mut head = [0u8; 8];
            head[..key.len()].copy_from_slice(key);
            u64::from_be_bytes(head)
        }
    }
}

/// A borrowed key with its prefix worked out once, ordered exactly like the
/// key bytes alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyRef<'a> {
    prefix: u64,
    bytes: &'a [u8],
}

impl<'a> KeyRef<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        KeyRef {
            prefix: key_prefix(bytes),
            bytes,
        }
    }

    /// A key whose prefix the caller keeps beside it; `prefix` must be
    /// `key_prefix(bytes)`.
    pub(crate) fn with_prefix(prefix: u64, bytes: &'a [u8]) -> Self {
        debug_assert_eq!(prefix, key_prefix(bytes));
        KeyRef { prefix, bytes }
    }

    pub(crate) fn prefix(self) -> u64 {
        self.prefix
    }

    pub(crate) fn bytes(self) -> &'a [u8] {
        self.bytes
    }
}

impl Ord for KeyRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prefix
            .cmp(&other.prefix)
            .then_with(|| self.bytes.cmp(other.bytes))
    }
}

impl PartialOrd for KeyRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The partition point of a sorted key list — how many leading entries satisfy
/// `before`, which must be `entry < probe` or `entry <= probe` for one probe
/// key — found through the entries' `prefixes` and the probe's: an entry with
/// a smaller prefix is before the probe, one with a larger prefix is not, and
/// `before(i)` is asked only inside the run of entries that tie with it.
pub(crate) fn partition_by_prefix(
    prefixes: &[u64],
    probe: u64,
    before: impl Fn(usize) -> bool,
) -> usize {
    let below = prefixes.partition_point(|&prefix| prefix < probe);
    let tied = prefixes[below..].partition_point(|&prefix| prefix == probe);
    let (mut from, mut to) = (below, below + tied);
    while from < to {
        let middle = from + (to - from) / 2;
        if before(middle) {
            from = middle + 1;
        } else {
            to = middle;
        }
    }
    from
}

/// The key set the tests of the prefix searches share, sorted: the empty key,
/// keys shorter than eight bytes, keys that are prefixes of one another and
/// differ only in zero padding (`"ab"`, `"ab\0"`), and two families that share
/// their first eight bytes.
#[cfg(test)]
pub(crate) fn tricky_keys() -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = vec![vec![], vec![0], vec![0, 0], vec![0xFF; 9]];
    for short in [
        "a", "ab", "ab\0", "ab\0\0", "abc", "b", "k1", "k10", "k2", "zzzzzzz",
    ] {
        keys.push(short.as_bytes().to_vec());
    }
    for tail in [
        "", "\0", "\0\0", "-", "-a", "-ab", "-b", "0", "00", "z", "zz", "~",
    ] {
        keys.push(format!("shared00{tail}").into_bytes());
        keys.push(format!("shared01{tail}").into_bytes());
    }
    keys.sort();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Short keys over a two-letter alphabet with NULs: prefixes of one
    /// another, shared eight-byte heads and the empty key all come up often.
    fn tricky_key() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![Just(0u8), Just(b'a'), Just(b'b'), Just(0xFF)],
            0..12,
        )
    }

    #[test]
    fn padding_ties_fall_back_to_the_full_keys() {
        assert_eq!(key_prefix(b""), 0);
        assert_eq!(key_prefix(b"ab"), key_prefix(b"ab\0"));
        assert!(KeyRef::new(b"ab") < KeyRef::new(b"ab\0"));
        assert_eq!(key_prefix(b"12345678"), key_prefix(b"12345678-tail"));
        assert!(KeyRef::new(b"12345678") < KeyRef::new(b"12345678-tail"));
        assert!(KeyRef::new(b"12345678z") > KeyRef::new(b"12345678-tail"));
        assert_eq!(key_prefix(&7u64.to_be_bytes()), 7);
    }

    proptest! {
        #[test]
        fn a_smaller_prefix_means_a_smaller_key(a in tricky_key(), b in tricky_key()) {
            if key_prefix(&a) < key_prefix(&b) {
                prop_assert!(a < b);
            }
            prop_assert_eq!(KeyRef::new(&a).cmp(&KeyRef::new(&b)), a.cmp(&b));
        }

        #[test]
        fn the_partition_point_is_the_full_key_one(
            keys in proptest::collection::vec(tricky_key(), 0..40),
            probe in tricky_key(),
        ) {
            let keys: Vec<Vec<u8>> = keys.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
            let prefixes: Vec<u64> = keys.iter().map(|key| key_prefix(key)).collect();
            let below = partition_by_prefix(&prefixes, key_prefix(&probe), |i| keys[i] < probe);
            prop_assert_eq!(below, keys.partition_point(|key| *key < probe));
            let through = partition_by_prefix(&prefixes, key_prefix(&probe), |i| keys[i] <= probe);
            prop_assert_eq!(through, keys.partition_point(|key| *key <= probe));
        }
    }
}
