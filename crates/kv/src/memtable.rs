//! The in-memory write buffer: a sorted map with byte-size accounting.

use std::collections::BTreeMap;
use std::ops::Bound;

/// Fixed per-entry bookkeeping charge added to the key/value bytes when sizing
/// the memtable (node overhead stand-in, and what makes empty values count).
const ENTRY_OVERHEAD: usize = 16;

/// A sorted in-memory buffer of the most recent writes.
///
/// Values are `Option<Vec<u8>>`: `None` is a tombstone (a pending delete that
/// must shadow older SSTable entries until compaction drops it at the bottom
/// level). The memtable tracks an approximate byte size so the store can flush
/// it once it crosses the configured threshold.
#[derive(Debug, Default)]
pub struct Memtable {
    entries: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    bytes: usize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Number of distinct keys buffered (tombstones included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate buffered bytes (keys + values + per-entry overhead).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Inserts a put (`Some(value)`) or a tombstone (`None`), replacing any
    /// previous entry for the key. A replaced key keeps its one-time key/overhead
    /// charge; only the value contribution is swapped.
    pub fn insert(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        let key_len = key.len();
        let value_len = value.as_ref().map_or(0, Vec::len);
        match self.entries.insert(key, value) {
            Some(previous) => {
                self.bytes -= previous.as_ref().map_or(0, Vec::len);
                self.bytes += value_len;
            }
            None => self.bytes += ENTRY_OVERHEAD + key_len + value_len,
        }
    }

    /// Looks up the freshest buffered entry: `Some(Some(value))` for a put,
    /// `Some(None)` for a tombstone, `None` when the key is not buffered.
    pub fn get(&self, key: &[u8]) -> Option<&Option<Vec<u8>>> {
        self.entries.get(key)
    }

    /// Iterates entries with keys in `[lo, hi)` in sorted order; a reversed
    /// range (`lo > hi`) is empty like `lo == hi`.
    pub fn range<'a>(
        &'a self,
        lo: &[u8],
        hi: &[u8],
    ) -> impl Iterator<Item = (&'a Vec<u8>, &'a Option<Vec<u8>>)> {
        // `BTreeMap::range` panics when its start lies past its end.
        let hi = hi.max(lo);
        self.entries
            .range::<[u8], _>((Bound::Included(lo), Bound::Excluded(hi)))
    }

    /// Every entry in sorted order (the flush path streams them into a table
    /// builder; the memtable keeps them until the table exists).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &Option<Vec<u8>>)> {
        self.entries.iter()
    }

    /// Empties the memtable.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_overwrite_and_track_bytes() {
        let mut memtable = Memtable::new();
        memtable.insert(b"k1".to_vec(), Some(b"aaaa".to_vec()));
        let first = memtable.bytes();
        assert_eq!(first, ENTRY_OVERHEAD + 2 + 4);
        memtable.insert(b"k1".to_vec(), Some(b"bb".to_vec()));
        assert_eq!(memtable.len(), 1);
        assert_eq!(memtable.bytes(), ENTRY_OVERHEAD + 2 + 2);
        memtable.insert(b"k1".to_vec(), None);
        assert_eq!(memtable.get(b"k1"), Some(&None), "tombstone shadows the put");
        assert_eq!(memtable.bytes(), ENTRY_OVERHEAD + 2);
    }

    #[test]
    fn iter_is_sorted_and_clear_empties() {
        let mut memtable = Memtable::new();
        memtable.insert(b"b".to_vec(), Some(b"2".to_vec()));
        memtable.insert(b"a".to_vec(), Some(b"1".to_vec()));
        memtable.insert(b"c".to_vec(), None);
        let sorted: Vec<_> = memtable.iter().map(|(key, value)| (key.clone(), value.clone())).collect();
        assert_eq!(
            sorted,
            vec![
                (b"a".to_vec(), Some(b"1".to_vec())),
                (b"b".to_vec(), Some(b"2".to_vec())),
                (b"c".to_vec(), None),
            ]
        );
        assert_eq!(memtable.len(), 3, "iterating leaves the entries in place");
        memtable.clear();
        assert!(memtable.is_empty());
        assert_eq!(memtable.bytes(), 0);
    }

    #[test]
    fn range_respects_bounds() {
        let mut memtable = Memtable::new();
        for key in [b"a", b"b", b"c", b"d"] {
            memtable.insert(key.to_vec(), Some(vec![1]));
        }
        let keys: Vec<&[u8]> = memtable.range(b"b", b"d").map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"b" as &[u8], b"c"]);
        assert_eq!(memtable.range(b"c", b"c").count(), 0, "an empty range");
        assert_eq!(memtable.range(b"d", b"b").count(), 0, "a reversed range");
    }
}
