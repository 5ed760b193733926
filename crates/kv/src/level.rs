//! A level below L0: one sorted run of tables with disjoint key ranges.
//!
//! Because the tables are sorted and disjoint, at most one of them can hold a
//! given key and the ones a range overlaps are consecutive, so a lookup does
//! not walk the level: it binary-searches the tables' max keys — their
//! *fences*, kept as integer prefixes in one contiguous array — for the first
//! table that reaches the key. L0, whose tables overlap, is not a
//! [`SortedRun`]; the store keeps it as a plain newest-first list and probes
//! every table of it.

use crate::key::{key_prefix, partition_by_prefix, KeyRef};
use crate::sstable::TableHandle;

/// The tables of one level ≥ 1, in key order, and their fences.
#[derive(Debug, Default)]
pub(crate) struct SortedRun {
    tables: Vec<TableHandle>,
    /// `key_prefix` of each table's max key, in table order.
    fences: Vec<u64>,
}

impl SortedRun {
    /// A run over `tables`, which must be sorted and disjoint (a compaction's
    /// output, or a level read back from the manifest).
    pub(crate) fn new(tables: Vec<TableHandle>) -> Self {
        let fences = tables
            .iter()
            .map(|table| table.max_key().prefix())
            .collect();
        let run = SortedRun { tables, fences };
        debug_assert_eq!(run.check_invariants(), Ok(()));
        run
    }

    /// The tables, in key order.
    pub(crate) fn tables(&self) -> &[TableHandle] {
        &self.tables
    }

    /// Dissolves the run into its tables.
    pub(crate) fn into_tables(self) -> Vec<TableHandle> {
        self.tables
    }

    /// True for a level holding no table.
    pub(crate) fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// How many leading tables end before `key` (max key < `key`): the index
    /// of the first table that reaches it.
    fn tables_before(&self, key: KeyRef<'_>) -> usize {
        partition_by_prefix(&self.fences, key.prefix(), |table| {
            self.tables[table].max_key() < key
        })
    }

    /// The one table whose key range can contain `key`: the first whose max
    /// key is at or past it (its min key may still lie past `key` — the
    /// table's own bounds check says so).
    pub(crate) fn candidate(&self, key: KeyRef<'_>) -> Option<&TableHandle> {
        self.tables.get(self.tables_before(key))
    }

    /// The tables whose key range overlaps `[lo, hi)`, in key order.
    pub(crate) fn overlapping(&self, lo: KeyRef<'_>, hi: KeyRef<'_>) -> &[TableHandle] {
        let from = self.tables_before(lo);
        // Every table that ends before `hi` starts before it; the first that
        // reaches `hi` overlaps only if it starts before `hi`; none after does.
        let mut to = self.tables_before(hi);
        if self
            .tables
            .get(to)
            .is_some_and(|table| table.min_key() < hi)
        {
            to += 1;
        }
        &self.tables[from..to.max(from)]
    }

    /// Checks that the tables are strictly sorted and disjoint and that each
    /// fence is its table's max-key prefix.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        if self.fences.len() != self.tables.len() {
            return Err(format!(
                "{} fences for {} tables",
                self.fences.len(),
                self.tables.len()
            ));
        }
        for (table, &fence) in self.tables.iter().zip(&self.fences) {
            if fence != key_prefix(&table.meta.max_key) {
                return Err(format!(
                    "the fence of table {} is not its max-key prefix",
                    table.meta.id
                ));
            }
            if table.meta.min_key > table.meta.max_key {
                return Err(format!(
                    "table {} has its key bounds reversed",
                    table.meta.id
                ));
            }
        }
        for pair in self.tables.windows(2) {
            if pair[0].meta.max_key >= pair[1].meta.min_key {
                return Err(format!(
                    "tables {} and {} of a sorted level overlap or are out of order",
                    pair[0].meta.id, pair[1].meta.id
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash_file::FlashStore;
    use crate::key::tricky_keys;
    use crate::sstable::TableOptions;
    use vflash_ftl::{ConventionalFtl, FtlConfig};
    use vflash_nand::{NandConfig, NandDevice};

    #[test]
    fn candidate_and_overlap_are_the_linear_filters() {
        let device = NandDevice::new(NandConfig::small());
        let mut store =
            FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).unwrap());
        // Tables over keys 0-1, 3-4, 6-7, ... leave every third key in a gap
        // between two tables; every fourth table holds a single key.
        let keys = tricky_keys();
        let tables: Vec<TableHandle> = keys
            .chunks(3)
            .enumerate()
            .map(|(id, chunk)| {
                let width = if id % 4 == 3 { 1 } else { chunk.len().min(2) };
                let entries: Vec<_> = chunk[..width]
                    .iter()
                    .map(|key| (key.clone(), Some(vec![7u8])))
                    .collect();
                TableHandle::build(&mut store, id as u64, &entries, TableOptions::default())
                    .unwrap()
            })
            .collect();
        let run = SortedRun::new(tables);
        assert_eq!(run.check_invariants(), Ok(()));
        assert!(run.tables().len() >= 10);
        let ids = |tables: &[&TableHandle]| tables.iter().map(|t| t.meta.id).collect::<Vec<_>>();

        // Every key, the key just past it and the key just before its last byte.
        let probes: Vec<Vec<u8>> = keys
            .iter()
            .flat_map(|key| {
                let past = [key.as_slice(), &[0]].concat();
                let short = key[..key.len().saturating_sub(1)].to_vec();
                [key.clone(), past, short]
            })
            .collect();
        for probe in &probes {
            let expected = run
                .tables()
                .iter()
                .find(|table| table.meta.max_key >= *probe);
            let located = run.candidate(KeyRef::new(probe));
            assert_eq!(
                ids(&located.into_iter().collect::<Vec<_>>()),
                ids(&Vec::from_iter(expected))
            );
        }
        for lo in &probes {
            for hi in &probes {
                let expected: Vec<&TableHandle> = run
                    .tables()
                    .iter()
                    .filter(|table| table.meta.max_key >= *lo && table.meta.min_key < *hi)
                    .collect();
                let located = run.overlapping(KeyRef::new(lo), KeyRef::new(hi));
                if lo < hi {
                    assert_eq!(
                        ids(&located.iter().collect::<Vec<_>>()),
                        ids(&expected),
                        "{lo:?}..{hi:?}"
                    );
                } else {
                    assert!(
                        located.len() <= 1,
                        "a reversed range stays in bounds: {lo:?}..{hi:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_invariant_check_names_disorder_and_stale_fences() {
        let device = NandDevice::new(NandConfig::small());
        let mut store =
            FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).unwrap());
        let mut table = |id: u64, keys: [&[u8]; 2]| {
            let entries: Vec<_> = keys.iter().map(|key| (key.to_vec(), None)).collect();
            TableHandle::build(&mut store, id, &entries, TableOptions::default()).unwrap()
        };
        let (low, high, touching) = (
            table(1, [b"a", b"c"]),
            table(2, [b"d", b"f"]),
            table(3, [b"c", b"e"]),
        );
        let sorted = SortedRun {
            tables: vec![low.clone(), high.clone()],
            fences: vec![],
        };
        assert!(sorted
            .check_invariants()
            .unwrap_err()
            .contains("0 fences for 2 tables"));
        let fences =
            |tables: &[TableHandle]| tables.iter().map(|t| key_prefix(&t.meta.max_key)).collect();
        let swapped = vec![high.clone(), low.clone()];
        let swapped = SortedRun {
            fences: fences(&swapped),
            tables: swapped,
        };
        assert!(swapped
            .check_invariants()
            .unwrap_err()
            .contains("tables 2 and 1"));
        let overlapping = vec![low.clone(), touching];
        let overlapping = SortedRun {
            fences: fences(&overlapping),
            tables: overlapping,
        };
        assert!(overlapping
            .check_invariants()
            .unwrap_err()
            .contains("tables 1 and 3"));
        let stale = SortedRun {
            tables: vec![low, high],
            fences: vec![0, 0],
        };
        assert!(stale
            .check_invariants()
            .unwrap_err()
            .contains("fence of table 1"));
    }
}
