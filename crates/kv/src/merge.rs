//! The one newest-wins merge behind compaction and range scans.
//!
//! Both read their inputs first — table by table, in a fixed order the device
//! traffic depends on — into a [`RunBuffer`]: the rows stay encoded, one byte
//! buffer per table read, grouped into sorted runs. The merge then walks one
//! borrowed cursor per run (plus the memtable's range iterator for a scan) and
//! yields each key once, from the newest run holding it, without copying a key
//! or a value.

use std::ops::Range;

use crate::sstable::{EntryCursor, EntryRef};

/// Sorted runs of encoded entries, oldest run first. A run is the rows of one
/// table, or of the consecutive tables of a sorted level; each table read
/// fills a segment of its own, so no allocation outgrows a table however deep
/// the level, and a cleared buffer keeps its segments for the next use.
#[derive(Debug, Default)]
pub(crate) struct RunBuffer {
    /// The first `live` segments are in use.
    segments: Vec<Vec<u8>>,
    live: usize,
    /// The segments of each run.
    runs: Vec<Range<usize>>,
}

impl RunBuffer {
    /// Forgets every run, keeping the segments' allocations.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
        self.runs.clear();
    }

    /// Opens the next — newest so far — run.
    pub(crate) fn begin_run(&mut self) {
        self.runs.push(self.live..self.live);
    }

    /// An empty segment at the end of the open run, for one table's rows.
    pub(crate) fn segment(&mut self) -> &mut Vec<u8> {
        if self.live == self.segments.len() {
            self.segments.push(Vec::new());
        }
        self.live += 1;
        self.runs.last_mut().expect("begin_run opens a run first").end = self.live;
        let segment = &mut self.segments[self.live - 1];
        segment.clear();
        segment
    }

    /// One cursor per run, oldest first.
    pub(crate) fn cursors(&self) -> impl Iterator<Item = EntryCursor<'_>> {
        self.runs.iter().map(|run| EntryCursor::new(&self.segments[run.clone()]))
    }
}

/// One sorted input of a merge: a run of encoded table entries, or the
/// memtable's range iterator.
pub(crate) enum Run<'a, M> {
    /// Entries copied out of tables.
    Table(EntryCursor<'a>),
    /// The memtable's entries in range.
    Memtable(M),
}

impl<'a, M: Iterator<Item = EntryRef<'a>>> Iterator for Run<'a, M> {
    type Item = EntryRef<'a>;

    fn next(&mut self) -> Option<EntryRef<'a>> {
        match self {
            Run::Table(cursor) => cursor.next(),
            Run::Memtable(range) => range.next(),
        }
    }
}

/// A k-way merge of sorted runs given oldest first: yields every distinct key
/// once, in key order, with the entry of the newest run that holds it
/// (tombstones included — dropping them is the caller's decision).
pub(crate) struct NewestWins<'a, I> {
    /// Each run with its next entry not yet yielded.
    runs: Vec<(I, Option<EntryRef<'a>>)>,
}

impl<'a, I: Iterator<Item = EntryRef<'a>>> NewestWins<'a, I> {
    pub(crate) fn new(runs: impl IntoIterator<Item = I>) -> Self {
        let runs = runs
            .into_iter()
            .map(|mut run| {
                let head = run.next();
                (run, head)
            })
            .collect();
        NewestWins { runs }
    }
}

impl<'a, I: Iterator<Item = EntryRef<'a>>> Iterator for NewestWins<'a, I> {
    type Item = EntryRef<'a>;

    fn next(&mut self) -> Option<EntryRef<'a>> {
        // The smallest head key; among equal keys the last — newest — run's.
        // The number of runs is small (one per level and L0 table), so a
        // linear pass beats a heap.
        let mut winner: Option<EntryRef<'a>> = None;
        for (_, head) in &self.runs {
            if let Some(entry) = *head {
                if winner.is_none_or(|best| entry.0 <= best.0) {
                    winner = Some(entry);
                }
            }
        }
        let winner = winner?;
        for (run, head) in &mut self.runs {
            if head.is_some_and(|entry| entry.0 == winner.0) {
                *head = run.next();
            }
        }
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Rows = Vec<(&'static [u8], Option<&'static [u8]>)>;

    fn merged(runs: Vec<Rows>) -> Rows {
        NewestWins::new(runs.into_iter().map(Vec::into_iter)).collect()
    }

    #[test]
    fn the_newest_run_wins_ties_and_tombstones_survive() {
        let oldest: Rows = vec![(b"a", Some(b"1")), (b"c", Some(b"1")), (b"d", Some(b"1"))];
        let middle: Rows = vec![(b"b", Some(b"2")), (b"c", None)];
        let newest: Rows = vec![(b"a", Some(b"3")), (b"e", None)];
        assert_eq!(
            merged(vec![oldest, middle, newest]),
            vec![
                (&b"a"[..], Some(&b"3"[..])),
                (b"b", Some(b"2")),
                (b"c", None),
                (b"d", Some(b"1")),
                (b"e", None),
            ]
        );
        assert!(merged(vec![]).is_empty());
        assert!(merged(vec![vec![], vec![]]).is_empty());
    }

    #[test]
    fn run_buffer_groups_segments_into_runs_and_reuses_them() {
        let mut buffer = RunBuffer::default();
        buffer.begin_run();
        buffer.segment().push(1);
        buffer.segment().push(2);
        buffer.begin_run();
        buffer.begin_run();
        buffer.segment().push(3);
        assert_eq!(buffer.runs, vec![0..2, 2..2, 2..3]);
        assert_eq!(buffer.cursors().count(), 3);
        buffer.clear();
        assert_eq!(buffer.cursors().count(), 0);
        buffer.begin_run();
        assert!(buffer.segment().is_empty(), "a reused segment starts empty");
        assert_eq!(buffer.segments.len(), 3, "segments are kept across clears");
    }
}
