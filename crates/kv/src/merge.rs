//! The one newest-wins merge behind compaction and range scans, and the runs
//! it walks.
//!
//! Both read their inputs first — table by table, in a fixed order the device
//! traffic depends on — into a [`RunSpans`]: every read is charged and then
//! *left where it lies*. A run is a list of [`Span`]s, byte ranges of the
//! [`FlashStore`]'s shadow arena, or of the runs' own spill buffer for the
//! reads that crossed an extent boundary of their file and had to be gathered.
//! Spans are offsets, not borrows, so a compaction can keep every input lent
//! while it writes its outputs through the same store: [`NewestWins::next`]
//! borrows the bytes ([`Lent`]) only for the length of one step and answers
//! with an [`EntryAt`], which the caller resolves into key and value slices
//! when — between two table writes — it wants them.
//!
//! The merge walks one cursor per run and yields each key once, from the
//! newest run holding it. Every entry is decoded, and thereby checked, exactly
//! once, when it becomes its run's head; the head keeps the key's integer
//! prefix (`key.rs`), so picking the smallest head compares integers and
//! touches key bytes only where prefixes tie. A damaged entry surfaces as
//! [`KvError::Corruption`] from the step that reaches it.

use std::cmp::Ordering;
use std::ops::Range;

use vflash_ftl::FlashTranslationLayer;

use crate::error::KvError;
use crate::flash_file::{FlashStore, Lent, SegmentFile, Span};
use crate::key::key_prefix;
use crate::sstable::{decode_entry, EntryRef, ENTRY_HEADER_BYTES};

/// Sorted runs of encoded entries, oldest run first, as the places their
/// bytes lie at. A run is the rows of one table, or of the consecutive tables
/// of a sorted level, in key order. A cleared set keeps its allocations for
/// the next use.
#[derive(Debug, Default)]
pub(crate) struct RunSpans {
    spans: Vec<Span>,
    /// The spans of each run.
    runs: Vec<Range<usize>>,
    /// The bytes of the reads that crossed extents, back to back.
    spill: Vec<u8>,
}

impl RunSpans {
    /// Forgets every run, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
        self.runs.clear();
        self.spill.clear();
    }

    /// Opens the next — newest so far — run.
    pub(crate) fn begin_run(&mut self) {
        self.runs.push(self.spans.len()..self.spans.len());
    }

    /// Charges the read of `[offset, offset + len)` of `file` and says where
    /// the bytes lie; they stay readable through [`RunSpans::lent`] until the
    /// next [`RunSpans::clear`]. The span joins no run until it, or a part of
    /// it, is [`push`](RunSpans::push)ed.
    ///
    /// # Errors
    ///
    /// As for [`FlashStore::read_range`].
    pub(crate) fn read<F: FlashTranslationLayer>(
        &mut self,
        store: &mut FlashStore<F>,
        file: &SegmentFile,
        offset: u64,
        len: usize,
    ) -> Result<Span, KvError> {
        store.read_span(file, offset, len, &mut self.spill)
    }

    /// Appends `span` to the open run; its entries must sort after those of
    /// the run's earlier spans.
    pub(crate) fn push(&mut self, span: Span) {
        self.spans.push(span);
        self.runs
            .last_mut()
            .expect("begin_run opens a run first")
            .end = self.spans.len();
    }

    /// Reverses the order of the open run's spans: a run whose tables had to
    /// be read last table first is walked first table first.
    pub(crate) fn reverse_run(&mut self) {
        let run = self
            .runs
            .last()
            .expect("begin_run opens a run first")
            .clone();
        self.spans[run].reverse();
    }

    /// The two buffers the spans index, borrowed for a look at the bytes.
    pub(crate) fn lent<'a, F: FlashTranslationLayer>(
        &'a self,
        store: &'a FlashStore<F>,
    ) -> Lent<'a> {
        store.lent(&self.spill)
    }

    /// How many spans lie in the arena and how many in the spill buffer.
    #[cfg(test)]
    pub(crate) fn lent_and_spilled(&self) -> (usize, usize) {
        let spilled = self.spans.iter().filter(|span| span.spilled).count();
        (self.spans.len() - spilled, spilled)
    }
}

/// Where one decoded entry lies: offsets into the arena or the spill buffer,
/// resolved against a [`Lent`] when the bytes are wanted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryAt {
    spilled: bool,
    key_at: usize,
    key_len: usize,
    /// `None` for a tombstone.
    value_len: Option<usize>,
}

impl EntryAt {
    /// True for a tombstone.
    pub(crate) fn is_tombstone(&self) -> bool {
        self.value_len.is_none()
    }

    /// The entry's size in a table's data section.
    pub(crate) fn encoded_len(&self) -> usize {
        ENTRY_HEADER_BYTES + self.key_len + self.value_len.unwrap_or(0)
    }

    fn key<'a>(&self, lent: Lent<'a>) -> &'a [u8] {
        &lent.buffer(self.spilled)[self.key_at..self.key_at + self.key_len]
    }

    /// The entry's key and value. `lent` must be of the runs the entry was
    /// decoded from.
    pub(crate) fn resolve<'a>(&self, lent: Lent<'a>) -> EntryRef<'a> {
        let value_at = self.key_at + self.key_len;
        let value = self
            .value_len
            .map(|len| &lent.buffer(self.spilled)[value_at..value_at + len]);
        (self.key(lent), value)
    }
}

/// The next entry of a run not yet yielded, with its key's integer prefix.
#[derive(Debug, Clone, Copy)]
struct Head {
    prefix: u64,
    entry: EntryAt,
}

impl Head {
    /// Key order: by prefix, by the key bytes where prefixes tie.
    fn cmp(&self, other: &Head, lent: Lent<'_>) -> Ordering {
        self.prefix
            .cmp(&other.prefix)
            .then_with(|| self.entry.key(lent).cmp(other.entry.key(lent)))
    }
}

/// A position in one run.
#[derive(Debug)]
struct RunCursor {
    /// The spans not walked to their end yet; the first is being walked.
    spans: Range<usize>,
    /// Where in its buffer the next entry to decode starts.
    at: usize,
    head: Option<Head>,
}

impl RunCursor {
    /// Decodes the run's next entry into `head` (`None` at the end of the run).
    fn advance(&mut self, spans: &[Span], lent: Lent<'_>) -> Result<(), KvError> {
        self.head = None;
        while let Some(&span) = spans[self.spans.clone()].first() {
            let bytes = &lent.buffer(span.spilled)[..span.end];
            if let Some(((key, value), consumed)) = decode_entry(bytes, self.at)? {
                let entry = EntryAt {
                    spilled: span.spilled,
                    key_at: self.at + ENTRY_HEADER_BYTES,
                    key_len: key.len(),
                    value_len: value.map(<[u8]>::len),
                };
                self.head = Some(Head {
                    prefix: key_prefix(key),
                    entry,
                });
                self.at += consumed;
                return Ok(());
            }
            self.spans.start += 1;
            self.at = spans.get(self.spans.start).map_or(0, |next| next.start);
        }
        Ok(())
    }
}

/// The per-run cursors of a [`NewestWins`], kept between merges: a merge
/// over no more runs than an earlier one on the same cursors allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct MergeCursors(Vec<RunCursor>);

/// A k-way merge of sorted runs given oldest first: yields every distinct key
/// once, in key order, with the entry of the newest run that holds it
/// (tombstones included — dropping them is the caller's decision).
#[derive(Debug)]
pub(crate) struct NewestWins<'r> {
    spans: &'r [Span],
    runs: &'r mut Vec<RunCursor>,
}

impl<'r> NewestWins<'r> {
    /// A merge positioned before the first entry of `inputs`' runs, walking
    /// them with `cursors` (whatever they held before is dropped).
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when a run's first entry does not decode.
    pub(crate) fn new(
        inputs: &'r RunSpans,
        cursors: &'r mut MergeCursors,
        lent: Lent<'_>,
    ) -> Result<Self, KvError> {
        let spans = inputs.spans.as_slice();
        let runs = &mut cursors.0;
        runs.clear();
        for run in &inputs.runs {
            let at = spans[run.clone()].first().map_or(0, |first| first.start);
            let mut cursor = RunCursor {
                spans: run.clone(),
                at,
                head: None,
            };
            cursor.advance(spans, lent)?;
            runs.push(cursor);
        }
        Ok(NewestWins { spans, runs })
    }

    /// The next entry in key order, `None` once every run is walked. `lent`
    /// must be of the runs the merge was made over.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when the entry behind a yielded one does not
    /// decode — the yielded entry is lost with it.
    pub(crate) fn next(&mut self, lent: Lent<'_>) -> Result<Option<EntryAt>, KvError> {
        // The smallest head key; among equal keys the last — newest — run's.
        // The number of runs is small (one per level and L0 table), so a
        // linear pass beats a heap.
        let mut winner: Option<(usize, Head)> = None;
        for (index, run) in self.runs.iter().enumerate() {
            if let Some(head) = run.head {
                if winner.is_none_or(|(_, best)| head.cmp(&best, lent) != Ordering::Greater) {
                    winner = Some((index, head));
                }
            }
        }
        let Some((newest, winner)) = winner else {
            return Ok(None);
        };
        // Only an older run can hold the same key: a newer one would have won.
        for run in &mut self.runs[..newest] {
            if run
                .head
                .is_some_and(|head| head.cmp(&winner, lent) == Ordering::Equal)
            {
                run.advance(self.spans, lent)?;
            }
        }
        self.runs[newest].advance(self.spans, lent)?;
        Ok(Some(winner.entry))
    }

    /// Every remaining entry, copied out.
    #[cfg(test)]
    pub(crate) fn collect(mut self, lent: Lent<'_>) -> Result<Vec<crate::sstable::Entry>, KvError> {
        let mut rows = Vec::new();
        while let Some(entry) = self.next(lent)? {
            let (key, value) = entry.resolve(lent);
            rows.push((key.to_vec(), value.map(<[u8]>::to_vec)));
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::Entry;
    use std::collections::BTreeMap;

    type Row = (&'static [u8], Option<&'static [u8]>);

    fn encode(rows: &[Row], out: &mut Vec<u8>) {
        for (key, value) in rows {
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.push(u8::from(value.is_none()));
            out.extend_from_slice(&(value.map_or(0, <[u8]>::len) as u32).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(value.unwrap_or_default());
        }
    }

    /// Appends `rows` to the open run as one span — in the "arena" and in
    /// the spill buffer by turns, three stray bytes before it so that a walk
    /// that overruns a span meets garbage.
    fn push_rows(inputs: &mut RunSpans, arena: &mut Vec<u8>, rows: &[Row]) {
        let spilled = inputs.spans.len() % 2 == 1;
        let buffer = if spilled { &mut inputs.spill } else { arena };
        buffer.extend_from_slice(&[0xEE; 3]);
        let start = buffer.len();
        encode(rows, buffer);
        let end = buffer.len();
        inputs.push(Span {
            spilled,
            start,
            end,
        });
    }

    /// Runs (oldest first) of spans of rows.
    fn lay_out(runs: &[Vec<Vec<Row>>]) -> (RunSpans, Vec<u8>) {
        let (mut inputs, mut arena) = (RunSpans::default(), Vec::new());
        for run in runs {
            inputs.begin_run();
            for rows in run {
                push_rows(&mut inputs, &mut arena, rows);
            }
        }
        (inputs, arena)
    }

    fn merged(runs: &[Vec<Vec<Row>>]) -> Result<Vec<Entry>, KvError> {
        let (inputs, arena) = lay_out(runs);
        let lent = Lent {
            arena: &arena,
            spill: &inputs.spill,
        };
        NewestWins::new(&inputs, &mut MergeCursors::default(), lent)?.collect(lent)
    }

    fn owned(rows: &[Row]) -> Vec<Entry> {
        rows.iter()
            .map(|(key, value)| (key.to_vec(), value.map(<[u8]>::to_vec)))
            .collect()
    }

    #[test]
    fn the_newest_run_wins_ties_and_tombstones_survive() {
        let oldest: Vec<Row> = vec![(b"a", Some(b"1")), (b"c", Some(b"1")), (b"d", Some(b"1"))];
        let middle: Vec<Row> = vec![(b"b", Some(b"2")), (b"c", None)];
        let newest: Vec<Row> = vec![(b"a", Some(b"3")), (b"e", None)];
        assert_eq!(
            merged(&[vec![oldest], vec![middle], vec![newest]]).unwrap(),
            owned(&[
                (b"a", Some(b"3")),
                (b"b", Some(b"2")),
                (b"c", None),
                (b"d", Some(b"1")),
                (b"e", None),
            ])
        );
        assert!(merged(&[]).unwrap().is_empty());
        assert!(merged(&[vec![], vec![vec![], vec![]]]).unwrap().is_empty());
    }

    #[test]
    fn a_run_is_its_spans_in_order_once_a_reversed_read_is_turned_back() {
        let first: Vec<Row> = vec![(b"a", Some(b"old")), (b"b", Some(b"old"))];
        let second: Vec<Row> = vec![(b"c", None)];
        let third: Vec<Row> = vec![(b"d", Some(b"old")), (b"e", Some(b"old"))];
        let newer: Vec<Row> = vec![(b"b", None), (b"d", Some(b"new"))];
        let expected = owned(&[
            (b"a", Some(b"old")),
            (b"b", None),
            (b"c", None),
            (b"d", Some(b"new")),
            (b"e", Some(b"old")),
        ]);
        // Empty spans — a table none of whose rows a scan wanted — are passed over.
        let level = vec![
            vec![],
            first.clone(),
            vec![],
            second.clone(),
            third.clone(),
            vec![],
        ];
        assert_eq!(merged(&[level, vec![newer.clone()]]).unwrap(), expected);

        // Read last table first, as a compaction reads its source level.
        let (mut inputs, mut arena) = (RunSpans::default(), Vec::new());
        inputs.begin_run();
        for rows in [&third, &second, &first] {
            push_rows(&mut inputs, &mut arena, rows);
        }
        inputs.reverse_run();
        inputs.begin_run();
        push_rows(&mut inputs, &mut arena, &newer);
        let lent = Lent {
            arena: &arena,
            spill: &inputs.spill,
        };
        assert_eq!(
            NewestWins::new(&inputs, &mut MergeCursors::default(), lent)
                .unwrap()
                .collect(lent)
                .unwrap(),
            expected
        );
    }

    #[test]
    fn keys_that_tie_in_their_prefix_are_ordered_and_matched_by_their_bytes() {
        // Three overlapping runs over keys that nest, zero-pad and share their
        // first eight bytes: run `r` holds every key whose rank is not a
        // multiple of `r + 2`, its values naming the run.
        let keys: Vec<&'static [u8]> = crate::key::tricky_keys()
            .into_iter()
            .map(|key| &*key.leak())
            .collect();
        let values: [&'static [u8]; 3] = [b"oldest", b"middle", b"newest"];
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut runs = Vec::new();
        for (age, value) in values.into_iter().enumerate() {
            let rows: Vec<Row> = keys
                .iter()
                .enumerate()
                .filter(|(rank, _)| rank % (age + 2) != 0)
                .map(|(rank, key)| (*key, (rank % 7 != age).then_some(value)))
                .collect();
            model.extend(owned(&rows));
            // Two spans per run, cut in the middle of a family of tied keys.
            let (head, tail) = rows.split_at(rows.len() / 2);
            runs.push(vec![head.to_vec(), tail.to_vec()]);
        }
        let expected: Vec<Entry> = model.into_iter().collect();
        // Only the ranks every run leaves out are missing.
        assert_eq!(expected.len(), keys.len() - keys.len().div_ceil(12));
        assert!(expected.iter().any(|(_, value)| value.is_none()));
        assert_eq!(merged(&runs).unwrap(), expected);
    }

    #[test]
    fn a_damaged_entry_is_corruption_where_the_walk_reaches_it() {
        let rows: Vec<Row> = vec![(b"a", Some(b"1")), (b"b", Some(b"22")), (b"c", None)];
        let other: Vec<Row> = vec![(b"b", Some(b"x"))];
        let (inputs, arena) = lay_out(&[vec![rows], vec![other]]);
        let walk = |arena: &[u8], inputs: &RunSpans| {
            let lent = Lent {
                arena,
                spill: &inputs.spill,
            };
            NewestWins::new(inputs, &mut MergeCursors::default(), lent)?.collect(lent)
        };
        assert_eq!(walk(&arena, &inputs).unwrap().len(), 3);
        // Entry "b" of the first run starts 9 bytes into its span: a flag that
        // is neither value nor tombstone, a length past the span's end, a
        // tombstone with a value.
        let second = inputs.spans[0].start + 9;
        for (at, byte) in [(second + 2, 7), (second + 6, 1), (second + 2, 1)] {
            let mut damaged = arena.clone();
            damaged[at] = byte;
            assert!(
                matches!(walk(&damaged, &inputs), Err(KvError::Corruption(_))),
                "byte {at}"
            );
        }
        // A span cut short inside its last entry, and one inside a header.
        for cut in [1, 9] {
            let mut short = RunSpans::default();
            short.begin_run();
            short.push(Span {
                end: inputs.spans[0].end - cut,
                ..inputs.spans[0]
            });
            assert!(
                matches!(walk(&arena, &short), Err(KvError::Corruption(_))),
                "cut {cut}"
            );
        }
        // Damage in a run's first entry surfaces when the merge is made.
        let mut damaged = arena.clone();
        damaged[inputs.spans[0].start + 2] = 9;
        let lent = Lent {
            arena: &damaged,
            spill: &inputs.spill,
        };
        assert!(matches!(
            NewestWins::new(&inputs, &mut MergeCursors::default(), lent),
            Err(KvError::Corruption(_))
        ));
    }
}
