//! The write-ahead log: checksummed, epoch-stamped records in a fixed flash
//! region.
//!
//! The WAL lives in one preallocated [`SegmentFile`] region and is reset in
//! place at every memtable flush: the logical length rewinds to zero and the
//! **epoch** (persisted in the manifest) increments, so stale records from the
//! previous epoch are still physically on the region's pages but fail the epoch
//! check during replay. Each record carries a 64-bit checksum; replay stops at
//! the first record that fails validation, which is exactly the committed
//! prefix.

use crate::error::KvError;
use crate::flash_file::{FlashStore, SegmentFile};
use crate::hash::checksum64;
use crate::store::Cursor;
use vflash_ftl::FlashTranslationLayer;

/// One logical WAL operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert or overwrite `key` with `value`.
    Put {
        /// The key written.
        key: Vec<u8>,
        /// The value written.
        value: Vec<u8>,
    },
    /// Delete `key` (a tombstone once it reaches the memtable).
    Delete {
        /// The key deleted.
        key: Vec<u8>,
    },
}

impl WalOp {
    /// The operation's key.
    pub fn key(&self) -> &[u8] {
        match self {
            WalOp::Put { key, .. } | WalOp::Delete { key } => key,
        }
    }
}

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
/// epoch(4) + kind(1) + klen(2) + vlen(4).
const HEADER_BYTES: usize = 11;
/// Trailing 64-bit checksum.
const CHECKSUM_BYTES: usize = 8;

/// Serializes one record into `out` (cleared first): header, key, value,
/// checksum over everything before the checksum. Keys past `u16::MAX` bytes
/// and values past `u32::MAX` do not fit the header —
/// [`KvStore`](crate::KvStore) rejects them before they get here.
fn encode(epoch: u32, op: &WalOp, out: &mut Vec<u8>) {
    let (kind, key, value): (u8, &[u8], &[u8]) = match op {
        WalOp::Put { key, value } => (KIND_PUT, key, value),
        WalOp::Delete { key } => (KIND_DELETE, key, &[]),
    };
    let key_len = u16::try_from(key.len()).expect("WAL keys fit a u16 length");
    let value_len = u32::try_from(value.len()).expect("WAL values fit a u32 length");
    out.clear();
    out.extend_from_slice(&epoch.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&key_len.to_le_bytes());
    out.extend_from_slice(&value_len.to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    out.extend_from_slice(&checksum64(out).to_le_bytes());
}

/// Decodes the record at `bytes[at..]`. Returns `None` when the bytes are not a
/// valid record of `epoch` — a stale record from an earlier epoch, garbage, or
/// a truncated tail — which is the replay stop condition.
fn decode(bytes: &[u8], at: usize, epoch: u32) -> Option<(WalOp, usize)> {
    let record = bytes.get(at..)?;
    let mut cursor = Cursor::new(record);
    if cursor.u32().ok()? != epoch {
        return None;
    }
    let kind = cursor.u8().ok()?;
    let klen = cursor.u16().ok()? as usize;
    let vlen = cursor.u32().ok()? as usize;
    let key = cursor.take(klen).ok()?;
    let value = cursor.take(vlen).ok()?;
    let payload = &record[..cursor.position()];
    if cursor.u64().ok()? != checksum64(payload) {
        return None;
    }
    let op = match kind {
        KIND_PUT => WalOp::Put { key: key.to_vec(), value: value.to_vec() },
        KIND_DELETE if vlen == 0 => WalOp::Delete { key: key.to_vec() },
        _ => return None,
    };
    Some((op, cursor.position()))
}

/// The write-ahead log: a preallocated region plus the current epoch.
#[derive(Debug)]
pub struct Wal {
    file: SegmentFile,
    epoch: u32,
    /// The record being appended, encoded here before it goes to the store
    /// (reused across appends).
    record: Vec<u8>,
}

impl Wal {
    /// Wraps a (pre-reserved) region at `epoch`.
    pub fn new(file: SegmentFile, epoch: u32) -> Self {
        Wal { file, epoch, record: Vec::new() }
    }

    /// The current epoch (persisted in the manifest).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The backing region.
    pub fn file(&self) -> &SegmentFile {
        &self.file
    }

    /// Bytes a record for `op` will occupy.
    pub fn record_bytes(op: &WalOp) -> u64 {
        let (key, value) = match op {
            WalOp::Put { key, value } => (key.len(), value.len()),
            WalOp::Delete { key } => (key.len(), 0),
        };
        (HEADER_BYTES + key + value + CHECKSUM_BYTES) as u64
    }

    /// True when appending `op` would overrun the preallocated region — the
    /// store must flush (and thereby reset the WAL) first.
    pub fn would_overflow(&self, op: &WalOp, page_size: usize) -> bool {
        let capacity = self.file.pages() * page_size as u64;
        self.file.len() + Self::record_bytes(op) > capacity
    }

    /// Appends one record, charging the tail-page program(s) to the store
    /// clock. The request size passed to the FTL is the record size, so PPB's
    /// size-based classifier sees WAL traffic as small (hot) writes.
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfSpace`] when the region is full (callers should have
    /// checked [`Wal::would_overflow`]); write errors pass through.
    pub fn append<F: FlashTranslationLayer>(
        &mut self,
        store: &mut FlashStore<F>,
        op: &WalOp,
    ) -> Result<(), KvError> {
        if self.would_overflow(op, store.page_size()) {
            return Err(KvError::OutOfSpace);
        }
        encode(self.epoch, op, &mut self.record);
        let request_bytes = self.record.len() as u32;
        store.append(&mut self.file, &self.record, request_bytes)
    }

    /// Rewinds the region and bumps the epoch (the post-flush reset). Old
    /// records stay on the pages but no longer validate.
    pub fn reset(&mut self) {
        self.file.truncate();
        self.epoch += 1;
    }

    /// Replays the committed record prefix of `file` at `epoch` after a crash:
    /// reads the region's written pages (charged), decodes records until the
    /// first invalid one, and returns the operations plus the byte length of
    /// the valid prefix (the position appends must resume from).
    ///
    /// # Errors
    ///
    /// Read errors pass through; decode failures are the normal stop condition,
    /// not errors.
    pub fn replay<F: FlashTranslationLayer>(
        store: &mut FlashStore<F>,
        file: &SegmentFile,
        epoch: u32,
    ) -> Result<(Vec<WalOp>, u64), KvError> {
        // The post-crash logical length is unknown (the manifest predates the
        // tail), so read every written page of the region front to back; pages
        // written under earlier epochs simply fail the epoch check below. The
        // written prefix is collected first and read as one batched sweep
        // (chunked at the store's queue depth) instead of page-at-a-time.
        let mut lpns = Vec::new();
        for page in 0..file.pages() {
            let lpn = file.lpn_at(page).expect("page index is below the region size");
            if !store.is_written(lpn) {
                break;
            }
            lpns.push(lpn);
        }
        let bytes = store.read_pages(&lpns)?;
        let mut ops = Vec::new();
        let mut at = 0usize;
        while let Some((op, consumed)) = decode(&bytes, at, epoch) {
            ops.push(op);
            at += consumed;
        }
        Ok((ops, at as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_ftl::{ConventionalFtl, FtlConfig};
    use vflash_nand::{NandConfig, NandDevice};

    fn store() -> FlashStore<ConventionalFtl> {
        let device = NandDevice::new(NandConfig::small());
        FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).unwrap())
    }

    fn region(store: &mut FlashStore<ConventionalFtl>, pages: u64) -> SegmentFile {
        let mut file = SegmentFile::new();
        store.reserve(&mut file, pages).unwrap();
        file
    }

    #[test]
    fn append_and_replay_round_trip() {
        let mut store = store();
        let mut wal = Wal::new(region(&mut store, 8), 3);
        let ops = vec![
            WalOp::Put { key: b"alpha".to_vec(), value: b"1".to_vec() },
            WalOp::Delete { key: b"beta".to_vec() },
            WalOp::Put { key: b"gamma".to_vec(), value: vec![9u8; 300] },
        ];
        for op in &ops {
            wal.append(&mut store, op).unwrap();
        }
        let (replayed, consumed) = Wal::replay(&mut store, wal.file(), 3).unwrap();
        assert_eq!(replayed, ops);
        assert_eq!(consumed, wal.file().len());
    }

    #[test]
    fn stale_epoch_records_stop_replay() {
        let mut store = store();
        let mut wal = Wal::new(region(&mut store, 8), 1);
        wal.append(&mut store, &WalOp::Put { key: b"old".to_vec(), value: b"x".to_vec() })
            .unwrap();
        wal.reset();
        wal.append(&mut store, &WalOp::Put { key: b"new".to_vec(), value: b"y".to_vec() })
            .unwrap();
        // Epoch 2 replay sees only the new record, although the page still
        // physically holds whatever epoch 1 wrote beyond it.
        let (replayed, _) = Wal::replay(&mut store, wal.file(), 2).unwrap();
        assert_eq!(replayed, vec![WalOp::Put { key: b"new".to_vec(), value: b"y".to_vec() }]);
        // And the stale epoch replays nothing valid at its old offsets either:
        // the new epoch's record overwrote the prefix.
        let (stale, _) = Wal::replay(&mut store, wal.file(), 1).unwrap();
        assert!(stale.is_empty());
    }

    #[test]
    fn overflow_is_refused_before_touching_the_device() {
        let mut store = store();
        let mut wal = Wal::new(region(&mut store, 1), 1);
        let big = WalOp::Put {
            key: b"k".to_vec(),
            value: vec![0u8; store.page_size() * 2],
        };
        assert!(wal.would_overflow(&big, store.page_size()));
        assert!(matches!(wal.append(&mut store, &big), Err(KvError::OutOfSpace)));
    }

    #[test]
    fn corrupted_checksums_end_the_replayed_prefix() {
        let epoch = 5;
        let (mut bytes, mut second) = (Vec::new(), Vec::new());
        encode(epoch, &WalOp::Put { key: b"k1".to_vec(), value: b"v1".to_vec() }, &mut bytes);
        encode(epoch, &WalOp::Put { key: b"k2".to_vec(), value: b"v2".to_vec() }, &mut second);
        let flip_at = bytes.len() + 12;
        bytes.extend_from_slice(&second);
        bytes[flip_at] ^= 0xFF;
        let (first, consumed) = decode(&bytes, 0, epoch).unwrap();
        assert_eq!(first, WalOp::Put { key: b"k1".to_vec(), value: b"v1".to_vec() });
        assert!(decode(&bytes, consumed, epoch).is_none(), "bit flip must fail the checksum");
    }

    #[test]
    fn every_flipped_byte_and_every_truncation_of_a_record_is_refused() {
        let epoch = 9;
        let ops = [
            WalOp::Put { key: b"key-0007".to_vec(), value: (0..=255u8).collect() },
            WalOp::Put { key: b"k".to_vec(), value: Vec::new() },
            WalOp::Delete { key: b"a-deleted-key".to_vec() },
        ];
        for op in &ops {
            let mut record = Vec::new();
            encode(epoch, op, &mut record);
            assert_eq!(record.len() as u64, Wal::record_bytes(op));
            assert_eq!(decode(&record, 0, epoch), Some((op.clone(), record.len())));
            for at in 0..record.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut flipped = record.clone();
                    flipped[at] ^= mask;
                    assert_eq!(decode(&flipped, 0, epoch), None, "byte {at} ^ {mask:#04x} of {op:?}");
                }
                assert_eq!(decode(&record[..at], 0, epoch), None, "{at} bytes of {op:?}");
            }
        }
    }
}
