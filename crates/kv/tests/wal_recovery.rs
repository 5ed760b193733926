//! WAL crash-recovery property test: drop the in-memory state at an arbitrary
//! point in an arbitrary operation sequence, re-open the store on the same
//! device state, and require the recovered store to answer every committed key
//! exactly like a model map — twice, to also cover recovery-of-a-recovery.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vflash_ftl::{ConventionalFtl, FtlConfig};
use vflash_kv::{FlashStore, KvConfig, KvStore};
use vflash_nand::{NandConfig, NandDevice};

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
}

fn flash() -> FlashStore<ConventionalFtl> {
    let device = NandDevice::new(
        NandConfig::builder()
            .chips(1)
            .blocks_per_chip(32)
            .pages_per_block(32)
            .page_size_bytes(4096)
            .build()
            .expect("valid geometry"),
    );
    FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).expect("valid ftl"))
}

/// Tiny thresholds so even short sequences cross flush and compaction
/// boundaries — the interesting crash points.
fn config() -> KvConfig {
    KvConfig {
        memtable_bytes: 1 << 10,
        level_base_bytes: 4 << 10,
        target_table_bytes: 2 << 10,
        ..KvConfig::default()
    }
}

fn key(k: u8) -> Vec<u8> {
    vec![b'k', k]
}

fn apply(
    kv: &mut KvStore<ConventionalFtl>,
    model: &mut BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    op: &Op,
) {
    match op {
        Op::Put(k, value) => {
            kv.put(&key(*k), value).expect("put succeeds");
            model.insert(key(*k), Some(value.clone()));
        }
        Op::Delete(k) => {
            kv.delete(&key(*k)).expect("delete succeeds");
            model.insert(key(*k), None);
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..32, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, value)| Op::Put(k, value)),
        (0u8..32).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every key the application committed before the crash must read back
    /// identically after recovery, whether it was still in the WAL-protected
    /// memtable or already flushed into the table tree.
    #[test]
    fn recovery_answers_every_committed_key(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        cut_seed in 0usize..10_000,
    ) {
        let cut = cut_seed % (ops.len() + 1);
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut kv = KvStore::open(flash(), config()).expect("format");
        for op in &ops[..cut] {
            apply(&mut kv, &mut model, op);
        }
        // Crash: all in-memory state is dropped; only the device survives.
        let mut kv = KvStore::open(kv.crash(), config()).expect("recover at cut point");
        prop_assert_eq!(kv.check_invariants(), Ok(()), "after the crash at op {}", cut);
        for k in 0u8..32 {
            let expected = model.get(&key(k)).and_then(Option::as_deref);
            let lookup = kv.get(&key(k)).expect("get after recovery");
            prop_assert_eq!(
                lookup.value, expected,
                "key {} answered wrong after crash at op {}/{}", k, cut, ops.len()
            );
        }
        // The recovered store must keep working: apply the rest, crash again,
        // and re-verify the full history.
        for op in &ops[cut..] {
            apply(&mut kv, &mut model, op);
        }
        prop_assert_eq!(kv.check_invariants(), Ok(()), "before the second crash");
        let mut kv = KvStore::open(kv.crash(), config()).expect("recover after tail");
        prop_assert_eq!(kv.check_invariants(), Ok(()), "after the second crash");
        for k in 0u8..32 {
            let expected = model.get(&key(k)).and_then(Option::as_deref);
            let lookup = kv.get(&key(k)).expect("get after second recovery");
            prop_assert_eq!(lookup.value, expected, "key {} wrong after second crash", k);
        }
        // Scans agree with the model too.
        let live: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v)))
            .collect();
        prop_assert_eq!(kv.scan(b"k\x00", b"k\xff").expect("scan"), live);
    }
}
