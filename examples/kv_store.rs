//! An LSM key-value store running on the simulated flash device.
//!
//! ```text
//! cargo run --example kv_store
//! ```
//!
//! Opens a `vflash-kv` store on a PPB-managed device, writes and reads some
//! keys, forces a flush, simulates a crash, and recovers — printing the device
//! traffic (WAL appends, table builds, compactions) each stage generated.
//! The zipf-skewed KV comparison of both FTLs is the `lsm` section of the
//! `experiments` binary.

use std::error::Error;

use vflash::ftl::FlashTranslationLayer;
use vflash::kv::{FlashStore, KvConfig, KvStore};
use vflash::nand::{NandConfig, NandDevice};
use vflash::ppb::{PpbConfig, PpbFtl};

fn main() -> Result<(), Box<dyn Error>> {
    // A small device under the paper's PPB FTL: 1 chip, 96 blocks of 64 pages,
    // 4 KiB pages.
    let config = NandConfig::builder()
        .chips(1)
        .blocks_per_chip(96)
        .pages_per_block(64)
        .page_size_bytes(4 * 1024)
        .build()?;
    let ftl = PpbFtl::new(NandDevice::new(config), PpbConfig::default())?;
    let mut kv = KvStore::open(FlashStore::new(ftl), KvConfig::default())?;

    // Write a batch, overwrite some of it, delete a little.
    for i in 0..500u32 {
        let key = format!("user:{i:04}");
        kv.put(key.as_bytes(), format!("profile-v1-{i}").as_bytes())?;
    }
    for i in 0..100u32 {
        let key = format!("user:{i:04}");
        kv.put(key.as_bytes(), format!("profile-v2-{i}").as_bytes())?;
    }
    kv.delete(b"user:0042")?;
    kv.flush()?;

    println!("after {} puts, 1 delete and a flush:", 500 + 100);
    let stats = *kv.stats();
    println!(
        "  {} flushes, {} compactions, {} tables across {} levels",
        stats.flushes,
        stats.compactions,
        kv.layout().len(),
        kv.level_count(),
    );
    let io = kv.flash().ftl().metrics();
    println!(
        "  device traffic: {} page writes, {} page reads, {} of simulated device time",
        io.host_writes,
        io.host_reads,
        format_args!("{:.3}s", kv.device_clock().as_secs_f64()),
    );
    let wa = kv.write_amplification();
    println!(
        "  write amplification: app {:.2} x ftl {:.2} = end-to-end {:.2}",
        wa.app, wa.ftl, wa.end_to_end
    );

    // Point reads hit the memtable or the tables; the receipt says which.
    let hot = kv.get(b"user:0007")?;
    println!(
        "\nget user:0007 -> {:?} (answered by {:?})",
        hot.value.map(String::from_utf8_lossy),
        hot.source,
    );
    let gone = kv.get(b"user:0042")?;
    println!("get user:0042 -> {:?} (deleted)", gone.value);

    // Range scan across the overwrite boundary.
    let range = kv.scan(b"user:0098", b"user:0103")?;
    println!("scan [user:0098, user:0103) -> {} keys", range.len());

    // Crash: every in-memory structure is dropped; only the device survives.
    // Recovery reads the superblock, manifest, table indexes and WAL tail.
    let device_state = kv.crash();
    let mut recovered = KvStore::open(device_state, KvConfig::default())?;
    // A get lends its value until the next call on the store: copy it out to
    // keep it across one.
    let back = recovered.get(b"user:0007")?.value.map(<[u8]>::to_vec);
    println!(
        "\nafter crash + recovery: user:0007 -> {:?}, hotness-aware FTL: {}",
        back.as_deref().map(String::from_utf8_lossy),
        recovered.flash().ftl().name(),
    );

    Ok(())
}
