//! Quickstart: build a small 3D charge-trap device, run the PPB FTL on it, and watch
//! hot data gravitate towards fast pages.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::error::Error;

use vflash::ftl::{FlashTranslationLayer, Lpn};
use vflash::nand::{NandConfig, NandDevice};
use vflash::ppb::{PpbConfig, PpbFtl};

fn main() -> Result<(), Box<dyn Error>> {
    // A small device: 1 chip, 64 blocks of 32 pages, 16 KiB pages, bottom layer 4x
    // faster than the top layer.
    let config = NandConfig::builder()
        .chips(1)
        .blocks_per_chip(64)
        .pages_per_block(32)
        .page_size_bytes(16 * 1024)
        .speed_ratio(4.0)
        .build()?;
    println!(
        "device: {} blocks x {} pages, {:.1} MiB raw, top-layer read {} vs bottom-layer read {}",
        config.total_blocks(),
        config.pages_per_block(),
        config.capacity_bytes() as f64 / (1024.0 * 1024.0),
        config.latency_model().read_latency(vflash::nand::PageId(0)),
        config
            .latency_model()
            .read_latency(vflash::nand::PageId(config.pages_per_block() - 1)),
    );

    let mut ftl = PpbFtl::new(NandDevice::new(config), PpbConfig::default())?;

    // Metadata-like data: small writes, frequently re-read.
    for round in 0..6 {
        for lpn in 0..16u64 {
            ftl.write(Lpn(lpn), 512)?;
            ftl.read(Lpn(lpn))?;
        }
        // Cache-like data: small writes, never read back.
        for lpn in 100..116u64 {
            ftl.write(Lpn(lpn), 512)?;
        }
        // Bulk data: large writes, read occasionally.
        for lpn in 200..232u64 {
            ftl.write(Lpn(lpn), 256 * 1024)?;
        }
        let _ = round;
    }

    println!("\nhotness after the workload:");
    for (label, lpn) in [("metadata  LPN0", 0u64), ("cache     LPN100", 100), ("bulk      LPN200", 200)] {
        let level = ftl.placement().hotness_of(Lpn(lpn));
        let location = ftl.mapping().lookup(Lpn(lpn)).expect("written above");
        let class = ftl.placement().virtual_blocks().class_of_page(location.page());
        println!(
            "  {label}: {level:<9} stored at {location} (speed class {}, {})",
            class.0,
            if class.is_slowest() { "slow pages" } else { "fast pages" },
        );
    }

    let metrics = ftl.metrics();
    println!("\nmetrics:");
    println!("  host writes          {}", metrics.host_writes);
    println!("  host reads           {}", metrics.host_reads);
    println!("  mean read latency    {}", metrics.mean_read_latency());
    println!("  mean write latency   {}", metrics.mean_write_latency());
    println!("  GC erased blocks     {}", metrics.gc_erased_blocks);
    println!("  write amplification  {:.3}", metrics.write_amplification());
    Ok(())
}
