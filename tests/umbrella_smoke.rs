//! Smoke test for the umbrella crate's re-export wiring: everything a downstream
//! user needs for the paper's headline flow must be reachable through `vflash::*`
//! paths alone (guarding the `pub use` lines in `src/lib.rs` and the crate-root
//! doctest).

use vflash::ftl::{FlashTranslationLayer, FtlError, Lpn};
use vflash::nand::{NandConfig, NandDevice, Nanos, SpeedProfile};
use vflash::ppb::{PpbConfig, PpbFtl};

#[test]
fn ppb_ftl_round_trips_through_reexported_api() -> Result<(), FtlError> {
    let config = NandConfig::builder()
        .chips(1)
        .blocks_per_chip(32)
        .pages_per_block(16)
        .page_size_bytes(4 * 1024)
        .speed_ratio(3.0)
        .speed_profile(SpeedProfile::Linear)
        .build()
        .expect("valid geometry");
    let mut ftl = PpbFtl::new(NandDevice::new(config), PpbConfig::default())?;

    // Write a handful of logical pages (small requests classify hot), then read
    // every one of them back.
    for lpn in 0..24u64 {
        let write_latency = ftl.write(Lpn(lpn), 512)?;
        assert!(write_latency > Nanos::ZERO, "write of LPN{lpn} reported zero latency");
    }
    for lpn in 0..24u64 {
        let read_latency = ftl.read(Lpn(lpn))?;
        assert!(read_latency > Nanos::ZERO, "read of LPN{lpn} reported zero latency");
    }

    // Reads of never-written (but in-range) pages keep failing cleanly through the
    // same paths.
    let unwritten = Lpn(ftl.logical_pages() - 1);
    assert!(matches!(ftl.read(unwritten), Err(FtlError::UnmappedRead { .. })));

    let metrics = ftl.metrics();
    assert_eq!(metrics.host_writes, 24);
    assert_eq!(metrics.host_reads, 24);
    Ok(())
}

#[test]
fn every_reexported_module_is_reachable() {
    // One cheap touch per re-exported crate so a dropped `pub use` fails to compile.
    let trace = vflash::trace::synthetic::web_sql_server(vflash::trace::synthetic::SyntheticConfig {
        requests: 100,
        seed: 1,
        working_set_bytes: 4 * 1024 * 1024,
        ..Default::default()
    });
    assert_eq!(trace.len(), 100);

    let device = NandDevice::new(NandConfig::small());
    let ftl = vflash::ftl::ConventionalFtl::new(device, vflash::ftl::FtlConfig::default())
        .expect("ftl builds");
    // Requests span multiple flash pages, so the replayer serves at least one page
    // operation per trace request.
    let summary = vflash::sim::WorkloadDriver::closed_loop(vflash::sim::RunOptions::default(), 1)
        .run(ftl, &trace)
        .expect("replay succeeds");
    assert!(summary.host_reads + summary.host_writes >= 100);
}
