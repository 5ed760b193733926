//! Append-only file segments mapped onto LPN ranges of a flash device.
//!
//! The simulated NAND stack is a *timing and placement* model — it tracks which
//! physical pages are live and how long every operation takes, but it does not
//! store data bytes. [`FlashStore`] bridges that gap for an application: it keeps
//! the actual bytes in a shadow page table while issuing one [`IoRequest`] per
//! page touched, so every append and read becomes real device traffic (queueing,
//! GC attribution, fault and end-of-life behavior included). The store keeps
//! no clock: its device is a lane of the timing core ([`LaneState`]), every
//! page is played through it and [`FlashStore::now`] reads the time back from
//! it. A shadow page doubles as the writer's RAM buffer for that page: an
//! append charges the device first and then writes its bytes into the page in
//! place, and reads hand out slices of the shadow pages instead of copies.
//!
//! The shadow bytes are one contiguous arena, `logical_pages × page_size`
//! bytes indexed by LPN, beside a bitmap of the LPNs written so far. The arena
//! is allocated zeroed and never touched up front, so the operating system
//! backs a page with memory only once the store writes it: resident memory
//! follows the pages written, as it did when every page was its own
//! allocation, and a never-written page reads as the zeroes it would have been
//! created with. Because consecutive LPNs are consecutive bytes,
//! [`FlashStore::read_range`] lends any range whose pages lie in one extent — a
//! table's index bucket that straddles a page boundary, a whole data section —
//! as one slice of the arena. Only a range that crosses from one extent of its
//! file into the next (a file the allocator had to build from fragments) is
//! still copied together, into the reused `assembly` buffer.
//!
//! A slice borrows the store, so it is gone by the store's next read or write.
//! A reader that has to keep what it read while it writes — a compaction holds
//! every input table while it builds its outputs — asks
//! [`FlashStore::read_span`] instead: the same page reads are charged, and the
//! answer is a [`Span`], the offsets the bytes lie at — in the arena, or in a
//! spill buffer of the caller's for the cross-extent case. [`FlashStore::lent`]
//! turns spans back into bytes for as long as the caller can hold `&self`.
//!
//! A [`SegmentFile`] is an append-only byte stream laid out over a list of
//! [`Extent`]s (contiguous LPN runs). Freeing a file returns its extents to the
//! free list; reusing them later overwrites the stale LPNs, which is exactly what
//! invalidates the old flash pages and generates GC pressure — no trim command
//! is needed or modeled.

use std::ops::Range;

use vflash_ftl::{Completion, FlashTranslationLayer, IoRequest, Lpn};
use vflash_nand::Nanos;
use vflash_sim::{ArrivalDiscipline, LaneState, PageChain, RunOptions};
use vflash_trace::IoOp;

use crate::error::KvError;

/// The LPN reserved for the store's superblock (see
/// [`FlashStore::write_superblock`]).
pub const SUPERBLOCK_LPN: u64 = 0;

/// A contiguous run of logical pages: LPNs `[start, start + pages)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First LPN of the run.
    pub start: u64,
    /// Number of pages in the run.
    pub pages: u64,
}

/// An append-only byte stream laid out over a list of [`Extent`]s.
///
/// The handle is plain data — all I/O goes through the owning [`FlashStore`],
/// which charges device time for every page touched. `len` is the logical byte
/// length; capacity is whatever the extents provide, growing on demand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentFile {
    extents: Vec<Extent>,
    len: u64,
}

impl SegmentFile {
    /// An empty file with no extents.
    pub fn new() -> Self {
        SegmentFile::default()
    }

    /// Rebuilds a handle from its persisted extents and length (manifest
    /// recovery path).
    pub fn from_parts(extents: Vec<Extent>, len: u64) -> Self {
        SegmentFile { extents, len }
    }

    /// Logical byte length.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no bytes have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total pages currently allocated to the file.
    pub fn pages(&self) -> u64 {
        self.extents.iter().map(|extent| extent.pages).sum()
    }

    /// The file's extents, in file order.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Rewinds the logical length to zero, keeping the allocated extents (the
    /// WAL reset path: the region is reused in place and old pages are simply
    /// overwritten).
    pub fn truncate(&mut self) {
        self.len = 0;
    }

    /// The LPN backing file page `index`, or `None` past the allocated capacity.
    pub fn lpn_at(&self, index: u64) -> Option<u64> {
        self.run_at(index).map(|(lpn, _)| lpn)
    }

    /// The LPN backing file page `index` and how many file pages from that one
    /// on — itself included — sit on consecutive LPNs (the rest of its extent).
    fn run_at(&self, index: u64) -> Option<(u64, u64)> {
        let mut remaining = index;
        for extent in &self.extents {
            if remaining < extent.pages {
                return Some((extent.start + remaining, extent.pages - remaining));
            }
            remaining -= extent.pages;
        }
        None
    }
}

/// Where the bytes of a charged read lie: a byte range of the store's shadow
/// arena, or — for a read that crossed from one extent of its file into the
/// next — of the spill buffer the caller passed to [`FlashStore::read_span`].
/// A span is plain offsets, so holding one borrows nothing: the store can be
/// written to between two looks at the bytes, through [`Lent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// True when the bytes are in the spill buffer, not the arena.
    pub(crate) spilled: bool,
    /// First byte, as an offset into that buffer.
    pub(crate) start: usize,
    /// One past the last byte.
    pub(crate) end: usize,
}

impl Span {
    /// The sub-span `[from, to)`, both relative to this span's start.
    pub(crate) fn part(self, from: usize, to: usize) -> Span {
        debug_assert!(from <= to && self.start + to <= self.end);
        Span { spilled: self.spilled, start: self.start + from, end: self.start + to }
    }
}

/// The two buffers a [`Span`] can point into, borrowed for as long as the
/// bytes are looked at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lent<'a> {
    pub(crate) arena: &'a [u8],
    pub(crate) spill: &'a [u8],
}

impl<'a> Lent<'a> {
    /// The whole buffer — arena or spill — that a span with this `spilled`
    /// flag indexes.
    pub(crate) fn buffer(self, spilled: bool) -> &'a [u8] {
        if spilled {
            self.spill
        } else {
            self.arena
        }
    }

    /// The bytes of `span`.
    pub(crate) fn bytes(self, span: Span) -> &'a [u8] {
        &self.buffer(span.spilled)[span.start..span.end]
    }
}

/// File storage over a [`FlashTranslationLayer`]: shadow data bytes plus an
/// extent allocator, with every page touched played through the device's lane.
#[derive(Debug)]
pub struct FlashStore<F: FlashTranslationLayer> {
    ftl: F,
    /// The device's chip clocks, kept across windows. The store issues every
    /// page when the lane is idle: its arrival discipline is never consulted.
    lane: LaneState,
    page_size: usize,
    io_depth: usize,
    logical_pages: u64,
    /// The shadow bytes of every logical page, by LPN (see the module docs).
    shadow: Vec<u8>,
    /// One bit per LPN, set once the page has been written.
    written: Vec<u64>,
    free: Vec<Extent>,
    /// The requests of the window in flight, reused across windows.
    requests: Vec<IoRequest>,
    /// The completions of the pages of that window the device applied.
    completions: Vec<Completion>,
    /// Where a read that crosses an extent boundary is assembled;
    /// [`FlashStore::read_range`] lends it out until the next such read.
    assembly: Vec<u8>,
}

impl<F: FlashTranslationLayer> FlashStore<F> {
    /// Wraps `ftl`, reserving LPN 0 for the superblock and exposing the rest of
    /// the logical address space to the extent allocator.
    pub fn new(ftl: F) -> Self {
        let logical_pages = ftl.logical_pages();
        let page_size = ftl.device().config().page_size_bytes();
        let serial = ArrivalDiscipline::ClosedLoop { queue_depth: 1 };
        FlashStore {
            lane: LaneState::new(&ftl, &RunOptions::default(), serial),
            ftl,
            page_size,
            io_depth: 1,
            logical_pages,
            // Zeroed by the allocator, not by a write: untouched until used.
            shadow: vec![0u8; logical_pages as usize * page_size],
            written: vec![0u64; (logical_pages as usize).div_ceil(64)],
            free: vec![Extent { start: SUPERBLOCK_LPN + 1, pages: logical_pages - 1 }],
            requests: Vec::new(),
            completions: Vec::new(),
            assembly: Vec::new(),
        }
    }

    /// Flash page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The queue depth multi-page operations are submitted at.
    pub fn io_depth(&self) -> usize {
        self.io_depth
    }

    /// Sets the queue depth for multi-page operations: appends and range reads
    /// go to the lane in windows of up to `depth` pages
    /// ([`LaneState::play_window`]). At depth 1 (the default) op tracing is
    /// off and a window is its one page through scalar `submit`, charged
    /// serially; deeper, tracing stays on, a window is one
    /// [`submit_batch`](FlashTranslationLayer::submit_batch) and takes as long
    /// as its busiest chain on the lane's chip clocks, which — like
    /// [`FlashStore::now`] — carry over a change of depth.
    ///
    /// Raising the depth above 1 also asks the FTL (via
    /// [`set_write_stripe`](FlashTranslationLayer::set_write_stripe)) to
    /// rotate its host write stream across up to one active block per chip, so
    /// the page programs of a window land on different dies and genuinely
    /// overlap; at depth 1 the stripe is released and placement is exactly the
    /// pre-batching single-active-block layout.
    pub fn set_io_depth(&mut self, depth: usize) {
        assert!(depth >= 1, "io_depth must be at least 1");
        self.io_depth = depth;
        let chips = self.ftl.device().config().chips();
        self.ftl.set_write_stripe(if depth > 1 { chips.min(depth) } else { 1 });
        self.ftl.device_mut().set_op_tracing(depth > 1);
    }

    /// The simulated device time: when every page played so far is done.
    /// Snapshot it around an operation to attribute device time to it.
    pub fn now(&self) -> Nanos {
        self.lane.now()
    }

    /// The wrapped FTL (metrics snapshots, device inspection).
    pub fn ftl(&self) -> &F {
        &self.ftl
    }

    /// Free pages remaining in the allocator.
    pub fn free_pages(&self) -> u64 {
        self.free.iter().map(|extent| extent.pages).sum()
    }

    /// True when `lpn` holds data written through this store's lifetime of the
    /// device (the shadow table survives a KV-level crash, the in-memory store
    /// state does not).
    pub fn is_written(&self, lpn: u64) -> bool {
        lpn < self.logical_pages && self.written[(lpn / 64) as usize] & (1 << (lpn % 64)) != 0
    }

    /// Allocates `pages` pages as one or more extents (first-fit, splitting the
    /// last extent taken).
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfSpace`] when fewer than `pages` pages are free; the free
    /// list is left untouched in that case.
    pub fn alloc_run(&mut self, pages: u64) -> Result<Vec<Extent>, KvError> {
        if pages == 0 {
            return Ok(Vec::new());
        }
        if self.free_pages() < pages {
            return Err(KvError::OutOfSpace);
        }
        let mut run = Vec::new();
        let mut wanted = pages;
        while wanted > 0 {
            let extent = self.free.first_mut().expect("free total was checked above");
            let take = wanted.min(extent.pages);
            run.push(Extent { start: extent.start, pages: take });
            extent.start += take;
            extent.pages -= take;
            if extent.pages == 0 {
                self.free.remove(0);
            }
            wanted -= take;
        }
        Ok(run)
    }

    /// Returns extents to the free list, coalescing adjacent runs. The shadow
    /// bytes stay in place — stale data remains "on media" until the LPNs are
    /// overwritten, exactly like real flash without trim.
    pub fn free_extents(&mut self, extents: &[Extent]) {
        for &extent in extents {
            if extent.pages == 0 {
                continue;
            }
            let at = self
                .free
                .partition_point(|candidate| candidate.start < extent.start);
            self.free.insert(at, extent);
            // Coalesce with the successor, then the predecessor.
            if at + 1 < self.free.len()
                && self.free[at].start + self.free[at].pages == self.free[at + 1].start
            {
                self.free[at].pages += self.free[at + 1].pages;
                self.free.remove(at + 1);
            }
            if at > 0 && self.free[at - 1].start + self.free[at - 1].pages == self.free[at].start {
                self.free[at - 1].pages += self.free[at].pages;
                self.free.remove(at);
            }
        }
    }

    /// Deletes a file: all its extents return to the allocator. No device
    /// traffic is charged (dropping a file writes nothing).
    pub fn delete(&mut self, file: SegmentFile) {
        self.free_extents(&file.extents);
    }

    /// Rebuilds the free list as the complement of `used` (crash recovery: the
    /// manifest is the source of truth for which extents are live, and anything
    /// allocated after the last manifest write — a half-built table, say — must
    /// return to the pool instead of leaking). The superblock LPN stays
    /// reserved. `used` extents must not overlap.
    pub fn reset_allocator(&mut self, used: &[Extent]) {
        let mut used: Vec<Extent> = used.iter().copied().filter(|e| e.pages > 0).collect();
        used.sort_by_key(|extent| extent.start);
        debug_assert!(used
            .windows(2)
            .all(|pair| pair[0].start + pair[0].pages <= pair[1].start));
        self.free.clear();
        let mut cursor = SUPERBLOCK_LPN + 1;
        for extent in &used {
            if extent.start > cursor {
                self.free.push(Extent { start: cursor, pages: extent.start - cursor });
            }
            cursor = cursor.max(extent.start + extent.pages);
        }
        if cursor < self.logical_pages {
            self.free.push(Extent { start: cursor, pages: self.logical_pages - cursor });
        }
    }

    /// Checks the allocator against `referenced`, the extents the store's
    /// client holds (its files' and those it has yet to free): every LPN past
    /// the superblock's is either free or referenced — not both, and by no two
    /// extents — and none lies outside the device.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub(crate) fn check_allocation(&self, referenced: &[Extent]) -> Result<(), String> {
        let tagged = |extents: &[Extent], free: bool| {
            let live = extents.iter().filter(|extent| extent.pages > 0);
            live.map(move |&extent| (extent, free)).collect::<Vec<_>>()
        };
        let mut all = tagged(&self.free, true);
        all.extend(tagged(referenced, false));
        all.sort_by_key(|(extent, _)| extent.start);
        let describe = |(extent, free): (Extent, bool)| {
            let kind = if free { "free" } else { "referenced" };
            format!("{kind} LPNs [{}, {})", extent.start, extent.start + extent.pages)
        };
        let first_allocatable = SUPERBLOCK_LPN + 1;
        if let Some(&outside) = all.iter().find(|(extent, _)| {
            extent.start < first_allocatable || extent.start + extent.pages > self.logical_pages
        }) {
            return Err(format!("{} lie outside the allocatable device", describe(outside)));
        }
        for pair in all.windows(2) {
            if pair[0].0.start + pair[0].0.pages > pair[1].0.start {
                return Err(format!("{} overlap {}", describe(pair[0]), describe(pair[1])));
            }
        }
        let covered: u64 = all.iter().map(|(extent, _)| extent.pages).sum();
        if covered != self.logical_pages - 1 {
            return Err(format!(
                "{covered} of {} allocatable LPNs are free or referenced: the rest leaked",
                self.logical_pages - 1
            ));
        }
        Ok(())
    }

    /// Reads one page, charging the read (retry ladder included) to the lane.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when the page was never written through this
    /// store or the device reports the data uncorrectable (the retry ladder ran
    /// dry — with fault injection on, data loss is real); other FTL failures
    /// pass through.
    pub fn read_page(&mut self, lpn: u64) -> Result<&[u8], KvError> {
        if !self.is_written(lpn) {
            return Err(KvError::Corruption(format!("read of never-written LPN {lpn}")));
        }
        let completion = self.play_page(IoOp::Read, lpn, 0)?;
        if completion.uncorrectable {
            return Err(KvError::Corruption(format!("uncorrectable read of LPN {lpn}")));
        }
        Ok(self.page(lpn))
    }

    /// Plays one scalar page: a one-page chain from the lane's idle instant.
    fn play_page(&mut self, op: IoOp, lpn: u64, request_bytes: u32) -> Result<Completion, KvError> {
        let mut chain = PageChain { now: self.lane.now(), service: Nanos::ZERO };
        Ok(self.lane.play_page(&mut self.ftl, &mut chain, op, Lpn(lpn), request_bytes)?)
    }

    /// Plays `self.requests` — the reads, or the writes, of one queue-depth
    /// window. The first uncorrectable read is [`KvError::Corruption`].
    fn play_window(&mut self) -> Result<(), KvError> {
        self.lane.play_window(&mut self.ftl, &self.requests, &mut self.completions)?;
        match self.completions.iter().position(|completion| completion.uncorrectable) {
            Some(lost) => {
                let lpn = self.requests[lost].lpn.0;
                Err(KvError::Corruption(format!("uncorrectable read of LPN {lpn}")))
            }
            None => Ok(()),
        }
    }

    /// Where the shadow bytes of `lpn` lie in the arena.
    fn page_span(&self, lpn: u64) -> Range<usize> {
        let start = lpn as usize * self.page_size;
        start..start + self.page_size
    }

    /// The shadow bytes of a page the caller has checked (or charged) already.
    fn page(&self, lpn: u64) -> &[u8] {
        debug_assert!(self.is_written(lpn), "the page was checked to be written");
        &self.shadow[self.page_span(lpn)]
    }

    /// Writes `bytes` into the shadow page of `lpn` at byte `at`. A write
    /// starting at byte 0 replaces the page: everything past the new bytes is
    /// zeroed, so a reused page (a WAL region after its reset) never keeps
    /// stale bytes behind fresh ones — a page never written before is zero
    /// there already. A write further in extends the tail page of a file,
    /// whose bytes past the logical end are zero already.
    fn fill_page(&mut self, lpn: u64, at: usize, bytes: &[u8]) {
        let reused = self.is_written(lpn);
        assert!(reused || at == 0, "partial tail page must have been written before");
        self.written[(lpn / 64) as usize] |= 1 << (lpn % 64);
        let span = self.page_span(lpn);
        let page = &mut self.shadow[span];
        page[at..at + bytes.len()].copy_from_slice(bytes);
        if at == 0 && reused {
            page[bytes.len()..].fill(0);
        }
    }

    /// Charges one scalar page program of `lpn` to the lane.
    fn charge_write(&mut self, lpn: u64, request_bytes: u32) -> Result<(), KvError> {
        self.play_page(IoOp::Write, lpn, request_bytes).map(drop)
    }

    /// Charges device time for reading every LPN of `lpns`, one queue-depth
    /// window at a time. The bytes themselves come from the shadow table
    /// afterwards — this pays for the traffic.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] for never-written LPNs (checked up front, before
    /// any device traffic) and for uncorrectable reads.
    fn charge_reads(&mut self, lpns: impl Iterator<Item = u64> + Clone) -> Result<(), KvError> {
        for lpn in lpns.clone() {
            if !self.is_written(lpn) {
                return Err(KvError::Corruption(format!("read of never-written LPN {lpn}")));
            }
        }
        let mut lpns = lpns;
        loop {
            self.requests.clear();
            self.requests
                .extend(lpns.by_ref().take(self.io_depth).map(|lpn| IoRequest::read(Lpn(lpn))));
            if self.requests.is_empty() {
                return Ok(());
            }
            self.play_window()?;
        }
    }

    /// Reads a run of whole pages (in `lpns` order) and returns their
    /// concatenated contents, windowing the device traffic at the configured
    /// queue depth. The WAL recovery scan reads its written prefix through
    /// this in one sweep instead of page-at-a-time.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] for never-written LPNs or uncorrectable reads;
    /// other FTL failures pass through.
    pub fn read_pages(&mut self, lpns: &[u64]) -> Result<Vec<u8>, KvError> {
        self.charge_reads(lpns.iter().copied())?;
        let mut out = Vec::with_capacity(lpns.len() * self.page_size);
        for &lpn in lpns {
            out.extend_from_slice(self.page(lpn));
        }
        Ok(out)
    }

    /// Appends `bytes` to `file`, allocating pages on demand and charging one
    /// page program per page touched, one queue-depth window at a time. Each
    /// window's bytes go into the shadow pages in place once its programs
    /// succeeded, so an append that fails leaves the pages of the failing and
    /// all later windows — and `file.len()` — untouched (the programs applied
    /// before the refused one are counted and charged all the same). A partial
    /// tail page is rewritten (same LPN), which models the WAL's torn-page
    /// overwrite cost faithfully: the old version of the page is invalidated
    /// and a fresh program pays for the new one; its already-appended prefix is
    /// simply left where it is, the way a real writer keeps its tail page in a
    /// RAM buffer.
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfSpace`] when the allocator cannot grow the file;
    /// [`KvError::ReadOnly`] and FTL failures from the page programs.
    pub fn append(
        &mut self,
        file: &mut SegmentFile,
        bytes: &[u8],
        request_bytes: u32,
    ) -> Result<(), KvError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let page_size = self.page_size as u64;
        let start = file.len;
        let end = start + bytes.len() as u64;
        self.reserve(file, end.div_ceil(page_size))?;
        let lpn_of = |page: u64| file.lpn_at(page).expect("capacity was reserved above");
        let last_page = (end - 1) / page_size;
        let mut page = start / page_size;
        while page <= last_page {
            let window = page..(page + self.io_depth as u64).min(last_page + 1);
            self.requests.clear();
            self.requests.extend(
                window.clone().map(|page| IoRequest::write(Lpn(lpn_of(page)), request_bytes)),
            );
            self.play_window()?;
            for page in window.clone() {
                let page_start = page * page_size;
                let from = page_start.max(start);
                let to = (page_start + page_size).min(end);
                self.fill_page(
                    lpn_of(page),
                    (from - page_start) as usize,
                    &bytes[(from - start) as usize..(to - start) as usize],
                );
            }
            page = window.end;
        }
        file.len = end;
        Ok(())
    }

    /// Reserves capacity so the file spans at least `pages` pages (the WAL
    /// preallocates its whole region once, then appends never allocate).
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfSpace`] when the allocator cannot satisfy the request.
    pub fn reserve(&mut self, file: &mut SegmentFile, pages: u64) -> Result<(), KvError> {
        if pages > file.pages() {
            let grown = self.alloc_run(pages - file.pages())?;
            file.extents.extend(grown);
        }
        Ok(())
    }

    /// Charges one page read per page of `[offset, offset + len)` and says
    /// where the range lies: `Ok(Some(start))` when its pages sit on
    /// consecutive LPNs — inside one extent of the file — and the range is the
    /// arena's bytes from `start` on; `Ok(None)` when it crosses into the
    /// file's next extent and has to be gathered page by page.
    fn charge_range(
        &mut self,
        file: &SegmentFile,
        offset: u64,
        len: usize,
    ) -> Result<Option<usize>, KvError> {
        debug_assert!(len > 0, "callers answer an empty range themselves");
        let end = offset + len as u64;
        if end > file.len {
            return Err(KvError::Corruption(format!(
                "read of [{offset}, {end}) past file length {}",
                file.len
            )));
        }
        let page_size = self.page_size as u64;
        let (first_page, last_page) = (offset / page_size, (end - 1) / page_size);
        let pages = last_page - first_page + 1;
        let (first_lpn, consecutive) =
            file.run_at(first_page).expect("range is within the file length");
        if pages <= consecutive {
            self.charge_reads(first_lpn..first_lpn + pages)?;
            let within_page = (offset - first_page * page_size) as usize;
            return Ok(Some(self.page_span(first_lpn).start + within_page));
        }
        let lpns = (first_page..=last_page)
            .map(|page| file.lpn_at(page).expect("range is within the file length"));
        self.charge_reads(lpns)?;
        Ok(None)
    }

    /// Appends the bytes `[offset, offset + len)` of `file` to `out`, page
    /// piece by page piece (no device traffic: the range was charged).
    fn gather(&self, file: &SegmentFile, offset: u64, len: usize, out: &mut Vec<u8>) {
        let page_size = self.page_size as u64;
        let end = offset + len as u64;
        let mut at = offset;
        while at < end {
            let page = at / page_size;
            let upto = end.min((page + 1) * page_size);
            let lpn = file.lpn_at(page).expect("range is within the file length");
            let within_page = (at - page * page_size) as usize;
            out.extend_from_slice(&self.page(lpn)[within_page..within_page + (upto - at) as usize]);
            at = upto;
        }
    }

    /// Reads `len` bytes at `offset`, charging one page read per page touched.
    /// The bytes are lent, not copied, whenever the range's pages sit on
    /// consecutive LPNs — inside one extent of the file — where they are one
    /// slice of the shadow arena; a range that crosses into the file's next
    /// extent is assembled in a buffer the store reuses for the next such read.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when the range reaches past the file's length;
    /// read errors pass through.
    pub fn read_range(
        &mut self,
        file: &SegmentFile,
        offset: u64,
        len: usize,
    ) -> Result<&[u8], KvError> {
        if len == 0 {
            return Ok(&[]);
        }
        if let Some(start) = self.charge_range(file, offset, len)? {
            return Ok(&self.shadow[start..start + len]);
        }
        let mut assembly = std::mem::take(&mut self.assembly);
        assembly.clear();
        self.gather(file, offset, len, &mut assembly);
        self.assembly = assembly;
        Ok(&self.assembly)
    }

    /// [`FlashStore::read_range`] for a reader that keeps the bytes past the
    /// store's next read or write (a compaction holds every input while it
    /// writes its outputs): the same page reads are charged, and instead of a
    /// borrow the caller gets the [`Span`] the bytes lie at — in the arena
    /// when the range sits in one extent, else appended to `spill`.
    ///
    /// # Errors
    ///
    /// As for [`FlashStore::read_range`]; `spill` is untouched then.
    pub(crate) fn read_span(
        &mut self,
        file: &SegmentFile,
        offset: u64,
        len: usize,
        spill: &mut Vec<u8>,
    ) -> Result<Span, KvError> {
        if len == 0 {
            return Ok(Span { spilled: false, start: 0, end: 0 });
        }
        if let Some(start) = self.charge_range(file, offset, len)? {
            return Ok(Span { spilled: false, start, end: start + len });
        }
        let start = spill.len();
        self.gather(file, offset, len, spill);
        Ok(Span { spilled: true, start, end: start + len })
    }

    /// The arena and `spill`, for looking at the bytes of spans that
    /// [`FlashStore::read_span`] returned with this spill buffer.
    pub(crate) fn lent<'a>(&'a self, spill: &'a [u8]) -> Lent<'a> {
        Lent { arena: &self.shadow, spill }
    }

    /// The shadow byte at `offset` of `file`, for a test to damage.
    #[cfg(test)]
    pub(crate) fn shadow_byte_mut(&mut self, file: &SegmentFile, offset: u64) -> &mut u8 {
        let page_size = self.page_size as u64;
        let lpn = file.lpn_at(offset / page_size).expect("offset is within the file");
        let at = self.page_span(lpn).start + (offset % page_size) as usize;
        &mut self.shadow[at]
    }

    /// True once a superblock has been written (distinguishes a fresh device
    /// from one holding a recoverable store).
    pub fn has_superblock(&self) -> bool {
        self.is_written(SUPERBLOCK_LPN)
    }

    /// Writes `payload` (at most one page) to the fixed superblock LPN.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when the payload exceeds a page; write errors
    /// pass through.
    pub fn write_superblock(&mut self, payload: &[u8]) -> Result<(), KvError> {
        if payload.len() > self.page_size {
            return Err(KvError::Corruption(format!(
                "superblock payload of {} bytes exceeds the {}-byte page",
                payload.len(),
                self.page_size
            )));
        }
        self.charge_write(SUPERBLOCK_LPN, self.page_size as u32)?;
        self.fill_page(SUPERBLOCK_LPN, 0, payload);
        Ok(())
    }

    /// Reads the superblock page.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when no superblock was ever written; read errors
    /// pass through.
    pub fn read_superblock(&mut self) -> Result<Vec<u8>, KvError> {
        Ok(self.read_page(SUPERBLOCK_LPN)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use vflash_ftl::{BatchCompletion, ConventionalFtl, FtlConfig, FtlError, FtlMetrics};
    use vflash_nand::{ChipClocks, NandConfig, NandDevice};

    fn store() -> FlashStore<ConventionalFtl> {
        let device = NandDevice::new(NandConfig::small());
        FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).unwrap())
    }

    #[test]
    fn append_then_read_round_trips_across_page_boundaries() {
        let mut store = store();
        let page = store.page_size();
        let mut file = SegmentFile::new();
        let data: Vec<u8> = (0..page * 2 + 100).map(|i| (i % 251) as u8).collect();
        // Append in uneven chunks so tail pages are rewritten.
        for chunk in data.chunks(page / 3 + 7) {
            store.append(&mut file, chunk, chunk.len() as u32).unwrap();
        }
        assert_eq!(file.len(), data.len() as u64);
        let read = store.read_range(&file, 0, data.len()).unwrap();
        assert_eq!(read, data);
        // An interior slice straddling a page boundary.
        let slice = store.read_range(&file, page as u64 - 10, 30).unwrap();
        assert_eq!(slice, &data[page - 10..page + 20]);
        assert!(store.now() > Nanos::ZERO, "device time must be charged");
        assert!(store.ftl().metrics().host_writes >= 3);
    }

    #[test]
    fn tail_page_rewrites_cost_extra_programs() {
        let mut store = store();
        let mut file = SegmentFile::new();
        for _ in 0..10 {
            store.append(&mut file, &[7u8; 16], 16).unwrap();
        }
        // Ten small appends into one page: ten programs of the same LPN.
        assert_eq!(store.ftl().metrics().host_writes, 10);
        assert_eq!(file.pages(), 1);
    }

    #[test]
    fn alloc_free_coalesces_and_reuses() {
        let mut store = store();
        let total = store.free_pages();
        let a = store.alloc_run(4).unwrap();
        let b = store.alloc_run(4).unwrap();
        assert_eq!(store.free_pages(), total - 8);
        store.free_extents(&a);
        store.free_extents(&b);
        assert_eq!(store.free_pages(), total);
        assert_eq!(store.free.len(), 1, "adjacent frees must coalesce");
        // Allocating everything succeeds; one more page does not.
        let all = store.alloc_run(total).unwrap();
        assert!(matches!(store.alloc_run(1), Err(KvError::OutOfSpace)));
        store.free_extents(&all);
    }

    #[test]
    fn check_allocation_finds_leaks_overlaps_and_double_references() {
        let mut store = store();
        assert_eq!(store.check_allocation(&[]), Ok(()));
        let run = store.alloc_run(3).unwrap();
        assert_eq!(store.check_allocation(&run), Ok(()));
        let leaked = store.check_allocation(&[]).unwrap_err();
        assert!(leaked.contains("leaked"), "{leaked}");
        let twice = store.check_allocation(&[run[0], run[0]]).unwrap_err();
        assert!(twice.contains("referenced LPNs [1, 4) overlap referenced LPNs [1, 4)"), "{twice}");
        let superblock = Extent { start: SUPERBLOCK_LPN, pages: 1 };
        assert!(store.check_allocation(&[superblock, run[0]]).unwrap_err().contains("outside"));
        store.free_extents(&run);
        let freed = store.check_allocation(&run).unwrap_err();
        assert!(freed.contains("overlap") && freed.contains("free"), "{freed}");
    }

    #[test]
    fn superblock_round_trips_and_marks_the_store_formatted() {
        let mut store = store();
        assert!(!store.has_superblock());
        store.write_superblock(b"vflash-kv superblock").unwrap();
        assert!(store.has_superblock());
        let payload = store.read_superblock().unwrap();
        assert_eq!(&payload[..20], b"vflash-kv superblock");
    }

    #[test]
    fn batched_io_round_trips_and_runs_faster_on_multiple_chips() {
        let multi_chip = || {
            let config = NandConfig::builder()
                .chips(4)
                .blocks_per_chip(16)
                .pages_per_block(16)
                .page_size_bytes(4096)
                .build()
                .unwrap();
            let device = NandDevice::new(config);
            FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).unwrap())
        };
        let data: Vec<u8> = (0..4096 * 12).map(|i| (i % 249) as u8).collect();

        let mut serial = multi_chip();
        let mut serial_file = SegmentFile::new();
        serial.append(&mut serial_file, &data, data.len() as u32).unwrap();
        let read_start = serial.now();
        let serial_bytes = serial.read_range(&serial_file, 0, data.len()).unwrap().to_vec();
        let serial_read_time = serial.now() - read_start;

        let mut batched = multi_chip();
        batched.set_io_depth(8);
        let mut batched_file = SegmentFile::new();
        batched.append(&mut batched_file, &data, data.len() as u32).unwrap();
        let read_start = batched.now();
        let batched_bytes = batched.read_range(&batched_file, 0, data.len()).unwrap().to_vec();
        let batched_read_time = batched.now() - read_start;

        assert_eq!(serial_bytes, data);
        assert_eq!(batched_bytes, data, "batching must not change the bytes");
        let (metrics, serial_metrics) = (batched.ftl().metrics(), serial.ftl().metrics());
        assert_eq!(
            (metrics.host_writes, metrics.host_reads),
            (serial_metrics.host_writes, serial_metrics.host_reads),
            "batching changes time accounting, not page traffic"
        );
        assert!(
            batched.now() < serial.now(),
            "4 chips at depth 8 must beat the serial clock ({} vs {})",
            batched.now(),
            serial.now()
        );
        assert!(batched_read_time < serial_read_time);
        assert!(metrics.batched_submissions > 0);
        assert_eq!(
            metrics.batched_pages,
            metrics.host_writes + metrics.host_reads,
            "every page of this run went through the batched path"
        );
        assert_eq!(serial_metrics.batched_submissions, 0, "depth 1 never batches");
        // State evolution is identical: same physical traffic, same GC.
        assert_eq!(serial_metrics.gc_copied_pages, metrics.gc_copied_pages);
    }

    #[test]
    fn read_pages_concatenates_whole_pages() {
        let mut store = store();
        let page = store.page_size();
        let mut file = SegmentFile::new();
        let data: Vec<u8> = (0..page * 3).map(|i| (i % 241) as u8).collect();
        store.append(&mut file, &data, data.len() as u32).unwrap();
        let lpns: Vec<u64> = (0..3).map(|i| file.lpn_at(i).unwrap()).collect();
        assert_eq!(store.read_pages(&lpns).unwrap(), data);
        assert!(matches!(store.read_pages(&[9999]), Err(KvError::Corruption(_))));
    }

    #[test]
    fn reads_past_the_end_and_of_unwritten_pages_are_corruption() {
        let mut store = store();
        let mut file = SegmentFile::new();
        store.append(&mut file, &[1, 2, 3], 3).unwrap();
        assert!(matches!(store.read_range(&file, 0, 4), Err(KvError::Corruption(_))));
        assert!(matches!(store.read_page(5), Err(KvError::Corruption(_))));
    }

    #[test]
    fn ranges_inside_one_extent_are_lent_from_the_arena_and_others_assembled() {
        let mut store = store();
        let page = store.page_size();
        // Fragment the allocator: two free two-page holes with a live page
        // between them, so a four-page file takes one extent from each.
        let first_hole = store.alloc_run(2).unwrap();
        let _between = store.alloc_run(1).unwrap();
        let second_hole = store.alloc_run(2).unwrap();
        store.free_extents(&first_hole);
        store.free_extents(&second_hole);
        let mut file = SegmentFile::new();
        let data: Vec<u8> = (0..page * 4).map(|i| (i % 239) as u8).collect();
        store.append(&mut file, &data, data.len() as u32).unwrap();
        assert_eq!(file.extents(), [first_hole[0], second_hole[0]]);
        assert_eq!(file.run_at(1), Some((first_hole[0].start + 1, 1)));

        // Reads `[offset, offset + len)`, checks bytes and page charge, and
        // says whether the slice lent lies in the arena (else: the assembly).
        let mut read = |offset: usize, len: usize| {
            let reads_before = store.ftl().metrics().host_reads;
            let bytes = store.read_range(&file, offset as u64, len).unwrap();
            assert_eq!(bytes, &data[offset..offset + len], "[{offset}, +{len})");
            let lent = bytes.as_ptr_range();
            let pages = ((offset + len - 1) / page - offset / page + 1) as u64;
            let reads = store.ftl().metrics().host_reads - reads_before;
            assert_eq!(reads, pages, "[{offset}, +{len})");
            let within = |buffer: &[u8]| {
                let buffer = buffer.as_ptr_range();
                buffer.start <= lent.start && lent.end <= buffer.end
            };
            assert!(within(&store.shadow) != within(&store.assembly));
            within(&store.shadow)
        };
        // Inside either extent — one page, both pages, a slice straddling the
        // boundary between them — nothing is copied.
        for (offset, len) in [(7, 100), (0, 2 * page), (page - 10, 30), (2 * page + 5, 2 * page - 5)] {
            assert!(read(offset, len), "[{offset}, +{len}) lies in one extent: lent in place");
        }
        // Across the extent boundary the pages are not neighbours in the
        // arena: the bytes come back exact, through the assembly buffer.
        for (offset, len) in [(2 * page - 10, 30), (0, 4 * page), (page + 1, 2 * page)] {
            assert!(!read(offset, len), "[{offset}, +{len}) crosses extents: assembled");
        }
    }

    /// A conventional FTL that refuses writes on demand, the way a worn-out
    /// device does.
    struct Refusing {
        inner: ConventionalFtl,
        read_only: bool,
    }

    impl FlashTranslationLayer for Refusing {
        fn name(&self) -> &str {
            "refusing"
        }
        fn logical_pages(&self) -> u64 {
            self.inner.logical_pages()
        }
        fn submit(&mut self, request: IoRequest) -> Result<Completion, FtlError> {
            if self.read_only && request.is_write() {
                return Err(FtlError::ReadOnly);
            }
            self.inner.submit(request)
        }
        fn metrics(&self) -> &FtlMetrics {
            self.inner.metrics()
        }
        fn device(&self) -> &NandDevice {
            self.inner.device()
        }
        fn device_mut(&mut self) -> &mut NandDevice {
            self.inner.device_mut()
        }
    }

    #[test]
    fn an_append_refused_as_read_only_leaves_the_tail_page_and_length_untouched() {
        for depth in [1usize, 8] {
            let inner =
                ConventionalFtl::new(NandDevice::new(NandConfig::small()), FtlConfig::default())
                    .unwrap();
            let mut store = FlashStore::new(Refusing { inner, read_only: false });
            store.set_io_depth(depth);
            let page = store.page_size();
            let mut file = SegmentFile::new();
            store.append(&mut file, &vec![7u8; page + 100], 64).unwrap();
            let tail_lpn = file.lpn_at(1).unwrap();
            let tail_before = store.page(tail_lpn).to_vec();
            let (len_before, io_before) = (file.len(), *store.ftl().metrics());

            store.ftl.read_only = true;
            // One record into the tail page, then one reaching past it.
            for size in [50, 2 * page] {
                let refused = store.append(&mut file, &vec![9u8; size], size as u32);
                assert!(matches!(refused, Err(KvError::ReadOnly)), "depth {depth}");
                assert_eq!(file.len(), len_before, "depth {depth}");
                assert_eq!(store.page(tail_lpn), tail_before, "depth {depth}");
                assert_eq!(*store.ftl().metrics(), io_before, "depth {depth}");
            }
            // The file still reads back as it was.
            let bytes = store.read_range(&file, 0, page + 100).unwrap();
            assert!(bytes.iter().all(|&byte| byte == 7));
        }
    }

    #[derive(Debug, Clone)]
    enum FileOp {
        Append(usize, u8),
        Truncate,
    }

    fn file_ops() -> impl Strategy<Value = Vec<FileOp>> {
        // Mostly record-sized appends into 512-byte pages, some spanning
        // several pages (and, at depth 8, one batch window), some resets.
        let op = prop_oneof![
            (1usize..200, any::<u8>()).prop_map(|(len, fill)| FileOp::Append(len, fill)),
            (1usize..700, any::<u8>()).prop_map(|(len, fill)| FileOp::Append(len, fill)),
            (700usize..6_000, any::<u8>()).prop_map(|(len, fill)| FileOp::Append(len, fill)),
            (0u8..1).prop_map(|_| FileOp::Truncate),
        ];
        proptest::collection::vec(op, 1..60)
    }

    /// The accounting the lane replaced, kept as the reference model: a clock
    /// that a scalar page advances by its latency and a batch by the makespan
    /// of its pages' ops on chip clocks that start fresh with every batch.
    struct RetiredClock {
        inner: ConventionalFtl,
        clock: Nanos,
    }

    impl FlashTranslationLayer for RetiredClock {
        fn name(&self) -> &str {
            "retired-clock"
        }
        fn logical_pages(&self) -> u64 {
            self.inner.logical_pages()
        }
        fn submit(&mut self, request: IoRequest) -> Result<Completion, FtlError> {
            let completion = self.inner.submit(request)?;
            self.clock += completion.latency;
            Ok(completion)
        }
        fn submit_batch(&mut self, requests: &[IoRequest]) -> Result<BatchCompletion, FtlError> {
            // The inner FTL's own scalar submissions: `submit` above hears none.
            let batch = self.inner.submit_batch(requests)?;
            let device = self.inner.device();
            let mut clocks = ChipClocks::new(device.config().chips());
            for completion in &batch.completions {
                let mut now = Nanos::ZERO;
                for op in device.ops(completion.ops) {
                    now = clocks.play_op(op.chip.0, now, op.latency);
                }
            }
            self.clock += clocks.makespan();
            Ok(batch)
        }
        fn set_write_stripe(&mut self, lanes: usize) {
            self.inner.set_write_stripe(lanes);
        }
        fn metrics(&self) -> &FtlMetrics {
            self.inner.metrics()
        }
        fn device(&self) -> &NandDevice {
            self.inner.device()
        }
        fn device_mut(&mut self) -> &mut NandDevice {
            self.inner.device_mut()
        }
    }

    #[derive(Debug, Clone)]
    enum DeviceOp {
        Append(usize),
        Truncate,
        /// Start, in thousandths of the file's length, and length.
        ReadRange(u64, usize),
        ReadPages,
        Superblock,
        Depth(usize),
    }

    fn io_depths() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), Just(2usize), Just(8usize), Just(16usize)]
    }

    fn device_ops() -> impl Strategy<Value = Vec<DeviceOp>> {
        let op = prop_oneof![
            (1usize..700).prop_map(DeviceOp::Append),
            (700usize..9_000).prop_map(DeviceOp::Append),
            (0u8..1).prop_map(|_| DeviceOp::Truncate),
            (0u64..1000, 1usize..6_000).prop_map(|(at, len)| DeviceOp::ReadRange(at, len)),
            (0u8..1).prop_map(|_| DeviceOp::ReadPages),
            (0u8..1).prop_map(|_| DeviceOp::Superblock),
            io_depths().prop_map(DeviceOp::Depth),
        ];
        proptest::collection::vec(op, 1..100)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lane — chip clocks kept for the store's life, every window
        /// starting at its idle instant — tells the time the store's own clock
        /// used to: the serial sum at depth 1, fresh chip clocks per window
        /// deeper, through any change of depth.
        #[test]
        fn the_lane_tells_the_time_the_retired_clock_told(
            ops in device_ops(),
            depth in io_depths(),
            four_chips in any::<bool>(),
        ) {
            let config = NandConfig::builder()
                .chips(if four_chips { 4 } else { 1 })
                .blocks_per_chip(if four_chips { 4 } else { 16 })
                .pages_per_block(8)
                .page_size_bytes(512)
                .build()
                .unwrap();
            let device = NandDevice::new(config);
            let inner = ConventionalFtl::new(device, FtlConfig::default()).unwrap();
            let mut store = FlashStore::new(RetiredClock { inner, clock: Nanos::ZERO });
            store.set_io_depth(depth);
            let page_size = store.page_size() as u64;
            let mut file = SegmentFile::new();
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    // Past 40 of the device's 128 pages the file starts over,
                    // in place: the overwrites are what reaches GC.
                    DeviceOp::Append(len) if file.len() + len as u64 <= 40 * page_size => {
                        store.append(&mut file, &vec![step as u8; len], len as u32).unwrap();
                    }
                    DeviceOp::Append(_) | DeviceOp::Truncate => file.truncate(),
                    DeviceOp::ReadRange(at, len) => {
                        let offset = file.len() * at / 1000;
                        let len = len.min((file.len() - offset) as usize);
                        store.read_range(&file, offset, len).unwrap();
                    }
                    DeviceOp::ReadPages => {
                        let written = file.len().div_ceil(page_size);
                        let lpns: Vec<u64> =
                            (0..written).map(|page| file.lpn_at(page).unwrap()).collect();
                        store.read_pages(&lpns).unwrap();
                    }
                    DeviceOp::Superblock => store.write_superblock(&[step as u8; 64]).unwrap(),
                    DeviceOp::Depth(depth) => store.set_io_depth(depth),
                }
                prop_assert_eq!(store.now(), store.ftl().clock, "after step {}", step);
            }
        }

        /// Writing an append into the shadow pages in place must leave every
        /// page it touches byte-equal to what the store used to build for it:
        /// a fresh zeroed page buffer, the already-appended prefix of a partial
        /// tail page copied in, then the new bytes.
        #[test]
        fn in_place_appends_build_the_same_page_images(ops in file_ops(), deep in any::<bool>()) {
            let config = NandConfig::builder()
                .chips(2)
                .blocks_per_chip(16)
                .pages_per_block(16)
                .page_size_bytes(512)
                .build()
                .unwrap();
            let ftl = ConventionalFtl::new(NandDevice::new(config), FtlConfig::default()).unwrap();
            let mut store = FlashStore::new(ftl);
            store.set_io_depth(if deep { 8 } else { 1 });
            let page_size = store.page_size();
            // A WAL-like region (reused in place after `truncate`) that appends
            // may also outgrow.
            let mut file = SegmentFile::new();
            store.reserve(&mut file, 3).unwrap();
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            let mut contents: Vec<u8> = Vec::new();
            for op in ops {
                let FileOp::Append(len, fill) = op else {
                    file.truncate();
                    contents.clear();
                    continue;
                };
                let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                let (start, end) = (contents.len(), contents.len() + len);
                store.append(&mut file, &bytes, len as u32).unwrap();
                contents.extend_from_slice(&bytes);
                for page in start / page_size..=(end - 1) / page_size {
                    let lpn = file.lpn_at(page as u64).unwrap();
                    let page_start = page * page_size;
                    let mut buffer = vec![0u8; page_size];
                    if page_start < start {
                        let keep = start - page_start;
                        buffer[..keep].copy_from_slice(&model[&lpn][..keep]);
                    }
                    let (from, to) = (page_start.max(start), (page_start + page_size).min(end));
                    buffer[from - page_start..to - page_start].copy_from_slice(&contents[from..to]);
                    prop_assert_eq!(store.page(lpn), buffer.as_slice(), "page {}", page);
                    model.insert(lpn, buffer);
                }
                prop_assert_eq!(file.len(), end as u64);
                prop_assert_eq!(store.read_range(&file, 0, end).unwrap(), contents.as_slice());
            }
        }
    }
}
