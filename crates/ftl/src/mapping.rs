//! Page-level logical-to-physical mapping.

use vflash_nand::{BlockAddr, ChipId, PageAddr, PageId};

use crate::types::Lpn;

/// Bits of a packed forward entry given to the page index within its block.
const PAGE_BITS: u32 = 24;
/// Bits given to the block index within its chip.
const BLOCK_BITS: u32 = 24;
/// Bits given to the chip index: the rest of the `u64`.
const CHIP_BITS: u32 = u64::BITS - BLOCK_BITS - PAGE_BITS;
/// The forward entry of an unmapped LPN. Its chip field is all ones, a chip
/// `MappingTable::check_geometry` never admits, so no address packs to it.
const UNMAPPED: u64 = u64::MAX;
/// The reverse entry of a physical page holding no LPN.
const EMPTY: u32 = u32::MAX;

/// A dense page-level mapping table with a reverse map.
///
/// * forward: logical page number → physical page address (for host reads/writes),
/// * reverse: physical page address → logical page number (for garbage collection,
///   which must know which LPN a relocated page belongs to).
///
/// Both directions are stored as flat vectors indexed by page ordinal, so lookups are
/// O(1) and the memory footprint is predictable even for multi-million-page devices:
/// a forward entry is one `u64` packing chip / block / page into 16 / 24 / 24 bits,
/// a reverse entry one `u32` LPN, 12 bytes per logical/physical page pair (Table 1's
/// 64 GB device, ≈4.2M pages, costs ≈48 MiB). The packing addresses fewer than
/// 2^16 chips, 2^24 blocks per chip and 2^24 pages per block, and fewer than
/// `u32::MAX` logical pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingTable {
    forward: Vec<u64>,
    reverse: Vec<u32>,
    blocks_per_chip: usize,
    pages_per_block: usize,
    mapped: u64,
}

impl MappingTable {
    /// Creates an empty mapping for `logical_pages` LPNs over a device with the given
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics on a geometry the packing cannot address (see the type's docs);
    /// `FtlCore::new` refuses those with an error first.
    pub fn new(
        logical_pages: u64,
        chips: usize,
        blocks_per_chip: usize,
        pages_per_block: usize,
    ) -> Self {
        if let Err(reason) =
            Self::check_geometry(logical_pages, chips, blocks_per_chip, pages_per_block)
        {
            panic!("{reason}");
        }
        let physical_pages = chips * blocks_per_chip * pages_per_block;
        MappingTable {
            forward: vec![UNMAPPED; logical_pages as usize],
            reverse: vec![EMPTY; physical_pages],
            blocks_per_chip,
            pages_per_block,
            mapped: 0,
        }
    }

    /// Whether the packed entries can address this geometry: fewer than 2^16 chips,
    /// fewer than 2^24 blocks per chip and pages per block, and fewer than
    /// `u32::MAX` logical pages. The error names the first limit exceeded.
    pub(crate) fn check_geometry(
        logical_pages: u64,
        chips: usize,
        blocks_per_chip: usize,
        pages_per_block: usize,
    ) -> Result<(), String> {
        let limits = [
            ("chips", chips as u64, 1 << CHIP_BITS),
            ("blocks per chip", blocks_per_chip as u64, 1 << BLOCK_BITS),
            ("pages per block", pages_per_block as u64, 1 << PAGE_BITS),
            ("logical pages", logical_pages, u64::from(EMPTY)),
        ];
        match limits.into_iter().find(|&(_, value, limit)| value >= limit) {
            Some((what, value, limit)) => Err(format!(
                "{value} {what} is past what the mapping table addresses (fewer than {limit})"
            )),
            None => Ok(()),
        }
    }

    /// Number of logical pages this table can map.
    pub fn logical_pages(&self) -> u64 {
        self.forward.len() as u64
    }

    /// Number of logical pages currently mapped.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Whether `lpn` is inside the exported logical range.
    pub fn contains(&self, lpn: Lpn) -> bool {
        lpn.as_usize() < self.forward.len()
    }

    fn pack(addr: PageAddr) -> u64 {
        let block = addr.block();
        ((block.chip().0 as u64) << (BLOCK_BITS + PAGE_BITS))
            | ((block.index() as u64) << PAGE_BITS)
            | addr.page().0 as u64
    }

    fn unpack(entry: u64) -> Option<PageAddr> {
        if entry == UNMAPPED {
            return None;
        }
        let field = |shift: u32, bits: u32| ((entry >> shift) & ((1 << bits) - 1)) as usize;
        let chip = ChipId(field(BLOCK_BITS + PAGE_BITS, CHIP_BITS));
        let block = BlockAddr::new(chip, field(PAGE_BITS, BLOCK_BITS));
        Some(block.page(PageId(field(0, PAGE_BITS))))
    }

    fn page_ordinal(&self, addr: PageAddr) -> usize {
        addr.block().flat_index(self.blocks_per_chip) * self.pages_per_block
            + addr.page().0
    }

    /// The physical location of `lpn`, if it has been written.
    pub fn lookup(&self, lpn: Lpn) -> Option<PageAddr> {
        self.forward.get(lpn.as_usize()).and_then(|&entry| Self::unpack(entry))
    }

    /// Maps `lpn` to `addr`, returning the previous physical location if the LPN was
    /// already mapped (the caller is responsible for invalidating it on the device).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the logical range; FTLs validate the range before
    /// mapping.
    pub fn map(&mut self, lpn: Lpn, addr: PageAddr) -> Option<PageAddr> {
        let entry = &mut self.forward[lpn.as_usize()];
        let previous = Self::unpack(std::mem::replace(entry, Self::pack(addr)));
        if let Some(old) = previous {
            let ordinal = self.page_ordinal(old);
            self.reverse[ordinal] = EMPTY;
        } else {
            self.mapped += 1;
        }
        let ordinal = self.page_ordinal(addr);
        // In range: `check_geometry` keeps every LPN below `EMPTY`.
        self.reverse[ordinal] = lpn.0 as u32;
        previous
    }

    /// Removes the mapping for `lpn`, returning the physical page it pointed to.
    pub fn unmap(&mut self, lpn: Lpn) -> Option<PageAddr> {
        let entry = self.forward.get_mut(lpn.as_usize())?;
        let previous = Self::unpack(std::mem::replace(entry, UNMAPPED));
        if let Some(addr) = previous {
            let ordinal = self.page_ordinal(addr);
            self.reverse[ordinal] = EMPTY;
            self.mapped -= 1;
        }
        previous
    }

    /// The LPN the reverse map holds at `ordinal`, if any.
    fn resident(&self, ordinal: usize) -> Option<Lpn> {
        let lpn = self.reverse[ordinal];
        (lpn != EMPTY).then_some(Lpn(u64::from(lpn)))
    }

    /// Iterates over the logical pages currently stored in `block`, in page order.
    /// Garbage collection uses this to find the LPNs it must relocate.
    pub fn lpns_in_block(&self, block: BlockAddr) -> impl Iterator<Item = (PageId, Lpn)> + '_ {
        let base = block.flat_index(self.blocks_per_chip) * self.pages_per_block;
        (0..self.pages_per_block).filter_map(move |offset| {
            self.resident(base + offset).map(|lpn| (PageId(offset), lpn))
        })
    }

    /// Refills `residents` with the `(physical page, LPN)` pairs currently stored in
    /// `block`, in page order — [`MappingTable::lpns_in_block`] into a buffer the
    /// caller reuses from one relocation to the next, so steady-state garbage
    /// collection does not allocate.
    pub fn residents_into(&self, block: BlockAddr, residents: &mut Vec<(PageAddr, Lpn)>) {
        residents.clear();
        residents.extend(self.lpns_in_block(block).map(|(page, lpn)| (block.page(page), lpn)));
    }

    /// Consistency check used by tests: every forward entry must have a matching
    /// reverse entry and vice versa. Returns the number of mapped pages.
    pub fn check_consistency(&self) -> Result<u64, String> {
        let mut count = 0;
        for lpn_index in 0..self.forward.len() {
            let lpn = Lpn(lpn_index as u64);
            if let Some(addr) = self.lookup(lpn) {
                count += 1;
                let back = self.resident(self.page_ordinal(addr));
                if back != Some(lpn) {
                    return Err(format!(
                        "forward LPN{lpn_index} -> {addr} but reverse says {back:?}"
                    ));
                }
            }
        }
        for ordinal in 0..self.reverse.len() {
            if let Some(lpn) = self.resident(ordinal) {
                let matches = self
                    .lookup(lpn)
                    .map(|addr| self.page_ordinal(addr) == ordinal)
                    .unwrap_or(false);
                if !matches {
                    return Err(format!("reverse ordinal {ordinal} -> {lpn} not mirrored"));
                }
            }
        }
        if count != self.mapped {
            return Err(format!("mapped counter {} != actual {count}", self.mapped));
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MappingTable {
        // 2 chips x 4 blocks x 8 pages = 64 physical pages, 48 logical
        MappingTable::new(48, 2, 4, 8)
    }

    fn addr(chip: usize, block: usize, page: usize) -> PageAddr {
        BlockAddr::new(ChipId(chip), block).page(PageId(page))
    }

    /// The logical page the reverse map holds at `addr`, if any.
    fn reverse_lookup(map: &MappingTable, addr: PageAddr) -> Option<Lpn> {
        map.lpns_in_block(addr.block()).find(|&(page, _)| page == addr.page()).map(|(_, lpn)| lpn)
    }

    #[test]
    fn map_and_lookup_round_trip() {
        let mut map = table();
        assert_eq!(map.lookup(Lpn(5)), None);
        assert_eq!(map.map(Lpn(5), addr(0, 1, 2)), None);
        assert_eq!(map.lookup(Lpn(5)), Some(addr(0, 1, 2)));
        assert_eq!(reverse_lookup(&map, addr(0, 1, 2)), Some(Lpn(5)));
        assert_eq!(map.mapped_pages(), 1);
        map.check_consistency().unwrap();
    }

    #[test]
    fn remapping_returns_previous_location_and_clears_reverse() {
        let mut map = table();
        map.map(Lpn(7), addr(0, 0, 0));
        let old = map.map(Lpn(7), addr(1, 3, 7));
        assert_eq!(old, Some(addr(0, 0, 0)));
        assert_eq!(reverse_lookup(&map, addr(0, 0, 0)), None);
        assert_eq!(reverse_lookup(&map, addr(1, 3, 7)), Some(Lpn(7)));
        assert_eq!(map.mapped_pages(), 1);
        map.check_consistency().unwrap();
    }

    #[test]
    fn unmap_clears_both_directions() {
        let mut map = table();
        map.map(Lpn(3), addr(1, 2, 4));
        assert_eq!(map.unmap(Lpn(3)), Some(addr(1, 2, 4)));
        assert_eq!(map.lookup(Lpn(3)), None);
        assert_eq!(reverse_lookup(&map, addr(1, 2, 4)), None);
        assert_eq!(map.mapped_pages(), 0);
        assert_eq!(map.unmap(Lpn(3)), None);
        map.check_consistency().unwrap();
    }

    #[test]
    fn lpns_in_block_lists_resident_pages_in_order() {
        let mut map = table();
        let block = BlockAddr::new(ChipId(1), 2);
        map.map(Lpn(10), block.page(PageId(0)));
        map.map(Lpn(20), block.page(PageId(3)));
        map.map(Lpn(30), block.page(PageId(7)));
        map.map(Lpn(40), addr(0, 0, 0));
        let resident: Vec<_> = map.lpns_in_block(block).collect();
        assert_eq!(
            resident,
            vec![(PageId(0), Lpn(10)), (PageId(3), Lpn(20)), (PageId(7), Lpn(30))]
        );
    }

    #[test]
    fn contains_checks_logical_range() {
        let map = table();
        assert!(map.contains(Lpn(47)));
        assert!(!map.contains(Lpn(48)));
        assert_eq!(map.logical_pages(), 48);
    }
}
