//! Page-level logical-to-physical mapping.

use vflash_nand::{BlockAddr, ChipId, PageAddr, PageId};

use crate::types::Lpn;

/// A dense page-level mapping table with a reverse map.
///
/// * forward: logical page number → physical page address (for host reads/writes),
/// * reverse: physical page address → logical page number (for garbage collection,
///   which must know which LPN a relocated page belongs to).
///
/// Both directions are stored as flat vectors indexed by page ordinal, so lookups are
/// O(1) and the memory footprint is predictable even for multi-million-page devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingTable {
    forward: Vec<Option<PageAddr>>,
    reverse: Vec<Option<Lpn>>,
    blocks_per_chip: usize,
    pages_per_block: usize,
    mapped: u64,
}

impl MappingTable {
    /// Creates an empty mapping for `logical_pages` LPNs over a device with the given
    /// geometry.
    pub fn new(
        logical_pages: u64,
        chips: usize,
        blocks_per_chip: usize,
        pages_per_block: usize,
    ) -> Self {
        let physical_pages = chips * blocks_per_chip * pages_per_block;
        MappingTable {
            forward: vec![None; logical_pages as usize],
            reverse: vec![None; physical_pages],
            blocks_per_chip,
            pages_per_block,
            mapped: 0,
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

    fn page_ordinal(&self, addr: PageAddr) -> usize {
        addr.block().flat_index(self.blocks_per_chip) * self.pages_per_block
            + addr.page().0
    }

    /// The physical location of `lpn`, if it has been written.
    pub fn lookup(&self, lpn: Lpn) -> Option<PageAddr> {
        self.forward.get(lpn.as_usize()).copied().flatten()
    }

    /// The logical page stored at `addr`, if any.
    pub fn reverse_lookup(&self, addr: PageAddr) -> Option<Lpn> {
        self.reverse.get(self.page_ordinal(addr)).copied().flatten()
    }

    /// Maps `lpn` to `addr`, returning the previous physical location if the LPN was
    /// already mapped (the caller is responsible for invalidating it on the device).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the logical range; FTLs validate the range before
    /// mapping.
    pub fn map(&mut self, lpn: Lpn, addr: PageAddr) -> Option<PageAddr> {
        let previous = self.forward[lpn.as_usize()].replace(addr);
        if let Some(old) = previous {
            let ordinal = self.page_ordinal(old);
            self.reverse[ordinal] = None;
        } else {
            self.mapped += 1;
        }
        let ordinal = self.page_ordinal(addr);
        self.reverse[ordinal] = Some(lpn);
        previous
    }

    /// Removes the mapping for `lpn`, returning the physical page it pointed to.
    pub fn unmap(&mut self, lpn: Lpn) -> Option<PageAddr> {
        let previous = self.forward.get_mut(lpn.as_usize())?.take();
        if let Some(addr) = previous {
            let ordinal = self.page_ordinal(addr);
            self.reverse[ordinal] = None;
            self.mapped -= 1;
        }
        previous
    }

    /// Iterates over the logical pages currently stored in `block`, in page order.
    /// Garbage collection uses this to find the LPNs it must relocate.
    pub fn lpns_in_block(&self, block: BlockAddr) -> impl Iterator<Item = (PageId, Lpn)> + '_ {
        let base = block.flat_index(self.blocks_per_chip) * self.pages_per_block;
        (0..self.pages_per_block).filter_map(move |offset| {
            self.reverse[base + offset].map(|lpn| (PageId(offset), lpn))
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
        for (lpn_index, entry) in self.forward.iter().enumerate() {
            if let Some(addr) = entry {
                count += 1;
                let back = self.reverse[self.page_ordinal(*addr)];
                if back != Some(Lpn(lpn_index as u64)) {
                    return Err(format!(
                        "forward LPN{lpn_index} -> {addr} but reverse says {back:?}"
                    ));
                }
            }
        }
        for (ordinal, entry) in self.reverse.iter().enumerate() {
            if let Some(lpn) = entry {
                let forward = self.forward[lpn.as_usize()];
                let matches = forward
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

    /// Helper constructing a [`BlockAddr`] from a flat block ordinal, the inverse of
    /// [`BlockAddr::flat_index`].
    pub fn block_from_flat(&self, flat: usize) -> BlockAddr {
        BlockAddr::new(ChipId(flat / self.blocks_per_chip), flat % self.blocks_per_chip)
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

    #[test]
    fn map_and_lookup_round_trip() {
        let mut map = table();
        assert_eq!(map.lookup(Lpn(5)), None);
        assert_eq!(map.map(Lpn(5), addr(0, 1, 2)), None);
        assert_eq!(map.lookup(Lpn(5)), Some(addr(0, 1, 2)));
        assert_eq!(map.reverse_lookup(addr(0, 1, 2)), Some(Lpn(5)));
        assert_eq!(map.mapped_pages(), 1);
        map.check_consistency().unwrap();
    }

    #[test]
    fn remapping_returns_previous_location_and_clears_reverse() {
        let mut map = table();
        map.map(Lpn(7), addr(0, 0, 0));
        let old = map.map(Lpn(7), addr(1, 3, 7));
        assert_eq!(old, Some(addr(0, 0, 0)));
        assert_eq!(map.reverse_lookup(addr(0, 0, 0)), None);
        assert_eq!(map.reverse_lookup(addr(1, 3, 7)), Some(Lpn(7)));
        assert_eq!(map.mapped_pages(), 1);
        map.check_consistency().unwrap();
    }

    #[test]
    fn unmap_clears_both_directions() {
        let mut map = table();
        map.map(Lpn(3), addr(1, 2, 4));
        assert_eq!(map.unmap(Lpn(3)), Some(addr(1, 2, 4)));
        assert_eq!(map.lookup(Lpn(3)), None);
        assert_eq!(map.reverse_lookup(addr(1, 2, 4)), None);
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

    #[test]
    fn block_from_flat_inverts_flat_index() {
        let map = table();
        for chip in 0..2 {
            for block in 0..4 {
                let addr = BlockAddr::new(ChipId(chip), block);
                assert_eq!(map.block_from_flat(addr.flat_index(4)), addr);
            }
        }
    }
}
