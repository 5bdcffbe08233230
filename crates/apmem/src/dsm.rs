//! The distributed-shared-memory address map.
//!
//! Paper §4.2: *"The SuperSPARC supports 64 gigabytes of physical address
//! space (36 bit addresses). Each cell uses half of this address space for
//! local memory space and the other half for distributed shared memory
//! space. 32 gigabytes of shared memory space is divided into blocks equally
//! corresponding to each cell. … The MSC+ generates commands to translate
//! the upper 10 bits of physical addresses accessed by the processor to
//! destination cell IDs and the other bits to local addresses at the
//! destination cell."*

use aputil::{CellId, PAddr};

/// Total physical address-space bits.
pub const PHYS_BITS: u32 = 36;
/// Base of the shared half of the address space (bit 35 set).
pub const SHARED_BASE: u64 = 1 << (PHYS_BITS - 1);

/// The machine-wide shared-space map: splits a 36-bit physical address into
/// local vs. shared, and shared addresses into `(cell, local offset)`.
///
/// # Examples
///
/// ```
/// use apmem::DsmMap;
/// use aputil::{CellId, PAddr};
///
/// let map = DsmMap::new(64, 16 << 20); // 64 cells, 16 MB DRAM each
/// let addr = map.shared_addr(CellId::new(3), 0x100).unwrap();
/// let (cell, local) = map.resolve(addr).unwrap();
/// assert_eq!(cell, CellId::new(3));
/// // Shared window aliases the top half of the cell's DRAM.
/// assert_eq!(local.as_u64(), (16 << 20) / 2 + 0x100);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DsmMap {
    ncells: u32,
    block_size: u64,
    dram_size: u64,
    window: u64, // usable bytes per cell block = min(block, dram/2)
}

impl DsmMap {
    /// Creates the map for a machine of `ncells` cells with `dram_size`
    /// bytes of DRAM each.
    ///
    /// The shared half is carved into equal per-cell blocks (the paper
    /// rounds the cell count up to the next power of two for the upper-bits
    /// decode); each block aliases the *top half* of that cell's DRAM, so
    /// the usable window per cell is `min(block_size, dram_size / 2)`.
    ///
    /// # Panics
    ///
    /// Panics if `ncells` is 0 or exceeds 65536. The real machine tops
    /// out at 1024 cells (Table 1); the emulator decodes up to 65536 so
    /// beyond-hardware scaling studies still get a well-formed map.
    pub fn new(ncells: u32, dram_size: u64) -> Self {
        assert!(
            (1..=65536).contains(&ncells),
            "AP1000+ scales 4-1024 cells (the emulator decodes up to 65536)"
        );
        let decode_cells = ncells.next_power_of_two().max(4) as u64;
        let block_size = SHARED_BASE / decode_cells;
        DsmMap {
            ncells,
            block_size,
            dram_size,
            window: block_size.min(dram_size / 2),
        }
    }

    /// Size of each cell's shared block in the 36-bit decode.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Usable bytes of each cell's shared window (limited by DRAM).
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Builds the global shared-space address for byte `offset` of `cell`'s
    /// window. Returns `None` if `offset` exceeds the window or the cell is
    /// out of range.
    pub fn shared_addr(&self, cell: CellId, offset: u64) -> Option<PAddr> {
        if cell.index() >= self.ncells as usize || offset >= self.window {
            return None;
        }
        Some(PAddr::new(
            SHARED_BASE + cell.index() as u64 * self.block_size + offset,
        ))
    }

    /// Resolves a shared-space address to `(owning cell, local physical
    /// address)`. The local address lands in the top half of the owner's
    /// DRAM — "half of the local memory is mapped for shared space" (§4.2).
    ///
    /// Returns `None` for local-half addresses, nonexistent cells, or
    /// offsets beyond the usable window.
    pub fn resolve(&self, addr: PAddr) -> Option<(CellId, PAddr)> {
        let a = addr.as_u64();
        if !(SHARED_BASE..1 << PHYS_BITS).contains(&a) {
            return None;
        }
        let rel = a - SHARED_BASE;
        let cell = rel / self.block_size;
        let offset = rel % self.block_size;
        if cell >= self.ncells as u64 || offset >= self.window {
            return None;
        }
        Some((
            CellId::new(cell as u32),
            PAddr::new(self.dram_size / 2 + offset),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_1024_cells_64mb() {
        // §4.2: 1024 cells, 64 MB local -> 32 MB blocks, half of local
        // memory mapped for shared space.
        let map = DsmMap::new(1024, 64 << 20);
        assert_eq!(map.block_size(), 32 << 20);
        assert_eq!(map.window(), 32 << 20);
        let (cell, local) = map
            .resolve(map.shared_addr(CellId::new(1023), 5).unwrap())
            .unwrap();
        assert_eq!(cell, CellId::new(1023));
        assert_eq!(local.as_u64(), (64 << 20) / 2 + 5);
    }

    #[test]
    fn local_half_is_not_shared() {
        let map = DsmMap::new(16, 16 << 20);
        assert_eq!(map.resolve(PAddr::new(0x1000)), None);
    }

    #[test]
    fn round_trip_all_cells() {
        let map = DsmMap::new(13, 1 << 20); // non-power-of-two cell count
        for c in 0..13u32 {
            let addr = map.shared_addr(CellId::new(c), 1234).unwrap();
            let (cell, local) = map.resolve(addr).unwrap();
            assert_eq!(cell, CellId::new(c));
            assert_eq!(local.as_u64(), (1 << 20) / 2 + 1234);
        }
        // Cell beyond ncells but within the power-of-two decode: unmapped.
        assert_eq!(map.shared_addr(CellId::new(13), 0), None);
        let hole = PAddr::new(SHARED_BASE + 15 * map.block_size());
        assert_eq!(map.resolve(hole), None);
    }

    #[test]
    fn window_limited_by_dram() {
        let map = DsmMap::new(4, 1 << 20); // tiny DRAM: window = 512 KB
        assert_eq!(map.window(), (1 << 20) / 2);
        assert!(map.shared_addr(CellId::new(0), map.window()).is_none());
        assert!(map.shared_addr(CellId::new(0), map.window() - 1).is_some());
    }

    #[test]
    #[should_panic(expected = "1024")]
    fn too_many_cells_panics() {
        let _ = DsmMap::new(65537, 1 << 20);
    }

    #[test]
    fn beyond_hardware_scales_decode() {
        // 4096 cells: the decode carves the shared half into 4096 blocks
        // and addressing still round-trips at the far end.
        let map = DsmMap::new(4096, 16 << 20);
        let last = CellId::new(4095);
        let addr = map.shared_addr(last, 8).unwrap();
        let (cell, _) = map.resolve(addr).unwrap();
        assert_eq!(cell, last);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// shared_addr and resolve are inverses wherever both are defined.
        #[test]
        fn addressing_round_trips(
            ncells in 1u32..=1024,
            cell in 0u32..1024,
            offset in 0u64..(1 << 25),
        ) {
            let map = DsmMap::new(ncells, 64 << 20);
            if let Some(addr) = map.shared_addr(CellId::new(cell), offset) {
                prop_assert!(cell < ncells);
                let (c, local) = map.resolve(addr).expect("must resolve");
                prop_assert_eq!(c, CellId::new(cell));
                prop_assert_eq!(local.as_u64(), (64u64 << 20) / 2 + offset);
            } else {
                prop_assert!(cell >= ncells || offset >= map.window());
            }
        }
    }
}
