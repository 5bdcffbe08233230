//! The MC's MMU: the logical→physical mapping and the frame allocator.
//!
//! Paper §4.1: *"The MC has a translation lookaside buffer (TLB), which is
//! direct-mapped and has 256 entries for every 4-kilobyte page and 64
//! entries for every 256-kilobyte page."* The paper charges no TLB miss,
//! so the TLB is not modeled: it could only cache what the mapping
//! already says. The mapping is one entry per [`Mmu::map_anywhere`]
//! region. [`Layout::place`] makes every region contiguous both logically
//! and physically, so `(base, end, pbase)` translates each of its bytes,
//! and a translation's run is the rest of the region. Page size still
//! decides placement (alignment and rounding), so it fixes every address.

use crate::memory::{MemError, FRAME_SIZE};
use aputil::{PAddr, VAddr};

/// Small (4 KB) page shift.
const SMALL_SHIFT: u32 = 12;
/// Large (256 KB) page shift.
const LARGE_SHIFT: u32 = 18;

/// Page size selector for mappings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageSize {
    /// 4 KB page.
    Small,
    /// 256 KB page.
    Large,
}

impl PageSize {
    /// Page size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Small => 1 << SMALL_SHIFT,
            PageSize::Large => 1 << LARGE_SHIFT,
        }
    }
}

/// Result of one address translation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Translation {
    /// The physical address.
    pub paddr: PAddr,
    /// Bytes left in the region from `paddr` (DMA engines translate once
    /// per region run, not once per byte).
    pub run: u64,
}

/// Where [`Mmu::map_anywhere`] puts the next region: the logical and
/// physical bump cursors against the DRAM size. Placement is a pure
/// function of the allocation sizes so far, so a copy of this value can
/// compute — away from the MMU — the address the MMU will hand out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Layout {
    next_vaddr: u64,
    next_frame: u64,
    dram_size: u64,
}

/// One placed region: `npages` pages of `size`, logically at `base` and
/// physically at `pbase`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Placement {
    /// Logical base address.
    pub base: VAddr,
    /// Physical base address.
    pub pbase: u64,
    /// Page size backing the region.
    pub size: PageSize,
    /// Number of pages.
    pub npages: u64,
}

impl Layout {
    /// An empty address space over `dram_size` bytes of physical memory.
    /// Logical addresses start at 64 KB (the first 16 small pages are a
    /// guard region).
    pub fn new(dram_size: u64) -> Self {
        Layout {
            next_vaddr: 0x1_0000,
            next_frame: 0,
            dram_size,
        }
    }

    /// Places `len` bytes of fresh memory and advances the cursors.
    /// Regions of 256 KB or more use large pages (fewer TLB entries, as
    /// the paper intends for big arrays). A failed placement leaves the
    /// layout unchanged.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfFrames`] when `len` is zero, DRAM is exhausted,
    /// or rounding `len` to whole pages overflows the address space.
    pub fn place(&mut self, len: u64) -> Result<Placement, MemError> {
        let out = MemError::OutOfFrames { requested: len };
        if len == 0 {
            return Err(out);
        }
        let size = if len >= PageSize::Large.bytes() {
            PageSize::Large
        } else {
            PageSize::Small
        };
        let round = |x: u64| x.checked_next_multiple_of(size.bytes());
        let (Some(phys_len), Some(base), Some(pbase)) =
            (round(len), round(self.next_vaddr), round(self.next_frame))
        else {
            return Err(out);
        };
        let (Some(vend), Some(pend)) = (base.checked_add(phys_len), pbase.checked_add(phys_len))
        else {
            return Err(out);
        };
        if pend > self.dram_size {
            return Err(out);
        }
        self.next_vaddr = vend;
        self.next_frame = pend;
        Ok(Placement {
            base: VAddr::new(base),
            pbase,
            size,
            npages: phys_len / size.bytes(),
        })
    }
}

/// One mapped region: logical `[base, end)` at physical `pbase`.
#[derive(Clone, Copy, Debug)]
struct Region {
    base: u64,
    end: u64,
    pbase: u64,
}

/// Per-cell MMU: one mapping entry per region, and the physical-frame
/// allocator.
///
/// Logical address space is laid out by [`Mmu::map_anywhere`], which the
/// runtime's allocator uses: it grabs fresh logical pages backed by fresh
/// physical frames. Address 0 is intentionally never mapped so that
/// [`VAddr::NULL`] always faults if dereferenced (it is the "no flag" / ack
/// sentinel, not a real location).
#[derive(Clone, Debug)]
pub struct Mmu {
    /// Sorted by `base`: the layout only ever moves upward.
    regions: Vec<Region>,
    layout: Layout,
}

impl Mmu {
    /// Creates an MMU managing `dram_size` bytes of physical memory.
    pub fn new(dram_size: u64) -> Self {
        Mmu {
            regions: Vec::new(),
            layout: Layout::new(dram_size),
        }
    }

    /// Where the next [`Mmu::map_anywhere`] will land.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Maps `len` bytes of fresh logical memory, placed by
    /// [`Layout::place`], and returns its base.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfFrames`] when the physical allocator exhausts DRAM.
    pub fn map_anywhere(&mut self, len: u64) -> Result<VAddr, MemError> {
        let Placement {
            base,
            pbase,
            size,
            npages,
        } = self.layout.place(len)?;
        self.regions.push(Region {
            base: base.as_u64(),
            end: base.as_u64() + npages * size.bytes(),
            pbase,
        });
        Ok(base)
    }

    /// Translates a logical address.
    ///
    /// # Errors
    ///
    /// [`MemError::PageFault`] if no mapping covers `vaddr` — the hardware
    /// protection check of §3.2/§4.1.
    pub fn translate(&self, vaddr: VAddr) -> Result<Translation, MemError> {
        let va = vaddr.as_u64();
        let i = self.regions.partition_point(|r| r.end <= va);
        match self.regions.get(i) {
            Some(r) if r.base <= va => Ok(Translation {
                paddr: PAddr::new(r.pbase + (va - r.base)),
                run: r.end - va,
            }),
            _ => Err(MemError::PageFault { addr: vaddr }),
        }
    }
}

// Keep FRAME_SIZE consistent with the small page: DMA and allocator logic
// rely on it.
const _: () = assert!(FRAME_SIZE == 1 << SMALL_SHIFT);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_translate_round_trip() {
        let mut mmu = Mmu::new(1 << 22);
        let a = mmu.map_anywhere(100).unwrap();
        let b = mmu.map_anywhere(100).unwrap();
        assert_ne!(a, b);
        let ta = mmu.translate(a).unwrap();
        let tb = mmu.translate(b).unwrap();
        assert_ne!(ta.paddr, tb.paddr);
        assert_eq!(mmu.regions.len(), 2, "one entry per region");
    }

    #[test]
    fn null_address_faults() {
        let mut mmu = Mmu::new(1 << 22);
        mmu.map_anywhere(4096).unwrap();
        assert!(matches!(
            mmu.translate(VAddr::NULL),
            Err(MemError::PageFault { .. })
        ));
    }

    #[test]
    fn large_regions_use_large_pages() {
        let mut mmu = Mmu::new(1 << 24);
        let a = mmu.map_anywhere(512 * 1024).unwrap(); // 2 large pages
        let t = mmu.translate(a).unwrap();
        assert_eq!(t.run, 2 * PageSize::Large.bytes(), "one run per region");
        // Address in the middle of the second large page.
        let mid = a + (PageSize::Large.bytes() + 12345);
        let tm = mmu.translate(mid).unwrap();
        assert_eq!(
            tm.paddr.as_u64() - t.paddr.as_u64(),
            PageSize::Large.bytes() + 12345
        );
        assert_eq!(tm.run, PageSize::Large.bytes() - 12345);
    }

    #[test]
    fn contiguous_virtual_is_contiguous_physical_within_region() {
        let mut mmu = Mmu::new(1 << 22);
        let a = mmu.map_anywhere(3 * 4096).unwrap();
        let p0 = mmu.translate(a).unwrap().paddr.as_u64();
        let p1 = mmu.translate(a + 4096).unwrap().paddr.as_u64();
        let p2 = mmu.translate(a + 8192).unwrap().paddr.as_u64();
        assert_eq!(p1, p0 + 4096);
        assert_eq!(p2, p0 + 8192);
    }

    #[test]
    fn a_region_ends_at_its_last_whole_page() {
        let mut mmu = Mmu::new(1 << 24);
        let small = mmu.map_anywhere(100).unwrap();
        // The large region is aligned to 256 KB, leaving a gap after the
        // small one.
        let large = mmu.map_anywhere(256 * 1024).unwrap();
        assert_eq!(mmu.translate(small + 4095).unwrap().run, 1);
        let gap = small + 4096;
        assert!(gap < large);
        assert_eq!(mmu.translate(gap), Err(MemError::PageFault { addr: gap }));
        assert_eq!(
            mmu.translate(large - 1),
            Err(MemError::PageFault { addr: large - 1 })
        );
        let end = large + 256 * 1024;
        assert_eq!(mmu.translate(end - 1).unwrap().run, 1);
        assert_eq!(mmu.translate(end), Err(MemError::PageFault { addr: end }));
    }

    #[test]
    fn out_of_frames() {
        let mut mmu = Mmu::new(8 * 4096);
        assert!(mmu.map_anywhere(4 * 4096).is_ok());
        assert!(matches!(
            mmu.map_anywhere(16 * 4096),
            Err(MemError::OutOfFrames { .. })
        ));
    }

    #[test]
    fn lengths_that_overflow_page_rounding_are_out_of_frames() {
        let mut layout = Layout::new(u64::MAX);
        let fresh = layout;
        assert_eq!(
            layout.place(u64::MAX),
            Err(MemError::OutOfFrames {
                requested: u64::MAX
            })
        );
        assert_eq!(layout, fresh, "a failed placement leaves the layout");
        let first = layout.place(4096).unwrap();
        let after = layout;
        let huge = u64::MAX - (1 << 18) + 1;
        assert_eq!(
            layout.place(huge),
            Err(MemError::OutOfFrames { requested: huge })
        );
        assert_eq!(layout, after);
        let next = layout.place(4096).unwrap();
        assert_eq!(next.base, first.base + 4096);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Translation is a bijection on allocated ranges: distinct logical
        /// bytes map to distinct physical bytes.
        #[test]
        fn translation_is_injective(sizes in proptest::collection::vec(1u64..40_000, 1..12)) {
            let mut mmu = Mmu::new(64 << 20);
            let mut seen = std::collections::HashMap::new();
            for len in sizes {
                let base = mmu.map_anywhere(len).unwrap();
                // probe a few offsets in the region
                for off in [0, len / 2, len - 1] {
                    let v = base + off;
                    let p = mmu.translate(v).unwrap().paddr;
                    if let Some(prev) = seen.insert(p, v) {
                        prop_assert_eq!(prev, v, "physical alias detected");
                    }
                }
            }
        }
    }
}
