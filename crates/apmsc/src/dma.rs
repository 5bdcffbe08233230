//! DMA transfers through the MMU.
//!
//! The MSC+ DMA controllers move data between logical address ranges; the
//! MC's MMU translates page-run by page-run ("the MSC+ can … quickly obtain
//! the converted address from the MMU", §4.1). The functions here perform
//! the data movement functionally and report how many TLB misses occurred.
//! Nothing charges a miss: the TLB is a host translation cache, and the
//! count is there for tests that check one translation per page run.

use apmem::{MemError, Memory, Mmu};
use aputil::{PAddr, VAddr};

/// Result of a DMA leg: payload plus translation cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DmaRead {
    /// Bytes read.
    pub data: Vec<u8>,
    /// TLB misses incurred while translating.
    pub tlb_misses: u64,
}

/// The page run a DMA engine is currently inside: the MMU is asked once
/// per run touched, and every byte (or stride item) that falls in the same
/// run is addressed by offset. A translation elided this way could only
/// have been a TLB hit — the line was confirmed by the translation that
/// opened the run and hits do not change TLB state — so `tlb_misses` and
/// the fault address are exactly those of translating every access.
#[derive(Debug, Default)]
pub(crate) struct RunCursor {
    /// Logical `[lo, hi)` of the run and the physical address of `lo`.
    lo: u64,
    hi: u64,
    paddr: u64,
    /// TLB misses incurred opening runs so far.
    pub(crate) tlb_misses: u64,
}

impl RunCursor {
    /// Physical address of `vaddr` and the bytes left in its page run.
    #[inline]
    fn resolve(&mut self, mmu: &mut Mmu, vaddr: VAddr) -> Result<(PAddr, u64), MemError> {
        let va = vaddr.as_u64();
        if va < self.lo || va >= self.hi {
            let t = mmu.translate(vaddr)?;
            if !t.tlb_hit {
                self.tlb_misses += 1;
            }
            self.lo = va;
            self.hi = va + t.run;
            self.paddr = t.paddr.as_u64();
        }
        Ok((PAddr::new(self.paddr + (va - self.lo)), self.hi - va))
    }

    /// Fills `out` from the logical bytes at `vaddr`, run by run.
    // `read` and `write` are the same loop twice on purpose: sharing it
    // through a closure cost a quarter of the stride gather rate.
    #[inline]
    pub(crate) fn read(
        &mut self,
        mmu: &mut Mmu,
        mem: &Memory,
        vaddr: VAddr,
        out: &mut [u8],
    ) -> Result<(), MemError> {
        let mut done = 0usize;
        while done < out.len() {
            let (paddr, run) = self.resolve(mmu, vaddr + done as u64)?;
            let n = run.min((out.len() - done) as u64) as usize;
            mem.read(paddr, &mut out[done..done + n])?;
            done += n;
        }
        Ok(())
    }

    /// Stores `data` to the logical bytes at `vaddr`, run by run.
    #[inline]
    pub(crate) fn write(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut Memory,
        vaddr: VAddr,
        data: &[u8],
    ) -> Result<(), MemError> {
        let mut done = 0usize;
        while done < data.len() {
            let (paddr, run) = self.resolve(mmu, vaddr + done as u64)?;
            let n = run.min((data.len() - done) as u64) as usize;
            mem.write(paddr, &data[done..done + n])?;
            done += n;
        }
        Ok(())
    }
}

/// Reads the logical bytes starting at `vaddr` into `out` (the send DMA
/// filling a payload buffer in place); returns the number of TLB misses.
///
/// # Errors
///
/// [`MemError::PageFault`] at the first unmapped page-run start — this is
/// the hardware protection check: "the hardware must check for illegal
/// addresses" (§3.2).
pub fn read_virtual_into(
    mmu: &mut Mmu,
    mem: &Memory,
    vaddr: VAddr,
    out: &mut [u8],
) -> Result<u64, MemError> {
    let mut cursor = RunCursor::default();
    cursor.read(mmu, mem, vaddr, out)?;
    Ok(cursor.tlb_misses)
}

/// Reads `len` logical bytes starting at `vaddr`.
///
/// # Errors
///
/// [`MemError::PageFault`] if any page in the range is unmapped.
pub fn read_virtual(
    mmu: &mut Mmu,
    mem: &Memory,
    vaddr: VAddr,
    len: u64,
) -> Result<DmaRead, MemError> {
    let mut data = vec![0u8; len as usize];
    let tlb_misses = read_virtual_into(mmu, mem, vaddr, &mut data)?;
    Ok(DmaRead { data, tlb_misses })
}

/// Writes `data` to the logical range starting at `vaddr`; returns the
/// number of TLB misses.
///
/// # Errors
///
/// [`MemError::PageFault`] if any page in the range is unmapped.
pub fn write_virtual(
    mmu: &mut Mmu,
    mem: &mut Memory,
    vaddr: VAddr,
    data: &[u8],
) -> Result<u64, MemError> {
    let mut cursor = RunCursor::default();
    cursor.write(mmu, mem, vaddr, data)?;
    Ok(cursor.tlb_misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(bytes: u64) -> (Mmu, Memory, VAddr) {
        let mut mmu = Mmu::new(16 << 20);
        let mem = Memory::new(16 << 20);
        let base = mmu.map_anywhere(bytes).unwrap();
        (mmu, mem, base)
    }

    #[test]
    fn round_trip_within_page() {
        let (mut mmu, mut mem, base) = setup(4096);
        write_virtual(&mut mmu, &mut mem, base + 10, b"hello").unwrap();
        let r = read_virtual(&mut mmu, &mem, base + 10, 5).unwrap();
        assert_eq!(r.data, b"hello");
    }

    #[test]
    fn round_trip_across_pages_counts_misses() {
        let (mut mmu, mut mem, base) = setup(3 * 4096);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 253) as u8).collect();
        let w_miss = write_virtual(&mut mmu, &mut mem, base + 100, &payload).unwrap();
        assert_eq!(w_miss, 3, "first touch of 3 pages misses 3 times");
        let r = read_virtual(&mut mmu, &mem, base + 100, 10_000).unwrap();
        assert_eq!(r.data, payload);
        assert_eq!(r.tlb_misses, 0, "TLB is now warm");
    }

    #[test]
    fn zero_length_transfer_is_noop() {
        let (mut mmu, mut mem, base) = setup(4096);
        assert_eq!(write_virtual(&mut mmu, &mut mem, base, &[]).unwrap(), 0);
        let r = read_virtual(&mut mmu, &mem, base, 0).unwrap();
        assert!(r.data.is_empty());
    }

    #[test]
    fn unmapped_range_faults() {
        let (mut mmu, mut mem, base) = setup(4096);
        // Run off the end of the mapping.
        assert!(matches!(
            write_virtual(&mut mmu, &mut mem, base + 4090, &[0u8; 16]),
            Err(MemError::PageFault { .. })
        ));
        assert!(read_virtual(&mut mmu, &mem, VAddr::new(0xdddd_0000), 1).is_err());
    }

    #[test]
    fn large_page_transfer_is_single_run() {
        let mut mmu = Mmu::new(16 << 20);
        let mut mem = Memory::new(16 << 20);
        let base = mmu.map_anywhere(512 * 1024).unwrap(); // large pages
        let payload = vec![0xa5u8; 200_000];
        let misses = write_virtual(&mut mmu, &mut mem, base, &payload).unwrap();
        assert_eq!(misses, 1, "200 KB inside one 256 KB page: one walk");
        let r = read_virtual(&mut mmu, &mem, base, 200_000).unwrap();
        assert_eq!(r.data, payload);
    }
}
