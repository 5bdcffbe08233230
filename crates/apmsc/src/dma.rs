//! DMA transfers through the MMU.
//!
//! The MSC+ DMA controllers move data between logical address ranges; the
//! MC's MMU translates region run by region run ("the MSC+ can … quickly
//! obtain the converted address from the MMU", §4.1). The functions here
//! perform the data movement functionally; a translation costs no
//! simulated time.

use apmem::{MemError, Memory, Mmu};
use aputil::{PAddr, VAddr};

/// The region run a DMA engine is currently inside: the MMU is asked once
/// per run touched, and every byte (or stride item) that falls in the same
/// run is addressed by offset. A run ends where its region does, so the
/// fault address — the first unmapped byte — is exactly that of
/// translating every access.
#[derive(Debug, Default)]
pub(crate) struct RunCursor {
    /// Logical `[lo, hi)` of the run and the physical address of `lo`.
    lo: u64,
    hi: u64,
    paddr: u64,
}

impl RunCursor {
    /// Physical address of `vaddr` and the bytes left in its run.
    #[inline]
    fn resolve(&mut self, mmu: &Mmu, vaddr: VAddr) -> Result<(PAddr, u64), MemError> {
        let va = vaddr.as_u64();
        if va < self.lo || va >= self.hi {
            let t = mmu.translate(vaddr)?;
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
        mmu: &Mmu,
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
        mmu: &Mmu,
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
/// filling a payload buffer in place).
///
/// # Errors
///
/// [`MemError::PageFault`] at the first unmapped byte — this is the
/// hardware protection check: "the hardware must check for illegal
/// addresses" (§3.2).
pub fn read_virtual_into(
    mmu: &Mmu,
    mem: &Memory,
    vaddr: VAddr,
    out: &mut [u8],
) -> Result<(), MemError> {
    RunCursor::default().read(mmu, mem, vaddr, out)
}

/// Reads `len` logical bytes starting at `vaddr`.
///
/// # Errors
///
/// [`MemError::PageFault`] if any byte in the range is unmapped.
pub fn read_virtual(mmu: &Mmu, mem: &Memory, vaddr: VAddr, len: u64) -> Result<Vec<u8>, MemError> {
    let mut data = vec![0u8; len as usize];
    read_virtual_into(mmu, mem, vaddr, &mut data)?;
    Ok(data)
}

/// Writes `data` to the logical range starting at `vaddr`.
///
/// # Errors
///
/// [`MemError::PageFault`] if any byte in the range is unmapped.
pub fn write_virtual(
    mmu: &Mmu,
    mem: &mut Memory,
    vaddr: VAddr,
    data: &[u8],
) -> Result<(), MemError> {
    RunCursor::default().write(mmu, mem, vaddr, data)
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
        let (mmu, mut mem, base) = setup(4096);
        write_virtual(&mmu, &mut mem, base + 10, b"hello").unwrap();
        let r = read_virtual(&mmu, &mem, base + 10, 5).unwrap();
        assert_eq!(r, b"hello");
    }

    #[test]
    fn round_trip_across_pages() {
        let (mmu, mut mem, base) = setup(3 * 4096);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 253) as u8).collect();
        write_virtual(&mmu, &mut mem, base + 100, &payload).unwrap();
        let r = read_virtual(&mmu, &mem, base + 100, 10_000).unwrap();
        assert_eq!(r, payload);
    }

    #[test]
    fn zero_length_transfer_is_noop() {
        let (mmu, mut mem, base) = setup(4096);
        write_virtual(&mmu, &mut mem, base, &[]).unwrap();
        let r = read_virtual(&mmu, &mem, base, 0).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn unmapped_range_faults() {
        let (mmu, mut mem, base) = setup(4096);
        // Run off the end of the mapping.
        assert!(matches!(
            write_virtual(&mmu, &mut mem, base + 4090, &[0u8; 16]),
            Err(MemError::PageFault { .. })
        ));
        assert!(read_virtual(&mmu, &mem, VAddr::new(0xdddd_0000), 1).is_err());
    }

    #[test]
    fn large_page_transfer_round_trips() {
        let mut mmu = Mmu::new(16 << 20);
        let mut mem = Memory::new(16 << 20);
        let base = mmu.map_anywhere(512 * 1024).unwrap(); // large pages
        let payload = vec![0xa5u8; 300_000];
        write_virtual(&mmu, &mut mem, base, &payload).unwrap();
        let r = read_virtual(&mmu, &mem, base, 300_000).unwrap();
        assert_eq!(r, payload);
    }
}
