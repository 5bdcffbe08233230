//! The MC's fetch-and-increment flag unit.
//!
//! Paper §4.1, "Flag update combined with data transfer": *"the MSC+
//! requests that the MC increment a flag, whose address is shown in the
//! queue when the send DMA operation is completed. The MC converts the flag
//! address from logical to physical using its own MMU and increments the
//! flag value. The MC has an incrementer, which can fetch and increment."*
//!
//! Flags are ordinary `u32` variables in user memory addressed logically;
//! a flag address of 0 means "no flag" and the update is skipped.

use crate::memory::{MemError, Memory};
use crate::mmu::Mmu;
use aputil::VAddr;

/// The fetch-and-increment unit.
///
/// Stateless; owns neither the MMU nor the memory, mirroring the hardware
/// where the incrementer is a datapath inside the MC.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlagUnit;

impl FlagUnit {
    /// Fetch-and-increment the flag at logical `flag` using the given MMU
    /// and memory. Returns the *previous* value, or `None` when `flag` is
    /// the null address (update skipped, per §4.1: "if flag addresses are
    /// specified as 0, MSC+ does not update the flag").
    ///
    /// # Errors
    ///
    /// Propagates [`MemError::PageFault`] from translation and
    /// [`MemError::OutOfBounds`] from the physical access.
    pub fn fetch_increment(
        &self,
        mmu: &mut Mmu,
        mem: &mut Memory,
        flag: VAddr,
    ) -> Result<Option<u32>, MemError> {
        if flag.is_null() {
            return Ok(None);
        }
        let t = mmu.translate(flag)?;
        let old: u32 = mem.read_pod(t.paddr)?;
        mem.write_pod(t.paddr, old.wrapping_add(1))?;
        Ok(Some(old))
    }

    /// Reads a flag's current value without modifying it (the program's
    /// flag-check path).
    ///
    /// # Errors
    ///
    /// Propagates translation and access errors; the null address is an
    /// error here because checking "no flag" is a program bug.
    pub fn read(&self, mmu: &Mmu, mem: &Memory, flag: VAddr) -> Result<u32, MemError> {
        if flag.is_null() {
            return Err(MemError::PageFault { addr: flag });
        }
        let p = mmu.translate_peek(flag)?;
        mem.read_pod(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Memory;

    fn setup() -> (Mmu, Memory, VAddr) {
        let mut mmu = Mmu::new(1 << 20);
        let mem = Memory::new(1 << 20);
        let flag = mmu.map_anywhere(4).unwrap();
        (mmu, mem, flag)
    }

    #[test]
    fn increments_from_zero() {
        let (mut mmu, mut mem, flag) = setup();
        let fu = FlagUnit;
        assert_eq!(
            fu.fetch_increment(&mut mmu, &mut mem, flag).unwrap(),
            Some(0)
        );
        assert_eq!(
            fu.fetch_increment(&mut mmu, &mut mem, flag).unwrap(),
            Some(1)
        );
        assert_eq!(fu.read(&mmu, &mem, flag).unwrap(), 2);
    }

    #[test]
    fn null_flag_is_skipped() {
        let (mut mmu, mut mem, _) = setup();
        let fu = FlagUnit;
        assert_eq!(
            fu.fetch_increment(&mut mmu, &mut mem, VAddr::NULL).unwrap(),
            None
        );
        assert!(fu.read(&mmu, &mem, VAddr::NULL).is_err());
    }

    #[test]
    fn unmapped_flag_faults() {
        let (mut mmu, mut mem, _) = setup();
        let fu = FlagUnit;
        let bogus = VAddr::new(0xdead_0000);
        assert!(matches!(
            fu.fetch_increment(&mut mmu, &mut mem, bogus),
            Err(MemError::PageFault { .. })
        ));
    }

    #[test]
    fn wraps_at_u32_max() {
        let (mut mmu, mut mem, flag) = setup();
        let p = mmu.translate_peek(flag).unwrap();
        mem.write_pod(p, u32::MAX).unwrap();
        let fu = FlagUnit;
        assert_eq!(
            fu.fetch_increment(&mut mmu, &mut mem, flag).unwrap(),
            Some(u32::MAX)
        );
        assert_eq!(fu.read(&mmu, &mem, flag).unwrap(), 0);
    }
}
