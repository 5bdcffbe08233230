//! Logical and physical addresses.
//!
//! The AP1000+ programs specify *logical* addresses for PUT/GET (§4.1: "The
//! program specifies a logical address for the PUT/GET operation"); the MC's
//! MMU translates them to *physical* addresses. Keeping the two as distinct
//! newtypes means the type checker enforces that no component ever feeds an
//! untranslated address to the DMA engines.

use core::fmt;
use core::ops::{Add, Sub};

/// A logical (virtual) address in a cell's address space.
///
/// # Examples
///
/// ```
/// use aputil::VAddr;
///
/// let base = VAddr::new(0x1000);
/// assert_eq!((base + 8).as_u64(), 0x1008);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VAddr(u64);

/// A physical address produced by MMU translation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PAddr(u64);

/// The conventional "null" logical address.
///
/// §4.1: "If address 0 is specified as the destination address, the GET
/// packet goes and comes back, and does not copy the data in remote memory"
/// — the acknowledge-packet trick. `VAddr::NULL` is that address.
impl VAddr {
    /// Address zero; see the type-level docs for its special role in
    /// acknowledge packets.
    pub const NULL: VAddr = VAddr(0);

    /// Creates a logical address.
    #[inline]
    pub const fn new(a: u64) -> Self {
        VAddr(a)
    }

    /// The raw address value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// `true` for the null (acknowledge) address.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl PAddr {
    /// Creates a physical address.
    #[inline]
    pub const fn new(a: u64) -> Self {
        PAddr(a)
    }

    /// The raw address value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl Add<u64> for VAddr {
    type Output = VAddr;
    /// # Panics
    ///
    /// Panics on address-space overflow.
    #[inline]
    fn add(self, rhs: u64) -> VAddr {
        VAddr(self.0.checked_add(rhs).expect("VAddr overflow"))
    }
}

impl Sub<u64> for VAddr {
    type Output = VAddr;
    /// # Panics
    ///
    /// Panics on underflow below address zero.
    #[inline]
    fn sub(self, rhs: u64) -> VAddr {
        VAddr(self.0.checked_sub(rhs).expect("VAddr underflow"))
    }
}

impl Add<u64> for PAddr {
    type Output = PAddr;
    /// # Panics
    ///
    /// Panics on address-space overflow.
    #[inline]
    fn add(self, rhs: u64) -> PAddr {
        PAddr(self.0.checked_add(rhs).expect("PAddr overflow"))
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v:{:#x}", self.0)
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p:{:#x}", self.0)
    }
}

impl fmt::LowerHex for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_detection() {
        assert!(VAddr::NULL.is_null());
        assert!(!VAddr::new(4).is_null());
    }

    #[test]
    fn arithmetic() {
        let a = VAddr::new(0x100);
        assert_eq!((a + 0x10).as_u64(), 0x110);
        assert_eq!((a - 0x10).as_u64(), 0xf0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn vaddr_underflow_panics() {
        let _ = VAddr::new(1) - 2;
    }

    #[test]
    fn display_formats() {
        assert_eq!(VAddr::new(0x20).to_string(), "v:0x20");
        assert_eq!(PAddr::new(0x20).to_string(), "p:0x20");
        assert_eq!(format!("{:x}", VAddr::new(255)), "ff");
    }
}
