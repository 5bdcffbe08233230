//! Cell (processing element) identifiers.

use core::fmt;

/// Identifier of one AP1000+ cell (processing element).
///
/// The AP1000+ scales from 4 to 1024 cells (Table 1); cell IDs are dense
/// indices `0..ncells`. The T-net maps them onto a 2-D torus — that mapping
/// lives in `apnet`, the ID itself is topology-agnostic.
///
/// # Examples
///
/// ```
/// use aputil::CellId;
///
/// let c = CellId::new(3);
/// assert_eq!(c.index(), 3);
/// assert_eq!(format!("{c}"), "cell3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CellId(u32);

impl CellId {
    /// Creates a cell ID from a dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        CellId(index)
    }

    /// The dense index of this cell.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for CellId {
    fn from(v: u32) -> Self {
        CellId(v)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_follows_index() {
        assert!(CellId::new(1) < CellId::new(2));
    }

    #[test]
    fn conversions() {
        let c: CellId = 7u32.into();
        assert_eq!(c.index(), 7);
        assert_eq!(c.as_u32(), 7);
    }
}
