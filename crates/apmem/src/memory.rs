//! Sparse physical memory (the cell's DRAM).

use aputil::bytes::Pod;
use aputil::{PAddr, VAddr};
use core::fmt;
use std::error::Error;

/// Allocation granule of the sparse backing store (matches the small MMU
/// page so frame allocation and memory allocation line up).
pub const FRAME_SIZE: u64 = 4096;

/// Errors raised by memory and MMU operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum MemError {
    /// A physical access fell outside the installed DRAM.
    OutOfBounds {
        /// Start of the offending access.
        addr: PAddr,
        /// Access length in bytes.
        len: u64,
        /// Installed DRAM size in bytes.
        size: u64,
    },
    /// A logical address had no page-table mapping (the paper's protection
    /// mechanism: user DMA with an illegal address raises a page fault).
    PageFault {
        /// The unmapped logical address.
        addr: VAddr,
    },
    /// Physical frame allocator exhausted the installed DRAM.
    OutOfFrames {
        /// Bytes requested when the allocator failed.
        requested: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len, size } => {
                write!(
                    f,
                    "physical access at {addr} len {len} exceeds DRAM size {size}"
                )
            }
            MemError::PageFault { addr } => write!(f, "page fault at {addr}"),
            MemError::OutOfFrames { requested } => {
                write!(f, "out of physical frames allocating {requested} bytes")
            }
        }
    }
}

impl Error for MemError {}

/// One cell's DRAM: byte-addressable, zero-initialized, sparsely backed.
///
/// Frames are materialized on first write; reads of untouched memory return
/// zeros, like freshly installed SIMMs. The MMU bump-allocates physical
/// frames from 0, so the backing table is a vector indexed by frame number,
/// grown only as far as the highest frame written — a cell that never
/// writes allocates nothing. All accesses are bounds-checked
/// against the configured DRAM size (16 or 64 MB on the real machine, any
/// size here).
///
/// # Examples
///
/// ```
/// use apmem::Memory;
/// use aputil::PAddr;
///
/// let mut m = Memory::new(1 << 20);
/// m.write(PAddr::new(0x1000), &[1, 2, 3]).unwrap();
/// let mut buf = [0u8; 4];
/// m.read(PAddr::new(0x0fff), &mut buf).unwrap();
/// assert_eq!(buf, [0, 1, 2, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct Memory {
    size: u64,
    frames: Vec<Option<Box<[u8]>>>,
}

impl Memory {
    /// Creates a DRAM of `size` bytes (rounded up to a whole frame).
    pub fn new(size: u64) -> Self {
        let size = size.div_ceil(FRAME_SIZE) * FRAME_SIZE;
        Memory {
            size,
            frames: Vec::new(),
        }
    }

    /// Number of frames actually materialized (host-memory diagnostic).
    pub fn resident_frames(&self) -> usize {
        self.frames.iter().flatten().count()
    }

    fn check(&self, addr: PAddr, len: u64) -> Result<(), MemError> {
        let end = addr
            .as_u64()
            .checked_add(len)
            .ok_or(MemError::OutOfBounds {
                addr,
                len,
                size: self.size,
            })?;
        if end > self.size {
            return Err(MemError::OutOfBounds {
                addr,
                len,
                size: self.size,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the access crosses the end of DRAM.
    pub fn read(&self, addr: PAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(addr, buf.len() as u64)?;
        let mut pos = addr.as_u64();
        let mut off = 0usize;
        while off < buf.len() {
            let frame = (pos / FRAME_SIZE) as usize;
            let in_frame = (pos % FRAME_SIZE) as usize;
            let n = (FRAME_SIZE as usize - in_frame).min(buf.len() - off);
            match self.frames.get(frame) {
                Some(Some(data)) => {
                    buf[off..off + n].copy_from_slice(&data[in_frame..in_frame + n])
                }
                _ => buf[off..off + n].fill(0),
            }
            pos += n as u64;
            off += n;
        }
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the access crosses the end of DRAM.
    pub fn write(&mut self, addr: PAddr, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len() as u64)?;
        let mut pos = addr.as_u64();
        let mut off = 0usize;
        while off < data.len() {
            let frame = (pos / FRAME_SIZE) as usize;
            let in_frame = (pos % FRAME_SIZE) as usize;
            let n = (FRAME_SIZE as usize - in_frame).min(data.len() - off);
            if frame >= self.frames.len() {
                self.frames.resize_with(frame + 1, || None);
            }
            let frame_data = self.frames[frame]
                .get_or_insert_with(|| vec![0u8; FRAME_SIZE as usize].into_boxed_slice());
            frame_data[in_frame..in_frame + n].copy_from_slice(&data[off..off + n]);
            pos += n as u64;
            off += n;
        }
        Ok(())
    }

    /// Reads one typed scalar.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the access crosses the end of DRAM.
    pub fn read_pod<T: Pod>(&self, addr: PAddr) -> Result<T, MemError> {
        let mut buf = [0u8; 8];
        let slot = &mut buf[..T::SIZE];
        self.read(addr, slot)?;
        Ok(T::read_le(slot))
    }

    /// Writes one typed scalar.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the access crosses the end of DRAM.
    pub fn write_pod<T: Pod>(&mut self, addr: PAddr, value: T) -> Result<(), MemError> {
        let mut buf = [0u8; 8];
        let slot = &mut buf[..T::SIZE];
        value.write_le(slot);
        self.write(addr, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let m = Memory::new(8192);
        let mut buf = [0xffu8; 16];
        m.read(PAddr::new(100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn write_read_round_trip_across_frames() {
        let mut m = Memory::new(3 * FRAME_SIZE);
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        m.write(PAddr::new(100), &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read(PAddr::new(100), &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(m.resident_frames(), 3);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = Memory::new(FRAME_SIZE);
        assert!(m.write(PAddr::new(FRAME_SIZE - 1), &[1, 2]).is_err());
        let mut b = [0u8; 2];
        assert!(m.read(PAddr::new(FRAME_SIZE - 1), &mut b).is_err());
        // Exactly at the edge is fine.
        assert!(m.write(PAddr::new(FRAME_SIZE - 2), &[1, 2]).is_ok());
    }

    #[test]
    fn size_rounds_up_to_frame() {
        let m = Memory::new(1);
        assert_eq!(m.size, FRAME_SIZE);
    }

    #[test]
    fn pod_round_trip() {
        let mut m = Memory::new(FRAME_SIZE);
        m.write_pod(PAddr::new(16), 3.5f64).unwrap();
        assert_eq!(m.read_pod::<f64>(PAddr::new(16)).unwrap(), 3.5);
        m.write_pod(PAddr::new(8), u32::MAX).unwrap();
        assert_eq!(m.read_pod::<u32>(PAddr::new(8)).unwrap(), u32::MAX);
    }

    #[test]
    fn overflowing_length_is_out_of_bounds() {
        let m = Memory::new(FRAME_SIZE);
        let mut huge = vec![0u8; 16];
        let err = m.read(PAddr::new(u64::MAX - 4), &mut huge).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Sparse memory behaves like one big zero-initialized array.
        #[test]
        fn behaves_like_flat_array(
            writes in proptest::collection::vec(
                (0u64..16384, proptest::collection::vec(any::<u8>(), 1..200)),
                1..40
            )
        ) {
            let size = 32 * 1024;
            let mut sparse = Memory::new(size);
            let mut flat = vec![0u8; size as usize];
            for (addr, data) in &writes {
                if addr + data.len() as u64 <= size {
                    sparse.write(PAddr::new(*addr), data).unwrap();
                    flat[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
                }
            }
            let mut back = vec![0u8; size as usize];
            sparse.read(PAddr::new(0), &mut back).unwrap();
            prop_assert_eq!(back, flat);
        }
    }
}
