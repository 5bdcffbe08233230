//! The one-dimensional stride engine.
//!
//! §4.1 "Stride data transfer": the AP1000+ supports one-dimensional stride
//! transfer in hardware "as a compromise between the hardware cost of
//! implementing high-dimensional stride data transfer and the processing
//! overhead"; higher dimensions are built by repeating 1-D strides. A
//! stride is described by `(item_size, count, skip)` on each side, and the
//! two sides may re-block the same byte stream differently (Figure 3 shows
//! `send_cnt = 3`, `recv_cnt = 2`).

use crate::dma::RunCursor;
use apmem::{MemError, Memory, Mmu};
use aputil::VAddr;

/// One side of a stride transfer: `count` items of `item_size` bytes, the
/// start of each item `skip` bytes after the start of the previous one.
///
/// `skip == item_size` (or `count == 1`) degenerates to a contiguous
/// block.
///
/// `count == 0` consistently describes an *empty* stream:
/// [`StrideSpec::total_bytes`] and [`StrideSpec::span_bytes`] are 0,
/// [`gather`] produces no bytes and [`scatter`] writes none. Issue-time
/// validation rejects empty transfers (a zero-length PUT/GET is a program
/// error), but the spec itself stays well-defined so hand-built argument
/// blocks fail validation instead of tripping asserts deep in the DMA
/// path.
///
/// The fields are public (the 8-word command image is just memory on the
/// real machine), so degenerate specs can be constructed without going
/// through [`StrideSpec::new`]; [`StrideSpec::check`] is the non-panicking
/// validation the MSC+ applies before activating DMA.
///
/// # Examples
///
/// ```
/// use apmsc::StrideSpec;
///
/// let s = StrideSpec::new(8, 100, 800); // a column of a 100×100 f64 matrix
/// assert_eq!(s.total_bytes(), 800);
/// assert!(!s.is_contiguous());
/// assert!(StrideSpec::contiguous(64).is_contiguous());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StrideSpec {
    /// Bytes per item.
    pub item_size: u32,
    /// Number of items.
    pub count: u32,
    /// Bytes from the start of one item to the start of the next.
    pub skip: u32,
}

impl StrideSpec {
    /// Creates a stride spec.
    ///
    /// # Panics
    ///
    /// Panics if `item_size` is 0, or `count > 1` with `skip < item_size`
    /// (overlapping items).
    pub fn new(item_size: u32, count: u32, skip: u32) -> Self {
        let spec = StrideSpec {
            item_size,
            count,
            skip,
        };
        if let Err(e) = spec.check() {
            panic!("{e}");
        }
        spec
    }

    /// Validates a (possibly hand-constructed) spec the way the MSC+
    /// does before activating DMA, without panicking.
    ///
    /// # Errors
    ///
    /// Describes the first problem found: zero `item_size`, or
    /// overlapping items (`count > 1` with `skip < item_size`).
    pub fn check(&self) -> Result<(), String> {
        if self.item_size == 0 {
            return Err("stride item_size must be nonzero".to_string());
        }
        if self.count > 1 && self.skip < self.item_size {
            return Err(format!(
                "stride items overlap: skip {} < item_size {}",
                self.skip, self.item_size
            ));
        }
        Ok(())
    }

    /// A contiguous block of `bytes` bytes as a single-item "stride".
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is 0 or exceeds `u32::MAX` (the descriptor's
    /// field width); use [`StrideSpec::try_contiguous`] where the size is
    /// not statically known, or let the `Cell` PUT/GET API chunk large
    /// transfers transparently.
    pub fn contiguous(bytes: u64) -> Self {
        match StrideSpec::try_contiguous(bytes) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`StrideSpec::contiguous`]: a single-item stride of
    /// `bytes` bytes.
    ///
    /// # Errors
    ///
    /// `bytes == 0` (empty transfers are rejected at issue time) or
    /// `bytes > u32::MAX` (the descriptor stores sizes in 4-byte words of
    /// the 8-word command image; larger transfers must be chunked).
    pub fn try_contiguous(bytes: u64) -> Result<Self, String> {
        if bytes == 0 {
            return Err("bad contiguous size 0".to_string());
        }
        if bytes > u32::MAX as u64 {
            return Err(format!(
                "contiguous block of {bytes} bytes exceeds the u32 descriptor range"
            ));
        }
        Ok(StrideSpec {
            item_size: bytes as u32,
            count: 1,
            skip: bytes as u32,
        })
    }

    /// Total payload bytes the spec describes.
    pub fn total_bytes(&self) -> u64 {
        self.item_size as u64 * self.count as u64
    }

    /// `true` if the described bytes are one contiguous run.
    pub fn is_contiguous(&self) -> bool {
        self.count <= 1 || self.skip == self.item_size
    }

    /// Footprint in memory from the first byte to one past the last.
    pub fn span_bytes(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.count as u64 - 1) * self.skip as u64 + self.item_size as u64
        }
    }
}

/// Gathers the strided bytes starting at `base` into `out` (the send DMA
/// filling a payload buffer in place): the MMU is consulted once per page
/// run the items touch, and each item is copied straight from its frame.
/// Returns the TLB miss count.
///
/// # Errors
///
/// Propagates page faults and physical bounds errors.
///
/// # Panics
///
/// Panics if `out.len() != spec.total_bytes()`.
pub fn gather_into(
    mmu: &mut Mmu,
    mem: &Memory,
    base: VAddr,
    spec: StrideSpec,
    out: &mut [u8],
) -> Result<u64, MemError> {
    assert_eq!(
        out.len() as u64,
        spec.total_bytes(),
        "gather buffer does not match stride spec"
    );
    let mut cursor = RunCursor::default();
    // `item_size` is nonzero whenever the buffer is nonempty.
    let items = out.chunks_exact_mut(spec.item_size.max(1) as usize);
    for (i, item) in items.enumerate() {
        cursor.read(mmu, mem, base + i as u64 * spec.skip as u64, item)?;
    }
    Ok(cursor.tlb_misses)
}

/// Gathers the strided bytes starting at `base` into a contiguous payload.
/// Returns `(payload, tlb_misses)`.
///
/// # Errors
///
/// Propagates page faults and physical bounds errors.
pub fn gather(
    mmu: &mut Mmu,
    mem: &Memory,
    base: VAddr,
    spec: StrideSpec,
) -> Result<(Vec<u8>, u64), MemError> {
    let mut out = vec![0u8; spec.total_bytes() as usize];
    let misses = gather_into(mmu, mem, base, spec, &mut out)?;
    Ok((out, misses))
}

/// Scatters a contiguous `payload` to the strided layout at `base`, one
/// MMU translation per page run touched. Returns the TLB miss count.
///
/// # Errors
///
/// `InvalidArg`-style size mismatches are a panic (caller validates);
/// page faults and bounds errors propagate.
///
/// # Panics
///
/// Panics if `payload.len() != spec.total_bytes()`.
pub fn scatter(
    mmu: &mut Mmu,
    mem: &mut Memory,
    base: VAddr,
    spec: StrideSpec,
    payload: &[u8],
) -> Result<u64, MemError> {
    assert_eq!(
        payload.len() as u64,
        spec.total_bytes(),
        "scatter payload does not match stride spec"
    );
    let mut cursor = RunCursor::default();
    let items = payload.chunks_exact(spec.item_size.max(1) as usize);
    for (i, item) in items.enumerate() {
        cursor.write(mmu, mem, base + i as u64 * spec.skip as u64, item)?;
    }
    Ok(cursor.tlb_misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::{read_virtual, write_virtual};

    fn setup() -> (Mmu, Memory, VAddr) {
        let mut mmu = Mmu::new(16 << 20);
        let mem = Memory::new(16 << 20);
        let base = mmu.map_anywhere(1 << 20).unwrap();
        (mmu, mem, base)
    }

    #[test]
    fn gather_reads_columns() {
        let (mut mmu, mut mem, base) = setup();
        // 4×4 matrix of u8 rows of 4: gather column 1 (skip 4).
        let matrix: Vec<u8> = (0..16).collect();
        write_virtual(&mut mmu, &mut mem, base, &matrix).unwrap();
        let spec = StrideSpec::new(1, 4, 4);
        let (col, _) = gather(&mut mmu, &mem, base + 1, spec).unwrap();
        assert_eq!(col, vec![1, 5, 9, 13]);
    }

    #[test]
    fn scatter_then_gather_round_trips() {
        let (mut mmu, mut mem, base) = setup();
        let spec = StrideSpec::new(8, 50, 24);
        let payload: Vec<u8> = (0..spec.total_bytes()).map(|i| (i % 251) as u8).collect();
        scatter(&mut mmu, &mut mem, base, spec, &payload).unwrap();
        let (back, _) = gather(&mut mmu, &mem, base, spec).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn reblocking_send3_recv2_figure3() {
        // Figure 3: sender gathers 3 items, receiver scatters the same
        // bytes as 2 items of 1.5× the size.
        let (mut mmu, mut mem, base) = setup();
        let send = StrideSpec::new(4, 3, 10);
        let recv = StrideSpec::new(6, 2, 20);
        assert_eq!(send.total_bytes(), recv.total_bytes());
        let src: Vec<u8> = (0..40).collect();
        write_virtual(&mut mmu, &mut mem, base, &src).unwrap();
        let (payload, _) = gather(&mut mmu, &mem, base, send).unwrap();
        assert_eq!(payload, vec![0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]);
        let dst = base + 1000;
        scatter(&mut mmu, &mut mem, dst, recv, &payload).unwrap();
        let r0 = read_virtual(&mut mmu, &mem, dst, 6).unwrap().data;
        let r1 = read_virtual(&mut mmu, &mem, dst + 20, 6).unwrap().data;
        assert_eq!(r0, vec![0, 1, 2, 3, 10, 11]);
        assert_eq!(r1, vec![12, 13, 20, 21, 22, 23]);
    }

    #[test]
    fn contiguous_degenerates() {
        let s = StrideSpec::contiguous(4096);
        assert!(s.is_contiguous());
        assert_eq!(s.total_bytes(), 4096);
        assert_eq!(s.span_bytes(), 4096);
        let t = StrideSpec::new(16, 4, 16);
        assert!(t.is_contiguous(), "skip == item_size is contiguous");
    }

    #[test]
    fn span_accounts_for_gaps() {
        let s = StrideSpec::new(8, 3, 100);
        assert_eq!(s.span_bytes(), 208);
        assert_eq!(s.total_bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_stride_panics() {
        let _ = StrideSpec::new(16, 2, 8);
    }

    #[test]
    fn count_zero_is_a_consistent_empty_stream() {
        let (mut mmu, mut mem, base) = setup();
        let empty = StrideSpec::new(8, 0, 8);
        assert_eq!(empty.total_bytes(), 0);
        assert_eq!(empty.span_bytes(), 0);
        assert!(empty.is_contiguous());
        assert!(empty.check().is_ok(), "count 0 is well-formed, just empty");
        let (bytes, misses) = gather(&mut mmu, &mem, base, empty).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(misses, 0);
        // Scatter of the matching (empty) payload writes nothing.
        let before = read_virtual(&mut mmu, &mem, base, 16).unwrap().data;
        scatter(&mut mmu, &mut mem, base, empty, &[]).unwrap();
        let after = read_virtual(&mut mmu, &mem, base, 16).unwrap().data;
        assert_eq!(before, after);
    }

    #[test]
    fn check_rejects_hand_built_degenerate_specs() {
        let zero_item = StrideSpec {
            item_size: 0,
            count: 3,
            skip: 8,
        };
        assert!(zero_item.check().unwrap_err().contains("nonzero"));
        let overlap = StrideSpec {
            item_size: 16,
            count: 2,
            skip: 8,
        };
        assert!(overlap.check().unwrap_err().contains("overlap"));
        // skip < item_size is fine when there is at most one item.
        let single = StrideSpec {
            item_size: 16,
            count: 1,
            skip: 0,
        };
        assert!(single.check().is_ok());
    }

    #[test]
    fn try_contiguous_bounds() {
        assert!(StrideSpec::try_contiguous(0).is_err());
        assert!(StrideSpec::try_contiguous(u32::MAX as u64).is_ok());
        let err = StrideSpec::try_contiguous(u32::MAX as u64 + 1).unwrap_err();
        assert!(err.contains("exceeds"), "unexpected message: {err}");
        assert_eq!(
            StrideSpec::try_contiguous(4096).unwrap(),
            StrideSpec::contiguous(4096)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn contiguous_beyond_u32_panics_with_clear_message() {
        let _ = StrideSpec::contiguous(u32::MAX as u64 + 1);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn scatter_size_mismatch_panics() {
        let (mut mmu, mut mem, base) = setup();
        let _ = scatter(
            &mut mmu,
            &mut mem,
            base,
            StrideSpec::new(8, 2, 8),
            &[0u8; 15],
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::dma::write_virtual;
    use proptest::prelude::*;

    proptest! {
        /// scatter ∘ gather is the identity on the strided footprint, for
        /// any compatible (send, recv) re-blocking of the same stream.
        #[test]
        fn gather_scatter_identity(
            item in 1u32..64,
            count in 1u32..32,
            extra_skip in 0u32..32,
        ) {
            let mut mmu = Mmu::new(16 << 20);
            let mut mem = Memory::new(16 << 20);
            let base = mmu.map_anywhere(1 << 16).unwrap();
            let spec = StrideSpec::new(item, count, item + extra_skip);
            // Fill the whole span with a pattern.
            let span = spec.span_bytes();
            let image: Vec<u8> = (0..span).map(|i| (i * 7 % 251) as u8).collect();
            write_virtual(&mut mmu, &mut mem, base, &image).unwrap();
            let (payload, _) = gather(&mut mmu, &mem, base, spec).unwrap();
            prop_assert_eq!(payload.len() as u64, spec.total_bytes());
            // Scatter elsewhere, gather again: identical payload.
            let dst = base + 40_000;
            scatter(&mut mmu, &mut mem, dst, spec, &payload).unwrap();
            let (again, _) = gather(&mut mmu, &mem, dst, spec).unwrap();
            prop_assert_eq!(again, payload);
        }
    }
}
