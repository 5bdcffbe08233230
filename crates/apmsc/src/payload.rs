//! Shared, immutable payload buffers for the single-copy transfer path.
//!
//! A payload is gathered from simulated memory exactly once, when the
//! send DMA activates — straight into the shared allocation
//! ([`Payload::build`]) — and scattered into the destination memory
//! exactly once, when the receive DMA completes. Between those two points it
//! passes through the transmit queue, the active-DMA slot, the network
//! packet and (for SEND) the ring buffer — stations that previously each
//! held their own `Vec<u8>`. Backing the bytes with an [`Arc`] makes
//! every hand-off a pointer move and every retained reference (e.g. a
//! DSM store fanned out to its queue entry and its packet) a reference
//! count bump instead of a copy.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable byte buffer shared by reference count.
#[derive(Clone, PartialEq, Eq)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// An empty payload (requests, probes, acks).
    pub fn empty() -> Self {
        Payload(Arc::from(&[][..]))
    }

    /// Allocates the shared `len`-byte buffer once and lets `fill` write
    /// the payload into it in place — the send DMA gathers straight into
    /// the allocation every later station shares, so the bytes are written
    /// once here and read once at the delivery-side scatter.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns; the buffer is dropped.
    pub fn build<E>(len: usize, fill: impl FnOnce(&mut [u8]) -> Result<(), E>) -> Result<Self, E> {
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut buf).expect("a fresh Arc has one owner"))?;
        Ok(Payload(buf))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Copies the bytes out into an owned vector (the delivery-side
    /// scatter, or an API boundary that hands bytes to the caller).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(Arc::from(v.into_boxed_slice()))
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_backing_buffer() {
        let p = Payload::from(vec![1u8, 2, 3]);
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.0, &q.0), "clone must not copy the bytes");
        assert_eq!(q.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn build_fills_the_shared_buffer_in_place() {
        let p = Payload::build(4, |buf| {
            buf.copy_from_slice(&[1, 2, 3, 4]);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(p.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(Payload::build(8, |_| Err::<(), _>("fault")), Err("fault"));
        assert!(Payload::build(0, |_| Ok::<(), ()>(())).unwrap().is_empty());
    }

    #[test]
    fn empty_and_conversions() {
        let e = Payload::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let p = Payload::from(vec![9u8; 4]);
        assert_eq!(p.to_vec(), vec![9u8; 4]);
        assert_eq!(&p[..2], &[9, 9]);
    }
}
