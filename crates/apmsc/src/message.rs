//! PUT/GET arguments and packet formats.
//!
//! [`PutArgs`] and [`GetArgs`] are the §3.1 argument lists the processor
//! writes into the MSC+ send queue as eight 4-byte parameter words (§4.1),
//! which is why issuing one costs only eight store instructions. A
//! [`Packet`] is what the send controller injects into the T-net, and what
//! the receive controller parses on the other side.

use crate::payload::Payload;
use crate::stride::StrideSpec;
use aputil::{CellId, VAddr};

/// Parameters of a PUT operation, as specified in §3.1:
/// `put(node_id, raddr, laddr, size, send_flag, recv_flag, ack)`, with the
/// stride variant folding `size` into the two [`StrideSpec`]s.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PutArgs {
    /// Destination cell.
    pub dst: CellId,
    /// Remote (destination) start address, logical at the destination.
    pub raddr: VAddr,
    /// Local (source) start address.
    pub laddr: VAddr,
    /// How to gather bytes on the sending side.
    pub send_stride: StrideSpec,
    /// How to scatter bytes on the receiving side.
    pub recv_stride: StrideSpec,
    /// Local flag incremented when the send DMA completes (0 = none).
    pub send_flag: VAddr,
    /// Remote flag incremented when the receive DMA completes (0 = none).
    pub recv_flag: VAddr,
    /// Whether the sender wants an acknowledgment (implemented as a
    /// GET-to-null-address round trip, §4.1 "Acknowledge packet").
    pub ack: bool,
}

impl PutArgs {
    /// Payload size in bytes.
    pub fn size(&self) -> u64 {
        self.send_stride.total_bytes()
    }

    /// Validates the argument block the way the MSC+ hardware does before
    /// activating DMA.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: zero-size
    /// transfer, send/recv stride size mismatch, or over-large DMA (the
    /// send DMA controller moves at most 4 MB in one operation, §4.1).
    pub fn validate(&self) -> Result<(), String> {
        validate_pair(self.send_stride, self.recv_stride)
    }

    /// `true` if either side is a non-contiguous stride (this is what
    /// Table 3 counts as `PUTS` rather than `PUT`).
    pub fn is_stride(&self) -> bool {
        !self.send_stride.is_contiguous() || !self.recv_stride.is_contiguous()
    }
}

/// Parameters of a GET operation (§3.1): data flows from the *remote*
/// cell's `raddr` to the *local* `laddr`. `send_flag` is updated on the
/// remote (data-source) cell when its reply has been sent; `recv_flag` is
/// updated locally when the reply lands — "flags on both sending and
/// receiving nodes" (§1.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GetArgs {
    /// Cell owning the data.
    pub src_cell: CellId,
    /// Remote start address (logical at `src_cell`); [`VAddr::NULL`] makes
    /// this a pure acknowledge round-trip that copies nothing.
    pub raddr: VAddr,
    /// Local destination address.
    pub laddr: VAddr,
    /// How the remote side gathers the data.
    pub send_stride: StrideSpec,
    /// How the local side scatters the reply.
    pub recv_stride: StrideSpec,
    /// Flag at the remote cell, incremented when the reply is sent (0 = none).
    pub send_flag: VAddr,
    /// Local flag, incremented when the reply data has landed (0 = none).
    pub recv_flag: VAddr,
}

impl GetArgs {
    /// Payload size in bytes.
    pub fn size(&self) -> u64 {
        self.send_stride.total_bytes()
    }

    /// `true` for the GET-to-address-0 acknowledge idiom.
    pub fn is_ack_probe(&self) -> bool {
        self.raddr.is_null()
    }

    /// Validates stride compatibility (see [`PutArgs::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        validate_pair(self.send_stride, self.recv_stride)
    }

    /// `true` if either side is a non-contiguous stride (Table 3's `GETS`).
    pub fn is_stride(&self) -> bool {
        !self.send_stride.is_contiguous() || !self.recv_stride.is_contiguous()
    }
}

/// Maximum single-DMA transfer: "from 1 word (4 byte) to 1 megaword
/// (4 megabytes)" (§4.1).
pub const MAX_DMA_BYTES: u64 = 4 << 20;

fn validate_pair(send: StrideSpec, recv: StrideSpec) -> Result<(), String> {
    // The specs themselves may be hand-built (their fields are public, so
    // a struct literal skips `StrideSpec::new`), so validate each side
    // before comparing them.
    send.check().map_err(|e| format!("send stride: {e}"))?;
    recv.check().map_err(|e| format!("recv stride: {e}"))?;
    let total = send.total_bytes();
    if total == 0 {
        return Err("zero-length transfer".to_string());
    }
    if total != recv.total_bytes() {
        return Err(format!(
            "send side describes {total} bytes but recv side {}",
            recv.total_bytes()
        ));
    }
    if total > MAX_DMA_BYTES {
        return Err(format!(
            "transfer of {total} bytes exceeds the 4 MB DMA limit"
        ));
    }
    Ok(())
}

/// A packet travelling on the T-net or B-net.
#[derive(Clone, PartialEq, Debug)]
pub enum Packet {
    /// PUT data: carries the payload plus enough header for the receiving
    /// MSC+ to scatter it and update the flag.
    PutData {
        /// Sending cell.
        src: CellId,
        /// Remote destination address.
        raddr: VAddr,
        /// Receiver-side scatter spec.
        recv_stride: StrideSpec,
        /// Receiver flag (0 = none).
        recv_flag: VAddr,
        /// The gathered payload bytes.
        payload: Payload,
    },
    /// GET request: no payload, asks the remote MSC+ to reply.
    GetReq {
        /// Requesting cell (reply destination).
        src: CellId,
        /// Address to gather at the remote cell (0 = ack probe).
        raddr: VAddr,
        /// Remote gather spec.
        send_stride: StrideSpec,
        /// Remote flag to bump when the reply leaves (0 = none).
        send_flag: VAddr,
        /// Where the reply payload lands at the requester.
        reply_laddr: VAddr,
        /// Requester-side scatter spec.
        reply_stride: StrideSpec,
        /// Requester flag to bump when the reply lands (0 = none).
        reply_flag: VAddr,
    },
    /// GET reply: the payload coming back.
    GetReply {
        /// Cell that served the GET.
        src: CellId,
        /// Local destination at the requester.
        laddr: VAddr,
        /// Requester-side scatter spec.
        recv_stride: StrideSpec,
        /// Requester flag (0 = none).
        recv_flag: VAddr,
        /// Gathered payload (empty for an ack probe).
        payload: Payload,
    },
    /// SEND-model message bound for the destination's ring buffer (§4.3).
    RingMsg {
        /// Sending cell.
        src: CellId,
        /// Message body.
        payload: Payload,
    },
    /// Hardware-generated remote store (distributed shared memory, §4.2).
    RemoteStore {
        /// Storing cell.
        src: CellId,
        /// Local physical offset at the owner (already DSM-resolved).
        raddr: VAddr,
        /// The stored bytes.
        payload: Payload,
    },
    /// Acknowledge for a remote store (automatic, §4.2).
    RemoteStoreAck {
        /// Cell that performed the store.
        src: CellId,
    },
    /// Hardware-generated remote load request.
    RemoteLoadReq {
        /// Loading cell (reply destination).
        src: CellId,
        /// Address at the owner.
        raddr: VAddr,
        /// Bytes requested.
        size: u64,
    },
    /// Remote load reply.
    RemoteLoadReply {
        /// Owner cell that served the load.
        src: CellId,
        /// The loaded bytes.
        payload: Payload,
    },
    /// Store into a remote cell's communication register (§4.4: the
    /// registers live in shared memory space, so a store to one is a small
    /// remote store on the T-net).
    RegStore {
        /// Storing cell.
        src: CellId,
        /// Register index at the destination.
        reg: u16,
        /// The 4-byte value.
        value: u32,
    },
}

impl Packet {
    /// Originating cell.
    pub fn src(&self) -> CellId {
        match self {
            Packet::PutData { src, .. }
            | Packet::GetReq { src, .. }
            | Packet::GetReply { src, .. }
            | Packet::RingMsg { src, .. }
            | Packet::RemoteStore { src, .. }
            | Packet::RemoteStoreAck { src }
            | Packet::RemoteLoadReq { src, .. }
            | Packet::RemoteLoadReply { src, .. }
            | Packet::RegStore { src, .. } => *src,
        }
    }

    /// Payload bytes carried (0 for requests/acks).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Packet::PutData { payload, .. }
            | Packet::GetReply { payload, .. }
            | Packet::RingMsg { payload, .. }
            | Packet::RemoteStore { payload, .. }
            | Packet::RemoteLoadReply { payload, .. } => payload.len() as u64,
            Packet::GetReq { .. }
            | Packet::RemoteStoreAck { .. }
            | Packet::RemoteLoadReq { .. } => 0,
            Packet::RegStore { .. } => 4,
        }
    }

    /// Fills in the payload of a data-carrying packet — the send DMA
    /// gathers it when the packet leaves its queue, not when it is
    /// queued. Payload-free kinds ignore the call.
    pub fn set_payload(&mut self, bytes: Payload) {
        match self {
            Packet::PutData { payload, .. }
            | Packet::GetReply { payload, .. }
            | Packet::RingMsg { payload, .. }
            | Packet::RemoteStore { payload, .. }
            | Packet::RemoteLoadReply { payload, .. } => *payload = bytes,
            Packet::GetReq { .. }
            | Packet::RemoteStoreAck { .. }
            | Packet::RemoteLoadReq { .. }
            | Packet::RegStore { .. } => {}
        }
    }

    /// The payload bytes the envelope checksum covers (empty for
    /// payload-free packets; a `RegStore`'s value travels in the header).
    pub fn payload_slice(&self) -> &[u8] {
        match self {
            Packet::PutData { payload, .. }
            | Packet::GetReply { payload, .. }
            | Packet::RingMsg { payload, .. }
            | Packet::RemoteStore { payload, .. }
            | Packet::RemoteLoadReply { payload, .. } => payload,
            Packet::GetReq { .. }
            | Packet::RemoteStoreAck { .. }
            | Packet::RemoteLoadReq { .. }
            | Packet::RegStore { .. } => &[],
        }
    }

    /// Static name of the packet kind, for per-op retry attribution.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Packet::PutData { .. } => "PutData",
            Packet::GetReq { .. } => "GetReq",
            Packet::GetReply { .. } => "GetReply",
            Packet::RingMsg { .. } => "RingMsg",
            Packet::RemoteStore { .. } => "RemoteStore",
            Packet::RemoteStoreAck { .. } => "RemoteStoreAck",
            Packet::RemoteLoadReq { .. } => "RemoteLoadReq",
            Packet::RemoteLoadReply { .. } => "RemoteLoadReply",
            Packet::RegStore { .. } => "RegStore",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(send: StrideSpec, recv: StrideSpec) -> PutArgs {
        PutArgs {
            dst: CellId::new(1),
            raddr: VAddr::new(0x2000),
            laddr: VAddr::new(0x1000),
            send_stride: send,
            recv_stride: recv,
            send_flag: VAddr::NULL,
            recv_flag: VAddr::NULL,
            ack: false,
        }
    }

    #[test]
    fn validation_catches_mismatch() {
        let ok = put(StrideSpec::contiguous(64), StrideSpec::contiguous(64));
        assert!(ok.validate().is_ok());
        assert!(!ok.is_stride());
        let bad = put(StrideSpec::contiguous(64), StrideSpec::contiguous(32));
        assert!(bad.validate().unwrap_err().contains("64 bytes"));
    }

    #[test]
    fn validation_enforces_dma_limit() {
        let too_big = put(
            StrideSpec::new(1 << 20, 5, 1 << 20),
            StrideSpec::new(1 << 20, 5, 1 << 20),
        );
        assert!(too_big.validate().unwrap_err().contains("4 MB"));
        let max_ok = put(
            StrideSpec::contiguous(4 << 20),
            StrideSpec::contiguous(4 << 20),
        );
        assert!(max_ok.validate().is_ok());
    }

    #[test]
    fn validation_rejects_hand_built_degenerate_strides() {
        // Fields are public, so an argument block can carry specs that
        // StrideSpec::new would have refused; validation must catch them.
        let zero_item = StrideSpec {
            item_size: 0,
            count: 4,
            skip: 8,
        };
        let bad = put(zero_item, StrideSpec::contiguous(1));
        assert!(bad.validate().unwrap_err().starts_with("send stride:"));
        let overlap = StrideSpec {
            item_size: 16,
            count: 2,
            skip: 8,
        };
        let bad = put(StrideSpec::contiguous(32), overlap);
        let err = bad.validate().unwrap_err();
        assert!(err.starts_with("recv stride:") && err.contains("overlap"));
        // count == 0 on either side is an empty stream: rejected as a
        // zero-length transfer, not an assert deep in the DMA path.
        let empty = StrideSpec::new(8, 0, 8);
        let bad = put(empty, empty);
        assert!(bad.validate().unwrap_err().contains("zero-length"));
        // A mismatched empty side reports the mismatch.
        let bad = put(StrideSpec::contiguous(8), empty);
        assert!(bad.validate().unwrap_err().contains("recv side 0"));
    }

    #[test]
    fn stride_detection_matches_table3_classification() {
        let s = put(StrideSpec::new(8, 10, 80), StrideSpec::contiguous(80));
        assert!(s.is_stride(), "either side strided counts as PUTS");
        let g = GetArgs {
            src_cell: CellId::new(2),
            raddr: VAddr::new(0x100),
            laddr: VAddr::new(0x200),
            send_stride: StrideSpec::contiguous(16),
            recv_stride: StrideSpec::new(4, 4, 100),
            send_flag: VAddr::NULL,
            recv_flag: VAddr::NULL,
        };
        assert!(g.is_stride());
        assert!(!g.is_ack_probe());
    }

    #[test]
    fn ack_probe_is_null_raddr() {
        let g = GetArgs {
            src_cell: CellId::new(2),
            raddr: VAddr::NULL,
            laddr: VAddr::NULL,
            send_stride: StrideSpec::contiguous(4),
            recv_stride: StrideSpec::contiguous(4),
            send_flag: VAddr::NULL,
            recv_flag: VAddr::new(0x3000),
        };
        assert!(g.is_ack_probe());
    }

    #[test]
    fn only_data_packets_carry_payload() {
        let p = Packet::PutData {
            src: CellId::new(0),
            raddr: VAddr::new(0x100),
            recv_stride: StrideSpec::contiguous(100),
            recv_flag: VAddr::NULL,
            payload: Payload::from(vec![0u8; 100]),
        };
        assert_eq!(p.payload_bytes(), 100);
        let req = Packet::GetReq {
            src: CellId::new(0),
            raddr: VAddr::new(0x1),
            send_stride: StrideSpec::contiguous(8),
            send_flag: VAddr::NULL,
            reply_laddr: VAddr::new(0x2),
            reply_stride: StrideSpec::contiguous(8),
            reply_flag: VAddr::NULL,
        };
        assert_eq!(req.payload_bytes(), 0);
    }
}
