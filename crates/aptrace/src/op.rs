//! Trace operations.

use aputil::CellId;

/// One recorded library-level operation of a cell program.
///
/// The trace is *machine-independent*: it records what the program asked
/// for (sizes, destinations, dependencies), never how long anything took —
/// timing is entirely the business of the replaying model, which is what
/// lets one trace be replayed under AP1000, AP1000★, and AP1000+
/// parameters (§5).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Op {
    /// Pure computation measured in abstract floating-point operations;
    /// converted to time by the model's `computation_factor`.
    Work {
        /// Abstract operation count.
        flops: u64,
    },
    /// VPP Fortran run-time-system work (global→local index conversion,
    /// stride-pattern discovery, …) measured in abstract units.
    Rts {
        /// Abstract RTS work units.
        units: u64,
    },
    /// One-sided write (§3.1 `put` / `put_stride`).
    Put {
        /// Destination cell.
        dst: CellId,
        /// Payload bytes.
        bytes: u64,
        /// Whether either side used a non-contiguous stride (Table 3 PUTS).
        stride: bool,
        /// Whether the RTS requested an acknowledgment (a GET probe
        /// follows in the trace).
        ack: bool,
        /// Local flag id bumped at send-DMA completion (0 = none).
        send_flag: u64,
        /// Remote flag id bumped at receive-DMA completion (0 = none).
        recv_flag: u64,
    },
    /// One-sided read (§3.1 `get` / `get_stride`).
    Get {
        /// Cell owning the data.
        src: CellId,
        /// Payload bytes of the reply.
        bytes: u64,
        /// Whether either side used a non-contiguous stride (Table 3 GETS).
        stride: bool,
        /// `true` for the GET-to-address-0 acknowledge probe, which
        /// Table 3 excludes from GET counts and message sizes.
        ack_probe: bool,
        /// Remote flag id bumped when the reply leaves (0 = none).
        send_flag: u64,
        /// Local flag id bumped when the reply lands (0 = none).
        recv_flag: u64,
    },
    /// Blocking SEND into the destination's ring buffer (§4.3). The SEND
    /// library "waits to complete data transfer in the SEND library"
    /// (§5.4), which is where CG's overhead comes from.
    Send {
        /// Destination cell.
        dst: CellId,
        /// Message bytes.
        bytes: u64,
    },
    /// Blocking RECEIVE of the next ring-buffer message from `src`.
    Recv {
        /// Expected source cell.
        src: CellId,
        /// Expected message bytes (for accounting; matching is by source).
        bytes: u64,
    },
    /// Spin on a local flag until it reaches `target` (PUT/GET completion
    /// detection, §3.1).
    WaitFlag {
        /// Flag id.
        flag: u64,
        /// Value to wait for (absolute).
        target: u32,
    },
    /// Machine-wide S-net barrier.
    Barrier,
    /// Collective B-net broadcast: every cell participates, `root`'s buffer
    /// is delivered to all cells at once (§4: "broadcast communication and
    /// data distribution").
    Bcast {
        /// The broadcasting cell.
        root: CellId,
        /// Payload bytes.
        bytes: u64,
    },
    /// Store to a remote cell's communication register (scalar-reduction
    /// and group-barrier building block, §4.4/§4.5).
    RegStore {
        /// Destination cell.
        dst: CellId,
        /// Register index.
        reg: u16,
    },
    /// Blocking load of a local communication register: retries until the
    /// p-bit is set (§4.4), i.e. waits for a matching [`Op::RegStore`].
    RegLoad {
        /// Register index.
        reg: u16,
    },
    /// Non-blocking DSM remote store (§4.2): hardware-generated when the
    /// processor stores into shared memory space. Completion is detected
    /// by [`Op::RemoteFence`] through automatic acknowledge packets.
    RemoteStore {
        /// Owning cell of the stored address.
        dst: CellId,
        /// Stored bytes.
        bytes: u64,
    },
    /// Blocking DSM remote load (§4.2): "remote load is blocking".
    RemoteLoad {
        /// Owning cell of the loaded address.
        src: CellId,
        /// Loaded bytes.
        bytes: u64,
    },
    /// Block until every issued remote store has been acknowledged (the
    /// implicit acknowledge flag of §2.2).
    RemoteFence,
    /// Marker: one scalar global reduction completed on this cell
    /// (Table 3 "Gop"). Zero-time; the constituent RegStore/RegLoad ops
    /// carry the cost.
    MarkGopScalar,
    /// Marker: one vector global reduction completed on this cell
    /// (Table 3 "V Gop"). Zero-time; the constituent Send/Recv ops carry
    /// the cost.
    MarkGopVector,
}

/// The recorded operation sequence of one cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PeTrace {
    /// Program-ordered operations.
    pub ops: Vec<Op>,
}

impl PeTrace {
    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }
}

/// A whole-application trace: one [`PeTrace`] per cell.
///
/// # Examples
///
/// ```
/// use aptrace::{Op, Trace};
/// use aputil::CellId;
///
/// let mut t = Trace::new(2);
/// t.pe_mut(CellId::new(0)).push(Op::Work { flops: 100 });
/// t.pe_mut(CellId::new(1)).push(Op::Barrier);
/// assert_eq!(t.ncells(), 2);
/// assert_eq!(t.pe(CellId::new(0)).ops.len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    pes: Vec<PeTrace>,
}

impl Trace {
    /// Creates an empty trace for `ncells` cells.
    ///
    /// # Panics
    ///
    /// Panics if `ncells` is zero.
    pub fn new(ncells: usize) -> Self {
        assert!(ncells > 0, "trace needs at least one cell");
        Trace {
            pes: vec![PeTrace::default(); ncells],
        }
    }

    /// Number of cells.
    pub fn ncells(&self) -> usize {
        self.pes.len()
    }

    /// The trace of one cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn pe(&self, cell: CellId) -> &PeTrace {
        &self.pes[cell.index()]
    }

    /// Mutable access to one cell's trace.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn pe_mut(&mut self, cell: CellId) -> &mut PeTrace {
        &mut self.pes[cell.index()]
    }

    /// Iterates `(cell, trace)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &PeTrace)> {
        self.pes
            .iter()
            .enumerate()
            .map(|(i, p)| (CellId::new(i as u32), p))
    }

    /// Total operations across all cells.
    pub fn total_ops(&self) -> usize {
        self.pes.iter().map(|p| p.ops.len()).sum()
    }

    /// Per-class operation totals across all cells — what differential
    /// checkers compare against the program that generated the trace.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for pe in &self.pes {
            for op in &pe.ops {
                match op {
                    Op::Work { .. } => c.works += 1,
                    Op::Rts { .. } => c.rts += 1,
                    Op::Put { .. } => c.puts += 1,
                    Op::Get { ack_probe, .. } => {
                        if *ack_probe {
                            c.ack_probes += 1;
                        } else {
                            c.gets += 1;
                        }
                    }
                    Op::Send { .. } => c.sends += 1,
                    Op::Recv { .. } => c.recvs += 1,
                    Op::WaitFlag { .. } => c.flag_waits += 1,
                    Op::Barrier => c.barriers += 1,
                    Op::Bcast { .. } => c.bcasts += 1,
                    Op::RegStore { .. } => c.reg_stores += 1,
                    Op::RegLoad { .. } => c.reg_loads += 1,
                    Op::RemoteStore { .. } => c.remote_stores += 1,
                    Op::RemoteLoad { .. } => c.remote_loads += 1,
                    Op::RemoteFence => c.fences += 1,
                    Op::MarkGopScalar | Op::MarkGopVector => c.marks += 1,
                }
            }
        }
        c
    }
}

/// Whole-trace operation totals, one field per [`Op`] class (GETs split
/// into data GETs and acknowledge probes, the same split Table 3 makes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub works: u64,
    pub rts: u64,
    pub puts: u64,
    pub gets: u64,
    pub ack_probes: u64,
    pub sends: u64,
    pub recvs: u64,
    pub flag_waits: u64,
    pub barriers: u64,
    pub bcasts: u64,
    pub reg_stores: u64,
    pub reg_loads: u64,
    pub remote_stores: u64,
    pub remote_loads: u64,
    pub fences: u64,
    pub marks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_indexing() {
        let mut t = Trace::new(3);
        t.pe_mut(CellId::new(2)).push(Op::Barrier);
        assert_eq!(t.total_ops(), 1);
        let cells: Vec<_> = t.iter().map(|(c, _)| c.index()).collect();
        assert_eq!(cells, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_trace_panics() {
        let _ = Trace::new(0);
    }
}
