//! Turns a [`FuzzProgram`] into a fully resolved execution plan.
//!
//! The plan is the single source of truth shared by the executor
//! ([`crate::runner`]) and the oracle ([`crate::oracle`]): concrete
//! addresses, stride specs, flag slots, per-round wait targets, and the
//! expected trace-op counts. It is a pure function of the program, so
//! every cell of the SPMD executor computes the identical plan, and the
//! layout rules make generated programs deadlock-free and deterministic
//! by construction:
//!
//! * the first half of each cell's region is a read-only seeded pattern —
//!   every transfer *reads* there and nothing ever writes there;
//! * every transfer *writes* into a destination slot carved from the
//!   second half by a bump allocator that never reuses a byte, so no two
//!   writes in the whole program overlap, and in-flight stragglers from a
//!   previous round cannot race the current one;
//! * DSM loads that would overlap a same-round DSM store (a race whose
//!   outcome is timing-dependent by design) are suppressed;
//! * waits and barriers are synthesized from the surviving actions, so
//!   shrinking a program never produces a hang.

use crate::program::{Action, FuzzProgram, StrideMode};
use apmsc::{StrideSpec, MAX_DMA_BYTES};

/// Completion-flag slots per cell (4 bytes each).
pub const FLAG_SLOTS: usize = 12;
/// Bytes of each owner's DSM shared window the fuzzer uses.
pub const DSM_SPAN: u64 = 64 << 10;
/// Top of the DSM span that is never stored to — loads from here verify
/// the zero-initialized window.
pub const DSM_GUARD: u64 = 256;

/// Largest destination-slot footprint a regular strided transfer may use.
const MAX_SPAN: u64 = 4096;

/// What the hostile PUT variants must be rejected with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostileKind {
    /// Zero-length transfer.
    Empty,
    /// `skip < item_size` with more than one item.
    Overlap,
    /// Send and recv sides describe different totals.
    Mismatch,
}

impl HostileKind {
    /// Substring the run's error rendering must contain.
    pub fn expect(self) -> &'static str {
        match self {
            HostileKind::Empty => "zero-length",
            HostileKind::Overlap => "overlap",
            HostileKind::Mismatch => "recv side",
        }
    }
}

/// One fully resolved operation. All offsets are relative to the cell's
/// region base (PUT/GET/SEND/BCAST) or the owner's DSM window (RSTORE /
/// RLOAD).
#[derive(Clone, Debug)]
pub enum Op {
    Put {
        src: u32,
        dst: u32,
        src_off: u64,
        dst_off: u64,
        /// `Some(bytes)` = contiguous, issued via the chunking `Cell::put`.
        contig: Option<u64>,
        send: StrideSpec,
        recv: StrideSpec,
        flag_send: Option<usize>,
        flag_recv: Option<usize>,
        ack: bool,
    },
    Get {
        owner: u32,
        reader: u32,
        src_off: u64,
        dst_off: u64,
        contig: Option<u64>,
        send: StrideSpec,
        recv: StrideSpec,
        flag_send: Option<usize>,
        flag_recv: Option<usize>,
    },
    Send {
        src: u32,
        dst: u32,
        src_off: u64,
        dst_off: u64,
        bytes: u64,
    },
    Bcast {
        root: u32,
        off: u64,
        bytes: u64,
        pattern: u64,
    },
    RStore {
        src: u32,
        owner: u32,
        off: u64,
        bytes: u64,
        pattern: u64,
    },
    RLoad {
        reader: u32,
        owner: u32,
        off: u64,
        bytes: u64,
    },
    Work {
        cell: u32,
        flops: u64,
    },
    Hostile {
        src: u32,
        dst: u32,
        kind: HostileKind,
    },
}

/// One round of the plan.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Resolved operations, in action order (suppressed actions dropped).
    pub ops: Vec<Op>,
    /// Per cell: `(flag slot, cumulative target)` waits before the
    /// barrier.
    pub waits: Vec<Vec<(usize, u32)>>,
    /// Per cell: must call `remote_fence` this round.
    pub fence: Vec<bool>,
    /// Per cell: must call `wait_acks` this round (has issued at least
    /// one acknowledged PUT so far).
    pub wait_acks: Vec<bool>,
}

/// Expected whole-trace operation counts, derived from the plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    pub puts: u64,
    pub gets: u64,
    pub ack_probes: u64,
    pub sends: u64,
    pub recvs: u64,
    pub bcast_calls: u64,
    pub works: u64,
    pub flag_waits: u64,
    pub barrier_calls: u64,
    pub remote_stores: u64,
    pub remote_loads: u64,
    pub fences: u64,
}

/// The resolved program.
#[derive(Clone, Debug)]
pub struct Plan {
    pub ncells: u32,
    /// Region bytes per cell (rounded to a multiple of 16).
    pub region: u64,
    /// First `src_half` bytes are the read-only pattern area.
    pub src_half: u64,
    pub rounds: Vec<Round>,
    /// Expected trace totals (valid only for non-hostile programs).
    pub expected: Expected,
    /// Final flag values per cell.
    pub flag_final: Vec<[u32; FLAG_SLOTS]>,
    /// Error substring a hostile program must die with.
    pub expect_error: Option<String>,
    /// Simulated DRAM per cell needed to hold the layout comfortably.
    pub mem_size: u64,
}

fn chunks_of(bytes: u64) -> u64 {
    bytes.div_ceil(MAX_DMA_BYTES)
}

/// Resolves the two stride specs of a PUT/GET. Returns
/// `(contig, send, recv, send_span, recv_span, total)`.
fn resolve_specs(
    mode: StrideMode,
    item: u32,
    count: u32,
    extra: u32,
) -> (Option<u64>, StrideSpec, StrideSpec, u64, u64, u64) {
    let item = item.max(1);
    let count = count.max(1);
    let (item, count) = if mode == StrideMode::Contig {
        (item, count)
    } else {
        // Strided sides keep the footprint small; clamp item and count.
        (item.min(256), count.min(16))
    };
    let total = item as u64 * count as u64;
    match mode {
        StrideMode::Contig => {
            let spec = StrideSpec::contiguous(total.min(u32::MAX as u64));
            (Some(total), spec, spec, total, total, total)
        }
        _ => {
            let skip = item + extra.min(64);
            let strided = StrideSpec::new(item, count, skip);
            let contig = StrideSpec::contiguous(total);
            let span = strided.span_bytes();
            match mode {
                StrideMode::Stride => (None, strided, strided, span, span, total),
                StrideMode::SendStride => (None, strided, contig, span, total, total),
                StrideMode::RecvStride => (None, contig, strided, total, span, total),
                StrideMode::Contig => unreachable!(),
            }
        }
    }
}

fn flag_slot(f: i8) -> Option<usize> {
    (f >= 0).then_some(f as usize % FLAG_SLOTS)
}

struct Builder {
    ncells: u32,
    region: u64,
    src_half: u64,
    /// Next free destination offset per cell (bump allocator, never
    /// reset: destination slots are unique program-wide).
    cursor: Vec<u64>,
    /// Next free DSM store offset per owner.
    dsm_cursor: Vec<u64>,
    /// Cumulative flag bumps per (cell, slot).
    flags: Vec<[u32; FLAG_SLOTS]>,
    /// Cumulative acknowledged PUTs per cell.
    acks: Vec<u32>,
    expected: Expected,
}

impl Builder {
    /// Claims `span` destination bytes on `cell`; `None` when full.
    fn alloc_dst(&mut self, cell: u32, span: u64) -> Option<u64> {
        let c = &mut self.cursor[cell as usize];
        if span == 0 || *c + span > self.region {
            return None;
        }
        let off = *c;
        *c += span;
        Some(off)
    }

    /// Claims a bcast slot at a common offset on *every* cell.
    fn alloc_bcast(&mut self, bytes: u64) -> Option<u64> {
        let off = *self.cursor.iter().max().expect("ncells > 0");
        if off + bytes > self.region {
            return None;
        }
        for c in &mut self.cursor {
            *c = off + bytes;
        }
        Some(off)
    }

    fn alloc_dsm(&mut self, owner: u32, bytes: u64) -> Option<u64> {
        let c = &mut self.dsm_cursor[owner as usize];
        if *c + bytes > DSM_SPAN - DSM_GUARD {
            return None;
        }
        let off = *c;
        *c += bytes;
        Some(off)
    }
}

impl Plan {
    /// Builds the plan. Pure: the same program always yields the same
    /// plan, which is what lets every cell of the SPMD program compute
    /// it independently.
    pub fn build(prog: &FuzzProgram) -> Plan {
        let ncells = prog.ncells.max(1);
        let region = (prog.region & !15).max(64);
        let src_half = region / 2;
        let mut b = Builder {
            ncells,
            region,
            src_half,
            cursor: vec![src_half; ncells as usize],
            dsm_cursor: vec![0; ncells as usize],
            flags: vec![[0; FLAG_SLOTS]; ncells as usize],
            acks: vec![0; ncells as usize],
            expected: Expected::default(),
        };
        // Setup barrier after the pattern writes.
        b.expected.barrier_calls = ncells as u64;
        let mut rounds = Vec::with_capacity(prog.rounds.len());
        let mut expect_error = None;
        for (r, actions) in prog.rounds.iter().enumerate() {
            let round = build_round(&mut b, prog.seed, r as u64, actions, &mut expect_error);
            rounds.push(round);
        }
        let mem_size = (2 * region + (1 << 20)).max(16 << 20);
        Plan {
            ncells,
            region,
            src_half,
            expected: b.expected,
            flag_final: b.flags,
            expect_error,
            mem_size,
            rounds,
        }
    }
}

#[allow(clippy::too_many_lines)]
fn build_round(
    b: &mut Builder,
    seed: u64,
    round: u64,
    actions: &[Action],
    expect_error: &mut Option<String>,
) -> Round {
    let n = b.ncells;
    let cell = |c: u32| c % n;
    // Pass 1: DSM store ranges of this round, for load-hazard filtering.
    let mut store_ranges: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n as usize];
    {
        let mut probe = b.dsm_cursor.clone();
        for a in actions {
            if let Action::RStore { owner, bytes, .. } = a {
                let owner = cell(*owner);
                let len = (*bytes as u64).clamp(1, 512);
                let c = &mut probe[owner as usize];
                if *c + len <= DSM_SPAN - DSM_GUARD {
                    store_ranges[owner as usize].push((*c, len));
                    *c += len;
                }
            }
        }
    }
    let mut ops = Vec::new();
    let mut bumps: Vec<[u32; FLAG_SLOTS]> = vec![[0; FLAG_SLOTS]; n as usize];
    let mut fence = vec![false; n as usize];
    for (i, a) in actions.iter().enumerate() {
        match *a {
            Action::Put {
                src,
                dst,
                src_off,
                item,
                count,
                extra,
                mode,
                flag_send,
                flag_recv,
                ack,
            } => {
                let (src, dst) = (cell(src), cell(dst));
                let (contig, send, recv, send_span, recv_span, total) =
                    resolve_specs(mode, item, count, extra);
                if total > MAX_DMA_BYTES && contig.is_none() {
                    continue; // only the chunking contiguous path may exceed one DMA
                }
                if mode != StrideMode::Contig && send_span.max(recv_span) > MAX_SPAN {
                    continue;
                }
                if send_span > b.src_half {
                    continue;
                }
                let Some(dst_off) = b.alloc_dst(dst, recv_span) else {
                    continue;
                };
                let src_off = src_off as u64 % (b.src_half - send_span + 1);
                let flag_send = flag_slot(flag_send);
                let flag_recv = flag_slot(flag_recv);
                // Visibility rule: the oracle checks destination memory
                // right after the final barrier, so every PUT must be
                // *provably delivered* by round end — either the receiver
                // waits a recv flag, or the sender waits the acknowledge
                // (in-order T-net: the ack probe returns after delivery).
                let ack = ack || flag_recv.is_none();
                if let Some(s) = flag_send {
                    bumps[src as usize][s] += 1;
                }
                if let Some(s) = flag_recv {
                    bumps[dst as usize][s] += 1;
                }
                b.expected.puts += contig.map_or(1, chunks_of);
                if ack {
                    b.expected.ack_probes += 1;
                    b.acks[src as usize] += 1;
                }
                ops.push(Op::Put {
                    src,
                    dst,
                    src_off,
                    dst_off,
                    contig,
                    send,
                    recv,
                    flag_send,
                    flag_recv,
                    ack,
                });
            }
            Action::Get {
                owner,
                reader,
                src_off,
                item,
                count,
                extra,
                mode,
                flag_send,
                flag_recv,
            } => {
                let (owner, reader) = (cell(owner), cell(reader));
                let (contig, send, recv, send_span, recv_span, total) =
                    resolve_specs(mode, item, count, extra);
                if total > MAX_DMA_BYTES && contig.is_none() {
                    continue;
                }
                if mode != StrideMode::Contig && send_span.max(recv_span) > MAX_SPAN {
                    continue;
                }
                if send_span > b.src_half {
                    continue;
                }
                let Some(dst_off) = b.alloc_dst(reader, recv_span) else {
                    continue;
                };
                let src_off = src_off as u64 % (b.src_half - send_span + 1);
                let flag_send = flag_slot(flag_send);
                // Visibility rule: GET has no acknowledge variant, so the
                // reader always waits a recv flag before the barrier.
                let flag_recv = Some(flag_slot(flag_recv).unwrap_or(i % FLAG_SLOTS));
                if let Some(s) = flag_send {
                    bumps[owner as usize][s] += 1;
                }
                if let Some(s) = flag_recv {
                    bumps[reader as usize][s] += 1;
                }
                b.expected.gets += contig.map_or(1, chunks_of);
                ops.push(Op::Get {
                    owner,
                    reader,
                    src_off,
                    dst_off,
                    contig,
                    send,
                    recv,
                    flag_send,
                    flag_recv,
                });
            }
            Action::Send {
                src,
                dst,
                src_off,
                bytes,
            } => {
                let (src, dst) = (cell(src), cell(dst));
                let bytes = (bytes as u64).clamp(1, 2048);
                if bytes > b.src_half {
                    continue;
                }
                let Some(dst_off) = b.alloc_dst(dst, bytes) else {
                    continue;
                };
                let src_off = src_off as u64 % (b.src_half - bytes + 1);
                b.expected.sends += 1;
                b.expected.recvs += 1;
                ops.push(Op::Send {
                    src,
                    dst,
                    src_off,
                    dst_off,
                    bytes,
                });
            }
            Action::Bcast { root, bytes } => {
                let root = cell(root);
                // Multiple of 8: payloads are written as u64 words.
                let bytes = (bytes as u64).clamp(8, 1024) & !7;
                let Some(off) = b.alloc_bcast(bytes) else {
                    continue;
                };
                b.expected.bcast_calls += n as u64;
                ops.push(Op::Bcast {
                    root,
                    off,
                    bytes,
                    pattern: seed ^ (round << 32) ^ (i as u64) ^ 0xb0a5,
                });
            }
            Action::RStore {
                src,
                owner,
                bytes,
                pattern,
            } => {
                let (src, owner) = (cell(src), cell(owner));
                let bytes = (bytes as u64).clamp(1, 512);
                let Some(off) = b.alloc_dsm(owner, bytes) else {
                    continue;
                };
                fence[src as usize] = true;
                b.expected.remote_stores += 1;
                ops.push(Op::RStore {
                    src,
                    owner,
                    off,
                    bytes,
                    pattern: pattern as u64 ^ seed,
                });
            }
            Action::RLoad {
                reader,
                owner,
                off,
                bytes,
            } => {
                let (reader, owner) = (cell(reader), cell(owner));
                let bytes = (bytes as u64).clamp(1, 512);
                let off = off as u64 % (DSM_SPAN - bytes + 1);
                let hazard = store_ranges[owner as usize]
                    .iter()
                    .any(|&(s, l)| off < s + l && s < off + bytes);
                if hazard {
                    continue;
                }
                b.expected.remote_loads += 1;
                ops.push(Op::RLoad {
                    reader,
                    owner,
                    off,
                    bytes,
                });
            }
            Action::Work { cell: c, flops } => {
                let c = cell(c);
                let flops = (flops as u64).clamp(1, 100_000);
                b.expected.works += 1;
                ops.push(Op::Work { cell: c, flops });
            }
            Action::BadPutEmpty { src, dst } => {
                hostile(
                    &mut ops,
                    expect_error,
                    cell(src),
                    cell(dst),
                    HostileKind::Empty,
                );
            }
            Action::BadPutOverlap { src, dst } => {
                hostile(
                    &mut ops,
                    expect_error,
                    cell(src),
                    cell(dst),
                    HostileKind::Overlap,
                );
            }
            Action::BadGetMismatch { reader, owner } => {
                hostile(
                    &mut ops,
                    expect_error,
                    cell(reader),
                    cell(owner),
                    HostileKind::Mismatch,
                );
            }
        }
    }
    // Synthesize the waits: each cell waits for every flag slot bumped on
    // it this round to reach its cumulative total.
    let mut waits = vec![Vec::new(); n as usize];
    for c in 0..n as usize {
        for (s, &bump) in bumps[c].iter().enumerate() {
            if bump > 0 {
                b.flags[c][s] += bump;
                waits[c].push((s, b.flags[c][s]));
                b.expected.flag_waits += 1;
            }
        }
    }
    let wait_acks: Vec<bool> = b.acks.iter().map(|&a| a > 0).collect();
    for c in 0..n as usize {
        if fence[c] {
            b.expected.fences += 1;
        }
        if wait_acks[c] {
            b.expected.flag_waits += 1; // wait_acks is a flag wait
        }
    }
    b.expected.barrier_calls += n as u64;
    Round {
        ops,
        waits,
        fence,
        wait_acks,
    }
}

fn hostile(
    ops: &mut Vec<Op>,
    expect_error: &mut Option<String>,
    src: u32,
    dst: u32,
    kind: HostileKind,
) {
    if expect_error.is_none() {
        *expect_error = Some(kind.expect().to_string());
    }
    ops.push(Op::Hostile { src, dst, kind });
}
