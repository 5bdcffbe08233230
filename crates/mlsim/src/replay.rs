//! The trace replay engine.
//!
//! Replays a recorded [`Trace`] under a [`ModelParams`] file, preserving
//! message order and synchronization between processors (§5). Per-PE time
//! is split into the four Figure-8 buckets. The engine models:
//!
//! * CPU occupancy per PE (a [`Resource`]): under **software handling**,
//!   arriving messages steal CPU time from the program via interrupt
//!   service (Figure 7 items 8–10), which is precisely what prevents
//!   communication/computation overlap on the AP1000;
//! * one send-DMA engine and one receive engine per PE;
//! * the T-net latency/FIFO model shared with the machine emulator.

use crate::params::ModelParams;
use apnet::{Contention, TNet, TNetParams, Torus};
use apobs::{Bucket, Hist, Recorder, Seg, TimelineMode, Unit, XferKind, XferTracker};
use apsim::{Clock, EventQueue, Resource};
use aptrace::{Op, Trace};
use aputil::{CellId, IntMap, SimTime};
use core::fmt;
use std::collections::VecDeque;
use std::error::Error;

/// Per-PE Figure-8 buckets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeBreakdown {
    /// User computation.
    pub exec: SimTime,
    /// Run-time-system time.
    pub rts: SimTime,
    /// Communication-library / interrupt CPU overhead.
    pub overhead: SimTime,
    /// Blocked time (flags, receives, barriers).
    pub idle: SimTime,
    /// Completion time of this PE.
    pub finish: SimTime,
}

/// Result of one replay.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayResult {
    /// Model name the trace was replayed under.
    pub model: String,
    /// Per-PE buckets.
    pub per_pe: Vec<PeBreakdown>,
    /// Total execution time (max PE finish).
    pub total: SimTime,
    /// Unified hardware counters (message-size, flag-wait, and network
    /// latency histograms; the queue counters are only populated by the
    /// machine emulator, which models the MSC+ queues).
    pub counters: apobs::Counters,
    /// Sim-time event timeline, using the same event vocabulary as the
    /// emulator (empty unless replayed via [`replay_observed`] with
    /// `record_timeline`); export with [`apobs::chrome_trace`].
    pub timeline: apobs::Timeline,
}

impl ReplayResult {
    /// Machine-wide mean of one bucket.
    pub fn mean(&self, f: impl Fn(&PeBreakdown) -> SimTime) -> SimTime {
        if self.per_pe.is_empty() {
            return SimTime::ZERO;
        }
        let sum: u64 = self.per_pe.iter().map(|p| f(p).as_nanos()).sum();
        SimTime::from_nanos(sum / self.per_pe.len() as u64)
    }
}

/// Replay failures: malformed traces (mismatched collectives, a receive
/// with no matching send) surface here rather than hanging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace deadlocked under replay (should not happen for traces
    /// recorded from successful emulator runs).
    Stuck(String),
    /// Structurally inconsistent trace.
    Mismatch(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Stuck(m) => write!(f, "replay deadlocked: {m}"),
            ReplayError::Mismatch(m) => write!(f, "inconsistent trace: {m}"),
        }
    }
}

impl Error for ReplayError {}

/// Wire header bytes (matches the emulator's packet header).
const HEADER: u64 = 32;

#[derive(Debug)]
enum REv {
    Step {
        pe: u32,
    },
    PutArrive {
        dst: u32,
        bytes: u64,
        recv_flag: u64,
        tid: u64,
    },
    GetArrive {
        dst: u32,
        requester: u32,
        bytes: u64,
        send_flag: u64,
        recv_flag: u64,
        tid: u64,
    },
    RingArrive {
        dst: u32,
        src: u32,
        bytes: u64,
    },
    RegArrive {
        dst: u32,
        reg: u16,
    },
    FlagInc {
        pe: u32,
        flag: u64,
        tid: u64,
    },
    /// DSM store landed at the owner; send the automatic acknowledge back.
    RStoreArrive {
        dst: u32,
        src: u32,
        bytes: u64,
    },
    /// DSM store acknowledge returned to the issuing cell.
    RAckArrive {
        dst: u32,
    },
    /// DSM load request reached the owner.
    RLoadArrive {
        dst: u32,
        requester: u32,
        bytes: u64,
    },
    /// DSM load reply returned; unblock the loading cell.
    RLoadReply {
        dst: u32,
    },
}

/// What a blocked PE is waiting for, and since when. A PE runs one op at a
/// time, so it has at most one wait: the table is a vector indexed by PE.
#[derive(Clone, Copy, Debug)]
enum Wait {
    None,
    Flag {
        flag: u64,
        target: u32,
        since: SimTime,
    },
    Recv {
        src: u32,
        since: SimTime,
    },
    Reg {
        reg: u16,
        since: SimTime,
    },
    Fence {
        since: SimTime,
    },
    Load {
        since: SimTime,
    },
}

struct Engine<'t> {
    p: ModelParams,
    trace: &'t Trace,
    evq: EventQueue<REv>,
    clock: Clock,
    tnet: TNet,
    pc: Vec<usize>,
    cpu: Vec<Resource>,
    send_engine: Vec<Resource>,
    recv_engine: Vec<Resource>,
    bd: Vec<PeBreakdown>,
    done: Vec<bool>,
    done_count: usize,
    waits: Vec<Wait>,
    flag_counts: IntMap<(u32, u64), u32>,
    ring_ready: IntMap<(u32, u32), VecDeque<(SimTime, u64)>>,
    reg_ready: IntMap<(u32, u16), VecDeque<SimTime>>,
    barrier: Vec<(u32, SimTime)>,
    bcast: Vec<(u32, SimTime)>,
    bcast_sig: Option<(u32, u64)>,
    rstore_issued: Vec<u64>,
    rstore_acked: Vec<u64>,
    obs: Recorder,
    flag_wait: Hist,
    next_tid: u64,
    xfers: XferTracker,
}

/// Replays `trace` under model `params`.
///
/// # Errors
///
/// [`ReplayError`] on malformed traces; traces recorded from successful
/// `apcore` runs always replay cleanly.
pub fn replay(trace: &Trace, params: &ModelParams) -> Result<ReplayResult, ReplayError> {
    replay_observed(trace, params, false)
}

/// Replays `trace` under model `params`, optionally recording the
/// sim-time event timeline (the same vocabulary the machine emulator
/// emits, so both can be compared side by side in Perfetto).
///
/// # Errors
///
/// [`ReplayError`] on malformed traces.
pub fn replay_observed(
    trace: &Trace,
    params: &ModelParams,
    record_timeline: bool,
) -> Result<ReplayResult, ReplayError> {
    let n = trace.ncells();
    let torus = Torus::for_cells(n as u32);
    let tparams = TNetParams {
        prolog: params.network_prolog,
        per_hop: params.network_delay,
        per_byte: params.network_msg_per_byte,
    };
    let mut tnet = TNet::new(torus, tparams, Contention::None);
    let mode = if record_timeline {
        TimelineMode::Full
    } else {
        TimelineMode::Off
    };
    tnet.enable_events(mode.clone());
    let mut eng = Engine {
        p: params.clone(),
        trace,
        evq: EventQueue::new(),
        clock: Clock::new(),
        tnet,
        pc: vec![0; n],
        cpu: vec![Resource::new(); n],
        send_engine: vec![Resource::new(); n],
        recv_engine: vec![Resource::new(); n],
        bd: vec![PeBreakdown::default(); n],
        done: vec![false; n],
        done_count: 0,
        waits: vec![Wait::None; n],
        flag_counts: IntMap::default(),
        ring_ready: IntMap::default(),
        reg_ready: IntMap::default(),
        barrier: Vec::new(),
        bcast: Vec::new(),
        bcast_sig: None,
        rstore_issued: vec![0; n],
        rstore_acked: vec![0; n],
        obs: Recorder::new(mode),
        flag_wait: Hist::new(),
        next_tid: 0,
        xfers: XferTracker::new(),
    };
    for pe in 0..n as u32 {
        eng.evq.push(SimTime::ZERO, REv::Step { pe });
    }
    eng.run()?;
    let total = eng
        .bd
        .iter()
        .map(|b| b.finish)
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut counters = apobs::Counters::new();
    counters.msg_size.merge(&eng.tnet.obs().msg_size);
    counters.hop_latency.merge(&eng.tnet.obs().latency);
    counters.flag_wait.merge(&eng.flag_wait);
    counters.put_lat.merge(&eng.xfers.put_lat);
    counters.get_lat.merge(&eng.xfers.get_lat);
    let mut timeline = apobs::Timeline::from_events(params.name.clone(), eng.obs.take_events());
    timeline.extend(eng.tnet.take_events());
    timeline.sort();
    Ok(ReplayResult {
        model: params.name.clone(),
        per_pe: eng.bd,
        total,
        counters,
        timeline,
    })
}

impl Engine<'_> {
    fn run(&mut self) -> Result<(), ReplayError> {
        while let Some((t, ev)) = self.evq.pop() {
            self.clock.advance_to(t);
            self.handle(ev)?;
        }
        if self.done_count < self.done.len() {
            let stuck: Vec<String> = self
                .done
                .iter()
                .enumerate()
                .filter(|(_, d)| !**d)
                .map(|(i, _)| format!("pe{i}@op{}", self.pc[i]))
                .collect();
            return Err(ReplayError::Stuck(stuck.join(", ")));
        }
        Ok(())
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advances `pe` past its current op, scheduling the next Step.
    fn advance(&mut self, pe: u32, at: SimTime) {
        self.pc[pe as usize] += 1;
        self.evq.push(at, REv::Step { pe });
    }

    /// Clears `pe`'s wait and returns what `woken` extracts from it, if
    /// the wait is the one the arriving event satisfies.
    fn take_wait<T>(&mut self, pe: u32, woken: impl FnOnce(Wait) -> Option<T>) -> Option<T> {
        let slot = &mut self.waits[pe as usize];
        let hit = woken(*slot)?;
        *slot = Wait::None;
        Some(hit)
    }

    /// Allocates a fresh nonzero transfer-chain id.
    fn alloc_tid(&mut self) -> u64 {
        self.next_tid += 1;
        self.next_tid
    }

    fn handle(&mut self, ev: REv) -> Result<(), ReplayError> {
        match ev {
            REv::Step { pe } => self.step(pe),
            REv::PutArrive {
                dst,
                bytes,
                recv_flag,
                tid,
            } => {
                let landed = self.receive_payload(dst, bytes, tid);
                self.xfers.charge(tid, Seg::Delivery, landed);
                self.xfers.finish(tid, landed);
                if recv_flag != 0 {
                    self.evq.push(
                        landed,
                        REv::FlagInc {
                            pe: dst,
                            flag: recv_flag,
                            tid,
                        },
                    );
                }
                Ok(())
            }
            REv::GetArrive {
                dst,
                requester,
                bytes,
                send_flag,
                recv_flag,
                tid,
            } => {
                // The owner's MSC+ (or interrupt handler) produces the reply.
                // Under software handling the reply is issued from *inside*
                // the interrupt handler — it pays header analysis, the
                // cache post for the gathered data, and the reply DMA
                // setup, but not the user-level SVC prolog/epilog of
                // Figure 7 (the handler is already in the kernel).
                let now = self.now();
                let cpu_cost = self.p.recv_cpu_overhead(0)
                    + if self.p.software_handling {
                        self.p.put_msg_post_per_byte.saturating_mul(bytes) + self.p.put_dma_set
                    } else {
                        SimTime::ZERO
                    };
                let ready = if cpu_cost > SimTime::ZERO {
                    let (_, e) = self.cpu[dst as usize].reserve(now, cpu_cost);
                    self.bd[dst as usize].overhead += cpu_cost;
                    e
                } else {
                    now
                };
                self.xfers.charge(tid, Seg::Issue, ready);
                let (rs, depart) =
                    self.send_engine[dst as usize].reserve(ready, self.p.send_hw_latency(bytes));
                self.xfers.charge(tid, Seg::Queue, rs);
                self.xfers.charge(tid, Seg::Dma, depart);
                if send_flag != 0 {
                    self.evq.push(
                        depart,
                        REv::FlagInc {
                            pe: dst,
                            flag: send_flag,
                            tid,
                        },
                    );
                }
                let arrival = self.tnet.transfer_tagged(
                    depart,
                    CellId::new(dst),
                    CellId::new(requester),
                    bytes + HEADER,
                    tid,
                );
                self.xfers.charge(tid, Seg::Net, arrival);
                self.evq.push(
                    arrival,
                    REv::PutArrive {
                        dst: requester,
                        bytes,
                        recv_flag,
                        tid,
                    },
                );
                Ok(())
            }
            REv::RingArrive { dst, src, bytes } => {
                let ready = self.receive_payload(dst, bytes, 0);
                self.ring_ready
                    .entry((dst, src))
                    .or_default()
                    .push_back((ready, bytes));
                if let Some(since) = self.take_wait(dst, |w| match w {
                    Wait::Recv { src: s, since } if s == src => Some(since),
                    _ => None,
                }) {
                    let (r, b) = self
                        .ring_ready
                        .get_mut(&(dst, src))
                        .expect("just pushed")
                        .pop_front()
                        .expect("just pushed");
                    self.finish_recv(dst, b, since, r);
                }
                Ok(())
            }
            REv::RegArrive { dst, reg } => {
                let now = self.now();
                self.reg_ready.entry((dst, reg)).or_default().push_back(now);
                if let Some(since) = self.take_wait(dst, |w| match w {
                    Wait::Reg { reg: r, since } if r == reg => Some(since),
                    _ => None,
                }) {
                    self.reg_ready
                        .get_mut(&(dst, reg))
                        .expect("just pushed")
                        .pop_front();
                    self.obs.span(
                        dst,
                        Unit::Cpu,
                        "reg_load_wait",
                        since,
                        now.saturating_sub(since),
                        Bucket::Idle,
                        reg as u64,
                    );
                    self.bd[dst as usize].idle += now.saturating_sub(since);
                    let (_, e) = self.cpu[dst as usize].reserve(now, self.p.reg_load);
                    self.bd[dst as usize].overhead += self.p.reg_load;
                    self.advance(dst, e);
                }
                Ok(())
            }
            REv::RStoreArrive { dst, src, bytes } => {
                // Land the store (receive side), then the MSC+ replies with
                // an acknowledge packet automatically (§4.2).
                let landed = self.receive_payload(dst, bytes, 0);
                let (_, depart) =
                    self.send_engine[dst as usize].reserve(landed, self.p.send_hw_latency(0));
                let arrival =
                    self.tnet
                        .transfer(depart, CellId::new(dst), CellId::new(src), HEADER);
                self.evq.push(arrival, REv::RAckArrive { dst: src });
                Ok(())
            }
            REv::RAckArrive { dst } => {
                let now = self.now();
                self.rstore_acked[dst as usize] += 1;
                if self.rstore_acked[dst as usize] == self.rstore_issued[dst as usize] {
                    if let Some(since) = self.take_wait(dst, |w| match w {
                        Wait::Fence { since } => Some(since),
                        _ => None,
                    }) {
                        self.obs.span(
                            dst,
                            Unit::Cpu,
                            "remote_fence",
                            since,
                            now.saturating_sub(since),
                            Bucket::Idle,
                            self.rstore_acked[dst as usize],
                        );
                        self.bd[dst as usize].idle += now.saturating_sub(since);
                        self.advance(dst, now);
                    }
                }
                Ok(())
            }
            REv::RLoadArrive {
                dst,
                requester,
                bytes,
            } => {
                let now = self.now();
                let serve = self.p.recv_cpu_overhead(0);
                let ready = if serve > SimTime::ZERO {
                    let (_, e) = self.cpu[dst as usize].reserve(now, serve);
                    self.bd[dst as usize].overhead += serve;
                    e
                } else {
                    now
                };
                let (_, depart) =
                    self.send_engine[dst as usize].reserve(ready, self.p.send_hw_latency(bytes));
                let arrival = self.tnet.transfer(
                    depart,
                    CellId::new(dst),
                    CellId::new(requester),
                    bytes + HEADER,
                );
                self.evq.push(arrival, REv::RLoadReply { dst: requester });
                Ok(())
            }
            REv::RLoadReply { dst } => {
                let now = self.now();
                if let Some(since) = self.take_wait(dst, |w| match w {
                    Wait::Load { since } => Some(since),
                    _ => None,
                }) {
                    self.obs.span(
                        dst,
                        Unit::Cpu,
                        "remote_load",
                        since,
                        now.saturating_sub(since),
                        Bucket::Idle,
                        0,
                    );
                    self.bd[dst as usize].idle += now.saturating_sub(since);
                    self.advance(dst, now);
                }
                Ok(())
            }
            REv::FlagInc { pe, flag, tid } => {
                let now = self.now();
                self.obs
                    .instant_id(pe, Unit::Cpu, "flag_update", now, Bucket::Hw, flag, tid);
                let c = self.flag_counts.entry((pe, flag)).or_insert(0);
                *c += 1;
                let count = *c;
                if let Some(since) = self.take_wait(pe, |w| match w {
                    Wait::Flag {
                        flag: f,
                        target,
                        since,
                    } if f == flag && count >= target => Some(since),
                    _ => None,
                }) {
                    let waited = now.saturating_sub(since);
                    self.flag_wait.record(waited.as_nanos());
                    self.obs.span_id(
                        pe,
                        Unit::Cpu,
                        "wait_flag",
                        since,
                        waited,
                        Bucket::Idle,
                        flag,
                        tid,
                    );
                    self.bd[pe as usize].idle += waited;
                    let (_, e) = self.cpu[pe as usize].reserve(now, self.p.flag_check);
                    self.bd[pe as usize].overhead += self.p.flag_check;
                    self.advance(pe, e);
                }
                Ok(())
            }
        }
    }

    /// Models landing a payload at `dst`: interrupt service (software
    /// handling) or receive engine (hardware). Returns the time the data
    /// and its flag are usable.
    fn receive_payload(&mut self, dst: u32, bytes: u64, tid: u64) -> SimTime {
        let now = self.now();
        if self.p.software_handling {
            let service = self.p.recv_cpu_overhead(bytes);
            let (s, e) = self.cpu[dst as usize].reserve(now, service);
            self.obs.span_id(
                dst,
                Unit::Cpu,
                "recv_intr",
                s,
                service,
                Bucket::Overhead,
                bytes,
                tid,
            );
            self.bd[dst as usize].overhead += service;
            e + self.p.put_msg_per_byte.saturating_mul(bytes)
        } else {
            let (s, e) = self.recv_engine[dst as usize].reserve(now, self.p.recv_hw_latency(bytes));
            self.obs.span_id(
                dst,
                Unit::RecvDma,
                "recv_dma",
                s,
                e.saturating_sub(s),
                Bucket::Hw,
                bytes,
                tid,
            );
            e
        }
    }

    fn finish_recv(&mut self, pe: u32, bytes: u64, since: SimTime, ready: SimTime) {
        let now = self.now().max(ready);
        let waited = now.saturating_sub(since);
        if waited > SimTime::ZERO {
            self.obs.span(
                pe,
                Unit::Cpu,
                "recv_wait",
                since,
                waited,
                Bucket::Idle,
                bytes,
            );
        }
        self.bd[pe as usize].idle += waited;
        let copy = self.p.recv_copy_per_byte.saturating_mul(bytes) + self.p.flag_check;
        let (s, e) = self.cpu[pe as usize].reserve(now, copy);
        self.obs
            .span(pe, Unit::Cpu, "recv_copy", s, copy, Bucket::Overhead, bytes);
        self.bd[pe as usize].overhead += copy;
        self.advance(pe, e);
    }

    fn step(&mut self, pe: u32) -> Result<(), ReplayError> {
        let t = self.now();
        let idx = self.pc[pe as usize];
        let ops = &self.trace.pe(CellId::new(pe)).ops;
        if idx >= ops.len() {
            if !self.done[pe as usize] {
                self.done[pe as usize] = true;
                self.done_count += 1;
                self.bd[pe as usize].finish = t;
            }
            return Ok(());
        }
        let op = ops[idx];
        match op {
            Op::Work { flops } => {
                let dur = SimTime::from_nanos(
                    (self.p.flop_time().as_nanos() as f64 * flops as f64) as u64,
                );
                let (s, e) = self.cpu[pe as usize].reserve(t, dur);
                self.obs
                    .span(pe, Unit::Cpu, "work", s, dur, Bucket::Exec, flops);
                self.bd[pe as usize].exec += dur;
                self.advance(pe, e);
            }
            Op::Rts { units } => {
                let dur = SimTime::from_nanos(
                    (self.p.rts_time().as_nanos() as f64 * units as f64) as u64,
                );
                let (s, e) = self.cpu[pe as usize].reserve(t, dur);
                self.obs
                    .span(pe, Unit::Cpu, "rts", s, dur, Bucket::Rts, units);
                self.bd[pe as usize].rts += dur;
                self.advance(pe, e);
            }
            Op::Put {
                dst,
                bytes,
                send_flag,
                recv_flag,
                ..
            } => {
                let over = self.p.send_cpu_overhead(bytes);
                let tid = self.alloc_tid();
                self.xfers.start(tid, XferKind::Put, bytes, t);
                let (s, e) = self.cpu[pe as usize].reserve(t, over);
                self.xfers.charge(tid, Seg::Issue, e);
                self.obs.span_id(
                    pe,
                    Unit::Cpu,
                    "put_issue",
                    s,
                    over,
                    Bucket::Overhead,
                    bytes,
                    tid,
                );
                self.bd[pe as usize].overhead += over;
                let (ds, depart) =
                    self.send_engine[pe as usize].reserve(e, self.p.send_hw_latency(bytes));
                self.xfers.charge(tid, Seg::Queue, ds);
                self.xfers.charge(tid, Seg::Dma, depart);
                self.obs.span_id(
                    pe,
                    Unit::SendDma,
                    "send_dma",
                    ds,
                    depart.saturating_sub(ds),
                    Bucket::Hw,
                    bytes,
                    tid,
                );
                if send_flag != 0 {
                    self.evq.push(
                        depart,
                        REv::FlagInc {
                            pe,
                            flag: send_flag,
                            tid,
                        },
                    );
                }
                let arrival =
                    self.tnet
                        .transfer_tagged(depart, CellId::new(pe), dst, bytes + HEADER, tid);
                self.xfers.charge(tid, Seg::Net, arrival);
                self.evq.push(
                    arrival,
                    REv::PutArrive {
                        dst: dst.as_u32(),
                        bytes,
                        recv_flag,
                        tid,
                    },
                );
                self.advance(pe, e);
            }
            Op::Get {
                src,
                bytes,
                send_flag,
                recv_flag,
                ..
            } => {
                let over = self.p.send_cpu_overhead(0);
                let tid = self.alloc_tid();
                self.xfers.start(tid, XferKind::Get, bytes, t);
                let (s, e) = self.cpu[pe as usize].reserve(t, over);
                self.xfers.charge(tid, Seg::Issue, e);
                self.obs.span_id(
                    pe,
                    Unit::Cpu,
                    "get_issue",
                    s,
                    over,
                    Bucket::Overhead,
                    bytes,
                    tid,
                );
                self.bd[pe as usize].overhead += over;
                let (rs, depart) =
                    self.send_engine[pe as usize].reserve(e, self.p.send_hw_latency(0));
                self.xfers.charge(tid, Seg::Queue, rs);
                self.xfers.charge(tid, Seg::Dma, depart);
                let arrival = self
                    .tnet
                    .transfer_tagged(depart, CellId::new(pe), src, HEADER, tid);
                self.xfers.charge(tid, Seg::Net, arrival);
                self.evq.push(
                    arrival,
                    REv::GetArrive {
                        dst: src.as_u32(),
                        requester: pe,
                        bytes,
                        send_flag,
                        recv_flag,
                        tid,
                    },
                );
                self.advance(pe, e);
            }
            Op::Send { dst, bytes } => {
                let over = self.p.send_call + self.p.send_cpu_overhead(bytes);
                let (s, e) = self.cpu[pe as usize].reserve(t, over);
                self.obs
                    .span(pe, Unit::Cpu, "send_call", s, over, Bucket::Overhead, bytes);
                self.bd[pe as usize].overhead += over;
                let (ds, depart) =
                    self.send_engine[pe as usize].reserve(e, self.p.send_hw_latency(bytes));
                self.obs.span(
                    pe,
                    Unit::SendDma,
                    "send_dma",
                    ds,
                    depart.saturating_sub(ds),
                    Bucket::Hw,
                    bytes,
                );
                let arrival = self
                    .tnet
                    .transfer(depart, CellId::new(pe), dst, bytes + HEADER);
                self.evq.push(
                    arrival,
                    REv::RingArrive {
                        dst: dst.as_u32(),
                        src: pe,
                        bytes,
                    },
                );
                // Blocking SEND: the library waits for send completion.
                let blocked = depart.saturating_sub(e);
                if blocked > SimTime::ZERO {
                    self.obs
                        .span(pe, Unit::Cpu, "send_wait", e, blocked, Bucket::Idle, bytes);
                }
                self.bd[pe as usize].idle += blocked;
                self.advance(pe, e.max(depart));
            }
            Op::Recv { src, .. } => {
                let key = (pe, src.as_u32());
                if let Some(q) = self.ring_ready.get_mut(&key) {
                    if let Some((ready, bytes)) = q.pop_front() {
                        self.finish_recv(pe, bytes, t, ready);
                        return Ok(());
                    }
                }
                self.waits[pe as usize] = Wait::Recv {
                    src: src.as_u32(),
                    since: t,
                };
            }
            Op::WaitFlag { flag, target } => {
                let have = self.flag_counts.get(&(pe, flag)).copied().unwrap_or(0);
                if have >= target {
                    self.flag_wait.record(0);
                    let (s, e) = self.cpu[pe as usize].reserve(t, self.p.flag_check);
                    self.obs.span(
                        pe,
                        Unit::Cpu,
                        "flag_check",
                        s,
                        self.p.flag_check,
                        Bucket::Overhead,
                        flag,
                    );
                    self.bd[pe as usize].overhead += self.p.flag_check;
                    self.advance(pe, e);
                } else {
                    self.waits[pe as usize] = Wait::Flag {
                        flag,
                        target,
                        since: t,
                    };
                }
            }
            Op::Barrier => {
                self.barrier.push((pe, t));
                if self.barrier.len() == self.done.len() {
                    let latest = self
                        .barrier
                        .iter()
                        .map(|&(_, s)| s)
                        .max()
                        .expect("nonempty");
                    let release = latest + self.p.barrier_latency;
                    let parts = std::mem::take(&mut self.barrier);
                    for (p, since) in parts {
                        self.obs.span(
                            p,
                            Unit::Cpu,
                            "barrier",
                            since,
                            release.saturating_sub(since),
                            Bucket::Idle,
                            0,
                        );
                        self.bd[p as usize].idle += release.saturating_sub(since);
                        self.advance(p, release);
                    }
                }
            }
            Op::Bcast { root, bytes } => {
                match self.bcast_sig {
                    None => self.bcast_sig = Some((root.as_u32(), bytes)),
                    Some(sig) => {
                        if sig != (root.as_u32(), bytes) {
                            return Err(ReplayError::Mismatch(format!(
                                "pe{pe} joined bcast({root},{bytes}) but collective is {sig:?}"
                            )));
                        }
                    }
                }
                self.bcast.push((pe, t));
                if self.bcast.len() == self.done.len() {
                    let latest = self.bcast.iter().map(|&(_, s)| s).max().expect("nonempty");
                    let delivery = latest
                        + self.p.network_prolog
                        + self.p.bnet_per_byte.saturating_mul(bytes + HEADER);
                    let parts = std::mem::take(&mut self.bcast);
                    self.bcast_sig = None;
                    for (p, since) in parts {
                        self.obs.span(
                            p,
                            Unit::Cpu,
                            "bcast",
                            since,
                            delivery.saturating_sub(since),
                            Bucket::Idle,
                            bytes,
                        );
                        self.bd[p as usize].idle += delivery.saturating_sub(since);
                        self.advance(p, delivery);
                    }
                }
            }
            Op::RegStore { dst, reg } => {
                let (s, e) = self.cpu[pe as usize].reserve(t, self.p.reg_store);
                self.obs.span(
                    pe,
                    Unit::Cpu,
                    "reg_store",
                    s,
                    self.p.reg_store,
                    Bucket::Overhead,
                    reg as u64,
                );
                self.bd[pe as usize].overhead += self.p.reg_store;
                if dst.as_u32() == pe {
                    self.evq.push(e, REv::RegArrive { dst: pe, reg });
                } else {
                    let arrival = self.tnet.transfer(e, CellId::new(pe), dst, 4 + HEADER);
                    self.evq.push(
                        arrival,
                        REv::RegArrive {
                            dst: dst.as_u32(),
                            reg,
                        },
                    );
                }
                self.advance(pe, e);
            }
            Op::RegLoad { reg } => {
                let key = (pe, reg);
                let token = self.reg_ready.get_mut(&key).and_then(|q| q.pop_front());
                match token {
                    Some(ready) => {
                        let start = t.max(ready);
                        self.bd[pe as usize].idle += ready.saturating_sub(t);
                        let (s, e) = self.cpu[pe as usize].reserve(start, self.p.reg_load);
                        self.obs.span(
                            pe,
                            Unit::Cpu,
                            "reg_load",
                            s,
                            self.p.reg_load,
                            Bucket::Overhead,
                            reg as u64,
                        );
                        self.bd[pe as usize].overhead += self.p.reg_load;
                        self.advance(pe, e);
                    }
                    None => {
                        self.waits[pe as usize] = Wait::Reg { reg, since: t };
                    }
                }
            }
            Op::RemoteStore { dst, bytes } => {
                // Hardware-generated on the AP1000+ (a plain store into
                // shared space); software emulation pays the PUT chain.
                let over = if self.p.software_handling {
                    self.p.send_cpu_overhead(bytes)
                } else {
                    self.p.reg_store
                };
                let (s, e) = self.cpu[pe as usize].reserve(t, over);
                self.obs.span(
                    pe,
                    Unit::Cpu,
                    "remote_store",
                    s,
                    over,
                    Bucket::Overhead,
                    bytes,
                );
                self.bd[pe as usize].overhead += over;
                self.rstore_issued[pe as usize] += 1;
                let (_, depart) =
                    self.send_engine[pe as usize].reserve(e, self.p.send_hw_latency(bytes));
                let arrival = self
                    .tnet
                    .transfer(depart, CellId::new(pe), dst, bytes + HEADER);
                self.evq.push(
                    arrival,
                    REv::RStoreArrive {
                        dst: dst.as_u32(),
                        src: pe,
                        bytes,
                    },
                );
                self.advance(pe, e);
            }
            Op::RemoteLoad { src, bytes } => {
                let over = if self.p.software_handling {
                    self.p.send_cpu_overhead(0)
                } else {
                    self.p.reg_load
                };
                let (_, e) = self.cpu[pe as usize].reserve(t, over);
                self.bd[pe as usize].overhead += over;
                let (_, depart) =
                    self.send_engine[pe as usize].reserve(e, self.p.send_hw_latency(0));
                let arrival = self.tnet.transfer(depart, CellId::new(pe), src, HEADER);
                self.evq.push(
                    arrival,
                    REv::RLoadArrive {
                        dst: src.as_u32(),
                        requester: pe,
                        bytes,
                    },
                );
                self.waits[pe as usize] = Wait::Load { since: t };
            }
            Op::RemoteFence => {
                if self.rstore_acked[pe as usize] == self.rstore_issued[pe as usize] {
                    self.advance(pe, t);
                } else {
                    self.waits[pe as usize] = Wait::Fence { since: t };
                }
            }
            Op::MarkGopScalar | Op::MarkGopVector => {
                self.advance(pe, t);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptrace::Trace;

    fn put(dst: u32, bytes: u64, recv_flag: u64) -> Op {
        Op::Put {
            dst: CellId::new(dst),
            bytes,
            stride: false,
            ack: false,
            send_flag: 0,
            recv_flag,
        }
    }

    #[test]
    fn empty_trace_finishes_at_zero() {
        let t = Trace::new(4);
        let r = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        assert_eq!(r.total, SimTime::ZERO);
    }

    #[test]
    fn work_scales_with_computation_factor() {
        let mut t = Trace::new(1);
        t.pe_mut(CellId::new(0)).push(Op::Work { flops: 1000 });
        let slow = replay(&t, &ModelParams::ap1000()).unwrap();
        let fast = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        assert_eq!(slow.total.as_nanos(), 1000 * 160);
        assert_eq!(fast.total.as_nanos(), 1000 * 20);
    }

    #[test]
    fn put_flag_chain_completes_and_hw_wins() {
        let mut t = Trace::new(2);
        t.pe_mut(CellId::new(0)).push(put(1, 1024, 7));
        t.pe_mut(CellId::new(1))
            .push(Op::WaitFlag { flag: 7, target: 1 });
        let old = replay(&t, &ModelParams::ap1000()).unwrap();
        let star = replay(&t, &ModelParams::ap1000_star()).unwrap();
        let plus = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        assert!(old.total > plus.total);
        assert!(star.total > plus.total, "software handling still pays");
        // Receiver idle until data lands; sender overhead differs 20x.
        assert!(old.per_pe[0].overhead > plus.per_pe[0].overhead * 10);
    }

    #[test]
    fn interrupts_steal_receiver_cpu_only_in_software_model() {
        // PE1 computes while PE0 sends it 10 messages. Under software
        // handling PE1's overhead grows and its work is delayed.
        let mut t = Trace::new(2);
        for _ in 0..10 {
            t.pe_mut(CellId::new(0)).push(put(1, 4096, 0));
        }
        // Two work phases: interrupts land between them and delay the
        // second phase (the engine charges interrupt service to the CPU,
        // pushing subsequent program ops back).
        t.pe_mut(CellId::new(1)).push(Op::Work { flops: 100_000 });
        t.pe_mut(CellId::new(1)).push(Op::Work { flops: 100_000 });
        let old = replay(&t, &ModelParams::ap1000_star()).unwrap();
        let plus = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        assert!(old.per_pe[1].overhead > SimTime::ZERO);
        assert_eq!(plus.per_pe[1].overhead, SimTime::ZERO);
        assert!(old.per_pe[1].finish > plus.per_pe[1].finish);
    }

    #[test]
    fn barrier_synchronizes_all() {
        let mut t = Trace::new(3);
        t.pe_mut(CellId::new(0)).push(Op::Work { flops: 10 });
        for pe in 0..3 {
            t.pe_mut(CellId::new(pe)).push(Op::Barrier);
        }
        let r = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        // All finish at the same post-barrier instant.
        assert_eq!(r.per_pe[0].finish, r.per_pe[1].finish);
        assert_eq!(r.per_pe[1].finish, r.per_pe[2].finish);
        // PEs 1,2 idled waiting for PE 0's work.
        assert!(r.per_pe[1].idle >= SimTime::from_nanos(10 * 20));
    }

    #[test]
    fn send_recv_dependency_orders_time() {
        let mut t = Trace::new(2);
        t.pe_mut(CellId::new(0)).push(Op::Work { flops: 50_000 });
        t.pe_mut(CellId::new(0)).push(Op::Send {
            dst: CellId::new(1),
            bytes: 800,
        });
        t.pe_mut(CellId::new(1)).push(Op::Recv {
            src: CellId::new(0),
            bytes: 800,
        });
        let r = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        assert!(r.per_pe[1].idle > SimTime::from_nanos(50_000 * 20 / 2));
        assert!(r.per_pe[1].finish > r.per_pe[0].finish.saturating_sub(SimTime::from_micros(100)));
    }

    #[test]
    fn reg_protocol_round_trip() {
        let mut t = Trace::new(2);
        // PE0 stores to PE1's reg 3; PE1 loads it.
        t.pe_mut(CellId::new(0)).push(Op::RegStore {
            dst: CellId::new(1),
            reg: 3,
        });
        t.pe_mut(CellId::new(1)).push(Op::RegLoad { reg: 3 });
        let r = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        assert!(r.per_pe[1].finish > SimTime::ZERO);
    }

    #[test]
    fn bcast_mismatch_is_detected() {
        let mut t = Trace::new(2);
        t.pe_mut(CellId::new(0)).push(Op::Bcast {
            root: CellId::new(0),
            bytes: 8,
        });
        t.pe_mut(CellId::new(1)).push(Op::Bcast {
            root: CellId::new(1),
            bytes: 8,
        });
        assert!(matches!(
            replay(&t, &ModelParams::ap1000_plus()),
            Err(ReplayError::Mismatch(_))
        ));
    }

    #[test]
    fn unmatched_wait_is_stuck_not_hang() {
        let mut t = Trace::new(2);
        t.pe_mut(CellId::new(0))
            .push(Op::WaitFlag { flag: 9, target: 1 });
        let err = replay(&t, &ModelParams::ap1000_plus()).unwrap_err();
        assert!(matches!(err, ReplayError::Stuck(_)));
    }

    #[test]
    fn get_round_trip_bumps_both_flags() {
        let mut t = Trace::new(2);
        t.pe_mut(CellId::new(0)).push(Op::Get {
            src: CellId::new(1),
            bytes: 512,
            stride: false,
            ack_probe: false,
            send_flag: 11,
            recv_flag: 12,
        });
        t.pe_mut(CellId::new(0)).push(Op::WaitFlag {
            flag: 12,
            target: 1,
        });
        t.pe_mut(CellId::new(1)).push(Op::WaitFlag {
            flag: 11,
            target: 1,
        });
        let r = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        assert!(
            r.per_pe[0].finish
                > r.per_pe[1]
                    .finish
                    .saturating_sub(SimTime::from_micros(1000))
        );
    }

    #[test]
    fn observed_replay_emits_emulator_vocabulary() {
        let mut t = Trace::new(2);
        t.pe_mut(CellId::new(0)).push(Op::Work { flops: 100 });
        t.pe_mut(CellId::new(0)).push(put(1, 1024, 7));
        t.pe_mut(CellId::new(0)).push(Op::Barrier);
        t.pe_mut(CellId::new(1))
            .push(Op::WaitFlag { flag: 7, target: 1 });
        t.pe_mut(CellId::new(1)).push(Op::Barrier);
        let r = replay_observed(&t, &ModelParams::ap1000_plus(), true).unwrap();
        let names: std::collections::HashSet<&str> =
            r.timeline.events.iter().map(|e| e.name).collect();
        for expected in [
            "work",
            "put_issue",
            "send_dma",
            "recv_dma",
            "wait_flag",
            "barrier",
        ] {
            assert!(
                names.contains(expected),
                "missing {expected:?} in {names:?}"
            );
        }
        // Histograms fill regardless of the timeline switch.
        let off = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        assert!(off.timeline.is_empty(), "timeline must default off");
        assert_eq!(off.counters.msg_size.count(), 1);
        assert_eq!(off.counters.flag_wait.count(), 1);
        // Same trace, same model: identical result modulo the timeline.
        assert_eq!(off.per_pe, r.per_pe);
        assert_eq!(off.total, r.total);
    }

    #[test]
    fn breakdown_buckets_cover_finish_time() {
        // exec + rts + overhead + idle should approximately equal finish
        // for a busy PE (small slack from engine pipelining).
        let mut t = Trace::new(2);
        t.pe_mut(CellId::new(0)).push(Op::Work { flops: 1000 });
        t.pe_mut(CellId::new(0)).push(put(1, 2048, 5));
        t.pe_mut(CellId::new(0)).push(Op::Barrier);
        t.pe_mut(CellId::new(1))
            .push(Op::WaitFlag { flag: 5, target: 1 });
        t.pe_mut(CellId::new(1)).push(Op::Barrier);
        for model in [ModelParams::ap1000(), ModelParams::ap1000_plus()] {
            let r = replay(&t, &model).unwrap();
            for (i, b) in r.per_pe.iter().enumerate() {
                let acc = b.exec + b.rts + b.overhead + b.idle;
                let slack = b.finish.saturating_sub(acc);
                assert!(
                    slack <= SimTime::from_micros(2),
                    "{} pe{i}: accounted {} vs finish {}",
                    model.name,
                    acc,
                    b.finish
                );
            }
        }
    }
}
