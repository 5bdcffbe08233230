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
//!
//! Time is charged in three places: [`Engine::book`] bills a bucket and
//! records its span, [`Engine::release`] ends a blocked PE's wait, and
//! [`Engine::transmit`] is the send engine → T-net → arrival chain every
//! message walks.

#![deny(clippy::too_many_lines)]

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
pub use apobs::BucketTimes as PeBreakdown;

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

// Events move by value through the queue, so a fat variant costs every event.
const _: () = assert!(size_of::<REv>() <= 48);

/// What a blocked PE is waiting for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Wait {
    Flag { flag: u64, target: u32 },
    Recv { src: u32 },
    Reg { reg: u16 },
    Fence,
    Load,
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
    /// Since when, and for what, each PE is blocked. A PE runs one op at
    /// a time, so it has at most one wait.
    waits: Vec<Option<(SimTime, Wait)>>,
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

/// The cell an op names besides the one running it.
fn peer(op: &Op) -> Option<CellId> {
    match *op {
        Op::Put { dst, .. }
        | Op::Send { dst, .. }
        | Op::RegStore { dst, .. }
        | Op::RemoteStore { dst, .. } => Some(dst),
        Op::Get { src, .. } | Op::Recv { src, .. } | Op::RemoteLoad { src, .. } => Some(src),
        Op::Bcast { root, .. } => Some(root),
        _ => None,
    }
}

/// The op's cost operand: its flops, RTS units or payload bytes.
fn operand(op: &Op) -> Option<(&'static str, u64)> {
    match *op {
        Op::Work { flops } => Some(("flops", flops)),
        Op::Rts { units } => Some(("units", units)),
        Op::Put { bytes, .. }
        | Op::Get { bytes, .. }
        | Op::Send { bytes, .. }
        | Op::Recv { bytes, .. }
        | Op::Bcast { bytes, .. }
        | Op::RemoteStore { bytes, .. }
        | Op::RemoteLoad { bytes, .. } => Some(("bytes", bytes)),
        _ => None,
    }
}

/// The most flops, RTS units and bytes a trace may carry in total. At the
/// slowest built-in model's 4 µs per RTS unit that is ≈ 51 simulated days,
/// far inside `SimTime`'s 584 years, so no sum of a replay's costs
/// overflows it.
const MAX_TRACE_OPERANDS: u64 = 1 << 40;

/// Checks, before anything is replayed, that every op names a cell the
/// trace has and that the ops' operands stay inside [`MAX_TRACE_OPERANDS`].
fn validate(trace: &Trace) -> Result<(), ReplayError> {
    let (n, mut total) = (trace.ncells(), 0u64);
    for (pe, ops) in trace.iter() {
        let pe = pe.as_u32();
        for (i, op) in ops.ops.iter().enumerate() {
            if let Some(cell) = peer(op).filter(|cell| cell.index() >= n) {
                return Err(ReplayError::Mismatch(format!(
                    "pe{pe} op {i} names {cell}, but the trace has {n} cells"
                )));
            }
            let Some((what, v)) = operand(op) else {
                continue;
            };
            total = (total.checked_add(v))
                .filter(|&t| t <= MAX_TRACE_OPERANDS)
                .ok_or_else(|| {
                    ReplayError::Mismatch(format!(
                        "pe{pe} op {i} carries {what} {v}, past the \
                         {MAX_TRACE_OPERANDS} flops, units and bytes a trace may total"
                    ))
                })?;
        }
    }
    Ok(())
}

/// Replays `trace` under model `params`, optionally recording the
/// sim-time event timeline (the same vocabulary the machine emulator
/// emits, so both can be compared side by side in Perfetto).
///
/// # Errors
///
/// [`ReplayError`] on malformed traces — a trace is outside input (a
/// decoded `.evtrace`), so an op naming a cell the trace does not have, or
/// operands too large to time, is a [`ReplayError::Mismatch`], found
/// before anything is replayed.
pub fn replay_observed(
    trace: &Trace,
    params: &ModelParams,
    record_timeline: bool,
) -> Result<ReplayResult, ReplayError> {
    validate(trace)?;
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
        waits: vec![None; n],
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

    fn block(&mut self, pe: u32, on: Wait) {
        self.waits[pe as usize] = Some((self.now(), on));
    }

    /// Clears `pe`'s wait and returns since when it was blocked — if what
    /// it waits for is exactly `on`.
    fn wake(&mut self, pe: u32, on: Wait) -> Option<SimTime> {
        let slot = &mut self.waits[pe as usize];
        let (since, _) = slot.filter(|&(_, w)| w == on)?;
        *slot = None;
        Some(since)
    }

    /// Allocates a fresh nonzero transfer-chain id.
    fn alloc_tid(&mut self) -> u64 {
        self.next_tid += 1;
        self.next_tid
    }

    // ---- where time is charged ------------------------------------------

    /// Bills `dur` of `pe`'s time from `start` to `bucket` and records the
    /// span that shows it (`tid` 0 = no transfer chain).
    #[allow(clippy::too_many_arguments)] // `Recorder::span_id`'s own list
    fn book(
        &mut self,
        pe: u32,
        name: &'static str,
        start: SimTime,
        dur: SimTime,
        bucket: Bucket,
        arg: u64,
        tid: u64,
    ) {
        self.bd[pe as usize].charge(bucket, dur);
        self.obs
            .span_id(pe, Unit::Cpu, name, start, dur, bucket, arg, tid);
    }

    /// Occupies `pe`'s CPU for `dur` of span-less overhead (interrupt
    /// service, a check folded into a wake) from `at`, or from when it is
    /// next free. Returns when it is done.
    fn occupy(&mut self, pe: u32, at: SimTime, dur: SimTime) -> SimTime {
        let (_, end) = self.cpu[pe as usize].reserve(at, dur);
        self.bd[pe as usize].charge(Bucket::Overhead, dur);
        end
    }

    /// The message handler's CPU share of serving a request that just
    /// arrived at `pe`: nothing on hardware that answers by itself.
    fn serve(&mut self, pe: u32, cost: SimTime) -> SimTime {
        if cost > SimTime::ZERO {
            self.occupy(pe, self.now(), cost)
        } else {
            self.now()
        }
    }

    /// Releases blocked `pe`: its wait from `since` to `until` is booked
    /// idle under span `name`, and its next op steps at `until`.
    fn release(&mut self, pe: u32, name: &'static str, since: SimTime, until: SimTime, arg: u64) {
        let waited = until.saturating_sub(since);
        self.book(pe, name, since, waited, Bucket::Idle, arg, 0);
        self.advance(pe, until);
    }

    /// `pe`'s send engine moves a `bytes` payload from `ready` on.
    /// Returns when it started and when the message departs.
    fn send_dma(&mut self, pe: u32, ready: SimTime, bytes: u64, tid: u64) -> (SimTime, SimTime) {
        let busy = self.p.send_hw_latency(bytes);
        let (start, depart) = self.send_engine[pe as usize].reserve(ready, busy);
        self.xfers.charge(tid, Seg::Queue, start);
        self.xfers.charge(tid, Seg::Dma, depart);
        (start, depart)
    }

    /// Header plus `bytes` cross the T-net from `src` to `dst`; `arrive`
    /// fires on arrival.
    fn wire(&mut self, src: u32, dst: u32, depart: SimTime, bytes: u64, tid: u64, arrive: REv) {
        let (src, dst) = (CellId::new(src), CellId::new(dst));
        let arrival = self
            .tnet
            .transfer_tagged(depart, src, dst, bytes + HEADER, tid);
        self.xfers.charge(tid, Seg::Net, arrival);
        self.evq.push(arrival, arrive);
    }

    /// The chain every message outside a tracked PUT/GET walks from
    /// `ready`: send engine, then the T-net, then `arrive` at `dst`.
    fn transmit(
        &mut self,
        src: u32,
        dst: u32,
        ready: SimTime,
        bytes: u64,
        arrive: REv,
    ) -> (SimTime, SimTime) {
        let (start, depart) = self.send_dma(src, ready, bytes, 0);
        self.wire(src, dst, depart, bytes, 0, arrive);
        (start, depart)
    }

    /// Schedules the fetch-and-increment of `pe`'s `flag` (0 = none).
    fn flag_inc_at(&mut self, at: SimTime, pe: u32, flag: u64, tid: u64) {
        if flag != 0 {
            self.evq.push(at, REv::FlagInc { pe, flag, tid });
        }
    }

    // ---- arrivals --------------------------------------------------------

    fn handle(&mut self, ev: REv) -> Result<(), ReplayError> {
        match ev {
            REv::Step { pe } => return self.step(pe),
            REv::PutArrive {
                dst,
                bytes,
                recv_flag,
                tid,
            } => {
                let landed = self.receive_payload(dst, bytes, tid);
                self.xfers.charge(tid, Seg::Delivery, landed);
                self.xfers.finish(tid, landed);
                self.flag_inc_at(landed, dst, recv_flag, tid);
            }
            REv::GetArrive {
                dst,
                requester,
                bytes,
                send_flag,
                recv_flag,
                tid,
            } => self.get_arrive(dst, requester, bytes, send_flag, recv_flag, tid),
            REv::RingArrive { dst, src, bytes } => {
                let ready = self.receive_payload(dst, bytes, 0);
                // A blocked receiver found its queue empty, so the message
                // that satisfies it is this one.
                match self.wake(dst, Wait::Recv { src }) {
                    Some(since) => self.finish_recv(dst, bytes, since, ready),
                    None => {
                        let q = self.ring_ready.entry((dst, src)).or_default();
                        q.push_back((ready, bytes));
                    }
                }
            }
            REv::RegArrive { dst, reg } => {
                let now = self.now();
                match self.wake(dst, Wait::Reg { reg }) {
                    Some(since) => {
                        let waited = now.saturating_sub(since);
                        self.book(
                            dst,
                            "reg_load_wait",
                            since,
                            waited,
                            Bucket::Idle,
                            reg as u64,
                            0,
                        );
                        let loaded = self.occupy(dst, now, self.p.reg_load);
                        self.advance(dst, loaded);
                    }
                    None => self.reg_ready.entry((dst, reg)).or_default().push_back(now),
                }
            }
            REv::RStoreArrive { dst, src, bytes } => {
                // Land the store (receive side), then the MSC+ replies with
                // an acknowledge packet automatically (§4.2).
                let landed = self.receive_payload(dst, bytes, 0);
                self.transmit(dst, src, landed, 0, REv::RAckArrive { dst: src });
            }
            REv::RAckArrive { dst } => {
                let acked = &mut self.rstore_acked[dst as usize];
                *acked += 1;
                let acked = *acked;
                if acked == self.rstore_issued[dst as usize] {
                    if let Some(since) = self.wake(dst, Wait::Fence) {
                        self.release(dst, "remote_fence", since, self.now(), acked);
                    }
                }
            }
            REv::RLoadArrive {
                dst,
                requester,
                bytes,
            } => {
                let ready = self.serve(dst, self.p.recv_cpu_overhead(0));
                let reply = REv::RLoadReply { dst: requester };
                self.transmit(dst, requester, ready, bytes, reply);
            }
            REv::RLoadReply { dst } => {
                if let Some(since) = self.wake(dst, Wait::Load) {
                    self.release(dst, "remote_load", since, self.now(), 0);
                }
            }
            REv::FlagInc { pe, flag, tid } => self.flag_inc(pe, flag, tid),
        }
        Ok(())
    }

    /// A GET request reached its owner `dst`: the owner's MSC+ (or
    /// interrupt handler) produces the reply. Under software handling the
    /// reply is issued from *inside* the interrupt handler — it pays
    /// header analysis, the cache post for the gathered data, and the
    /// reply DMA setup, but not the user-level SVC prolog/epilog of
    /// Figure 7 (the handler is already in the kernel).
    fn get_arrive(
        &mut self,
        dst: u32,
        requester: u32,
        bytes: u64,
        send_flag: u64,
        recv_flag: u64,
        tid: u64,
    ) {
        let mut cpu_cost = self.p.recv_cpu_overhead(0);
        if self.p.software_handling {
            cpu_cost += self.p.put_msg_post_per_byte.saturating_mul(bytes) + self.p.put_dma_set;
        }
        let ready = self.serve(dst, cpu_cost);
        self.xfers.charge(tid, Seg::Issue, ready);
        let (_, depart) = self.send_dma(dst, ready, bytes, tid);
        self.flag_inc_at(depart, dst, send_flag, tid);
        let reply = REv::PutArrive {
            dst: requester,
            bytes,
            recv_flag,
            tid,
        };
        self.wire(dst, requester, depart, bytes, tid, reply);
    }

    fn flag_inc(&mut self, pe: u32, flag: u64, tid: u64) {
        let now = self.now();
        self.obs
            .instant_id(pe, Unit::Cpu, "flag_update", now, Bucket::Hw, flag, tid);
        let count = self.flag_counts.entry((pe, flag)).or_insert(0);
        *count += 1;
        let count = *count;
        if let Some((since, Wait::Flag { flag: f, target })) = self.waits[pe as usize] {
            if f == flag && count >= target {
                self.waits[pe as usize] = None;
                let waited = now.saturating_sub(since);
                self.flag_wait.record(waited.as_nanos());
                self.book(pe, "wait_flag", since, waited, Bucket::Idle, flag, tid);
                let checked = self.occupy(pe, now, self.p.flag_check);
                self.advance(pe, checked);
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
            self.book(dst, "recv_intr", s, service, Bucket::Overhead, bytes, tid);
            e + self.p.put_msg_per_byte.saturating_mul(bytes)
        } else {
            let (s, e) = self.recv_engine[dst as usize].reserve(now, self.p.recv_hw_latency(bytes));
            let busy = e.saturating_sub(s);
            self.obs.span_id(
                dst,
                Unit::RecvDma,
                "recv_dma",
                s,
                busy,
                Bucket::Hw,
                bytes,
                tid,
            );
            e
        }
    }

    /// `pe`, in RECEIVE since `since`, gets a message usable at `ready`:
    /// whatever it waited is idle, then it copies the message out.
    fn finish_recv(&mut self, pe: u32, bytes: u64, since: SimTime, ready: SimTime) {
        let until = self.now().max(ready);
        if until > since {
            let waited = until.saturating_sub(since);
            self.book(pe, "recv_wait", since, waited, Bucket::Idle, bytes, 0);
        }
        let copy = self.p.recv_copy_per_byte.saturating_mul(bytes) + self.p.flag_check;
        let (s, e) = self.cpu[pe as usize].reserve(until, copy);
        self.book(pe, "recv_copy", s, copy, Bucket::Overhead, bytes, 0);
        self.advance(pe, e);
    }

    // ---- ops ---------------------------------------------------------------

    fn step(&mut self, pe: u32) -> Result<(), ReplayError> {
        let t = self.now();
        let i = pe as usize;
        let Some(&op) = self.trace.pe(CellId::new(pe)).ops.get(self.pc[i]) else {
            if !self.done[i] {
                self.done[i] = true;
                self.done_count += 1;
                self.bd[i].finish = t;
            }
            return Ok(());
        };
        match op {
            Op::Work { flops } => self.compute(pe, "work", Bucket::Exec, self.p.flop_time(), flops),
            Op::Rts { units } => self.compute(pe, "rts", Bucket::Rts, self.p.rts_time(), units),
            Op::Put {
                dst,
                bytes,
                send_flag,
                recv_flag,
                ..
            } => self.put(pe, dst.as_u32(), bytes, send_flag, recv_flag),
            Op::Get {
                src,
                bytes,
                send_flag,
                recv_flag,
                ..
            } => self.get(pe, src.as_u32(), bytes, send_flag, recv_flag),
            Op::Send { dst, bytes } => self.send(pe, dst.as_u32(), bytes),
            Op::Recv { src, .. } => {
                let src = src.as_u32();
                let queued = self.ring_ready.get_mut(&(pe, src));
                match queued.and_then(|q| q.pop_front()) {
                    Some((ready, bytes)) => self.finish_recv(pe, bytes, t, ready),
                    None => self.block(pe, Wait::Recv { src }),
                }
            }
            Op::WaitFlag { flag, target } => {
                let have = self.flag_counts.get(&(pe, flag)).copied().unwrap_or(0);
                if have >= target {
                    self.flag_wait.record(0);
                    let check = self.p.flag_check;
                    let (s, e) = self.cpu[i].reserve(t, check);
                    self.book(pe, "flag_check", s, check, Bucket::Overhead, flag, 0);
                    self.advance(pe, e);
                } else {
                    self.block(pe, Wait::Flag { flag, target });
                }
            }
            Op::Barrier => {
                self.barrier.push((pe, t));
                if self.barrier.len() == self.done.len() {
                    // The last arrival is the latest one.
                    let release = t + self.p.barrier_latency;
                    for (p, since) in std::mem::take(&mut self.barrier) {
                        self.release(p, "barrier", since, release, 0);
                    }
                }
            }
            Op::Bcast { root, bytes } => self.bcast(pe, root.as_u32(), bytes)?,
            Op::RegStore { dst, reg } => self.reg_store(pe, dst.as_u32(), reg),
            Op::RegLoad { reg } => self.reg_load(pe, reg),
            Op::RemoteStore { dst, bytes } => self.remote_store(pe, dst.as_u32(), bytes),
            Op::RemoteLoad { src, bytes } => self.remote_load(pe, src.as_u32(), bytes),
            Op::RemoteFence if self.rstore_acked[i] != self.rstore_issued[i] => {
                self.block(pe, Wait::Fence)
            }
            Op::RemoteFence | Op::MarkGopScalar | Op::MarkGopVector => self.advance(pe, t),
        }
        Ok(())
    }

    fn compute(&mut self, pe: u32, name: &'static str, bucket: Bucket, unit: SimTime, n: u64) {
        let dur = SimTime::from_nanos((unit.as_nanos() as f64 * n as f64) as u64);
        let t = self.now();
        let (s, e) = self.cpu[pe as usize].reserve(t, dur);
        self.book(pe, name, s, dur, bucket, n, 0);
        self.advance(pe, e);
    }

    /// The CPU side of a PUT or GET: a tracked transfer chain starts and
    /// the library call pays `over`. Returns the chain id and when the CPU
    /// is done.
    fn issue_xfer(
        &mut self,
        pe: u32,
        kind: XferKind,
        name: &'static str,
        over: SimTime,
        bytes: u64,
    ) -> (u64, SimTime) {
        let (t, tid) = (self.now(), self.alloc_tid());
        self.xfers.start(tid, kind, bytes, t);
        let (s, e) = self.cpu[pe as usize].reserve(t, over);
        self.xfers.charge(tid, Seg::Issue, e);
        self.book(pe, name, s, over, Bucket::Overhead, bytes, tid);
        (tid, e)
    }

    fn put(&mut self, pe: u32, dst: u32, bytes: u64, send_flag: u64, recv_flag: u64) {
        let over = self.p.send_cpu_overhead(bytes);
        let (tid, e) = self.issue_xfer(pe, XferKind::Put, "put_issue", over, bytes);
        let (ds, depart) = self.send_dma(pe, e, bytes, tid);
        let busy = depart.saturating_sub(ds);
        self.obs.span_id(
            pe,
            Unit::SendDma,
            "send_dma",
            ds,
            busy,
            Bucket::Hw,
            bytes,
            tid,
        );
        self.flag_inc_at(depart, pe, send_flag, tid);
        let arrive = REv::PutArrive {
            dst,
            bytes,
            recv_flag,
            tid,
        };
        self.wire(pe, dst, depart, bytes, tid, arrive);
        self.advance(pe, e);
    }

    fn get(&mut self, pe: u32, src: u32, bytes: u64, send_flag: u64, recv_flag: u64) {
        let over = self.p.send_cpu_overhead(0);
        let (tid, e) = self.issue_xfer(pe, XferKind::Get, "get_issue", over, bytes);
        // Only the request header goes out; the owner sends the data.
        let (_, depart) = self.send_dma(pe, e, 0, tid);
        let arrive = REv::GetArrive {
            dst: src,
            requester: pe,
            bytes,
            send_flag,
            recv_flag,
            tid,
        };
        self.wire(pe, src, depart, 0, tid, arrive);
        self.advance(pe, e);
    }

    fn send(&mut self, pe: u32, dst: u32, bytes: u64) {
        let (t, over) = (
            self.now(),
            self.p.send_call + self.p.send_cpu_overhead(bytes),
        );
        let (s, e) = self.cpu[pe as usize].reserve(t, over);
        self.book(pe, "send_call", s, over, Bucket::Overhead, bytes, 0);
        let src = pe;
        let (ds, depart) = self.transmit(pe, dst, e, bytes, REv::RingArrive { dst, src, bytes });
        let busy = depart.saturating_sub(ds);
        self.obs
            .span(pe, Unit::SendDma, "send_dma", ds, busy, Bucket::Hw, bytes);
        // Blocking SEND: the library waits for send completion.
        if depart > e {
            self.release(pe, "send_wait", e, depart, bytes);
        } else {
            self.advance(pe, e);
        }
    }

    fn reg_store(&mut self, pe: u32, dst: u32, reg: u16) {
        let (t, cost) = (self.now(), self.p.reg_store);
        let (s, e) = self.cpu[pe as usize].reserve(t, cost);
        self.book(pe, "reg_store", s, cost, Bucket::Overhead, reg as u64, 0);
        if dst == pe {
            self.evq.push(e, REv::RegArrive { dst, reg });
        } else {
            self.wire(pe, dst, e, 4, 0, REv::RegArrive { dst, reg });
        }
        self.advance(pe, e);
    }

    fn reg_load(&mut self, pe: u32, reg: u16) {
        let stored = self.reg_ready.get_mut(&(pe, reg));
        let Some(ready) = stored.and_then(|q| q.pop_front()) else {
            return self.block(pe, Wait::Reg { reg });
        };
        let (t, cost) = (self.now(), self.p.reg_load);
        self.bd[pe as usize].charge(Bucket::Idle, ready.saturating_sub(t));
        let (s, e) = self.cpu[pe as usize].reserve(t.max(ready), cost);
        self.book(pe, "reg_load", s, cost, Bucket::Overhead, reg as u64, 0);
        self.advance(pe, e);
    }

    fn remote_store(&mut self, pe: u32, dst: u32, bytes: u64) {
        // Hardware-generated on the AP1000+ (a plain store into shared
        // space); software emulation pays the PUT chain.
        let over = if self.p.software_handling {
            self.p.send_cpu_overhead(bytes)
        } else {
            self.p.reg_store
        };
        let t = self.now();
        let (s, e) = self.cpu[pe as usize].reserve(t, over);
        self.book(pe, "remote_store", s, over, Bucket::Overhead, bytes, 0);
        self.rstore_issued[pe as usize] += 1;
        let src = pe;
        self.transmit(pe, dst, e, bytes, REv::RStoreArrive { dst, src, bytes });
        self.advance(pe, e);
    }

    fn remote_load(&mut self, pe: u32, owner: u32, bytes: u64) {
        let over = if self.p.software_handling {
            self.p.send_cpu_overhead(0)
        } else {
            self.p.reg_load
        };
        let e = self.occupy(pe, self.now(), over);
        let arrive = REv::RLoadArrive {
            dst: owner,
            requester: pe,
            bytes,
        };
        self.transmit(pe, owner, e, 0, arrive);
        self.block(pe, Wait::Load);
    }

    fn bcast(&mut self, pe: u32, root: u32, bytes: u64) -> Result<(), ReplayError> {
        let sig = *self.bcast_sig.get_or_insert((root, bytes));
        if sig != (root, bytes) {
            return Err(ReplayError::Mismatch(format!(
                "pe{pe} joined bcast({},{bytes}) but collective is {sig:?}",
                CellId::new(root)
            )));
        }
        self.bcast.push((pe, self.now()));
        if self.bcast.len() == self.done.len() {
            // The last arrival is the latest one.
            let delivery = self.now()
                + self.p.network_prolog
                + self.p.bnet_per_byte.saturating_mul(bytes + HEADER);
            self.bcast_sig = None;
            for (p, since) in std::mem::take(&mut self.bcast) {
                self.release(p, "bcast", since, delivery, bytes);
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
    fn an_op_naming_a_cell_outside_the_trace_is_a_mismatch_not_a_panic() {
        let mut t = Trace::new(4);
        t.pe_mut(CellId::new(2)).push(Op::Work { flops: 10 });
        t.pe_mut(CellId::new(2)).push(put(99, 64, 0));
        let err = replay(&t, &ModelParams::ap1000_plus()).unwrap_err();
        let want = "pe2 op 1 names cell99, but the trace has 4 cells";
        assert_eq!(err, ReplayError::Mismatch(want.to_string()));
    }

    #[test]
    fn an_astronomic_operand_is_a_mismatch_not_an_overflow_panic() {
        let mut t = Trace::new(2);
        t.pe_mut(CellId::new(1)).push(Op::Barrier);
        t.pe_mut(CellId::new(1)).push(Op::Work { flops: u64::MAX });
        let err = replay(&t, &ModelParams::ap1000()).unwrap_err();
        let want = format!(
            "pe1 op 1 carries flops {}, past the 1099511627776 flops, units and bytes a trace may total",
            u64::MAX
        );
        assert_eq!(err, ReplayError::Mismatch(want));
        // The bound is on the trace's total, so many large ops trip it too.
        let mut t = Trace::new(1);
        for _ in 0..3 {
            t.pe_mut(CellId::new(0)).push(put(0, 1 << 39, 0));
        }
        let err = replay(&t, &ModelParams::ap1000_plus())
            .unwrap_err()
            .to_string();
        assert!(err.contains("pe0 op 2 carries bytes 549755813888"), "{err}");
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
