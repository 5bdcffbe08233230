//! The deterministic simulation kernel.
//!
//! The kernel owns the whole [`Machine`] and steps every cell program
//! inline: a program is a future ([`Step`]) that runs on the kernel's own
//! stack up to its next data-returning [`Request`]. All hardware activity
//! (DMA, packets, flags, barriers) is driven through a single time-ordered
//! event queue with FIFO tie-breaking, and every event commits in
//! `(time, seq)` order, so a given program and configuration always
//! produces the identical execution.
//!
//! The cell↔kernel protocol is *run-to-block* (DESIGN.md §10): a wake's
//! [`Response`] reaches its program at the wake's own commit and nowhere
//! else, so a wake cancelled by a fail-stop crash is a program that is
//! never polled again.

use crate::machine::{ActiveTx, Machine, TxEntry, TxJob};
use crate::request::{Mark, Request, Response};
use apfault::{FaultPlan, FaultSpec, ReplayGuard};
use apmon::{HostPhase, HostProf, MetricsSample, MetricsSeries, Progress, Sampler};
use apmsc::{checksum, Packet, Payload, PushOutcome, HEADER_BYTES};
use apnet::Delivery;
use apobs::{Bucket, Seg, Unit, XferKind};
use apsim::{Clock, EventQueue};
use aptrace::Op;
use aputil::{
    ApError, ApResult, BlockReason, BlockedCell, CellId, DeadlockReport, DeliveryFailure,
    FaultReport, SimTime, VAddr,
};
use std::collections::{HashMap, VecDeque};

/// Resumes one cell program: hands `cell` the response it was suspended
/// on, runs it to its next suspension point (or its end), and fills the
/// cell's empty queue with every request it issued on the way — the last
/// one being the request it now waits on, `Finish` or `Fail`.
pub(crate) type Step<'a> = dyn FnMut(u32, Response, &mut VecDeque<Request>) + 'a;

/// Kernel events.
#[derive(Debug)]
enum Ev {
    /// Retire `cell`'s next posted request, or — when none is left —
    /// resume its program with `resp`.
    Wake { cell: u32, resp: Response },
    /// Try to start the send DMA of `cell`.
    SendPop { cell: u32 },
    /// `cell`'s send DMA finished its active job.
    SendDone { cell: u32 },
    /// A packet reached `dst`'s MSC+ (`tid` = transfer-chain id).
    Arrive { dst: u32, pkt: Packet, tid: u64 },
    /// `dst`'s receive DMA finished landing a packet.
    RecvDone { dst: u32, pkt: Packet, tid: u64 },
    /// Fault layer: a sequence-numbered envelope reached `dst`'s MSC+.
    /// `tag` is the FNV checksum the sender stamped (possibly flipped in
    /// flight by an injected corruption).
    ArriveF {
        dst: u32,
        src: u32,
        seq: u64,
        tag: u32,
        pkt: Packet,
        tid: u64,
    },
    /// Fault layer: the hardware ack for envelope `seq` reached its
    /// original sender.
    AckArrive { seq: u64 },
    /// Fault layer: retransmission timer for envelope `seq`, armed when
    /// transmission attempt `attempt` departed. Stale once the envelope
    /// is acknowledged (or superseded by a later attempt's timer).
    RetryTimeout { seq: u64, attempt: u32 },
    /// Fault layer: fail-stop crash of `cell`.
    Crash { cell: u32 },
}

/// An envelope awaiting its ack: everything needed to retransmit it.
struct Outstanding {
    src: CellId,
    dst: CellId,
    pkt: Packet,
    tid: u64,
    /// Transmissions so far (1 after the first send).
    attempts: u32,
}

/// The kernel's fault-injection and recovery state (absent on fault-free
/// runs, which keeps their event stream byte-identical).
struct FaultState {
    plan: FaultPlan,
    /// Last sequence number assigned (global, so `(src, seq)` dedup keys
    /// are unique machine-wide).
    next_seq: u64,
    outstanding: HashMap<u64, Outstanding>,
    replay: ReplayGuard,
    /// Cells taken down by a fail-stop crash.
    dead: Vec<bool>,
}

/// Which of a cell's four MSC+ transmit queues to enqueue into.
#[derive(Clone, Copy, Debug)]
enum TxQueue {
    User,
    Remote,
    GetReply,
    RemoteReply,
}

/// Why a cell is blocked, with everything needed to wake it. A blocked
/// cell waits on exactly one thing, so one slot per cell replaces the old
/// per-reason maps: a wakeup is an indexed slot probe instead of a keyed
/// (or, for the deadlock report, linear) map search, and iteration for
/// the barrier release runs in cell-id order — deterministic, unlike
/// draining a hash map.
#[derive(Clone, Debug)]
enum Waiter {
    /// `wait_flag` until the flag at `flag` reaches `target`.
    Flag {
        flag: u64,
        target: u32,
        since: SimTime,
    },
    /// Blocking RECEIVE from `src`.
    Recv {
        src: CellId,
        laddr: VAddr,
        max: u64,
        since: SimTime,
    },
    /// Blocking communication-register load (p-bit retry).
    Reg { reg: u16, since: SimTime },
    /// `remote_fence` until all remote stores are acknowledged.
    Fence { since: SimTime },
    /// Blocking DSM remote load.
    Load { since: SimTime },
    /// Blocking SEND, until the send DMA drains the buffer.
    Send { since: SimTime },
    /// Arrived at the S-net barrier.
    Barrier { since: SimTime },
    /// Arrived at the B-net broadcast collective.
    Bcast { since: SimTime },
}

#[derive(Clone, Debug)]
struct BcastState {
    root: CellId,
    bytes: u64,
    arrived: Vec<(u32, VAddr, SimTime)>,
}

/// Telemetry taps of [`Kernel::event_loop`]. Every hook defaults to a
/// no-op, so the loop monomorphised over [`NoProbe`] is the bare hot path.
trait Probe {
    /// Top of an iteration, before the queue pop.
    fn pop_start(&mut self, _k: &Kernel) {}
    /// An event was popped (it may still be skipped).
    fn popped(&mut self) {}
    /// The clock is about to reach `t`: record every sample tick at or
    /// before it.
    fn sample_to(&mut self, _k: &Kernel, _t: SimTime) {}
    /// `ev` is about to be handled.
    fn handle_start(&mut self, _k: &Kernel, _ev: &Ev) {}
    /// The event was handled.
    fn handled(&mut self, _k: &Kernel) {}
}

/// The metrics-off, progress-off probe.
struct NoProbe;

impl Probe for NoProbe {}

/// Deterministic metric sampling, 1-in-64 wall-clock phase timing and
/// rate-limited progress lines. Never influences simulated time.
struct Telemetry {
    /// Sampled-metrics engine (`cfg.metrics_interval`).
    sampler: Option<Sampler>,
    /// Host wall-clock self-profiling of the event loop; runs alongside
    /// the sampler.
    hostprof: Option<HostProf>,
    /// Live one-line progress reporting (the `--progress` flag).
    progress: Option<Progress>,
    /// Stopwatch of the current phase: set on the 1-in-64 iterations
    /// that read the wall clock (the others only count).
    t0: Option<std::time::Instant>,
    phase: HostPhase,
}

impl Telemetry {
    /// `None` unless the sampler or progress reporting is on.
    fn new(cfg: &crate::config::MachineConfig) -> Option<Telemetry> {
        let sampler = cfg.metrics_interval.map(Sampler::new);
        let progress = cfg
            .progress
            .then(|| Progress::new(format!("{}c", cfg.ncells)));
        (sampler.is_some() || progress.is_some()).then(|| Telemetry {
            hostprof: sampler.as_ref().map(|_| HostProf::start()),
            sampler,
            progress,
            t0: None,
            phase: HostPhase::Pop,
        })
    }

    /// Books the phase that just ended: timed if this iteration started
    /// a stopwatch, counted otherwise.
    fn book(&mut self, phase: HostPhase) {
        if let Some(p) = &mut self.hostprof {
            match self.t0 {
                Some(t0) => p.record(phase, t0.elapsed().as_nanos() as u64),
                None => p.count(phase),
            }
        }
    }
}

impl Probe for Telemetry {
    fn pop_start(&mut self, k: &Kernel) {
        self.t0 = (k.events_handled & 63 == 0).then(std::time::Instant::now);
    }

    fn popped(&mut self) {
        self.book(HostPhase::Pop);
    }

    fn sample_to(&mut self, k: &Kernel, t: SimTime) {
        if let Some(sampler) = &mut self.sampler {
            while sampler.due(t) {
                let tick = sampler.next_time();
                sampler.push(k.metrics_sample(tick));
            }
        }
    }

    fn handle_start(&mut self, k: &Kernel, ev: &Ev) {
        self.phase = match ev {
            Ev::Wake { cell, .. } if !k.pending[*cell as usize].is_empty() => HostPhase::Drain,
            Ev::Wake { .. } => HostPhase::Wakeup,
            _ => HostPhase::Dispatch,
        };
        self.t0 = self.t0.map(|_| std::time::Instant::now());
    }

    fn handled(&mut self, k: &Kernel) {
        self.book(self.phase);
        // Progress gauges cost O(cells); ask at most every 4096 events
        // and let the reporter's wall-clock gate do the rest.
        if let Some(pr) = &mut self.progress {
            if k.events_handled & 4095 == 0 {
                let blocked = k.waiters.iter().flatten().count() as u32;
                let retries = k
                    .fault
                    .as_ref()
                    .map_or(0, |f| f.plan.report.total_retries());
                pr.maybe_report(k.clock.now(), k.events_handled, blocked, retries);
            }
        }
    }
}

pub(crate) struct Kernel {
    pub machine: Machine,
    evq: EventQueue<Ev>,
    clock: Clock,
    /// Per-cell block state (`None` = runnable or done).
    waiters: Vec<Option<Waiter>>,
    /// What each program issued on its last step, not yet retired.
    /// Dispatched one per wake, so every request takes effect at the
    /// simulated time its predecessor completed — however far ahead on
    /// the host the program ran to issue it.
    pending: Vec<VecDeque<Request>>,
    bcast: Option<BcastState>,
    done: u32,
    /// Per-cell: the program called Finish (distinguishes finished cells
    /// from crashed ones when a fault schedule is active).
    finished: Vec<bool>,
    /// Fault-injection state; `None` on fault-free runs.
    fault: Option<FaultState>,
    /// Event-loop telemetry taps; `None` (sampler and progress both off)
    /// runs the loop monomorphised over [`NoProbe`].
    telemetry: Option<Telemetry>,
    /// Kernel events handled so far (cumulative; also drives the 1-in-64
    /// host-timing subsample).
    events_handled: u64,
}

impl Kernel {
    pub fn new(machine: Machine) -> Self {
        let n = machine.cells.len();
        let mut evq = EventQueue::new();
        // Boot: wake each cell at t = 0 in id order.
        for cell in 0..n as u32 {
            evq.push(
                SimTime::ZERO,
                Ev::Wake {
                    cell,
                    resp: Response::Unit,
                },
            );
        }
        let telemetry = Telemetry::new(&machine.cfg);
        Kernel {
            machine,
            evq,
            clock: Clock::new(),
            waiters: vec![None; n],
            pending: vec![VecDeque::new(); n],
            bcast: None,
            done: 0,
            finished: vec![false; n],
            fault: None,
            telemetry,
            events_handled: 0,
        }
    }

    /// Arms a fault schedule: every non-loopback packet now travels in a
    /// sequence-numbered, checksummed, acknowledged envelope, and the
    /// schedule's crashes are queued as sim-time events. `None` leaves the
    /// kernel on the fault-free fast path.
    pub fn with_faults(mut self, spec: Option<&FaultSpec>) -> Self {
        if let Some(spec) = spec {
            let n = self.machine.cells.len();
            let plan = FaultPlan::new(spec);
            for (cell, at) in plan.crash_schedule() {
                if cell.index() < n {
                    self.evq.push(
                        at,
                        Ev::Crash {
                            cell: cell.as_u32(),
                        },
                    );
                }
            }
            self.fault = Some(FaultState {
                plan,
                next_seq: 0,
                outstanding: HashMap::new(),
                replay: ReplayGuard::new(),
                dead: vec![false; n],
            });
        }
        self
    }

    /// Consumes the kernel, returning the machine.
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// Takes the fault report of a survived faulted run (`None` on
    /// fault-free runs). Call after [`Kernel::run`].
    pub fn take_fault_report(&mut self) -> Option<FaultReport> {
        self.fault.take().map(|f| f.plan.report)
    }

    /// Events that must be discarded without advancing the clock: stale
    /// retry timers (their envelope was acknowledged), crash events for
    /// cells that already finished, and any activity addressed to a dead
    /// cell (fail-stop: its hardware neither sends, receives, nor wakes).
    fn skips(&self, ev: &Ev) -> bool {
        let Some(f) = &self.fault else { return false };
        match ev {
            Ev::RetryTimeout { seq, attempt } => f
                .outstanding
                .get(seq)
                .is_none_or(|o| o.attempts != *attempt),
            Ev::Crash { cell } => self.finished[*cell as usize] || f.dead[*cell as usize],
            Ev::Wake { cell, .. } | Ev::SendPop { cell } | Ev::SendDone { cell } => {
                f.dead[*cell as usize]
            }
            Ev::Arrive { dst, .. } | Ev::RecvDone { dst, .. } | Ev::ArriveF { dst, .. } => {
                f.dead[*dst as usize]
            }
            Ev::AckArrive { .. } => false,
        }
    }

    /// Runs the event loop to completion, resuming programs through
    /// `step`.
    pub fn run(&mut self, step: &mut Step) -> ApResult<SimTime> {
        match self.telemetry.take() {
            Some(mut taps) => {
                let looped = self.event_loop(&mut taps, step);
                self.telemetry = Some(taps);
                looped?;
            }
            None => self.event_loop(&mut NoProbe, step)?,
        }
        let n = self.machine.cells.len() as u32;
        if let Some(f) = &self.fault {
            let dead = f.dead.iter().filter(|&&d| d).count() as u32;
            if dead > 0 {
                // Graceful degradation: surviving cells ran to completion;
                // the run as a whole reports the crashes structurally.
                let mut cause = format!("{dead} cell(s) crashed fail-stop");
                if self.done + dead < n {
                    cause.push_str(&format!(
                        "; {} surviving cell(s) still blocked when the event queue drained",
                        n - self.done - dead
                    ));
                }
                return Err(ApError::Fault(Box::new(self.fault_report(cause))));
            }
        }
        if self.done < n {
            return Err(ApError::Deadlock(Box::new(self.deadlock_report())));
        }
        self.check_drained()?;
        Ok(self.clock.now())
    }

    /// The event loop, monomorphised over its telemetry taps: with
    /// [`NoProbe`] every hook compiles away and this is the bare
    /// pop → skip → advance → handle loop; with [`Telemetry`] it samples
    /// metrics before the event that crosses each tick, times phases
    /// 1-in-64 and prints progress. Sim-time behavior is byte-identical
    /// either way — the wall clock is read but never written back into
    /// simulated state.
    fn event_loop<P: Probe>(&mut self, probe: &mut P, step: &mut Step) -> ApResult<()> {
        loop {
            probe.pop_start(self);
            let Some((t, ev)) = self.evq.pop() else { break };
            probe.popped();
            if self.skips(&ev) {
                continue;
            }
            // Sample ticks strictly before handling the event that crosses
            // them: the gauges reflect machine state after every event
            // earlier than the tick, independent of host scheduling.
            probe.sample_to(self, t);
            self.clock.advance_to(t);
            self.events_handled += 1;
            probe.handle_start(self, &ev);
            self.handle(ev, step)?;
            probe.handled(self);
        }
        // Flush every sample tick at or before the final time, so the
        // series always covers the whole run.
        probe.sample_to(self, self.clock.now());
        Ok(())
    }

    /// Assembles the gauge snapshot for the tick at sim time `at`.
    fn metrics_sample(&self, at: SimTime) -> MetricsSample {
        let (queue_depth, queue_depth_max, send_dma_busy, recv_dma_busy) =
            self.machine.occupancy(at);
        let (puts, gets) = self.machine.xfers.inflight();
        let (mut blocked, mut barrier) = (0u32, 0u32);
        for w in self.waiters.iter().flatten() {
            blocked += 1;
            if matches!(w, Waiter::Barrier { .. }) {
                barrier += 1;
            }
        }
        let stats = self.machine.tnet.stats();
        let (retries, detours) = self.fault.as_ref().map_or((0, 0), |f| {
            (f.plan.report.total_retries(), f.plan.report.detours)
        });
        MetricsSample {
            t: at,
            events: self.events_handled,
            msgs: stats.messages,
            bytes: stats.bytes,
            puts_inflight: puts,
            gets_inflight: gets,
            cells_blocked: blocked,
            barrier_waiting: barrier,
            queue_depth,
            queue_depth_max: queue_depth_max as u64,
            send_dma_busy,
            recv_dma_busy,
            link_busy_ns: self.machine.tnet.link_busy_total().as_nanos(),
            retries,
            detours,
        }
    }

    /// Consumes the sampler, yielding the finished series (`None` when
    /// metrics were off). Call after [`Kernel::run`].
    pub fn take_metrics(&mut self) -> Option<MetricsSeries> {
        let sampler = self.telemetry.as_mut()?.sampler.take()?;
        Some(sampler.finish())
    }

    /// Stops and takes the host self-profiler. Call after [`Kernel::run`].
    pub fn take_hostprof(&mut self) -> Option<HostProf> {
        let mut p = self.telemetry.as_mut()?.hostprof.take()?;
        p.stop();
        Some(p)
    }

    /// Snapshot of the fault plan's report with an abort `cause` attached.
    fn fault_report(&self, cause: String) -> FaultReport {
        let f = self.fault.as_ref().expect("fault layer active");
        let mut r = f.plan.report.clone();
        r.cause = cause;
        r
    }

    /// Verifies that a completed run left no hardware or bookkeeping state
    /// behind: no queued transmit entries, no busy send DMA, no in-flight
    /// latency attributions, no blocked-cell records, no half-finished
    /// collective. Undelivered ring-buffer messages are *not* a leak — a
    /// program may legitimately finish without receiving every SEND.
    fn check_drained(&self) -> ApResult<()> {
        let mut leaks = Vec::new();
        for (i, hw) in self.machine.cells.iter().enumerate() {
            let pending = hw.total_pending();
            if pending > 0 {
                leaks.push(format!("cell{i}: {pending} queued tx entries"));
            }
            if hw.send_busy || hw.active_tx.is_some() {
                leaks.push(format!("cell{i}: send DMA still active"));
            }
        }
        let tids = self.machine.xfers.unfinished();
        if !tids.is_empty() {
            leaks.push(format!("unfinished transfer attributions (tids {tids:?})"));
        }
        let blocked_records = self.waiters.iter().flatten().count();
        if blocked_records > 0 {
            leaks.push(format!("{blocked_records} blocked-cell records"));
        }
        let undispatched: usize = self.pending.iter().map(|q| q.len()).sum();
        if undispatched > 0 {
            leaks.push(format!("{undispatched} undispatched requests"));
        }
        if self.bcast.is_some() {
            leaks.push("incomplete bcast collective".to_string());
        }
        if leaks.is_empty() {
            Ok(())
        } else {
            Err(ApError::StateLeak {
                detail: leaks.join("; "),
            })
        }
    }

    /// Snapshot of one cell's block state (`None` if it is runnable or
    /// done): why it is blocked, since when, and what its MSC+ transmit
    /// queues still hold. The per-cell building block of the deadlock
    /// report.
    fn blocked_cell(&self, i: usize) -> Option<BlockedCell> {
        let w = self.waiters[i].as_ref()?;
        let cid = CellId::new(i as u32);
        let (reason, since) = match *w {
            Waiter::Flag {
                flag,
                target,
                since,
            } => {
                let flag = VAddr::new(flag);
                let current = self.machine.read_flag(cid, flag).unwrap_or(0);
                (
                    BlockReason::FlagWait {
                        flag,
                        current,
                        target,
                    },
                    since,
                )
            }
            Waiter::Barrier { since } => (BlockReason::Barrier, since),
            Waiter::Recv { src, since, .. } => (BlockReason::Recv { src }, since),
            Waiter::Send { since } => (BlockReason::Send, since),
            Waiter::Bcast { since } => (BlockReason::Bcast, since),
            Waiter::Reg { reg, since } => (BlockReason::RegLoad { reg }, since),
            Waiter::Load { since } => (BlockReason::RemoteLoad, since),
            Waiter::Fence { since } => {
                let hw = &self.machine.cells[i];
                (
                    BlockReason::RemoteFence {
                        issued: hw.rstore_issued,
                        acked: hw.rstore_acked,
                    },
                    since,
                )
            }
        };
        Some(BlockedCell {
            cell: cid,
            reason,
            since,
            pending_tx: self.machine.cells[i].pending_tx(),
        })
    }

    /// Snapshot of every still-blocked cell, assembled when the event
    /// queue drains with unfinished cells.
    fn deadlock_report(&self) -> DeadlockReport {
        DeadlockReport {
            now: self.clock.now(),
            total_cells: self.machine.cells.len() as u32,
            finished_cells: self.done,
            blocked: (0..self.waiters.len())
                .filter_map(|i| self.blocked_cell(i))
                .collect(),
        }
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The fault layer, or a structured [`ApError::Internal`] if a
    /// fault-only event fired on an unfaulted run (a kernel bug — fault
    /// events are only scheduled by the fault layer itself).
    fn fault_mut(&mut self) -> ApResult<&mut FaultState> {
        self.fault.as_mut().ok_or_else(|| {
            ApError::internal(
                None,
                "fault-layer",
                "fault event fired without a fault layer",
            )
        })
    }

    // ---- accounting helpers -------------------------------------------

    fn charge_exec(&mut self, cell: u32, t: SimTime) {
        self.machine.times[cell as usize].exec += t;
    }

    fn charge_rts(&mut self, cell: u32, t: SimTime) {
        self.machine.times[cell as usize].rts += t;
    }

    fn charge_overhead(&mut self, cell: u32, t: SimTime) {
        self.machine.times[cell as usize].overhead += t;
    }

    fn add_idle(&mut self, cell: u32, since: SimTime, until: SimTime) {
        self.machine.times[cell as usize].idle += until.saturating_sub(since);
    }

    fn record(&mut self, cell: u32, op: Op) {
        if self.machine.cfg.record_trace {
            self.machine.trace.pe_mut(CellId::new(cell)).push(op);
        }
    }

    fn wake_at(&mut self, cell: u32, at: SimTime, resp: Response) {
        self.waiters[cell as usize] = None;
        self.evq.push(at, Ev::Wake { cell, resp });
    }

    /// Removes and returns cell's waiter if `pred` accepts it. The O(1)
    /// wakeup probe: arrival paths check the one slot a blocked cell can
    /// occupy instead of scanning waiter maps.
    fn take_waiter_if(&mut self, cell: u32, pred: impl FnOnce(&Waiter) -> bool) -> Option<Waiter> {
        let slot = &mut self.waiters[cell as usize];
        if slot.as_ref().is_some_and(pred) {
            slot.take()
        } else {
            None
        }
    }

    /// Enqueues a transmit job, emitting the queue's enqueue/spill events.
    fn push_tx(&mut self, cell: u32, queue: TxQueue, tid: u64, job: TxJob, at: SimTime) {
        let hw = &mut self.machine.cells[cell as usize];
        let q = match queue {
            TxQueue::User => &mut hw.user_q,
            TxQueue::Remote => &mut hw.remote_q,
            TxQueue::GetReply => &mut hw.reply_get_q,
            TxQueue::RemoteReply => &mut hw.reply_remote_q,
        };
        let outcome = q.push_at(TxEntry { tid, job }, at);
        let depth = q.len() as u64;
        self.machine
            .obs
            .instant_id(cell, Unit::Queue, "enqueue", at, Bucket::Hw, depth, tid);
        if outcome == PushOutcome::Spilled {
            self.machine
                .obs
                .instant_id(cell, Unit::Queue, "spill", at, Bucket::Hw, depth, tid);
        }
    }

    // ---- event dispatch ------------------------------------------------

    fn handle(&mut self, ev: Ev, step: &mut Step) -> ApResult<()> {
        match ev {
            Ev::Wake { cell, resp } => self.deliver_and_take(cell, resp, step),
            Ev::SendPop { cell } => self.send_pop(cell),
            Ev::SendDone { cell } => self.send_done(cell),
            Ev::Arrive { dst, pkt, tid } => self.arrive(dst, pkt, tid),
            Ev::RecvDone { dst, pkt, tid } => self.recv_done(dst, pkt, tid),
            Ev::ArriveF {
                dst,
                src,
                seq,
                tag,
                pkt,
                tid,
            } => self.arrive_f(dst, src, seq, tag, pkt, tid),
            Ev::AckArrive { seq } => {
                // The envelope is delivered; its pending retry timer is now
                // stale and will be skipped.
                self.fault_mut()?.outstanding.remove(&seq);
                Ok(())
            }
            Ev::RetryTimeout { seq, .. } => self.retry_timeout(seq),
            Ev::Crash { cell } => self.crash(cell),
        }
    }

    /// Commits a wake. While the cell still has posted requests queued,
    /// the wake only retires the next one: every posted request resolves
    /// to `Response::Unit`, so the program has nothing to learn from it.
    /// Otherwise this is the wake of the request the program is suspended
    /// on: step it — inline, with the response — and dispatch the first
    /// request it issued, in this same handler call.
    fn deliver_and_take(&mut self, cell: u32, resp: Response, step: &mut Step) -> ApResult<()> {
        let q = &mut self.pending[cell as usize];
        if q.is_empty() {
            step(cell, resp, q);
        } else {
            debug_assert_eq!(
                resp,
                Response::Unit,
                "posted request of cell {cell} would have dropped a non-unit response"
            );
        }
        let req = q.pop_front().ok_or_else(|| {
            ApError::internal(
                CellId::new(cell),
                "step",
                "a resumed program issued nothing",
            )
        })?;
        self.dispatch(cell, req)
    }

    // ---- request handling ----------------------------------------------

    fn dispatch(&mut self, cell: u32, req: Request) -> ApResult<()> {
        let now = self.now();
        let hw_params = self.machine.cfg.hw;
        let cid = CellId::new(cell);
        match req {
            Request::Alloc { bytes, at } => {
                let hw = &mut self.machine.cells[cell as usize];
                let addr = hw.mmu.map_anywhere(bytes).map_err(|_| {
                    ApError::InvalidArg(format!("{cid} cannot allocate {bytes} bytes"))
                })?;
                if addr != at {
                    return Err(ApError::internal(
                        cid,
                        "mmu",
                        format!("{bytes} bytes mapped at {addr}, the cell's layout said {at}"),
                    ));
                }
                self.wake_at(cell, now, Response::Unit);
            }
            Request::ReadMem { addr, len } => {
                let data = self.machine.read_v(cid, addr, len)?;
                self.wake_at(cell, now, Response::Bytes(data));
            }
            Request::WriteMem { addr, data } => {
                self.machine.write_v(cid, addr, &data)?;
                self.wake_at(cell, now, Response::Unit);
            }
            Request::Work { flops } => {
                let t = hw_params.flop_time.saturating_mul(flops);
                self.charge_exec(cell, t);
                self.record(cell, Op::Work { flops });
                self.machine
                    .obs
                    .span(cell, Unit::Cpu, "work", now, t, Bucket::Exec, flops);
                self.wake_at(cell, now + t, Response::Unit);
            }
            Request::Rts { units } => {
                let t = hw_params.rts_unit_time.saturating_mul(units);
                self.charge_rts(cell, t);
                self.record(cell, Op::Rts { units });
                self.machine
                    .obs
                    .span(cell, Unit::Cpu, "rts", now, t, Bucket::Rts, units);
                self.wake_at(cell, now + t, Response::Unit);
            }
            Request::Put(args) => {
                self.machine.check_cell(args.dst)?;
                args.validate().map_err(ApError::InvalidArg)?;
                self.record(
                    cell,
                    Op::Put {
                        dst: args.dst,
                        bytes: args.size(),
                        stride: args.is_stride(),
                        ack: args.ack,
                        send_flag: args.send_flag.as_u64(),
                        recv_flag: args.recv_flag.as_u64(),
                    },
                );
                self.charge_overhead(cell, hw_params.issue_time);
                let tid = self.machine.alloc_tid();
                self.machine
                    .xfers
                    .start(tid, XferKind::Put, args.size(), now);
                self.machine
                    .xfers
                    .charge(tid, Seg::Issue, now + hw_params.issue_time);
                self.machine.obs.span_id(
                    cell,
                    Unit::Cpu,
                    "put_issue",
                    now,
                    hw_params.issue_time,
                    Bucket::Overhead,
                    args.size(),
                    tid,
                );
                let t = now + hw_params.issue_time;
                self.push_tx(cell, TxQueue::User, tid, TxJob::Put(args), t);
                self.evq.push(t, Ev::SendPop { cell });
                self.wake_at(cell, t, Response::Unit);
            }
            Request::Get(args) => {
                self.machine.check_cell(args.src_cell)?;
                args.validate().map_err(ApError::InvalidArg)?;
                self.record(
                    cell,
                    Op::Get {
                        src: args.src_cell,
                        bytes: if args.is_ack_probe() { 0 } else { args.size() },
                        stride: args.is_stride(),
                        ack_probe: args.is_ack_probe(),
                        send_flag: args.send_flag.as_u64(),
                        recv_flag: args.recv_flag.as_u64(),
                    },
                );
                self.charge_overhead(cell, hw_params.issue_time);
                let bytes = if args.is_ack_probe() { 0 } else { args.size() };
                let tid = self.machine.alloc_tid();
                self.machine.xfers.start(tid, XferKind::Get, bytes, now);
                self.machine
                    .xfers
                    .charge(tid, Seg::Issue, now + hw_params.issue_time);
                self.machine.obs.span_id(
                    cell,
                    Unit::Cpu,
                    "get_issue",
                    now,
                    hw_params.issue_time,
                    Bucket::Overhead,
                    bytes,
                    tid,
                );
                let t = now + hw_params.issue_time;
                self.push_tx(cell, TxQueue::User, tid, TxJob::GetReq(args), t);
                self.evq.push(t, Ev::SendPop { cell });
                self.wake_at(cell, t, Response::Unit);
            }
            Request::WaitFlag { flag, target } => {
                self.record(
                    cell,
                    Op::WaitFlag {
                        flag: flag.as_u64(),
                        target,
                    },
                );
                let v = self.machine.read_flag(cid, flag)?;
                if v >= target {
                    self.charge_overhead(cell, hw_params.flag_check_time);
                    self.machine.flag_wait.record(0);
                    self.machine.obs.span(
                        cell,
                        Unit::Cpu,
                        "flag_check",
                        now,
                        hw_params.flag_check_time,
                        Bucket::Overhead,
                        flag.as_u64(),
                    );
                    self.wake_at(cell, now + hw_params.flag_check_time, Response::Unit);
                } else {
                    self.waiters[cell as usize] = Some(Waiter::Flag {
                        flag: flag.as_u64(),
                        target,
                        since: now,
                    });
                }
            }
            Request::ReadFlag { flag } => {
                let v = self.machine.read_flag(cid, flag)?;
                self.charge_overhead(cell, hw_params.flag_check_time);
                self.wake_at(cell, now + hw_params.flag_check_time, Response::Value(v));
            }
            Request::Barrier => {
                self.record(cell, Op::Barrier);
                // Abort at once instead of a guaranteed hang: a machine-wide
                // S-net barrier can never release once a participant has
                // crashed fail-stop.
                if let Some(f) = &self.fault {
                    if f.dead.iter().any(|&d| d) {
                        let dead: Vec<CellId> = f
                            .dead
                            .iter()
                            .enumerate()
                            .filter(|&(_, &d)| d)
                            .map(|(i, _)| CellId::new(i as u32))
                            .collect();
                        let mut waiting: Vec<CellId> = self
                            .waiters
                            .iter()
                            .enumerate()
                            .filter(|(_, w)| matches!(w, Some(Waiter::Barrier { .. })))
                            .map(|(i, _)| CellId::new(i as u32))
                            .collect();
                        waiting.push(cid);
                        return Err(ApError::BarrierAborted {
                            at: now,
                            waiting,
                            dead,
                        });
                    }
                }
                if let Some(release) = self.machine.snet.arrive(cid, now)? {
                    let epoch = self.machine.snet.epochs();
                    // Release earlier arrivals in cell-id order (the arriving
                    // cell last) — deterministic, unlike the hash-map drain
                    // this replaces.
                    let mut waiters: Vec<(u32, SimTime)> = Vec::new();
                    for (i, slot) in self.waiters.iter_mut().enumerate() {
                        if let Some(Waiter::Barrier { since }) = slot {
                            waiters.push((i as u32, *since));
                            *slot = None;
                        }
                    }
                    for (c, since) in waiters {
                        self.add_idle(c, since, release);
                        self.machine.obs.span(
                            c,
                            Unit::Cpu,
                            "barrier",
                            since,
                            release.saturating_sub(since),
                            Bucket::Idle,
                            epoch,
                        );
                        self.wake_at(c, release, Response::Unit);
                    }
                    self.add_idle(cell, now, release);
                    self.machine.obs.span(
                        cell,
                        Unit::Cpu,
                        "barrier",
                        now,
                        release.saturating_sub(now),
                        Bucket::Idle,
                        epoch,
                    );
                    self.wake_at(cell, release, Response::Unit);
                } else {
                    self.waiters[cell as usize] = Some(Waiter::Barrier { since: now });
                }
            }
            Request::Send { dst, laddr, bytes } => {
                self.machine.check_cell(dst)?;
                self.record(cell, Op::Send { dst, bytes });
                self.charge_overhead(cell, hw_params.send_call_time);
                let tid = self.machine.alloc_tid();
                self.machine.obs.span_id(
                    cell,
                    Unit::Cpu,
                    "send_call",
                    now,
                    hw_params.send_call_time,
                    Bucket::Overhead,
                    bytes,
                    tid,
                );
                self.push_tx(
                    cell,
                    TxQueue::User,
                    tid,
                    TxJob::Ring {
                        dst,
                        laddr,
                        bytes,
                        wake_sender: true,
                    },
                    now + hw_params.send_call_time,
                );
                self.evq
                    .push(now + hw_params.send_call_time, Ev::SendPop { cell });
                self.waiters[cell as usize] = Some(Waiter::Send {
                    since: now + hw_params.send_call_time,
                });
            }
            Request::Recv { src, laddr, max } => {
                self.machine.check_cell(src)?;
                self.record(cell, Op::Recv { src, bytes: max });
                if let Some(payload) = self.machine.cells[cell as usize].ring_pop(src) {
                    self.complete_recv(cell, laddr, max, payload, now)?;
                } else {
                    self.waiters[cell as usize] = Some(Waiter::Recv {
                        src,
                        laddr,
                        max,
                        since: now,
                    });
                }
            }
            Request::RegStore { dst, reg, value } => {
                self.machine.check_cell(dst)?;
                self.record(cell, Op::RegStore { dst, reg });
                self.charge_overhead(cell, hw_params.reg_store_time);
                let tid = self.machine.alloc_tid();
                self.machine.obs.span_id(
                    cell,
                    Unit::Cpu,
                    "reg_store",
                    now,
                    hw_params.reg_store_time,
                    Bucket::Overhead,
                    reg as u64,
                    tid,
                );
                if dst == cid {
                    self.reg_store_arrived(cell, reg, value, now + hw_params.reg_store_time, tid)?;
                } else {
                    let pkt = Packet::RegStore {
                        src: cid,
                        reg,
                        value,
                    };
                    self.inject(now + hw_params.reg_store_time, cid, dst, pkt, tid)?;
                }
                self.wake_at(cell, now + hw_params.reg_store_time, Response::Unit);
            }
            Request::RegLoad { reg } => {
                self.record(cell, Op::RegLoad { reg });
                if let Some(v) = self.machine.cells[cell as usize].regs.load(reg as usize) {
                    self.charge_overhead(cell, hw_params.reg_load_time);
                    self.machine.obs.span(
                        cell,
                        Unit::Cpu,
                        "reg_load",
                        now,
                        hw_params.reg_load_time,
                        Bucket::Overhead,
                        reg as u64,
                    );
                    self.wake_at(cell, now + hw_params.reg_load_time, Response::Value(v));
                } else {
                    self.waiters[cell as usize] = Some(Waiter::Reg { reg, since: now });
                }
            }
            Request::Bcast { root, laddr, bytes } => {
                self.machine.check_cell(root)?;
                self.record(cell, Op::Bcast { root, bytes });
                let state = self.bcast.get_or_insert_with(|| BcastState {
                    root,
                    bytes,
                    arrived: Vec::new(),
                });
                if state.root != root || state.bytes != bytes {
                    return Err(ApError::InvalidArg(format!(
                        "mismatched bcast: {cid} gave root {root}/{bytes}B, collective started \
                         with root {}/{}B",
                        state.root, state.bytes
                    )));
                }
                state.arrived.push((cell, laddr, now));
                if state.arrived.len() == self.machine.cells.len() {
                    let state = self.bcast.take().ok_or_else(|| {
                        ApError::internal(cid, "bnet", "bcast completed without collective state")
                    })?;
                    let mut latest =
                        state
                            .arrived
                            .iter()
                            .map(|&(_, _, t)| t)
                            .max()
                            .ok_or_else(|| {
                                ApError::internal(cid, "bnet", "bcast completed with no arrivals")
                            })?;
                    if let Some(f) = self.fault.as_mut() {
                        // A B-net outage defers the broadcast until the
                        // window closes.
                        latest = f.plan.bnet_clear(latest);
                    }
                    let root_laddr = state
                        .arrived
                        .iter()
                        .find(|&&(c, _, _)| c == state.root.as_u32())
                        .ok_or_else(|| {
                            ApError::internal(
                                state.root,
                                "bnet",
                                "bcast root never arrived at its own collective",
                            )
                        })?
                        .1;
                    let payload = self.machine.read_v(state.root, root_laddr, state.bytes)?;
                    let delivery =
                        self.machine
                            .bnet
                            .broadcast(latest, state.root, state.bytes + HEADER_BYTES);
                    let bcast_bytes = state.bytes;
                    for (c, la, since) in state.arrived {
                        if c != state.root.as_u32() {
                            self.machine.write_v(CellId::new(c), la, &payload)?;
                        }
                        self.add_idle(c, since, delivery);
                        self.machine.obs.span(
                            c,
                            Unit::Cpu,
                            "bcast",
                            since,
                            delivery.saturating_sub(since),
                            Bucket::Idle,
                            bcast_bytes,
                        );
                        self.wake_at(c, delivery, Response::Unit);
                    }
                } else {
                    self.waiters[cell as usize] = Some(Waiter::Bcast { since: now });
                }
            }
            Request::RemoteStore { dst, offset, data } => {
                self.machine.check_cell(dst)?;
                self.record(
                    cell,
                    Op::RemoteStore {
                        dst,
                        bytes: data.len() as u64,
                    },
                );
                let bytes = data.len() as u64;
                self.machine.cells[cell as usize].rstore_issued += 1;
                let tid = self.machine.alloc_tid();
                self.push_tx(
                    cell,
                    TxQueue::Remote,
                    tid,
                    TxJob::RemoteStoreTx {
                        dst,
                        offset,
                        data: Payload::from(data),
                    },
                    now,
                );
                let cost = hw_params.reg_store_time + hw_params.dma_per_byte.saturating_mul(bytes);
                self.charge_overhead(cell, cost);
                self.machine.obs.span_id(
                    cell,
                    Unit::Cpu,
                    "remote_store",
                    now,
                    cost,
                    Bucket::Overhead,
                    bytes,
                    tid,
                );
                self.evq.push(now + cost, Ev::SendPop { cell });
                self.wake_at(cell, now + cost, Response::Unit);
            }
            Request::RemoteLoad { dst, offset, len } => {
                self.machine.check_cell(dst)?;
                self.record(
                    cell,
                    Op::RemoteLoad {
                        src: dst,
                        bytes: len,
                    },
                );
                let tid = self.machine.alloc_tid();
                self.push_tx(
                    cell,
                    TxQueue::Remote,
                    tid,
                    TxJob::RemoteLoadReqTx { dst, offset, len },
                    now,
                );
                self.evq.push(now, Ev::SendPop { cell });
                self.waiters[cell as usize] = Some(Waiter::Load { since: now });
            }
            Request::RemoteFence => {
                self.record(cell, Op::RemoteFence);
                let hw = &self.machine.cells[cell as usize];
                if hw.rstore_acked == hw.rstore_issued {
                    self.wake_at(cell, now, Response::Unit);
                } else {
                    self.waiters[cell as usize] = Some(Waiter::Fence { since: now });
                }
            }
            Request::Mark(m) => {
                let op = match m {
                    Mark::GopScalar => Op::MarkGopScalar,
                    Mark::GopVector => Op::MarkGopVector,
                };
                self.record(cell, op);
                self.wake_at(cell, now, Response::Unit);
            }
            Request::Fail(reason) => {
                return Err(ApError::CellFailed { cell: cid, reason });
            }
            Request::Finish => {
                self.machine.times[cell as usize].finish = now;
                self.waiters[cell as usize] = None;
                self.finished[cell as usize] = true;
                self.done += 1;
            }
        }
        Ok(())
    }

    fn complete_recv(
        &mut self,
        cell: u32,
        laddr: VAddr,
        max: u64,
        payload: Payload,
        ready: SimTime,
    ) -> ApResult<()> {
        let hw = &mut self.machine.cells[cell as usize];
        hw.ring_bytes = hw.ring_bytes.saturating_sub(payload.len() as u64);
        let n = (payload.len() as u64).min(max);
        self.machine
            .write_v(CellId::new(cell), laddr, &payload[..n as usize])?;
        let cost = self.machine.cfg.hw.recv_copy_per_byte.saturating_mul(n)
            + self.machine.cfg.hw.flag_check_time;
        self.charge_overhead(cell, cost);
        self.machine.obs.span(
            cell,
            Unit::Cpu,
            "recv_copy",
            ready,
            cost,
            Bucket::Overhead,
            n,
        );
        self.wake_at(cell, ready + cost, Response::Len(n));
        Ok(())
    }

    // ---- hardware: send path -------------------------------------------

    fn send_pop(&mut self, cell: u32) -> ApResult<()> {
        let mut now = self.now();
        if self.machine.cells[cell as usize].send_busy {
            return Ok(());
        }
        let refills_before = self.machine.cells[cell as usize].total_refills();
        let Some((entry, _waited)) = self.machine.cells[cell as usize].pop_tx_at(now) else {
            return Ok(());
        };
        let TxEntry { tid, job } = entry;
        // Queue-overflow recovery: reloading spilled entries from DRAM
        // interrupts the operating system (§4.1) — the CPU pays the
        // service time and the DMA start is pushed back behind it.
        let refills = self.machine.cells[cell as usize].total_refills() - refills_before;
        if refills > 0 {
            let service = self
                .machine
                .cfg
                .hw
                .os_interrupt_time
                .saturating_mul(refills);
            self.charge_overhead(cell, service);
            self.machine.obs.span_id(
                cell,
                Unit::Cpu,
                "queue_refill",
                now,
                service,
                Bucket::Overhead,
                refills,
                tid,
            );
            now += service;
        }
        let remaining = self.machine.cells[cell as usize].total_pending() as u64;
        self.machine.obs.instant_id(
            cell,
            Unit::Queue,
            "dequeue",
            now,
            Bucket::Hw,
            remaining,
            tid,
        );
        self.machine.xfers.charge(tid, Seg::Queue, now);
        let cid = CellId::new(cell);
        // Gather the payload into one shared buffer (functionally
        // instantaneous; timing charged below as DMA duration). This is
        // the only copy out of simulated memory: every later station —
        // packet, ring buffer, delivery — shares the same allocation.
        let (payload, items) = match &job {
            TxJob::Put(a) => (
                self.machine.gather(cid, a.laddr, a.send_stride)?,
                a.send_stride.count,
            ),
            TxJob::GetReq(_) => (Payload::empty(), 1),
            TxJob::Ring { laddr, bytes, .. } => {
                (self.machine.read_payload(cid, *laddr, *bytes)?, 1)
            }
            TxJob::GetReply {
                raddr, send_stride, ..
            } => {
                if raddr.is_null() {
                    (Payload::empty(), 1)
                } else {
                    (
                        self.machine.gather(cid, *raddr, *send_stride)?,
                        send_stride.count,
                    )
                }
            }
            TxJob::RemoteStoreTx { data, .. } => (data.clone(), 1),
            TxJob::RemoteLoadReqTx { .. } => (Payload::empty(), 1),
            TxJob::RemoteLoadReplyTx { data, .. } => (data.clone(), 1),
            TxJob::RemoteAckTx { .. } => (Payload::empty(), 1),
        };
        let dur = self.machine.dma_time(payload.len() as u64, items);
        self.machine.xfers.charge(tid, Seg::Dma, now + dur);
        self.machine.obs.span_id(
            cell,
            Unit::SendDma,
            "send_dma",
            now,
            dur,
            Bucket::Hw,
            payload.len() as u64,
            tid,
        );
        let hw = &mut self.machine.cells[cell as usize];
        hw.send_busy = true;
        hw.active_tx = Some(ActiveTx { tid, job, payload });
        self.evq.push(now + dur, Ev::SendDone { cell });
        Ok(())
    }

    fn send_done(&mut self, cell: u32) -> ApResult<()> {
        let now = self.now();
        let cid = CellId::new(cell);
        let ActiveTx { tid, job, payload } = {
            let hw = &mut self.machine.cells[cell as usize];
            hw.send_busy = false;
            hw.active_tx.take().ok_or_else(|| {
                ApError::internal(cid, "send-dma", "send_done fired with no active job")
            })?
        };
        // More work may be queued.
        self.evq.push(now, Ev::SendPop { cell });
        match job {
            TxJob::Put(a) => {
                self.bump_flag(cell, a.send_flag, tid, Unit::SendDma)?;
                let pkt = Packet::PutData {
                    src: cid,
                    raddr: a.raddr,
                    recv_stride: a.recv_stride,
                    recv_flag: a.recv_flag,
                    payload,
                };
                self.inject(now, cid, a.dst, pkt, tid)?;
            }
            TxJob::GetReq(a) => {
                let pkt = Packet::GetReq {
                    src: cid,
                    raddr: a.raddr,
                    send_stride: a.send_stride,
                    send_flag: a.send_flag,
                    reply_laddr: a.laddr,
                    reply_stride: a.recv_stride,
                    reply_flag: a.recv_flag,
                };
                self.inject(now, cid, a.src_cell, pkt, tid)?;
            }
            TxJob::Ring {
                dst, wake_sender, ..
            } => {
                let pkt = Packet::RingMsg { src: cid, payload };
                self.inject(now, cid, dst, pkt, tid)?;
                if wake_sender {
                    if let Some(Waiter::Send { since }) =
                        self.take_waiter_if(cell, |w| matches!(w, Waiter::Send { .. }))
                    {
                        self.add_idle(cell, since, now);
                        self.machine.obs.span_id(
                            cell,
                            Unit::Cpu,
                            "send_wait",
                            since,
                            now.saturating_sub(since),
                            Bucket::Idle,
                            0,
                            tid,
                        );
                        self.wake_at(cell, now, Response::Unit);
                    }
                }
            }
            TxJob::GetReply {
                requester,
                send_flag,
                reply_laddr,
                reply_stride,
                reply_flag,
                ..
            } => {
                self.bump_flag(cell, send_flag, tid, Unit::SendDma)?;
                let pkt = Packet::GetReply {
                    src: cid,
                    laddr: reply_laddr,
                    recv_stride: reply_stride,
                    recv_flag: reply_flag,
                    payload,
                };
                self.inject(now, cid, requester, pkt, tid)?;
            }
            TxJob::RemoteStoreTx { dst, offset, .. } => {
                let pkt = Packet::RemoteStore {
                    src: cid,
                    raddr: VAddr::new(offset),
                    payload,
                };
                self.inject(now, cid, dst, pkt, tid)?;
            }
            TxJob::RemoteLoadReqTx { dst, offset, len } => {
                let pkt = Packet::RemoteLoadReq {
                    src: cid,
                    raddr: VAddr::new(offset),
                    size: len,
                };
                self.inject(now, cid, dst, pkt, tid)?;
            }
            TxJob::RemoteLoadReplyTx { dst, .. } => {
                let pkt = Packet::RemoteLoadReply { src: cid, payload };
                self.inject(now, cid, dst, pkt, tid)?;
            }
            TxJob::RemoteAckTx { dst } => {
                let pkt = Packet::RemoteStoreAck { src: cid };
                self.inject(now, cid, dst, pkt, tid)?;
            }
        }
        Ok(())
    }

    fn inject(
        &mut self,
        at: SimTime,
        src: CellId,
        dst: CellId,
        pkt: Packet,
        tid: u64,
    ) -> ApResult<()> {
        if self.fault.is_some() && src != dst {
            // Fault layer: wrap the packet in a sequence-numbered,
            // checksummed, acknowledged envelope and transmit over the
            // faulty network. (Loopback stays below — the MSC+
            // short-circuit cannot lose a packet to its own cell.)
            let f = self.fault_mut()?;
            f.next_seq += 1;
            let seq = f.next_seq;
            f.outstanding.insert(
                seq,
                Outstanding {
                    src,
                    dst,
                    pkt,
                    tid,
                    attempts: 0,
                },
            );
            return self.transmit_seq(at, seq);
        }
        let arrival = if src == dst {
            // Loopback: the MSC+ short-circuits the network.
            at
        } else {
            self.machine
                .tnet
                .transfer_tagged(at, src, dst, pkt.wire_bytes(), tid)
        };
        self.machine.xfers.charge(tid, Seg::Net, arrival);
        self.evq.push(
            arrival,
            Ev::Arrive {
                dst: dst.as_u32(),
                pkt,
                tid,
            },
        );
        Ok(())
    }

    // ---- fault layer: envelope, ack, retry, crash ------------------------

    /// Transmits envelope `seq` (first attempt or retry) at `at`: stamps
    /// the FNV payload checksum (flipping a bit if an injected corruption
    /// strikes), asks the faulty T-net for a verdict — deliver, detour, or
    /// drop — and arms the attempt's backoff retry timer.
    fn transmit_seq(&mut self, at: SimTime, seq: u64) -> ApResult<()> {
        // Field-level borrow: `f` must stay disjoint from `self.machine`
        // for the faulty-network call below.
        let f = self.fault.as_mut().ok_or_else(|| {
            ApError::internal(
                None,
                "fault-layer",
                "fault event fired without a fault layer",
            )
        })?;
        let o = f.outstanding.get_mut(&seq).ok_or_else(|| {
            ApError::internal(
                None,
                "fault-layer",
                format!("transmit of retired envelope seq {seq}"),
            )
        })?;
        o.attempts += 1;
        let attempt = o.attempts;
        let (src, dst, tid) = (o.src, o.dst, o.tid);
        let bytes = o.pkt.wire_bytes();
        let mut tag = checksum(o.pkt.payload_slice());
        let pkt = o.pkt.clone();
        if f.plan.corrupt(src, dst, at) {
            // One bit flipped in flight; the receiver's recomputation
            // will miss the stamped tag and discard the packet.
            tag ^= 1 << 7;
        }
        let timeout = f.plan.recovery().timeout_for(attempt);
        // The retry clock starts at the packet's expected delivery
        // completion, not its departure: an 11 KB transfer's serialization
        // alone can exceed the base ack timeout, and timing out mid-flight
        // would spuriously retransmit every large packet.
        let deadline =
            match self
                .machine
                .tnet
                .transfer_faulty(at, src, dst, bytes, tid, &mut f.plan)?
            {
                Delivery::Delivered { at: arrival, .. } => {
                    self.evq.push(
                        arrival,
                        Ev::ArriveF {
                            dst: dst.as_u32(),
                            src: src.as_u32(),
                            seq,
                            tag,
                            pkt,
                            tid,
                        },
                    );
                    arrival + timeout
                }
                Delivery::Dropped => at + timeout,
            };
        self.evq.push(deadline, Ev::RetryTimeout { seq, attempt });
        Ok(())
    }

    /// An envelope reached `dst`: verify the checksum, acknowledge, and
    /// deliver unless this `(src, seq)` was already seen (an earlier
    /// attempt got through but its ack was lost — re-ack, deliver nothing,
    /// so a retried PUT cannot double-scatter or double-bump a flag).
    fn arrive_f(
        &mut self,
        dst: u32,
        src: u32,
        seq: u64,
        tag: u32,
        pkt: Packet,
        tid: u64,
    ) -> ApResult<()> {
        let now = self.now();
        if checksum(pkt.payload_slice()) != tag {
            // Detected corruption: discard unacknowledged; the sender's
            // retry timer recovers the transfer.
            self.fault_mut()?.plan.report.corrupt_detected += 1;
            self.machine
                .obs
                .instant(dst, Unit::RecvDma, "corrupt_drop", now, Bucket::Hw, seq);
            return Ok(());
        }
        self.send_ack(dst, src, seq, now)?;
        let f = self.fault_mut()?;
        if !f.replay.first_sighting(CellId::new(src), seq) {
            f.plan.report.dup_suppressed += 1;
            self.machine
                .obs
                .instant(dst, Unit::RecvDma, "dup_suppressed", now, Bucket::Hw, seq);
            return Ok(());
        }
        self.machine.xfers.charge(tid, Seg::Net, now);
        self.arrive(dst, pkt, tid)
    }

    /// The receiver's MSC+ acknowledges envelope `seq` back to `src`.
    /// Acks are hardware-generated header-sized packets: they ride the
    /// same faulty network (and can be lost — the sender then retries and
    /// the receiver re-acks) but are never themselves acknowledged.
    fn send_ack(&mut self, from: u32, to: u32, seq: u64, now: SimTime) -> ApResult<()> {
        // Field-level borrow: `f` must stay disjoint from `self.machine`
        // for the faulty-network call below.
        let f = self.fault.as_mut().ok_or_else(|| {
            ApError::internal(
                None,
                "fault-layer",
                "fault event fired without a fault layer",
            )
        })?;
        f.plan.report.acks += 1;
        if let Delivery::Delivered { at, .. } = self.machine.tnet.transfer_faulty(
            now,
            CellId::new(from),
            CellId::new(to),
            HEADER_BYTES,
            0,
            &mut f.plan,
        )? {
            self.evq.push(at, Ev::AckArrive { seq });
        }
        Ok(())
    }

    /// Envelope `seq`'s ack did not arrive in time: retransmit with the
    /// next backed-off timeout, or — past the retry budget — abort the
    /// run with a structured delivery failure.
    fn retry_timeout(&mut self, seq: u64) -> ApResult<()> {
        let now = self.now();
        let f = self.fault_mut()?;
        let max_retries = f.plan.recovery().max_retries;
        let Some(o) = f.outstanding.get(&seq) else {
            return Err(ApError::internal(
                None,
                "fault-retry",
                format!("retry timer fired for retired envelope seq {seq} (stale timers are skipped before dispatch)"),
            ));
        };
        if o.attempts > max_retries {
            let o = f.outstanding.remove(&seq).ok_or_else(|| {
                ApError::internal(
                    None,
                    "fault-retry",
                    format!("envelope seq {seq} vanished between lookup and removal"),
                )
            })?;
            let failure = DeliveryFailure {
                src: o.src,
                dst: o.dst,
                op: o.pkt.kind_name(),
                attempts: o.attempts,
                at: now,
            };
            let cause = failure.to_string();
            f.plan.report.failures.push(failure);
            return Err(ApError::Fault(Box::new(self.fault_report(cause))));
        }
        f.plan.note_retry(o.pkt.kind_name());
        let src = o.src.as_u32();
        self.machine
            .obs
            .instant(src, Unit::Net, "retry", now, Bucket::Hw, seq);
        self.transmit_seq(now, seq)?;
        Ok(())
    }

    /// Fail-stop crash of `cell`: its hardware goes silent — pending
    /// wakes, DMA completions, and arrivals addressed to it are discarded
    /// (see [`Kernel::skips`]), its unacknowledged envelopes die with it,
    /// and any barrier it participates in can never complete.
    fn crash(&mut self, cell: u32) -> ApResult<()> {
        let now = self.now();
        let f = self.fault_mut()?;
        f.dead[cell as usize] = true;
        f.plan.note_crash(CellId::new(cell), now);
        // Fail-stop: nothing the dead cell had awaiting acknowledgement is
        // ever retransmitted; the orphaned retry timers go stale.
        f.outstanding.retain(|_, o| o.src.as_u32() != cell);
        let dead: Vec<CellId> = f
            .dead
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(i, _)| CellId::new(i as u32))
            .collect();
        self.pending[cell as usize].clear();
        self.waiters[cell as usize] = None;
        let hw = &mut self.machine.cells[cell as usize];
        hw.send_busy = false;
        hw.active_tx = None;
        self.machine
            .obs
            .instant(cell, Unit::Cpu, "crash", now, Bucket::Hw, 0);
        // Abort the barrier at once: cells already parked at the S-net barrier
        // would otherwise wait for a participant that can never arrive.
        let waiting: Vec<CellId> = self
            .waiters
            .iter()
            .enumerate()
            .filter(|(_, w)| matches!(w, Some(Waiter::Barrier { .. })))
            .map(|(i, _)| CellId::new(i as u32))
            .collect();
        if !waiting.is_empty() {
            return Err(ApError::BarrierAborted {
                at: now,
                waiting,
                dead,
            });
        }
        Ok(())
    }

    // ---- hardware: receive path ------------------------------------------

    fn arrive(&mut self, dst: u32, pkt: Packet, tid: u64) -> ApResult<()> {
        let now = self.now();
        match pkt {
            pkt @ (Packet::GetReq { .. } | Packet::RemoteLoadReq { .. }) => {
                // The MSC+ message handler serves arrivals strictly in
                // order: a request may not be answered before every
                // earlier-arriving payload has been deposited by the
                // receive DMA. That ordering is what makes the §4.1
                // acknowledge scheme sound — a PUT's ack-probe reply must
                // not overtake the PUT data it acknowledges — and is
                // equally what lets a DSM remote load observe an
                // earlier-arriving remote store. A zero-duration receive
                // reservation places the request behind all queued
                // deliveries without consuming DMA bandwidth.
                let (_, end) = self.machine.cells[dst as usize]
                    .recv_dma
                    .reserve(now, SimTime::ZERO);
                self.machine.xfers.charge(tid, Seg::Delivery, end);
                self.evq.push(end, Ev::RecvDone { dst, pkt, tid });
            }
            Packet::RemoteStoreAck { .. } => {
                let hw = &mut self.machine.cells[dst as usize];
                hw.rstore_acked += 1;
                if hw.rstore_acked == hw.rstore_issued {
                    if let Some(Waiter::Fence { since }) =
                        self.take_waiter_if(dst, |w| matches!(w, Waiter::Fence { .. }))
                    {
                        self.add_idle(dst, since, now);
                        self.machine.obs.span_id(
                            dst,
                            Unit::Cpu,
                            "remote_fence",
                            since,
                            now.saturating_sub(since),
                            Bucket::Idle,
                            0,
                            tid,
                        );
                        self.wake_at(dst, now, Response::Unit);
                    }
                }
            }
            Packet::RegStore { reg, value, .. } => {
                self.reg_store_arrived(dst, reg, value, now, tid)?;
            }
            Packet::RemoteLoadReply { payload, .. } => {
                if let Some(Waiter::Load { since }) =
                    self.take_waiter_if(dst, |w| matches!(w, Waiter::Load { .. }))
                {
                    self.add_idle(dst, since, now);
                    self.machine.obs.span_id(
                        dst,
                        Unit::Cpu,
                        "remote_load",
                        since,
                        now.saturating_sub(since),
                        Bucket::Idle,
                        payload.len() as u64,
                        tid,
                    );
                    // The one delivery-side copy: the bytes leave the
                    // shared buffer for the caller.
                    self.wake_at(dst, now, Response::Bytes(payload.to_vec()));
                }
            }
            data_pkt @ (Packet::PutData { .. }
            | Packet::GetReply { .. }
            | Packet::RingMsg { .. }
            | Packet::RemoteStore { .. }) => {
                // Receive DMA serializes arriving payloads.
                let items = match &data_pkt {
                    Packet::PutData { recv_stride, .. } => recv_stride.count,
                    Packet::GetReply { recv_stride, .. } => recv_stride.count,
                    _ => 1,
                };
                let bytes = data_pkt.payload_bytes();
                let dur = self.machine.dma_time(bytes, items);
                let (start, end) = self.machine.cells[dst as usize].recv_dma.reserve(now, dur);
                self.machine.xfers.charge(tid, Seg::Delivery, end);
                self.machine.obs.span_id(
                    dst,
                    Unit::RecvDma,
                    "recv_dma",
                    start,
                    end.saturating_sub(start),
                    Bucket::Hw,
                    bytes,
                    tid,
                );
                self.evq.push(
                    end,
                    Ev::RecvDone {
                        dst,
                        pkt: data_pkt,
                        tid,
                    },
                );
            }
        }
        Ok(())
    }

    fn recv_done(&mut self, dst: u32, pkt: Packet, tid: u64) -> ApResult<()> {
        let now = self.now();
        let did = CellId::new(dst);
        match pkt {
            Packet::GetReq {
                src,
                raddr,
                send_stride,
                send_flag,
                reply_laddr,
                reply_stride,
                reply_flag,
            } => {
                // Enter the reply queue; the send controller answers
                // automatically (§3.2 "the message handler must reply to
                // the GET request automatically").
                self.push_tx(
                    dst,
                    TxQueue::GetReply,
                    tid,
                    TxJob::GetReply {
                        requester: src,
                        raddr,
                        send_stride,
                        send_flag,
                        reply_laddr,
                        reply_stride,
                        reply_flag,
                    },
                    now,
                );
                self.evq.push(now, Ev::SendPop { cell: dst });
            }
            Packet::RemoteLoadReq { src, raddr, size } => {
                let data = Payload::from(self.machine.dsm_read(did, raddr.as_u64(), size)?);
                self.push_tx(
                    dst,
                    TxQueue::RemoteReply,
                    tid,
                    TxJob::RemoteLoadReplyTx { dst: src, data },
                    now,
                );
                self.evq.push(now, Ev::SendPop { cell: dst });
            }
            Packet::PutData {
                raddr,
                recv_stride,
                recv_flag,
                payload,
                ..
            } => {
                self.machine.scatter(did, raddr, recv_stride, &payload)?;
                self.bump_flag(dst, recv_flag, tid, Unit::RecvDma)?;
                self.machine.xfers.finish(tid, now);
            }
            Packet::GetReply {
                laddr,
                recv_stride,
                recv_flag,
                payload,
                ..
            } => {
                if !payload.is_empty() {
                    self.machine.scatter(did, laddr, recv_stride, &payload)?;
                }
                self.bump_flag(dst, recv_flag, tid, Unit::RecvDma)?;
                self.machine.xfers.finish(tid, now);
            }
            Packet::RingMsg { src, payload } => {
                let hw = &mut self.machine.cells[dst as usize];
                hw.ring_bytes += payload.len() as u64;
                hw.ring.entry(src.as_u32()).or_default().push_back(payload);
                // §4.3: a full ring buffer interrupts the OS to allocate a
                // new one; the receiving CPU pays the service time.
                if hw.ring_bytes > self.machine.cfg.hw.ring_capacity {
                    let buffered = hw.ring_bytes;
                    hw.ring_bytes = 0; // fresh buffer
                    hw.ring_overflows += 1;
                    let service = self.machine.cfg.hw.os_interrupt_time;
                    self.charge_overhead(dst, service);
                    self.machine.obs.instant(
                        dst,
                        Unit::Queue,
                        "ring_overflow",
                        now,
                        Bucket::Hw,
                        buffered,
                    );
                }
                // A blocked receiver found its source queue empty, so the
                // only message that can satisfy it is the one just pushed.
                if let Some(Waiter::Recv {
                    src: wsrc,
                    laddr,
                    max,
                    since,
                }) = self.take_waiter_if(
                    dst,
                    |w| matches!(w, Waiter::Recv { src: s, .. } if *s == src),
                ) {
                    let payload =
                        self.machine.cells[dst as usize]
                            .ring_pop(wsrc)
                            .ok_or_else(|| {
                                ApError::internal(
                                    CellId::new(dst),
                                    "msc-ring",
                                    format!(
                                        "message queued from cell{src} vanished before its \
                                     blocked receiver woke"
                                    ),
                                )
                            })?;
                    self.add_idle(dst, since, now);
                    self.machine.obs.span_id(
                        dst,
                        Unit::Cpu,
                        "recv_wait",
                        since,
                        now.saturating_sub(since),
                        Bucket::Idle,
                        payload.len() as u64,
                        tid,
                    );
                    self.complete_recv(dst, laddr, max, payload, now)?;
                }
            }
            Packet::RemoteStore {
                src,
                raddr,
                payload,
            } => {
                self.machine.dsm_write(did, raddr.as_u64(), &payload)?;
                self.push_tx(
                    dst,
                    TxQueue::RemoteReply,
                    tid,
                    TxJob::RemoteAckTx { dst: src },
                    now,
                );
                self.evq.push(now, Ev::SendPop { cell: dst });
            }
            other => unreachable!("recv_done got non-payload packet {other:?}"),
        }
        Ok(())
    }

    // ---- flags and registers ---------------------------------------------

    /// Fetch-and-increment `flag` on `cell` and wake a satisfied waiter.
    /// `tid` and `unit` identify the transfer chain and hardware unit
    /// performing the update, so the release is attributable.
    fn bump_flag(&mut self, cell: u32, flag: VAddr, tid: u64, unit: Unit) -> ApResult<()> {
        let now = self.now();
        let Some(new) = self.machine.incr_flag(CellId::new(cell), flag)? else {
            return Ok(());
        };
        self.machine.obs.instant_id(
            cell,
            unit,
            "flag_update",
            now,
            Bucket::Hw,
            flag.as_u64(),
            tid,
        );
        let flag_u = flag.as_u64();
        if let Some(Waiter::Flag { since, .. }) = self.take_waiter_if(
            cell,
            |w| matches!(w, Waiter::Flag { flag: f, target, .. } if *f == flag_u && new >= *target),
        ) {
            let check = self.machine.cfg.hw.flag_check_time;
            self.add_idle(cell, since, now);
            let waited = now.saturating_sub(since);
            self.machine.flag_wait.record(waited.as_nanos());
            self.machine.obs.span_id(
                cell,
                Unit::Cpu,
                "wait_flag",
                since,
                waited,
                Bucket::Idle,
                flag_u,
                tid,
            );
            self.charge_overhead(cell, check);
            self.wake_at(cell, now + check, Response::Unit);
        }
        Ok(())
    }

    /// A communication-register store reached `cell` at `at`.
    fn reg_store_arrived(
        &mut self,
        cell: u32,
        reg: u16,
        value: u32,
        at: SimTime,
        tid: u64,
    ) -> ApResult<()> {
        let clobbered = self.machine.cells[cell as usize]
            .regs
            .store(reg as usize, value);
        if clobbered {
            return Err(ApError::InvalidArg(format!(
                "communication register {reg} on cell{cell} overwritten while p-bit set \
                 (reduction protocol violation)"
            )));
        }
        if let Some(Waiter::Reg { since, .. }) = self.take_waiter_if(
            cell,
            |w| matches!(w, Waiter::Reg { reg: r, .. } if *r == reg),
        ) {
            let v = self.machine.cells[cell as usize]
                .regs
                .load(reg as usize)
                .ok_or_else(|| {
                    ApError::internal(
                        CellId::new(cell),
                        "cregs",
                        format!("communication register {reg} lost its p-bit between store and waiter wake"),
                    )
                })?;
            let cost = self.machine.cfg.hw.reg_load_time;
            self.add_idle(cell, since, at);
            self.machine.obs.span_id(
                cell,
                Unit::Cpu,
                "reg_load_wait",
                since,
                at.saturating_sub(since),
                Bucket::Idle,
                reg as u64,
                tid,
            );
            self.charge_overhead(cell, cost);
            self.wake_at(cell, at + cost, Response::Value(v));
        }
        Ok(())
    }
}
