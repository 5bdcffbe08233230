//! The deterministic simulation kernel.
//!
//! The kernel owns the whole [`Machine`] and steps every cell program
//! inline: a program is a future ([`Step`]) that runs on the kernel's own
//! stack up to its next data-returning [`Request`]. All hardware activity
//! (DMA, packets, flags, barriers) is driven through a single event queue,
//! and every event commits in time order, ties in the order they were
//! scheduled, so a given program and configuration always produces the
//! identical execution.
//!
//! The cell↔kernel protocol is *run-to-block* (DESIGN.md §10): a wake's
//! [`Response`] reaches its program at the wake's own commit and nowhere
//! else, so a wake cancelled by a fail-stop crash is a program that is
//! never polled again.
//!
//! This file is the event loop and that commit; [`model`] is the paper's
//! hardware, [`reliable`] the fault-armed delivery envelope, [`probe`] the
//! host-side telemetry taps.

#![deny(clippy::too_many_lines)]

mod model;
mod probe;
mod reliable;

use crate::machine::Machine;
use crate::request::{Request, Response};
use apfault::FaultSpec;
use apmsc::Packet;
use apobs::{Bucket, Seg, Unit};
use apsim::{Clock, EventQueue};
use aputil::{
    ApError, ApResult, BlockReason, BlockedCell, CellId, DeadlockReport, FaultReport, SimTime,
    VAddr,
};
use model::{BcastState, Wait, Waiter};
use probe::{NoProbe, Probe, Telemetry};
use reliable::{Envelope, FaultState};
use std::collections::VecDeque;

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
    /// Fault layer: a sequence-numbered envelope reached its destination
    /// (boxed: the widest variant, and fault-free runs never build it).
    ArriveF(Box<Envelope>),
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

// Events move by value through the queue, so a fat variant costs every event.
const _: () = assert!(size_of::<Ev>() <= 80);

/// The fault layer, or a structured [`ApError::Internal`] if a fault-only
/// event fired on an unfaulted run (a kernel bug — fault events are only
/// scheduled by the fault layer itself).
fn armed(fault: &mut Option<FaultState>) -> ApResult<&mut FaultState> {
    let what = "fault event fired without a fault layer";
    fault
        .as_mut()
        .ok_or_else(|| ApError::internal(None, "fault-layer", what))
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
    /// The fault layer; `None` on fault-free runs, and the only way into
    /// [`reliable`].
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
            let resp = Response::Unit;
            evq.push(SimTime::ZERO, Ev::Wake { cell, resp });
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
        let n = self.machine.cells.len();
        self.fault = spec.map(|spec| FaultState::arm(spec, n, &mut self.evq));
        self
    }

    /// Consumes the kernel, returning the machine.
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// Takes the fault report of a survived faulted run (`None` on
    /// fault-free runs). Call after [`Kernel::run`].
    pub fn take_fault_report(&mut self) -> Option<FaultReport> {
        self.fault.take().map(FaultState::into_report)
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
            let dead = f.dead_cells().len() as u32;
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
                return Err(ApError::Fault(Box::new(f.report(cause))));
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
            // Discarded without advancing the clock: see `FaultState::skips`.
            if (self.fault.as_ref()).is_some_and(|f| f.skips(&ev, &self.finished)) {
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
            if hw.active_tx.is_some() {
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
        let Waiter { since, on } = self.waiters[i]?;
        let cell = CellId::new(i as u32);
        let hw = &self.machine.cells[i];
        let reason = match on {
            Wait::Flag { flag, target } => {
                let flag = VAddr::new(flag);
                let current = self.machine.read_flag(cell, flag).unwrap_or(0);
                BlockReason::FlagWait {
                    flag,
                    current,
                    target,
                }
            }
            Wait::Barrier => BlockReason::Barrier,
            Wait::Recv { src, .. } => BlockReason::Recv { src },
            Wait::Send => BlockReason::Send,
            Wait::Bcast => BlockReason::Bcast,
            Wait::Reg { reg } => BlockReason::RegLoad { reg },
            Wait::Load => BlockReason::RemoteLoad,
            Wait::Fence => BlockReason::RemoteFence {
                issued: hw.rstore_issued,
                acked: hw.rstore_acked,
            },
        };
        Some(BlockedCell {
            cell,
            reason,
            since,
            pending_tx: hw.pending_tx(),
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

    fn wake_at(&mut self, cell: u32, at: SimTime, resp: Response) {
        self.evq.push(at, Ev::Wake { cell, resp });
    }

    // ---- event dispatch ------------------------------------------------

    fn handle(&mut self, ev: Ev, step: &mut Step) -> ApResult<()> {
        match ev {
            Ev::Wake { cell, resp } => self.deliver_and_take(cell, resp, step),
            Ev::SendPop { cell } => self.send_pop(cell),
            Ev::SendDone { cell } => self.send_done(cell),
            Ev::Arrive { dst, pkt, tid } => self.arrive(dst, pkt, tid),
            Ev::RecvDone { dst, pkt, tid } => self.recv_done(dst, pkt, tid),
            Ev::ArriveF(env) => {
                let (now, dst) = (self.now(), env.dst);
                let delivered =
                    armed(&mut self.fault)?.arrive(now, *env, &mut self.machine, &mut self.evq)?;
                let Some((pkt, tid)) = delivered else {
                    return Ok(());
                };
                self.machine.xfers.charge(tid, Seg::Net, now);
                self.arrive(dst, pkt, tid)
            }
            Ev::AckArrive { seq } => {
                armed(&mut self.fault)?.acked(seq);
                Ok(())
            }
            Ev::RetryTimeout { seq, .. } => {
                let now = self.now();
                armed(&mut self.fault)?.retry(now, seq, &mut self.machine, &mut self.evq)
            }
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

    /// Fail-stop crash of `cell`: its hardware goes silent — pending
    /// wakes, DMA completions, and arrivals addressed to it are discarded,
    /// its unacknowledged envelopes die with it, and any barrier it
    /// participates in can never complete.
    fn crash(&mut self, cell: u32) -> ApResult<()> {
        let now = self.now();
        armed(&mut self.fault)?.crash(cell, now);
        self.pending[cell as usize].clear();
        self.waiters[cell as usize] = None;
        self.machine.cells[cell as usize].active_tx = None;
        let obs = &mut self.machine.obs;
        obs.instant(cell, Unit::Cpu, "crash", now, Bucket::Hw, 0);
        // Cells already parked at the S-net barrier would otherwise wait
        // for a participant that can never arrive.
        self.barrier_abort(None).map_or(Ok(()), Err)
    }
}
