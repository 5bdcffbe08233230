//! The reliable-delivery envelope of a fault-armed run: every non-loopback
//! packet is sequence-numbered, checksummed and acknowledged; the sender
//! retransmits on a backed-off timeout, the receiver suppresses replayed
//! duplicates, and a fail-stop crash silences a cell for good.
//!
//! A fault-free run never enters this file: the kernel holds the whole
//! layer behind one `Option<FaultState>`.

use super::Ev;
use crate::machine::Machine;
use apfault::{FaultPlan, FaultSpec, ReplayGuard};
use apmsc::{checksum, Packet, HEADER_BYTES};
use apnet::Delivery;
use apobs::{Bucket, Unit};
use apsim::EventQueue;
use aputil::{ApError, ApResult, CellId, DeliveryFailure, FaultReport, IntMap, SimTime};

/// A sequence-numbered envelope that reached `dst`'s MSC+. `tag` is the
/// FNV checksum the sender stamped (possibly flipped in flight by an
/// injected corruption); `tid` the transfer-chain id of the packet inside.
#[derive(Debug)]
pub(super) struct Envelope {
    pub dst: u32,
    src: u32,
    seq: u64,
    tag: u32,
    pkt: Packet,
    tid: u64,
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
pub(super) struct FaultState {
    plan: FaultPlan,
    /// Last sequence number assigned (global, so `(src, seq)` dedup keys
    /// are unique machine-wide).
    next_seq: u64,
    outstanding: IntMap<u64, Outstanding>,
    replay: ReplayGuard,
    /// Cells taken down by a fail-stop crash.
    dead: Vec<bool>,
}

impl FaultState {
    /// Arms `spec` on an `n`-cell machine, queueing the schedule's crashes
    /// as sim-time events.
    pub fn arm(spec: &FaultSpec, n: usize, evq: &mut EventQueue<Ev>) -> FaultState {
        let plan = FaultPlan::new(spec);
        for (cell, at) in plan.crash_schedule() {
            if cell.index() < n {
                let cell = cell.as_u32();
                evq.push(at, Ev::Crash { cell });
            }
        }
        FaultState {
            plan,
            next_seq: 0,
            outstanding: IntMap::default(),
            replay: ReplayGuard::new(),
            dead: vec![false; n],
        }
    }

    /// Events that must be discarded without advancing the clock: stale
    /// retry timers (their envelope was acknowledged), crash events for
    /// cells that already finished, and any activity addressed to a dead
    /// cell (fail-stop: its hardware neither sends, receives, nor wakes).
    pub fn skips(&self, ev: &Ev, finished: &[bool]) -> bool {
        match ev {
            Ev::RetryTimeout { seq, attempt } => self
                .outstanding
                .get(seq)
                .is_none_or(|o| o.attempts != *attempt),
            Ev::Crash { cell } => finished[*cell as usize] || self.dead[*cell as usize],
            Ev::Wake { cell, .. } | Ev::SendPop { cell } | Ev::SendDone { cell } => {
                self.dead[*cell as usize]
            }
            Ev::Arrive { dst, .. } | Ev::RecvDone { dst, .. } => self.dead[*dst as usize],
            Ev::ArriveF(env) => self.dead[env.dst as usize],
            Ev::AckArrive { .. } => false,
        }
    }

    /// The cells crashed so far, in id order.
    pub fn dead_cells(&self) -> Vec<CellId> {
        let dead = self.dead.iter().enumerate().filter(|&(_, &d)| d);
        dead.map(|(i, _)| CellId::new(i as u32)).collect()
    }

    /// Retransmissions and detours so far (the telemetry gauges).
    pub fn retries_detours(&self) -> (u64, u64) {
        (self.plan.report.total_retries(), self.plan.report.detours)
    }

    /// When a broadcast ready at `t` can go out: a B-net outage defers it
    /// until the window closes.
    pub fn bnet_clear(&mut self, t: SimTime) -> SimTime {
        self.plan.bnet_clear(t)
    }

    /// Snapshot of the plan's report with an abort `cause` attached.
    pub fn report(&self, cause: String) -> FaultReport {
        let mut r = self.plan.report.clone();
        r.cause = cause;
        r
    }

    /// The report of a survived run.
    pub fn into_report(self) -> FaultReport {
        self.plan.report
    }

    /// Wraps `pkt` in a fresh envelope and transmits it to `dst` over the
    /// faulty network at `at`.
    pub fn inject(
        &mut self,
        at: SimTime,
        dst: CellId,
        pkt: Packet,
        tid: u64,
        m: &mut Machine,
        evq: &mut EventQueue<Ev>,
    ) -> ApResult<()> {
        self.next_seq += 1;
        let o = Outstanding {
            src: pkt.src(),
            dst,
            pkt,
            tid,
            attempts: 0,
        };
        self.outstanding.insert(self.next_seq, o);
        self.transmit(at, self.next_seq, m, evq)
    }

    /// Transmits envelope `seq` (first attempt or retry) at `at`: stamps
    /// the FNV payload checksum (flipping a bit if an injected corruption
    /// strikes), asks the faulty T-net for a verdict — deliver, detour, or
    /// drop — and arms the attempt's backoff retry timer.
    fn transmit(
        &mut self,
        at: SimTime,
        seq: u64,
        m: &mut Machine,
        evq: &mut EventQueue<Ev>,
    ) -> ApResult<()> {
        let o = self.outstanding.get_mut(&seq).ok_or_else(|| {
            let what = format!("transmit of retired envelope seq {seq}");
            ApError::internal(None, "fault-layer", what)
        })?;
        o.attempts += 1;
        let attempt = o.attempts;
        let (src, dst, tid) = (o.src, o.dst, o.tid);
        let bytes = o.pkt.wire_bytes();
        let mut tag = checksum(o.pkt.payload_slice());
        let pkt = o.pkt.clone();
        if self.plan.corrupt(src, dst, at) {
            // One bit flipped in flight; the receiver's recomputation
            // will miss the stamped tag and discard the packet.
            tag ^= 1 << 7;
        }
        let timeout = self.plan.recovery().timeout_for(attempt);
        // The retry clock starts at the packet's expected delivery
        // completion, not its departure: an 11 KB transfer's serialization
        // alone can exceed the base ack timeout, and timing out mid-flight
        // would spuriously retransmit every large packet.
        let verdict = m
            .tnet
            .transfer_faulty(at, src, dst, bytes, tid, &mut self.plan)?;
        let deadline = match verdict {
            Delivery::Delivered { at: arrival, .. } => {
                let (dst, src) = (dst.as_u32(), src.as_u32());
                let env = Envelope {
                    dst,
                    src,
                    seq,
                    tag,
                    pkt,
                    tid,
                };
                evq.push(arrival, Ev::ArriveF(Box::new(env)));
                arrival + timeout
            }
            Delivery::Dropped => at + timeout,
        };
        evq.push(deadline, Ev::RetryTimeout { seq, attempt });
        Ok(())
    }

    /// An envelope reached its destination at `now`: verify the checksum,
    /// acknowledge, and hand back the packet to deliver — unless this
    /// `(src, seq)` was already seen (an earlier attempt got through but
    /// its ack was lost — re-ack, deliver nothing, so a retried PUT cannot
    /// double-scatter or double-bump a flag).
    pub fn arrive(
        &mut self,
        now: SimTime,
        env: Envelope,
        m: &mut Machine,
        evq: &mut EventQueue<Ev>,
    ) -> ApResult<Option<(Packet, u64)>> {
        let Envelope { dst, src, seq, .. } = env;
        if checksum(env.pkt.payload_slice()) != env.tag {
            // Detected corruption: discard unacknowledged; the sender's
            // retry timer recovers the transfer.
            self.plan.report.corrupt_detected += 1;
            m.obs
                .instant(dst, Unit::RecvDma, "corrupt_drop", now, Bucket::Hw, seq);
            return Ok(None);
        }
        // The receiver's MSC+ acknowledges back to `src`. Acks are
        // hardware-generated header-sized packets: they ride the same
        // faulty network (and can be lost — the sender then retries and
        // the receiver re-acks) but are never themselves acknowledged.
        self.plan.report.acks += 1;
        let (from, to) = (CellId::new(dst), CellId::new(src));
        let verdict = m
            .tnet
            .transfer_faulty(now, from, to, HEADER_BYTES, 0, &mut self.plan)?;
        if let Delivery::Delivered { at, .. } = verdict {
            evq.push(at, Ev::AckArrive { seq });
        }
        if !self.replay.first_sighting(to, seq) {
            self.plan.report.dup_suppressed += 1;
            m.obs
                .instant(dst, Unit::RecvDma, "dup_suppressed", now, Bucket::Hw, seq);
            return Ok(None);
        }
        Ok(Some((env.pkt, env.tid)))
    }

    /// The ack for envelope `seq` reached its sender: the envelope is
    /// delivered, and its pending retry timer is now stale.
    pub fn acked(&mut self, seq: u64) {
        self.outstanding.remove(&seq);
    }

    /// Envelope `seq`'s ack did not arrive in time: retransmit with the
    /// next backed-off timeout, or — past the retry budget — abort the
    /// run with a structured delivery failure.
    pub fn retry(
        &mut self,
        now: SimTime,
        seq: u64,
        m: &mut Machine,
        evq: &mut EventQueue<Ev>,
    ) -> ApResult<()> {
        let max_retries = self.plan.recovery().max_retries;
        let Some(o) = self.outstanding.get(&seq) else {
            let what = format!("retry timer fired for retired envelope seq {seq} (stale timers are skipped before dispatch)");
            return Err(ApError::internal(None, "fault-retry", what));
        };
        if o.attempts > max_retries {
            let failure = DeliveryFailure {
                src: o.src,
                dst: o.dst,
                op: o.pkt.kind_name(),
                attempts: o.attempts,
                at: now,
            };
            self.outstanding.remove(&seq);
            let cause = failure.to_string();
            self.plan.report.failures.push(failure);
            return Err(ApError::Fault(Box::new(self.report(cause))));
        }
        self.plan.note_retry(o.pkt.kind_name());
        m.obs
            .instant(o.src.as_u32(), Unit::Net, "retry", now, Bucket::Hw, seq);
        self.transmit(now, seq, m, evq)
    }

    /// Fail-stop crash of `cell` at `now`: events addressed to it are
    /// discarded from here on (see [`FaultState::skips`]) and its
    /// unacknowledged envelopes die with it — nothing it had awaiting
    /// acknowledgement is ever retransmitted; the orphaned retry timers
    /// go stale.
    pub fn crash(&mut self, cell: u32, now: SimTime) {
        self.dead[cell as usize] = true;
        self.plan.note_crash(CellId::new(cell), now);
        self.outstanding.retain(|_, o| o.src.as_u32() != cell);
    }
}
