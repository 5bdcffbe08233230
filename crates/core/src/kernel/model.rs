//! The paper's hardware model: what each [`Request`] does to the machine,
//! and the Figure-7 chain a message then walks — send queue → send DMA →
//! T-net → receive DMA → flag update (§4.1).
//!
//! Simulated CPU time is charged in exactly three places: [`Kernel::book`]
//! bills a Figure-8 bucket and records the matching span,
//! [`Kernel::release`] ends a blocked cell's wait (idle time, wait span,
//! wake), and [`Kernel::issue`] is the issue path of the transmitting
//! requests.

use super::{Ev, Kernel};
use crate::machine::{TxEntry, TxSource};
use crate::request::{Mark, Request, Response};
use apmsc::{GetArgs, Packet, Payload, PushOutcome, PutArgs};
use apobs::{Bucket, EvName, Seg, Unit, XferKind};
use aptrace::Op;
use aputil::{ApError, ApResult, CellId, SimTime, VAddr};

/// Which of a cell's four MSC+ transmit queues to enqueue into.
#[derive(Clone, Copy, Debug)]
enum TxQueue {
    User,
    Remote,
    GetReply,
    RemoteReply,
}

/// What a blocked cell waits on, with everything needed to wake it.
#[derive(Clone, Copy, Debug)]
pub(super) enum Wait {
    /// `wait_flag` until the flag at `flag` reaches `target`.
    Flag { flag: u64, target: u32 },
    /// Blocking RECEIVE from `src`.
    Recv { src: CellId, laddr: VAddr, max: u64 },
    /// Blocking communication-register load (p-bit retry).
    Reg { reg: u16 },
    /// `remote_fence` until all remote stores are acknowledged.
    Fence,
    /// Blocking DSM remote load.
    Load,
    /// Blocking SEND, until the send DMA drains the buffer.
    Send,
    /// Arrived at the S-net barrier.
    Barrier,
    /// Arrived at the B-net broadcast collective.
    Bcast,
}

impl Wait {
    /// Name of the idle span the wait leaves on the timeline.
    fn span(self) -> EvName {
        match self {
            Wait::Flag { .. } => EvName::WaitFlag,
            Wait::Recv { .. } => EvName::RecvWait,
            Wait::Reg { .. } => EvName::RegLoadWait,
            Wait::Fence => EvName::RemoteFence,
            Wait::Load => EvName::RemoteLoad,
            Wait::Send => EvName::SendWait,
            Wait::Barrier => EvName::Barrier,
            Wait::Bcast => EvName::Bcast,
        }
    }
}

/// A blocked cell: it waits on exactly one thing, so the kernel keeps one
/// slot per cell and every wakeup is an indexed probe of that slot.
#[derive(Clone, Copy, Debug)]
pub(super) struct Waiter {
    pub since: SimTime,
    pub on: Wait,
}

/// The B-net collective in progress: its signature and who has arrived,
/// in arrival order, with their landing buffers.
pub(super) struct BcastState {
    root: CellId,
    bytes: u64,
    arrived: Vec<(u32, VAddr)>,
}

impl Kernel {
    // ---- where time is charged ----------------------------------------

    /// Bills `dur` of `cell`'s CPU from `start` to `bucket` and records
    /// the span that shows it (`tid` 0 = no transfer chain).
    #[allow(clippy::too_many_arguments)] // `Recorder::span_id`'s own list
    fn book(
        &mut self,
        cell: u32,
        name: EvName,
        start: SimTime,
        dur: SimTime,
        bucket: Bucket,
        arg: u64,
        tid: u64,
    ) {
        self.machine.times[cell as usize].charge(bucket, dur);
        self.machine
            .obs
            .span_id(cell, Unit::Cpu, name, start, dur, bucket, arg, tid);
    }

    /// Bills span-less communication overhead (a flag or register check
    /// folded into a wake, an OS interrupt).
    fn charge(&mut self, cell: u32, t: SimTime) {
        self.machine.times[cell as usize].charge(Bucket::Overhead, t);
    }

    fn block(&mut self, cell: u32, since: SimTime, on: Wait) {
        self.waiters[cell as usize] = Some(Waiter { since, on });
    }

    /// Whether `cell` is blocked on a wait `pred` accepts.
    fn waits_on(&self, cell: u32, pred: impl FnOnce(Wait) -> bool) -> bool {
        self.waiters[cell as usize].is_some_and(|w| pred(w.on))
    }

    fn at_barrier(&self, cell: u32) -> bool {
        self.waits_on(cell, |w| matches!(w, Wait::Barrier))
    }

    /// Ends `cell`'s wait at `at`: the time it was blocked is booked idle
    /// under the wait's span. Returns what it waited on.
    fn unblock(&mut self, cell: u32, at: SimTime, arg: u64, tid: u64) -> Wait {
        let w = self.waiters[cell as usize]
            .take()
            .expect("only a blocked cell is released");
        let waited = at.saturating_sub(w.since);
        self.book(cell, w.on.span(), w.since, waited, Bucket::Idle, arg, tid);
        w.on
    }

    /// Releases blocked `cell` at `at`: books its wait, then the `check`
    /// it pays on resuming (span-less overhead), and wakes it with `resp`.
    fn release(
        &mut self,
        cell: u32,
        at: SimTime,
        arg: u64,
        tid: u64,
        check: SimTime,
        resp: Response,
    ) {
        self.unblock(cell, at, arg, tid);
        self.charge(cell, check);
        self.wake_at(cell, at + check, resp);
    }

    /// Puts `entry` into one of `cell`'s transmit queues at `at` (recording
    /// the queue's new depth and emitting its enqueue/spill events) and
    /// kicks the send controller at `kick`.
    fn enqueue(
        &mut self,
        cell: u32,
        queue: TxQueue,
        tid: u64,
        mut entry: TxEntry,
        at: SimTime,
        kick: SimTime,
    ) {
        entry.tid = tid;
        let hw = &mut self.machine.cells[cell as usize];
        let q = match queue {
            TxQueue::User => &mut hw.user_q,
            TxQueue::Remote => &mut hw.remote_q,
            TxQueue::GetReply => &mut hw.reply_get_q,
            TxQueue::RemoteReply => &mut hw.reply_remote_q,
        };
        let outcome = q.push(entry);
        let depth = q.len() as u64;
        self.machine.queue_occupancy.record(depth);
        let obs = &mut self.machine.obs;
        obs.instant_id(
            cell,
            Unit::Queue,
            EvName::Enqueue,
            at,
            Bucket::Hw,
            depth,
            tid,
        );
        if outcome == PushOutcome::Spilled {
            obs.instant_id(cell, Unit::Queue, EvName::Spill, at, Bucket::Hw, depth, tid);
        }
        self.evq.push(kick, Ev::SendPop { cell });
    }

    /// The issue path of a transmitting request: the CPU pays `cost` under
    /// span `name`, `entry` joins `queue` on a fresh transfer chain, and
    /// the send controller is kicked when the CPU is done. A library call
    /// writes its command into the user queue at the end of the issue; a
    /// DSM access is a plain store the MSC+ queues at once. Returns the
    /// chain id.
    fn issue(
        &mut self,
        cell: u32,
        queue: TxQueue,
        entry: TxEntry,
        name: EvName,
        cost: SimTime,
        arg: u64,
    ) -> u64 {
        let now = self.now();
        let (done, tid) = (now + cost, self.machine.alloc_tid());
        if let TxQueue::User = queue {
            self.book(cell, name, now, cost, Bucket::Overhead, arg, tid);
            self.enqueue(cell, queue, tid, entry, done, done);
        } else {
            self.enqueue(cell, queue, tid, entry, now, done);
            self.book(cell, name, now, cost, Bucket::Overhead, arg, tid);
        }
        tid
    }

    fn record(&mut self, cell: u32, op: Op) {
        if self.machine.cfg.record_trace {
            self.machine.trace.pe_mut(CellId::new(cell)).push(op);
        }
    }

    // ---- request handling ----------------------------------------------

    pub(super) fn dispatch(&mut self, cell: u32, req: Request) -> ApResult<()> {
        let now = self.now();
        let cost = self.machine.cfg.hw.cost;
        let cid = CellId::new(cell);
        match req {
            Request::Alloc { bytes, at } => {
                let mmu = &mut self.machine.cells[cell as usize].mmu;
                let addr = mmu.map_anywhere(bytes).map_err(|_| {
                    ApError::InvalidArg(format!("{cid} cannot allocate {bytes} bytes"))
                })?;
                if addr != at {
                    let what =
                        format!("{bytes} bytes mapped at {addr}, the cell's layout said {at}");
                    return Err(ApError::internal(cid, "mmu", what));
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
                self.record(cell, Op::Work { flops });
                let t = cost.flop_time.saturating_mul(flops);
                self.book(cell, EvName::Work, now, t, Bucket::Exec, flops, 0);
                self.wake_at(cell, now + t, Response::Unit);
            }
            Request::Rts { units } => {
                self.record(cell, Op::Rts { units });
                let t = cost.rts_unit_time.saturating_mul(units);
                self.book(cell, EvName::Rts, now, t, Bucket::Rts, units, 0);
                self.wake_at(cell, now + t, Response::Unit);
            }
            Request::Mark(m) => {
                let op = match m {
                    Mark::GopScalar => Op::MarkGopScalar,
                    Mark::GopVector => Op::MarkGopVector,
                };
                self.record(cell, op);
                self.wake_at(cell, now, Response::Unit);
            }
            Request::Put(args) => self.put(cell, args)?,
            Request::Get(args) => self.get(cell, args)?,
            Request::WaitFlag { flag, target } => self.wait_flag(cell, flag, target)?,
            Request::ReadFlag { flag } => {
                let v = self.machine.read_flag(cid, flag)?;
                self.charge(cell, cost.flag_check);
                self.wake_at(cell, now + cost.flag_check, Response::Value(v));
            }
            Request::Barrier => self.barrier(cell)?,
            Request::Send { dst, laddr, bytes } => self.send(cell, dst, laddr, bytes)?,
            Request::Recv { src, laddr, max } => self.recv(cell, src, laddr, max)?,
            Request::RegStore { dst, reg, value } => self.reg_store(cell, dst, reg, value)?,
            Request::RegLoad { reg } => {
                self.record(cell, Op::RegLoad { reg });
                match self.machine.cells[cell as usize].regs.load(reg as usize) {
                    Some(v) => {
                        let load = cost.reg_load;
                        self.book(
                            cell,
                            EvName::RegLoad,
                            now,
                            load,
                            Bucket::Overhead,
                            reg as u64,
                            0,
                        );
                        self.wake_at(cell, now + load, Response::Value(v));
                    }
                    None => self.block(cell, now, Wait::Reg { reg }),
                }
            }
            Request::Bcast { root, laddr, bytes } => self.bcast(cell, root, laddr, bytes)?,
            Request::RemoteStore { dst, offset, data } => {
                self.remote_store(cell, dst, offset, data)?
            }
            Request::RemoteLoad { dst, offset, len } => self.remote_load(cell, dst, offset, len)?,
            Request::RemoteFence => {
                self.record(cell, Op::RemoteFence);
                let hw = &self.machine.cells[cell as usize];
                if hw.rstore_acked == hw.rstore_issued {
                    self.wake_at(cell, now, Response::Unit);
                } else {
                    self.block(cell, now, Wait::Fence);
                }
            }
            Request::Fail(reason) => return Err(ApError::CellFailed { cell: cid, reason }),
            Request::Finish => {
                self.machine.times[cell as usize].finish = now;
                self.waiters[cell as usize] = None;
                self.finished[cell as usize] = true;
                self.done += 1;
            }
        }
        Ok(())
    }

    // ---- PUT / GET (§3.1) -------------------------------------------------

    /// PUT and GET issue alike: a tracked transfer chain starts, the
    /// library call pays the issue cost, and the program runs on.
    fn issue_xfer(&mut self, cell: u32, kind: XferKind, bytes: u64, entry: TxEntry) {
        let (now, cost) = (self.now(), self.machine.cfg.hw.cost.put_prolog);
        let name = match kind {
            XferKind::Get => EvName::GetIssue,
            _ => EvName::PutIssue,
        };
        let tid = self.issue(cell, TxQueue::User, entry, name, cost, bytes);
        self.machine.xfers.start(tid, kind, bytes, now);
        self.machine.xfers.charge(tid, Seg::Issue, now + cost);
        self.wake_at(cell, now + cost, Response::Unit);
    }

    fn put(&mut self, cell: u32, a: PutArgs) -> ApResult<()> {
        self.machine.check_cell(a.dst)?;
        a.validate().map_err(ApError::InvalidArg)?;
        let op = Op::Put {
            dst: a.dst,
            bytes: a.size(),
            stride: a.is_stride(),
            ack: a.ack,
            send_flag: a.send_flag.as_u64(),
            recv_flag: a.recv_flag.as_u64(),
        };
        self.record(cell, op);
        let pkt = Packet::PutData {
            src: CellId::new(cell),
            raddr: a.raddr,
            recv_stride: a.recv_stride,
            recv_flag: a.recv_flag,
            payload: Payload::empty(),
        };
        let from = TxSource::Gather(a.laddr, a.send_stride);
        let entry = TxEntry::new(a.dst, pkt, from, a.send_flag);
        self.issue_xfer(cell, XferKind::Put, a.size(), entry);
        Ok(())
    }

    fn get(&mut self, cell: u32, a: GetArgs) -> ApResult<()> {
        self.machine.check_cell(a.src_cell)?;
        a.validate().map_err(ApError::InvalidArg)?;
        let bytes = if a.is_ack_probe() { 0 } else { a.size() };
        let op = Op::Get {
            src: a.src_cell,
            bytes,
            stride: a.is_stride(),
            ack_probe: a.is_ack_probe(),
            send_flag: a.send_flag.as_u64(),
            recv_flag: a.recv_flag.as_u64(),
        };
        self.record(cell, op);
        let pkt = Packet::GetReq {
            src: CellId::new(cell),
            raddr: a.raddr,
            send_stride: a.send_stride,
            send_flag: a.send_flag,
            reply_laddr: a.laddr,
            reply_stride: a.recv_stride,
            reply_flag: a.recv_flag,
        };
        let entry = TxEntry::new(a.src_cell, pkt, TxSource::Packet, VAddr::NULL);
        self.issue_xfer(cell, XferKind::Get, bytes, entry);
        Ok(())
    }

    // ---- flags and the S-net barrier --------------------------------------

    fn wait_flag(&mut self, cell: u32, at: VAddr, target: u32) -> ApResult<()> {
        let (now, flag) = (self.now(), at.as_u64());
        self.record(cell, Op::WaitFlag { flag, target });
        if self.machine.read_flag(CellId::new(cell), at)? >= target {
            let check = self.machine.cfg.hw.cost.flag_check;
            self.machine.flag_wait.record(0);
            self.book(
                cell,
                EvName::FlagCheck,
                now,
                check,
                Bucket::Overhead,
                flag,
                0,
            );
            self.wake_at(cell, now + check, Response::Unit);
        } else {
            self.block(cell, now, Wait::Flag { flag, target });
        }
        Ok(())
    }

    /// Fetch-and-increment `flag` on `cell` and wake a satisfied waiter.
    /// `tid` and `unit` identify the transfer chain and hardware unit
    /// performing the update, so the release is attributable.
    fn bump_flag(&mut self, cell: u32, flag: VAddr, tid: u64, unit: Unit) -> ApResult<()> {
        let now = self.now();
        let Some(new) = self.machine.incr_flag(CellId::new(cell), flag)? else {
            return Ok(());
        };
        let flag = flag.as_u64();
        let obs = &mut self.machine.obs;
        obs.instant_id(cell, unit, EvName::FlagUpdate, now, Bucket::Hw, flag, tid);
        if let Some(Waiter { since, on }) = self.waiters[cell as usize] {
            if matches!(on, Wait::Flag { flag: f, target } if f == flag && new >= target) {
                let waited = now.saturating_sub(since).as_nanos();
                self.machine.flag_wait.record(waited);
                let check = self.machine.cfg.hw.cost.flag_check;
                self.release(cell, now, flag, tid, check, Response::Unit);
            }
        }
        Ok(())
    }

    /// The abort a machine-wide S-net barrier ends in once a participant
    /// has crashed fail-stop — it can never release, so the run stops at
    /// once instead of hanging: `Some` when a cell is dead and a cell
    /// (`arriving`, or one already parked) is at the barrier.
    pub(super) fn barrier_abort(&self, arriving: Option<CellId>) -> Option<ApError> {
        let dead = self.fault.as_ref()?.dead_cells();
        if dead.is_empty() {
            return None;
        }
        let n = self.waiters.len() as u32;
        let parked = (0..n).filter(|&c| self.at_barrier(c));
        let waiting: Vec<CellId> = parked.map(CellId::new).chain(arriving).collect();
        let at = self.now();
        (!waiting.is_empty()).then_some(ApError::BarrierAborted { at, waiting, dead })
    }

    fn barrier(&mut self, cell: u32) -> ApResult<()> {
        let now = self.now();
        let cid = CellId::new(cell);
        self.record(cell, Op::Barrier);
        if let Some(abort) = self.barrier_abort(Some(cid)) {
            return Err(abort);
        }
        let released = self.machine.snet.arrive(cid, now)?;
        self.block(cell, now, Wait::Barrier);
        if let Some(release) = released {
            let epoch = self.machine.snet.epochs();
            // Earlier arrivals in cell-id order, the arriving cell last.
            let n = self.waiters.len() as u32;
            let parked: Vec<u32> = (0..n)
                .filter(|&c| c != cell && self.at_barrier(c))
                .collect();
            for c in parked.into_iter().chain([cell]) {
                self.release(c, release, epoch, 0, SimTime::ZERO, Response::Unit);
            }
        }
        Ok(())
    }

    // ---- SEND / RECEIVE (§4.3) ----------------------------------------------

    fn send(&mut self, cell: u32, dst: CellId, laddr: VAddr, bytes: u64) -> ApResult<()> {
        self.machine.check_cell(dst)?;
        self.record(cell, Op::Send { dst, bytes });
        let cost = self.machine.cfg.hw.cost.send_call;
        let pkt = Packet::RingMsg {
            src: CellId::new(cell),
            payload: Payload::empty(),
        };
        let entry = TxEntry::new(dst, pkt, TxSource::Read(laddr, bytes), VAddr::NULL);
        self.issue(cell, TxQueue::User, entry, EvName::SendCall, cost, bytes);
        // Blocking SEND: the library waits for the send DMA to drain.
        self.block(cell, self.now() + cost, Wait::Send);
        Ok(())
    }

    fn recv(&mut self, cell: u32, src: CellId, laddr: VAddr, max: u64) -> ApResult<()> {
        self.machine.check_cell(src)?;
        self.record(cell, Op::Recv { src, bytes: max });
        match self.machine.cells[cell as usize].ring_pop(src) {
            Some(payload) => self.complete_recv(cell, laddr, max, payload),
            None => {
                self.block(cell, self.now(), Wait::Recv { src, laddr, max });
                Ok(())
            }
        }
    }

    /// Copies a ring message out to the receiver's buffer (at most `max`
    /// bytes) and wakes it with the length when the copy is done.
    fn complete_recv(
        &mut self,
        cell: u32,
        laddr: VAddr,
        max: u64,
        payload: Payload,
    ) -> ApResult<()> {
        let now = self.now();
        let hw = &mut self.machine.cells[cell as usize];
        hw.ring_bytes = hw.ring_bytes.saturating_sub(payload.len() as u64);
        let n = (payload.len() as u64).min(max);
        self.machine
            .write_v(CellId::new(cell), laddr, &payload[..n as usize])?;
        let c = self.machine.cfg.hw.cost;
        let cost = c.recv_copy_per_byte.saturating_mul(n) + c.flag_check;
        self.book(cell, EvName::RecvCopy, now, cost, Bucket::Overhead, n, 0);
        self.wake_at(cell, now + cost, Response::Len(n));
        Ok(())
    }

    /// A ring message from `src` landed in `dst`'s receive ring.
    fn ring_arrived(&mut self, dst: u32, src: CellId, payload: Payload, tid: u64) -> ApResult<()> {
        let now = self.now();
        let hw = &mut self.machine.cells[dst as usize];
        hw.ring_bytes += payload.len() as u64;
        hw.ring.entry(src.as_u32()).or_default().push_back(payload);
        // §4.3: a full ring buffer interrupts the OS to allocate a new
        // one; the receiving CPU pays the service time.
        if hw.ring_bytes > self.machine.cfg.hw.ring_capacity {
            let buffered = hw.ring_bytes;
            hw.ring_bytes = 0; // fresh buffer
            hw.ring_overflows += 1;
            self.charge(dst, self.machine.cfg.hw.os_interrupt_time);
            let obs = &mut self.machine.obs;
            obs.instant(
                dst,
                Unit::Queue,
                EvName::RingOverflow,
                now,
                Bucket::Hw,
                buffered,
            );
        }
        // A blocked receiver found its source queue empty, so the only
        // message that can satisfy it is the one just pushed.
        if self.waits_on(dst, |w| matches!(w, Wait::Recv { src: s, .. } if s == src)) {
            let payload = self.machine.cells[dst as usize]
                .ring_pop(src)
                .ok_or_else(|| {
                    let what = format!(
                        "message queued from cell{src} vanished before its blocked receiver woke"
                    );
                    ApError::internal(CellId::new(dst), "msc-ring", what)
                })?;
            if let Wait::Recv { laddr, max, .. } = self.unblock(dst, now, payload.len() as u64, tid)
            {
                self.complete_recv(dst, laddr, max, payload)?;
            }
        }
        Ok(())
    }

    // ---- communication registers (§4.4) --------------------------------------

    fn reg_store(&mut self, cell: u32, dst: CellId, reg: u16, value: u32) -> ApResult<()> {
        self.machine.check_cell(dst)?;
        self.record(cell, Op::RegStore { dst, reg });
        let (now, cost) = (self.now(), self.machine.cfg.hw.cost.reg_store);
        let (tid, src) = (self.machine.alloc_tid(), CellId::new(cell));
        self.book(
            cell,
            EvName::RegStore,
            now,
            cost,
            Bucket::Overhead,
            reg as u64,
            tid,
        );
        if dst == src {
            self.reg_store_arrived(cell, reg, value, now + cost, tid)?;
        } else {
            self.inject(now + cost, dst, Packet::RegStore { src, reg, value }, tid)?;
        }
        self.wake_at(cell, now + cost, Response::Unit);
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
        let regs = &mut self.machine.cells[cell as usize].regs;
        if regs.store(reg as usize, value) {
            return Err(ApError::InvalidArg(format!(
                "communication register {reg} on cell{cell} overwritten while p-bit set \
                 (reduction protocol violation)"
            )));
        }
        if self.waits_on(cell, |w| matches!(w, Wait::Reg { reg: r } if r == reg)) {
            let regs = &mut self.machine.cells[cell as usize].regs;
            let v = regs.load(reg as usize).ok_or_else(|| {
                let what = format!(
                    "communication register {reg} lost its p-bit between store and waiter wake"
                );
                ApError::internal(CellId::new(cell), "cregs", what)
            })?;
            let cost = self.machine.cfg.hw.cost.reg_load;
            self.release(cell, at, reg as u64, tid, cost, Response::Value(v));
        }
        Ok(())
    }

    // ---- B-net broadcast -------------------------------------------------------

    fn bcast(&mut self, cell: u32, root: CellId, laddr: VAddr, bytes: u64) -> ApResult<()> {
        let now = self.now();
        self.machine.check_cell(root)?;
        self.record(cell, Op::Bcast { root, bytes });
        let state = self.bcast.get_or_insert_with(|| BcastState {
            root,
            bytes,
            arrived: Vec::new(),
        });
        if state.root != root || state.bytes != bytes {
            return Err(ApError::InvalidArg(format!(
                "mismatched bcast: {} gave root {root}/{bytes}B, collective started \
                 with root {}/{}B",
                CellId::new(cell),
                state.root,
                state.bytes
            )));
        }
        state.arrived.push((cell, laddr));
        self.block(cell, now, Wait::Bcast);
        let n = self.machine.cells.len();
        let Some(state) = self.bcast.take_if(|s| s.arrived.len() == n) else {
            return Ok(());
        };
        // The last arrival completes the collective, so it goes out now —
        // unless a B-net outage defers it until the window closes.
        let ready = match self.fault.as_mut() {
            Some(f) => f.bnet_clear(now),
            None => now,
        };
        let at_root = state.arrived.iter().find(|&&(c, _)| c == root.as_u32());
        let &(_, root_laddr) = at_root.ok_or_else(|| {
            let what = "bcast root never arrived at its own collective";
            ApError::internal(root, "bnet", what)
        })?;
        let payload = self.machine.read_v(root, root_laddr, bytes)?;
        let delivery = self
            .machine
            .bnet
            .broadcast(ready, root, bytes + apnet::HEADER_BYTES);
        for (c, la) in state.arrived {
            if c != root.as_u32() {
                self.machine.write_v(CellId::new(c), la, &payload)?;
            }
            self.release(c, delivery, bytes, 0, SimTime::ZERO, Response::Unit);
        }
        Ok(())
    }

    // ---- distributed shared memory (§4.2) -----------------------------------------

    fn remote_store(&mut self, cell: u32, dst: CellId, offset: u64, data: Vec<u8>) -> ApResult<()> {
        self.machine.check_cell(dst)?;
        let bytes = data.len() as u64;
        self.record(cell, Op::RemoteStore { dst, bytes });
        self.machine.cells[cell as usize].rstore_issued += 1;
        let pkt = Packet::RemoteStore {
            src: CellId::new(cell),
            raddr: VAddr::new(offset),
            payload: Payload::from(data),
        };
        let entry = TxEntry::new(dst, pkt, TxSource::Packet, VAddr::NULL);
        let hw = self.machine.cfg.hw;
        let cost = hw.cost.reg_store + hw.dma_per_byte.saturating_mul(bytes);
        self.issue(
            cell,
            TxQueue::Remote,
            entry,
            EvName::RemoteStore,
            cost,
            bytes,
        );
        self.wake_at(cell, self.now() + cost, Response::Unit);
        Ok(())
    }

    fn remote_load(&mut self, cell: u32, dst: CellId, offset: u64, len: u64) -> ApResult<()> {
        let now = self.now();
        self.machine.check_cell(dst)?;
        let op = Op::RemoteLoad {
            src: dst,
            bytes: len,
        };
        self.record(cell, op);
        let pkt = Packet::RemoteLoadReq {
            src: CellId::new(cell),
            raddr: VAddr::new(offset),
            size: len,
        };
        let entry = TxEntry::new(dst, pkt, TxSource::Packet, VAddr::NULL);
        let tid = self.machine.alloc_tid();
        // A load instruction: nothing for the CPU to issue, it just stalls.
        self.enqueue(cell, TxQueue::Remote, tid, entry, now, now);
        self.block(cell, now, Wait::Load);
        Ok(())
    }

    // ---- hardware: send path (Figure 7) ----------------------------------------------

    pub(super) fn send_pop(&mut self, cell: u32) -> ApResult<()> {
        let mut now = self.now();
        let hw = &mut self.machine.cells[cell as usize];
        if hw.active_tx.is_some() {
            return Ok(());
        }
        let refills_before = hw.total_refills();
        let Some(mut entry) = hw.pop_tx() else {
            return Ok(());
        };
        let refills = hw.total_refills() - refills_before;
        let remaining = hw.total_pending() as u64;
        let tid = entry.tid;
        // Queue-overflow recovery: reloading spilled entries from DRAM
        // interrupts the operating system (§4.1) — the CPU pays the
        // service time and the DMA start is pushed back behind it.
        if refills > 0 {
            let service = self.machine.cfg.hw.os_interrupt_time;
            let service = service.saturating_mul(refills);
            self.book(
                cell,
                EvName::QueueRefill,
                now,
                service,
                Bucket::Overhead,
                refills,
                tid,
            );
            now += service;
        }
        let obs = &mut self.machine.obs;
        obs.instant_id(
            cell,
            Unit::Queue,
            EvName::Dequeue,
            now,
            Bucket::Hw,
            remaining,
            tid,
        );
        self.machine.xfers.charge(tid, Seg::Queue, now);
        // Gather the payload into one shared buffer (functionally
        // instantaneous; timing charged below as DMA duration). This is
        // the only copy out of simulated memory: every later station —
        // packet, ring buffer, delivery — shares the same allocation.
        let cid = CellId::new(cell);
        let items = match entry.from {
            TxSource::Packet => 1,
            TxSource::Read(laddr, bytes) => {
                let payload = self.machine.read_payload(cid, laddr, bytes)?;
                entry.pkt.set_payload(payload);
                1
            }
            TxSource::Gather(base, spec) => {
                entry.pkt.set_payload(self.machine.gather(cid, base, spec)?);
                spec.count
            }
        };
        let bytes = entry.pkt.payload_bytes();
        let dur = self.machine.dma_time(bytes, items);
        self.machine.xfers.charge(tid, Seg::Dma, now + dur);
        let obs = &mut self.machine.obs;
        obs.span_id(
            cell,
            Unit::SendDma,
            EvName::SendDma,
            now,
            dur,
            Bucket::Hw,
            bytes,
            tid,
        );
        self.machine.cells[cell as usize].active_tx = Some(entry);
        self.evq.push(now + dur, Ev::SendDone { cell });
        Ok(())
    }

    /// `cell`'s send DMA finished: bump the send flag, put the packet on
    /// the wire, and let a SEND that waited for the buffer to drain go on.
    pub(super) fn send_done(&mut self, cell: u32) -> ApResult<()> {
        let now = self.now();
        let active = self.machine.cells[cell as usize].active_tx.take();
        let TxEntry {
            tid,
            dst,
            pkt,
            send_flag,
            ..
        } = active.ok_or_else(|| {
            let what = "send_done fired with no active job";
            ApError::internal(CellId::new(cell), "send-dma", what)
        })?;
        // More work may be queued.
        self.evq.push(now, Ev::SendPop { cell });
        self.bump_flag(cell, send_flag, tid, Unit::SendDma)?;
        let ring = matches!(pkt, Packet::RingMsg { .. });
        self.inject(now, dst, pkt, tid)?;
        if ring && self.waits_on(cell, |w| matches!(w, Wait::Send)) {
            self.release(cell, now, 0, tid, SimTime::ZERO, Response::Unit);
        }
        Ok(())
    }

    /// Puts `pkt` on the wire to `dst` at `at`.
    fn inject(&mut self, at: SimTime, dst: CellId, pkt: Packet, tid: u64) -> ApResult<()> {
        let src = pkt.src();
        let arrival = match &mut self.fault {
            // Loopback: the MSC+ short-circuits the network (and cannot
            // lose a packet to its own cell).
            _ if src == dst => at,
            Some(f) => return f.inject(at, dst, pkt, tid, &mut self.machine, &mut self.evq),
            None => {
                let bytes = apnet::HEADER_BYTES + pkt.payload_bytes();
                self.machine.tnet.transfer_tagged(at, src, dst, bytes, tid)
            }
        };
        self.machine.xfers.charge(tid, Seg::Net, arrival);
        let dst = dst.as_u32();
        self.evq.push(arrival, Ev::Arrive { dst, pkt, tid });
        Ok(())
    }

    // ---- hardware: receive path ------------------------------------------

    pub(super) fn arrive(&mut self, dst: u32, pkt: Packet, tid: u64) -> ApResult<()> {
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
                let recv_dma = &mut self.machine.cells[dst as usize].recv_dma;
                let (_, end) = recv_dma.reserve(now, SimTime::ZERO);
                self.machine.xfers.charge(tid, Seg::Delivery, end);
                self.evq.push(end, Ev::RecvDone { dst, pkt, tid });
            }
            Packet::RemoteStoreAck { .. } => {
                let hw = &mut self.machine.cells[dst as usize];
                hw.rstore_acked += 1;
                let all = hw.rstore_acked == hw.rstore_issued;
                if all && self.waits_on(dst, |w| matches!(w, Wait::Fence)) {
                    self.release(dst, now, 0, tid, SimTime::ZERO, Response::Unit);
                }
            }
            Packet::RegStore { reg, value, .. } => {
                self.reg_store_arrived(dst, reg, value, now, tid)?;
            }
            Packet::RemoteLoadReply { payload, .. } => {
                if self.waits_on(dst, |w| matches!(w, Wait::Load)) {
                    // The one delivery-side copy: the bytes leave the
                    // shared buffer for the caller.
                    let resp = Response::Bytes(payload.to_vec());
                    self.release(dst, now, payload.len() as u64, tid, SimTime::ZERO, resp);
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
                let busy = end.saturating_sub(start);
                let obs = &mut self.machine.obs;
                obs.span_id(
                    dst,
                    Unit::RecvDma,
                    EvName::RecvDma,
                    start,
                    busy,
                    Bucket::Hw,
                    bytes,
                    tid,
                );
                let pkt = data_pkt;
                self.evq.push(end, Ev::RecvDone { dst, pkt, tid });
            }
        }
        Ok(())
    }

    pub(super) fn recv_done(&mut self, dst: u32, pkt: Packet, tid: u64) -> ApResult<()> {
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
                // the GET request automatically"). An ack probe (null
                // `raddr`) replies with no data.
                let reply = Packet::GetReply {
                    src: did,
                    laddr: reply_laddr,
                    recv_stride: reply_stride,
                    recv_flag: reply_flag,
                    payload: Payload::empty(),
                };
                let from = if raddr.is_null() {
                    TxSource::Packet
                } else {
                    TxSource::Gather(raddr, send_stride)
                };
                let entry = TxEntry::new(src, reply, from, send_flag);
                self.enqueue(dst, TxQueue::GetReply, tid, entry, now, now);
            }
            Packet::RemoteLoadReq { src, raddr, size } => {
                let payload = Payload::from(self.machine.dsm_read(did, raddr.as_u64(), size)?);
                let reply = Packet::RemoteLoadReply { src: did, payload };
                let entry = TxEntry::new(src, reply, TxSource::Packet, VAddr::NULL);
                self.enqueue(dst, TxQueue::RemoteReply, tid, entry, now, now);
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
            Packet::RingMsg { src, payload } => self.ring_arrived(dst, src, payload, tid)?,
            Packet::RemoteStore {
                src,
                raddr,
                payload,
            } => {
                self.machine.dsm_write(did, raddr.as_u64(), &payload)?;
                let ack = Packet::RemoteStoreAck { src: did };
                let entry = TxEntry::new(src, ack, TxSource::Packet, VAddr::NULL);
                self.enqueue(dst, TxQueue::RemoteReply, tid, entry, now, now);
            }
            other => unreachable!("recv_done got non-payload packet {other:?}"),
        }
        Ok(())
    }
}
