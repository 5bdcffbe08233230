//! The assembled machine: per-cell hardware plus the three networks.

use crate::accounting::CellTimes;
use crate::config::MachineConfig;
use apmem::{CommRegs, DsmMap, FlagUnit, MemError, Memory, Mmu};
use apmsc::stride;
use apmsc::{dma, HwQueue, Packet, Payload, StrideSpec};
use apnet::{BNet, SNet, TNet, TNetParams, Torus};
use apsim::Resource;
use aputil::{ApError, ApResult, CellId, IntMap, SimTime, VAddr};
use std::collections::VecDeque;

/// Where a queued packet's payload bytes come from when the send DMA
/// starts on it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TxSource {
    /// Nowhere: the packet is a request or an acknowledge, or already
    /// carries its bytes (a DSM store's data, a served remote load).
    Packet,
    /// A contiguous read of the sender's memory (SEND's ring message).
    Read(VAddr, u64),
    /// A stride gather from the sender's memory (PUT, GET reply).
    Gather(VAddr, StrideSpec),
}

/// One entry of an MSC+ transmit queue: the packet the send DMA will put
/// on the wire to `dst`, and what it does on the way.
#[derive(Clone, Debug)]
pub(crate) struct TxEntry {
    /// The transfer chain the packet belongs to (0 for operations latency
    /// attribution does not follow).
    pub tid: u64,
    pub dst: CellId,
    pub pkt: Packet,
    pub from: TxSource,
    /// Bumped on the sender when the send DMA completes (null = none).
    pub send_flag: VAddr,
}

impl TxEntry {
    /// An entry not yet assigned to a transfer chain.
    pub fn new(dst: CellId, pkt: Packet, from: TxSource, send_flag: VAddr) -> TxEntry {
        TxEntry {
            tid: 0,
            dst,
            pkt,
            from,
            send_flag,
        }
    }
}

/// One cell's hardware state.
pub(crate) struct CellHw {
    pub mmu: Mmu,
    pub mem: Memory,
    pub flag_unit: FlagUnit,
    pub regs: CommRegs,
    /// User PUT/GET sends (§4.1: user send queue).
    pub user_q: HwQueue<TxEntry>,
    /// System PUT/GET sends (kept for fidelity; used by DSM remote access
    /// initiation).
    pub remote_q: HwQueue<TxEntry>,
    /// GET replies.
    pub reply_get_q: HwQueue<TxEntry>,
    /// Remote-load replies ("remote load replies precede GET replies").
    pub reply_remote_q: HwQueue<TxEntry>,
    /// The entry occupying the send DMA engine, payload gathered.
    pub active_tx: Option<TxEntry>,
    pub recv_dma: Resource,
    /// Arrived ring-buffer messages, keyed by sending cell so the
    /// RECEIVE path matches a source without scanning unrelated traffic
    /// (each source's messages stay FIFO, which is all the in-order T-net
    /// guarantees anyway). A source gets its queue on first arrival: a
    /// cell hears from a handful of senders, not from all of them.
    pub ring: IntMap<u32, VecDeque<Payload>>,
    /// Bytes currently buffered in the ring.
    pub ring_bytes: u64,
    /// Times the ring exceeded its capacity (§4.3 OS allocations).
    pub ring_overflows: u64,
    /// Remote stores issued / acknowledged (the implicit acknowledge flag
    /// of §2.2).
    pub rstore_issued: u64,
    pub rstore_acked: u64,
}

// A machine holds up to 65 536 of these: only functional hardware state
// lives here, and telemetry is kept machine-wide.
const _: () = assert!(size_of::<CellHw>() <= 1504);

impl CellHw {
    fn new(mem_size: u64) -> Self {
        CellHw {
            mmu: Mmu::new(mem_size),
            mem: Memory::new(mem_size),
            flag_unit: FlagUnit::new(),
            regs: CommRegs::new(),
            user_q: HwQueue::new("user send", 8),
            remote_q: HwQueue::new("remote access", 8),
            reply_get_q: HwQueue::new("get reply", 8),
            reply_remote_q: HwQueue::new("remote reply", 8),
            active_tx: None,
            recv_dma: Resource::new(),
            ring: IntMap::default(),
            ring_bytes: 0,
            ring_overflows: 0,
            rstore_issued: 0,
            rstore_acked: 0,
        }
    }

    /// The oldest buffered ring message from `src`, if any.
    pub fn ring_pop(&mut self, src: CellId) -> Option<Payload> {
        self.ring.get_mut(&src.as_u32())?.pop_front()
    }

    /// Pops the highest-priority pending transmit job. Priority (§4.1):
    /// remote-load replies, then remote access, then GET replies, then
    /// user sends.
    pub fn pop_tx(&mut self) -> Option<TxEntry> {
        self.reply_remote_q
            .pop()
            .or_else(|| self.remote_q.pop())
            .or_else(|| self.reply_get_q.pop())
            .or_else(|| self.user_q.pop())
    }

    /// Total OS refill interrupts across the four queues (§4.1: "When
    /// the queue empties, the MSC+ interrupts the operating system, which
    /// then loads data from the buffer in DRAM back into the queue").
    pub fn total_refills(&self) -> u64 {
        self.user_q.stats().refill_interrupts
            + self.remote_q.stats().refill_interrupts
            + self.reply_get_q.stats().refill_interrupts
            + self.reply_remote_q.stats().refill_interrupts
    }

    /// Total spilled entries across the four queues.
    pub fn total_spills(&self) -> u64 {
        self.user_q.stats().spilled
            + self.remote_q.stats().spilled
            + self.reply_get_q.stats().spilled
            + self.reply_remote_q.stats().spilled
    }

    /// Entries pending across the four send queues.
    pub fn total_pending(&self) -> usize {
        self.user_q.len() + self.remote_q.len() + self.reply_get_q.len() + self.reply_remote_q.len()
    }

    /// Non-empty send queues as `(name, depth)` pairs — the queue contents
    /// part of a deadlock diagnostic.
    pub fn pending_tx(&self) -> Vec<(&'static str, usize)> {
        [
            &self.user_q,
            &self.remote_q,
            &self.reply_get_q,
            &self.reply_remote_q,
        ]
        .into_iter()
        .filter(|q| !q.is_empty())
        .map(|q| (q.name(), q.len()))
        .collect()
    }
}

/// The whole machine.
pub(crate) struct Machine {
    pub cfg: MachineConfig,
    pub cells: Vec<CellHw>,
    pub tnet: TNet,
    pub bnet: BNet,
    pub snet: SNet,
    pub dsm: DsmMap,
    pub times: Vec<CellTimes>,
    pub trace: aptrace::Trace,
    /// Sim-time event recorder, in `cfg.timeline`'s mode (a no-op when off).
    pub obs: apobs::Recorder,
    /// Nanoseconds blocked per flag wait (0 for waits satisfied on check).
    pub flag_wait: apobs::Hist,
    /// Depth (RAM + spill) of the queue each transmit entry joined, right
    /// after it joined.
    pub queue_occupancy: apobs::Hist,
    /// Figure-6 latency attribution of in-flight and completed PUT/GETs.
    pub xfers: apobs::XferTracker,
    /// Next transfer-chain id (`alloc_tid` starts at 1; 0 = untracked).
    next_tid: u64,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Self {
        let torus = Torus::for_cells(cfg.ncells);
        let tparams = TNetParams {
            prolog: cfg.hw.net_prolog,
            per_hop: cfg.hw.net_per_hop,
            per_byte: cfg.hw.net_per_byte,
        };
        let mut tnet = TNet::new(torus, tparams, cfg.contention);
        tnet.enable_events(cfg.timeline.clone());
        if cfg.metrics_interval.is_some() {
            tnet.enable_link_stats();
        }
        Machine {
            cells: (0..cfg.ncells).map(|_| CellHw::new(cfg.mem_size)).collect(),
            tnet,
            bnet: BNet::with_params(cfg.ncells, cfg.hw.net_prolog, cfg.hw.bnet_per_byte),
            snet: SNet::new(cfg.ncells, cfg.hw.barrier_latency),
            dsm: DsmMap::new(cfg.ncells, cfg.mem_size),
            times: vec![CellTimes::default(); cfg.ncells as usize],
            trace: aptrace::Trace::new(cfg.ncells as usize),
            obs: apobs::Recorder::new(cfg.timeline.clone()),
            flag_wait: apobs::Hist::new(),
            queue_occupancy: apobs::Hist::new(),
            xfers: apobs::XferTracker::new(),
            next_tid: 0,
            cfg,
        }
    }

    /// Allocates a fresh nonzero transfer-chain id.
    pub fn alloc_tid(&mut self) -> u64 {
        self.next_tid += 1;
        self.next_tid
    }

    pub fn check_cell(&self, cell: CellId) -> ApResult<()> {
        if cell.index() < self.cells.len() {
            Ok(())
        } else {
            Err(ApError::NoSuchCell {
                cell,
                ncells: self.cells.len(),
            })
        }
    }

    fn wrap(cell: CellId, e: MemError) -> ApError {
        match e {
            MemError::PageFault { addr } => ApError::PageFault { cell, addr },
            MemError::OutOfBounds { addr, len, .. } => ApError::OutOfRange {
                cell,
                addr: VAddr::new(addr.as_u64()),
                len,
            },
            MemError::OutOfFrames { requested } => {
                ApError::InvalidArg(format!("{cell} out of memory allocating {requested} bytes"))
            }
            other => ApError::InvalidArg(format!("{cell} memory error: {other}")),
        }
    }

    /// Data-plane read of a cell's logical memory.
    pub fn read_v(&mut self, cell: CellId, addr: VAddr, len: u64) -> ApResult<Vec<u8>> {
        let hw = &mut self.cells[cell.index()];
        dma::read_virtual(&mut hw.mmu, &hw.mem, addr, len)
            .map(|r| r.data)
            .map_err(|e| Self::wrap(cell, e))
    }

    /// Data-plane write of a cell's logical memory.
    pub fn write_v(&mut self, cell: CellId, addr: VAddr, data: &[u8]) -> ApResult<()> {
        let hw = &mut self.cells[cell.index()];
        dma::write_virtual(&mut hw.mmu, &mut hw.mem, addr, data)
            .map(|_| ())
            .map_err(|e| Self::wrap(cell, e))
    }

    /// Stride-gather on a cell (send-side DMA), straight into the buffer
    /// the packet, ring buffer and delivery will share.
    pub fn gather(&mut self, cell: CellId, base: VAddr, spec: StrideSpec) -> ApResult<Payload> {
        let hw = &mut self.cells[cell.index()];
        Payload::build(spec.total_bytes() as usize, |buf| {
            stride::gather_into(&mut hw.mmu, &hw.mem, base, spec, buf).map(|_| ())
        })
        .map_err(|e| Self::wrap(cell, e))
    }

    /// Contiguous send-side DMA read of `len` bytes (SEND's ring message).
    pub fn read_payload(&mut self, cell: CellId, addr: VAddr, len: u64) -> ApResult<Payload> {
        let hw = &mut self.cells[cell.index()];
        Payload::build(len as usize, |buf| {
            dma::read_virtual_into(&mut hw.mmu, &hw.mem, addr, buf).map(|_| ())
        })
        .map_err(|e| Self::wrap(cell, e))
    }

    /// Stride-scatter on a cell (receive-side DMA).
    pub fn scatter(
        &mut self,
        cell: CellId,
        base: VAddr,
        spec: StrideSpec,
        data: &[u8],
    ) -> ApResult<()> {
        let hw = &mut self.cells[cell.index()];
        stride::scatter(&mut hw.mmu, &mut hw.mem, base, spec, data)
            .map(|_| ())
            .map_err(|e| Self::wrap(cell, e))
    }

    /// Fetch-and-increment of a flag on `cell`; returns the new value, or
    /// `None` when the flag address is null (no-op).
    pub fn incr_flag(&mut self, cell: CellId, flag: VAddr) -> ApResult<Option<u32>> {
        let hw = &mut self.cells[cell.index()];
        match hw.flag_unit.fetch_increment(&mut hw.mmu, &mut hw.mem, flag) {
            Ok(Some(old)) => Ok(Some(old.wrapping_add(1))),
            Ok(None) => Ok(None),
            Err(e) => Err(Self::wrap(cell, e)),
        }
    }

    /// Reads a flag's current value.
    pub fn read_flag(&self, cell: CellId, flag: VAddr) -> ApResult<u32> {
        let hw = &self.cells[cell.index()];
        hw.flag_unit
            .read(&hw.mmu, &hw.mem, flag)
            .map_err(|e| Self::wrap(cell, e))
    }

    /// Physical read in a cell's DSM window (`offset` within the shared
    /// block, which aliases the top half of DRAM, §4.2).
    pub fn dsm_read(&self, cell: CellId, offset: u64, len: u64) -> ApResult<Vec<u8>> {
        let base = self
            .dsm
            .shared_addr(cell, offset)
            .and_then(|a| self.dsm.resolve(a))
            .ok_or_else(|| ApError::InvalidArg(format!("DSM offset {offset} out of window")))?
            .1;
        let mut buf = vec![0u8; len as usize];
        self.cells[cell.index()]
            .mem
            .read(base, &mut buf)
            .map_err(|e| Self::wrap(cell, e))?;
        Ok(buf)
    }

    /// Physical write in a cell's DSM window.
    pub fn dsm_write(&mut self, cell: CellId, offset: u64, data: &[u8]) -> ApResult<()> {
        let base = self
            .dsm
            .shared_addr(cell, offset)
            .and_then(|a| self.dsm.resolve(a))
            .ok_or_else(|| ApError::InvalidArg(format!("DSM offset {offset} out of window")))?
            .1;
        self.cells[cell.index()]
            .mem
            .write(base, data)
            .map_err(|e| Self::wrap(cell, e))
    }

    /// Assembles the unified counter block from every hardware unit.
    pub fn collect_counters(&self) -> apobs::Counters {
        let mut c = apobs::Counters::new();
        for hw in &self.cells {
            c.queue_spills += hw.total_spills();
            c.queue_refills += hw.total_refills();
            c.ring_overflows += hw.ring_overflows;
        }
        c.queue_occupancy.merge(&self.queue_occupancy);
        c.msg_size.merge(&self.tnet.obs().msg_size);
        c.hop_latency.merge(&self.tnet.obs().latency);
        c.flag_wait.merge(&self.flag_wait);
        c.put_lat.merge(&self.xfers.put_lat);
        c.get_lat.merge(&self.xfers.get_lat);
        c
    }

    /// Point-in-time hardware occupancy gauges at `now` for the sampled
    /// metrics layer: total and max per-cell send-queue depth, and how
    /// many send / receive DMA engines are mid-transfer.
    pub fn occupancy(&self, now: SimTime) -> (u64, u32, u32, u32) {
        let mut depth = 0u64;
        let mut depth_max = 0u32;
        let mut send_busy = 0u32;
        let mut recv_busy = 0u32;
        for hw in &self.cells {
            let d = hw.total_pending() as u32;
            depth += d as u64;
            depth_max = depth_max.max(d);
            if hw.active_tx.is_some() {
                send_busy += 1;
            }
            if hw.recv_dma.busy_until() > now {
                recv_busy += 1;
            }
        }
        (depth, depth_max, send_busy, recv_busy)
    }

    /// Drains the kernel and network event buffers into one sorted
    /// timeline (empty when `cfg.timeline` is off or streaming).
    pub fn take_timeline(&mut self) -> apobs::Timeline {
        let mut t = apobs::Timeline::from_events("emulator", self.obs.take_events());
        t.extend(self.tnet.take_events());
        t.sort();
        t
    }

    /// DMA duration for a payload with `items` stride descriptors.
    pub fn dma_time(&self, bytes: u64, items: u32) -> SimTime {
        self.cfg.hw.dma_set_time
            + self.cfg.hw.dma_per_byte.saturating_mul(bytes)
            + self
                .cfg
                .hw
                .stride_item_time
                .saturating_mul(items.saturating_sub(1) as u64)
    }
}
