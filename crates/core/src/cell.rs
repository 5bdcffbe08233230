//! The cell-program API: what SPMD code sees.
//!
//! A [`Cell`] is handed to each copy of the program by
//! [`run`](crate::run). Every method is a *simulated* operation:
//! it advances this cell's simulated clock, may block on other cells, and
//! is recorded in the probe trace. The API mirrors §2.2/§3.1 of the paper —
//! `put`/`get` (plain and strided), flags, SEND/RECEIVE, barriers,
//! communication registers, reductions — plus a data plane
//! (`read_slice`/`write_slice`) for setting up inputs and checking results
//! at zero simulated cost.
//!
//! Method colour follows what the program gets back. A method that only
//! *posts* work — `put`, `wait_flag`, `barrier`, `send`, `alloc`, … — is
//! a plain `fn`: the request is queued and the simulated blocking happens
//! in the kernel's schedule, not on the host. A method that hands
//! simulated data back — `read_slice`, `recv`, `reg_load`, the
//! reductions, `remote_load` — is an `async fn`: the program suspends
//! there and the kernel resumes it when the simulated operation completes
//! (DESIGN.md §10).
//!
//! ```
//! use apcore::{run, MachineConfig};
//!
//! let r = run(MachineConfig::new(2), None, async |cell| {
//!     let buf = cell.alloc::<u32>(1); // posts
//!     cell.write_pod(buf, 7u32 + cell.id() as u32); // posts
//!     cell.barrier(); // posts
//!     cell.read_pod::<u32>(buf).await // suspends until the data is back
//! })
//! .unwrap();
//! assert_eq!(r.outputs, vec![7, 8]);
//! ```

use crate::request::{Mark, Port, Request, Response, Resume};
use apmem::Layout;
use apmsc::{GetArgs, PutArgs, StrideSpec, MAX_DMA_BYTES};
use aputil::bytes::{decode_slice, encode_slice, Pod};
use aputil::{CellId, VAddr};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Write-through page size (§4.2's cache granule; the real machine used
/// MMU pages, we use 1 KB blocks to keep miss traffic reasonable at the
/// reproduction's scales).
pub const WT_PAGE: u64 = 1024;

/// Reduction operators for the scalar global operations (§4.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Global summation.
    Sum,
    /// Global maximum.
    Max,
    /// Global minimum.
    Min,
}

impl ReduceOp {
    fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

// Communication-register protocol slots used by the software collectives.
const REG_UP_L: u16 = 0; // pair (0,1): left child's value
const REG_UP_R: u16 = 2; // pair (2,3): right child's value
const REG_DOWN: u16 = 4; // pair (4,5): result from parent
const REG_BAR_L: u16 = 6; // left child arrived
const REG_BAR_R: u16 = 7; // right child arrived
const REG_BAR_DOWN: u16 = 8; // release from parent

/// One cell's handle on the simulated machine.
///
/// Created by [`run`](crate::run); one per SPMD program copy.
pub struct Cell {
    id: CellId,
    ncells: u32,
    port: Rc<RefCell<Port>>,
    /// This cell's copy of its MMU's placement state: `alloc` picks the
    /// address here and the kernel maps it when the request dispatches.
    layout: Layout,
    ack_flag: VAddr,
    acks_issued: u32,
    scratch: VAddr,
    scratch_len: u64,
    wt_cache: HashMap<(u32, u64), Vec<u8>>,
    wt_hits: u64,
    wt_misses: u64,
}

impl Cell {
    pub(crate) fn new(id: CellId, ncells: u32, port: Rc<RefCell<Port>>, layout: Layout) -> Self {
        Cell {
            id,
            ncells,
            port,
            layout,
            ack_flag: VAddr::NULL,
            acks_issued: 0,
            scratch: VAddr::NULL,
            scratch_len: 0,
            wt_cache: HashMap::new(),
            wt_hits: 0,
            wt_misses: 0,
        }
    }

    /// Takes the boot wake (awaited once, before the program).
    pub(crate) async fn boot(&mut self) {
        let r = Resume(&self.port).await;
        debug_assert_eq!(r, Response::Unit);
        // The implicit acknowledge flag of the Ack & Barrier model (§2.2).
        self.ack_flag = self.alloc_bytes(4);
    }

    /// Queues a request whose response is always `Unit`. That covers the
    /// blocking ones too (`wait_flag`, `barrier`, `send`, …): the kernel
    /// retires posted requests one per wake, so the simulated blocking is
    /// preserved and only the host-side suspension is skipped.
    fn post(&mut self, req: Request) {
        self.port.borrow_mut().outbox.push_back(req);
    }

    /// Issues a data-returning request and suspends until the kernel
    /// resumes the program with its response.
    async fn call(&mut self, req: Request) -> Response {
        self.post(req);
        Resume(&self.port).await
    }

    // ---- identity ------------------------------------------------------

    /// This cell's index, `0..ncells`.
    pub fn id(&self) -> usize {
        self.id.index()
    }

    /// Number of cells in the machine.
    pub fn ncells(&self) -> usize {
        self.ncells as usize
    }

    // ---- memory (data plane) ---------------------------------------------

    /// Allocates `bytes` of zeroed logical memory.
    ///
    /// All cells of an SPMD program that allocate in lockstep get the same
    /// logical addresses, which is what makes "the same array on the remote
    /// cell" well-defined for PUT/GET.
    ///
    /// The address is chosen here, from the cell's copy of the MMU
    /// layout; the mapping itself is a posted request. If the cell's DRAM
    /// is exhausted (or `bytes` is zero) the program stops at this call
    /// and the run ends with
    /// [`ApError::InvalidArg`](aputil::ApError::InvalidArg), raised at
    /// the simulated time of the allocation.
    pub fn alloc_bytes(&mut self, bytes: u64) -> VAddr {
        let Ok(placed) = self.layout.place(bytes) else {
            // The kernel reports the failure when the request dispatches.
            // The program must not run on with an address it does not
            // have, so unwind it (quietly: this is not a bug in it) to
            // the step that is polling it.
            let at = VAddr::NULL;
            self.post(Request::Alloc { bytes, at });
            std::panic::resume_unwind(Box::new("allocation failed"));
        };
        let at = placed.base;
        self.post(Request::Alloc { bytes, at });
        at
    }

    /// Allocates a zeroed array of `n` scalars.
    pub fn alloc<T: Pod>(&mut self, n: usize) -> VAddr {
        self.alloc_bytes((n * T::SIZE) as u64)
    }

    /// Allocates a fresh 4-byte completion flag (initially 0).
    pub fn alloc_flag(&mut self) -> VAddr {
        self.alloc_bytes(4)
    }

    /// Writes a typed slice into simulated memory (zero simulated time —
    /// pair with [`Cell::work`] to account for the computation that
    /// produced the data).
    pub fn write_slice<T: Pod>(&mut self, addr: VAddr, data: &[T]) {
        self.post(Request::WriteMem {
            addr,
            data: encode_slice(data),
        });
    }

    /// Reads a typed slice from simulated memory (zero simulated time).
    pub async fn read_slice<T: Pod>(&mut self, addr: VAddr, n: usize) -> Vec<T> {
        let read = Request::ReadMem {
            addr,
            len: (n * T::SIZE) as u64,
        };
        match self.call(read).await {
            Response::Bytes(b) => decode_slice(&b),
            r => unreachable!("read got {r:?}"),
        }
    }

    /// Writes one scalar.
    pub fn write_pod<T: Pod>(&mut self, addr: VAddr, v: T) {
        self.write_slice(addr, &[v]);
    }

    /// Reads one scalar.
    pub async fn read_pod<T: Pod>(&mut self, addr: VAddr) -> T {
        self.read_slice::<T>(addr, 1).await[0]
    }

    // ---- computation ------------------------------------------------------

    /// Spends CPU time for `flops` abstract floating-point operations.
    pub fn work(&mut self, flops: u64) {
        if flops > 0 {
            self.post(Request::Work { flops });
        }
    }

    /// Spends CPU time for `units` of run-time-system work (index
    /// conversion, stride-pattern discovery — §2.1).
    pub fn rts(&mut self, units: u64) {
        if units > 0 {
            self.post(Request::Rts { units });
        }
    }

    // ---- PUT/GET ---------------------------------------------------------

    /// One-sided contiguous write of `bytes` from local `laddr` to `raddr`
    /// on cell `dst` (§3.1). Non-blocking: returns once the command is in
    /// the MSC+ queue. `send_flag` (local) and `recv_flag` (remote)
    /// increment at the respective DMA completions; pass [`VAddr::NULL`]
    /// for "no flag". With `ack`, an acknowledge GET probe is issued after
    /// the PUT (§4.1); await it with [`Cell::wait_acks`].
    ///
    /// Transfers larger than one DMA operation (4 MB, §4.1) are split
    /// into maximal chunks, issued in order. The in-order T-net delivers
    /// the chunks in issue order, so the flags and the acknowledge probe
    /// ride only on the *last* chunk and still signal completion of the
    /// whole transfer — each flag increments exactly once per `put` call.
    /// A zero-byte `put` is rejected by issue-time validation like any
    /// other empty transfer.
    #[allow(clippy::too_many_arguments)] // §3.1's own argument list
    pub fn put(
        &mut self,
        dst: usize,
        raddr: VAddr,
        laddr: VAddr,
        bytes: u64,
        send_flag: VAddr,
        recv_flag: VAddr,
        ack: bool,
    ) {
        for (off, spec, last) in Self::dma_chunks(bytes) {
            self.put_stride(
                dst,
                raddr + off,
                laddr + off,
                spec,
                spec,
                if last { send_flag } else { VAddr::NULL },
                if last { recv_flag } else { VAddr::NULL },
                ack && last,
            );
        }
    }

    /// Splits a contiguous transfer into `(offset, spec, is_last)` DMA
    /// chunks of at most [`MAX_DMA_BYTES`]. Zero bytes yields one empty
    /// (`count == 0`) chunk so issue-time validation reports the
    /// zero-length transfer instead of a panic in spec construction.
    fn dma_chunks(bytes: u64) -> Vec<(u64, StrideSpec, bool)> {
        if bytes == 0 {
            let empty = StrideSpec {
                item_size: 1,
                count: 0,
                skip: 1,
            };
            return vec![(0, empty, true)];
        }
        let mut chunks = Vec::new();
        let mut off = 0;
        while off < bytes {
            let len = (bytes - off).min(MAX_DMA_BYTES);
            chunks.push((off, StrideSpec::contiguous(len), off + len == bytes));
            off += len;
        }
        chunks
    }

    /// Strided PUT: gathers `send` at `laddr`, scatters `recv` at `raddr`
    /// on `dst` (§3.1 `put_stride`).
    #[allow(clippy::too_many_arguments)]
    pub fn put_stride(
        &mut self,
        dst: usize,
        raddr: VAddr,
        laddr: VAddr,
        send: StrideSpec,
        recv: StrideSpec,
        send_flag: VAddr,
        recv_flag: VAddr,
        ack: bool,
    ) {
        self.post(Request::Put(PutArgs {
            dst: CellId::new(dst as u32),
            raddr,
            laddr,
            send_stride: send,
            recv_stride: recv,
            send_flag,
            recv_flag,
            ack,
        }));
        if ack {
            // §4.1: "the program issues a GET operation after the PUT
            // operation, and the program uses the GET reply packet for
            // acknowledgment." The in-order T-net guarantees the probe
            // returns only after the PUT has been received.
            let ack_flag = self.ack_flag;
            self.acks_issued += 1;
            self.post(Request::Get(GetArgs {
                src_cell: CellId::new(dst as u32),
                raddr: VAddr::NULL,
                laddr: VAddr::NULL,
                send_stride: StrideSpec::contiguous(4),
                recv_stride: StrideSpec::contiguous(4),
                send_flag: VAddr::NULL,
                recv_flag: ack_flag,
            }));
        }
    }

    /// One-sided contiguous read of `bytes` from `raddr` on cell `src`
    /// into local `laddr` (§3.1). Non-blocking: completion is observed via
    /// `recv_flag` (local, incremented when the reply lands); `send_flag`
    /// increments on the remote cell when the reply leaves it.
    ///
    /// Like [`Cell::put`], transfers beyond the 4 MB DMA limit are split
    /// into in-order chunks with both flags riding on the last one, so
    /// each flag increments exactly once per `get` call.
    pub fn get(
        &mut self,
        src: usize,
        raddr: VAddr,
        laddr: VAddr,
        bytes: u64,
        send_flag: VAddr,
        recv_flag: VAddr,
    ) {
        for (off, spec, last) in Self::dma_chunks(bytes) {
            self.get_stride(
                src,
                raddr + off,
                laddr + off,
                spec,
                spec,
                if last { send_flag } else { VAddr::NULL },
                if last { recv_flag } else { VAddr::NULL },
            );
        }
    }

    /// Strided GET (§3.1 `get_stride`).
    #[allow(clippy::too_many_arguments)]
    pub fn get_stride(
        &mut self,
        src: usize,
        raddr: VAddr,
        laddr: VAddr,
        send: StrideSpec,
        recv: StrideSpec,
        send_flag: VAddr,
        recv_flag: VAddr,
    ) {
        self.post(Request::Get(GetArgs {
            src_cell: CellId::new(src as u32),
            raddr,
            laddr,
            send_stride: send,
            recv_stride: recv,
            send_flag,
            recv_flag,
        }));
    }

    /// Blocks until the local flag at `flag` reaches `target`.
    pub fn wait_flag(&mut self, flag: VAddr, target: u32) {
        self.post(Request::WaitFlag { flag, target });
    }

    /// Non-blocking read of a flag's current value.
    pub async fn read_flag(&mut self, flag: VAddr) -> u32 {
        match self.call(Request::ReadFlag { flag }).await {
            Response::Value(v) => v,
            r => unreachable!("read_flag got {r:?}"),
        }
    }

    /// Blocks until every acknowledge requested via `put(..., ack=true)`
    /// has returned (the "Ack" half of the Ack & Barrier model, §2.2).
    pub fn wait_acks(&mut self) {
        let (flag, n) = (self.ack_flag, self.acks_issued);
        self.wait_flag(flag, n);
    }

    // ---- SEND/RECEIVE (§4.3) ----------------------------------------------

    /// Blocking SEND of `bytes` at `laddr` into `dst`'s ring buffer.
    /// Returns when the send DMA has drained the buffer (§5.4: "SEND
    /// operations are blocking").
    pub fn send(&mut self, dst: usize, laddr: VAddr, bytes: u64) {
        self.post(Request::Send {
            dst: CellId::new(dst as u32),
            laddr,
            bytes,
        });
    }

    /// Blocking RECEIVE of the next ring message from `src` into `laddr`
    /// (at most `max` bytes). Returns the received length.
    pub async fn recv(&mut self, src: usize, laddr: VAddr, max: u64) -> u64 {
        let recv = Request::Recv {
            src: CellId::new(src as u32),
            laddr,
            max,
        };
        match self.call(recv).await {
            Response::Len(n) => n,
            r => unreachable!("recv got {r:?}"),
        }
    }

    /// [`Cell::recv`] followed by a zero-cost [`Cell::read_slice`] of `n`
    /// scalars from the landing buffer. Returns the received byte length
    /// and the slice.
    pub async fn recv_slice<T: Pod>(
        &mut self,
        src: usize,
        laddr: VAddr,
        max: u64,
        n: usize,
    ) -> (u64, Vec<T>) {
        let len = self.recv(src, laddr, max).await;
        (len, self.read_slice(laddr, n).await)
    }

    // ---- synchronization ---------------------------------------------------

    /// Machine-wide hardware barrier on the S-net.
    pub fn barrier(&mut self) {
        self.post(Request::Barrier);
    }

    /// Collective B-net broadcast: `root`'s `bytes` at `laddr` are
    /// delivered to the same `laddr` on every cell. All cells must call.
    pub fn bcast(&mut self, root: usize, laddr: VAddr, bytes: u64) {
        self.post(Request::Bcast {
            root: CellId::new(root as u32),
            laddr,
            bytes,
        });
    }

    /// Software barrier over an arbitrary cell `group` using communication
    /// registers (§4.5: "Software synchronization can be used for barrier
    /// synchronization for specific groups of cells"). Every member must
    /// call with the identical group slice; `group` must contain this cell.
    ///
    /// # Panics
    ///
    /// Panics if this cell is not in `group`.
    pub async fn group_barrier(&mut self, group: &[usize]) {
        let pos = group
            .iter()
            .position(|&c| c == self.id())
            .expect("cell must be a member of its barrier group");
        let n = group.len();
        let (l, r) = (2 * pos + 1, 2 * pos + 2);
        // Up phase: wait for children, then notify parent.
        if l < n {
            self.reg_load(REG_BAR_L).await;
        }
        if r < n {
            self.reg_load(REG_BAR_R).await;
        }
        if pos > 0 {
            let parent = group[(pos - 1) / 2];
            let slot = if pos % 2 == 1 { REG_BAR_L } else { REG_BAR_R };
            self.reg_store(parent, slot, 1);
            // Down phase: wait for release.
            self.reg_load(REG_BAR_DOWN).await;
        }
        if l < n {
            self.reg_store(group[l], REG_BAR_DOWN, 1);
        }
        if r < n {
            self.reg_store(group[r], REG_BAR_DOWN, 1);
        }
    }

    // ---- communication registers (§4.4) -------------------------------------

    /// Stores `value` into communication register `reg` of cell `dst`
    /// (non-blocking; the registers live in shared memory space).
    pub fn reg_store(&mut self, dst: usize, reg: u16, value: u32) {
        self.post(Request::RegStore {
            dst: CellId::new(dst as u32),
            reg,
            value,
        });
    }

    /// Loads local communication register `reg`, blocking until its p-bit
    /// is set; consumes the value.
    pub async fn reg_load(&mut self, reg: u16) -> u32 {
        match self.call(Request::RegLoad { reg }).await {
            Response::Value(v) => v,
            r => unreachable!("reg_load got {r:?}"),
        }
    }

    fn reg_store_f64(&mut self, dst: usize, reg: u16, v: f64) {
        let bits = v.to_bits();
        self.reg_store(dst, reg, bits as u32);
        self.reg_store(dst, reg + 1, (bits >> 32) as u32);
    }

    async fn reg_load_f64(&mut self, reg: u16) -> f64 {
        let lo = self.reg_load(reg).await;
        let hi = self.reg_load(reg + 1).await;
        f64::from_bits(lo as u64 | ((hi as u64) << 32))
    }

    // ---- reductions (§4.5) ---------------------------------------------------

    /// Scalar global reduction over **all** cells using the communication
    /// registers (binary tree up, broadcast down). Returns the reduced
    /// value on every cell. Counted as one "Gop" in Table 3.
    pub async fn reduce_f64(&mut self, x: f64, op: ReduceOp) -> f64 {
        self.post(Request::Mark(Mark::GopScalar));
        let (pos, n) = (self.id(), self.ncells());
        self.tree_reduce(pos, n, |i| i, x, op).await
    }

    /// Scalar sum over all cells.
    pub async fn reduce_sum_f64(&mut self, x: f64) -> f64 {
        self.reduce_f64(x, ReduceOp::Sum).await
    }

    /// Scalar max over all cells.
    pub async fn reduce_max_f64(&mut self, x: f64) -> f64 {
        self.reduce_f64(x, ReduceOp::Max).await
    }

    /// Scalar reduction over an arbitrary `group` (§2.3 requires group
    /// reductions). Every member calls with the identical group; the
    /// result is returned to all members.
    ///
    /// # Panics
    ///
    /// Panics if this cell is not in `group`.
    pub async fn group_reduce_f64(&mut self, group: &[usize], x: f64, op: ReduceOp) -> f64 {
        self.post(Request::Mark(Mark::GopScalar));
        let pos = group
            .iter()
            .position(|&c| c == self.id())
            .expect("cell must be a member of its reduction group");
        self.tree_reduce(pos, group.len(), |i| group[i], x, op)
            .await
    }

    /// The binary-tree walk behind every scalar reduction: this cell is
    /// position `pos` of an `n`-member group whose member at position `i`
    /// is cell `member(i)`. Children's partials come up through the
    /// communication registers, the result goes back down. Works by
    /// index, so a machine-wide reduction costs each cell O(1) host
    /// memory whatever the machine size.
    async fn tree_reduce(
        &mut self,
        pos: usize,
        n: usize,
        member: impl Fn(usize) -> usize,
        x: f64,
        op: ReduceOp,
    ) -> f64 {
        let (l, r) = (2 * pos + 1, 2 * pos + 2);
        let mut acc = x;
        for (child, slot) in [(l, REG_UP_L), (r, REG_UP_R)] {
            if child < n {
                let v = self.reg_load_f64(slot).await;
                acc = op.combine(acc, v);
                self.work(1);
            }
        }
        let result = if pos > 0 {
            let parent = member((pos - 1) / 2);
            let slot = if pos % 2 == 1 { REG_UP_L } else { REG_UP_R };
            self.reg_store_f64(parent, slot, acc);
            self.reg_load_f64(REG_DOWN).await
        } else {
            acc
        };
        if l < n {
            self.reg_store_f64(member(l), REG_DOWN, result);
        }
        if r < n {
            self.reg_store_f64(member(r), REG_DOWN, result);
        }
        result
    }

    fn scratch_for(&mut self, bytes: u64) -> VAddr {
        if self.scratch.is_null() || self.scratch_len < bytes {
            self.scratch = self.alloc_bytes(bytes.max(4096));
            self.scratch_len = bytes.max(4096);
        }
        self.scratch
    }

    /// Vector global summation over all cells (§4.5: "Global reductions
    /// for vector data use a ring buffer with SEND/RECEIVE"). `xs` is
    /// replaced by the element-wise sum on every cell. Counted as one
    /// "V Gop" in Table 3; the ring SENDs appear as SEND ops, matching how
    /// the paper's CG numbers relate (365.6 SENDs = 390 VGops × 15/16).
    pub async fn reduce_vec_sum_f64(&mut self, xs: &mut [f64]) {
        self.post(Request::Mark(Mark::GopVector));
        let n = xs.len();
        let bytes = (n * 8) as u64;
        let me = self.id();
        let p = self.ncells();
        let scratch = self.scratch_for(bytes);
        if p == 1 {
            return;
        }
        if me == 0 {
            self.write_slice(scratch, xs);
            self.send(1, scratch, bytes);
        } else {
            // Accumulate the running partial from the previous ring member.
            let (_, mut partial) = self.recv_slice::<f64>(me - 1, scratch, bytes, n).await;
            for (p, x) in partial.iter_mut().zip(xs.iter()) {
                *p += *x;
            }
            self.work(n as u64);
            self.write_slice(scratch, &partial);
            if me < p - 1 {
                self.send(me + 1, scratch, bytes);
            }
        }
        // The last ring member holds the total; B-net broadcasts it back.
        self.bcast(p - 1, scratch, bytes);
        let total = self.read_slice::<f64>(scratch, n).await;
        xs.copy_from_slice(&total);
    }

    /// Records a vector global-operation marker (Table 3 "V Gop") for a
    /// vector collective built directly on the primitives; the built-in
    /// reductions mark automatically.
    pub fn mark_gop_vector(&mut self) {
        self.post(Request::Mark(Mark::GopVector));
    }

    // ---- distributed shared memory (§4.2) -------------------------------------

    /// Non-blocking remote store of `data` at byte `offset` inside `dst`'s
    /// shared-memory window. Completion is detected with
    /// [`Cell::remote_fence`] (automatic acknowledge packets).
    pub fn remote_store(&mut self, dst: usize, offset: u64, data: &[u8]) {
        self.post(Request::RemoteStore {
            dst: CellId::new(dst as u32),
            offset,
            data: data.to_vec(),
        });
    }

    /// Blocking remote load of `len` bytes from `dst`'s shared window.
    pub async fn remote_load(&mut self, dst: usize, offset: u64, len: u64) -> Vec<u8> {
        let load = Request::RemoteLoad {
            dst: CellId::new(dst as u32),
            offset,
            len,
        };
        match self.call(load).await {
            Response::Bytes(b) => b,
            r => unreachable!("remote_load got {r:?}"),
        }
    }

    /// Blocks until all issued remote stores are acknowledged.
    pub fn remote_fence(&mut self) {
        self.post(Request::RemoteFence);
    }

    // ---- write-through pages (§4.2) --------------------------------------

    /// Reads `len` bytes at `offset` of `owner`'s shared window through
    /// the **write-through page** cache (§4.2: "uses part of local memory
    /// as a cache for distributed shared memory space, and enables the
    /// replacement of remote accesses with local accesses").
    ///
    /// A hit is an ordinary local access (no simulated communication); a
    /// miss performs one blocking remote load per missing page. The
    /// hardware keeps no coherence — remote writers' updates become
    /// visible only after [`Cell::wt_invalidate_all`] (software cache
    /// coherence, per the paper's concluding remarks).
    pub async fn wt_read(&mut self, owner: usize, offset: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = offset;
        while pos < offset + len {
            let page = pos / WT_PAGE;
            let in_page = pos % WT_PAGE;
            let take = (WT_PAGE - in_page).min(offset + len - pos);
            let key = (owner as u32, page);
            if !self.wt_cache.contains_key(&key) {
                self.wt_misses += 1;
                let data = self.remote_load(owner, page * WT_PAGE, WT_PAGE).await;
                self.wt_cache.insert(key, data);
            } else {
                self.wt_hits += 1;
            }
            let cached = self.wt_cache.get(&key).expect("just inserted");
            out.extend_from_slice(&cached[in_page as usize..(in_page + take) as usize]);
            pos += take;
        }
        out
    }

    /// Writes `data` at `offset` of `owner`'s shared window, **write
    /// through**: the local cached copy (if present) is updated and the
    /// store is forwarded to the owner (non-blocking; order with
    /// [`Cell::remote_fence`]).
    pub fn wt_write(&mut self, owner: usize, offset: u64, data: &[u8]) {
        let mut pos = offset;
        let mut off_in_data = 0usize;
        while off_in_data < data.len() {
            let page = pos / WT_PAGE;
            let in_page = (pos % WT_PAGE) as usize;
            let take = (WT_PAGE as usize - in_page).min(data.len() - off_in_data);
            if let Some(cached) = self.wt_cache.get_mut(&(owner as u32, page)) {
                cached[in_page..in_page + take]
                    .copy_from_slice(&data[off_in_data..off_in_data + take]);
            }
            pos += take as u64;
            off_in_data += take;
        }
        self.remote_store(owner, offset, data);
    }

    /// Drops every cached write-through page (the software-coherence
    /// invalidation point).
    pub fn wt_invalidate_all(&mut self) {
        self.wt_cache.clear();
    }

    /// `(hits, misses)` of the write-through page cache.
    pub fn wt_stats(&self) -> (u64, u64) {
        (self.wt_hits, self.wt_misses)
    }
}
