//! A scalar collective must cost each cell O(1) host memory: the bytes a
//! machine allocates for one more `reduce_sum_f64` per cell may not grow
//! with the number of cells. A small PUT or GET costs the host at most
//! one allocation: its payload's. And a strict replay of a decoded
//! recording does not copy the recording.
//!
//! A counting global allocator tallies the allocations and bytes each
//! thread asks for. The machine runs on the calling thread, so a run's
//! tally is its own even while the harness runs other tests in parallel.

use apapps::Scale;
use apbench::{conformance, record_app, ReplayMode};
use apcore::{run, MachineConfig, VAddr};
use apobs::TimelineEvent;
use aptrace::EvTrace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the tally only reads
// the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Back-to-back reductions measured per run.
const K: u32 = 16;

/// Bytes allocated by one run on `ncells` cells of `K` warm-up global
/// sums and then `reductions` more. The warm-up grows what a machine
/// grows once: request buffers, T-net per-pair state, and the event
/// queue's buckets, one per power of two of simulated time. So two runs
/// differ by the steady cost. The probe trace is off: it grows with
/// every operation by design.
fn allocated(ncells: u32, reductions: u32) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    let r = run(
        MachineConfig::new(ncells).with_trace(false),
        None,
        async |cell| {
            let mut x = 1.0;
            for _ in 0..K + reductions {
                x = cell.reduce_sum_f64(x).await / cell.ncells() as f64;
            }
            x
        },
    )
    .expect("reductions run");
    assert!(r.outputs.iter().all(|&x| x == 1.0));
    ALLOCATED.with(Cell::get) - before
}

/// Bytes per cell per reduction: the run with `K` more reductions against
/// the same program with none.
fn per_cell_per_reduction(ncells: u32) -> f64 {
    let base = allocated(ncells, 0);
    let with = allocated(ncells, K);
    with.saturating_sub(base) as f64 / (ncells as f64 * K as f64)
}

#[test]
fn a_scalar_reduction_allocates_o1_bytes_per_cell() {
    let small = per_cell_per_reduction(64);
    let large = per_cell_per_reduction(1024);
    assert!(
        small <= 64.0 && large <= 64.0,
        "bytes per cell per reduction: {small:.1} at 64 cells, {large:.1} at 1024"
    );
    assert!(
        large <= small + 16.0,
        "per-cell reduction cost grows with the machine: {small:.1} B at 64 cells, \
         {large:.1} B at 1024"
    );
}

/// Allocations made by one run on two cells in which cell 0 does `K`
/// warm-up 8-byte transfers with cell 1 and then `ops` more, each waited
/// for and read back before the next (a GET until its reply lands, a PUT
/// until its send DMA has drained), and the run's simulated length. The
/// read suspends the program, so its requests never pile up in the
/// outbox. The warm-up grows what the machine grows once, so two runs
/// differ by the steady per-op cost.
fn allocations(get: bool, ops: u32) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = run(
        MachineConfig::new(2).with_trace(false),
        None,
        async move |cell| {
            let buf = cell.alloc_bytes(8);
            let flag = cell.alloc_flag();
            if cell.id() == 0 {
                for n in 1..=K + ops {
                    if get {
                        cell.get(1, buf, buf, 8, VAddr::NULL, flag);
                    } else {
                        cell.put(1, buf, buf, 8, flag, VAddr::NULL, false);
                    }
                    cell.wait_flag(flag, n);
                    assert_eq!(cell.read_flag(flag).await, n);
                }
            }
            cell.barrier();
        },
    )
    .expect("transfers run");
    let made = ALLOCATIONS.with(Cell::get) - before;
    (made, r.total_time.as_nanos())
}

/// The one allocation left per op is the shared 8-byte payload buffer
/// (`apmsc::Payload`, 24 bytes with its reference counts) that a PUT's
/// send DMA or a GET's reply gathers into. A GET request, an ack and a
/// transfer's split into DMA chunks allocate nothing. What else a longer
/// run allocates is the event queue's: at most one bucket per power of
/// two of simulated time the run newly reaches.
#[test]
fn an_8_byte_put_or_get_allocates_only_its_payload() {
    for get in [false, true] {
        let (base, base_ns) = allocations(get, 0);
        let (with, with_ns) = allocations(get, K);
        let buckets = u64::from(with_ns.ilog2() - base_ns.ilog2());
        let what = if get { "GET" } else { "PUT" };
        assert!(
            with - base <= u64::from(K) + buckets,
            "{what}: {} allocations for {K} more ops, whose run reaches {buckets} more \
             powers of two of simulated time",
            with - base
        );
    }
}

/// Bytes the calling thread allocates while `f` runs.
fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// Strict conformance walks the decoded document where it lies. A replay
/// of a CG-64 recording (one events section) allocates what a replay of
/// the same document with its events taken out does (the re-executed
/// machine, which fails that gate at its first event and renders the
/// divergence), plus less than a quarter of one copy of the events.
#[test]
fn strict_conformance_does_not_copy_the_recording() {
    let path = std::env::temp_dir().join(format!("ap-conf-alloc-{}.evtrace", std::process::id()));
    record_app("CG", Scale::Test, Some(64), None, &path, true).expect("record CG-64");
    let doc = EvTrace::read_file(&path);
    std::fs::remove_file(&path).ok();
    let doc = doc.expect("decode CG-64");
    let events: usize = doc.streams.iter().map(|s| s.events.len()).sum();
    let copy = (events * std::mem::size_of::<TimelineEvent>()) as u64;
    let mut bare = doc.clone();
    for s in &mut bare.streams {
        s.events = Default::default();
    }
    let replay = |doc: &EvTrace, passes: bool| {
        let c = conformance(doc, ReplayMode::Strict).expect("replay CG-64");
        assert_eq!(c.passed(), passes, "{}", c.render());
    };

    replay(&bare, false); // warm-up: what a first run grows once
    let walked = allocated_by(|| replay(&doc, true));
    let machine = allocated_by(|| replay(&bare, false));
    let walk = walked.saturating_sub(machine);
    assert!(
        walk < copy / 4,
        "strict conformance allocated {walked} bytes, {walk} more than the machine's \
         {machine}; one copy of its {events} events is {copy}, and the walk may take a \
         quarter of that"
    );
}
