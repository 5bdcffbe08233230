//! A scalar collective must cost each cell O(1) host memory: the bytes a
//! machine allocates for one more `reduce_sum_f64` per cell may not grow
//! with the number of cells.
//!
//! A counting global allocator tallies the bytes each thread asks for.
//! The machine runs on the calling thread, so a run's tally is its own
//! even while the harness runs other tests in parallel.

use apcore::{run, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
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
