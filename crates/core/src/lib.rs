//! # apcore — the AP1000+ machine emulator and PUT/GET interface
//!
//! This crate is the heart of the reproduction of *"AP1000+: Architectural
//! Support of PUT/GET Interface for Parallelizing Compiler"* (ASPLOS'94):
//! a deterministic, functional + timing emulator of the AP1000+ machine
//! and the SPMD programming interface the paper's compilers target.
//!
//! A program is an `async` Rust closure run once per cell; it talks to
//! the machine through a [`Cell`] handle offering `put`/`get` (plain and
//! strided), completion flags, SEND/RECEIVE ring buffers, S-net barriers,
//! communication-register reductions, B-net broadcast, and DSM remote
//! load/store. Data really moves between simulated memories — programs
//! compute real answers — while the kernel simultaneously tracks simulated
//! time through MSC+ queues, DMA engines, and the T-net torus.
//!
//! The whole machine runs on the calling thread: the kernel steps each
//! program inline up to the next point where it needs simulated data back
//! (an `.await` on a [`Cell`] method) and resumes it when that data is
//! ready in simulated time. A [`Cell`] method is the only thing a program
//! may `.await`.
//!
//! # Examples
//!
//! Every cell PUTs eight bytes to its right neighbour, which waits on the
//! receive flag:
//!
//! ```
//! use apcore::{run, MachineConfig};
//!
//! let report = run(MachineConfig::new(4), None, async |cell| {
//!     let buf = cell.alloc::<f64>(1);
//!     let flag = cell.alloc_flag();
//!     let me = cell.id();
//!     let n = cell.ncells();
//!     cell.write_pod(buf, me as f64);
//!     cell.barrier();
//!     // Ring shift: PUT my value into my right neighbour's buffer.
//!     cell.put((me + 1) % n, buf, buf, 8, aputil::VAddr::NULL, flag, false);
//!     cell.wait_flag(flag, 1);
//!     cell.read_pod::<f64>(buf).await
//! })
//! .unwrap();
//! // Cell i now holds the value of its left neighbour.
//! assert_eq!(report.outputs, vec![3.0, 0.0, 1.0, 2.0]);
//! ```

pub mod accounting;
pub mod cell;
pub mod config;
mod kernel;
mod machine;
mod request;

pub use accounting::{CellTimes, RunReport};
pub use cell::{Cell, ReduceOp};
pub use config::{
    metrics_default, set_metrics_default, set_sim_threads_default, HwParams, MachineConfig,
};
pub use request::Mark;

// Re-export the vocabulary types users need at the API boundary.
pub use apfault::{FaultEvent, FaultKind, FaultSpec, RecoveryParams};
pub use apmon::{Heatmap, HostProf, LinkUtil, MetricsSeries, RunMetrics};
pub use apmsc::StrideSpec;
pub use apobs::{Counters, SharedSink, Timeline, TimelineMode};
pub use aputil::{
    ApError, ApResult, BlockReason, BlockedCell, CellId, DeadlockReport, FaultReport, SimTime,
    VAddr,
};

use request::{Port, Request};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Runs `program` as an SPMD job: one copy per cell, in simulated
/// lockstep, optionally under a deterministic fault schedule. Returns the
/// per-cell outputs, the time breakdown, the probe trace, and machine
/// statistics.
///
/// With `faults` set, every non-loopback packet travels in a
/// sequence-numbered, checksummed envelope: the receiver acknowledges it,
/// the sender retransmits on a capped-exponential-backoff timeout, the
/// receiver suppresses replayed duplicates, and the T-net detours around
/// discovered link outages via the deterministic Y-then-X route. A
/// survived run carries its [`aputil::FaultReport`] in
/// [`RunReport::fault`]; an unsurvivable schedule (a fail-stop crash, or
/// an outage outlasting the retry budget) aborts with
/// [`ApError::Fault`] / [`ApError::BarrierAborted`] instead of hanging.
///
/// # Errors
///
/// * [`ApError::PageFault`] / [`ApError::OutOfRange`] — a program handed
///   the hardware an illegal address (the paper's protection check).
/// * [`ApError::Deadlock`] — every cell is blocked and no hardware events
///   remain.
/// * [`ApError::CellFailed`] — a program panicked, or awaited something
///   other than a [`Cell`] method.
/// * [`ApError::InvalidArg`] — malformed PUT/GET descriptors, mismatched
///   collectives, reduction-protocol violations, exhausted cell memory.
/// * [`ApError::Fault`] / [`ApError::BarrierAborted`] — an unsurvivable
///   fault schedule.
///
/// # Examples
///
/// ```
/// use apcore::{run, FaultSpec, MachineConfig};
///
/// let sums = run(MachineConfig::new(8), None, async |cell| {
///     cell.reduce_sum_f64(cell.id() as f64).await
/// })
/// .unwrap();
/// assert!(sums.outputs.iter().all(|&s| s == 28.0));
///
/// // A quiet schedule changes nothing but attaches an (empty) report.
/// let spec = FaultSpec::quiet();
/// let r = run(MachineConfig::new(4), Some(&spec), async |cell| cell.id()).unwrap();
/// assert!(r.fault.unwrap().survived());
/// ```
pub fn run<T>(
    cfg: MachineConfig,
    faults: Option<&FaultSpec>,
    program: impl AsyncFn(&mut Cell) -> T,
) -> ApResult<RunReport<T>> {
    // An unbounded timeline on a huge machine is O(events) memory with no
    // bound — refuse it up front and point at the modes that are bounded:
    // the flight recorder (post-mortem context) and a streaming sink
    // (full recording in O(1) memory).
    if matches!(cfg.timeline, TimelineMode::Full) && cfg.ncells > 1024 {
        return Err(ApError::InvalidArg(format!(
            "full timeline recording on {} cells is unbounded; use a flight recorder \
             (MachineConfig::with_flight_recorder / --flight-recorder) or a streaming \
             trace sink (TimelineMode::Stream / repro record) for machines over 1024 cells",
            cfg.ncells
        )));
    }
    let ncells = cfg.ncells;
    let machine = machine::Machine::new(cfg);
    let ports: Vec<_> = (0..ncells)
        .map(|_| Rc::<RefCell<Port>>::default())
        .collect();
    let mut cells: Vec<Cell> = (0..ncells)
        .zip(&ports)
        .zip(&machine.cells)
        .map(|((id, port), hw)| {
            Cell::new(CellId::new(id), ncells, Rc::clone(port), hw.mmu.layout())
        })
        .collect();
    let program = &program;
    let mut programs: Vec<Option<Pin<Box<dyn Future<Output = T> + '_>>>> = cells
        .iter_mut()
        .map(|cell| {
            Some(Box::pin(async move {
                cell.boot().await;
                program(cell).await
            }) as _)
        })
        .collect();
    let mut outputs: Vec<Option<T>> = (0..ncells).map(|_| None).collect();
    let mut cx = Context::from_waker(Waker::noop());
    let mut step = |cell: u32, resp, batch: &mut VecDeque<Request>| {
        let i = cell as usize;
        let port = &ports[i];
        port.borrow_mut().inbox = Some(resp);
        let program = programs[i]
            .as_mut()
            .expect("a finished cell is never woken");
        let polled = catch_unwind(AssertUnwindSafe(|| program.as_mut().poll(&mut cx)));
        debug_assert!(batch.is_empty(), "cell {cell} stepped with requests queued");
        std::mem::swap(batch, &mut port.borrow_mut().outbox);
        let last = match polled {
            // Suspended on the `Cell` method that issued the batch's last
            // request: it consumed the response and issued something.
            Ok(Poll::Pending) if port.borrow().inbox.is_none() && !batch.is_empty() => return,
            // Suspended on anything else, which no wake will ever resolve.
            Ok(Poll::Pending) => {
                Request::Fail("program awaited something other than a Cell method".to_string())
            }
            Ok(Poll::Ready(out)) => {
                outputs[i] = Some(out);
                Request::Finish
            }
            Err(payload) => Request::Fail(aputil::panic_message(payload.as_ref())),
        };
        batch.push_back(last);
        programs[i] = None;
    };

    let mut kernel = kernel::Kernel::new(machine).with_faults(faults);
    let run_result = kernel.run(&mut step);
    let fault = kernel.take_fault_report();
    let series = kernel.take_metrics();
    let hostprof = kernel.take_hostprof();
    let mut machine = kernel.into_machine();

    // Post-mortem: on the failure modes a flight recorder exists for,
    // dump whatever timeline context survived before propagating the
    // error (best-effort — the error itself must still reach the caller).
    if let Err(e) = &run_result {
        if matches!(e, ApError::Deadlock(_) | ApError::Fault(_)) {
            if let Some(path) = machine.cfg.flight_dump.take() {
                let timeline = machine.take_timeline();
                if !timeline.events.is_empty() {
                    match apobs::write_chrome_trace(&path, &[&timeline]) {
                        Ok(()) => eprintln!(
                            "flight recorder: dumped {} events to {}",
                            timeline.events.len(),
                            path.display()
                        ),
                        Err(io) => {
                            eprintln!("flight recorder: failed to write {}: {io}", path.display())
                        }
                    }
                }
            }
        }
    }

    let total_time = run_result?;
    let outputs = outputs
        .into_iter()
        .map(|out| out.expect("the kernel returned Ok, so every cell finished"))
        .collect();

    let mut counters = machine.collect_counters();
    if let Some(r) = &fault {
        counters.retries = r.total_retries();
        counters.drops = r.drops;
        counters.corrupt_detected = r.corrupt_detected;
        counters.dup_suppressed = r.dup_suppressed;
        counters.detours = r.detours;
        counters.acks = r.acks;
    }
    let timeline = machine.take_timeline();
    let metrics =
        series.map(|series| Box::new(assemble_metrics(series, hostprof, &machine, total_time)));
    Ok(RunReport {
        outputs,
        times: machine.times,
        total_time,
        trace: machine.trace,
        tnet: machine.tnet.stats(),
        barriers: machine.snet.epochs(),
        counters,
        timeline,
        fault,
        metrics,
    })
}

/// [`run`], fault-free, over a synchronous closure — for programs that
/// never read simulated data back (every [`Cell`] method they call is a
/// plain `fn`).
pub fn run_with<T, F: Fn(&mut Cell) -> T>(
    cfg: MachineConfig,
    program: F,
) -> ApResult<RunReport<T>> {
    run(cfg, None, async |cell: &mut Cell| program(cell))
}

/// Builds the end-of-run [`RunMetrics`] block: the sampled series plus
/// torus heatmaps (per-cell busy fraction, per-cell outgoing-link
/// utilization), the sorted per-link busy table, and host self-profiling.
fn assemble_metrics(
    series: MetricsSeries,
    host: Option<HostProf>,
    machine: &machine::Machine,
    total_time: SimTime,
) -> RunMetrics {
    let torus = machine.tnet.torus();
    let (w, h) = torus.dims();
    let total_ns = total_time.as_nanos().max(1) as f64;
    let busy: Vec<f64> = machine
        .times
        .iter()
        .map(|t| (t.exec + t.rts + t.overhead).as_nanos() as f64 / total_ns)
        .collect();
    let cell_busy = (busy.len() == (w * h) as usize)
        .then(|| Heatmap::new("cell busy fraction", w as usize, h as usize, busy));
    let per_link = machine.tnet.link_busy_per_link();
    // Fold each directed link's busy time onto its transmitting cell; a
    // torus cell drives 4 outgoing links (2 on degenerate 1-wide or
    // 1-tall rings, but the fraction stays comparable within one map).
    let mut out_busy = vec![0.0f64; (w * h) as usize];
    for &(from, _, t) in &per_link {
        if let Some(slot) = out_busy.get_mut(from.index()) {
            *slot += t.as_nanos() as f64;
        }
    }
    let deg = |d: u32| -> f64 {
        match d {
            1 => 0.0,
            2 => 1.0, // both wrap directions reach the same neighbour
            _ => 2.0,
        }
    };
    let links_per_cell = (deg(w) + deg(h)).max(1.0);
    for v in &mut out_busy {
        *v /= total_ns * links_per_cell;
    }
    let link_util = (!per_link.is_empty())
        .then(|| Heatmap::new("link utilization", w as usize, h as usize, out_busy));
    RunMetrics {
        series,
        cell_busy,
        link_util,
        links: per_link
            .into_iter()
            .map(|(from, to, t)| LinkUtil {
                from: from.as_u32(),
                to: to.as_u32(),
                busy_ns: t.as_nanos(),
            })
            .collect(),
        host,
        final_time: total_time,
    }
}
