//! # apcore — the AP1000+ machine emulator and PUT/GET interface
//!
//! This crate is the heart of the reproduction of *"AP1000+: Architectural
//! Support of PUT/GET Interface for Parallelizing Compiler"* (ASPLOS'94):
//! a deterministic, functional + timing emulator of the AP1000+ machine
//! and the SPMD programming interface the paper's compilers target.
//!
//! A program is an ordinary Rust closure run once per cell; it talks to
//! the machine through a [`Cell`] handle offering `put`/`get` (plain and
//! strided), completion flags, SEND/RECEIVE ring buffers, S-net barriers,
//! communication-register reductions, B-net broadcast, and DSM remote
//! load/store. Data really moves between simulated memories — programs
//! compute real answers — while the kernel simultaneously tracks simulated
//! time through MSC+ queues, DMA engines, and the T-net torus.
//!
//! # Examples
//!
//! Every even cell PUTs eight bytes to its right neighbour, which waits on
//! the receive flag:
//!
//! ```
//! use apcore::{run_with, MachineConfig};
//!
//! let report = run_with(MachineConfig::new(4), |cell| {
//!     let buf = cell.alloc::<f64>(1);
//!     let flag = cell.alloc_flag();
//!     let me = cell.id();
//!     let n = cell.ncells();
//!     cell.write_pod(buf, me as f64);
//!     cell.barrier();
//!     // Ring shift: PUT my value into my right neighbour's buffer.
//!     cell.put((me + 1) % n, buf, buf, 8, aputil::VAddr::NULL, flag, false);
//!     cell.wait_flag(flag, 1);
//!     cell.read_pod::<f64>(buf)
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
    ApError, ApResult, BlockReason, BlockedCell, CellId, CellLostReport, DeadlockReport,
    FaultReport, SimTime, VAddr,
};

use crossbeam::channel::unbounded;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

/// Runs `program` as an SPMD job: one copy per cell, in simulated
/// lockstep. Returns the per-cell outputs, the time breakdown, the probe
/// trace, and machine statistics.
///
/// # Errors
///
/// * [`ApError::PageFault`] / [`ApError::OutOfRange`] — a program handed
///   the hardware an illegal address (the paper's protection check).
/// * [`ApError::Deadlock`] — every cell is blocked and no hardware events
///   remain.
/// * [`ApError::CellFailed`] — a program panicked.
/// * [`ApError::InvalidArg`] — malformed PUT/GET descriptors, mismatched
///   collectives, or reduction-protocol violations.
///
/// # Examples
///
/// ```
/// use apcore::{run_with, MachineConfig};
///
/// let sums = run_with(MachineConfig::new(8), |cell| {
///     cell.reduce_sum_f64(cell.id() as f64)
/// })
/// .unwrap();
/// assert!(sums.outputs.iter().all(|&s| s == 28.0));
/// ```
pub fn run_with<T, F>(cfg: MachineConfig, program: F) -> ApResult<RunReport<T>>
where
    T: Send + 'static,
    F: Fn(&mut Cell) -> T + Send + Sync + 'static,
{
    run_with_faults(cfg, None, program)
}

/// Like [`run_with`], but with a deterministic fault schedule injected.
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
/// `faults: None` is exactly [`run_with`] — same events, same times.
///
/// # Errors
///
/// Everything [`run_with`] raises, plus [`ApError::Fault`],
/// [`ApError::CellLost`], and [`ApError::BarrierAborted`] under an
/// unsurvivable schedule.
///
/// # Examples
///
/// ```
/// use apcore::{run_with_faults, FaultSpec, MachineConfig};
///
/// // A quiet schedule changes nothing but attaches a (empty) report.
/// let spec = FaultSpec::quiet();
/// let r = run_with_faults(MachineConfig::new(4), Some(&spec), |cell| cell.id()).unwrap();
/// assert!(r.fault.unwrap().survived());
/// ```
pub fn run_with_faults<T, F>(
    cfg: MachineConfig,
    faults: Option<&FaultSpec>,
    program: F,
) -> ApResult<RunReport<T>>
where
    T: Send + 'static,
    F: Fn(&mut Cell) -> T + Send + Sync + 'static,
{
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
    let (req_tx, req_rx) = unbounded();
    let program = Arc::new(program);
    let mut resume_txs = Vec::with_capacity(ncells as usize);
    let mut handles = Vec::with_capacity(ncells as usize);
    for id in 0..ncells {
        let (resume_tx, resume_rx) = unbounded();
        resume_txs.push(resume_tx);
        let req_tx = req_tx.clone();
        let program = Arc::clone(&program);
        handles.push(
            thread::Builder::new()
                .name(format!("cell{id}"))
                .spawn(move || -> Result<T, String> {
                    let mut cell = Cell::new(CellId::new(id), ncells, req_tx, resume_rx);
                    cell.wait_boot();
                    match catch_unwind(AssertUnwindSafe(|| program(&mut cell))) {
                        Ok(out) => {
                            cell.finish();
                            Ok(out)
                        }
                        Err(payload) => {
                            let reason = aputil::panic_message(payload.as_ref());
                            cell.fail(reason.clone());
                            Err(reason)
                        }
                    }
                })
                .expect("spawn cell thread"),
        );
    }
    drop(req_tx);

    let mut kernel = kernel::Kernel::new(machine, resume_txs, req_rx).with_faults(faults);
    let run_result = kernel.run();
    let fault = kernel.take_fault_report();
    let series = kernel.take_metrics();
    let hostprof = kernel.take_hostprof();
    let (machine, resume_txs) = kernel.into_parts();
    // Unblock any threads still parked on their resume channels.
    drop(resume_txs);
    let mut machine = machine;

    // Post-mortem: on the failure modes a flight recorder exists for,
    // dump whatever timeline context survived before propagating the
    // error (best-effort — the error itself must still reach the caller).
    if let Err(e) = &run_result {
        if matches!(
            e,
            ApError::Deadlock(_) | ApError::CellLost(_) | ApError::Fault(_)
        ) {
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

    let mut outputs = Vec::with_capacity(handles.len());
    let mut failures: Vec<(CellId, String)> = Vec::new();
    for (id, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(out)) => outputs.push(out),
            Ok(Err(reason)) => failures.push((CellId::new(id as u32), reason)),
            Err(_) => {
                failures.push((
                    CellId::new(id as u32),
                    "program thread panicked".to_string(),
                ));
            }
        }
    }

    let total_time = run_result?;
    // Report every failed cell, not just the first one found.
    match failures.len() {
        0 => {}
        1 => {
            let (cell, reason) = failures.remove(0);
            return Err(ApError::CellFailed { cell, reason });
        }
        _ => return Err(ApError::CellsFailed { failures }),
    }

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
