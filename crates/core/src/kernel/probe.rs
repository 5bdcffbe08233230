//! Host-side telemetry taps of the event loop: deterministic metric
//! sampling, 1-in-64 wall-clock phase timing and progress lines. Nothing
//! here ever writes into simulated state.

use super::model::Wait;
use super::{Ev, Kernel};
use crate::config::MachineConfig;
use apmon::{HostPhase, HostProf, MetricsSample, MetricsSeries, Progress, Sampler};
use aputil::SimTime;
use std::time::Instant;

/// Telemetry taps of [`Kernel::event_loop`]. Every hook defaults to a
/// no-op, so the loop monomorphised over [`NoProbe`] is the bare hot path.
pub(super) trait Probe {
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
pub(super) struct NoProbe;

impl Probe for NoProbe {}

/// Deterministic metric sampling, 1-in-64 wall-clock phase timing and
/// rate-limited progress lines. Never influences simulated time.
pub(super) struct Telemetry {
    /// Sampled-metrics engine (`cfg.metrics_interval`).
    sampler: Option<Sampler>,
    /// Host wall-clock self-profiling of the event loop; runs alongside
    /// the sampler.
    hostprof: Option<HostProf>,
    /// Live one-line progress reporting (the `--progress` flag).
    progress: Option<Progress>,
    /// Stopwatch of the current phase: set on the 1-in-64 iterations
    /// that read the wall clock (the others only count).
    t0: Option<Instant>,
    phase: HostPhase,
}

impl Telemetry {
    /// `None` unless the sampler or progress reporting is on.
    pub fn new(cfg: &MachineConfig) -> Option<Telemetry> {
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
        self.t0 = (k.events_handled & 63 == 0).then(Instant::now);
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
        self.t0 = self.t0.map(|_| Instant::now());
    }

    fn handled(&mut self, k: &Kernel) {
        self.book(self.phase);
        // Progress gauges cost O(cells); ask at most every 4096 events
        // and let the reporter's wall-clock gate do the rest.
        if let Some(pr) = &mut self.progress {
            if k.events_handled & 4095 == 0 {
                let blocked = k.waiters.iter().flatten().count() as u32;
                let (retries, _) = k.fault_gauges();
                pr.maybe_report(k.clock.now(), k.events_handled, blocked, retries);
            }
        }
    }
}

impl Kernel {
    /// Retransmissions and detours so far (zero on fault-free runs).
    fn fault_gauges(&self) -> (u64, u64) {
        self.fault.as_ref().map_or((0, 0), |f| f.retries_detours())
    }

    /// Assembles the gauge snapshot for the tick at sim time `at`.
    fn metrics_sample(&self, at: SimTime) -> MetricsSample {
        let (queue_depth, queue_depth_max, send_dma_busy, recv_dma_busy) =
            self.machine.occupancy(at);
        let (puts, gets) = self.machine.xfers.inflight();
        let (mut blocked, mut barrier) = (0u32, 0u32);
        for w in self.waiters.iter().flatten() {
            blocked += 1;
            if matches!(w.on, Wait::Barrier) {
                barrier += 1;
            }
        }
        let stats = self.machine.tnet.stats();
        let (retries, detours) = self.fault_gauges();
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
}
