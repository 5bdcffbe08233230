//! Host-side self-profiling of the emulator event loop.
//!
//! Four phases cover the kernel's hot path: **pop** (event-queue pop),
//! **dispatch** (handling a hardware event), **drain** (a wake that
//! retires the next request a program posted, without resuming it), and
//! **wakeup** (a wake that resumes a program: the inline step to its next
//! suspension point plus the dispatch of the first request it issued).
//! To keep the overhead budget (≤5% wall-clock), only every
//! 64th event is timed; counts are always exact, nanosecond totals are
//! sampled and scaled at reporting time.
//!
//! Everything here reads the wall clock and nothing else — it cannot
//! influence simulated time, and its output is stripped from the
//! versioned metrics artifact (`host_*` fields, the `host_ms` precedent).

use aputil::Json;
use std::time::Instant;

/// One timed phase of the event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostPhase {
    /// Popping the next event off the queue.
    Pop,
    /// Handling a hardware event (DMA, packet, fault-layer timer).
    Dispatch,
    /// A wake that retires a cell's next posted request; the program is
    /// not resumed.
    Drain,
    /// A wake that resumes a cell program: the inline step to its next
    /// suspension point, then the dispatch of the first request it issued.
    Wakeup,
}

const NPHASES: usize = 4;

impl HostPhase {
    fn index(self) -> usize {
        match self {
            HostPhase::Pop => 0,
            HostPhase::Dispatch => 1,
            HostPhase::Drain => 2,
            HostPhase::Wakeup => 3,
        }
    }

    fn label(self) -> &'static str {
        match self {
            HostPhase::Pop => "pop",
            HostPhase::Dispatch => "dispatch",
            HostPhase::Drain => "drain",
            HostPhase::Wakeup => "wakeup",
        }
    }

    const ALL: [HostPhase; NPHASES] = [
        HostPhase::Pop,
        HostPhase::Dispatch,
        HostPhase::Drain,
        HostPhase::Wakeup,
    ];
}

/// Sampled wall-clock phase counters. `Default` is an idle profiler.
#[derive(Clone, Debug, Default)]
pub struct HostProf {
    /// Exact number of occurrences per phase (sampled or not).
    counts: [u64; NPHASES],
    /// Wall nanoseconds accumulated by the *sampled* occurrences only.
    sampled_ns: [u64; NPHASES],
    /// Sampled occurrences per phase.
    sampled: [u64; NPHASES],
    /// Wall clock at [`start`](Self::start).
    t0: Option<Instant>,
    /// Total wall nanoseconds between `start` and `stop`.
    wall_ns: u64,
}

impl HostProf {
    /// A fresh profiler with the run clock started.
    pub fn start() -> Self {
        HostProf {
            t0: Some(Instant::now()),
            ..HostProf::default()
        }
    }

    /// Stops the run clock.
    pub fn stop(&mut self) {
        if let Some(t0) = self.t0.take() {
            self.wall_ns = t0.elapsed().as_nanos() as u64;
        }
    }

    /// Counts one occurrence of `phase` without timing it.
    #[inline]
    pub fn count(&mut self, phase: HostPhase) {
        self.counts[phase.index()] += 1;
    }

    /// Counts one occurrence and records its sampled duration.
    #[inline]
    pub fn record(&mut self, phase: HostPhase, ns: u64) {
        let i = phase.index();
        self.counts[i] += 1;
        self.sampled[i] += 1;
        self.sampled_ns[i] += ns;
    }

    /// Estimated total nanoseconds in `phase`: mean sampled duration
    /// scaled to the exact count.
    pub fn estimated_ns(&self, phase: HostPhase) -> u64 {
        let i = phase.index();
        if self.sampled[i] == 0 {
            return 0;
        }
        (self.sampled_ns[i] as u128 * self.counts[i] as u128 / self.sampled[i] as u128) as u64
    }

    /// Exact occurrence count of `phase`.
    pub fn count_of(&self, phase: HostPhase) -> u64 {
        self.counts[phase.index()]
    }

    /// Total wall nanoseconds between `start` and `stop` (0 if never
    /// stopped).
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// `{host_wall_ms, host_phases: [{phase, count, est_ms}...]}`. All
    /// keys are `host_`-prefixed so report strippers can drop the whole
    /// block wholesale.
    pub fn to_json(&self) -> Json {
        let phases = HostPhase::ALL
            .iter()
            .map(|&p| {
                Json::obj(vec![
                    ("phase", Json::from(p.label())),
                    ("count", Json::U(self.count_of(p))),
                    ("est_ms", Json::F(self.estimated_ns(p) as f64 / 1e6)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("host_wall_ms", Json::F(self.wall_ns as f64 / 1e6)),
            ("host_phases", Json::Arr(phases)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_sampled_durations_to_exact_counts() {
        let mut p = HostProf::start();
        // 100 dispatches, every 10th timed at 50ns.
        for i in 0..100u64 {
            if i % 10 == 0 {
                p.record(HostPhase::Dispatch, 50);
            } else {
                p.count(HostPhase::Dispatch);
            }
        }
        p.stop();
        assert_eq!(p.count_of(HostPhase::Dispatch), 100);
        assert_eq!(p.estimated_ns(HostPhase::Dispatch), 5000);
        assert_eq!(p.estimated_ns(HostPhase::Pop), 0);
        let j = p.to_json().to_string();
        assert!(j.contains("host_wall_ms") && j.contains("\"dispatch\""));
    }
}
