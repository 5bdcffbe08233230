//! Live one-line run progress for `repro --progress`.
//!
//! The kernel calls [`Progress::maybe_report`] with current gauges; the
//! reporter rate-limits itself to roughly one stderr line per second of
//! *wall* time, checking the clock only when asked (the kernel asks every
//! few thousand events, so the cost is a branch plus a rare `Instant`
//! read). Output goes to stderr so piped artifact output stays clean.

use std::io::Write;
use std::time::{Duration, Instant};

/// Rate-limited progress reporter.
#[derive(Debug)]
pub struct Progress {
    label: String,
    started: Instant,
    last: Instant,
    last_events: u64,
    min_gap: Duration,
}

impl Progress {
    /// A reporter for the run called `label`, printing at most one line
    /// per second.
    pub fn new(label: impl Into<String>) -> Self {
        let now = Instant::now();
        Progress {
            label: label.into(),
            started: now,
            last: now,
            last_events: 0,
            min_gap: Duration::from_secs(1),
        }
    }

    /// Prints one line if at least the minimum gap has elapsed. Returns
    /// whether a line was printed.
    pub fn maybe_report(
        &mut self,
        sim_time: aputil::SimTime,
        events: u64,
        cells_blocked: u32,
        retries: u64,
    ) -> bool {
        let now = Instant::now();
        if now.duration_since(self.last) < self.min_gap {
            return false;
        }
        let rate = (events - self.last_events) as f64
            / now.duration_since(self.last).as_secs_f64().max(1e-9);
        self.last = now;
        self.last_events = events;
        let line = format!(
            "[{} +{:5.1}s] sim {} | {} events ({:.0}/s) | {} cells blocked | {} retries",
            self.label,
            now.duration_since(self.started).as_secs_f64(),
            sim_time,
            events,
            rate,
            cells_blocked,
            retries,
        );
        // Best-effort: a closed stderr must not kill the run.
        let _ = writeln!(std::io::stderr(), "{line}");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_limits_by_wall_clock() {
        let mut p = Progress::new("test");
        p.min_gap = Duration::from_millis(20);
        assert!(!p.maybe_report(aputil::SimTime::ZERO, 10, 0, 0));
        std::thread::sleep(Duration::from_millis(25));
        assert!(p.maybe_report(aputil::SimTime::from_nanos(500), 100, 1, 0));
        // Immediately after printing, the gate closes again.
        assert!(!p.maybe_report(aputil::SimTime::from_nanos(600), 120, 1, 0));
    }
}
