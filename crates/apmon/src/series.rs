//! The sampled metrics time series and its deterministic sampler.

use aputil::{Json, SimTime};

/// One snapshot row. Every field is a plain integer so rows are
/// fixed-width, cheap to take, and serialize without float formatting
/// concerns. Counters (`events`, `msgs`, `bytes`, `link_busy_ns`,
/// `retries`, `detours`) are cumulative since run start; everything else
/// is an instantaneous gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSample {
    /// Sim time of this tick (`k * interval`).
    pub t: SimTime,
    /// Kernel events handled so far (cumulative).
    pub events: u64,
    /// T-net messages delivered so far (cumulative).
    pub msgs: u64,
    /// T-net payload bytes delivered so far (cumulative).
    pub bytes: u64,
    /// PUT transfers currently in flight (issued, not yet delivered).
    pub puts_inflight: u32,
    /// GET transfers currently in flight.
    pub gets_inflight: u32,
    /// Cells currently blocked on anything (flag, recv, barrier, …).
    pub cells_blocked: u32,
    /// Cells currently parked inside the S-net barrier specifically.
    pub barrier_waiting: u32,
    /// Total entries queued across every cell's MSC+ queues + spill.
    pub queue_depth: u64,
    /// Deepest single cell's queue backlog.
    pub queue_depth_max: u64,
    /// Cells whose send DMA engine is busy right now.
    pub send_dma_busy: u32,
    /// Cells whose receive DMA engine is busy right now.
    pub recv_dma_busy: u32,
    /// Total T-net link-busy nanoseconds accumulated so far (cumulative;
    /// one message crossing `h` hops charges `h` link-transmission times).
    pub link_busy_ns: u64,
    /// Fault-recovery retransmissions so far (cumulative; 0 when no fault
    /// schedule is injected).
    pub retries: u64,
    /// Fault-recovery route detours so far (cumulative).
    pub detours: u64,
}

impl MetricsSample {
    /// Field names, in the order of [`values`](Self::values).
    pub const COLUMNS: [&'static str; 15] = [
        "t_ns",
        "events",
        "msgs",
        "bytes",
        "puts_inflight",
        "gets_inflight",
        "cells_blocked",
        "barrier_waiting",
        "queue_depth",
        "queue_depth_max",
        "send_dma_busy",
        "recv_dma_busy",
        "link_busy_ns",
        "retries",
        "detours",
    ];

    /// The row's values, in [`COLUMNS`](Self::COLUMNS) order: the one
    /// list every consumer of the columns reads.
    pub fn values(&self) -> [u64; 15] {
        [
            self.t.as_nanos(),
            self.events,
            self.msgs,
            self.bytes,
            u64::from(self.puts_inflight),
            u64::from(self.gets_inflight),
            u64::from(self.cells_blocked),
            u64::from(self.barrier_waiting),
            self.queue_depth,
            self.queue_depth_max,
            u64::from(self.send_dma_busy),
            u64::from(self.recv_dma_busy),
            self.link_busy_ns,
            self.retries,
            self.detours,
        ]
    }

    /// The row as a JSON array in [`COLUMNS`](Self::COLUMNS) order —
    /// column-oriented framing keeps a 10k-sample artifact compact.
    pub fn to_row(&self) -> Json {
        Json::Arr(self.values().into_iter().map(Json::U).collect())
    }
}

/// A run's complete sampled series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSeries {
    /// Sampling interval (sim time between ticks).
    pub interval: SimTime,
    /// One row per tick, in tick order.
    pub samples: Vec<MetricsSample>,
}

impl MetricsSeries {
    /// Serializes as `{interval_ns, columns, rows}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("interval_ns", Json::U(self.interval.as_nanos())),
            (
                "columns",
                Json::Arr(
                    MetricsSample::COLUMNS
                        .iter()
                        .map(|&c| Json::from(c))
                        .collect(),
                ),
            ),
            (
                "rows",
                Json::Arr(self.samples.iter().map(MetricsSample::to_row).collect()),
            ),
        ])
    }
}

/// Deterministic tick placement for the emulator kernel.
///
/// The rule: the sample for tick `k` (sim time `k·interval`) is taken
/// when the kernel first pops an event with `time ≥ k·interval`, *before*
/// handling it — i.e. gauges reflect machine state after every event
/// strictly earlier than the tick. Quiet stretches produce one row per
/// elapsed tick (the state can't have changed in between, but fixed-width
/// rows keep downstream tooling trivial).
#[derive(Clone, Debug)]
pub struct Sampler {
    interval: SimTime,
    next_tick: u64,
    /// The accumulating series.
    pub series: MetricsSeries,
}

impl Sampler {
    /// A sampler ticking every `interval` of sim time.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimTime) -> Self {
        assert!(interval > SimTime::ZERO, "sampling interval must be > 0");
        Sampler {
            interval,
            next_tick: 0,
            series: MetricsSeries {
                interval,
                samples: Vec::new(),
            },
        }
    }

    /// Sim time of the next pending tick.
    pub fn next_time(&self) -> SimTime {
        self.interval * self.next_tick
    }

    /// Must the kernel sample before advancing to an event at `t`?
    pub fn due(&self, t: SimTime) -> bool {
        t >= self.next_time()
    }

    /// Records `sample` for the current tick (stamping its time) and
    /// advances to the next one. Call while [`due`](Self::due) holds.
    pub fn push(&mut self, mut sample: MetricsSample) {
        sample.t = self.next_time();
        self.series.samples.push(sample);
        self.next_tick += 1;
    }

    /// Consumes the sampler, yielding the finished series.
    pub fn finish(self) -> MetricsSeries {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_places_ticks_deterministically() {
        let mut s = Sampler::new(SimTime::from_nanos(100));
        // Event at t=0: tick 0 is due immediately (state before any event).
        assert!(s.due(SimTime::ZERO));
        s.push(MetricsSample::default());
        assert!(!s.due(SimTime::from_nanos(99)));
        assert!(s.due(SimTime::from_nanos(100)));
        // A long quiet stretch: every elapsed tick fires once.
        while s.due(SimTime::from_nanos(350)) {
            s.push(MetricsSample::default());
        }
        let times: Vec<u64> = s.series.samples.iter().map(|r| r.t.as_nanos()).collect();
        assert_eq!(times, [0, 100, 200, 300]);
    }

    #[test]
    fn rows_are_fixed_width() {
        let row = MetricsSample::default().to_row();
        assert_eq!(row.as_arr().unwrap().len(), MetricsSample::COLUMNS.len());
    }
}
