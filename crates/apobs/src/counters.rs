//! The unified hardware-counter block surfaced on `RunReport` and
//! `ReplayResult`.

use crate::hist::Hist;
use crate::latency::SegmentHists;
use aputil::Json;

/// Hardware counters and log2 histograms collected during a run or replay.
///
/// Absorbs the formerly ad-hoc `queue_spills` / `ring_overflows` report
/// fields and adds the distribution views the paper's analysis needs
/// (message sizes for Table 3, wait latencies for Figure 7/8 reasoning).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages that spilled out of an MSC+ command queue into DRAM (§4.1).
    pub queue_spills: u64,
    /// OS interrupts taken to refill spilled queues.
    pub queue_refills: u64,
    /// Ring-buffer overflows requiring an OS buffer allocation (§4.3).
    pub ring_overflows: u64,
    /// Payload bytes per T-net message.
    pub msg_size: Hist,
    /// Nanoseconds a cell spent blocked per flag wait.
    pub flag_wait: Hist,
    /// MSC+ command-queue depth observed at each enqueue.
    pub queue_occupancy: Hist,
    /// End-to-end T-net transit nanoseconds per message (prolog + hops +
    /// serialization, including any contention stalls).
    pub hop_latency: Hist,
    /// Figure-6 segment decomposition of every PUT's end-to-end latency.
    pub put_lat: SegmentHists,
    /// Same decomposition for GETs (request + reply legs combined).
    pub get_lat: SegmentHists,
    /// Envelope retransmissions under fault injection (0 on fault-free
    /// runs, as are the five counters below).
    pub retries: u64,
    /// Packets lost to injected link outages.
    pub drops: u64,
    /// Packets discarded on an envelope-checksum mismatch.
    pub corrupt_detected: u64,
    /// Replayed duplicates suppressed by the receiver's `(src, seq)` dedup.
    pub dup_suppressed: u64,
    /// Packets rerouted around a known-down link via the Y-then-X detour.
    pub detours: u64,
    /// Hardware acks generated by envelope receivers.
    pub acks: u64,
}

impl Counters {
    pub fn new() -> Self {
        Counters::default()
    }

    /// Folds another counter block into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.queue_spills += other.queue_spills;
        self.queue_refills += other.queue_refills;
        self.ring_overflows += other.ring_overflows;
        self.msg_size.merge(&other.msg_size);
        self.flag_wait.merge(&other.flag_wait);
        self.queue_occupancy.merge(&other.queue_occupancy);
        self.hop_latency.merge(&other.hop_latency);
        self.put_lat.merge(&other.put_lat);
        self.get_lat.merge(&other.get_lat);
        self.retries += other.retries;
        self.drops += other.drops;
        self.corrupt_detected += other.corrupt_detected;
        self.dup_suppressed += other.dup_suppressed;
        self.detours += other.detours;
        self.acks += other.acks;
    }

    /// JSON form for `--json` output.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("queue_spills", Json::from(self.queue_spills)),
            ("queue_refills", Json::from(self.queue_refills)),
            ("ring_overflows", Json::from(self.ring_overflows)),
            ("msg_size_bytes", self.msg_size.to_json()),
            ("flag_wait_ns", self.flag_wait.to_json()),
            ("queue_occupancy", self.queue_occupancy.to_json()),
            ("net_latency_ns", self.hop_latency.to_json()),
            ("put_latency", self.put_lat.to_json()),
            ("get_latency", self.get_lat.to_json()),
            ("retries", Json::from(self.retries)),
            ("drops", Json::from(self.drops)),
            ("corrupt_detected", Json::from(self.corrupt_detected)),
            ("dup_suppressed", Json::from(self.dup_suppressed)),
            ("detours", Json::from(self.detours)),
            ("acks", Json::from(self.acks)),
        ])
    }

    /// Multi-line human rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "queue spills {} (refills {}), ring overflows {}\n\
             msg size   : {}\n\
             flag wait  : {}\n\
             queue depth: {}\n\
             net latency: {}",
            self.queue_spills,
            self.queue_refills,
            self.ring_overflows,
            self.msg_size.render(),
            self.flag_wait.render(),
            self.queue_occupancy.render(),
            self.hop_latency.render(),
        );
        if self.put_lat.count() > 0 {
            out.push_str(&format!(
                "\nput latency ({} transfers):\n{}",
                self.put_lat.count(),
                self.put_lat.render()
            ));
        }
        if self.get_lat.count() > 0 {
            out.push_str(&format!(
                "\nget latency ({} transfers):\n{}",
                self.get_lat.count(),
                self.get_lat.render()
            ));
        }
        if self.retries + self.drops + self.corrupt_detected + self.dup_suppressed + self.detours
            > 0
        {
            out.push_str(&format!(
                "\nfault recovery: retries {}, drops {}, corrupt {}, dups {}, detours {}, acks {}",
                self.retries,
                self.drops,
                self.corrupt_detected,
                self.dup_suppressed,
                self.detours,
                self.acks,
            ));
        }
        out
    }
}

/// Counters for a content-addressed result cache (the `apserve` serving
/// layer's `GET /stats` block). Lives here so cache telemetry shares the
/// observability vocabulary — and the JSON idiom — of the hardware
/// counters above.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests answered from the in-memory cache.
    pub hits: u64,
    /// Requests answered from the on-disk cache (also warm the memory
    /// tier; disjoint from `hits`).
    pub disk_hits: u64,
    /// Requests that had to run the simulator.
    pub misses: u64,
    /// Requests that attached to an identical in-flight job instead of
    /// running again (single-flight).
    pub joins: u64,
    /// Entries evicted from the in-memory LRU.
    pub evictions: u64,
    /// Requests refused with the structured backpressure error because
    /// the queue of jobs waiting for an execution slot was full.
    pub rejected: u64,
    /// Jobs the server actually executed (each miss runs exactly
    /// once; `runs == misses` is the single-flight invariant).
    pub runs: u64,
    /// Jobs that finished with an error (failures are not cached).
    pub failures: u64,
    /// Entries evicted from the persistent disk tier to hold the
    /// `--disk-cache-bytes` budget.
    pub disk_evictions: u64,
    /// Results the memory tier took but the disk tier could not persist
    /// (an unwritable `--cache-dir`, a full disk): the job still
    /// answers, and a later miss recomputes.
    pub disk_write_failures: u64,
    /// Sandboxed worker processes that died (panic, abort, OOM-kill,
    /// signal) instead of reporting a result. Counts every crashed
    /// execution, so one job that crashes, retries, and crashes again
    /// contributes 2.
    pub crashed: u64,
    /// Jobs killed for exceeding the per-job wall-clock deadline.
    pub timeouts: u64,
    /// Crashed executions that were retried (the one deterministic
    /// retry with backoff before the breaker trips).
    pub job_retries: u64,
    /// Worker processes the supervisor killed (deadline kills plus
    /// shutdown-drain kills).
    pub kills: u64,
    /// Submissions refused because their key tripped the crash-loop
    /// circuit breaker (structured 422, never cached).
    pub poison_rejects: u64,
}

impl CacheCounters {
    pub fn new() -> Self {
        CacheCounters::default()
    }

    /// JSON form, used verbatim inside `GET /stats`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::from(self.hits)),
            ("disk_hits", Json::from(self.disk_hits)),
            ("misses", Json::from(self.misses)),
            ("joins", Json::from(self.joins)),
            ("evictions", Json::from(self.evictions)),
            ("rejected", Json::from(self.rejected)),
            ("runs", Json::from(self.runs)),
            ("failures", Json::from(self.failures)),
            ("disk_evictions", Json::from(self.disk_evictions)),
            ("disk_write_failures", Json::from(self.disk_write_failures)),
            ("crashed", Json::from(self.crashed)),
            ("timeouts", Json::from(self.timeouts)),
            ("job_retries", Json::from(self.job_retries)),
            ("kills", Json::from(self.kills)),
            ("poison_rejects", Json::from(self.poison_rejects)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_counters_serialize() {
        let a = CacheCounters {
            hits: 5,
            ..CacheCounters::new()
        };
        let j = a.to_json();
        for key in [
            "hits",
            "disk_hits",
            "misses",
            "joins",
            "evictions",
            "rejected",
            "runs",
            "failures",
            "disk_evictions",
            "disk_write_failures",
            "crashed",
            "timeouts",
            "job_retries",
            "kills",
            "poison_rejects",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("hits").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Counters::new();
        a.queue_spills = 2;
        a.msg_size.record(100);
        let mut b = Counters::new();
        b.queue_spills = 3;
        b.ring_overflows = 1;
        b.msg_size.record(200);
        a.merge(&b);
        assert_eq!(a.queue_spills, 5);
        assert_eq!(a.ring_overflows, 1);
        assert_eq!(a.msg_size.count(), 2);
    }

    #[test]
    fn merge_sums_fault_counters() {
        let mut a = Counters::new();
        a.retries = 1;
        a.detours = 2;
        let mut b = Counters::new();
        b.retries = 3;
        b.drops = 4;
        b.acks = 5;
        a.merge(&b);
        assert_eq!(a.retries, 4);
        assert_eq!(a.drops, 4);
        assert_eq!(a.detours, 2);
        assert_eq!(a.acks, 5);
    }

    #[test]
    fn fault_line_renders_only_under_faults() {
        let mut c = Counters::new();
        assert!(!c.render().contains("fault recovery"));
        c.retries = 2;
        c.detours = 1;
        assert!(c.render().contains("fault recovery: retries 2"));
    }

    #[test]
    fn json_includes_all_counters() {
        let c = Counters::new();
        let j = c.to_json();
        for key in [
            "queue_spills",
            "queue_refills",
            "ring_overflows",
            "msg_size_bytes",
            "flag_wait_ns",
            "queue_occupancy",
            "net_latency_ns",
            "retries",
            "drops",
            "corrupt_detected",
            "dup_suppressed",
            "detours",
            "acks",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
    }
}
