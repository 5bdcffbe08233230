//! Per-transfer latency attribution: the Figure-6 decomposition.
//!
//! The paper argues from *where a PUT's latency goes*: CPU issue, command
//! queue, DMA, network, delivery, flag update (Figure 6). [`XferLat`] is
//! one transfer's end-to-end latency cut into those contiguous segments;
//! [`SegmentHists`] aggregates many transfers into one [`Hist`] per
//! segment so a run report can answer "what is p99 queue wait?" directly;
//! [`XferTracker`] is the bookkeeping both simulators (the emulator kernel
//! and MLSim replay) use to cut in-flight transfers into segments as their
//! stages happen.
//!
//! Segments are defined to be contiguous and exhaustive: for a finished
//! transfer, `issue + queue + dma + net + delivery + flag` equals
//! `end - start` exactly (checked by [`XferLat::total`]'s callers in
//! tests), so the decomposition never invents or loses time.

use crate::hist::Hist;
use aputil::{IntMap, Json, SimTime};

/// What kind of transfer a latency record describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XferKind {
    /// One-sided PUT: data travels issuer → destination.
    Put,
    /// One-sided GET: request leg plus owner's reply leg, one record.
    Get,
    /// Anything else carrying a chain id (ring SEND, remote store, …);
    /// tagged for the critical path but not aggregated into PUT/GET hists.
    Other,
}

/// One transfer's end-to-end latency, decomposed into the Figure-6
/// segments. All segment fields are durations; `start`/`end` are absolute
/// sim times. For GETs the segments accumulate across both legs (request
/// and reply), still summing to `end - start` plus any owner-side overlap
/// absorbed into `queue`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct XferLat {
    pub kind: XferKind,
    /// Payload bytes moved (0 for a pure-flag PUT or a GET request leg).
    pub bytes: u64,
    /// When the issuing CPU started the operation.
    pub start: SimTime,
    /// When the data (or reply) finished landing at its destination.
    pub end: SimTime,
    /// CPU time spent issuing the descriptor (library overhead; for GETs
    /// also the owner's reply-issue cost under software handling).
    pub issue: SimTime,
    /// Time the command sat in an MSC+ TX queue (including any DRAM
    /// spill/refill service) before a DMA engine picked it up.
    pub queue: SimTime,
    /// Send-DMA occupancy: gathering the payload out of memory.
    pub dma: SimTime,
    /// T-net time: injection, per-hop latency, serialization, contention.
    pub net: SimTime,
    /// Destination-side delivery: receive-DMA (or software interrupt
    /// handler) scattering the payload into memory.
    pub delivery: SimTime,
    /// Flag fetch-and-increment after delivery. The MSC+ performs it as
    /// part of delivery, so this is 0 under both current timing models;
    /// kept so models that charge it separately have a slot.
    pub flag: SimTime,
}

impl XferLat {
    /// A fresh record: all segments zero, `end` not yet known.
    pub fn new(kind: XferKind, bytes: u64, start: SimTime) -> Self {
        XferLat {
            kind,
            bytes,
            start,
            end: start,
            issue: SimTime::ZERO,
            queue: SimTime::ZERO,
            dma: SimTime::ZERO,
            net: SimTime::ZERO,
            delivery: SimTime::ZERO,
            flag: SimTime::ZERO,
        }
    }

    /// End-to-end latency (`end - start`).
    pub fn total(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// Sum of the six segments — equals [`XferLat::total`] for transfers
    /// whose segments were recorded contiguously.
    pub fn segment_sum(&self) -> SimTime {
        self.issue + self.queue + self.dma + self.net + self.delivery + self.flag
    }
}

/// Per-segment latency histograms over many transfers, plus the
/// end-to-end total. Nanosecond samples throughout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentHists {
    pub issue: Hist,
    pub queue: Hist,
    pub dma: Hist,
    pub net: Hist,
    pub delivery: Hist,
    pub flag: Hist,
    pub total: Hist,
}

impl SegmentHists {
    pub fn new() -> Self {
        SegmentHists::default()
    }

    /// Number of transfers recorded.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// Adds one finished transfer.
    pub fn record(&mut self, x: &XferLat) {
        self.issue.record(x.issue.as_nanos());
        self.queue.record(x.queue.as_nanos());
        self.dma.record(x.dma.as_nanos());
        self.net.record(x.net.as_nanos());
        self.delivery.record(x.delivery.as_nanos());
        self.flag.record(x.flag.as_nanos());
        self.total.record(x.total().as_nanos());
    }

    /// Folds another block of segment histograms into this one.
    pub fn merge(&mut self, other: &SegmentHists) {
        self.issue.merge(&other.issue);
        self.queue.merge(&other.queue);
        self.dma.merge(&other.dma);
        self.net.merge(&other.net);
        self.delivery.merge(&other.delivery);
        self.flag.merge(&other.flag);
        self.total.merge(&other.total);
    }

    /// The seven `(name, histogram)` pairs in Figure-6 order, `total`
    /// last.
    pub fn segments(&self) -> [(&'static str, &Hist); 7] {
        [
            ("issue", &self.issue),
            ("queue", &self.queue),
            ("dma", &self.dma),
            ("net", &self.net),
            ("delivery", &self.delivery),
            ("flag", &self.flag),
            ("total", &self.total),
        ]
    }

    /// JSON form: per-segment summary stats with p50/p90/p99 (no bucket
    /// arrays — the summary is what reports consume).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.segments()
                .into_iter()
                .map(|(name, h)| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("count", Json::from(h.count())),
                            ("mean_ns", Json::from(h.mean())),
                            ("min_ns", Json::from(h.min())),
                            ("max_ns", Json::from(h.max())),
                            ("p50_ns", Json::from(h.p(0.5))),
                            ("p90_ns", Json::from(h.p(0.9))),
                            ("p99_ns", Json::from(h.p(0.99))),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Multi-line human rendering: one row per segment with mean share of
    /// the end-to-end total — the Figure-6 stacked bar in text.
    pub fn render(&self) -> String {
        if self.count() == 0 {
            return "no transfers".to_string();
        }
        let total_mean = self.total.mean().max(f64::MIN_POSITIVE);
        let mut out = String::new();
        for (name, h) in self.segments() {
            let share = if name == "total" {
                100.0
            } else {
                100.0 * h.mean() / total_mean
            };
            out.push_str(&format!(
                "{name:>8}: mean {:>10.0} ns  p50 {:>10.0}  p99 {:>10.0}  ({share:5.1}%)\n",
                h.mean(),
                h.p(0.5),
                h.p(0.99),
            ));
        }
        out.pop();
        out
    }
}

/// Figure-6 latency segment a stage charges its time to.
#[derive(Clone, Copy, Debug)]
pub enum Seg {
    Issue,
    Queue,
    Dma,
    Net,
    Delivery,
}

/// Latency attribution of the transfers in flight, by transfer-chain id.
///
/// Each in-flight record carries an attribution cursor — the sim time up
/// to which its end-to-end latency has been segmented. Stages that overlap
/// earlier ones (the emulator lets a DMA start while the issuing CPU span
/// is still open) charge only the uncovered remainder, so the segments
/// stay contiguous and sum exactly to the total. Finished PUTs and GETs
/// fold into the per-segment histograms.
#[derive(Clone, Debug, Default)]
pub struct XferTracker {
    inflight: IntMap<u64, (XferLat, SimTime)>,
    /// Figure-6 segment decomposition of every completed PUT.
    pub put_lat: SegmentHists,
    /// Same for GETs (request + reply legs combined).
    pub get_lat: SegmentHists,
}

impl XferTracker {
    pub fn new() -> Self {
        XferTracker::default()
    }

    /// Starts tracking transfer `tid`, issued at `now`.
    pub fn start(&mut self, tid: u64, kind: XferKind, bytes: u64, now: SimTime) {
        self.inflight
            .insert(tid, (XferLat::new(kind, bytes, now), now));
    }

    /// Advances transfer `tid`'s attribution cursor to `to`, charging the
    /// uncovered time to segment `seg`. Untracked ids are ignored.
    #[inline]
    pub fn charge(&mut self, tid: u64, seg: Seg, to: SimTime) {
        let Some((x, cursor)) = self.inflight.get_mut(&tid) else {
            return;
        };
        let d = to.saturating_sub(*cursor);
        match seg {
            Seg::Issue => x.issue += d,
            Seg::Queue => x.queue += d,
            Seg::Dma => x.dma += d,
            Seg::Net => x.net += d,
            Seg::Delivery => x.delivery += d,
        }
        *cursor += d;
    }

    /// Completes transfer `tid` at `end` and folds it into the
    /// per-segment histograms of its kind.
    pub fn finish(&mut self, tid: u64, end: SimTime) {
        let Some((mut x, cursor)) = self.inflight.remove(&tid) else {
            return;
        };
        // In the rare overlapped case the issue span can retire after the
        // payload lands; the op is only complete once both have.
        x.end = end.max(cursor);
        debug_assert_eq!(
            x.segment_sum(),
            x.total(),
            "transfer {tid} segments do not cover its latency: {x:?}"
        );
        match x.kind {
            XferKind::Put => self.put_lat.record(&x),
            XferKind::Get => self.get_lat.record(&x),
            XferKind::Other => {}
        }
    }

    /// Ids of the transfers still in flight, ascending — a completed run
    /// must leave none.
    pub fn unfinished(&self) -> Vec<u64> {
        let mut tids: Vec<u64> = self.inflight.keys().copied().collect();
        tids.sort_unstable();
        tids
    }

    /// `(PUTs, GETs)` currently in flight.
    pub fn inflight(&self) -> (u32, u32) {
        let (mut puts, mut gets) = (0, 0);
        for (x, _) in self.inflight.values() {
            match x.kind {
                XferKind::Put => puts += 1,
                XferKind::Get => gets += 1,
                XferKind::Other => {}
            }
        }
        (puts, gets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XferLat {
        let mut x = XferLat::new(XferKind::Put, 1024, SimTime::from_nanos(100));
        x.issue = SimTime::from_nanos(1000);
        x.queue = SimTime::from_nanos(50);
        x.dma = SimTime::from_nanos(12_788);
        x.net = SimTime::from_nanos(480);
        x.delivery = SimTime::from_nanos(12_788);
        x.end = x.start + x.segment_sum();
        x
    }

    #[test]
    fn segments_sum_to_total() {
        let x = sample();
        assert_eq!(x.segment_sum(), x.total());
    }

    #[test]
    fn record_feeds_every_segment() {
        let mut h = SegmentHists::new();
        h.record(&sample());
        h.record(&sample());
        assert_eq!(h.count(), 2);
        assert_eq!(h.queue.max(), 50);
        assert_eq!(h.flag.max(), 0);
        assert_eq!(h.total.max(), sample().total().as_nanos());
    }

    #[test]
    fn merge_matches_recording_both() {
        let mut a = SegmentHists::new();
        a.record(&sample());
        let mut b = SegmentHists::new();
        b.record(&sample());
        let mut all = SegmentHists::new();
        all.record(&sample());
        all.record(&sample());
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn json_carries_quantiles() {
        let mut h = SegmentHists::new();
        h.record(&sample());
        let j = h.to_json();
        let q = j.get("queue").unwrap();
        assert_eq!(q.get("p99_ns").and_then(|v| v.as_f64()), Some(50.0));
        assert!(j.get("total").is_some());
        assert!(h.render().contains("queue"));
    }

    #[test]
    fn tracker_charges_only_uncovered_time_and_sums_exactly() {
        let ns = SimTime::from_nanos;
        let mut t = XferTracker::new();
        t.start(1, XferKind::Put, 64, ns(100));
        t.start(2, XferKind::Get, 0, ns(100));
        assert_eq!(t.inflight(), (1, 1));
        t.charge(1, Seg::Issue, ns(1100));
        // The DMA started while the issue span was open: only the part
        // past the cursor is charged, and a stage wholly behind it is free.
        t.charge(1, Seg::Queue, ns(900));
        t.charge(1, Seg::Dma, ns(1500));
        t.charge(1, Seg::Net, ns(2000));
        t.charge(1, Seg::Delivery, ns(2300));
        t.charge(7, Seg::Net, ns(5000)); // untracked: ignored
        t.finish(1, ns(2300));
        assert_eq!(t.inflight(), (0, 1));
        assert_eq!(t.unfinished(), [2]);
        assert_eq!(t.put_lat.count(), 1);
        assert_eq!(t.put_lat.issue.max(), 1000);
        assert_eq!(t.put_lat.queue.max(), 0);
        assert_eq!(t.put_lat.dma.max(), 400);
        assert_eq!(t.put_lat.total.max(), 2200);
        // Finishing before the cursor completes at the cursor.
        t.charge(2, Seg::Issue, ns(1100));
        t.finish(2, ns(600));
        assert_eq!(t.get_lat.total.max(), 1000);
    }
}
