//! The T-net point-to-point timing model.
//!
//! A message injected at time `t` from `src` to `dst` arrives at
//!
//! ```text
//! arrival = t + network_prolog + network_delay · hops(src, dst)
//!             + network_msg_time · size
//! ```
//!
//! which is items (15)–(18) of the paper's Figure 7. On top of that the
//! model enforces two hardware properties:
//!
//! * **per-pair FIFO** — static routing means two messages between the same
//!   pair can never overtake each other;
//! * optional **port contention** — each cell has one injection channel and
//!   one ejection channel (25 MB/s each, Figure 5); with
//!   [`Contention::Ports`] a message occupies both for its serialization
//!   time, so bursts to one destination queue up.

use crate::torus::Torus;
use apfault::{FaultPlan, RouteVerdict};
use apobs::{Bucket, EvName, Hist, Recorder, TimelineEvent, Unit};
use apsim::Resource;
use aputil::{ApError, ApResult, CellId, IntMap, SimTime};

/// Timing parameters of the T-net (Figure 6 names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TNetParams {
    /// Fixed per-message network startup (`network_prolog_time`).
    pub prolog: SimTime,
    /// Per-hop latency (`network_delay_time`).
    pub per_hop: SimTime,
    /// Per-byte serialization time (`network_msg_time`); 25 MB/s ⇒ 40 ns/B.
    pub per_byte: SimTime,
}

impl Default for TNetParams {
    /// The AP1000 hardware numbers: 0.16 µs prolog, 0.16 µs per hop,
    /// 25 MB/s channels. Figure 6's network column is written here only:
    /// the emulator's `HwParams` and every MLSim model take it as is. The
    /// rest of the AP1000+ column is [`crate::CostParams`].
    fn default() -> Self {
        TNetParams {
            prolog: SimTime::from_micros_f64(0.16),
            per_hop: SimTime::from_micros_f64(0.16),
            per_byte: SimTime::from_nanos(40),
        }
    }
}

/// How much of the network's internal contention to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Contention {
    /// Pure latency model — what the paper's MLSim uses ("MLSim simulates
    /// communication behavior … with a delay parameter").
    #[default]
    None,
    /// Injection/ejection channels serialize messages (Figure 5: four
    /// 25 MB/s channels per cell; we model one in + one out).
    Ports,
    /// Every directed torus link on the static dimension-order route is a
    /// serially-occupied 25 MB/s channel: messages crossing a shared link
    /// queue behind each other (wormhole head-of-line blocking).
    Links,
}

/// Outcome of a transfer attempted under a fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The packet reached its destination.
    Delivered {
        /// Arrival time at the destination.
        at: SimTime,
        /// `true` if it travelled the Y-then-X detour around a known
        /// link outage.
        detoured: bool,
    },
    /// The packet was lost (undiscovered outage, or the detour was also
    /// down); the sender's ack timeout recovers it.
    Dropped,
}

/// Aggregate T-net statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TNetStats {
    /// Messages carried.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Sum of hop counts (for mean-distance reporting).
    pub total_hops: u64,
}

/// Observability side-channel of the T-net: histograms are always
/// collected (they are two array increments per message); timeline events
/// are buffered only after [`TNet::enable_events`].
#[derive(Clone, Debug, Default)]
pub struct TNetObs {
    recorder: Recorder,
    /// Payload bytes per message.
    pub msg_size: Hist,
    /// End-to-end transit nanoseconds per message (prolog + hops +
    /// serialization, including contention stalls and FIFO holds).
    pub latency: Hist,
}

/// Per-directed-link busy accumulators for the sampled-metrics layer.
/// Kept behind an `Option` so metrics-off runs pay nothing (not even the
/// route computation on the `Contention::None`/`Ports` fast paths).
#[derive(Clone, Debug, Default)]
struct LinkStats {
    /// Cumulative link-transmission time summed over every link crossing
    /// (one message over `h` hops charges `h` transmission times).
    total_busy: SimTime,
    /// Busy time per directed link.
    per_link: IntMap<(CellId, CellId), SimTime>,
}

/// The T-net: topology + timing + ordering state.
#[derive(Clone, Debug)]
pub struct TNet {
    torus: Torus,
    params: TNetParams,
    contention: Contention,
    in_port: Vec<Resource>,
    out_port: Vec<Resource>,
    links: IntMap<(CellId, CellId), Resource>,
    last_arrival: IntMap<(CellId, CellId), SimTime>,
    stats: TNetStats,
    obs: TNetObs,
    link_stats: Option<LinkStats>,
}

impl TNet {
    /// Creates a T-net over `torus` with the given timing and contention
    /// model.
    pub fn new(torus: Torus, params: TNetParams, contention: Contention) -> Self {
        let n = torus.ncells() as usize;
        TNet {
            torus,
            params,
            contention,
            in_port: vec![Resource::new(); n],
            out_port: vec![Resource::new(); n],
            links: IntMap::default(),
            last_arrival: IntMap::default(),
            stats: TNetStats::default(),
            obs: TNetObs::default(),
            link_stats: None,
        }
    }

    /// The underlying topology.
    pub fn torus(&self) -> Torus {
        self.torus
    }

    /// Per-byte serialization cost of a `size`-byte payload; an overflow
    /// of the sim-time range is a configuration error surfaced as
    /// [`ApError::InvalidArg`], never silently clamped.
    fn serialize_cost(&self, src: CellId, dst: CellId, size: u64) -> ApResult<SimTime> {
        self.params.per_byte.checked_mul(size).ok_or_else(|| {
            ApError::InvalidArg(format!(
                "T-net cost overflow: {size} B at {} per byte from {src} to {dst} \
                 exceeds the sim-time range",
                self.params.per_byte
            ))
        })
    }

    /// Statistics so far.
    pub fn stats(&self) -> TNetStats {
        self.stats
    }

    /// Observability state (message-size and latency histograms).
    pub fn obs(&self) -> &TNetObs {
        &self.obs
    }

    /// Starts recording per-message timeline events (injection spans on
    /// the source's net track, hop instants along the route, a delivery
    /// instant at the destination) as `mode` says — buffered, into a
    /// flight-recorder ring, or streamed to a shared sink (typically the
    /// one the kernel's recorder streams to).
    pub fn enable_events(&mut self, mode: apobs::TimelineMode) {
        self.obs.recorder = Recorder::new(mode);
    }

    /// Drains the buffered timeline events.
    pub fn take_events(&mut self) -> Vec<TimelineEvent> {
        self.obs.recorder.take_events()
    }

    /// Starts accumulating per-link busy time (the sampled-metrics tap;
    /// off by default because it walks the route of every message).
    pub fn enable_link_stats(&mut self) {
        self.link_stats = Some(LinkStats::default());
    }

    /// Cumulative link-busy time so far ([`SimTime::ZERO`] when
    /// [`TNet::enable_link_stats`] was never called).
    pub fn link_busy_total(&self) -> SimTime {
        self.link_stats
            .as_ref()
            .map_or(SimTime::ZERO, |ls| ls.total_busy)
    }

    /// Per-directed-link busy time, sorted by `(from, to)` for
    /// deterministic export. Empty when link stats are off.
    pub fn link_busy_per_link(&self) -> Vec<(CellId, CellId, SimTime)> {
        let Some(ls) = &self.link_stats else {
            return Vec::new();
        };
        let mut v: Vec<(CellId, CellId, SimTime)> =
            ls.per_link.iter().map(|(&(a, b), &t)| (a, b, t)).collect();
        v.sort_unstable_by_key(|&(a, b, _)| (a, b));
        v
    }

    /// Injects a `size`-byte message at time `now`; returns its arrival
    /// time at `dst`. Delivery between the same `(src, dst)` pair is
    /// guaranteed nondecreasing (FIFO), like the real statically-routed
    /// wormhole T-net.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` are outside the torus.
    pub fn transfer(&mut self, now: SimTime, src: CellId, dst: CellId, size: u64) -> SimTime {
        self.transfer_tagged(now, src, dst, size, 0)
    }

    /// Like [`TNet::transfer`], but tags the emitted timeline events with
    /// transfer-chain id `tid` so the network leg joins the issuing
    /// operation's causality chain (critical-path reconstruction).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` are outside the torus.
    pub fn transfer_tagged(
        &mut self,
        now: SimTime,
        src: CellId,
        dst: CellId,
        size: u64,
        tid: u64,
    ) -> SimTime {
        let route = self.torus.route_iter(src, dst);
        let hops = route.hops();
        let serialize = self
            .serialize_cost(src, dst, size)
            .unwrap_or_else(|e| panic!("{e}"));
        let arrival = self.contended_arrival(now, src, dst, serialize, route.clone(), hops);
        self.finish(now, src, dst, size, arrival, tid, route, hops)
    }

    /// Arrival time of a message injected at `now` along `route` under the
    /// configured contention model, before the per-pair FIFO hold.
    fn contended_arrival(
        &mut self,
        now: SimTime,
        src: CellId,
        dst: CellId,
        serialize: SimTime,
        route: impl Iterator<Item = CellId>,
        hops: u32,
    ) -> SimTime {
        match self.contention {
            Contention::Links => {
                // Wormhole over the route: the head advances one hop per
                // `per_hop`, each directed link holds the message for its
                // serialization time, and a busy link stalls the whole worm.
                let mut head = now + self.params.prolog;
                for link in links(route) {
                    let (start, _) = self.links.entry(link).or_default().reserve(head, serialize);
                    head = start + self.params.per_hop;
                }
                head + serialize
            }
            Contention::Ports => {
                // Hold the sender's injection channel for the serialization
                // time, then the receiver's ejection channel.
                let (_, inj_end) = self.out_port[src.index()].reserve(now, serialize);
                let depart = inj_end - serialize; // wormhole: head leaves when channel granted
                let head_at_dst = depart + self.params.prolog + self.params.per_hop * hops as u64;
                let (_, ej_end) = self.in_port[dst.index()].reserve(head_at_dst, serialize);
                ej_end
            }
            Contention::None => {
                now + self.params.prolog + self.params.per_hop * hops as u64 + serialize
            }
        }
    }

    /// Like [`TNet::transfer_tagged`], but consulting a [`FaultPlan`]:
    /// link outages on the static route drop the first crossing and steer
    /// later packets onto the Y-then-X detour, and injected per-pair
    /// delays stretch the arrival. The fault-free entry points never call
    /// this, so their timing is untouched by the fault layer.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::InvalidArg`] on an empty route (which would
    /// otherwise underflow into a huge hop count) or when the
    /// serialization cost overflows the sim-time range.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` are outside the torus.
    pub fn transfer_faulty(
        &mut self,
        now: SimTime,
        src: CellId,
        dst: CellId,
        size: u64,
        tid: u64,
        plan: &mut FaultPlan,
    ) -> ApResult<Delivery> {
        let primary = self.torus.route(src, dst);
        let (route, detoured) = match plan.route_verdict(&primary, now, false) {
            RouteVerdict::Deliver => (primary, false),
            RouteVerdict::Drop => {
                self.note_drop(src, now, size, tid);
                return Ok(Delivery::Dropped);
            }
            RouteVerdict::Detour => {
                let alt = self.torus.route_yx(src, dst);
                match plan.route_verdict(&alt, now, true) {
                    RouteVerdict::Deliver => {
                        plan.report.detours += 1;
                        (alt, true)
                    }
                    _ => {
                        // Same-row/column pairs have no distinct detour;
                        // the retry protocol waits the outage out.
                        self.note_drop(src, now, size, tid);
                        return Ok(Delivery::Dropped);
                    }
                }
            }
        };
        let hops = route.len().checked_sub(1).ok_or_else(|| {
            ApError::InvalidArg(format!(
                "T-net route from {src} to {dst} is empty — a zero-length route \
                 would underflow into a wrapped hop count"
            ))
        })? as u32;
        let serialize = self.serialize_cost(src, dst, size)?;
        let arrival = self.contended_arrival(now, src, dst, serialize, route.iter().copied(), hops)
            + plan.delay(src, dst, now);
        if detoured && self.obs.recorder.is_enabled() {
            self.obs.recorder.instant_id(
                src.as_u32(),
                Unit::Net,
                EvName::Detour,
                now,
                Bucket::Hw,
                size,
                tid,
            );
        }
        let at = self.finish(
            now,
            src,
            dst,
            size,
            arrival,
            tid,
            route.iter().copied(),
            hops,
        );
        Ok(Delivery::Delivered { at, detoured })
    }

    /// Marks a packet lost in the network on the timeline.
    fn note_drop(&mut self, src: CellId, now: SimTime, size: u64, tid: u64) {
        if self.obs.recorder.is_enabled() {
            self.obs.recorder.instant_id(
                src.as_u32(),
                Unit::Net,
                EvName::Drop,
                now,
                Bucket::Hw,
                size,
                tid,
            );
        }
    }

    /// Applies the per-pair FIFO hold and books the message. `route` is
    /// the path actually taken (`hops` links long): the static route walked
    /// as an iterator, or the detour the fault layer chose.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        now: SimTime,
        src: CellId,
        dst: CellId,
        size: u64,
        arrival: SimTime,
        tid: u64,
        route: impl Iterator<Item = CellId> + Clone,
        hops: u32,
    ) -> SimTime {
        let slot = self.last_arrival.entry((src, dst)).or_insert(SimTime::ZERO);
        let arrival = arrival.max(*slot);
        *slot = arrival;
        self.stats.messages += 1;
        self.stats.bytes += size;
        self.stats.total_hops += hops as u64;
        self.obs.msg_size.record(size);
        self.obs
            .latency
            .record(arrival.saturating_sub(now).as_nanos());
        if let Some(ls) = &mut self.link_stats {
            // Each directed link holds the message for one hop delay
            // plus its serialization time. `SimTime`'s `+`/`*` are
            // checked: an overflow panics with context instead of
            // clamping the busy accumulators.
            let tx = self.params.per_hop
                + self
                    .params
                    .per_byte
                    .checked_mul(size)
                    .expect("T-net link-busy cost overflowed the sim-time range");
            ls.total_busy += tx * hops as u64;
            for link in links(route.clone()) {
                *ls.per_link.entry(link).or_insert(SimTime::ZERO) += tx;
            }
        }
        if self.obs.recorder.is_enabled() {
            self.record_route_events(now, src, dst, size, arrival, tid, route);
        }
        arrival
    }

    /// The per-message timeline events along `route`.
    #[allow(clippy::too_many_arguments)]
    fn record_route_events(
        &mut self,
        now: SimTime,
        src: CellId,
        dst: CellId,
        size: u64,
        arrival: SimTime,
        tid: u64,
        route: impl Iterator<Item = CellId>,
    ) {
        self.obs.recorder.span_id(
            src.as_u32(),
            Unit::Net,
            EvName::Transfer,
            now,
            arrival.saturating_sub(now),
            Bucket::Hw,
            size,
            tid,
        );
        // Nominal head-advance times along the static route (or the
        // detour actually taken); contention stalls show up as the gap
        // to the delivery instant.
        let head = now + self.params.prolog;
        for (k, cell) in route.enumerate().skip(1) {
            if cell != dst {
                self.obs.recorder.instant_id(
                    cell.as_u32(),
                    Unit::Net,
                    EvName::Hop,
                    head + self.params.per_hop * k as u64,
                    Bucket::Hw,
                    size,
                    tid,
                );
            }
        }
        self.obs.recorder.instant_id(
            dst.as_u32(),
            Unit::Net,
            EvName::Deliver,
            arrival,
            Bucket::Hw,
            size,
            tid,
        );
    }
}

/// The directed links a route crosses, in order.
fn links(route: impl Iterator<Item = CellId>) -> impl Iterator<Item = (CellId, CellId)> {
    let mut from = None;
    route.filter_map(move |to| from.replace(to).map(|from| (from, to)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(contention: Contention) -> TNet {
        TNet::new(Torus::new(4, 4), TNetParams::default(), contention)
    }

    #[test]
    fn latency_formula_matches_figure7() {
        let mut n = net(Contention::None);
        let src = CellId::new(0);
        let dst = CellId::new(3); // 1 hop away on 4-wide torus (wrap)
        let hops = n.torus().route_iter(src, dst).hops();
        assert_eq!(hops, 1);
        let t = n.transfer(SimTime::ZERO, src, dst, 100);
        // 160 prolog + 160*1 hop + 40*100 bytes = 4320 ns
        assert_eq!(t.as_nanos(), 160 + 160 + 4000);
    }

    #[test]
    fn zero_byte_message_is_pure_latency() {
        let mut n = net(Contention::None);
        let t = n.transfer(SimTime::ZERO, CellId::new(0), CellId::new(1), 0);
        assert_eq!(t.as_nanos(), 160 + 160);
    }

    #[test]
    fn per_pair_fifo_holds_even_for_shrinking_messages() {
        let mut n = net(Contention::None);
        let (a, b) = (CellId::new(0), CellId::new(5));
        // Big message first, tiny message a moment later: the tiny one must
        // NOT arrive earlier.
        let t1 = n.transfer(SimTime::ZERO, a, b, 100_000);
        let t2 = n.transfer(SimTime::from_nanos(10), a, b, 4);
        assert!(t2 >= t1, "t2={t2:?} overtook t1={t1:?}");
    }

    #[test]
    fn distinct_pairs_do_not_interfere_without_contention() {
        let mut n = net(Contention::None);
        let t1 = n.transfer(SimTime::ZERO, CellId::new(0), CellId::new(1), 1_000_000);
        let t2 = n.transfer(SimTime::ZERO, CellId::new(2), CellId::new(3), 4);
        assert!(t2 < t1);
    }

    #[test]
    fn port_contention_serializes_sends() {
        let mut n = net(Contention::Ports);
        let src = CellId::new(0);
        // Two 1000-byte messages to different destinations leave the same
        // injection channel back to back.
        let t1 = n.transfer(SimTime::ZERO, src, CellId::new(1), 1000);
        let t2 = n.transfer(SimTime::ZERO, src, CellId::new(2), 1000);
        assert!(t2 >= t1, "second send must finish no earlier");
        assert!(t2.as_nanos() >= 2 * 40_000, "serialization must stack");
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(Contention::None);
        n.transfer(SimTime::ZERO, CellId::new(0), CellId::new(1), 10);
        n.transfer(SimTime::ZERO, CellId::new(1), CellId::new(0), 20);
        let s = n.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 30);
        assert_eq!(s.total_hops, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// FIFO per pair under arbitrary interleavings, both contention
        /// models, and arrival is never before injection + minimum latency.
        #[test]
        fn fifo_and_causality(
            msgs in proptest::collection::vec((0u64..1000, 0u32..16, 0u32..16, 0u64..5000), 1..60),
            model in 0u8..3,
        ) {
            let c = match model {
                0 => Contention::None,
                1 => Contention::Ports,
                _ => Contention::Links,
            };
            let mut n = TNet::new(Torus::new(4, 4), TNetParams::default(), c);
            let mut last: HashMap<(u32, u32), SimTime> = HashMap::new();
            // Feed messages in nondecreasing injection order.
            let mut sorted = msgs;
            sorted.sort_by_key(|m| m.0);
            for (t, s, d, size) in sorted {
                let now = SimTime::from_nanos(t);
                let arr = n.transfer(now, CellId::new(s), CellId::new(d), size);
                prop_assert!(arr >= now + TNetParams::default().prolog);
                let e = last.entry((s, d)).or_insert(SimTime::ZERO);
                prop_assert!(arr >= *e, "FIFO violated for pair ({s},{d})");
                *e = arr;
            }
        }
    }
}

#[cfg(test)]
mod link_contention_tests {
    use super::*;

    fn net() -> TNet {
        TNet::new(Torus::new(4, 1), TNetParams::default(), Contention::Links)
    }

    #[test]
    fn shared_link_serializes_flows() {
        // 0→2 and 1→2 both cross link 1→2 on a 4×1 ring.
        let mut n = net();
        let t1 = n.transfer(SimTime::ZERO, CellId::new(0), CellId::new(2), 10_000);
        let t2 = n.transfer(SimTime::ZERO, CellId::new(1), CellId::new(2), 10_000);
        // Each message serializes 400 µs on the shared link: no overlap.
        assert!(
            t2.as_nanos() >= t1.as_nanos() + 300_000,
            "t1 {t1}, t2 {t2} — expected head-of-line blocking"
        );
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let mut n = net();
        let t1 = n.transfer(SimTime::ZERO, CellId::new(0), CellId::new(1), 10_000);
        let t2 = n.transfer(SimTime::ZERO, CellId::new(2), CellId::new(3), 10_000);
        assert!(t2.as_nanos() < t1.as_nanos() + 1_000, "t1 {t1}, t2 {t2}");
    }

    #[test]
    fn links_model_is_never_faster_than_pure_latency() {
        let mut lat = TNet::new(Torus::new(4, 4), TNetParams::default(), Contention::None);
        let mut lnk = TNet::new(Torus::new(4, 4), TNetParams::default(), Contention::Links);
        for (s, d, b) in [
            (0u32, 5u32, 100u64),
            (1, 5, 2000),
            (0, 15, 40),
            (3, 12, 999),
        ] {
            let a = lat.transfer(SimTime::ZERO, CellId::new(s), CellId::new(d), b);
            let c = lnk.transfer(SimTime::ZERO, CellId::new(s), CellId::new(d), b);
            assert!(
                c >= a.saturating_sub(SimTime::from_nanos(200)),
                "{s}->{d}: {c} < {a}"
            );
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use apfault::{FaultEvent, FaultKind, FaultSpec, RecoveryParams};

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    fn outage_plan(from: u32, to: u32, until_ns: u64) -> FaultPlan {
        FaultPlan::new(&FaultSpec {
            seed: None,
            recovery: RecoveryParams::default(),
            events: vec![FaultEvent {
                from: SimTime::ZERO,
                until: SimTime::from_nanos(until_ns),
                kind: FaultKind::LinkDown {
                    from: c(from),
                    to: c(to),
                },
            }],
        })
    }

    #[test]
    fn outage_drops_first_then_detours() {
        let mut n = TNet::new(Torus::new(4, 4), TNetParams::default(), Contention::None);
        // 0 -> 6 routes X then Y through link 1->2 at (1,0)->(2,0).
        let (src, dst) = (c(0), c(6));
        assert!(n
            .torus()
            .route(src, dst)
            .windows(2)
            .any(|w| w == [c(1), c(2)]));
        let mut plan = outage_plan(1, 2, 1_000_000);
        // Discovery: first crossing is lost.
        assert_eq!(
            n.transfer_faulty(SimTime::ZERO, src, dst, 100, 0, &mut plan)
                .unwrap(),
            Delivery::Dropped
        );
        // Retry detours Y-then-X and arrives with the same hop count.
        let retry_at = SimTime::from_nanos(10_000);
        let d = n
            .transfer_faulty(retry_at, src, dst, 100, 0, &mut plan)
            .unwrap();
        let Delivery::Delivered { at, detoured } = d else {
            panic!("retry should detour, got {d:?}");
        };
        assert!(detoured);
        let hops = n.torus().route_iter(src, dst).hops() as u64;
        assert_eq!(
            at.as_nanos() - retry_at.as_nanos(),
            160 + 160 * hops + 40 * 100
        );
        assert_eq!(plan.report.drops, 1);
        assert_eq!(plan.report.detours, 1);
        // After the window heals the primary route is back in use.
        let healed = n
            .transfer_faulty(SimTime::from_nanos(2_000_000), src, dst, 100, 0, &mut plan)
            .unwrap();
        assert!(matches!(
            healed,
            Delivery::Delivered {
                detoured: false,
                ..
            }
        ));
    }

    #[test]
    fn same_row_outage_has_no_detour() {
        let mut n = TNet::new(Torus::new(4, 4), TNetParams::default(), Contention::None);
        let (src, dst) = (c(0), c(2)); // pure X move through 0->1->2
        let mut plan = outage_plan(0, 1, 1_000_000);
        assert_eq!(
            n.transfer_faulty(SimTime::ZERO, src, dst, 4, 0, &mut plan)
                .unwrap(),
            Delivery::Dropped,
            "discovery"
        );
        assert_eq!(
            n.transfer_faulty(SimTime::from_nanos(100), src, dst, 4, 0, &mut plan)
                .unwrap(),
            Delivery::Dropped,
            "detour equals the primary route, so the packet is lost again"
        );
        assert_eq!(plan.report.drops, 2);
        assert_eq!(plan.report.detours, 0);
        // The outage end restores delivery.
        assert!(matches!(
            n.transfer_faulty(SimTime::from_nanos(1_000_000), src, dst, 4, 0, &mut plan)
                .unwrap(),
            Delivery::Delivered {
                detoured: false,
                ..
            }
        ));
    }

    #[test]
    fn injected_delay_stretches_arrival_but_keeps_fifo() {
        let mut n = TNet::new(Torus::new(4, 4), TNetParams::default(), Contention::None);
        let mut plan = FaultPlan::new(&FaultSpec {
            seed: None,
            recovery: RecoveryParams::default(),
            events: vec![FaultEvent {
                from: SimTime::ZERO,
                until: SimTime::from_nanos(500),
                kind: FaultKind::Delay {
                    src: c(0),
                    dst: c(1),
                    extra: SimTime::from_nanos(7_000),
                },
            }],
        });
        let Delivery::Delivered { at: slow, .. } = n
            .transfer_faulty(SimTime::ZERO, c(0), c(1), 0, 0, &mut plan)
            .unwrap()
        else {
            panic!("delayed packet must still deliver")
        };
        assert_eq!(slow.as_nanos(), 160 + 160 + 7_000);
        // A packet sent after the window would land earlier on its own,
        // but per-pair FIFO holds it behind the delayed one.
        let Delivery::Delivered { at: held, .. } = n
            .transfer_faulty(SimTime::from_nanos(600), c(0), c(1), 0, 0, &mut plan)
            .unwrap()
        else {
            panic!()
        };
        assert!(held >= slow, "FIFO must hold under injected delay");
    }

    #[test]
    fn faulty_transfer_without_matching_events_prices_like_the_clean_path() {
        let mut clean = TNet::new(Torus::new(4, 4), TNetParams::default(), Contention::Links);
        let mut faulty = TNet::new(Torus::new(4, 4), TNetParams::default(), Contention::Links);
        let mut plan = outage_plan(3, 0, 10); // never crossed after t=10
        for (t, s, d, b) in [
            (100u64, 0u32, 5u32, 64u64),
            (120, 1, 5, 800),
            (130, 0, 5, 8),
        ] {
            let now = SimTime::from_nanos(t);
            let want = clean.transfer_tagged(now, c(s), c(d), b, 0);
            let got = faulty
                .transfer_faulty(now, c(s), c(d), b, 0, &mut plan)
                .unwrap();
            assert_eq!(
                got,
                Delivery::Delivered {
                    at: want,
                    detoured: false
                }
            );
        }
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;

    #[test]
    fn histograms_collect_without_enabling_events() {
        let mut n = TNet::new(Torus::new(4, 4), TNetParams::default(), Contention::None);
        n.transfer(SimTime::ZERO, CellId::new(0), CellId::new(5), 128);
        assert_eq!(n.obs().msg_size.count(), 1);
        assert_eq!(n.obs().msg_size.max(), 128);
        assert!(n.obs().latency.min() > 0);
        assert!(n.take_events().is_empty(), "events need enable_events()");
    }

    #[test]
    fn events_cover_injection_hops_and_delivery() {
        let mut n = TNet::new(Torus::new(4, 4), TNetParams::default(), Contention::None);
        n.enable_events(apobs::TimelineMode::Full);
        let (src, dst) = (CellId::new(0), CellId::new(2)); // 2 hops on a 4-wide ring row
        let arrival = n.transfer(SimTime::ZERO, src, dst, 64);
        let evs = n.take_events();
        let inject: Vec<_> = evs.iter().filter(|e| e.name == EvName::Transfer).collect();
        assert_eq!(inject.len(), 1);
        assert_eq!(inject[0].cell, src.as_u32());
        assert_eq!(inject[0].end(), arrival);
        assert_eq!(
            evs.iter().filter(|e| e.name == EvName::Hop).count() as u32,
            n.torus().route_iter(src, dst).hops() - 1
        );
        let deliver: Vec<_> = evs.iter().filter(|e| e.name == EvName::Deliver).collect();
        assert_eq!(deliver.len(), 1);
        assert_eq!(deliver[0].cell, dst.as_u32());
        assert_eq!(deliver[0].start, arrival);
        assert!(n.take_events().is_empty(), "drained");
    }
}
