//! Fault schedules and recovery parameters.

use aputil::{CellId, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tunables of the ack/retry recovery protocol.
///
/// Every non-loopback packet sent under a fault plan carries a sequence
/// number and is acknowledged by the receiver. If the ack has not arrived
/// within [`timeout_for`](RecoveryParams::timeout_for) the packet is
/// retransmitted, with the timeout doubling per attempt up to
/// `backoff_cap`; after `max_retries` retransmissions the packet is
/// declared undeliverable and the run aborts with a structured
/// [`aputil::FaultReport`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryParams {
    /// Base ack timeout for the first attempt.
    pub ack_timeout: SimTime,
    /// Upper bound on the backed-off timeout.
    pub backoff_cap: SimTime,
    /// Retransmissions allowed per packet (first send not counted).
    pub max_retries: u32,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        // The base timeout must exceed a contended round trip (a few
        // hundred µs covers every workload transfer at paper scale); the
        // cap keeps the total give-up horizon within a few ms so an
        // unsurvivable schedule aborts quickly.
        RecoveryParams {
            ack_timeout: SimTime::from_nanos(400_000),
            backoff_cap: SimTime::from_nanos(3_200_000),
            max_retries: 8,
        }
    }
}

impl RecoveryParams {
    /// Timeout armed for attempt number `attempt` (1 = first send):
    /// `min(ack_timeout * 2^(attempt-1), backoff_cap)`.
    pub fn timeout_for(&self, attempt: u32) -> SimTime {
        let shift = attempt.saturating_sub(1).min(20);
        let ns = self.ack_timeout.as_nanos().saturating_mul(1u64 << shift);
        SimTime::from_nanos(ns.min(self.backoff_cap.as_nanos()))
    }
}

/// What kind of fault an event injects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The directed T-net link `from -> to` drops every packet routed
    /// across it while the event is active. The first packet to cross it
    /// is lost outright ("discovery"); subsequent packets take the
    /// deterministic Y-then-X detour.
    LinkDown {
        /// Upstream end of the dead link.
        from: CellId,
        /// Downstream end.
        to: CellId,
    },
    /// Every packet `src -> dst` sent inside the window is delivered
    /// `extra` later than it otherwise would be.
    Delay {
        /// Sending cell.
        src: CellId,
        /// Destination cell.
        dst: CellId,
        /// Additional latency.
        extra: SimTime,
    },
    /// The next `count` packets `src -> dst` sent inside the window have
    /// their payload checksum flipped in flight; the receiver detects the
    /// mismatch and discards them, forcing a retransmission.
    Corrupt {
        /// Sending cell.
        src: CellId,
        /// Destination cell.
        dst: CellId,
        /// Packets to corrupt.
        count: u32,
    },
    /// Fail-stop crash of one cell at the window start (`until` is
    /// ignored): the cell issues nothing further, every packet addressed
    /// to it is black-holed, and barriers it participates in abort.
    Crash {
        /// The doomed cell.
        cell: CellId,
    },
    /// The B-net refuses broadcasts during the window; they complete at
    /// the window's end instead (delayed, not lost — the B-net is a
    /// single shared medium with no alternate route).
    BnetDown,
}

impl FaultKind {
    /// The cells the fault names (none for a B-net outage).
    pub fn cells(&self) -> Vec<CellId> {
        match *self {
            FaultKind::LinkDown { from, to } => vec![from, to],
            FaultKind::Delay { src, dst, .. } | FaultKind::Corrupt { src, dst, .. } => {
                vec![src, dst]
            }
            FaultKind::Crash { cell } => vec![cell],
            FaultKind::BnetDown => Vec::new(),
        }
    }
}

/// One scheduled fault: `kind` is active for simulated times
/// `from <= t < until`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// The fault.
    pub kind: FaultKind,
}

/// A complete, deterministic fault schedule. The default is the quiet
/// one: the recovery protocol runs (seq/ack/dedup) but nothing is ever
/// injected.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultSpec {
    /// Seed the schedule was derived from (`None` for hand-written specs).
    pub seed: Option<u64>,
    /// Recovery-protocol tunables.
    pub recovery: RecoveryParams,
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl FaultSpec {
    /// Derives a whole schedule from one seed, for the chaos fuzzer.
    ///
    /// A survivable schedule mixes link outages, delays, corruption, and
    /// B-net outages — everything the recovery protocol can ride out. An
    /// unsurvivable one adds at least one fail-stop crash.
    pub fn random(seed: u64, ncells: u32, survivable: bool) -> FaultSpec {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa17);
        let mut events = Vec::new();
        let cell = |rng: &mut SmallRng| CellId::new(rng.gen_range(0..ncells.max(1)));
        for _ in 0..rng.gen_range(1usize..=3) {
            let from_ns = rng.gen_range(0u64..1_500_000);
            let until_ns = from_ns + rng.gen_range(200_000u64..2_000_000);
            let kind = match rng.gen_range(0u32..6) {
                // Link outages are the most interesting survivable fault;
                // weight them higher. `to` is the ring successor, which is
                // a real torus hop for most cells.
                0..=2 => {
                    let a = rng.gen_range(0..ncells.max(1));
                    FaultKind::LinkDown {
                        from: CellId::new(a),
                        to: CellId::new((a + 1) % ncells.max(1)),
                    }
                }
                3 => FaultKind::Delay {
                    src: cell(&mut rng),
                    dst: cell(&mut rng),
                    extra: SimTime::from_nanos(rng.gen_range(1_000u64..60_000)),
                },
                4 => FaultKind::Corrupt {
                    src: cell(&mut rng),
                    dst: cell(&mut rng),
                    count: rng.gen_range(1u32..=2),
                },
                _ => FaultKind::BnetDown,
            };
            events.push(FaultEvent {
                from: SimTime::from_nanos(from_ns),
                until: SimTime::from_nanos(until_ns),
                kind,
            });
        }
        if !survivable {
            let at = SimTime::from_nanos(rng.gen_range(50_000u64..1_000_000));
            events.push(FaultEvent {
                from: at,
                until: at,
                kind: FaultKind::Crash {
                    cell: cell(&mut rng),
                },
            });
        }
        events.sort_by_key(|e| (e.from, e.until));
        FaultSpec {
            seed: Some(seed),
            recovery: RecoveryParams::default(),
            events,
        }
    }

    /// `true` if the schedule contains no fail-stop crash — the recovery
    /// protocol can ride out everything else.
    pub fn is_survivable(&self) -> bool {
        !self
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Crash { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let r = RecoveryParams {
            ack_timeout: SimTime::from_nanos(100),
            backoff_cap: SimTime::from_nanos(350),
            max_retries: 4,
        };
        assert_eq!(r.timeout_for(1).as_nanos(), 100);
        assert_eq!(r.timeout_for(2).as_nanos(), 200);
        assert_eq!(r.timeout_for(3).as_nanos(), 350);
        assert_eq!(r.timeout_for(10).as_nanos(), 350);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = FaultSpec::random(7, 16, true);
        let b = FaultSpec::random(7, 16, true);
        assert_eq!(a, b);
        let c = FaultSpec::random(8, 16, true);
        assert_ne!(
            a, c,
            "different seeds should differ (schedule space is large)"
        );
    }

    #[test]
    fn survivability_classification() {
        for seed in 0..20 {
            assert!(FaultSpec::random(seed, 9, true).is_survivable());
            assert!(!FaultSpec::random(seed, 9, false).is_survivable());
        }
        assert!(FaultSpec::default().is_survivable());
    }

    #[test]
    fn events_are_time_sorted() {
        for seed in 0..20 {
            let s = FaultSpec::random(seed, 4, false);
            for w in s.events.windows(2) {
                assert!(w[0].from <= w[1].from);
            }
        }
    }
}
