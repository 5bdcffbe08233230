//! Runtime state of one fault schedule.
//!
//! A [`FaultPlan`] is the mutable companion the kernel and T-net consult
//! while a run executes: which link outages have been *discovered* (first
//! crossing drops the packet, later ones detour), how many corruptions an
//! event still owes, which delays have fired. Everything it observes lands
//! in its embedded [`FaultReport`], which is what the run ultimately
//! exposes.

use crate::spec::{FaultEvent, FaultKind, FaultSpec, RecoveryParams};
use aputil::{CellId, FaultReport, InjectedFault, SimTime};

/// What the network should do with a packet about to travel `route`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteVerdict {
    /// No active outage on the route: deliver normally.
    Deliver,
    /// The packet crossed an undiscovered (or unavoidable) outage and is
    /// lost; the sender's ack timeout will recover it.
    Drop,
    /// The route crosses a *known* outage: the sender should re-route via
    /// the deterministic Y-then-X detour.
    Detour,
}

/// Mutable runtime state for one schedule. Create one per run with
/// [`FaultPlan::new`]; the kernel threads it through the network layer and
/// harvests [`FaultPlan::report`] at the end.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Per-event: a `LinkDown` has been discovered (its first victim
    /// dropped), a `Delay`/`BnetDown` has been recorded in the report.
    noted: Vec<bool>,
    /// Per-event: corruptions this `Corrupt` event still owes.
    corrupt_left: Vec<u32>,
    /// The report under construction. Fields are public so the kernel's
    /// recovery layer can bump its counters directly.
    pub report: FaultReport,
}

impl FaultPlan {
    /// Starts a fresh plan for `spec`.
    pub fn new(spec: &FaultSpec) -> FaultPlan {
        let corrupt_left = spec
            .events
            .iter()
            .map(|e| match e.kind {
                FaultKind::Corrupt { count, .. } => count,
                _ => 0,
            })
            .collect();
        FaultPlan {
            noted: vec![false; spec.events.len()],
            corrupt_left,
            report: FaultReport {
                seed: spec.seed,
                ..FaultReport::default()
            },
            spec: spec.clone(),
        }
    }

    /// The recovery-protocol tunables of the underlying spec.
    pub fn recovery(&self) -> RecoveryParams {
        self.spec.recovery
    }

    /// Every scheduled crash, `(cell, time)` in time-then-cell order.
    pub fn crash_schedule(&self) -> Vec<(CellId, SimTime)> {
        let mut out: Vec<(CellId, SimTime)> = self
            .spec
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash { cell } => Some((cell, e.from)),
                _ => None,
            })
            .collect();
        out.sort_by_key(|&(c, t)| (t, c.index()));
        out
    }

    fn active(e: &FaultEvent, now: SimTime) -> bool {
        e.from <= now && now < e.until
    }

    /// Decides the fate of a packet about to travel `route` (a cell path;
    /// hops are consecutive pairs) at `now`. On a detour attempt
    /// (`detour = true`) a known-down link is a [`RouteVerdict::Drop`] —
    /// there is no second detour.
    pub fn route_verdict(&mut self, route: &[CellId], now: SimTime, detour: bool) -> RouteVerdict {
        for hop in route.windows(2) {
            for (i, e) in self.spec.events.iter().enumerate() {
                let FaultKind::LinkDown { from, to } = e.kind else {
                    continue;
                };
                if !(Self::active(e, now) && from == hop[0] && to == hop[1]) {
                    continue;
                }
                if !self.noted[i] {
                    self.noted[i] = true;
                    self.report.injected.push(InjectedFault {
                        at: now,
                        what: format!("link {from}->{to} down (discovered, packet lost)"),
                    });
                    self.report.drops += 1;
                    return RouteVerdict::Drop;
                }
                if detour {
                    self.report.drops += 1;
                    return RouteVerdict::Drop;
                }
                return RouteVerdict::Detour;
            }
        }
        RouteVerdict::Deliver
    }

    /// Extra delivery latency for a packet `src -> dst` sent at `now`.
    pub fn delay(&mut self, src: CellId, dst: CellId, now: SimTime) -> SimTime {
        let mut extra_ns = 0u64;
        for (i, e) in self.spec.events.iter().enumerate() {
            let FaultKind::Delay {
                src: s,
                dst: d,
                extra,
            } = e.kind
            else {
                continue;
            };
            if Self::active(e, now) && s == src && d == dst {
                extra_ns += extra.as_nanos();
                if !self.noted[i] {
                    self.noted[i] = true;
                    self.report.injected.push(InjectedFault {
                        at: now,
                        what: format!("delay {s}->{d} +{extra}"),
                    });
                }
            }
        }
        SimTime::from_nanos(extra_ns)
    }

    /// Whether the packet `src -> dst` being sent at `now` should have its
    /// checksum flipped in flight. Consumes one unit of a matching
    /// `Corrupt` event's budget.
    pub fn corrupt(&mut self, src: CellId, dst: CellId, now: SimTime) -> bool {
        for (i, e) in self.spec.events.iter().enumerate() {
            let FaultKind::Corrupt { src: s, dst: d, .. } = e.kind else {
                continue;
            };
            if Self::active(e, now) && s == src && d == dst && self.corrupt_left[i] > 0 {
                self.corrupt_left[i] -= 1;
                self.report.injected.push(InjectedFault {
                    at: now,
                    what: format!("corrupt {s}->{d} payload"),
                });
                return true;
            }
        }
        false
    }

    /// Earliest time a broadcast wanting to complete at `at` may actually
    /// complete: pushed past the end of any active B-net outage window.
    pub fn bnet_clear(&mut self, at: SimTime) -> SimTime {
        let mut clear = at;
        for (i, e) in self.spec.events.iter().enumerate() {
            if matches!(e.kind, FaultKind::BnetDown) && Self::active(e, clear) {
                clear = e.until;
                if !self.noted[i] {
                    self.noted[i] = true;
                    self.report.injected.push(InjectedFault {
                        at,
                        what: format!("bnet down (broadcast deferred to {})", e.until),
                    });
                }
            }
        }
        clear
    }

    /// Records a fail-stop crash taking effect.
    pub fn note_crash(&mut self, cell: CellId, at: SimTime) {
        self.report.injected.push(InjectedFault {
            at,
            what: format!("crash {cell} (fail-stop)"),
        });
        self.report.crashed.push((cell, at));
    }

    /// Bumps the retry counter for packet-kind `op`, keeping the
    /// per-kind list sorted by name.
    pub fn note_retry(&mut self, op: &'static str) {
        match self
            .report
            .retries_by_op
            .binary_search_by(|(name, _)| name.as_str().cmp(op))
        {
            Ok(i) => self.report.retries_by_op[i].1 += 1,
            Err(i) => self.report.retries_by_op.insert(i, (op.to_string(), 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn link_down_spec() -> FaultSpec {
        FaultSpec {
            seed: Some(1),
            recovery: RecoveryParams::default(),
            events: vec![FaultEvent {
                from: t(100),
                until: t(200),
                kind: FaultKind::LinkDown {
                    from: c(1),
                    to: c(2),
                },
            }],
        }
    }

    #[test]
    fn first_crossing_drops_then_detours_then_recovers() {
        let mut plan = FaultPlan::new(&link_down_spec());
        let route = [c(0), c(1), c(2)];
        // Outside the window: clear.
        assert_eq!(
            plan.route_verdict(&route, t(50), false),
            RouteVerdict::Deliver
        );
        // First crossing inside the window: discovery drop.
        assert_eq!(
            plan.route_verdict(&route, t(120), false),
            RouteVerdict::Drop
        );
        // Known outage: detour on the primary route, drop on the detour.
        assert_eq!(
            plan.route_verdict(&route, t(130), false),
            RouteVerdict::Detour
        );
        assert_eq!(plan.route_verdict(&route, t(130), true), RouteVerdict::Drop);
        // Window over: clear again.
        assert_eq!(
            plan.route_verdict(&route, t(250), false),
            RouteVerdict::Deliver
        );
        assert_eq!(plan.report.drops, 2);
        assert_eq!(plan.report.injected.len(), 1, "discovery recorded once");
    }

    #[test]
    fn corrupt_budget_is_consumed() {
        let spec = FaultSpec {
            seed: None,
            recovery: RecoveryParams::default(),
            events: vec![FaultEvent {
                from: t(0),
                until: t(1000),
                kind: FaultKind::Corrupt {
                    src: c(0),
                    dst: c(3),
                    count: 2,
                },
            }],
        };
        let mut plan = FaultPlan::new(&spec);
        assert!(plan.corrupt(c(0), c(3), t(10)));
        assert!(!plan.corrupt(c(1), c(3), t(10)), "wrong pair untouched");
        assert!(plan.corrupt(c(0), c(3), t(20)));
        assert!(!plan.corrupt(c(0), c(3), t(30)), "budget exhausted");
        assert_eq!(plan.report.injected.len(), 2);
    }

    #[test]
    fn delay_sums_and_bnet_defers() {
        let spec = FaultSpec {
            seed: None,
            recovery: RecoveryParams::default(),
            events: vec![
                FaultEvent {
                    from: t(0),
                    until: t(1000),
                    kind: FaultKind::Delay {
                        src: c(0),
                        dst: c(1),
                        extra: t(40),
                    },
                },
                FaultEvent {
                    from: t(500),
                    until: t(900),
                    kind: FaultKind::BnetDown,
                },
            ],
        };
        let mut plan = FaultPlan::new(&spec);
        assert_eq!(plan.delay(c(0), c(1), t(10)).as_nanos(), 40);
        assert_eq!(plan.delay(c(1), c(0), t(10)).as_nanos(), 0);
        assert_eq!(plan.bnet_clear(t(600)).as_nanos(), 900);
        assert_eq!(plan.bnet_clear(t(950)).as_nanos(), 950);
    }

    #[test]
    fn retries_stay_sorted_by_op() {
        let mut plan = FaultPlan::new(&FaultSpec::default());
        plan.note_retry("PutData");
        plan.note_retry("GetReq");
        plan.note_retry("PutData");
        assert_eq!(
            plan.report.retries_by_op,
            vec![("GetReq".to_string(), 1), ("PutData".to_string(), 2)]
        );
        assert_eq!(plan.report.total_retries(), 3);
    }

    #[test]
    fn crash_schedule_is_time_ordered() {
        let spec = FaultSpec {
            seed: None,
            recovery: RecoveryParams::default(),
            events: vec![
                FaultEvent {
                    from: t(900),
                    until: t(900),
                    kind: FaultKind::Crash { cell: c(1) },
                },
                FaultEvent {
                    from: t(100),
                    until: t(100),
                    kind: FaultKind::Crash { cell: c(3) },
                },
            ],
        };
        let plan = FaultPlan::new(&spec);
        assert_eq!(plan.crash_schedule(), vec![(c(3), t(100)), (c(1), t(900))]);
    }
}
