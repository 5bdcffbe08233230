//! Critical-path extraction from a recorded timeline.
//!
//! The timeline is an interval DAG: events on one `(cell, unit)` track are
//! serialized, events sharing a nonzero `tid` form a transfer chain
//! (issue → enqueue → DMA → injection → delivery → flag update), an
//! [`Bucket::Idle`] span tagged with a `tid` was *released* by that
//! chain's completion, and untagged idle spans with a common name and end
//! time are one collective (barrier epoch, broadcast) released by its
//! latest arriver. [`critical_path`] walks that DAG backwards from the
//! last event of the run, always following the dependency that gated
//! progress, and returns the chain of events whose durations bound the
//! run's total time.
//!
//! The accounting is exact by construction: the returned steps are
//! disjoint, chronologically ordered intervals, and
//! `Σ step durations + unattributed == total`, where `unattributed` is
//! time the walk could not explain (gaps between an event and its gating
//! predecessor, plus anything before the first event on the path).

use crate::event::{Bucket, TimelineEvent, Unit};
use crate::timeline::Timeline;
use aputil::{Json, SimTime};
use std::collections::{HashMap, HashSet};

/// One event on the critical path (an [`Bucket::Idle`] wait is replaced by
/// the chain event that released it, so steps are the *causes* of elapsed
/// time, not the symptoms).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CritStep {
    pub cell: u32,
    pub unit: Unit,
    pub name: &'static str,
    pub bucket: Bucket,
    /// Transfer chain the step belongs to (0 = none).
    pub tid: u64,
    pub start: SimTime,
    pub end: SimTime,
}

impl CritStep {
    /// Time this step contributes to the path (0 for instants).
    pub fn contrib(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// An aggregated gating operation: all critical-path steps sharing one
/// `(name, unit)`, ranked by total contributed time.
#[derive(Clone, Debug)]
pub struct GatingOp {
    pub name: &'static str,
    pub unit: Unit,
    /// How many path steps this operation accounts for.
    pub count: usize,
    /// Total time contributed to the path.
    pub total: SimTime,
    /// Fraction of the run total, in percent.
    pub share_pct: f64,
}

/// The extracted critical path and its attribution.
#[derive(Clone, Debug, Default)]
pub struct CritPath {
    /// End time of the last event in the timeline — the run's makespan as
    /// seen by the recorder.
    pub total: SimTime,
    /// The path, in chronological order. Steps are disjoint intervals.
    pub steps: Vec<CritStep>,
    /// Time on the path the walk could not attribute to any event.
    pub unattributed: SimTime,
}

impl CritPath {
    /// Total time attributed to steps (`total - unattributed`).
    pub fn attributed(&self) -> SimTime {
        self.steps
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.contrib())
    }

    /// Path time per Figure-8 bucket, in [`Bucket`] declaration order.
    pub fn by_bucket(&self) -> Vec<(Bucket, SimTime)> {
        let order = [
            Bucket::Exec,
            Bucket::Rts,
            Bucket::Overhead,
            Bucket::Idle,
            Bucket::Hw,
        ];
        let mut acc: HashMap<Bucket, SimTime> = HashMap::new();
        for s in &self.steps {
            *acc.entry(s.bucket).or_insert(SimTime::ZERO) += s.contrib();
        }
        order
            .into_iter()
            .map(|b| (b, acc.get(&b).copied().unwrap_or(SimTime::ZERO)))
            .collect()
    }

    /// Path time per hardware unit, in [`Unit::ALL`] order.
    pub fn by_unit(&self) -> Vec<(Unit, SimTime)> {
        let mut acc: HashMap<Unit, SimTime> = HashMap::new();
        for s in &self.steps {
            *acc.entry(s.unit).or_insert(SimTime::ZERO) += s.contrib();
        }
        Unit::ALL
            .into_iter()
            .map(|u| (u, acc.get(&u).copied().unwrap_or(SimTime::ZERO)))
            .collect()
    }

    /// Path time per cell, descending by time.
    pub fn by_cell(&self) -> Vec<(u32, SimTime)> {
        let mut acc: HashMap<u32, SimTime> = HashMap::new();
        for s in &self.steps {
            *acc.entry(s.cell).or_insert(SimTime::ZERO) += s.contrib();
        }
        let mut v: Vec<(u32, SimTime)> = acc.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The top-`k` gating operations by contributed time.
    pub fn top_ops(&self, k: usize) -> Vec<GatingOp> {
        let mut acc: HashMap<(&'static str, Unit), GatingOp> = HashMap::new();
        for s in &self.steps {
            let op = acc.entry((s.name, s.unit)).or_insert(GatingOp {
                name: s.name,
                unit: s.unit,
                count: 0,
                total: SimTime::ZERO,
                share_pct: 0.0,
            });
            op.count += 1;
            op.total += s.contrib();
        }
        let mut v: Vec<GatingOp> = acc.into_values().collect();
        let total_ns = self.total.as_nanos().max(1) as f64;
        for op in &mut v {
            op.share_pct = 100.0 * op.total.as_nanos() as f64 / total_ns;
        }
        v.sort_by(|a, b| b.total.cmp(&a.total).then(a.name.cmp(b.name)));
        v.truncate(k);
        v
    }

    /// JSON summary (top ops, attribution; not the full step list).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total_ns", Json::from(self.total.as_nanos())),
            ("attributed_ns", Json::from(self.attributed().as_nanos())),
            ("unattributed_ns", Json::from(self.unattributed.as_nanos())),
            ("steps", Json::from(self.steps.len() as u64)),
            (
                "by_bucket_ns",
                Json::Obj(
                    self.by_bucket()
                        .into_iter()
                        .map(|(b, t)| (b.label().to_string(), Json::from(t.as_nanos())))
                        .collect(),
                ),
            ),
            (
                "by_unit_ns",
                Json::Obj(
                    self.by_unit()
                        .into_iter()
                        .map(|(u, t)| (u.label().to_string(), Json::from(t.as_nanos())))
                        .collect(),
                ),
            ),
            (
                "by_cell_ns",
                Json::Arr(
                    self.by_cell()
                        .into_iter()
                        .map(|(c, t)| {
                            Json::obj([
                                ("cell", Json::from(c as u64)),
                                ("ns", Json::from(t.as_nanos())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "top_ops",
                Json::Arr(
                    self.top_ops(10)
                        .into_iter()
                        .map(|op| {
                            Json::obj([
                                ("name", Json::from(op.name)),
                                ("unit", Json::from(op.unit.label())),
                                ("count", Json::from(op.count as u64)),
                                ("ns", Json::from(op.total.as_nanos())),
                                ("share_pct", Json::from(op.share_pct)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Extracts the critical path of a timeline. See the module docs for the
/// dependency model. The timeline does not need to be pre-sorted.
pub fn critical_path(t: &Timeline) -> CritPath {
    let evs: &[TimelineEvent] = &t.events;
    if evs.is_empty() {
        return CritPath::default();
    }

    // Index: per-(cell,unit) track, sorted by (end, start, idx).
    let mut tracks: HashMap<(u32, Unit), Vec<usize>> = HashMap::new();
    // Index: per-tid chain of non-idle events, sorted by (end, start, idx).
    let mut chains: HashMap<u64, Vec<usize>> = HashMap::new();
    // Index: collective groups — untagged idle spans by (name, end).
    let mut collectives: HashMap<(&'static str, u64), Vec<usize>> = HashMap::new();
    for (i, e) in evs.iter().enumerate() {
        tracks.entry((e.cell, e.unit)).or_default().push(i);
        if e.bucket == Bucket::Idle {
            if e.tid == 0 && e.dur.is_some() {
                collectives
                    .entry((e.name, e.end().as_nanos()))
                    .or_default()
                    .push(i);
            }
        } else if e.tid != 0 {
            chains.entry(e.tid).or_default().push(i);
        }
    }
    for v in tracks.values_mut() {
        v.sort_by_key(|&i| (evs[i].end(), evs[i].start, i));
    }
    for v in chains.values_mut() {
        v.sort_by_key(|&i| (evs[i].end(), evs[i].start, i));
    }

    // Total order on events: by (end, start, record index). Predecessor
    // edges must strictly descend in this order so that same-timestamp
    // instants (an enqueue/dequeue pair, say) orient by record order
    // instead of forming a two-cycle.
    let key = |i: usize| (evs[i].end(), evs[i].start, i);

    // Latest gating event of `list` ending at or before `limit` and
    // strictly below `below` in the total order (`None` = no bound).
    let last_before = |list: &[usize], limit: SimTime, below: Option<usize>| -> Option<usize> {
        let cut = list.partition_point(|&i| evs[i].end() <= limit);
        list[..cut]
            .iter()
            .rev()
            .copied()
            .find(|&i| below.is_none_or(|b| key(i) < key(b)))
    };

    // Replace a wait with its cause: an idle span tagged with a tid jumps
    // to the last chain event that had completed by the wait's end; an
    // untagged idle span in a collective group jumps to the group's
    // latest-starting member (the arriver that released everyone).
    let resolve = |i: usize| -> usize {
        let e = &evs[i];
        if e.bucket != Bucket::Idle {
            return i;
        }
        if e.tid != 0 {
            if let Some(chain) = chains.get(&e.tid) {
                if let Some(j) = last_before(chain, e.end(), None) {
                    return j;
                }
            }
            return i;
        }
        if e.dur.is_some() {
            if let Some(group) = collectives.get(&(e.name, e.end().as_nanos())) {
                if let Some(&j) = group
                    .iter()
                    .max_by_key(|&&j| (evs[j].start, evs[j].cell, j))
                {
                    return j;
                }
            }
        }
        i
    };

    // Start from the globally latest-ending event.
    let mut cur = (0..evs.len())
        .max_by_key(|&i| (evs[i].end(), evs[i].start, i))
        .expect("nonempty");
    let total = evs[cur].end();
    let mut steps: Vec<CritStep> = Vec::new();
    let mut unattributed = SimTime::ZERO;
    let mut boundary = total;
    let mut visited: HashSet<usize> = HashSet::new();

    for _ in 0..=evs.len() {
        cur = resolve(cur);
        if !visited.insert(cur) {
            // A cycle can only come from a malformed timeline; stop rather
            // than loop. The remaining time stays unattributed.
            unattributed += boundary;
            break;
        }
        let e = &evs[cur];
        unattributed += boundary.saturating_sub(e.end());
        steps.push(CritStep {
            cell: e.cell,
            unit: e.unit,
            name: e.name,
            bucket: e.bucket,
            tid: e.tid,
            start: e.start.min(boundary),
            end: e.end().min(boundary),
        });
        boundary = e.start.min(boundary);

        // Gating predecessor: the latest-finishing event, no later than
        // this one's start, on the same track or the same transfer chain.
        let mut pred: Option<usize> = None;
        let mut consider = |cand: Option<usize>| {
            if let Some(c) = cand {
                if pred.is_none_or(|p| key(p) < key(c)) {
                    pred = Some(c);
                }
            }
        };
        consider(last_before(&tracks[&(e.cell, e.unit)], e.start, Some(cur)));
        if e.tid != 0 {
            if let Some(chain) = chains.get(&e.tid) {
                consider(last_before(chain, e.start, Some(cur)));
            }
        }
        match pred {
            Some(p) => cur = p,
            None => {
                unattributed += boundary;
                break;
            }
        }
    }

    steps.reverse();
    CritPath {
        total,
        steps,
        unattributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        cell: u32,
        unit: Unit,
        name: &'static str,
        start: u64,
        end: u64,
        bucket: Bucket,
        tid: u64,
    ) -> TimelineEvent {
        TimelineEvent {
            cell,
            unit,
            name,
            start: SimTime::from_nanos(start),
            dur: Some(SimTime::from_nanos(end - start)),
            bucket,
            arg: 0,
            tid,
        }
    }

    fn instant(
        cell: u32,
        unit: Unit,
        name: &'static str,
        at: u64,
        bucket: Bucket,
        tid: u64,
    ) -> TimelineEvent {
        TimelineEvent {
            cell,
            unit,
            name,
            start: SimTime::from_nanos(at),
            dur: None,
            bucket,
            arg: 0,
            tid,
        }
    }

    fn check_invariants(p: &CritPath) {
        for w in p.steps.windows(2) {
            assert!(
                w[0].end <= w[1].start,
                "overlap: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        assert_eq!(p.attributed() + p.unattributed, p.total, "exact accounting");
    }

    #[test]
    fn empty_timeline_is_empty_path() {
        let p = critical_path(&Timeline::new("t"));
        assert_eq!(p.total, SimTime::ZERO);
        assert!(p.steps.is_empty());
    }

    #[test]
    fn put_chain_is_followed_across_cells() {
        let mut t = Timeline::new("t");
        t.events
            .push(span(0, Unit::Cpu, "work", 0, 100, Bucket::Exec, 0));
        t.events.push(span(
            0,
            Unit::Cpu,
            "put_issue",
            100,
            1100,
            Bucket::Overhead,
            1,
        ));
        t.events
            .push(instant(0, Unit::Queue, "enqueue", 1100, Bucket::Hw, 1));
        t.events
            .push(instant(0, Unit::Queue, "dequeue", 1100, Bucket::Hw, 1));
        t.events.push(span(
            0,
            Unit::SendDma,
            "send_dma",
            1100,
            1300,
            Bucket::Hw,
            1,
        ));
        t.events
            .push(span(0, Unit::Net, "transfer", 1300, 1800, Bucket::Hw, 1));
        t.events
            .push(instant(1, Unit::Net, "deliver", 1800, Bucket::Hw, 1));
        t.events.push(span(
            1,
            Unit::RecvDma,
            "recv_dma",
            1800,
            2000,
            Bucket::Hw,
            1,
        ));
        // Cell 1 waited on the flag from t=500; released by chain 1.
        t.events
            .push(span(1, Unit::Cpu, "wait_flag", 500, 2000, Bucket::Idle, 1));
        t.events
            .push(span(1, Unit::Cpu, "work", 2000, 2500, Bucket::Exec, 0));
        // Unrelated busywork on cell 1 that must NOT be on the path.
        t.events
            .push(span(1, Unit::Cpu, "work", 0, 500, Bucket::Exec, 0));

        let p = critical_path(&t);
        check_invariants(&p);
        assert_eq!(p.total, SimTime::from_nanos(2500));
        assert_eq!(p.unattributed, SimTime::ZERO);
        // The wait itself must not appear: its cause (the chain) does.
        assert!(p.steps.iter().all(|s| s.bucket != Bucket::Idle));
        let names: Vec<&str> = p.steps.iter().map(|s| s.name).collect();
        assert!(names.contains(&"put_issue"), "{names:?}");
        assert!(names.contains(&"send_dma"), "{names:?}");
        assert!(names.contains(&"transfer"), "{names:?}");
        assert!(names.contains(&"recv_dma"), "{names:?}");
        // The issuing side's pre-put work gates the chain.
        assert_eq!(p.steps.first().unwrap().cell, 0);
        // Hw share = dma 200 + net 500 + recv 200 = 900 of 2500.
        let hw = p
            .by_bucket()
            .into_iter()
            .find(|(b, _)| *b == Bucket::Hw)
            .unwrap()
            .1;
        assert_eq!(hw, SimTime::from_nanos(900));
    }

    #[test]
    fn barrier_blames_the_last_arriver() {
        let mut t = Timeline::new("t");
        t.events
            .push(span(0, Unit::Cpu, "work", 0, 100, Bucket::Exec, 0));
        t.events
            .push(span(0, Unit::Cpu, "barrier", 100, 300, Bucket::Idle, 0));
        t.events
            .push(span(1, Unit::Cpu, "work", 0, 300, Bucket::Exec, 0));
        t.events
            .push(span(1, Unit::Cpu, "barrier", 300, 300, Bucket::Idle, 0));
        t.events
            .push(span(0, Unit::Cpu, "work", 300, 400, Bucket::Exec, 0));

        let p = critical_path(&t);
        check_invariants(&p);
        assert_eq!(p.total, SimTime::from_nanos(400));
        assert_eq!(p.unattributed, SimTime::ZERO);
        // Path: work@1 [0,300] -> barrier@1 [300,300] -> work@0 [300,400].
        // Cell 0's pre-barrier work is off-path; cell 1 gated the epoch.
        let cells: Vec<(u32, u64)> = p
            .steps
            .iter()
            .map(|s| (s.cell, s.start.as_nanos()))
            .collect();
        assert!(cells.contains(&(1, 0)), "{cells:?}");
        assert!(!cells.contains(&(0, 0)), "{cells:?}");
    }

    #[test]
    fn serialized_track_attributes_everything() {
        let mut t = Timeline::new("t");
        let mut at = 0;
        for i in 0..20u64 {
            t.events.push(span(
                0,
                Unit::Cpu,
                if i % 2 == 0 { "work" } else { "rts" },
                at,
                at + 10 + i,
                Bucket::Exec,
                0,
            ));
            at += 10 + i;
        }
        let p = critical_path(&t);
        check_invariants(&p);
        assert_eq!(p.unattributed, SimTime::ZERO);
        assert_eq!(p.attributed(), p.total);
        assert_eq!(p.steps.len(), 20);
    }

    #[test]
    fn gaps_become_unattributed() {
        let mut t = Timeline::new("t");
        t.events
            .push(span(0, Unit::Cpu, "work", 10, 20, Bucket::Exec, 0));
        t.events
            .push(span(0, Unit::Cpu, "work", 50, 100, Bucket::Exec, 0));
        let p = critical_path(&t);
        check_invariants(&p);
        assert_eq!(p.total, SimTime::from_nanos(100));
        // 30 ns gap between the spans + 10 ns before the first.
        assert_eq!(p.unattributed, SimTime::from_nanos(40));
    }

    #[test]
    fn top_ops_rank_by_time() {
        let mut t = Timeline::new("t");
        t.events
            .push(span(0, Unit::Cpu, "work", 0, 100, Bucket::Exec, 0));
        t.events
            .push(span(0, Unit::Cpu, "rts", 100, 110, Bucket::Rts, 0));
        t.events
            .push(span(0, Unit::Cpu, "work", 110, 400, Bucket::Exec, 0));
        let p = critical_path(&t);
        let ops = p.top_ops(5);
        assert_eq!(ops[0].name, "work");
        assert_eq!(ops[0].count, 2);
        assert_eq!(ops[0].total, SimTime::from_nanos(390));
        assert!(ops[0].share_pct > 90.0);
        assert!(p.to_json().get("top_ops").is_some());
    }
}
