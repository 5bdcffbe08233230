//! Emulator-vs-MLSim divergence reports.
//!
//! Both the machine emulator and the replay engine emit the same timeline
//! vocabulary (`work`, `put_issue`, `send_dma`, …) and the same Figure-6
//! per-segment latency histograms, so disagreement between them can be
//! localized: which operation class, and which latency segment, accounts
//! for the model's error. This module aggregates both timelines per event
//! name and compares segment means, producing the per-op divergence table
//! surfaced by `repro --json` / `--bench-out`.

use apobs::{EvName, SegmentHists, Timeline, TimelineEvent};
use aputil::{Json, SimTime};
use std::collections::BTreeMap;

/// One event class compared across the two timelines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivergenceRow {
    /// Timeline event name (`work`, `send_dma`, `wait_flag`, …).
    pub name: EvName,
    /// Total span nanoseconds under the emulator.
    pub emulator: SimTime,
    /// Total span nanoseconds under the model.
    pub model: SimTime,
    /// Span count under the emulator.
    pub emulator_count: u64,
    /// Span count under the model.
    pub model_count: u64,
}

impl DivergenceRow {
    /// model / emulator time; infinity when the emulator total is zero
    /// but the model's is not.
    pub fn ratio(&self) -> f64 {
        if self.emulator.as_nanos() == 0 {
            if self.model.as_nanos() == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.model.as_nanos() as f64 / self.emulator.as_nanos() as f64
        }
    }

    /// Absolute disagreement in nanoseconds (the sort key).
    pub fn gap(&self) -> u64 {
        self.emulator.as_nanos().abs_diff(self.model.as_nanos())
    }
}

/// Mean latency of one Figure-6 segment under both simulators.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentDelta {
    /// Segment name (`issue`, `queue`, `dma`, `net`, `delivery`, `flag`,
    /// `total`).
    pub segment: &'static str,
    /// Mean nanoseconds under the emulator.
    pub emulator_mean: f64,
    /// Mean nanoseconds under the model.
    pub model_mean: f64,
}

/// Where emulator and model disagree, per operation class and per
/// latency segment.
#[derive(Clone, Debug, PartialEq)]
pub struct DivergenceReport {
    /// Model the emulator is compared against (the model timeline's
    /// source string).
    pub model: String,
    /// Emulator run length (latest event end).
    pub emulator_total: SimTime,
    /// Model run length.
    pub model_total: SimTime,
    /// Per-event-name totals, widest absolute gap first.
    pub ops: Vec<DivergenceRow>,
    /// PUT segment means, emulator vs model.
    pub put_segments: Vec<SegmentDelta>,
    /// GET segment means, emulator vs model.
    pub get_segments: Vec<SegmentDelta>,
}

fn totals(t: &Timeline) -> BTreeMap<EvName, (SimTime, u64)> {
    let mut m: BTreeMap<EvName, (SimTime, u64)> = BTreeMap::new();
    for e in &t.events {
        let Some(d) = e.dur else { continue };
        let slot = m.entry(e.name).or_insert((SimTime::ZERO, 0));
        slot.0 += d;
        slot.1 += 1;
    }
    m
}

fn run_length(t: &Timeline) -> SimTime {
    t.events
        .iter()
        .map(TimelineEvent::end)
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// Compares two [`SegmentHists`] mean-by-mean.
pub fn segment_deltas(emulator: &SegmentHists, model: &SegmentHists) -> Vec<SegmentDelta> {
    emulator
        .segments()
        .into_iter()
        .zip(model.segments())
        .map(|((segment, e), (_, m))| SegmentDelta {
            segment,
            emulator_mean: e.mean(),
            model_mean: m.mean(),
        })
        .collect()
}

/// Builds the per-op divergence report between an emulator timeline and a
/// model (replay) timeline; segment comparisons come from the respective
/// counter blocks' `put_lat`/`get_lat`.
pub fn divergence(
    emulator: &Timeline,
    model: &Timeline,
    emulator_counters: &apobs::Counters,
    model_counters: &apobs::Counters,
) -> DivergenceReport {
    let a = totals(emulator);
    let b = totals(model);
    let names: std::collections::BTreeSet<EvName> = a.keys().chain(b.keys()).copied().collect();
    let mut ops: Vec<DivergenceRow> = names
        .into_iter()
        .map(|name| {
            let (et, ec) = a.get(&name).copied().unwrap_or((SimTime::ZERO, 0));
            let (mt, mc) = b.get(&name).copied().unwrap_or((SimTime::ZERO, 0));
            DivergenceRow {
                name,
                emulator: et,
                model: mt,
                emulator_count: ec,
                model_count: mc,
            }
        })
        .collect();
    ops.sort_by(|x, y| y.gap().cmp(&x.gap()).then_with(|| x.name.cmp(&y.name)));
    DivergenceReport {
        model: model.source.clone(),
        emulator_total: run_length(emulator),
        model_total: run_length(model),
        ops,
        put_segments: segment_deltas(&emulator_counters.put_lat, &model_counters.put_lat),
        get_segments: segment_deltas(&emulator_counters.get_lat, &model_counters.get_lat),
    }
}

impl DivergenceReport {
    /// model / emulator run-length ratio.
    pub fn total_ratio(&self) -> f64 {
        if self.emulator_total.as_nanos() == 0 {
            1.0
        } else {
            self.model_total.as_nanos() as f64 / self.emulator_total.as_nanos() as f64
        }
    }

    /// JSON form for `--json` / `--bench-out`.
    pub fn to_json(&self) -> Json {
        let seg = |rows: &[SegmentDelta]| {
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("segment", Json::from(r.segment)),
                            ("emulator_mean_ns", Json::F(r.emulator_mean)),
                            ("model_mean_ns", Json::F(r.model_mean)),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("model", Json::from(self.model.clone())),
            (
                "emulator_total_ns",
                Json::from(self.emulator_total.as_nanos()),
            ),
            ("model_total_ns", Json::from(self.model_total.as_nanos())),
            ("total_ratio", Json::F(self.total_ratio())),
            (
                "ops",
                Json::Arr(
                    self.ops
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::from(r.name.as_str())),
                                ("emulator_ns", Json::from(r.emulator.as_nanos())),
                                ("model_ns", Json::from(r.model.as_nanos())),
                                ("emulator_count", Json::from(r.emulator_count)),
                                ("model_count", Json::from(r.model_count)),
                                ("ratio", Json::F(r.ratio())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("put_segments", seg(&self.put_segments)),
            ("get_segments", seg(&self.get_segments)),
        ])
    }

    /// Structural sanity check used by differential fuzzing: both
    /// simulators replay the *same* trace, so for every event class whose
    /// span count is fixed by the trace (one span per traced op —
    /// timing-dependent classes like `wait_flag` are excluded), the counts
    /// must agree exactly, and every segment mean must be a finite,
    /// non-negative number. Timing *differences* are expected (that is the
    /// report's whole purpose); count or shape differences mean one side
    /// dropped or invented an operation.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem found.
    pub fn check(&self) -> Result<(), String> {
        // One span per traced op under both the emulator and the replay.
        const COUNT_STABLE: &[EvName] = &[
            EvName::Work,
            EvName::Rts,
            EvName::PutIssue,
            EvName::GetIssue,
            EvName::SendCall,
            EvName::Barrier,
            EvName::Bcast,
            EvName::RegStore,
            EvName::RemoteStore,
        ];
        for row in &self.ops {
            if COUNT_STABLE.contains(&row.name) && row.emulator_count != row.model_count {
                return Err(format!(
                    "op `{}` span count diverged: emulator {} vs model {}",
                    row.name, row.emulator_count, row.model_count
                ));
            }
        }
        for (kind, rows) in [("put", &self.put_segments), ("get", &self.get_segments)] {
            for d in rows.iter() {
                for (side, mean) in [("emulator", d.emulator_mean), ("model", d.model_mean)] {
                    if !mean.is_finite() || mean < 0.0 {
                        return Err(format!(
                            "{kind} segment `{}` has a bad {side} mean: {mean}",
                            d.segment
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apobs::{Bucket, Unit};

    fn span(t: &mut Timeline, cell: u32, name: EvName, start: u64, dur: u64) {
        t.events.push(TimelineEvent {
            cell,
            unit: Unit::Cpu,
            name,
            start: SimTime::from_nanos(start),
            dur: Some(SimTime::from_nanos(dur)),
            bucket: Bucket::Exec,
            arg: 0,
            tid: 0,
        });
    }

    #[test]
    fn rows_rank_by_absolute_gap() {
        let mut emu = Timeline::from_events("emulator", Vec::new());
        span(&mut emu, 0, EvName::Work, 0, 1000);
        span(&mut emu, 0, EvName::SendDma, 1000, 100);
        let mut model = Timeline::from_events("mlsim/ap1000+", Vec::new());
        span(&mut model, 0, EvName::Work, 0, 1000);
        span(&mut model, 0, EvName::SendDma, 1000, 700);
        let c = apobs::Counters::new();
        let d = divergence(&emu, &model, &c, &c);
        assert_eq!(d.model, "mlsim/ap1000+");
        assert_eq!(d.ops[0].name, EvName::SendDma);
        assert_eq!(d.ops[0].gap(), 600);
        assert!((d.ops[0].ratio() - 7.0).abs() < 1e-9);
        assert_eq!(d.ops[1].name, EvName::Work);
        assert!((d.ops[1].ratio() - 1.0).abs() < 1e-9);
        assert_eq!(d.emulator_total, SimTime::from_nanos(1100));
        assert_eq!(d.model_total, SimTime::from_nanos(1700));
    }

    #[test]
    fn missing_ops_on_either_side_still_compare() {
        let mut emu = Timeline::from_events("emulator", Vec::new());
        span(&mut emu, 0, EvName::QueueRefill, 0, 50);
        let mut model = Timeline::from_events("m", Vec::new());
        span(&mut model, 0, EvName::RecvIntr, 0, 80);
        let c = apobs::Counters::new();
        let d = divergence(&emu, &model, &c, &c);
        let names: Vec<EvName> = d.ops.iter().map(|r| r.name).collect();
        assert_eq!(names, [EvName::RecvIntr, EvName::QueueRefill]);
        assert_eq!(d.ops[1].model, SimTime::ZERO);
        assert!(d.ops[0].ratio().is_infinite());
    }

    #[test]
    fn check_catches_count_divergence_on_stable_ops() {
        let mut emu = Timeline::from_events("emulator", Vec::new());
        span(&mut emu, 0, EvName::PutIssue, 0, 10);
        span(&mut emu, 0, EvName::PutIssue, 10, 10);
        span(&mut emu, 0, EvName::WaitFlag, 20, 5);
        let mut model = Timeline::from_events("m", Vec::new());
        span(&mut model, 0, EvName::PutIssue, 0, 30);
        span(&mut model, 0, EvName::PutIssue, 30, 30);
        // wait_flag count differs, but it is timing-dependent: allowed.
        let c = apobs::Counters::new();
        let d = divergence(&emu, &model, &c, &c);
        assert!(d.check().is_ok(), "{:?}", d.check());

        let mut short = Timeline::from_events("m", Vec::new());
        span(&mut short, 0, EvName::PutIssue, 0, 30);
        let d = divergence(&emu, &short, &c, &c);
        let err = d.check().unwrap_err();
        assert!(err.contains("put_issue"), "err: {err}");
    }

    #[test]
    fn json_round_trips() {
        let mut emu = Timeline::from_events("emulator", Vec::new());
        span(&mut emu, 0, EvName::Work, 0, 10);
        let model = Timeline::from_events("m", Vec::new());
        let c = apobs::Counters::new();
        let d = divergence(&emu, &model, &c, &c);
        let parsed = Json::parse(&d.to_json().to_string()).unwrap();
        assert_eq!(
            parsed.get("emulator_total_ns").and_then(Json::as_u64),
            Some(10)
        );
        let segs = parsed.get("put_segments").and_then(Json::as_arr).unwrap();
        assert_eq!(segs.len(), 7);
    }
}
