//! Correctness pins: `perf/expected.json` holds, per simulator workload,
//! the exact simulated time, timeline-event count, probe-op count,
//! evtrace byte length and report FNV a healthy tree produces. The
//! simulator is deterministic, so any difference is a behaviour change,
//! never noise; it counts in `fail_ratio` and is printed with the
//! offending field. `apperf pin` regenerates the file.

use aputil::Json;
use std::path::{Path, PathBuf};

pub const PINS_SCHEMA: &str = "ap1000plus.perf.pins";
pub const PINS_VERSION: u64 = 1;

/// AP1000+ speedup column of the paper's Table 2 (EXPERIMENTS.md), in
/// `standard_suite` order, against which `table2_err_pct` is computed.
pub const TABLE2_PAPER_PLUS: [(&str, f64); 8] = [
    ("EP", 8.00),
    ("CG", 4.78),
    ("FT", 7.12),
    ("SP", 7.62),
    ("TCst", 7.83),
    ("TCnost", 11.55),
    ("MatMul", 8.27),
    ("SCG", 7.96),
];

/// [`TABLE2_PAPER_PLUS`] in the owned form [`Pins`] holds.
pub fn table2_paper_plus() -> Vec<(String, f64)> {
    TABLE2_PAPER_PLUS
        .iter()
        .map(|(app, s)| (app.to_string(), *s))
        .collect()
}

/// The test-scale apps the serve workloads request, round-robin.
pub const SERVE_APPS: [&str; 4] = ["EP", "CG", "MatMul", "TCst"];

/// What one iteration of a simulator workload produced. Fields a
/// workload does not produce stay `None` and are not compared.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Observed {
    pub sim_total_ns: Option<u64>,
    pub events: Option<u64>,
    pub ops: Option<u64>,
    pub trace_bytes: Option<u64>,
    pub report_fnv: Option<u64>,
}

impl Observed {
    const FIELDS: [&'static str; 5] =
        ["sim_total_ns", "events", "ops", "trace_bytes", "report_fnv"];

    fn field(&self, name: &str) -> Option<u64> {
        match name {
            "sim_total_ns" => self.sim_total_ns,
            "events" => self.events,
            "ops" => self.ops,
            "trace_bytes" => self.trace_bytes,
            "report_fnv" => self.report_fnv,
            _ => None,
        }
    }

    /// Every field both sides carry whose values differ, as
    /// `"field: got X, pinned Y"`.
    pub fn mismatches(&self, pin: &Observed) -> Vec<String> {
        Self::FIELDS
            .iter()
            .filter_map(|f| match (self.field(f), pin.field(f)) {
                (Some(got), Some(want)) if got != want => {
                    Some(format!("{f}: got {got}, pinned {want}"))
                }
                _ => None,
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        let mut members = Vec::new();
        for f in Self::FIELDS {
            if let Some(v) = self.field(f) {
                // The FNV is an opaque 64-bit digest: spell it as the
                // cache does, not as a number a reader might round.
                let value = if f == "report_fnv" {
                    Json::from(aputil::key_hex(v))
                } else {
                    Json::U(v)
                };
                members.push((f, value));
            }
        }
        Json::obj(members)
    }

    fn from_json(doc: &Json) -> Result<Observed, String> {
        let num = |f: &str| -> Result<Option<u64>, String> {
            match doc.get(f) {
                None => Ok(None),
                Some(j) => j
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("{f} must be an unsigned integer, got {j}")),
            }
        };
        let report_fnv = match doc.get("report_fnv") {
            None => None,
            Some(j) => Some(
                j.as_str()
                    .and_then(aputil::parse_key_hex)
                    .ok_or_else(|| format!("report_fnv must be 16 hex digits, got {j}"))?,
            ),
        };
        Ok(Observed {
            sim_total_ns: num("sim_total_ns")?,
            events: num("events")?,
            ops: num("ops")?,
            trace_bytes: num("trace_bytes")?,
            report_fnv,
        })
    }
}

/// One test-scale app as the serve workloads see it.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeApp {
    pub name: String,
    pub sim_total_ns: u64,
    pub events: u64,
}

/// The parsed `perf/expected.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Pins {
    pub emu: Observed,
    pub suite: Observed,
    pub record: Observed,
    pub serve_apps: Vec<ServeApp>,
    /// `(cli app name, paper AP1000+ speedup)` in suite order.
    pub table2_paper_plus: Vec<(String, f64)>,
}

pub fn pins_path(root: &Path) -> PathBuf {
    root.join("perf/expected.json")
}

impl Pins {
    pub fn load(root: &Path) -> Result<Pins, String> {
        let path = pins_path(root);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Pins::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Pins, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(Json::as_str) != Some(PINS_SCHEMA)
            || doc.get("version").and_then(Json::as_u64) != Some(PINS_VERSION)
        {
            return Err(format!("not a {PINS_SCHEMA} v{PINS_VERSION} document"));
        }
        let section = |name: &str| -> Result<Observed, String> {
            let j = doc.get(name).ok_or_else(|| format!("missing {name}"))?;
            Observed::from_json(j).map_err(|e| format!("{name}.{e}"))
        };
        let serve_apps = doc
            .get("serve_apps")
            .and_then(Json::as_arr)
            .ok_or("missing serve_apps")?
            .iter()
            .map(|j| {
                Some(ServeApp {
                    name: j.get("app")?.as_str()?.to_string(),
                    sim_total_ns: j.get("sim_total_ns")?.as_u64()?,
                    events: j.get("events")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("serve_apps entries need app, sim_total_ns, events")?;
        let table2_paper_plus = doc
            .get("table2_paper_plus")
            .and_then(Json::as_arr)
            .ok_or("missing table2_paper_plus")?
            .iter()
            .map(|j| {
                Some((
                    j.get("app")?.as_str()?.to_string(),
                    j.get("speedup")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("table2_paper_plus entries need app, speedup")?;
        Ok(Pins {
            emu: section(crate::metrics::EMU)?,
            suite: section(crate::metrics::SUITE)?,
            record: section(crate::metrics::RECORD)?,
            serve_apps,
            table2_paper_plus,
        })
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(PINS_SCHEMA)),
            ("version", Json::from(PINS_VERSION)),
            (crate::metrics::EMU, self.emu.to_json()),
            (crate::metrics::SUITE, self.suite.to_json()),
            (crate::metrics::RECORD, self.record.to_json()),
            (
                "serve_apps",
                Json::Arr(
                    self.serve_apps
                        .iter()
                        .map(|a| {
                            Json::obj([
                                ("app", Json::from(a.name.as_str())),
                                ("sim_total_ns", Json::U(a.sim_total_ns)),
                                ("events", Json::U(a.events)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "table2_paper_plus",
                Json::Arr(
                    self.table2_paper_plus
                        .iter()
                        .map(|(app, s)| {
                            Json::obj([("app", Json::from(app.as_str())), ("speedup", Json::F(*s))])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn for_workload(&self, name: &str) -> Option<&Observed> {
        match name {
            crate::metrics::EMU => Some(&self.emu),
            crate::metrics::SUITE => Some(&self.suite),
            crate::metrics::RECORD => Some(&self.record),
            _ => None,
        }
    }

    pub fn serve_app(&self, name: &str) -> Option<&ServeApp> {
        self.serve_apps.iter().find(|a| a.name == name)
    }
}

/// Mean |ours − paper| / paper, in percent, over the Table-2 column.
pub fn table2_err_pct(ours: &[f64], paper: &[(String, f64)]) -> f64 {
    assert_eq!(ours.len(), paper.len(), "one speedup per Table-2 row");
    let sum: f64 = ours
        .iter()
        .zip(paper)
        .map(|(o, (_, p))| (o - p).abs() / p)
        .sum();
    100.0 * sum / ours.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Pins {
        Pins {
            emu: Observed {
                sim_total_ns: Some(893_617_068),
                events: Some(3_599_496),
                ops: Some(7),
                ..Observed::default()
            },
            suite: Observed {
                sim_total_ns: Some(1),
                report_fnv: Some(0xdead_beef_0123_4567),
                ..Observed::default()
            },
            record: Observed {
                sim_total_ns: Some(227_818_116),
                events: Some(591_528),
                ops: Some(3),
                trace_bytes: Some(5_852_317),
                report_fnv: Some(u64::MAX),
            },
            serve_apps: vec![ServeApp {
                name: "EP".into(),
                sim_total_ns: 5,
                events: 6,
            }],
            table2_paper_plus: vec![("EP".into(), 8.0)],
        }
    }

    #[test]
    fn pins_round_trip_through_json() {
        let pins = sample();
        let back = Pins::parse(&pins.to_json().to_string()).unwrap();
        assert_eq!(back, pins);
        assert!(Pins::parse("{}").is_err());
    }

    #[test]
    fn mismatch_names_the_offending_field_only() {
        let pin = sample().record;
        let mut got = pin.clone();
        assert!(got.mismatches(&pin).is_empty());
        got.trace_bytes = Some(1);
        got.events = None; // not produced: not compared
        assert_eq!(
            got.mismatches(&pin),
            vec!["trace_bytes: got 1, pinned 5852317".to_string()]
        );
    }

    #[test]
    fn table2_error_is_mean_relative_distance() {
        let paper = vec![("A".to_string(), 8.0), ("B".to_string(), 4.0)];
        // |8-8|/8 = 0, |2-4|/4 = 0.5 -> mean 25 %.
        assert!((table2_err_pct(&[8.0, 2.0], &paper) - 25.0).abs() < 1e-12);
    }

    /// The checked-in pins must agree with what tier-1 already pins
    /// (tests/determinism.rs, results/SCALING_baseline.json).
    #[test]
    fn checked_in_pins_agree_with_the_repo_baselines() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let pins = Pins::load(&root).expect("perf/expected.json loads");
        assert_eq!(pins.emu.sim_total_ns, Some(893_617_068));
        assert_eq!(pins.emu.events, Some(3_599_496));
        assert_eq!(pins.record.sim_total_ns, Some(227_818_116));
        assert_eq!(pins.record.events, Some(591_528));
        let names: Vec<&str> = pins.serve_apps.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, SERVE_APPS);
        assert_eq!(pins.table2_paper_plus.len(), TABLE2_PAPER_PLUS.len());
        for ((app, s), (want_app, want)) in pins.table2_paper_plus.iter().zip(TABLE2_PAPER_PLUS) {
            assert_eq!((app.as_str(), *s), (want_app, want));
        }

        let scaling = std::fs::read_to_string(root.join("results/SCALING_baseline.json"))
            .expect("results/SCALING_baseline.json");
        let scaling = Json::parse(&scaling).unwrap();
        let point = |cells: u64| {
            scaling
                .get("points")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .find(|p| p.get("cells").and_then(Json::as_u64) == Some(cells))
                .unwrap()
                .clone()
        };
        for (cells, pin) in [(256, &pins.record), (1024, &pins.emu)] {
            let p = point(cells);
            assert_eq!(p.get("events").and_then(Json::as_u64), pin.events);
            assert_eq!(
                p.get("sim_total_ns").and_then(Json::as_u64),
                pin.sim_total_ns
            );
        }
    }
}
