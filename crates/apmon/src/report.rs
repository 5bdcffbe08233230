//! The versioned `ap1000plus.metrics` artifact and Perfetto counter
//! tracks.

use crate::heatmap::Heatmap;
use crate::hostprof::HostProf;
use crate::series::{MetricsSample, MetricsSeries};
use aputil::{Json, SimTime};
use std::io::Write;
use std::path::Path;

/// Schema identifier stamped into every metrics artifact.
pub const METRICS_SCHEMA: &str = "ap1000plus.metrics";
/// Current schema version. Bump on breaking layout changes.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// End-of-run utilization of one directed torus link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkUtil {
    /// Transmitting cell.
    pub from: u32,
    /// Receiving neighbour.
    pub to: u32,
    /// Nanoseconds the link spent transmitting.
    pub busy_ns: u64,
}

/// Everything `apmon` measured about one run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// The sampled time series.
    pub series: MetricsSeries,
    /// Per-cell busy fraction (exec+rts+overhead over total), row-major
    /// on the torus. `None` when geometry is unknown.
    pub cell_busy: Option<Heatmap>,
    /// Per-cell T-net transmit utilization (outgoing link-busy fraction
    /// of total time), row-major on the torus.
    pub link_util: Option<Heatmap>,
    /// Per-directed-link busy time, sorted by `(from, to)`.
    pub links: Vec<LinkUtil>,
    /// Host self-profiling (stripped from the versioned artifact).
    pub host: Option<HostProf>,
    /// Final simulated time of the run.
    pub final_time: SimTime,
}

impl RunMetrics {
    /// The versioned artifact. `include_host` mirrors the bench report's
    /// `host_ms` rule: `false` strips every `host_*` field so the
    /// document is byte-identical across machines, runs and thread
    /// counts; `true` is for human-facing `--json` style output.
    pub fn to_json_with_host(&self, include_host: bool) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            ("schema".into(), Json::from(METRICS_SCHEMA)),
            ("version".into(), Json::from(METRICS_SCHEMA_VERSION)),
            ("final_time_ns".into(), Json::U(self.final_time.as_nanos())),
            ("series".into(), self.series.to_json()),
        ];
        if let Some(h) = &self.cell_busy {
            members.push(("cell_busy".into(), h.to_json()));
        }
        if let Some(h) = &self.link_util {
            members.push(("link_util".into(), h.to_json()));
        }
        members.push((
            "links".into(),
            Json::Arr(
                self.links
                    .iter()
                    .map(|l| {
                        Json::obj(vec![
                            ("from", Json::U(l.from as u64)),
                            ("to", Json::U(l.to as u64)),
                            ("busy_ns", Json::U(l.busy_ns)),
                        ])
                    })
                    .collect(),
            ),
        ));
        if include_host {
            if let Some(h) = &self.host {
                if let Json::Obj(fields) = h.to_json() {
                    members.extend(fields);
                }
            }
        }
        Json::Obj(members)
    }

    /// [`to_json_with_host`](Self::to_json_with_host)`(false)`.
    pub fn to_json(&self) -> Json {
        self.to_json_with_host(false)
    }
}

/// Validates that `doc` is an `ap1000plus.metrics` artifact at the
/// current version.
pub fn check_metrics_schema(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(METRICS_SCHEMA) => {}
        other => return Err(format!("not a {METRICS_SCHEMA} artifact ({other:?})")),
    }
    match doc.get("version").and_then(Json::as_u64) {
        Some(METRICS_SCHEMA_VERSION) => Ok(()),
        other => Err(format!(
            "metrics schema version {other:?}, expected {METRICS_SCHEMA_VERSION}"
        )),
    }
}

/// Writes one or more labeled runs as a single versioned document:
/// `{schema, version, runs: [{name, ...RunMetrics}]}`. Host fields are
/// stripped (the artifact is a byte-reproducibility surface). The file is
/// whole or absent: a failed write leaves `path` as it was.
pub fn write_metrics_report(path: &Path, runs: &[(String, &RunMetrics)]) -> std::io::Result<()> {
    let doc = metrics_report(runs).to_string();
    aputil::write_replacing(path, |w| w.write_all(doc.as_bytes()))
}

/// The document [`write_metrics_report`] serializes.
pub fn metrics_report(runs: &[(String, &RunMetrics)]) -> Json {
    Json::obj(vec![
        ("schema", Json::from(METRICS_SCHEMA)),
        ("version", Json::from(METRICS_SCHEMA_VERSION)),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|(name, m)| {
                        let mut obj = vec![("name".to_string(), Json::Str(name.clone()))];
                        if let Json::Obj(fields) = m.to_json() {
                            // Skip the per-run schema stamp inside the
                            // multi-run envelope.
                            obj.extend(
                                fields
                                    .into_iter()
                                    .filter(|(k, _)| k != "schema" && k != "version"),
                            );
                        }
                        Json::Obj(obj)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Perfetto counter-track events (`"ph":"C"`) for the sampled series, one
/// track per counter column, mergeable into a Chrome-trace export. `pid`
/// selects the process the tracks appear under.
pub fn perfetto_counter_events(series: &MetricsSeries, pid: u64) -> Vec<Json> {
    // The gauges that read well as counter lanes, with their columns.
    let tracks: Vec<(&str, usize)> = [
        "puts_inflight",
        "gets_inflight",
        "cells_blocked",
        "barrier_waiting",
        "queue_depth",
        "send_dma_busy",
        "recv_dma_busy",
        "retries",
    ]
    .into_iter()
    .map(|name| {
        let column = MetricsSample::COLUMNS.iter().position(|&c| c == name);
        (name, column.expect("a MetricsSample column"))
    })
    .collect();
    let mut events = Vec::with_capacity(series.samples.len() * tracks.len() + 1);
    events.push(Json::obj([
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("name", Json::from("process_name")),
        ("args", Json::obj([("name", Json::from("apmon counters"))])),
    ]));
    for row in &series.samples {
        let ts = Json::F(row.t.as_nanos() as f64 / 1000.0);
        let values = row.values();
        for &(name, column) in &tracks {
            events.push(Json::obj([
                ("ph", Json::from("C")),
                ("pid", Json::from(pid)),
                ("name", Json::from(name)),
                ("ts", ts.clone()),
                ("args", Json::obj([("value", Json::from(values[column]))])),
            ]));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> RunMetrics {
        let mut m = RunMetrics {
            final_time: SimTime::from_nanos(500),
            ..RunMetrics::default()
        };
        m.series.interval = SimTime::from_nanos(100);
        m.series.samples.push(MetricsSample {
            t: SimTime::ZERO,
            puts_inflight: 2,
            ..MetricsSample::default()
        });
        m.links.push(LinkUtil {
            from: 0,
            to: 1,
            busy_ns: 42,
        });
        m.host = Some(HostProf::default());
        m
    }

    #[test]
    fn artifact_is_versioned_and_strips_host_fields() {
        let m = sample_metrics();
        let doc = m.to_json();
        check_metrics_schema(&doc).unwrap();
        let text = doc.to_string();
        assert!(
            !text.contains("host_"),
            "versioned artifact leaked host data"
        );
        let with_host = m.to_json_with_host(true).to_string();
        assert!(with_host.contains("host_wall_ms"));
        // Stripping host fields is exactly the difference.
        assert_ne!(text, with_host);
    }

    #[test]
    fn schema_check_rejects_imposters() {
        assert!(check_metrics_schema(&Json::obj([("schema", Json::from("x"))])).is_err());
        let wrong = Json::obj([
            ("schema", Json::from(METRICS_SCHEMA)),
            ("version", Json::from(99u64)),
        ]);
        assert!(check_metrics_schema(&wrong).is_err());
    }

    #[test]
    fn counter_events_are_perfetto_counters() {
        let m = sample_metrics();
        let evs = perfetto_counter_events(&m.series, 9);
        // 1 metadata + 8 tracks × 1 sample.
        assert_eq!(evs.len(), 9);
        let c = &evs[1];
        assert_eq!(c.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(c.get("pid").and_then(Json::as_u64), Some(9));
        assert!(c.get("args").and_then(|a| a.get("value")).is_some());
    }

    #[test]
    fn multi_run_report_embeds_runs_without_nested_schema() {
        let m = sample_metrics();
        let doc = metrics_report(&[("CG".to_string(), &m)]);
        check_metrics_schema(&doc).unwrap();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs[0].get("name").and_then(Json::as_str), Some("CG"));
        assert!(runs[0].get("series").is_some());
        assert!(runs[0].get("schema").is_none());
    }
}
