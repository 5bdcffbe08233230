//! The versioned `ap1000plus.perf` artifacts — `BENCH_<rev>.json` from
//! the tracing-off run and `TRACE_<rev>.json` from the traced run — their
//! validity rules, the human table, and `compare`.

use crate::metrics::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans;
use crate::stats::spread;
use crate::workloads::{Measured, Traced};
use aputil::Json;
use std::path::Path;

pub const SCHEMA: &str = "ap1000plus.perf";
pub const VERSION: u64 = 1;

/// Raw spans kept per workload in `TRACE_<rev>.json`; the per-name totals
/// always cover all of them.
const MAX_SPANS_KEPT: usize = 2000;

/// Facts about the run every artifact carries in its header.
#[derive(Clone, Debug)]
pub struct Header {
    pub rev: String,
    pub git_rev: String,
    pub rustc: String,
    pub nproc: usize,
    /// Every simulator workload ran pinned to one CPU. Always true in an
    /// artifact: a workload that cannot pin refuses to report.
    pub pinned: bool,
    /// Reduced sizes: numbers not comparable with anything.
    pub quick: bool,
    pub seed: u64,
}

impl Header {
    pub fn collect(root: &Path, rev: Option<String>, quick: bool, seed: u64) -> Header {
        let git_rev = crate::host::git_rev(root);
        Header {
            rev: rev.unwrap_or_else(|| git_rev.clone()),
            git_rev,
            rustc: crate::host::rustc_version(root),
            nproc: crate::host::nproc(),
            pinned: true,
            quick,
            seed,
        }
    }

    fn members(&self, kind: &str) -> Vec<(&'static str, Json)> {
        vec![
            ("schema", Json::from(SCHEMA)),
            ("version", Json::from(VERSION)),
            ("kind", Json::from(kind)),
            ("rev", Json::from(self.rev.as_str())),
            ("git_rev", Json::from(self.git_rev.as_str())),
            ("rustc", Json::from(self.rustc.as_str())),
            ("nproc", Json::from(self.nproc)),
            ("pinned", Json::Bool(self.pinned)),
            ("quick", Json::Bool(self.quick)),
            ("seed", Json::U(self.seed)),
        ]
    }
}

fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::F(v)
    } else {
        Json::Null
    }
}

/// The `BENCH_<rev>.json` document.
pub fn bench_doc(header: &Header, results: &[Measured]) -> Json {
    let workloads = results
        .iter()
        .map(|m| {
            let why = metrics::workload(&m.workload).map_or("", |w| w.why);
            let metrics = END_TO_END.iter().map(|def| {
                let body = match m.metrics.get(def.name) {
                    None => Json::Null,
                    Some(v) => Json::obj([
                        ("value", num(v.value)),
                        ("unit", Json::from(def.unit)),
                        ("better", Json::from(def.better.as_str())),
                        ("bound", Json::F(def.bound)),
                        (
                            "samples",
                            Json::Arr(v.samples.iter().map(|&s| num(s)).collect()),
                        ),
                    ]),
                };
                (def.name, body)
            });
            Json::obj([
                ("name", Json::from(m.workload.as_str())),
                ("why", Json::from(why)),
                ("attempted", Json::U(m.attempted)),
                ("failed", Json::U(m.failed)),
                (
                    "failures",
                    Json::Arr(m.failures.iter().map(|f| Json::from(f.as_str())).collect()),
                ),
                ("notes", Json::obj(m.notes.iter().cloned())),
                ("metrics", Json::obj(metrics)),
            ])
        })
        .collect();
    let mut members = header.members("bench");
    members.push((
        "definitions",
        Json::obj(
            END_TO_END
                .iter()
                .map(|d| (d.name, Json::from(d.definition))),
        ),
    ));
    members.push(("workloads", Json::Arr(workloads)));
    Json::obj(members)
}

/// The `TRACE_<rev>.json` document.
pub fn trace_doc(header: &Header, results: &[Traced]) -> Json {
    let workloads = results
        .iter()
        .map(|t| {
            let layers = PER_LAYER.iter().filter_map(|def| {
                let v = t.layers.get(def.name)?;
                Some((
                    def.name,
                    Json::obj([
                        ("value", num(*v)),
                        ("unit", Json::from(def.unit)),
                        ("better", Json::from(def.better.as_str())),
                        ("measured_in", Json::from(def.measured_in)),
                        ("moves", Json::from(def.moves)),
                    ]),
                ))
            });
            let kept = &t.spans[..t.spans.len().min(MAX_SPANS_KEPT)];
            Json::obj([
                ("name", Json::from(t.workload.as_str())),
                (
                    "failures",
                    Json::Arr(t.failures.iter().map(|f| Json::from(f.as_str())).collect()),
                ),
                ("layers", Json::obj(layers)),
                ("span_count", Json::from(t.spans.len())),
                ("span_totals", spans::totals_json(&t.spans)),
                (
                    "span_columns",
                    Json::from("name,start_ns,end_ns,parent,iter"),
                ),
                ("spans", spans::to_json(kept)),
            ])
        })
        .collect();
    let mut members = header.members("trace");
    members.push(("workloads", Json::Arr(workloads)));
    Json::obj(members)
}

/// Every way `doc` breaks the artifact rules: schema/version/header,
/// names matching `[A-Za-z0-9_.-]+`, every end-to-end metric with unit,
/// direction and bound, every layer metric naming its target.
pub fn validate(doc: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        bad.push(format!("schema is not {SCHEMA}"));
    }
    if doc.get("version").and_then(Json::as_u64) != Some(VERSION) {
        bad.push(format!("version is not {VERSION}"));
    }
    let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("");
    if kind != "bench" && kind != "trace" {
        bad.push(format!("kind '{kind}' is neither bench nor trace"));
    }
    for key in ["rev", "git_rev", "rustc"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            bad.push(format!("header lacks {key}"));
        }
    }
    for key in ["pinned", "quick"] {
        if doc.get(key).and_then(Json::as_bool).is_none() {
            bad.push(format!("header lacks {key}"));
        }
    }
    if doc.get("nproc").and_then(Json::as_u64).is_none() {
        bad.push("header lacks nproc".into());
    }
    let Some(workloads) = doc.get("workloads").and_then(Json::as_arr) else {
        bad.push("workloads is not an array".into());
        return bad;
    };
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("");
        if !metrics::valid_name(name) {
            bad.push(format!("workload name '{name}' is not [A-Za-z0-9_.-]+"));
        }
        let section = if kind == "trace" { "layers" } else { "metrics" };
        let Some(entries) = w.get(section).and_then(Json::as_obj) else {
            bad.push(format!("{name}: {section} is not an object"));
            continue;
        };
        for (metric, body) in entries {
            if !metrics::valid_name(metric) {
                bad.push(format!(
                    "{name}: metric name '{metric}' is not [A-Za-z0-9_.-]+"
                ));
            }
            if matches!(body, Json::Null) {
                continue; // not applicable to this workload
            }
            if !body
                .get("unit")
                .and_then(Json::as_str)
                .is_some_and(metrics::valid_unit)
            {
                bad.push(format!("{name}.{metric}: missing or malformed unit"));
            }
            if !matches!(
                body.get("better").and_then(Json::as_str),
                Some("lower" | "higher")
            ) {
                bad.push(format!("{name}.{metric}: missing direction"));
            }
            if kind == "trace" {
                if body
                    .get("moves")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    bad.push(format!("{name}.{metric}: names no target metric"));
                }
            } else if body.get("bound").and_then(Json::as_f64).is_none() {
                bad.push(format!("{name}.{metric}: missing bound"));
            }
        }
    }
    bad
}

/// Writes `doc` under `perf/results/` after validating it.
pub fn write(root: &Path, file: &str, doc: &Json) -> Result<std::path::PathBuf, String> {
    let problems = validate(doc);
    if !problems.is_empty() {
        return Err(format!("refusing to write {file}: {}", problems.join("; ")));
    }
    let dir = root.join("perf/results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    let mut text = doc.to_string();
    text.push('\n');
    aputil::write_atomic(&path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Artifact file names may only hold what a metric name may.
pub fn file_name(prefix: &str, rev: &str) -> Result<String, String> {
    if metrics::valid_name(rev) {
        Ok(format!("{prefix}_{rev}.json"))
    } else {
        Err(format!(
            "--rev '{rev}' must match [A-Za-z0-9_.-]+ (at most 64 characters)"
        ))
    }
}

// ---------------------------------------------------------------------------
// Human output.
// ---------------------------------------------------------------------------

/// Every end-to-end metric of every workload by name, with its unit.
pub fn render_bench(results: &[Measured]) -> String {
    let mut s = String::new();
    for m in results {
        s.push_str(&format!(
            "{}: {} attempted, {} failed\n",
            m.workload, m.attempted, m.failed
        ));
        for def in END_TO_END {
            match m.metrics.get(def.name) {
                Some(v) => s.push_str(&format!(
                    "  {:<22} {:>16.6} {:<7} {} is better, bound {:>4.0}%, {} sample(s), spread {:.2}%\n",
                    def.name,
                    v.value,
                    def.unit,
                    def.better.as_str(),
                    def.bound * 100.0,
                    v.samples.len(),
                    spread(&v.samples) * 100.0
                )),
                None => s.push_str(&format!("  {:<22} {:>16} {:<7} not applicable\n", def.name, "-", def.unit)),
            }
        }
        for (k, v) in &m.notes {
            s.push_str(&format!("  note {k} = {v}\n"));
        }
        for f in &m.failures {
            s.push_str(&format!("  FAILED {f}\n"));
        }
    }
    s
}

/// Every per-layer metric the traced runs produced, by name.
pub fn render_trace(results: &[Traced]) -> String {
    let mut s = String::new();
    for t in results {
        s.push_str(&format!(
            "{} (traced): {} spans\n",
            t.workload,
            t.spans.len()
        ));
        for def in PER_LAYER {
            if let Some(v) = t.layers.get(def.name) {
                s.push_str(&format!(
                    "  {:<36} {:>16.4} {:<6} -> {}\n",
                    def.name, v, def.unit, def.moves
                ));
            }
        }
        for (name, totals) in spans::totals_by_name(&t.spans) {
            s.push_str(&format!(
                "  span {:<26} x{:<7} total {:>11.3} ms  self {:>11.3} ms\n",
                name,
                totals.count,
                totals.total_ns as f64 / 1e6,
                totals.self_ns as f64 / 1e6
            ));
        }
        for f in &t.failures {
            s.push_str(&format!("  FAILED {f}\n"));
        }
    }
    s
}

// ---------------------------------------------------------------------------
// compare.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of a side exceeds the bound, and the sides'
    /// samples overlap: the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and its samples.
#[derive(Clone, Debug)]
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative = better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// Applies one metric's own bound and direction (choosing-metrics §6.5).
pub fn judge(better: Better, bound: f64, a: &Side, b: &Side) -> Verdict {
    let noisy = spread(&a.samples).max(spread(&b.samples)) > bound;
    if noisy && bound > 0.0 {
        // Resolvable only when every run of B reads better than every
        // run of A.
        let all_better = a.samples.iter().all(|&x| {
            b.samples.iter().all(|&y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(better, a.value, b.value) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Judged on its medians alone, as the acceptance driver does: the first
/// set-up of a process (cold caches, or a real build) is always an
/// outlier among the five, and set-up spread is not what a bound on
/// set-up time is for.
const MEDIAN_ONLY: &str = "setup_s";

/// One compared `(workload, metric)` row.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub worse_by: f64,
    pub verdict: Verdict,
}

#[derive(Clone, Debug, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads or metrics of A that B lacks.
    pub missing: Vec<String>,
}

impl Comparison {
    /// Exit status of `apperf compare`: 1 on a regression (a higher
    /// `fail_ratio` is one, its bound being 0) or a missing row.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        for r in &self.rows {
            s.push_str(&format!(
                "{:<20} {:<22} {:>16.6} -> {:>16.6}  {:>+8.2}%  {}\n",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.worse_by * 100.0,
                r.verdict.as_str()
            ));
        }
        for m in &self.missing {
            s.push_str(&format!("missing in B: {m}\n"));
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        s.push_str(&format!(
            "{} ok, {} regressed, {} unresolved, {} missing (worse-by is signed in each metric's own direction)\n",
            count(Verdict::Ok),
            count(Verdict::Regressed),
            count(Verdict::Unresolved),
            self.missing.len()
        ));
        s
    }
}

fn side(body: &Json) -> Option<Side> {
    Some(Side {
        value: body.get("value")?.as_f64()?,
        samples: body
            .get("samples")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

/// Compares two `BENCH_*.json` documents row by row. The bounds and
/// directions are this build's, not the files'.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    for (label, doc) in [("A", a), ("B", b)] {
        let problems = validate(doc);
        if !problems.is_empty() {
            return Err(format!(
                "{label} is not a valid artifact: {}",
                problems.join("; ")
            ));
        }
        if doc.get("kind").and_then(Json::as_str) != Some("bench") {
            return Err(format!("{label} is not a bench artifact"));
        }
    }
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let b_workloads = workloads(b);
    let mut out = Comparison::default();
    for wa in workloads(a) {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let Some(wb) = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            out.missing.push(name);
            continue;
        };
        for def in END_TO_END {
            let get = |w: &Json| {
                w.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(side)
            };
            match (get(&wa), get(wb)) {
                (Some(mut sa), Some(mut sb)) => {
                    if def.name == MEDIAN_ONLY {
                        sa.samples.clear();
                        sb.samples.clear();
                    }
                    out.rows.push(Row {
                        workload: name.clone(),
                        metric: def.name.to_string(),
                        a: sa.value,
                        b: sb.value,
                        worse_by: worsening(def.better, sa.value, sb.value),
                        verdict: judge(def.better, def.bound, &sa, &sb),
                    })
                }
                (Some(_), None) => out.missing.push(format!("{name}.{}", def.name)),
                (None, _) => {}
            }
        }
    }
    Ok(out)
}

pub fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The names `apperf bench` must print: the driver metrics (tracing off)
/// or every per-layer metric (traced), in registry order.
pub fn driver_names(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.driver)
            .map(|m| (m.name, m.unit))
            .collect()
    }
}

/// All five workload names, in registry order.
pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Value;

    fn header() -> Header {
        Header {
            rev: "abc1234".into(),
            git_rev: "abc1234".into(),
            rustc: "rustc 1.0".into(),
            nproc: 2,
            pinned: true,
            quick: false,
            seed: 1,
        }
    }

    fn measured(workload: &str, wall: &[f64], fail: f64) -> Measured {
        let mut m = Measured {
            workload: workload.into(),
            attempted: 6,
            failed: 0,
            ..Measured::default()
        };
        m.metrics.insert(
            "wall_s".into(),
            Value {
                value: crate::stats::median(wall),
                samples: wall.to_vec(),
            },
        );
        m.metrics.insert(
            "fail_ratio".into(),
            Value {
                value: fail,
                samples: vec![fail],
            },
        );
        m.metrics.insert(
            "sim_total_ms".into(),
            Value {
                value: 893.617068,
                samples: vec![893.617068],
            },
        );
        m
    }

    #[test]
    fn bench_and_trace_documents_are_valid_and_round_trip() {
        let doc = bench_doc(&header(), &[measured("emu_cg1024", &[2.3, 2.4, 2.35], 0.0)]);
        assert_eq!(validate(&doc), Vec::<String>::new());
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(validate(&back), Vec::<String>::new());
        let w = &back.get("workloads").and_then(Json::as_arr).unwrap()[0];
        let wall = w.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(wall.get("bound").and_then(Json::as_f64), Some(0.25));
        // Not applicable to this workload: present, and null.
        assert!(matches!(
            w.get("metrics").and_then(|m| m.get("req_per_s")),
            Some(Json::Null)
        ));

        let mut t = Traced {
            workload: "emu_cg1024".into(),
            ..Traced::default()
        };
        t.layers.insert("apcore.ns_per_event".into(), 650.0);
        let doc = trace_doc(&header(), &[t]);
        assert_eq!(validate(&doc), Vec::<String>::new());
        let layer = doc.get("workloads").and_then(Json::as_arr).unwrap()[0]
            .get("layers")
            .and_then(|l| l.get("apcore.ns_per_event"))
            .unwrap()
            .clone();
        assert!(layer
            .get("moves")
            .and_then(Json::as_str)
            .unwrap()
            .contains("events_per_s"));
    }

    #[test]
    fn validation_catches_bad_names_and_missing_fields() {
        let mut doc = bench_doc(&header(), &[measured("emu_cg1024", &[2.3], 0.0)]);
        let Json::Obj(members) = &mut doc else {
            unreachable!()
        };
        members.retain(|(k, _)| k != "nproc");
        assert!(validate(&doc).iter().any(|p| p.contains("nproc")));

        let bad = Json::parse(
            r#"{"schema":"ap1000plus.perf","version":1,"kind":"bench","rev":"r","git_rev":"g",
                "rustc":"c","nproc":2,"pinned":true,"quick":false,
                "workloads":[{"name":"bad name","metrics":{"wall s":{"value":1.0,"samples":[1.0]}}}]}"#,
        )
        .unwrap();
        let problems = validate(&bad);
        for needle in ["'bad name'", "'wall s'", "unit", "direction", "bound"] {
            assert!(
                problems.iter().any(|p| p.contains(needle)),
                "{needle}: {problems:?}"
            );
        }
        assert!(file_name("BENCH", "../x").is_err());
        assert_eq!(file_name("BENCH", "11cf06b").unwrap(), "BENCH_11cf06b.json");
    }

    fn s(value: f64, samples: &[f64]) -> Side {
        Side {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let tight = |v: f64| s(v, &[v * 0.999, v, v * 1.001]);
        // Lower is better, 5 % bound.
        assert_eq!(
            judge(Better::Lower, 0.05, &tight(2.0), &tight(2.08)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.05, &tight(2.0), &tight(2.2)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.05, &tight(2.0), &tight(1.0)),
            Verdict::Ok
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(Better::Higher, 0.10, &tight(7000.0), &tight(6000.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &tight(7000.0), &tight(9000.0)),
            Verdict::Ok
        );
        // A side noisier than the bound: unresolved, whatever the medians…
        let noisy = s(2.0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            judge(Better::Lower, 0.05, &noisy, &tight(2.5)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.05, &tight(2.0), &noisy),
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        assert_eq!(judge(Better::Lower, 0.05, &noisy, &tight(0.5)), Verdict::Ok);
        // Bound 0: must repeat exactly; any worsening regresses.
        assert_eq!(
            judge(Better::Lower, 0.0, &s(1.0, &[1.0]), &s(1.0, &[1.0])),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.0, &s(0.0, &[0.0]), &s(0.1, &[0.1])),
            Verdict::Regressed
        );
        assert_eq!(worsening(Better::Lower, 0.0, 0.1), f64::INFINITY);
        assert_eq!(worsening(Better::Higher, 10.0, 9.0), 0.1);
    }

    #[test]
    fn compare_reports_rows_missing_metrics_and_fail_ratio() {
        let a = bench_doc(
            &header(),
            &[measured("emu_cg1024", &[2.30, 2.31, 2.32], 0.0)],
        );
        let same = compare(&a, &a).unwrap();
        assert!(same.passed());
        assert_eq!(same.rows.len(), 3);
        assert!(same.render().contains("3 ok, 0 regressed"));

        let slower = bench_doc(
            &header(),
            &[measured("emu_cg1024", &[2.90, 2.91, 2.92], 0.0)],
        );
        let c = compare(&a, &slower).unwrap();
        assert!(!c.passed());
        let wall = c.rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert_eq!(wall.verdict, Verdict::Regressed);

        // A higher fail_ratio alone fails the comparison.
        let failing = bench_doc(
            &header(),
            &[measured("emu_cg1024", &[2.30, 2.31, 2.32], 0.5)],
        );
        assert!(!compare(&a, &failing).unwrap().passed());

        // setup_s is judged on its medians: an outlier first set-up on
        // either side does not make the row unresolved.
        let with_setup = |samples: &[f64]| {
            let mut m = measured("emu_cg1024", &[2.30, 2.31, 2.32], 0.0);
            m.metrics.insert(
                "setup_s".into(),
                Value {
                    value: crate::stats::median(samples),
                    samples: samples.to_vec(),
                },
            );
            bench_doc(&header(), &[m])
        };
        let c = compare(
            &with_setup(&[9.0, 0.03, 0.03, 0.03, 0.03]),
            &with_setup(&[0.03, 0.031, 0.03, 0.2, 0.03]),
        )
        .unwrap();
        let setup = c.rows.iter().find(|r| r.metric == "setup_s").unwrap();
        assert_eq!(setup.verdict, Verdict::Ok);

        let other = bench_doc(&header(), &[measured("suite_paper", &[10.4], 0.0)]);
        let c = compare(&a, &other).unwrap();
        assert_eq!(c.missing, vec!["emu_cg1024".to_string()]);
        assert!(!c.passed());
        assert!(compare(&a, &Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn driver_metric_lists_match_the_registry() {
        let e2e = driver_names(false);
        assert!(e2e.contains(&("setup_s", "s")));
        assert!(!e2e.iter().any(|(n, _)| *n == "fail_ratio"));
        assert_eq!(driver_names(true).len(), PER_LAYER.len());
        assert_eq!(workload_names().len(), 5);
    }
}
