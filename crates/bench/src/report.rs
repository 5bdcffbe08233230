//! Versioned machine-readable bench reports and the regression comparer.
//!
//! `repro --bench-out BENCH_<rev>.json` serializes a whole suite run —
//! Table-2/3 numbers, Figure-8 rows, per-segment PUT/GET latency
//! histograms, critical-path attribution and the emulator-vs-MLSim
//! divergence — under a versioned schema, seeding the repo's performance
//! trajectory. `repro compare <base.json> <current.json>` diffs two such
//! reports and exits nonzero when any total regresses past a threshold.
//! It is a tool for comparing two revisions' reports; the byte-exact
//! referee of every artifact is the manifest (`crate::pins`).
//!
//! The schema is documented in DESIGN.md §"Bench report schema".

use crate::ExperimentRow;
use apapps::Scale;
use aputil::Json;
use std::path::Path;

/// Schema identifier stamped into every bench report.
pub const BENCH_SCHEMA: &str = "ap1000plus.bench";
/// Current schema version. Bump on breaking layout changes; `compare`
/// refuses to diff reports whose versions differ.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Builds the versioned bench-report document for a suite run.
pub fn bench_report(rows: &[ExperimentRow], scale: Scale, rev: Option<&str>) -> Json {
    let mut members = vec![
        ("schema", Json::from(BENCH_SCHEMA)),
        ("version", Json::from(BENCH_SCHEMA_VERSION)),
        (
            "scale",
            Json::from(format!("{scale:?}").to_ascii_lowercase()),
        ),
    ];
    if let Some(rev) = rev {
        members.push(("rev", Json::from(rev)));
    }
    // Strip host wall-clock from the versioned report: reports are pinned
    // byte for byte (results/ARTIFACTS.fnv) at any thread count, so only
    // simulated (reproducible) numbers belong.
    members.push((
        "apps",
        Json::Arr(rows.iter().map(|r| r.to_json_with_host(false)).collect()),
    ));
    // Machine-wide aggregate of every row's hardware counters, merged in
    // row (grid) order. `compare` ignores it, so old baselines still diff
    // cleanly against reports that carry it.
    let mut totals = apobs::Counters::new();
    for r in rows {
        totals.merge(&r.counters);
    }
    members.push(("totals", totals.to_json()));
    Json::obj(members)
}

/// Writes [`bench_report`] to `path` atomically (temp file + rename):
/// comparisons and digests read these files, so a crash mid-write must
/// never leave a truncated report behind.
pub fn write_bench_report(
    path: &Path,
    rows: &[ExperimentRow],
    scale: Scale,
    rev: Option<&str>,
) -> std::io::Result<()> {
    aputil::write_atomic(path, bench_report(rows, scale, rev).to_string().as_bytes())
}

/// One metric that got slower than the baseline allows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Regression {
    /// Application (Table-2 row) the metric belongs to.
    pub app: String,
    /// Metric name (`emulator_total_ns` or `<model> total_ns`).
    pub metric: String,
    /// Baseline nanoseconds.
    pub base_ns: u64,
    /// Current nanoseconds.
    pub cur_ns: u64,
}

impl Regression {
    /// Slowdown over baseline, in percent. A zero-ns baseline has no
    /// finite slowdown: any nonzero current value is reported as
    /// `f64::INFINITY` (and regresses at every threshold); zero-to-zero
    /// is 0%.
    pub fn pct(&self) -> f64 {
        if self.base_ns == 0 {
            return if self.cur_ns == 0 { 0.0 } else { f64::INFINITY };
        }
        (self.cur_ns as f64 / self.base_ns as f64 - 1.0) * 100.0
    }

    fn pct_display(&self) -> String {
        if self.pct().is_infinite() {
            "new cost on a 0 ns baseline".to_string()
        } else {
            format!("+{:.1}%", self.pct())
        }
    }
}

/// Outcome of diffing two bench reports.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Threshold the comparison ran with, in percent.
    pub threshold_pct: f64,
    /// Metrics compared across the two reports.
    pub checked: usize,
    /// Metrics beyond the threshold, worst first.
    pub regressions: Vec<Regression>,
    /// Apps present in the baseline but absent from the current report.
    pub missing_apps: Vec<String>,
}

impl CompareReport {
    /// True when nothing regressed and no app disappeared.
    pub fn pass(&self) -> bool {
        self.regressions.is_empty() && self.missing_apps.is_empty()
    }

    /// Human rendering, one line per finding.
    pub fn render(&self) -> String {
        let mut out = format!(
            "compared {} metrics at +{:.1}% threshold: {}\n",
            self.checked,
            self.threshold_pct,
            if self.pass() { "PASS" } else { "FAIL" }
        );
        for app in &self.missing_apps {
            out.push_str(&format!("  MISSING  {app}: not in current report\n"));
        }
        for r in &self.regressions {
            out.push_str(&format!(
                "  REGRESSION  {} {}: {} -> {} ns ({})\n",
                r.app,
                r.metric,
                r.base_ns,
                r.cur_ns,
                r.pct_display()
            ));
        }
        out
    }
}

fn app_metrics(app: &Json) -> Vec<(String, u64)> {
    let mut m = Vec::new();
    if let Some(v) = app.get("emulator_total_ns").and_then(Json::as_u64) {
        m.push(("emulator_total_ns".to_string(), v));
    }
    if let Some(models) = app.get("models").and_then(Json::as_arr) {
        for model in models {
            if let (Some(name), Some(total)) = (
                model.get("model").and_then(Json::as_str),
                model.get("total_ns").and_then(Json::as_u64),
            ) {
                m.push((format!("{name} total_ns"), total));
            }
        }
    }
    m
}

fn check_schema(doc: &Json, which: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(BENCH_SCHEMA) => {}
        other => return Err(format!("{which}: not a {BENCH_SCHEMA} report ({other:?})")),
    }
    match doc.get("version").and_then(Json::as_u64) {
        Some(BENCH_SCHEMA_VERSION) => Ok(()),
        other => Err(format!(
            "{which}: schema version {other:?}, expected {BENCH_SCHEMA_VERSION}"
        )),
    }
}

/// Diffs two bench reports. A metric regresses when
/// `current > baseline * (1 + threshold_pct/100)`; apps in the baseline
/// but missing from the current report also fail the comparison. Errors
/// on schema/version mismatch.
pub fn compare_reports(
    base: &Json,
    current: &Json,
    threshold_pct: f64,
) -> Result<CompareReport, String> {
    check_schema(base, "baseline")?;
    check_schema(current, "current")?;
    let apps = |doc: &Json, which: &str| -> Result<Vec<Json>, String> {
        doc.get("apps")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| format!("{which}: no apps array"))
    };
    let base_apps = apps(base, "baseline")?;
    let cur_apps = apps(current, "current")?;
    let name_of = |app: &Json| {
        app.get("app")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut out = CompareReport {
        threshold_pct,
        ..CompareReport::default()
    };
    let limit = 1.0 + threshold_pct / 100.0;
    for b in &base_apps {
        let name = name_of(b);
        let Some(c) = cur_apps.iter().find(|c| name_of(c) == name) else {
            out.missing_apps.push(name);
            continue;
        };
        let cur_metrics = app_metrics(c);
        for (metric, base_ns) in app_metrics(b) {
            let Some((_, cur_ns)) = cur_metrics.iter().find(|(m, _)| *m == metric) else {
                continue;
            };
            out.checked += 1;
            // A 0 ns baseline can't scale by a percentage threshold: any
            // nonzero current value is new cost and regresses outright.
            let regressed = if base_ns == 0 {
                *cur_ns > 0
            } else {
                *cur_ns as f64 > base_ns as f64 * limit
            };
            if regressed {
                out.regressions.push(Regression {
                    app: name.clone(),
                    metric,
                    base_ns,
                    cur_ns: *cur_ns,
                });
            }
        }
    }
    out.regressions.sort_by(|a, b| {
        b.pct()
            .partial_cmp(&a.pct())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.app.cmp(&b.app))
    });
    Ok(out)
}

/// Table 2 as a GitHub-flavored-Markdown table.
pub fn table2_markdown(rows: &[ExperimentRow]) -> String {
    let mut s = String::new();
    s.push_str("| App | PE | AP1000+ | AP1000* |\n");
    s.push_str("| --- | ---: | ---: | ---: |\n");
    for r in rows {
        let (plus, star) = r.table2();
        s.push_str(&format!(
            "| {} | {} | {plus:.2} | {star:.2} |\n",
            r.name, r.pe
        ));
    }
    s
}

/// Table 3 as a GitHub-flavored-Markdown table.
pub fn table3_markdown(rows: &[ExperimentRow]) -> String {
    let mut s = String::new();
    s.push_str("| App | PE | SEND | Gop | VGop | Sync | PUT | PUTS | GET | GETS | MsgBytes |\n");
    s.push_str("| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: |\n");
    for r in rows {
        let t = &r.stats;
        s.push_str(&format!(
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
            r.name, r.pe, t.send, t.gop, t.vgop, t.sync, t.put, t.puts, t.get, t.gets, t.msg_size
        ));
    }
    s
}

/// Figure 8 as a GitHub-flavored-Markdown table (normalized to
/// AP1000+ = 100).
pub fn fig8_markdown(rows: &[ExperimentRow]) -> String {
    let mut s = String::new();
    s.push_str("| App | Model | Exec | RTS | Overhead | Idle | Total |\n");
    s.push_str("| --- | --- | ---: | ---: | ---: | ---: | ---: |\n");
    for r in rows {
        let (p, st) = r.fig8();
        for (label, row) in [("AP1000+", p), ("AP1000*", st)] {
            s.push_str(&format!(
                "| {} | {label} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
                r.name, row.exec, row.rts, row.overhead, row.idle, row.total
            ));
        }
    }
    s
}

/// The full Markdown report (Table 2, Table 3, Figure 8) for `results/`.
pub fn markdown_report(rows: &[ExperimentRow], scale: Scale) -> String {
    format!(
        "# AP1000+ reproduction results ({scale:?} scale)\n\n\
         ## Table 2: speedup vs AP1000\n\n{}\n\
         ## Table 3: application statistics (per PE)\n\n{}\n\
         ## Figure 8: normalized execution-time breakdown (AP1000+ = 100)\n\n{}",
        table2_markdown(rows),
        table3_markdown(rows),
        fig8_markdown(rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app_json(name: &str, emu_ns: u64, plus_ns: u64) -> Json {
        Json::obj(vec![
            ("app", Json::from(name)),
            ("emulator_total_ns", Json::from(emu_ns)),
            (
                "models",
                Json::Arr(vec![Json::obj(vec![
                    ("model", Json::from("ap1000+")),
                    ("total_ns", Json::from(plus_ns)),
                ])]),
            ),
        ])
    }

    fn report_json(apps: Vec<Json>) -> Json {
        Json::obj(vec![
            ("schema", Json::from(BENCH_SCHEMA)),
            ("version", Json::from(BENCH_SCHEMA_VERSION)),
            ("scale", Json::from("test")),
            ("apps", Json::Arr(apps)),
        ])
    }

    #[test]
    fn identical_reports_pass() {
        let r = report_json(vec![app_json("EP", 1000, 500)]);
        let cmp = compare_reports(&r, &r, 10.0).unwrap();
        assert!(cmp.pass());
        assert_eq!(cmp.checked, 2);
    }

    #[test]
    fn injected_slowdown_fails_and_ranks_worst_first() {
        let base = report_json(vec![app_json("EP", 1000, 500), app_json("CG", 2000, 900)]);
        // EP emulator +50%, CG model +20%; CG emulator improves.
        let cur = report_json(vec![app_json("EP", 1500, 500), app_json("CG", 1800, 1080)]);
        let cmp = compare_reports(&base, &cur, 10.0).unwrap();
        assert!(!cmp.pass());
        assert_eq!(cmp.regressions.len(), 2);
        assert_eq!(cmp.regressions[0].app, "EP");
        assert_eq!(cmp.regressions[0].metric, "emulator_total_ns");
        assert!((cmp.regressions[0].pct() - 50.0).abs() < 1e-9);
        assert_eq!(cmp.regressions[1].app, "CG");
        assert!(cmp.render().contains("REGRESSION"));
    }

    #[test]
    fn threshold_tolerates_small_slowdowns() {
        let base = report_json(vec![app_json("EP", 1000, 500)]);
        let cur = report_json(vec![app_json("EP", 1090, 540)]);
        assert!(compare_reports(&base, &cur, 10.0).unwrap().pass());
        assert!(!compare_reports(&base, &cur, 5.0).unwrap().pass());
    }

    #[test]
    fn zero_baseline_regresses_on_any_new_cost() {
        let base = report_json(vec![app_json("EP", 0, 0)]);
        let cur = report_json(vec![app_json("EP", 1, 0)]);
        let cmp = compare_reports(&base, &cur, 10.0).unwrap();
        assert!(!cmp.pass(), "new cost on a 0 ns baseline must regress");
        assert_eq!(cmp.regressions.len(), 1);
        let r = &cmp.regressions[0];
        assert!(r.pct().is_infinite() && r.pct() > 0.0);
        // No inf/NaN leaks into the rendering.
        let rendered = cmp.render();
        assert!(rendered.contains("0 ns baseline"), "{rendered}");
        assert!(
            !rendered.contains("inf") && !rendered.contains("NaN"),
            "{rendered}"
        );
        // Zero-to-zero is not a regression.
        let cmp = compare_reports(&base, &base, 10.0).unwrap();
        assert!(cmp.pass());
        assert_eq!(
            Regression {
                app: "EP".into(),
                metric: "emulator_total_ns".into(),
                base_ns: 0,
                cur_ns: 0,
            }
            .pct(),
            0.0
        );
    }

    /// Rows are paired by name, so two factors that round alike must not
    /// share one: the baseline's second point would be diffed against the
    /// current report's first and a regression there would pass unseen.
    #[test]
    fn a_regression_at_the_second_of_two_close_factors_is_reported() {
        let label = |factor| {
            crate::SweepPoint {
                app: "EP".into(),
                pe: None,
                factor,
            }
            .label()
        };
        let (first, second) = (label(0.123), label(0.124));
        let base = report_json(vec![
            app_json(&first, 1000, 500),
            app_json(&second, 1000, 600),
        ]);
        let cur = report_json(vec![
            app_json(&first, 1000, 500),
            app_json(&second, 1000, 900),
        ]);
        let cmp = compare_reports(&base, &cur, 10.0).unwrap();
        assert!(!cmp.pass(), "{}", cmp.render());
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].app, second);
        assert_eq!(cmp.regressions[0].cur_ns, 900);
    }

    #[test]
    fn missing_app_fails() {
        let base = report_json(vec![app_json("EP", 1000, 500), app_json("CG", 2000, 900)]);
        let cur = report_json(vec![app_json("EP", 1000, 500)]);
        let cmp = compare_reports(&base, &cur, 10.0).unwrap();
        assert!(!cmp.pass());
        assert_eq!(cmp.missing_apps, ["CG"]);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let good = report_json(vec![]);
        let bad = Json::obj(vec![
            ("schema", Json::from("something.else")),
            ("version", Json::from(1u64)),
        ]);
        assert!(compare_reports(&bad, &good, 10.0).is_err());
        let wrong_version = Json::obj(vec![
            ("schema", Json::from(BENCH_SCHEMA)),
            ("version", Json::from(99u64)),
            ("apps", Json::Arr(vec![])),
        ]);
        assert!(compare_reports(&good, &wrong_version, 10.0).is_err());
    }
}
