//! The artifact manifest: `repro pins` and `results/ARTIFACTS.fnv`.
//!
//! Every output this repository reproduces byte for byte — reports,
//! tables, recordings, fault reports, Perfetto and metrics exports, job
//! server bodies — is one manifest row `NAME BYTES FNV1A64`. [`TABLE`] is
//! the one place that says how each artifact is made: a `repro` command
//! line run in-process where the command writes files and prints nothing,
//! otherwise the library calls a printing command makes. `repro pins`
//! prints every row, and CI diffs that against the checked-in manifest;
//! `tests/determinism.rs` rebuilds the `test/` rows in tier-1. A change that
//! moves a simulated byte regenerates the manifest (`repro pins >
//! results/ARTIFACTS.fnv`) in its own diff, so the moved rows are what
//! review reads.

use crate::cli::REPRO;
use crate::{all_text, record, run_suite};
use apapps::Scale;
use apcore::MachineConfig;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which rows [`manifest`] builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rows {
    /// The `test/` rows: test-scale runs tier-1 affords.
    Test,
    /// Every row, from the repository root (the fault rows read
    /// `tests/faults/cg_survivable.ron`). The `serve/` rows start a
    /// `repro serve` child, so only the `repro` binary builds them.
    All,
}

/// Makes an entry's artifacts under the directory it is handed and
/// returns their file names there, in row order.
type Make = fn(&Path) -> Result<Vec<String>, String>;

/// `(directory, make)` in manifest order. A row is named
/// `directory/file`; entries are independent, so they build in parallel.
#[rustfmt::skip]
const TABLE: &[(&str, Make)] = &[
    // `table2` prints its table, so `bench`, which prints nothing, writes
    // the suite's Perfetto export: the same runs, the same timeline.
    ("test", |d| repro(d, "bench --scale test --bench-out {dir}/bench.json --trace-out {dir}/trace.json", &["bench.json", "trace.json"])),
    ("test", |d| text(d, "all.txt", all_text(&run_suite(Scale::Test, &MachineConfig::new(1))))),
    ("test", |d| repro(d, "record --apps CG --scale test --trace-out {dir}/CG.evtrace", &["CG.evtrace"])),
    ("test", |d| repro(d, "record --apps CG --scale test --size 1024 --trace-out {dir}/CG1024.evtrace", &["CG1024.evtrace"])),
    ("test", |d| repro(d, "sweep --apps CG --sizes 4096 --scale test --threads 1 --bench-out {dir}/CG4096.json", &["CG4096.json"])),
    ("test", |d| same_at(d, 8, |d, t| repro(d, &format!("sweep --scale test --apps EP,CG --sizes default,4 --factors 0.5,1.0 --threads {t} --bench-out {{dir}}/sweep.json"), &["sweep.json"]))),
    ("export", |d| repro(d, "bench --scale test --bench-out {dir}/sampled.json --metrics-interval 50 --metrics-out {dir}/metrics.json --trace-out {dir}/sampled_trace.json", &["metrics.json", "sampled_trace.json"])),
    ("paper", |d| text(d, "all.txt", all_text(&run_suite(Scale::Paper, &MachineConfig::new(1))))),
    ("paper", |d| text(d, "ablations.txt", crate::ablations(Scale::Paper))),
    ("paper", |d| repro(d, "bench --scale paper --bench-out {dir}/bench.json", &["bench.json"])),
    ("paper", |d| text(d, "fig6.txt", crate::fig6())),
    ("paper", |d| text(d, "fig7.txt", crate::fig7(1600))),
    // Built at `--threads 1` and `4`: the paper suite's recordings, CG
    // under the survivable fault schedule and sampled every 50 µs, and
    // the schedule's fault report.
    ("paper", |d| same_at(d, 4, |d, t| repro(d, &format!("record --apps EP,CG,FT,SP,TCst,TCnost,MatMul,SCG --scale paper --threads {t} --out-dir {{dir}}"), &["EP.evtrace", "CG.evtrace", "FT.evtrace", "SP.evtrace", "TCst.evtrace", "TCnost.evtrace", "MatMul.evtrace", "SCG.evtrace"]))),
    ("paper", |d| same_at(d, 4, |d, t| repro(d, &format!("record --apps CG --scale paper --threads {t} --faults tests/faults/cg_survivable.ron --trace-out {{dir}}/CGfault.evtrace"), &["CGfault.evtrace"]))),
    ("paper", |d| same_at(d, 4, |d, t| repro(d, &format!("record --apps CG --scale paper --threads {t} --metrics-interval 50 --trace-out {{dir}}/CGmetrics.evtrace"), &["CGmetrics.evtrace"]))),
    ("paper", |d| same_at(d, 4, |d, t| repro(d, &format!("fault --scale paper --threads {t} --faults tests/faults/cg_survivable.ron --out {{dir}}/fault.txt"), &["fault.txt"]))),
    ("paper", |d| same_at(d, 4, |d, t| repro(d, &format!("sweep --scale paper --apps CG --threads {t} --bench-out {{dir}}/sweep_CG.json --metrics-out {{dir}}/sweep_CG_metrics.json"), &["sweep_CG.json", "sweep_CG_metrics.json"]))),
    ("paper", remodel),
    ("serve", serve),
];

/// Builds an entry at `--threads 1` in `d` and at `--threads T` in
/// `d/tT`, and returns the first build's files: one row per artifact,
/// once the second build wrote the same bytes.
fn same_at(
    d: &Path,
    threads: usize,
    build: impl Fn(&Path, usize) -> Result<Vec<String>, String>,
) -> Result<Vec<String>, String> {
    let read = |p: PathBuf| std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()));
    let names = build(d, 1)?;
    let dt = d.join(format!("t{threads}"));
    std::fs::create_dir_all(&dt).map_err(|e| format!("{}: {e}", dt.display()))?;
    for name in build(&dt, threads)? {
        if read(dt.join(&name))? != read(d.join(&name))? {
            return Err(format!("{name} differs between --threads 1 and {threads}"));
        }
        let _ = std::fs::remove_file(dt.join(&name));
    }
    Ok(names)
}

/// `repro remodel CG.evtrace --factors 0.5,1.0,2.0 --bench-out
/// remodel.json` over a paper-scale CG recording: the report, and the
/// text the command prints.
fn remodel(d: &Path) -> Result<Vec<String>, String> {
    let cmd = "record --apps CG --scale paper --trace-out {dir}/remodel_CG.evtrace";
    repro(d, cmd, &["remodel_CG.evtrace"])?;
    let doc = aptrace::EvTrace::read_file(&d.join("remodel_CG.evtrace")).map_err(|e| e.to_string());
    let rows = record::remodel_rows(&doc?, &[0.5, 1.0, 2.0])?;
    let report = crate::bench_report(&rows, Scale::Paper, None).to_string();
    let mut names = text(d, "remodel.json", report)?;
    names.extend(text(d, "remodel.txt", record::remodel_text(&rows))?);
    Ok(names)
}

/// The job documents the `serve/` rows submit, each twice: a miss, then
/// a hit or the same failure.
#[rustfmt::skip]
const JOBS: &[(&str, &str)] = &[
    ("bench", r#"{"kind":"bench","apps":["EP"],"scale":"test"}"#),
    ("bench_respelled", r#"{"scale":"test","kind":"bench","factors":[1],"apps":["EP"]}"#),
    ("grid", r#"{"kind":"bench","apps":["EP","CG"],"sizes":["default",4],"factors":[0.5,1.0],"scale":"test"}"#),
    ("matmul_rev", r#"{"kind":"bench","apps":["MatMul"],"factors":[0.25,2.0],"scale":"test","rev":"pins"}"#),
    ("fault", r#"{"kind":"fault","scale":"test","fault_seed":1}"#),
    ("remodel_test", r#"{"kind":"remodel","trace":"CG.evtrace","factors":[0.5,1.0]}"#),
    ("remodel_test_default", r#"{"kind":"remodel","trace":"CG.evtrace"}"#),
    ("remodel_paper_rev", r#"{"kind":"remodel","trace":"CGp.evtrace","factors":[0.5,1.0,2.0],"rev":"pins"}"#),
    ("remodel_missing", r#"{"kind":"remodel","trace":"missing.evtrace"}"#),
    ("remodel_truncated", r#"{"kind":"remodel","trace":"bad.evtrace"}"#),
    ("unknown_app", r#"{"kind":"bench","apps":["NoSuchApp"],"scale":"test"}"#),
    ("sweep_kind", r#"{"kind":"sweep","apps":["EP"],"scale":"test"}"#),
];

/// The [`JOBS`] bodies from a real `repro serve` whose working directory
/// holds the traces they name: test-scale CG, paper-scale CG, and a
/// truncated copy. The server reads trace paths relative to its working
/// directory, hence a child process of this binary.
fn serve(d: &Path) -> Result<Vec<String>, String> {
    for (scale, file) in [("test", "CG.evtrace"), ("paper", "CGp.evtrace")] {
        let cmd = format!("record --apps CG --scale {scale} --trace-out {{dir}}/{file}");
        repro(d, &cmd, &[file])?;
    }
    let cg = std::fs::read(d.join("CG.evtrace")).map_err(|e| e.to_string())?;
    text(d, "bad.evtrace", &cg[..cg.len() / 2])?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate repro: {e}"))?;
    let mut child = Command::new(exe)
        .args("serve --addr 127.0.0.1:0 --workers 2 --cache-entries 4".split(' '))
        .current_dir(d)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start repro serve: {e}"))?;
    let bodies = submit_jobs(&mut child, d);
    let _ = child.kill();
    let _ = child.wait();
    bodies
}

fn submit_jobs(server: &mut Child, d: &Path) -> Result<Vec<String>, String> {
    let mut line = String::new();
    let stdout = server.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    let addr = line.trim().strip_prefix("listening ");
    let addr = addr.ok_or("repro serve printed no address")?;
    let mut names = Vec::new();
    for (job, doc) in JOBS {
        for name in [format!("{job}.json"), format!("{job}.again.json")] {
            let resp = apserve::client::request(addr, "POST", "/submit", doc.as_bytes())?;
            names.extend(text(d, &name, &resp.body)?);
        }
    }
    Ok(names)
}

/// Runs `repro ARGS` in-process, `{dir}` standing for `d`: the command
/// writes the files `outs` names there and prints nothing, because
/// stdout carries the manifest.
fn repro(d: &Path, args: &str, outs: &[&str]) -> Result<Vec<String>, String> {
    let dir = d.display().to_string();
    let argv: Vec<String> = args
        .split_whitespace()
        .map(|a| a.replace("{dir}", &dir))
        .collect();
    match REPRO.main(&argv) {
        0 => Ok(outs.iter().map(|o| o.to_string()).collect()),
        code => Err(format!("`repro {args}` exited {code}")),
    }
}

/// Writes an artifact the caller made: what a printing command prints,
/// or a response body.
fn text(d: &Path, name: &str, bytes: impl AsRef<[u8]>) -> Result<Vec<String>, String> {
    record::write_file(&d.join(name), bytes.as_ref()).map_err(|e| e.to_string())?;
    Ok(vec![name.to_string()])
}

/// One manifest row: name, byte count and FNV-1a-64 of `bytes`.
pub fn manifest_row(name: &str, bytes: &[u8]) -> String {
    format!(
        "{name} {} {:016x}",
        bytes.len(),
        aputil::hash::fnv1a_64(bytes)
    )
}

/// Builds `rows` in a scratch directory and returns their manifest
/// lines, newline-terminated, in [`TABLE`] order.
pub fn manifest(rows: Rows) -> Result<String, String> {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let scratch =
        std::env::temp_dir().join(format!("ap1000plus-pins-{}-{run}", std::process::id()));
    let entries: Vec<&(&str, Make)> = TABLE
        .iter()
        .filter(|(dir, _)| rows == Rows::All || *dir == "test")
        .collect();
    let built = aputil::par_map_ordered(&entries, aputil::available_threads(), |(dir, make)| {
        let d: PathBuf = scratch.join(dir);
        std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        let mut lines = String::new();
        for name in make(&d).map_err(|e| format!("{dir}: {e}"))? {
            let path = d.join(&name);
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let _ = std::fs::remove_file(&path);
            lines.push_str(&manifest_row(&format!("{dir}/{name}"), &bytes));
            lines.push('\n');
        }
        Ok::<_, String>(lines)
    });
    let _ = std::fs::remove_dir_all(&scratch);
    built.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_build_that_depends_on_the_thread_count_is_an_error() {
        let d = std::env::temp_dir().join(format!("ap1000plus-same-at-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("scratch directory");
        let same = same_at(&d, 4, |d, _| text(d, "x.txt", "x"));
        let moved = same_at(&d, 4, |d, t| text(d, "x.txt", t.to_string()));
        let _ = std::fs::remove_dir_all(&d);
        assert_eq!(same, Ok(vec!["x.txt".to_string()]));
        assert_eq!(moved, Err("x.txt differs between --threads 1 and 4".into()));
    }
}
