//! No public item without a caller.
//!
//! Every `pub fn | struct | enum | trait | const | static | type` declared
//! in the non-test part of `crates/*/src` must be named somewhere else in
//! the program: in another crate source file, in the facade `src/`, in
//! `examples/`, in the benchmark harness `perf/src`, or in its own file
//! outside the declaration. An item only its own tests call is dead weight; delete it,
//! or list it in [`ALLOW`] with the reason it stays.
//!
//! The scan is textual and reads only the part of each file before its
//! first `#[cfg(test)]`, without `pub use` re-exports and `//` lines
//! (doc comments and doctests are not callers). A mention is a
//! whole-word match of the item's name, so a common name such as `new`
//! always passes: the check finds items nothing names at all.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// `(file, item, reason)`: public items with no caller in the scanned
/// code that stay on purpose.
const ALLOW: &[(&str, &str, &str)] = &[
    (
        "crates/apapps/src/util/penta.rs",
        "solve",
        "reference pentadiagonal solver the SP tests compare against",
    ),
    (
        "crates/apapps/src/util/penta.rs",
        "residual",
        "reference residual the SP tests compare against",
    ),
    (
        "crates/apapps/src/util/sparse.rs",
        "cg_reference",
        "serial CG the CG tests compare against",
    ),
    (
        "crates/bench/src/lib.rs",
        "fig7_markdown",
        "renders the Figure 7 table tests/paper_fidelity.rs compares EXPERIMENTS.md against",
    ),
    (
        "crates/apobs/src/chrome.rs",
        "chrome_trace",
        "in-memory reference the streaming Chrome-trace writer is tested against",
    ),
    (
        "crates/apfuzz/src/generate.rs",
        "gen_program",
        "fuzz entry point that crates/apfuzz/tests drives",
    ),
    (
        "crates/apfuzz/src/generate.rs",
        "gen_big_chunk",
        "fuzz entry point that crates/apfuzz/tests drives",
    ),
    (
        "crates/apfuzz/src/runner.rs",
        "program_evtrace",
        "fuzz entry point that crates/apfuzz/tests drives",
    ),
    (
        "crates/apfuzz/src/chaos.rs",
        "run_chaos",
        "fuzz entry point that crates/apfuzz/tests drives",
    ),
    (
        "crates/core/src/cell.rs",
        "wt_write",
        "the paper's 4.2 write-through API",
    ),
    (
        "crates/core/src/cell.rs",
        "wt_invalidate_all",
        "the paper's 4.2 write-through API",
    ),
    (
        "crates/core/src/cell.rs",
        "reduce_vec_sum_f64",
        "the paper's 4.5 vector reduction (Table 3's V Gop), which crates/core/tests drives",
    ),
    (
        "crates/apnet/src/snet.rs",
        "waiting_count",
        "test observation of the S-net barrier",
    ),
    (
        "crates/apmem/src/memory.rs",
        "resident_frames",
        "test observation of DRAM frame residency",
    ),
    (
        "crates/apobs/src/event.rs",
        "accounted",
        "test observation of a cell's bucket times",
    ),
    (
        "crates/apobs/src/hist.rs",
        "bucket_count",
        "test observation of one histogram bucket",
    ),
    (
        "crates/apmon/src/report.rs",
        "check_metrics_schema",
        "test observation: tests/telemetry.rs checks the metrics artifact's schema",
    ),
];

/// Directories whose sources count as callers, relative to the repo root.
const CALLERS: &[&str] = &["src", "examples", "perf/src"];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The lines the scan reads, numbered from 1: everything before the
/// first `#[cfg(test)]`, less `pub use` statements and `//` lines.
fn scanned_lines(text: &str) -> Vec<(usize, &str)> {
    let mut lines = Vec::new();
    let mut in_pub_use = false;
    for (i, line) in text.lines().enumerate() {
        let t = line.trim_start();
        if t.starts_with("#[cfg(test)]") {
            break;
        }
        if in_pub_use || t.starts_with("pub use ") {
            in_pub_use = !line.contains(';');
            continue;
        }
        if !t.starts_with("//") {
            lines.push((i + 1, line));
        }
    }
    lines
}

fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The name a `pub` item declaration on `line` introduces, if any.
fn declared(line: &str) -> Option<&str> {
    let mut w = words(line.trim_start().strip_prefix("pub ")?);
    let mut kind = w.next()?;
    while matches!(kind, "async" | "unsafe") {
        kind = w.next()?;
    }
    match kind {
        "fn" | "struct" | "enum" | "trait" | "type" => w.next(),
        "static" => w.find(|&n| n != "mut"),
        "const" => match w.next()? {
            "fn" => w.next(),
            "unsafe" => w.nth(1),
            name => Some(name),
        },
        _ => None,
    }
}

#[test]
fn every_public_item_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rel = |p: &Path| p.strip_prefix(root).unwrap().display().to_string();

    let mut declaring = Vec::new();
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is readable");
    for krate in crates {
        rs_files(&krate.unwrap().path().join("src"), &mut declaring);
    }
    let mut callers = Vec::new();
    for dir in CALLERS {
        rs_files(&root.join(dir), &mut callers);
    }
    assert!(declaring.len() > 50, "found only {} files", declaring.len());

    let texts: Vec<(String, String)> = declaring
        .iter()
        .chain(&callers)
        .map(|p| (rel(p), fs::read_to_string(p).expect("readable source")))
        .collect();
    let scanned: Vec<Vec<(usize, &str)>> = texts.iter().map(|(_, t)| scanned_lines(t)).collect();
    let mut mentions: HashMap<&str, usize> = HashMap::new();
    for (_, line) in scanned.iter().flatten() {
        for w in words(line) {
            *mentions.entry(w).or_insert(0) += 1;
        }
    }

    let mut uncalled = Vec::new();
    for ((path, _), lines) in texts.iter().zip(&scanned).take(declaring.len()) {
        for &(line_no, line) in lines {
            let Some(name) = declared(line) else {
                continue;
            };
            // The declaration itself is the one mention that is not a use.
            if mentions.get(name).copied().unwrap_or(0) <= 1 {
                uncalled.push((path.as_str(), line_no, name));
            }
        }
    }

    let allowed = |path: &str, name: &str| ALLOW.iter().any(|&(p, n, _)| p == path && n == name);
    let failures: Vec<String> = uncalled
        .iter()
        .filter(|&&(path, _, name)| !allowed(path, name))
        .map(|(path, line, name)| format!("{path}:{line} {name}"))
        .collect();
    let stale: Vec<String> = ALLOW
        .iter()
        .filter(|&&(p, n, _)| {
            !uncalled
                .iter()
                .any(|&(path, _, name)| path == p && name == n)
        })
        .map(|(p, n, _)| format!("{p} {n}"))
        .collect();
    assert!(
        failures.is_empty(),
        "public items nothing outside their own tests names; delete them, or add them to \
         ALLOW with a reason:\n  {}",
        failures.join("\n  ")
    );
    assert!(
        stale.is_empty(),
        "ALLOW entries that name no uncalled item; delete them:\n  {}",
        stale.join("\n  ")
    );
}
