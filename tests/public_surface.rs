//! No public item without a caller.
//!
//! Every `pub fn | struct | enum | trait | const | static | type` declared
//! in the non-test part of `crates/*/src` must be named somewhere else in
//! the program: in another crate source file, in the facade `src/`, in
//! `examples/`, in the benchmark harness `perf/src`, or in its own file
//! outside the declaration. An item only its own tests call is dead weight; delete it,
//! or list it in [`ALLOW`] with the reason it stays.
//!
//! Two tests share that rule and the one [`ALLOW`] table:
//!
//! - `every_public_item_has_a_caller` (fast, tier-1) is textual. It reads
//!   only the part of each file before its first `#[cfg(test)]`, without
//!   `pub use` re-exports and `//` lines (doc comments and doctests are not
//!   callers). A mention is a whole-word match of the item's name, so a
//!   common name such as `new` or `len` always passes: it finds items
//!   nothing names at all.
//! - `every_public_method_has_a_caller` (`#[ignore]`d, its own CI job) lets
//!   the compiler referee the methods the name match cannot tell apart. On
//!   a copy of the tree it first marks every `pub fn` of an inherent `impl`
//!   `#[deprecated]`, so `cargo check` names each method another crate, a
//!   binary, an example or `perf/` calls. It then narrows every other one
//!   to `pub(crate)` and reads rustc's `dead_code` lint: a method that
//!   lint reports has no caller outside tests.
//!
//! An [`ALLOW`] row names a method as `Type::method` and any other item by
//! its bare name.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use aputil::Json;

/// `(file, item, reason)`: public items with no caller in the scanned
/// code that stay on purpose.
const ALLOW: &[(&str, &str, &str)] = &[
    (
        "crates/apapps/src/util/penta.rs",
        "Penta::solve",
        "reference pentadiagonal solver the SP tests compare against",
    ),
    (
        "crates/apapps/src/util/penta.rs",
        "Penta::residual",
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
        "fuzz entry point that tests/fuzz_smoke.rs drives",
    ),
    (
        "crates/apfuzz/src/generate.rs",
        "gen_big_chunk",
        "fuzz entry point that tests/fuzz_smoke.rs drives",
    ),
    (
        "crates/apfuzz/src/runner.rs",
        "program_evtrace",
        "fuzz entry point that tests/fuzz_smoke.rs drives",
    ),
    (
        "crates/apfuzz/src/chaos.rs",
        "run_chaos",
        "chaos entry point that tests/chaos_smoke.rs drives",
    ),
    (
        "crates/core/src/cell.rs",
        "Cell::wt_write",
        "the paper's 4.2 write-through API",
    ),
    (
        "crates/core/src/cell.rs",
        "Cell::wt_invalidate_all",
        "the paper's 4.2 write-through API",
    ),
    (
        "crates/core/src/cell.rs",
        "Cell::read_flag",
        "the paper's 4.1 flag check, charged CostParams::flag_check; tests/protocol.rs's pinned MIX program issues it",
    ),
    (
        "crates/core/src/cell.rs",
        "Cell::reduce_vec_sum_f64",
        "the paper's 4.5 vector reduction (Table 3's V Gop), which crates/core/tests drives",
    ),
    (
        "crates/apnet/src/snet.rs",
        "SNet::waiting_count",
        "test observation of the S-net barrier",
    ),
    (
        "crates/apmem/src/memory.rs",
        "Memory::resident_frames",
        "test observation of DRAM frame residency",
    ),
    (
        "crates/apobs/src/event.rs",
        "BucketTimes::accounted",
        "test observation of a cell's bucket times",
    ),
    (
        "crates/apobs/src/hist.rs",
        "Hist::bucket_count",
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

    // This scan sees a method row by its last segment. Whether a method row
    // is stale is for the compiler-refereed sweep below to say.
    let allowed = |path: &str, name: &str| {
        ALLOW
            .iter()
            .any(|&(p, n, _)| p == path && n.rsplit("::").next() == Some(name))
    };
    let failures: Vec<String> = uncalled
        .iter()
        .filter(|&&(path, _, name)| !allowed(path, name))
        .map(|(path, line, name)| format!("{path}:{line} {name}"))
        .collect();
    let stale: Vec<String> = ALLOW
        .iter()
        .filter(|&&(p, n, _)| {
            !n.contains("::")
                && !uncalled
                    .iter()
                    .any(|&(path, _, name)| path == p && name == n)
        })
        .map(|(p, n, _)| format!("{p} {n}"))
        .collect();
    assert_clean(&failures, &stale);
}

fn assert_clean(failures: &[String], stale: &[String]) {
    assert!(
        failures.is_empty(),
        "public items nothing outside their own tests calls; delete them, or add them to \
         ALLOW with a reason:\n  {}",
        failures.join("\n  ")
    );
    assert!(
        stale.is_empty(),
        "ALLOW entries that name no uncalled item; delete them:\n  {}",
        stale.join("\n  ")
    );
}

/// What the sweep copies: the workspace, and `perf/`'s own package.
const SWEPT: &[&str] = &[
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "shims",
    "src",
    "examples",
    "perf/Cargo.toml",
    "perf/Cargo.lock",
    "perf/src",
];

/// One `pub fn` of an inherent `impl` block.
struct Method {
    /// The declaring file, relative to the repo root.
    file: String,
    line: usize,
    /// `Type::method`.
    item: String,
    /// The declaring library's root, relative to the repo root.
    lib: PathBuf,
}

/// The type an `impl` header names: `impl<W: Write> StreamWriter<W> {`
/// names `StreamWriter`, and `impl fmt::Display for Json {` names `Json`.
fn impl_type(header: &str) -> Option<&str> {
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let (mut depth, mut prev) = (0, ' ');
        let end = rest.char_indices().position(|(_, c)| {
            match c {
                '<' => depth += 1,
                '>' if prev != '-' => depth -= 1,
                _ => {}
            }
            prev = c;
            depth == 0
        })?;
        rest = &rest[end + 1..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    let path = rest.rsplit(" for ").next()?.trim_start();
    let path = path.split(['<', ' ', '{']).next()?;
    path.rsplit("::").next().filter(|name| !name.is_empty())
}

/// The name of the method a `pub fn` line inside an `impl` declares.
fn method_name(line: &str) -> Option<&str> {
    let mut w = words(line.trim_start().strip_prefix("pub ")?);
    let mut kind = w.next()?;
    while matches!(kind, "const" | "async" | "unsafe") {
        kind = w.next()?;
    }
    (kind == "fn").then(|| w.next()).flatten()
}

/// The methods of `text`'s inherent `impl` blocks before its first
/// `#[cfg(test)]`, as `(line index, Type::method)`. It leans on rustfmt's
/// layout: a method sits one indent inside its `impl` header, and the
/// block closes with a `}` at the header's indent.
fn impl_methods(text: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    let mut open: Option<(usize, &str)> = None;
    for (i, line) in text.lines().enumerate() {
        let t = line.trim_start();
        let indent = line.len() - t.len();
        if t.starts_with("#[cfg(test)]") {
            break;
        }
        if let Some(ty) = impl_type(t) {
            open = Some((indent, ty));
        } else if let Some((at, ty)) = open {
            if t == "}" && indent == at {
                open = None;
            } else if indent == at + 4 {
                if let Some(name) = method_name(t) {
                    found.push((i, format!("{ty}::{name}")));
                }
            }
        }
    }
    found
}

/// A scratch copy of the tree that is deleted when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn copy_tree(from: &Path, to: &Path) {
    if from.is_dir() {
        fs::create_dir_all(to).expect("scratch directory");
        for entry in fs::read_dir(from).expect("readable directory") {
            let entry = entry.expect("readable directory entry");
            if entry.file_name() != "target" {
                copy_tree(&entry.path(), &to.join(entry.file_name()));
            }
        }
    } else {
        fs::create_dir_all(to.parent().unwrap()).expect("scratch directory");
        fs::copy(from, to).expect("copied source");
    }
}

/// Writes every declaring file of `tree` with each method line passed
/// through `edit(method index, line)`.
fn rewrite(
    tree: &Path,
    files: &[(String, String)],
    methods: &[Method],
    edit: impl Fn(usize, &str) -> String,
) {
    for (path, text) in files {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for (i, m) in methods.iter().enumerate().filter(|(_, m)| &m.file == path) {
            lines[m.line - 1] = edit(i, &lines[m.line - 1]);
        }
        fs::write(tree.join(path), lines.join("\n") + "\n").expect("scratch source");
    }
}

/// `cargo check ARGS` on `tree`, in its own target directory; returns the
/// compiler messages and fails the test if the check fails.
fn cargo_check(tree: &Path, args: &[&str]) -> Vec<Json> {
    let out = Command::new(option_env!("CARGO").unwrap_or("cargo"))
        .args(["check", "--offline", "--message-format=json"])
        .args(args)
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", tree.join("target"))
        // A `-D warnings` from the environment would make the probes errors.
        .env_remove("RUSTFLAGS")
        .output()
        .expect("cargo starts");
    let stdout = String::from_utf8(out.stdout).expect("cargo prints UTF-8");
    let messages: Vec<Json> = stdout
        .lines()
        .filter(|l| l.contains("\"compiler-message\""))
        .map(|l| Json::parse(l).expect("cargo prints one JSON document a line"))
        .collect();
    let errors: Vec<&str> = messages
        .iter()
        .filter_map(|m| field(m, &["message", "rendered"])?.as_str())
        .filter(|r| r.starts_with("error"))
        .collect();
    assert!(
        out.status.success(),
        "cargo check {} fails on the swept copy:\n{}{}",
        args.join(" "),
        errors.concat(),
        String::from_utf8_lossy(&out.stderr)
    );
    messages
}

/// The value at `path` in a cargo JSON message.
fn field<'a>(json: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(json, |j, key| j.get(key))
}

#[test]
#[ignore = "copies the tree and runs cargo check on it three times; CI runs it as its own job"]
fn every_public_method_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tree = Scratch(std::env::temp_dir().join(format!("public-surface-{}", std::process::id())));
    for entry in SWEPT {
        copy_tree(&root.join(entry), &tree.0.join(entry));
    }

    let mut files = Vec::new();
    let mut methods = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = krate.unwrap().path();
        let lib = dir.strip_prefix(root).unwrap().join("src/lib.rs");
        let mut sources = Vec::new();
        rs_files(&dir.join("src"), &mut sources);
        for p in sources {
            let file = p.strip_prefix(root).unwrap().display().to_string();
            let text = fs::read_to_string(&p).expect("readable source");
            for (i, item) in impl_methods(&text) {
                let (file, lib) = (file.clone(), lib.clone());
                methods.push(Method {
                    file,
                    line: i + 1,
                    item,
                    lib,
                });
            }
            files.push((file, text));
        }
    }
    assert!(methods.len() > 300, "found only {} methods", methods.len());

    // Pass 1: every use of a deprecated method outside its own library is a
    // caller. Tests are not compiled; examples and `perf/` are.
    rewrite(&tree.0, &files, &methods, |i, line| {
        let t = line.trim_start();
        let indent = &line[..line.len() - t.len()];
        format!("{indent}#[deprecated(note = \"sweep:{i}\")] {t}")
    });
    let mut called = HashSet::new();
    let workspace = ["--workspace", "--lib", "--bins", "--examples"];
    let perf = ["--manifest-path", "perf/Cargo.toml"];
    for message in [
        cargo_check(&tree.0, &workspace),
        cargo_check(&tree.0, &perf),
    ]
    .concat()
    {
        let Some(text) = field(&message, &["message", "message"]).and_then(Json::as_str) else {
            continue;
        };
        let Some(i) = text
            .split("sweep:")
            .nth(1)
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        let user = field(&message, &["target", "src_path"]).and_then(Json::as_str);
        if !user.is_some_and(|src| Path::new(src).ends_with(&methods[i].lib)) {
            called.insert(i);
        }
    }

    // Pass 2: narrow the rest to `pub(crate)`; rustc names the dead ones.
    rewrite(&tree.0, &files, &methods, |i, line| {
        if called.contains(&i) {
            line.to_string()
        } else {
            line.replacen("pub ", "pub(crate) ", 1)
        }
    });
    let mut dead_at = HashSet::new();
    for message in cargo_check(&tree.0, &workspace) {
        let code = field(&message, &["message", "code", "code"]).and_then(Json::as_str);
        if code != Some("dead_code") {
            continue;
        }
        let spans = field(&message, &["message", "spans"]).and_then(Json::as_arr);
        for span in spans.unwrap_or_default() {
            let file = span.get("file_name").and_then(Json::as_str);
            let line = span.get("line_start").and_then(Json::as_u64);
            if let (Some(file), Some(line)) = (file, line) {
                dead_at.insert((file.to_string(), line as usize));
            }
        }
    }
    let dead: Vec<&Method> = methods
        .iter()
        .filter(|m| dead_at.contains(&(m.file.clone(), m.line)))
        .collect();

    let failures: Vec<String> = dead
        .iter()
        .filter(|m| !ALLOW.iter().any(|&(p, n, _)| p == m.file && n == m.item))
        .map(|m| format!("{}:{} {}", m.file, m.line, m.item))
        .collect();
    let stale: Vec<String> = ALLOW
        .iter()
        .filter(|&&(p, n, _)| n.contains("::") && !dead.iter().any(|m| m.file == p && m.item == n))
        .map(|(p, n, _)| format!("{p} {n}"))
        .collect();
    assert_clean(&failures, &stale);
}
