//! One of each: the structural invariants the code keeps, as one table.
//!
//! Each [`Rule`] names the files it reads, the pattern it looks for and
//! how many lines may match: `0` for a pattern that must not come back
//! (a deleted type, a second event queue, a default-hasher map on the
//! message path), a positive count for the one place a thing lives (the
//! one fault seam, the one fan-out, the one Figure-6 model set). A rule
//! that forbids a deleted name is paired with a positive rule for what
//! replaced it, so the table also fails if the replacement goes.
//!
//! A pattern is a list of alternatives, each a literal substring. A
//! leading `^` anchors it at the line's first non-blank character, and a
//! trailing `\b` requires that no identifier character follows it. A
//! path is a file or a directory read recursively, every file in it;
//! `*` stands for one path segment, and a leading `!` leaves a path out.
//! With `cutoff` set, a file is read only up to its first line that
//! begins `#[cfg(test)]`, so unit tests may name what the program may
//! not. This file names every pattern, so it is never read.

use std::fs;
use std::path::{Path, PathBuf};

struct Rule {
    invariant: &'static str,
    paths: &'static [&'static str],
    pattern: &'static [&'static str],
    cutoff: bool,
    count: usize,
}

/// The directories and files of the message path: everything a PUT or
/// GET touches between its issue and its completion.
const MESSAGE_PATH: &[&str] = &[
    "crates/apmem/src",
    "crates/apmsc/src",
    "crates/apnet/src",
    "crates/apobs/src/latency.rs",
    "crates/mlsim/src/replay.rs",
    "crates/core/src/kernel",
];

/// Everything that is program, test or example, in every crate.
const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];

const RULES: &[Rule] = &[
    Rule {
        invariant: "run options travel in MachineConfig: config.rs declares one static",
        paths: &["crates/core/src/config.rs"],
        pattern: &["^static "],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "config.rs's one static is the metrics-interval default perf/ still sets",
        paths: &["crates/core/src/config.rs"],
        pattern: &["^static METRICS_INTERVAL_DEFAULT_NS:"],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "the message path names no default-hasher HashMap (aputil::IntMap or a dense index)",
        paths: MESSAGE_PATH,
        pattern: &["HashMap"],
        cutoff: true,
        count: 0,
    },
    Rule {
        invariant: "one transmit descriptor: the per-job transmit record is gone",
        paths: &["crates"],
        pattern: &["TxJob"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one fault seam: one fault-only event guard",
        paths: &["crates"],
        pattern: &["fault event fired without a fault layer"],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "one fault seam: the kernel holds the fault layer as one Option<FaultState>",
        paths: &["crates/core/src"],
        pattern: &["fault: Option<FaultState>,"],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "one event queue for both engines: no BinaryHeap",
        paths: &["crates/apsim/src", "crates/core/src", "crates/mlsim/src"],
        pattern: &["BinaryHeap"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one event queue for both engines: the emulator and MLSim each hold an apsim::EventQueue",
        paths: &["crates/core/src/kernel/mod.rs", "crates/mlsim/src/replay.rs"],
        pattern: &["evq: EventQueue<"],
        cutoff: false,
        count: 2,
    },
    Rule {
        invariant: "one response shape and one spelling per job: no progress stream, no sweep kind",
        paths: &["crates", "src"],
        pattern: &["x-ndjson", "submit_stream", "wait_streaming", "Kind::Sweep"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one spelling per job: the request parser knows four kinds",
        paths: &["crates/apserve/src"],
        pattern: &["must be one of bench|fault|remodel|sleep,"],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "one translation structure: no TLB, no miss counts",
        paths: EVERYWHERE,
        pattern: &["TlbLine", "tlb_hit", "tlb_misses", "DmaRead", "translate_peek"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one translation structure: the MMU's table of one entry per region",
        paths: &["crates/apmem/src/mmu.rs"],
        pattern: &["regions: Vec<Region>,"],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "one fan-out and one CPU-count query: aputil::par alone spawns scoped threads",
        paths: &["crates/*/src", "src", "!crates/aputil/src/par.rs"],
        pattern: &["available_parallelism", "thread::scope"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one fan-out and one CPU-count query: aputil::par calls each once",
        paths: &["crates/aputil/src/par.rs"],
        pattern: &["available_parallelism()", "thread::scope("],
        cutoff: false,
        count: 2,
    },
    Rule {
        invariant: "one Figure-6 model set: no factor grid of its own, no remodel module in mlsim",
        paths: EVERYWHERE,
        pattern: &["factor_grid", "RemodelPoint", "mlsim::remodel"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one network column: no per-model copy of the T-net constants",
        paths: &["crates/*/src"],
        pattern: &[
            ".net_prolog\\b",
            ".net_per_hop\\b",
            ".net_per_byte\\b",
            ".network_prolog\\b",
            ".network_delay\\b",
            ".network_msg_per_byte\\b",
            "^pub net_prolog:",
            "^pub net_per_hop:",
            "^pub net_per_byte:",
            "^pub network_prolog:",
            "^pub network_delay:",
            "^pub network_msg_per_byte:",
        ],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one Figure-6 model set: ModelParams::paper_models",
        paths: &["crates/*/src"],
        pattern: &["fn paper_models()"],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "one network column: apnet's TNetParams",
        paths: &["crates/*/src"],
        pattern: &["pub struct TNetParams "],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "one Figure-6 right column: no emulator-only copy of a cost MLSim charges too",
        paths: &["crates/*/src"],
        pattern: &[
            ".issue_time\\b",
            ".dma_set_time\\b",
            ".flag_check_time\\b",
            ".send_call_time\\b",
            ".reg_store_time\\b",
            ".reg_load_time\\b",
            "^pub issue_time:",
            "^pub dma_set_time:",
            "^pub flag_check_time:",
            "^pub send_call_time:",
            "^pub reg_store_time:",
            "^pub reg_load_time:",
        ],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one Figure-6 right column: apnet's CostParams",
        paths: &["crates/*/src"],
        pattern: &["pub struct CostParams "],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "one wire header: apnet's HEADER_BYTES",
        paths: &["crates/*/src"],
        pattern: &["const HEADER"],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "one referee, the artifact manifest: no threshold baseline, no sorted re-encode",
        paths: &[
            "crates",
            "src",
            "tests",
            "examples",
            ".github",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "README.md",
        ],
        pattern: &["BENCH_baseline.json", "sorted_reencode"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "FT's reference is the closed form and one FFT kernel: no per-point seeding, \
                    serial fft3 or per-block twiddle recurrence",
        paths: &["crates/apapps/src/ft.rs", "crates/apapps/src/util/fft.rs"],
        pattern: &["seed_at", "fn fft3", "step_by(len)", "ncr, nci"],
        cutoff: true,
        count: 0,
    },
    Rule {
        invariant: "one FFT kernel: the table-driven FftPlan",
        paths: &["crates/apapps/src"],
        pattern: &["struct FftPlan "],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "one .evtrace footer parser: no second footer check",
        paths: &["crates/aptrace/src"],
        pattern: &["fn check_trailer"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one .evtrace footer parser: TRAILER_MAGIC is compared in one place",
        paths: &["crates/aptrace/src"],
        pattern: &["!= TRAILER_MAGIC", "== TRAILER_MAGIC"],
        cutoff: true,
        count: 1,
    },
    Rule {
        invariant: "one .evtrace tail parser: the summary (SEC_SUMMARY) is decoded in one place",
        paths: &["crates/aptrace/src"],
        pattern: &["\"summary total_ns\""],
        cutoff: true,
        count: 1,
    },
    Rule {
        invariant: "one open-section record in the .evtrace writer: no unread name counter",
        paths: &["crates/aptrace/src"],
        pattern: &["names: usize"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "one open-section record in the .evtrace writer: an in-progress index entry",
        paths: &["crates/aptrace/src"],
        pattern: &["open: Option<EvIndexEntry>,"],
        cutoff: false,
        count: 1,
    },
    Rule {
        invariant: "event names are a closed vocabulary: the .evtrace reader interns no string",
        paths: &["crates/aptrace/src"],
        pattern: &["fn intern\\b"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "event names are a closed vocabulary: an event's name is no string",
        paths: &["crates/apobs/src/event.rs"],
        pattern: &["name: &'static str"],
        cutoff: false,
        count: 0,
    },
    Rule {
        invariant: "event names are a closed vocabulary: one EvName enum",
        paths: &["crates"],
        pattern: &["pub enum EvName"],
        cutoff: false,
        count: 1,
    },
];

/// Whether `line` contains `needle`, read as the module docs describe.
fn matches(line: &str, needle: &str) -> bool {
    let (anchored, needle) = match needle.strip_prefix('^') {
        Some(rest) => (true, rest),
        None => (false, needle),
    };
    let (bounded, needle) = match needle.strip_suffix("\\b") {
        Some(rest) => (true, rest),
        None => (false, needle),
    };
    let hay = if anchored { line.trim_start() } else { line };
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    hay.match_indices(needle).any(|(at, _)| {
        (!anchored || at == 0) && !(bounded && hay[at + needle.len()..].starts_with(ident))
    })
}

/// The lines of `text` that `rule` matches, numbered from 1.
fn matching_lines<'t>(rule: &Rule, text: &'t str) -> Vec<(usize, &'t str)> {
    let lines = text.lines().enumerate();
    let read = lines.take_while(|(_, l)| !(rule.cutoff && l.starts_with("#[cfg(test)]")));
    read.filter(|(_, l)| rule.pattern.iter().any(|p| matches(l, p)))
        .map(|(i, l)| (i + 1, l))
        .collect()
}

/// `None` if `rule` holds over `files` (`(path, text)` pairs), else what
/// matched against what it allows.
fn check(rule: &Rule, files: &[(String, String)]) -> Option<String> {
    let found: Vec<String> = files
        .iter()
        .flat_map(|(path, text)| {
            let hits = matching_lines(rule, text);
            hits.into_iter()
                .map(move |(n, l)| format!("{path}:{n}: {}", l.trim()))
        })
        .collect();
    (found.len() != rule.count).then(|| {
        format!(
            "{}\n  {:?} must match {} line(s), matched {}:\n    {}",
            rule.invariant,
            rule.pattern,
            rule.count,
            found.len(),
            found.join("\n    ")
        )
    })
}

fn walk(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in fs::read_dir(path).expect("readable directory") {
            walk(&entry.expect("readable directory entry").path(), out);
        }
    } else {
        out.push(path.to_path_buf());
    }
}

/// The paths `spec` names under `root`, `*` expanded.
fn expand(root: &Path, spec: &str) -> Vec<PathBuf> {
    spec.split('/')
        .fold(vec![root.to_path_buf()], |bases, seg| {
            let mut next = Vec::new();
            for base in bases {
                if seg == "*" {
                    let entries = fs::read_dir(&base).expect("readable directory");
                    next.extend(entries.map(|e| e.expect("readable directory entry").path()));
                } else {
                    next.push(base.join(seg));
                }
            }
            next.into_iter().filter(|p| p.exists()).collect()
        })
}

/// The files `rule` reads, relative to `root`, with their text.
fn files(root: &Path, rule: &Rule) -> Vec<(String, String)> {
    let this = Path::new(file!());
    let mut read = Vec::new();
    let mut skip = vec![root.join(this)];
    for spec in rule.paths {
        match spec.strip_prefix('!') {
            Some(left_out) => skip.extend(expand(root, left_out)),
            None => {
                let found = expand(root, spec);
                assert!(
                    !found.is_empty(),
                    "{}: {spec} names nothing",
                    rule.invariant
                );
                found.iter().for_each(|p| walk(p, &mut read));
            }
        }
    }
    read.retain(|p| !skip.contains(p));
    read.sort();
    read.into_iter()
        .map(|p| {
            let bytes = fs::read(&p).expect("readable file");
            let rel = p.strip_prefix(root).unwrap().display().to_string();
            (rel, String::from_utf8_lossy(&bytes).into_owned())
        })
        .collect()
}

#[test]
fn every_structural_invariant_holds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let broken: Vec<String> = RULES
        .iter()
        .filter_map(|rule| check(rule, &files(root, rule)))
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n\n"));
}

/// The referee's other half: `repro pins` takes no flag, so the manifest
/// it prints is the one CI diffs against.
#[test]
fn pins_takes_no_flag_and_no_argument() {
    let pins = apbench::cli::REPRO
        .commands
        .iter()
        .find(|c| c.name == "pins")
        .expect("repro has a pins command");
    assert!(pins.flags.is_empty() && pins.positionals.is_empty());
}

fn rule(invariant: &str) -> &'static Rule {
    let found = RULES.iter().find(|r| r.invariant.starts_with(invariant));
    found.unwrap_or_else(|| panic!("no rule begins {invariant:?}"))
}

fn file(path: &str, text: &str) -> Vec<(String, String)> {
    vec![(path.to_string(), text.to_string())]
}

#[test]
fn the_scanner_reports_a_planted_violation() {
    let queue = rule("one event queue for both engines: no BinaryHeap");
    let planted = "use std::cmp::Reverse;\nuse std::collections::BinaryHeap;\n";
    let report = check(queue, &file("crates/apsim/src/queue.rs", planted));
    let report = report.expect("the planted BinaryHeap is reported");
    assert!(report.contains("crates/apsim/src/queue.rs:2: use std::collections::BinaryHeap;"));

    // A test module may name what the program may not, if the rule says so.
    let hashmap = rule("the message path names no default-hasher HashMap");
    let tested = "fn f() {}\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
    assert_eq!(
        check(hashmap, &file("crates/apmem/src/mmu.rs", tested)),
        None
    );
    let untested = tested.replace("#[cfg(test)]", "");
    assert!(check(hashmap, &file("crates/apmem/src/mmu.rs", &untested)).is_some());

    // A positive rule fails when its one place is gone or doubled.
    let seam = rule("one fault seam: the kernel holds");
    assert!(check(seam, &file("crates/core/src/kernel/mod.rs", "")).is_some());
    let twice = "    fault: Option<FaultState>,\n    fault: Option<FaultState>,\n";
    assert!(check(seam, &file("crates/core/src/kernel/mod.rs", twice)).is_some());
}

#[test]
fn anchors_and_word_ends_match_as_documented() {
    assert!(matches("static X: u8 = 0;", "^static "));
    assert!(matches("    static X: u8 = 0;", "^static "));
    assert!(!matches("pub static X: u8 = 0;", "^static "));
    assert!(matches("let p = m.net_prolog;", ".net_prolog\\b"));
    assert!(matches("m.net_prolog", ".net_prolog\\b"));
    assert!(!matches("m.net_prolog_ns", ".net_prolog\\b"));
    assert!(matches("    pub net_prolog: f64,", "^pub net_prolog:"));
}
