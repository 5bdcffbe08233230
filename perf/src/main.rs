//! `apperf` — the pinned, layered host-performance benchmark of the
//! AP1000+ reproduction. See `perf/README.md`.
//!
//! ```text
//! apperf run   [--seed N] [--rev R] [--quick]   five workloads, tracing off -> perf/results/BENCH_<rev>.json
//! apperf trace [--seed N] [--rev R] [--quick]   traced runs + layer probes  -> perf/results/TRACE_<rev>.json
//! apperf bench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (acceptance driver)
//! apperf compare A.json B.json                                 per-row ok / regressed / unresolved; exit 1 on a regression
//! apperf selfcheck [--seed N]                                  two full sets of the same code must agree within the bounds
//! apperf pin                                                   regenerate perf/expected.json
//! ```

mod artifact;
mod child;
mod host;
mod metrics;
mod micro;
mod pins;
mod serve;
mod sim;
mod spans;
mod stats;
mod workloads;

use aputil::Json;
use std::path::Path;
use workloads::{Ctx, Measured, Plan, Traced};

const USAGE: &str = "usage: apperf run|trace [--seed N] [--rev R] [--quick]
       apperf bench --workload W --seed N --seconds S --trace 0|1
       apperf compare A.json B.json
       apperf selfcheck [--seed N]
       apperf pin";

/// Exit status for a bad command line, as `repro` uses it.
const EXIT_USAGE: i32 = 2;

struct Flags {
    seed: u64,
    rev: Option<String>,
    quick: bool,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: Option<bool>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        seed: 1,
        rev: None,
        quick: false,
        workload: None,
        seconds: None,
        trace: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} takes a value"));
        match a.as_str() {
            "--seed" => {
                let v = value()?;
                f.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got '{v}'"))?;
            }
            "--rev" => f.rev = Some(value()?.clone()),
            "--workload" => f.workload = Some(value()?.clone()),
            "--seconds" => {
                let v = value()?;
                f.seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or(format!("--seconds takes a positive number, got '{v}'"))?,
                );
            }
            "--trace" => {
                f.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                });
            }
            "--quick" => f.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(a.clone()),
        }
    }
    Ok(f)
}

fn plan_for(workload: &str, flags: &Flags) -> Plan {
    if flags.quick {
        Plan::quick(flags.seed)
    } else {
        Plan::full(workload, flags.seed)
    }
}

fn measure_all(ctx: &Ctx, flags: &Flags) -> Result<Vec<Measured>, String> {
    artifact::workload_names()
        .into_iter()
        .map(|w| {
            eprintln!("apperf: measuring {w}");
            workloads::measure(ctx, w, &plan_for(w, flags))
        })
        .collect()
}

fn any_failed(results: &[Measured]) -> bool {
    results
        .iter()
        .any(|m| m.failed > 0 || !m.failures.is_empty())
}

fn cmd_run(flags: &Flags) -> Result<i32, String> {
    let ctx = Ctx::new()?;
    let header = artifact::Header::collect(&ctx.root, flags.rev.clone(), flags.quick, flags.seed);
    let file = artifact::file_name("BENCH", &header.rev)?;
    let results = measure_all(&ctx, flags)?;
    print!("{}", artifact::render_bench(&results));
    if flags.quick {
        println!("quick mode: reduced sizes, numbers are not comparable with anything");
    }
    let path = artifact::write(&ctx.root, &file, &artifact::bench_doc(&header, &results))?;
    println!("wrote {}", path.display());
    Ok(i32::from(any_failed(&results)))
}

fn cmd_trace(flags: &Flags) -> Result<i32, String> {
    let ctx = Ctx::new()?;
    let header = artifact::Header::collect(&ctx.root, flags.rev.clone(), flags.quick, flags.seed);
    let file = artifact::file_name("TRACE", &header.rev)?;
    let mut results = Vec::new();
    for w in artifact::workload_names() {
        eprintln!("apperf: tracing {w}");
        let mut plan = plan_for(w, flags);
        // Traced passes are for attribution, not for the tail: 3 s each.
        if !flags.quick {
            plan.pass_secs = 3.0;
        }
        results.push(workloads::trace(&ctx, w, &plan)?);
    }
    print!("{}", artifact::render_trace(&results));
    let path = artifact::write(&ctx.root, &file, &artifact::trace_doc(&header, &results))?;
    println!("wrote {}", path.display());
    Ok(i32::from(results.iter().any(|t| !t.failures.is_empty())))
}

/// One workload for the acceptance driver: the last stdout line is one
/// JSON object with `correct`, `attempted`, `failed`, `metrics`.
fn cmd_bench(flags: &Flags) -> Result<i32, String> {
    let workload = flags.workload.as_deref().ok_or("bench needs --workload")?;
    let seconds = flags.seconds.ok_or("bench needs --seconds")?;
    let traced = flags.trace.ok_or("bench needs --trace 0|1")?;
    if metrics::workload(workload).is_none() {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            artifact::workload_names().join(", ")
        ));
    }
    let ctx = Ctx::new()?;
    let mut plan = Plan::timed(seconds, flags.seed);

    // (name, unit, value) of every metric the driver expects, plus the
    // checked-operation counts.
    let values: Vec<(&str, &str, f64)>;
    let (attempted, failed, failures);
    if traced {
        // The traced run splits `seconds` over an untraced pass, a traced
        // pass and the informational phases.
        plan.pass_secs = seconds / 6.0;
        let t: Traced = workloads::trace(&ctx, workload, &plan)?;
        let header = artifact::Header::collect(&ctx.root, Some("bench".into()), false, flags.seed);
        let doc = artifact::trace_doc(&header, std::slice::from_ref(&t));
        let out = ctx.root.join(format!("perf/tmp/TRACE_{workload}.json"));
        aputil::write_atomic(&out, doc.to_string().as_bytes())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        eprint!("{}", artifact::render_trace(std::slice::from_ref(&t)));
        // A layer this workload does not exercise did no work: 0.
        values = artifact::driver_names(true)
            .into_iter()
            .map(|(n, u)| (n, u, t.layers.get(n).copied().unwrap_or(0.0)))
            .collect();
        (attempted, failed, failures) = (t.attempted, t.failed, t.failures);
    } else {
        let m: Measured = workloads::measure(&ctx, workload, &plan)?;
        eprint!("{}", artifact::render_bench(std::slice::from_ref(&m)));
        values = artifact::driver_names(false)
            .into_iter()
            .map(|(n, u)| {
                let v = m
                    .metrics
                    .get(n)
                    .ok_or(format!("{workload} produced no {n}"))?;
                Ok((n, u, v.value))
            })
            .collect::<Result<_, String>>()?;
        (attempted, failed, failures) = (m.attempted, m.failed, m.failures);
    }
    if let Some((n, _, v)) = values.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("{workload}: metric {n} is not a number ({v})"));
    }
    let correct = failed == 0 && failures.is_empty();
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U(attempted.max(1))),
        ("failed", Json::U(failed)),
        (
            "metrics",
            Json::obj(values.into_iter().map(|(n, u, v)| {
                (
                    n,
                    Json::obj([("value", Json::F(v)), ("unit", Json::from(u))]),
                )
            })),
        ),
    ]);
    println!("{line}");
    Ok(0)
}

fn cmd_compare(flags: &Flags) -> Result<i32, String> {
    let [a, b] = flags.positional.as_slice() else {
        return Err("compare takes exactly two artifact paths".into());
    };
    let c = artifact::compare(
        &artifact::read(Path::new(a))?,
        &artifact::read(Path::new(b))?,
    )?;
    print!("{}", c.render());
    Ok(i32::from(!c.passed()))
}

/// Two full sets of the same code must agree within the benchmark's own
/// bounds, in both directions, with nothing failed and nothing
/// unresolved — the evidence that replaces hand-quoted speed-ups.
fn cmd_selfcheck(flags: &Flags) -> Result<i32, String> {
    let ctx = Ctx::new()?;
    let header = artifact::Header::collect(&ctx.root, Some("selfcheck".into()), false, flags.seed);
    let mut docs = Vec::new();
    let mut failed = false;
    for set in ["A", "B"] {
        eprintln!("apperf: selfcheck set {set}");
        let results = measure_all(&ctx, flags)?;
        failed |= any_failed(&results);
        print!("set {set}\n{}", artifact::render_bench(&results));
        docs.push(artifact::bench_doc(&header, &results));
    }
    let mut agree = !failed;
    for (from, to, label) in [(0, 1, "A -> B"), (1, 0, "B -> A")] {
        let c = artifact::compare(&docs[from], &docs[to])?;
        print!("{label}\n{}", c.render());
        agree &= c.passed() && c.rows.iter().all(|r| r.verdict == artifact::Verdict::Ok);
    }
    println!("selfcheck: {}", if agree { "PASS" } else { "FAIL" });
    Ok(i32::from(!agree))
}

fn cmd_pin() -> Result<i32, String> {
    let ctx = Ctx::new()?;
    host::ensure_repro_built(&ctx.root)?;
    let pins = sim::regenerate_pins(ctx.tmp.path())?;
    let path = pins::pins_path(&ctx.root);
    let mut text = pins.to_json().to_string();
    text.push('\n');
    aputil::write_atomic(&path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(EXIT_USAGE);
    };
    if cmd == "child" {
        child::child_main(rest);
    }
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("apperf: {e}\n{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&flags),
        "trace" => cmd_trace(&flags),
        "bench" => cmd_bench(&flags),
        "compare" => cmd_compare(&flags),
        "selfcheck" => cmd_selfcheck(&flags),
        "pin" => cmd_pin(),
        other => {
            eprintln!("apperf: unknown command '{other}'\n{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("apperf: {e}");
            std::process::exit(1);
        }
    }
}
