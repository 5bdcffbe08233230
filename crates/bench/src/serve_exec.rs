//! The apserve [`Executor`] backed by the real simulators — the bridge
//! `repro serve` injects so the service crate stays simulator-agnostic
//! (and dependency-cycle-free: `apserve` never depends on this crate).
//!
//! Every job kind maps onto an existing deterministic driver, and every
//! produced report is one the CLI already emits:
//!
//! - `bench` / `sweep` → [`run_sweep`] → the `ap1000plus.bench` document;
//! - `fault` → [`run_fault_sweep`] → the text fault report, wrapped in a
//!   one-line `ap1000plus.faultreport` JSON envelope (NDJSON-streamable);
//! - `remodel` → [`remodel_rows`] over a recorded `.evtrace` → the
//!   `ap1000plus.bench` document.
//!
//! Caching correctness rides on what these drivers already guarantee:
//! results merge in deterministic grid order whatever the host thread
//! count, and reports carry no wall-clock — so the bytes are a pure
//! function of the canonical request.

use std::sync::Arc;

use apserve::{CanonRequest, Executor, Kind};
use aputil::Json;

use crate::{
    bench_report, fault_sweep_text, record, run_fault_sweep, run_sweep, FaultSweepConfig,
    SweepConfig,
};

fn str_list(req: &CanonRequest, field: &str) -> Vec<String> {
    req.field(field)
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

fn scale_of(req: &CanonRequest) -> Result<apapps::Scale, String> {
    let label = req
        .field("scale")
        .and_then(Json::as_str)
        .ok_or("canonical request lost its scale")?;
    record::parse_scale_label(label)
}

fn factors_of(req: &CanonRequest) -> Vec<f64> {
    req.field("factors")
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_else(|| vec![1.0])
}

fn rev_of(req: &CanonRequest) -> Option<String> {
    req.field("rev").and_then(Json::as_str).map(str::to_string)
}

fn run_bench_like(req: &CanonRequest) -> Result<String, String> {
    let sizes: Vec<Option<u32>> = req
        .field("sizes")
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .map(|s| s.as_u64().map(|pe| pe as u32)) // "default" -> None
                .collect()
        })
        .unwrap_or_else(|| vec![None]);
    let cfg = SweepConfig {
        scale: scale_of(req)?,
        apps: str_list(req, "apps"),
        sizes,
        factors: factors_of(req),
        threads: aputil::available_threads(),
        machine: apcore::MachineConfig::new(1),
    };
    let out = run_sweep(&cfg);
    if !out.failures.is_empty() {
        return Err(format!(
            "{} grid point(s) failed: {}",
            out.failures.len(),
            out.failures.join("; ")
        ));
    }
    Ok(bench_report(&out.rows, cfg.scale, rev_of(req).as_deref()).to_string())
}

fn run_fault(req: &CanonRequest) -> Result<String, String> {
    let scale = scale_of(req)?;
    let apps = str_list(req, "apps");
    let seed = req
        .field("fault_seed")
        .and_then(Json::as_u64)
        .ok_or("canonical request lost its fault_seed")?;
    let threads = aputil::available_threads();
    let cfg =
        FaultSweepConfig::from_seed(scale, apps, seed, threads, apcore::MachineConfig::new(1))?;
    let out = run_fault_sweep(&cfg);
    if !out.failures.is_empty() {
        return Err(format!(
            "{} app(s) failed under faults: {}",
            out.failures.len(),
            out.failures.join("; ")
        ));
    }
    // The fault report is multi-line text; the envelope makes it one
    // JSON line, so it caches and streams like every other report.
    Ok(Json::obj([
        ("schema", Json::from("ap1000plus.faultreport")),
        ("version", Json::from(1u64)),
        ("report", Json::from(fault_sweep_text(&cfg, &out))),
    ])
    .to_string())
}

fn run_remodel(req: &CanonRequest) -> Result<String, String> {
    let path = req
        .field("trace")
        .and_then(Json::as_str)
        .ok_or("canonical request lost its trace path")?;
    let doc = aptrace::EvTrace::read_file(std::path::Path::new(path))
        .map_err(|e| format!("{path}: {e}"))?;
    let rows = record::remodel_rows(&doc, &factors_of(req)).map_err(|e| format!("{path}: {e}"))?;
    let scale = record::parse_scale_label(&doc.header.scale)?;
    Ok(bench_report(&rows, scale, rev_of(req).as_deref()).to_string())
}

/// Builds the executor `repro serve` hands to [`apserve::serve`].
pub fn simulator_executor() -> Executor {
    Arc::new(|req: &CanonRequest| match req.kind {
        Kind::Bench | Kind::Sweep => run_bench_like(req),
        Kind::Fault => run_fault(req),
        Kind::Remodel => run_remodel(req),
        // The service intercepts sleep jobs before the executor.
        Kind::Sleep => Err("sleep jobs never reach the simulator executor".to_string()),
    })
}

/// The hidden `repro job-exec` worker mode: reads one canonical request
/// document from stdin, executes it and writes the versioned result
/// envelope on stdout. `Ok` covers both success and *clean* failure (the
/// envelope says which) and becomes exit 0. Any other death — panic,
/// abort, rlimit, SIGKILL — reaches the supervisor as a nonzero/signal
/// exit and becomes a structured `job_crashed`.
///
/// Sleep jobs are executed here without a policy check: the server
/// enforces `--allow-sleep` *before* spawning the child, so by the time
/// a sleep request reaches this process it has been approved. The
/// `crash` field is honoured literally (`panic!` / `abort`) — that is
/// the test matrix's way of making a worker die on demand.
pub fn job_exec_main() -> Result<(), String> {
    let mut input = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin(), &mut input)
        .map_err(|e| format!("job-exec: cannot read request from stdin: {e}"))?;
    let result = match apserve::parse_request(input.trim_end().as_bytes()) {
        Err(e) => Err(format!("job-exec: invalid canonical request: {e}")),
        Ok(req) if req.kind == Kind::Sleep => run_sleep(&req),
        Ok(req) => (simulator_executor())(&req),
    };
    println!("{}", apserve::result_envelope(&result));
    Ok(())
}

fn run_sleep(req: &CanonRequest) -> Result<String, String> {
    let ms = req.field("ms").and_then(Json::as_u64).unwrap_or(0);
    std::thread::sleep(std::time::Duration::from_millis(ms));
    match req.field("crash").and_then(Json::as_str) {
        Some("panic") => panic!("injected panic (crash=\"panic\")"),
        Some("abort") => std::process::abort(),
        _ => {}
    }
    Ok(apserve::sleep_report(ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apserve::parse_request;

    #[test]
    fn bench_request_produces_a_versioned_report() {
        let req = parse_request(br#"{"kind":"bench","apps":["EP"],"scale":"test"}"#).unwrap();
        let exec = simulator_executor();
        let body = exec(&req).unwrap();
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(crate::BENCH_SCHEMA)
        );
        // Byte-reproducible: the same canonical request yields the same
        // bytes on a second, completely independent execution.
        assert_eq!(exec(&req).unwrap(), body);
    }

    #[test]
    fn unknown_app_is_an_error_not_a_panic() {
        let req =
            parse_request(br#"{"kind":"bench","apps":["NoSuchApp"],"scale":"test"}"#).unwrap();
        let e = (simulator_executor())(&req).unwrap_err();
        assert!(e.contains("NoSuchApp"), "{e}");
    }

    #[test]
    fn fault_request_produces_the_envelope() {
        let req = parse_request(br#"{"kind":"fault","scale":"test","fault_seed":1}"#).unwrap();
        let body = (simulator_executor())(&req).unwrap();
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ap1000plus.faultreport")
        );
        let text = doc.get("report").and_then(Json::as_str).unwrap();
        assert!(text.starts_with("ap1000plus fault sweep v1"));
    }
}
