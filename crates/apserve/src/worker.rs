//! The process-isolated worker sandbox: one self-exec'd child per job.
//!
//! In sandbox mode the service does not run simulations on its own
//! threads. Each admitted job spawns the configured worker command
//! (`repro job-exec` in production — the server re-executing itself in
//! a hidden mode), writes the *canonical* request document to the
//! child's stdin, and reads a versioned result envelope back from its
//! stdout. The supervisor in this module turns every way a child can
//! die into a structured verdict:
//!
//! - clean exit + well-formed envelope → the report bytes (or the
//!   job's own failure message) — **byte-identical** to what in-process
//!   execution would have produced, because the envelope transports the
//!   executor's output string verbatim through one JSON round trip;
//! - wall-clock deadline exceeded → SIGKILL + [`RunOutcome::Timeout`];
//! - panic, abort, OOM-kill, or any other nonzero/signal death →
//!   [`RunOutcome::Crashed`] carrying [`aputil::exit_desc`] and a
//!   bounded stderr tail;
//! - killed by the shutdown drain → [`RunOutcome::Canceled`].
//!
//! The supervisor never blocks in `wait(2)`: it polls `try_wait` every
//! [`POLL_INTERVAL`] while dedicated threads drain stdout (unbounded —
//! it is the report) and stderr (bounded by [`STDERR_TAIL_BYTES`]), so
//! a child that fills a pipe and stalls still hits the deadline.

use std::io::{Read, Write};
use std::process::Child;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aputil::{exit_desc, spawn_limited, Json, TailBuf};

use crate::poison::lock;

/// Result-envelope schema the child writes on stdout; bump the version
/// and old workers read as crashed (malformed envelope), never as a
/// silently misparsed report.
pub const RESULT_SCHEMA: &str = "ap1000plus.jobresult";
pub const RESULT_VERSION: u64 = 1;

/// How often the supervisor polls the child for exit and the deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Bytes of child stderr retained for the `job_crashed` document.
pub const STDERR_TAIL_BYTES: usize = 2048;

/// Sandbox policy: what to run and how hard to contain it.
#[derive(Clone, Debug)]
pub struct SandboxConfig {
    /// Worker command: program plus leading arguments (the canonical
    /// request arrives on the child's stdin). `repro serve --sandbox`
    /// passes `[current_exe, "job-exec"]`.
    pub cmd: Vec<String>,
    /// Per-job wall-clock deadline; exceeding it is a kill + 504.
    pub job_timeout_ms: u64,
    /// Address-space ceiling for the child (best-effort `ulimit -v`).
    pub mem_limit_bytes: Option<u64>,
    /// Crashed executions retried before the breaker trips (the
    /// deterministic "one retry with backoff" is `1`).
    pub retries: u32,
    /// Backoff before retry attempt `n` is `retry_backoff_ms * n`.
    pub retry_backoff_ms: u64,
}

impl SandboxConfig {
    /// Sandbox with production defaults: 10-minute deadline, no memory
    /// ceiling, one retry after 100 ms.
    pub fn new(cmd: Vec<String>) -> SandboxConfig {
        SandboxConfig {
            cmd,
            job_timeout_ms: 600_000,
            mem_limit_bytes: None,
            retries: 1,
            retry_backoff_ms: 100,
        }
    }
}

/// Why the supervisor killed a child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillReason {
    /// The per-job wall-clock deadline expired.
    Deadline,
    /// The server is shutting down and the drain deadline passed.
    Drain,
}

/// A handle to a running child that both the supervising worker thread
/// and the shutdown drain can reach: the worker polls it for exit, the
/// drain kills through it. First kill wins; the reason is remembered so
/// the reaper can tell a deadline kill from a drain kill.
pub struct ChildSlot {
    state: Mutex<SlotState>,
}

struct SlotState {
    child: Child,
    killed: Option<KillReason>,
}

impl ChildSlot {
    fn new(child: Child) -> Arc<ChildSlot> {
        Arc::new(ChildSlot {
            state: Mutex::new(SlotState {
                child,
                killed: None,
            }),
        })
    }

    /// SIGKILLs the child (idempotent; the first reason sticks).
    pub fn kill(&self, reason: KillReason) {
        let mut st = lock(&self.state);
        if st.killed.is_none() {
            st.killed = Some(reason);
        }
        let _ = st.child.kill();
    }

    /// The child's OS pid (valid until reaped).
    pub fn pid(&self) -> u32 {
        lock(&self.state).child.id()
    }

    /// Non-blocking reap attempt; `Some` once the child has exited.
    fn try_wait(&self) -> (Option<std::process::ExitStatus>, Option<KillReason>) {
        let mut st = lock(&self.state);
        (st.child.try_wait().ok().flatten(), st.killed)
    }
}

/// The verdict on one sandboxed execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Clean exit, `ok: true` envelope: the report bytes.
    Ok(Vec<u8>),
    /// Clean exit, `ok: false` envelope: the job failed on its own
    /// terms (unknown app, unreadable trace, ...). Not a crash.
    CleanFail(String),
    /// The process died without delivering a result.
    Crashed { status: String, stderr_tail: String },
    /// Killed by the supervisor for exceeding the deadline.
    Timeout { deadline_ms: u64 },
    /// Killed by the shutdown drain.
    Canceled,
}

/// Spawns the worker command for one job and supervises it to a
/// [`RunOutcome`]. `register` publishes the live [`ChildSlot`] (so the
/// drain can kill it); the slot is valid until this function returns.
pub fn run_job(
    cfg: &SandboxConfig,
    request_text: &str,
    register: impl FnOnce(Arc<ChildSlot>),
) -> RunOutcome {
    let Some((program, args)) = cfg.cmd.split_first() else {
        return RunOutcome::CleanFail("sandbox worker command is empty".to_string());
    };
    let mut child = match spawn_limited(program, args, cfg.mem_limit_bytes) {
        Ok(c) => c,
        Err(e) => return RunOutcome::CleanFail(format!("cannot spawn worker '{program}': {e}")),
    };
    // Take the pipes before the child is shared; the slot only needs
    // the process handle for kill/try_wait.
    let stdin = child.stdin.take();
    let stdout = child.stdout.take();
    let stderr = child.stderr.take();
    let slot = ChildSlot::new(child);
    register(Arc::clone(&slot));

    // Feed the canonical request. A write error just means the child
    // died before reading — the reaper below will report the crash.
    if let Some(mut w) = stdin {
        let _ = w.write_all(request_text.as_bytes());
        // Dropping w closes the pipe: the child's stdin read sees EOF.
    }

    // Drain both pipes concurrently so a chatty child can never stall
    // against a full pipe while the supervisor waits for it to exit.
    let out_thread = std::thread::spawn(move || {
        let mut buf = Vec::new();
        if let Some(mut r) = stdout {
            let _ = r.read_to_end(&mut buf);
        }
        buf
    });
    let err_thread = std::thread::spawn(move || {
        let mut tail = TailBuf::new(STDERR_TAIL_BYTES);
        if let Some(mut r) = stderr {
            let mut chunk = [0u8; 1024];
            loop {
                match r.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => tail.push(&chunk[..n]),
                }
            }
        }
        tail
    });

    let started = Instant::now();
    let deadline = Duration::from_millis(cfg.job_timeout_ms);
    let (status, killed) = loop {
        let (status, killed) = slot.try_wait();
        if let Some(status) = status {
            break (status, killed);
        }
        if killed.is_none() && started.elapsed() >= deadline {
            slot.kill(KillReason::Deadline);
        }
        std::thread::sleep(POLL_INTERVAL);
    };
    // A killed child's output is not consulted, so don't join the
    // reader threads for it: surviving grandchildren could hold the
    // pipes open long after the kill, and the verdict must not wait on
    // them. The detached readers exit on their own once the pipes close.
    match killed {
        Some(KillReason::Deadline) => {
            return RunOutcome::Timeout {
                deadline_ms: cfg.job_timeout_ms,
            }
        }
        Some(KillReason::Drain) => return RunOutcome::Canceled,
        None => {}
    }
    let stdout_bytes = out_thread.join().unwrap_or_default();
    let stderr_tail = err_thread
        .join()
        .unwrap_or_else(|_| TailBuf::new(STDERR_TAIL_BYTES));

    if !status.success() {
        return RunOutcome::Crashed {
            status: exit_desc(&status),
            stderr_tail: stderr_tail.render(),
        };
    }
    match decode_envelope(&stdout_bytes) {
        Ok(Ok(report)) => RunOutcome::Ok(report),
        Ok(Err(error)) => RunOutcome::CleanFail(error),
        Err(detail) => RunOutcome::Crashed {
            status: format!("{} with a malformed result envelope", exit_desc(&status)),
            stderr_tail: if stderr_tail.is_empty() {
                detail
            } else {
                stderr_tail.render()
            },
        },
    }
}

/// Encodes a job result as the one-line stdout envelope `repro
/// job-exec` writes. The report travels as a JSON string, so arbitrary
/// report bytes round-trip exactly (reports are UTF-8 by construction).
pub fn result_envelope(result: &Result<String, String>) -> String {
    let mut fields = vec![
        ("schema", Json::from(RESULT_SCHEMA)),
        ("version", Json::from(RESULT_VERSION)),
        ("ok", Json::Bool(result.is_ok())),
    ];
    match result {
        Ok(report) => fields.push(("report", Json::from(report.as_str()))),
        Err(error) => fields.push(("error", Json::from(error.as_str()))),
    }
    Json::obj(fields).to_string()
}

/// Decodes the child's stdout back into the job result. The outer `Err`
/// means the envelope itself is unusable (truncated stdout, wrong
/// schema/version, stray output) — the supervisor treats that as a
/// crash, because a worker that cannot speak the protocol delivered
/// nothing trustworthy.
pub fn decode_envelope(stdout: &[u8]) -> Result<Result<Vec<u8>, String>, String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "stdout is not UTF-8".to_string())?;
    let doc = Json::parse(text.trim_end())
        .map_err(|e| format!("stdout is not a result envelope: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
        return Err("missing or wrong envelope schema".to_string());
    }
    if doc.get("version").and_then(Json::as_u64) != Some(RESULT_VERSION) {
        return Err("unsupported envelope version".to_string());
    }
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            let report = doc
                .get("report")
                .and_then(Json::as_str)
                .ok_or("ok envelope without a report")?;
            Ok(Ok(report.as_bytes().to_vec()))
        }
        Some(false) => {
            let error = doc
                .get("error")
                .and_then(Json::as_str)
                .ok_or("failure envelope without an error")?;
            Ok(Err(error.to_string()))
        }
        None => Err("envelope without an ok field".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> SandboxConfig {
        SandboxConfig {
            cmd: vec!["/bin/sh".into(), "-c".into(), script.into()],
            job_timeout_ms: 5_000,
            mem_limit_bytes: None,
            retries: 1,
            retry_backoff_ms: 1,
        }
    }

    #[test]
    fn envelope_round_trips_reports_and_errors() {
        let report = r#"{"schema":"ap1000plus.bench","rows":[1,2]}"#;
        let enc = result_envelope(&Ok(report.to_string()));
        assert_eq!(
            decode_envelope(enc.as_bytes()).unwrap().unwrap(),
            report.as_bytes()
        );
        let fail: Result<String, String> = Err("no such app \"Zap\"".to_string());
        let enc = result_envelope(&fail);
        assert_eq!(
            decode_envelope(enc.as_bytes()).unwrap().unwrap_err(),
            "no such app \"Zap\""
        );
        // Garbage stdout is a protocol error, not a report.
        assert!(decode_envelope(b"Segmentation fault").is_err());
        assert!(decode_envelope(br#"{"schema":"wrong","version":1,"ok":true}"#).is_err());
    }

    #[test]
    fn clean_child_delivers_the_report_bytes() {
        // The child echoes stdin back inside a well-formed envelope via
        // printf; use a fixed report to keep the script simple.
        let cfg = sh(
            r#"cat > /dev/null; printf '%s' '{"schema":"ap1000plus.jobresult","version":1,"ok":true,"report":"payload-bytes"}'"#,
        );
        match run_job(&cfg, "{\"kind\":\"bench\"}", |_| {}) {
            RunOutcome::Ok(body) => assert_eq!(body, b"payload-bytes"),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn dying_child_is_a_crash_with_stderr_tail() {
        let cfg = sh("echo boom-diagnostic >&2; exit 7");
        match run_job(&cfg, "", |_| {}) {
            RunOutcome::Crashed {
                status,
                stderr_tail,
            } => {
                assert_eq!(status, "exit code 7");
                assert!(stderr_tail.contains("boom-diagnostic"), "{stderr_tail}");
            }
            other => panic!("expected Crashed, got {other:?}"),
        }
    }

    #[test]
    fn deadline_overrun_is_killed_and_reported_as_timeout() {
        let mut cfg = sh("exec sleep 30");
        cfg.job_timeout_ms = 150;
        let t0 = Instant::now();
        match run_job(&cfg, "", |_| {}) {
            RunOutcome::Timeout { deadline_ms } => assert_eq!(deadline_ms, 150),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the kill must not wait for the sleep"
        );
    }

    #[test]
    fn drain_kill_is_canceled_not_timeout() {
        let cfg = sh("exec sleep 30");
        let slot_out: Arc<Mutex<Option<Arc<ChildSlot>>>> = Arc::new(Mutex::new(None));
        let slot_in = Arc::clone(&slot_out);
        let killer = std::thread::spawn(move || loop {
            if let Some(slot) = lock(&slot_in).as_ref() {
                std::thread::sleep(Duration::from_millis(50));
                slot.kill(KillReason::Drain);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        });
        let outcome = run_job(&cfg, "", |slot| {
            *lock(&slot_out) = Some(slot);
        });
        killer.join().unwrap();
        assert_eq!(outcome, RunOutcome::Canceled);
    }

    #[test]
    fn garbage_stdout_from_a_clean_exit_is_a_crash() {
        let cfg = sh("echo 'not an envelope'");
        match run_job(&cfg, "", |_| {}) {
            RunOutcome::Crashed { status, .. } => {
                assert!(status.contains("malformed result envelope"), "{status}");
            }
            other => panic!("expected Crashed, got {other:?}"),
        }
    }
}
