//! Cache-correctness suite for `repro serve` / apserve, run over real
//! HTTP against the real simulator executor.
//!
//! The invariants pinned here are the ones DESIGN.md §11 promises:
//!
//! - a repeated request is served from cache **byte-identical** to the
//!   cold run (status travels in `X-Cache`, never in the body);
//! - hit/miss/run counters advance exactly as the cache story says
//!   (`runs == misses`, single-flight);
//! - two concurrent identical requests simulate exactly once;
//! - an evicted entry is recomputed byte-identically;
//! - a full queue yields the structured 429 backpressure document;
//! - hostile input gets structured 400/404/405/413 errors;
//! - a disk-tier entry survives a server restart as a `disk-hit`.
//!
//! Plus the sandbox failure matrix (DESIGN.md §11's worker-supervision
//! contract):
//!
//! - a panicking or aborting job is a structured `500 job_crashed` and
//!   the server keeps answering;
//! - a deadline overrun is a `504 job_timeout`;
//! - a key that crashes through its retry is poisoned: `422`, never
//!   cached as success;
//! - a sandboxed response body is byte-identical to the same request
//!   served in-process;
//! - `kill -9` mid-job leaves no orphan process and no partial
//!   disk-cache entry;
//! - shutdown drains: in-flight children are killed within the drain
//!   deadline and nothing is left running.

use apserve::{client, serve, Config, SandboxConfig};
use aputil::Json;
use std::io::{Read, Write};
use std::path::PathBuf;

fn test_server(cfg: Config) -> (apserve::ServerHandle, String) {
    let handle = serve(cfg, apbench::simulator_executor()).expect("bind server");
    let addr = handle.addr.to_string();
    (handle, addr)
}

fn cfg() -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        allow_sleep: true,
        ..Config::default()
    }
}

fn stats(addr: &str) -> Json {
    let resp = client::get(addr, "/stats").expect("GET /stats");
    assert_eq!(resp.status, 200);
    Json::parse(&resp.body_str()).expect("stats parses")
}

fn cache_counter(st: &Json, name: &str) -> u64 {
    st.get("cache")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing from {st}"))
}

const EP_BENCH: &str = r#"{"kind":"bench","apps":["EP"],"scale":"test"}"#;
/// The same job, spelled differently: key order shuffled, defaults
/// written out, `1.0` as `1`. Must hash to the same content address.
const EP_BENCH_RESPELLED: &str =
    r#"{"scale":"test","factors":[1],"kind":"bench","sizes":["default"],"apps":["EP"],"rev":null}"#;

#[test]
fn repeated_request_is_cached_byte_identical() {
    let (handle, addr) = test_server(cfg());

    let cold = client::submit(&addr, EP_BENCH).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    assert_eq!(cold.header("x-cache"), Some("miss"));
    let key = cold.header("x-key").expect("X-Key present").to_string();

    let warm = client::submit(&addr, EP_BENCH_RESPELLED).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.header("x-key"), Some(key.as_str()));
    assert_eq!(
        cold.body, warm.body,
        "cached body must be byte-identical to the cold body"
    );

    // The body is a real versioned bench report, not an envelope.
    let doc = Json::parse(&cold.body_str()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(apbench::BENCH_SCHEMA)
    );

    let st = stats(&addr);
    assert_eq!(cache_counter(&st, "misses"), 1);
    assert_eq!(cache_counter(&st, "hits"), 1);
    assert_eq!(cache_counter(&st, "runs"), 1, "one simulation, not two");
    handle.shutdown();
}

#[test]
fn concurrent_identical_requests_simulate_exactly_once() {
    let (handle, addr) = test_server(cfg());
    // A slow job gives the second submission time to arrive while the
    // first is still executing.
    let job = r#"{"kind":"sleep","ms":500}"#;
    let a = {
        let addr = addr.clone();
        std::thread::spawn(move || client::submit(&addr, job).unwrap())
    };
    std::thread::sleep(std::time::Duration::from_millis(120));
    let b = client::submit(&addr, job).unwrap();
    let a = a.join().unwrap();
    assert_eq!((a.status, b.status), (200, 200));
    assert_eq!(a.body, b.body, "both callers get the same bytes");
    let statuses = [a.header("x-cache").unwrap(), b.header("x-cache").unwrap()];
    assert!(
        statuses.contains(&"miss") && statuses.contains(&"join"),
        "one miss, one join; got {statuses:?}"
    );
    let st = stats(&addr);
    assert_eq!(cache_counter(&st, "runs"), 1, "exactly one execution");
    assert_eq!(cache_counter(&st, "misses"), 1);
    assert_eq!(cache_counter(&st, "joins"), 1);
    handle.shutdown();
}

#[test]
fn full_queue_gets_the_structured_backpressure_error() {
    let (handle, addr) = test_server(Config {
        workers: 1,
        queue_cap: 1,
        ..cfg()
    });
    // Occupy the single worker, then the single queue slot, with
    // distinct slow jobs; the third distinct job must bounce.
    let slow: Vec<_> = [600u64, 601]
        .into_iter()
        .map(|ms| {
            let addr = addr.clone();
            let t = std::thread::spawn(move || {
                client::submit(&addr, &format!(r#"{{"kind":"sleep","ms":{ms}}}"#)).unwrap()
            });
            std::thread::sleep(std::time::Duration::from_millis(120));
            t
        })
        .collect();
    let rejected = client::submit(&addr, r#"{"kind":"sleep","ms":602}"#).unwrap();
    assert_eq!(rejected.status, 429, "{}", rejected.body_str());
    assert_eq!(rejected.header("retry-after"), Some("1"));
    let doc = Json::parse(&rejected.body_str()).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("queue_full"));
    assert_eq!(doc.get("capacity").and_then(Json::as_u64), Some(1));
    for t in slow {
        assert_eq!(t.join().unwrap().status, 200);
    }
    assert_eq!(cache_counter(&stats(&addr), "rejected"), 1);
    handle.shutdown();
}

#[test]
fn evicted_entry_is_recomputed_byte_identically() {
    // Memory-only cache with a single slot: the second job evicts the
    // first, so repeating the first must re-simulate — and reproduce
    // the exact bytes.
    let (handle, addr) = test_server(Config {
        cache_entries: 1,
        ..cfg()
    });
    let cold = client::submit(&addr, EP_BENCH).unwrap();
    assert_eq!(cold.header("x-cache"), Some("miss"));
    let evictor = client::submit(&addr, r#"{"kind":"sleep","ms":1}"#).unwrap();
    assert_eq!(evictor.status, 200);
    let again = client::submit(&addr, EP_BENCH).unwrap();
    assert_eq!(again.header("x-cache"), Some("miss"), "evicted ⇒ recompute");
    assert_eq!(cold.body, again.body, "recompute must be byte-identical");
    let st = stats(&addr);
    assert!(cache_counter(&st, "evictions") >= 1);
    assert_eq!(cache_counter(&st, "runs"), 3);
    handle.shutdown();
}

#[test]
fn disk_tier_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("apserve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_cfg = || Config {
        cache_dir: Some(PathBuf::from(&dir)),
        ..cfg()
    };
    let (handle, addr) = test_server(disk_cfg());
    let cold = client::submit(&addr, EP_BENCH).unwrap();
    assert_eq!(cold.header("x-cache"), Some("miss"));
    handle.shutdown();

    // A brand-new server over the same cache directory: cold memory,
    // warm disk.
    let (handle, addr) = test_server(disk_cfg());
    let warm = client::submit(&addr, EP_BENCH).unwrap();
    assert_eq!(
        warm.header("x-cache"),
        Some("disk-hit"),
        "{}",
        warm.body_str()
    );
    assert_eq!(cold.body, warm.body, "disk tier returns the exact bytes");
    let st = stats(&addr);
    assert_eq!(cache_counter(&st, "disk_hits"), 1);
    assert_eq!(cache_counter(&st, "runs"), 0, "no simulation after restart");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_inputs_get_structured_errors() {
    let (handle, addr) = test_server(cfg());
    // (body, expected named field)
    for (body, field) in [
        ("this is not json", "body"),
        (r#"{"apps":["EP"]}"#, "kind"),
        (r#"{"kind":"warpdrive"}"#, "kind"),
        (r#"{"kind":"bench","bogus":1}"#, "bogus"),
        (r#"{"kind":"bench","scale":"huge"}"#, "scale"),
        (r#"{"kind":"remodel","trace":"../../etc/passwd"}"#, "trace"),
    ] {
        let resp = client::submit(&addr, body).unwrap();
        assert_eq!(resp.status, 400, "{body}");
        let doc = Json::parse(&resp.body_str()).unwrap();
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_request"));
        assert_eq!(
            doc.get("field").and_then(Json::as_str),
            Some(field),
            "{body} -> {}",
            resp.body_str()
        );
    }
    // Too-deep JSON is rejected as a structured error, not a crash.
    let deep = format!(r#"{{"kind":{}1{}}}"#, "[".repeat(500), "]".repeat(500));
    let resp = client::submit(&addr, &deep).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("rejected"), "{}", resp.body_str());

    // Unknown route, wrong method, oversized body.
    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/submit").unwrap().status, 405);
    let huge = vec![b' '; apserve::MAX_BODY_BYTES + 1];
    let resp = client::request(&addr, "POST", "/submit", &huge).unwrap();
    assert_eq!(resp.status, 413);
    // A hostile Content-Length with no body at all: the 413 arrives and
    // the server finishes its side without waiting for bytes that will
    // never come.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    write!(
        raw,
        "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        usize::MAX
    )
    .unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer)
        .expect("413 then EOF, not a hang");
    assert!(answer.starts_with("HTTP/1.1 413 "), "{answer}");
    assert!(answer.contains("payload_too_large"), "{answer}");
    drop(raw);

    // None of that counts as cache traffic.
    let st = stats(&addr);
    assert_eq!(cache_counter(&st, "misses"), 0);
    assert_eq!(cache_counter(&st, "runs"), 0);
    handle.shutdown();
}

#[test]
fn streaming_submits_narrate_then_report() {
    let (handle, addr) = test_server(cfg());
    let job = r#"{"kind":"sleep","ms":50,"stream":true}"#;
    let mut lines = Vec::new();
    let report = client::submit_stream(&addr, job, |line| lines.push(line.to_string())).unwrap();
    // Progress lines arrived before the report line.
    let progress: Vec<String> = lines
        .iter()
        .filter_map(|l| {
            Json::parse(l)
                .ok()
                .and_then(|d| d.get("progress").and_then(Json::as_str).map(str::to_string))
        })
        .collect();
    assert!(progress.iter().any(|p| p == "queued"), "{lines:?}");
    assert!(progress.iter().any(|p| p == "done"), "{lines:?}");
    let doc = Json::parse(&report).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("ap1000plus.sleep")
    );

    // A streamed repeat is a hit: no progress, just the report line —
    // byte-identical to the cold report.
    let mut lines2 = Vec::new();
    let report2 = client::submit_stream(&addr, job, |l| lines2.push(l.to_string())).unwrap();
    assert_eq!(lines2.len(), 1, "a hit streams exactly the report line");
    assert_eq!(report, report2);
    handle.shutdown();
}

/// End-to-end through the binaries: `repro serve` on an ephemeral port,
/// `repro submit` as the client — the exact workflow CI's serve-smoke
/// job drives.
#[test]
fn repro_serve_and_submit_round_trip() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let mut server = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--allow-sleep"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("start repro serve");
    let stdout = server.stdout.take().unwrap();
    let mut first_line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("read bind line");
    let addr = first_line
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected bind line {first_line:?}"))
        .to_string();

    let submit = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["submit", "--addr", &addr])
            .args(extra)
            .output()
            .expect("run repro submit")
    };

    let job = r#"{"kind":"sleep","ms":5}"#;
    let cold = submit(&["--job", job]);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert!(String::from_utf8_lossy(&cold.stderr).contains("x-cache: miss"));
    let warm = submit(&["--job", job]);
    assert!(warm.status.success());
    assert!(String::from_utf8_lossy(&warm.stderr).contains("x-cache: hit"));
    assert_eq!(cold.stdout, warm.stdout, "cached bytes identical via CLI");

    let stats_out = submit(&["--stats"]);
    assert!(stats_out.status.success());
    let st = Json::parse(String::from_utf8_lossy(&stats_out.stdout).trim()).unwrap();
    assert_eq!(
        st.get("schema").and_then(Json::as_str),
        Some("ap1000plus.servestats")
    );

    // A malformed job exits 2 with the field named on stderr.
    let bad = submit(&["--job", r#"{"kind":"bench","bogus":1}"#]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("bogus"));

    // `--stream` injects the transport flag itself: progress narration
    // lands on stderr, the report alone on stdout.
    let streamed = submit(&["--stream", "--job", r#"{"kind":"sleep","ms":40}"#]);
    assert!(streamed.status.success());
    let err = String::from_utf8_lossy(&streamed.stderr);
    assert!(err.contains(r#"{"progress":"queued"}"#), "{err}");
    assert!(err.contains(r#"{"progress":"done"}"#), "{err}");
    let out = String::from_utf8_lossy(&streamed.stdout);
    assert!(
        out.trim().starts_with(r#"{"schema":"ap1000plus.sleep""#),
        "{out}"
    );

    // A failed streamed job exits 1 and keeps stdout clean.
    let failed = submit(&[
        "--stream",
        "--job",
        r#"{"kind":"bench","apps":["NoSuchApp"],"scale":"test"}"#,
    ]);
    assert_eq!(failed.status.code(), Some(1));
    assert!(
        failed.stdout.is_empty(),
        "no report on stdout for a failure"
    );
    assert!(String::from_utf8_lossy(&failed.stderr).contains("job_failed"));

    // Remote shutdown stops the foreground server process.
    let down = submit(&["--shutdown"]);
    assert!(down.status.success());
    let status = server.wait().expect("server exits after /shutdown");
    assert!(status.success());
}

/// `repro submit --retry N` rides out 429 backpressure: without the
/// flag a full queue is exit 3; with it the client honours
/// `Retry-After` (capped exponential backoff) and eventually lands.
#[test]
fn submit_retry_rides_out_backpressure() {
    let (handle, addr) = test_server(Config {
        workers: 1,
        queue_cap: 1,
        ..cfg()
    });
    // Occupy the single worker and the single queue slot.
    let slow: Vec<_> = [800u64, 801]
        .into_iter()
        .map(|ms| {
            let addr = addr.clone();
            let t = std::thread::spawn(move || {
                client::submit(&addr, &format!(r#"{{"kind":"sleep","ms":{ms}}}"#)).unwrap()
            });
            std::thread::sleep(std::time::Duration::from_millis(120));
            t
        })
        .collect();

    let submit = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "submit",
                "--addr",
                &addr,
                "--job",
                r#"{"kind":"sleep","ms":5}"#,
            ])
            .args(extra)
            .output()
            .expect("run repro submit")
    };

    // No retries: backpressure is a distinct exit code (3).
    let bounced = submit(&[]);
    assert_eq!(bounced.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&bounced.stderr).contains("queue_full"));

    // With retries the client waits out Retry-After and succeeds once
    // the slow jobs drain.
    let retried = submit(&["--retry", "5"]);
    assert!(
        retried.status.success(),
        "{}",
        String::from_utf8_lossy(&retried.stderr)
    );
    let stderr = String::from_utf8_lossy(&retried.stderr);
    assert!(stderr.contains("429"), "{stderr}");
    assert!(stderr.contains("retry 1/5"), "{stderr}");

    for t in slow {
        assert_eq!(t.join().unwrap().status, 200);
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Sandbox failure matrix
// ---------------------------------------------------------------------------

/// A sandboxed config whose children run `repro job-exec`. The `tag`
/// rides along as an ignored argv marker so concurrent tests can tell
/// their children apart in `/proc`.
fn sandbox_cfg(tag: &str) -> Config {
    let mut sb = SandboxConfig::new(vec![
        env!("CARGO_BIN_EXE_repro").to_string(),
        "job-exec".to_string(),
        format!("--tag={tag}"),
    ]);
    sb.retry_backoff_ms = 10;
    Config {
        sandbox: Some(sb),
        ..cfg()
    }
}

fn gauge(st: &Json, name: &str) -> u64 {
    st.get("gauges")
        .and_then(|g| g.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("gauge {name} missing from {st}"))
}

/// Every live process whose cmdline carries the given tag marker.
#[cfg(target_os = "linux")]
fn pids_with_marker(marker: &str) -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return out;
    };
    for e in entries.flatten() {
        let Some(pid) = e.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(cmd) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        if String::from_utf8_lossy(&cmd)
            .replace('\0', " ")
            .contains(marker)
        {
            out.push(pid);
        }
    }
    out
}

#[cfg(target_os = "linux")]
fn wait_for_marker(marker: &str) -> u32 {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if let Some(&pid) = pids_with_marker(marker).first() {
            return pid;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no child tagged {marker} appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn sandboxed_crash_is_structured_and_the_server_survives() {
    let (handle, addr) = test_server(sandbox_cfg("crash"));

    // A panicking child: retried once, then reported as a structured
    // 500 with the exit status and a stderr tail.
    let resp = client::submit(&addr, r#"{"kind":"sleep","ms":1,"crash":"panic"}"#).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body_str());
    let doc = Json::parse(&resp.body_str()).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("job_crashed"));
    assert!(
        doc.get("exit_status").and_then(Json::as_str).is_some(),
        "{doc}"
    );
    let tail = doc.get("stderr_tail").and_then(Json::as_str).unwrap();
    assert!(tail.contains("injected panic"), "{tail}");

    // An aborting child dies on SIGABRT — also contained.
    let resp = client::submit(&addr, r#"{"kind":"sleep","ms":1,"crash":"abort"}"#).unwrap();
    assert_eq!(resp.status, 500);
    let doc = Json::parse(&resp.body_str()).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("job_crashed"));
    assert!(
        doc.get("exit_status")
            .and_then(Json::as_str)
            .unwrap()
            .contains("signal"),
        "{doc}"
    );

    // The server is unharmed: a real simulation still runs to 200.
    let ok = client::submit(&addr, EP_BENCH).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body_str());

    let st = stats(&addr);
    assert_eq!(cache_counter(&st, "crashed"), 4, "2 jobs × (run + retry)");
    assert_eq!(cache_counter(&st, "job_retries"), 2);
    assert_eq!(gauge(&st, "poisoned_keys"), 2);
    assert_eq!(
        st.get("gauges").and_then(|g| g.get("sandbox")),
        Some(&Json::Bool(true))
    );
    handle.shutdown();
}

#[test]
fn deadline_overrun_is_killed_and_reported_as_504() {
    let mut c = sandbox_cfg("deadline");
    c.sandbox.as_mut().unwrap().job_timeout_ms = 200;
    let (handle, addr) = test_server(c);

    let resp = client::submit(&addr, r#"{"kind":"sleep","ms":30000}"#).unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body_str());
    let doc = Json::parse(&resp.body_str()).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("job_timeout"));
    assert_eq!(doc.get("deadline_ms").and_then(Json::as_u64), Some(200));

    // Timeouts are not retried and do not poison the key.
    let st = stats(&addr);
    assert_eq!(cache_counter(&st, "timeouts"), 1);
    assert_eq!(cache_counter(&st, "kills"), 1);
    assert_eq!(cache_counter(&st, "job_retries"), 0);
    assert_eq!(gauge(&st, "poisoned_keys"), 0);

    // And the server keeps answering.
    let ok = client::submit(&addr, r#"{"kind":"sleep","ms":1}"#).unwrap();
    assert_eq!(ok.status, 200);
    handle.shutdown();
}

#[test]
fn crash_looping_key_is_poisoned_and_never_cached() {
    let (handle, addr) = test_server(sandbox_cfg("poison"));
    let job = r#"{"kind":"sleep","ms":2,"crash":"panic"}"#;

    // First submission crashes through its retry: 500.
    let first = client::submit(&addr, job).unwrap();
    assert_eq!(first.status, 500, "{}", first.body_str());

    // Every later submission of the same key is refused up front: 422,
    // no execution, no cache entry, no X-Cache header.
    for _ in 0..2 {
        let resp = client::submit(&addr, job).unwrap();
        assert_eq!(resp.status, 422, "{}", resp.body_str());
        let doc = Json::parse(&resp.body_str()).unwrap();
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("job_poisoned")
        );
        assert_eq!(doc.get("crashes").and_then(Json::as_u64), Some(2));
        assert_eq!(
            resp.header("x-cache"),
            None,
            "a poisoned key is not cache traffic"
        );
    }

    let st = stats(&addr);
    assert_eq!(cache_counter(&st, "poison_rejects"), 2);
    assert_eq!(cache_counter(&st, "hits"), 0, "failures are never cached");
    assert_eq!(
        cache_counter(&st, "crashed"),
        2,
        "poison gate stops re-execution"
    );
    handle.shutdown();
}

#[test]
fn sandboxed_report_is_byte_identical_to_in_process() {
    let (sb_handle, sb_addr) = test_server(sandbox_cfg("cmp"));
    let (ip_handle, ip_addr) = test_server(cfg());

    let sandboxed = client::submit(&sb_addr, EP_BENCH).unwrap();
    let inproc = client::submit(&ip_addr, EP_BENCH).unwrap();
    assert_eq!(sandboxed.status, 200, "{}", sandboxed.body_str());
    assert_eq!(inproc.status, 200, "{}", inproc.body_str());
    assert_eq!(
        sandboxed.body, inproc.body,
        "process isolation must not change a single byte"
    );
    assert_eq!(sandboxed.header("x-key"), inproc.header("x-key"));
    sb_handle.shutdown();
    ip_handle.shutdown();
}

/// `kill -9` straight at the worker process mid-job: the caller gets a
/// structured crash, nothing is cached (not even partially, on disk),
/// no child survives, and the server keeps serving.
#[cfg(target_os = "linux")]
#[test]
fn sigkilled_job_leaves_no_orphan_and_no_partial_disk_entry() {
    let dir = std::env::temp_dir().join(format!("apserve-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = sandbox_cfg("kill9");
    c.sandbox.as_mut().unwrap().retries = 0; // the kill is the whole story
    c.cache_dir = Some(PathBuf::from(&dir));
    let (handle, addr) = test_server(c);

    let t = {
        let addr = addr.clone();
        std::thread::spawn(move || client::submit(&addr, r#"{"kind":"sleep","ms":30000}"#).unwrap())
    };
    let pid = wait_for_marker("--tag=kill9");
    let killed = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());

    let resp = t.join().unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body_str());
    let doc = Json::parse(&resp.body_str()).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("job_crashed"));
    assert!(
        doc.get("exit_status")
            .and_then(Json::as_str)
            .unwrap()
            .contains("signal 9"),
        "{doc}"
    );

    // The child was reaped — no orphan, no zombie with our tag.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !pids_with_marker("--tag=kill9").is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned job-exec child"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // No partial disk-cache entry: the directory holds nothing at all
    // (results are written atomically, and only for successes).
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "partial disk entries: {leftovers:?}");

    // The server shrugs it off.
    let ok = client::submit(&addr, r#"{"kind":"sleep","ms":1}"#).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body_str());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful drain: shutdown fails the in-flight sandboxed job as
/// `job_canceled`, kills its child within the drain deadline, and
/// leaves no process behind.
#[cfg(target_os = "linux")]
#[test]
fn shutdown_drains_and_kills_in_flight_children() {
    let mut c = sandbox_cfg("drain");
    c.drain_ms = 100;
    let (handle, addr) = test_server(c);

    let t = {
        let addr = addr.clone();
        std::thread::spawn(move || client::submit(&addr, r#"{"kind":"sleep","ms":30000}"#).unwrap())
    };
    wait_for_marker("--tag=drain");
    handle.shutdown();

    let resp = t.join().unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    let doc = Json::parse(&resp.body_str()).unwrap();
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("job_canceled")
    );
    assert!(
        pids_with_marker("--tag=drain").is_empty(),
        "drain left a job-exec child running"
    );
}
