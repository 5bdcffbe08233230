//! The serve side of the benchmark: a real `repro serve` child, its
//! lifecycle, and a closed-loop load generator that times every request
//! from connect to the last body byte over a raw `TcpStream` and checks
//! every response.

use crate::host;
use crate::micro::Rng;
use crate::pins::{Pins, SERVE_APPS};
use crate::spans::{self, Recorder, Span};
use crate::stats::{percentile_sorted, samples_beyond};
use aputil::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop clients. Callers of the service (`repro submit`, CI,
/// scripts) each wait for their reply, so the loop is closed; two
/// clients because load generation must not use more threads than the
/// host has CPUs and the sizing host has two.
pub const CLIENTS: usize = 2;
/// `rev`s per app in the hit key set: 4 apps × 8 = 32 keys, half the
/// server's 64-entry memory tier.
const HIT_REVS: usize = 8;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The job document of one bench request.
pub fn job_body(app: &str, rev: &str) -> String {
    format!(r#"{{"kind":"bench","apps":["{app}"],"scale":"test","rev":"{rev}"}}"#)
}

fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: apperf\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

// ---------------------------------------------------------------------------
// Server lifecycle.
// ---------------------------------------------------------------------------

/// How the server under test is configured beyond the fixed
/// `--workers 2`.
#[derive(Clone, Debug, Default)]
pub struct ServerOpts {
    pub sandbox: bool,
    pub cache_dir: Option<PathBuf>,
    /// Memory-tier entries (the workloads use 64).
    pub cache_entries: usize,
}

/// A running `repro serve` child. Dropping it shuts the server down,
/// reaps it and kills any `job-exec` worker it left behind — on every
/// exit path, unwinding included. [`Server::stop`] does the same but
/// reports what went wrong.
pub struct Server {
    child: Option<Child>,
    repro: PathBuf,
    pub addr: SocketAddr,
    /// The CPU the server is pinned to.
    pub cpu: usize,
}

/// Counters of `GET /stats` the benchmark reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub disk_hits: u64,
    pub misses: u64,
    pub runs: u64,
    pub evictions: u64,
}

impl CacheStats {
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
            runs: self.runs - earlier.runs,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Useful ÷ attempted for a cache: answered without running ÷ all.
    pub fn hit_ratio(&self) -> f64 {
        let served = self.hits + self.disk_hits;
        let all = served + self.misses;
        if all == 0 {
            0.0
        } else {
            served as f64 / all as f64
        }
    }
}

impl Server {
    /// Spawns `repro serve --addr 127.0.0.1:0 ...` pinned to one CPU and
    /// waits for its `listening ADDR` line. The server's stderr goes to
    /// `log`.
    ///
    /// Pinned for the same reason as the simulator workloads: where the
    /// scheduler puts the accept, connection and worker threads decides
    /// the throughput of a fresh server process (7.1 k – 8.9 k req/s on
    /// `serve_hit` across ten unpinned processes of one binary), and a
    /// 10 % bound cannot referee that. A server that cannot be pinned is
    /// an error, not an unpinned measurement.
    pub fn start(repro: &Path, opts: &ServerOpts, log: &Path) -> Result<Server, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(repro);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(["--cache-entries", &opts.cache_entries.to_string()]);
        if opts.sandbox {
            cmd.arg("--sandbox");
        }
        if let Some(dir) = &opts.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        // The child inherits the spawning thread's affinity: pin this
        // thread to the server's CPU for the spawn, then release it. The
        // load generator stays unpinned.
        let all = host::allowed_cpus()?;
        let cpu = *all.last().ok_or("empty CPU affinity mask")?;
        host::set_affinity(&[cpu])?;
        let spawned = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn();
        let released = host::set_affinity(&all);
        let mut child = spawned.map_err(|e| format!("cannot spawn {}: {e}", repro.display()))?;
        if let Err(e) = released {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout was piped")).read_line(&mut line);
        let addr = line
            .trim_end()
            .strip_prefix("listening ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child: Some(child),
                repro: repro.to_path_buf(),
                addr,
                cpu,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "repro serve did not print `listening ADDR` (got '{}'); see {}",
                    line.trim_end(),
                    log.display()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    pub fn peak_rss_kb(&self) -> u64 {
        host::proc_status(self.pid(), "VmHWM").unwrap_or(0)
    }

    pub fn stats(&self) -> Result<CacheStats, String> {
        let resp = apserve::client::get(&self.addr.to_string(), "/stats")?;
        let doc = Json::parse(&resp.body_str()).map_err(|e| format!("/stats: {e}"))?;
        let cache = doc.get("cache").ok_or("/stats has no cache block")?;
        let n = |k: &str| {
            cache
                .get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("/stats cache block has no {k}"))
        };
        Ok(CacheStats {
            hits: n("hits")?,
            disk_hits: n("disk_hits")?,
            misses: n("misses")?,
            runs: n("runs")?,
            evictions: n("evictions")?,
        })
    }

    /// `POST /shutdown`, reap, and fail if a `job-exec` worker survived.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let asked = apserve::client::request(&self.addr.to_string(), "POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        let exited = loop {
            match child.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break false,
            }
        };
        if !exited {
            let _ = child.kill();
            let _ = child.wait();
        }
        let orphans = job_exec_pids(&self.repro);
        for pid in &orphans {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        if let Err(e) = asked {
            return Err(format!("POST /shutdown failed: {e}"));
        }
        if !exited {
            return Err("repro serve ignored /shutdown for 10 s and was killed".into());
        }
        if !orphans.is_empty() {
            return Err(format!(
                "job-exec worker(s) {orphans:?} survived the server and were killed"
            ));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Pids of live `<repro> job-exec` processes (the sandbox workers of a
/// server started from this binary).
fn job_exec_pids(repro: &Path) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let repro = repro.to_string_lossy();
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/cmdline")).is_ok_and(|raw| {
                let mut args = raw.split(|&b| b == 0).map(String::from_utf8_lossy);
                args.next().is_some_and(|a0| a0 == repro)
                    && args.next().is_some_and(|a1| a1 == "job-exec")
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// One timed HTTP exchange.
// ---------------------------------------------------------------------------

/// When each phase of one exchange ended.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub start: Instant,
    pub connected: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub end: Instant,
}

/// Sends `request` on a fresh connection and reads the whole response
/// (the server closes after each) into `buf`.
fn exchange(addr: &SocketAddr, request: &[u8], buf: &mut Vec<u8>) -> std::io::Result<Timing> {
    buf.clear();
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(addr, IO_TIMEOUT)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(request)?;
    let written = Instant::now();
    let mut first_byte = None;
    let mut chunk = [0u8; 16 << 10];
    loop {
        let n = stream.read(&mut chunk)?;
        if first_byte.is_none() {
            first_byte = Some(Instant::now());
        }
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let end = Instant::now();
    Ok(Timing {
        start,
        connected,
        written,
        first_byte: first_byte.unwrap_or(end),
        end,
    })
}

/// The parts of a response the checks look at.
struct Reply<'a> {
    status: u16,
    x_cache: Option<&'a str>,
    body: &'a [u8],
}

fn parse_reply(raw: &[u8]) -> Option<Reply<'_>> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()?
        .split_ascii_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    let mut x_cache = None;
    let mut length = None;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        if name.eq_ignore_ascii_case("x-cache") {
            x_cache = Some(value.trim());
        } else if name.eq_ignore_ascii_case("content-length") {
            length = value.trim().parse::<usize>().ok();
        }
    }
    let body = &raw[split + 4..];
    // A short read is a truncated response, not a smaller one.
    (length? == body.len()).then_some(Reply {
        status,
        x_cache,
        body,
    })
}

/// The first `"emulator_total_ns":N` of a one-app bench report.
fn emulator_total_ns(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"emulator_total_ns\":";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------------
// Load generation.
// ---------------------------------------------------------------------------

/// One warmed key: the request bytes, the bytes the cold run produced,
/// and the pinned event count of its simulation.
#[derive(Clone)]
pub struct WarmKey {
    request: Vec<u8>,
    want_body: Vec<u8>,
    events: u64,
}

/// What a pass sends and how its responses are checked.
pub enum Mix {
    /// Uniform seeded choice among warmed keys; every response must be a
    /// memory hit with exactly the warm bytes.
    Hit(Vec<WarmKey>),
    /// Round-robin over warmed keys by one client; every response must be
    /// a disk hit with exactly the warm bytes.
    DiskHit(Vec<WarmKey>),
    /// Never-seen keys (`rev` = seeded nonce), apps round-robin; every
    /// response must be a miss whose `emulator_total_ns` is the app's
    /// pin. `(app, sim_total_ns, events)` per app.
    Cold(Vec<(String, u64, u64)>),
    /// `GET /healthz`: the HTTP floor.
    Health,
}

/// When a pass stops starting requests.
#[derive(Clone, Copy)]
pub struct PassLimit {
    pub seconds: f64,
    /// Also stop once this many requests were started (all clients).
    pub max_requests: Option<u64>,
}

/// One pass of the load generator.
#[derive(Default)]
pub struct Pass {
    /// From the first request's start to the last response's end.
    pub secs: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Latency of every verified response, milliseconds, ascending.
    pub lat_ms: Vec<f64>,
    /// Pinned simulation events of the verified responses.
    pub events: u64,
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn req_per_s(&self) -> f64 {
        self.verified() as f64 / self.secs
    }

    pub fn p50_ms(&self) -> f64 {
        percentile_sorted(&self.lat_ms, 50.0)
    }

    pub fn p99_ms(&self) -> f64 {
        percentile_sorted(&self.lat_ms, 99.0)
    }

    pub fn beyond_p99(&self) -> usize {
        samples_beyond(self.lat_ms.len(), 99.0)
    }
}

/// One request and what its response must look like.
struct Want<'a> {
    request: &'a [u8],
    /// Exact body bytes, for cache hits.
    body: Option<&'a [u8]>,
    /// `X-Cache` tier.
    tier: Option<&'static str>,
    /// `emulator_total_ns` of the report, for cold runs.
    total_ns: Option<u64>,
    /// Pinned event count of the simulation behind the response.
    events: u64,
}

impl<'a> Want<'a> {
    /// Why the raw response `raw` is not the wanted one, if it is not.
    fn check(&self, raw: &[u8]) -> Option<String> {
        let Some(r) = parse_reply(raw) else {
            return Some("malformed or truncated response".to_string());
        };
        if r.status != 200 {
            return Some(format!(
                "status {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body[..r.body.len().min(200)])
            ));
        }
        if self.tier.is_some() && r.x_cache != self.tier {
            return Some(format!("X-Cache {:?}, wanted {:?}", r.x_cache, self.tier));
        }
        if self.body.is_some_and(|w| w != r.body) {
            return Some("body differs from the warm bytes".to_string());
        }
        if self.total_ns.is_some() && emulator_total_ns(r.body) != self.total_ns {
            return Some(format!(
                "emulator_total_ns {:?}, pinned {:?}",
                emulator_total_ns(r.body),
                self.total_ns
            ));
        }
        None
    }

    fn warm(key: &'a WarmKey, tier: &'static str) -> Want<'a> {
        Want {
            request: &key.request,
            body: Some(&key.want_body),
            tier: Some(tier),
            total_ns: None,
            events: key.events,
        }
    }
}

const MAX_FAILURES_KEPT: usize = 5;

struct ClientOut {
    first: Instant,
    last: Instant,
    pass: Pass,
}

/// Runs one closed-loop pass of `clients` clients against `addr`.
pub fn run_pass(
    addr: SocketAddr,
    mix: &Mix,
    clients: usize,
    limit: PassLimit,
    seed: u64,
    pass_no: u64,
    traced: bool,
) -> Pass {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(limit.seconds);
    let started = std::sync::atomic::AtomicU64::new(0);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let started = &started;
                s.spawn(move || {
                    client_loop(addr, mix, c, limit, deadline, started, seed, pass_no, {
                        Recorder::with_origin(traced, origin)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator client panicked"))
            .collect()
    });
    let mut pass = Pass::default();
    let first = outs.iter().map(|o| o.first).min().unwrap_or(origin);
    let last = outs.iter().map(|o| o.last).max().unwrap_or(origin);
    pass.secs = last.duration_since(first).as_secs_f64();
    for o in outs {
        pass.attempted += o.pass.attempted;
        pass.failed += o.pass.failed;
        pass.events += o.pass.events;
        pass.lat_ms.extend(o.pass.lat_ms);
        for f in o.pass.failures {
            if pass.failures.len() < MAX_FAILURES_KEPT {
                pass.failures.push(f);
            }
        }
        spans::append(&mut pass.spans, o.pass.spans);
    }
    pass.lat_ms.sort_by(f64::total_cmp);
    pass
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: SocketAddr,
    mix: &Mix,
    client: usize,
    limit: PassLimit,
    deadline: Instant,
    started: &std::sync::atomic::AtomicU64,
    seed: u64,
    pass_no: u64,
    mut rec: Recorder,
) -> ClientOut {
    use std::sync::atomic::Ordering;
    // One stream per (seed, pass, client): the same seed replays the
    // same key order whatever the other client does.
    let mut rng = Rng::new(seed ^ (pass_no << 32) ^ ((client as u64 + 1) << 48));
    let health = http_request("GET", "/healthz", "");
    let mut buf = Vec::with_capacity(32 << 10);
    let mut out = ClientOut {
        first: Instant::now(),
        last: Instant::now(),
        pass: Pass::default(),
    };
    let mut cold_request;
    for n in 0u64.. {
        if Instant::now() >= deadline {
            break;
        }
        // Relaxed: a plain counter, it publishes nothing.
        let ticket = started.fetch_add(1, Ordering::Relaxed);
        if limit.max_requests.is_some_and(|max| ticket >= max) {
            break;
        }
        let want = match mix {
            Mix::Hit(keys) => Want::warm(&keys[rng.below(keys.len() as u64) as usize], "hit"),
            Mix::DiskHit(keys) => Want::warm(&keys[n as usize % keys.len()], "disk-hit"),
            Mix::Cold(apps) => {
                let (app, total, events) = &apps[n as usize % apps.len()];
                let nonce = format!(
                    "n{seed:x}.{pass_no}.{client}.{n}.{:x}",
                    rng.next_u64() & 0xffff
                );
                cold_request = http_request("POST", "/submit", &job_body(app, &nonce));
                Want {
                    request: &cold_request,
                    body: None,
                    tier: Some("miss"),
                    total_ns: Some(*total),
                    events: *events,
                }
            }
            Mix::Health => Want {
                request: &health,
                body: None,
                tier: None,
                total_ns: None,
                events: 0,
            },
        };
        let result = exchange(&addr, want.request, &mut buf);
        out.pass.attempted += 1;
        let failure = match &result {
            Err(e) => Some(format!("transport: {e}")),
            Ok(_) => want.check(&buf),
        };
        match (failure, result) {
            (None, Ok(t)) => {
                if out.pass.lat_ms.is_empty() {
                    out.first = t.start;
                }
                out.last = t.end;
                out.pass
                    .lat_ms
                    .push(t.end.duration_since(t.start).as_secs_f64() * 1e3);
                out.pass.events += want.events;
                if rec.enabled() {
                    rec.set_iter(ticket);
                    let req = rec.record("request", t.start, t.end, None);
                    rec.record("connect", t.start, t.connected, req);
                    rec.record("write", t.connected, t.written, req);
                    rec.record("ttfb", t.written, t.first_byte, req);
                    rec.record("body", t.first_byte, t.end, req);
                }
            }
            (failure, _) => {
                out.pass.failed += 1;
                if out.pass.failures.len() < MAX_FAILURES_KEPT {
                    out.pass.failures.push(format!(
                        "pass {pass_no} client {client} request {n}: {}",
                        failure.unwrap_or_else(|| "unknown".into())
                    ));
                }
            }
        }
    }
    out.pass.spans = rec.into_spans();
    out
}

/// Warms `revs` revisions of every serve app on `server`: each is a cold
/// run whose bytes become the expected body of later hits. Fails if a
/// warm run is not a verified miss.
pub fn warm(server: &Server, pins: &Pins, revs: usize) -> Result<Vec<WarmKey>, String> {
    let mut keys = Vec::new();
    let mut buf = Vec::new();
    for app in SERVE_APPS {
        let pin = pins
            .serve_app(app)
            .ok_or(format!("perf/expected.json has no serve app {app}"))?;
        for r in 0..revs {
            let request = http_request("POST", "/submit", &job_body(app, &format!("r{r}")));
            exchange(&server.addr, &request, &mut buf).map_err(|e| format!("warm {app}: {e}"))?;
            let reply = parse_reply(&buf).ok_or(format!("warm {app}: malformed response"))?;
            if reply.status != 200 || reply.x_cache != Some("miss") {
                return Err(format!(
                    "warm {app} r{r}: status {} X-Cache {:?}",
                    reply.status, reply.x_cache
                ));
            }
            if emulator_total_ns(reply.body) != Some(pin.sim_total_ns) {
                return Err(format!(
                    "warm {app}: emulator_total_ns {:?}, pinned {}",
                    emulator_total_ns(reply.body),
                    pin.sim_total_ns
                ));
            }
            keys.push(WarmKey {
                request,
                want_body: reply.body.to_vec(),
                events: pin.events,
            });
        }
    }
    Ok(keys)
}

/// The hit workload's key set.
pub fn warm_hit_keys(server: &Server, pins: &Pins) -> Result<Vec<WarmKey>, String> {
    warm(server, pins, HIT_REVS)
}

/// The cold mix: each serve app with its pins.
pub fn cold_mix(pins: &Pins) -> Mix {
    Mix::Cold(
        pins.serve_apps
            .iter()
            .map(|a| (a.name.clone(), a.sim_total_ns, a.events))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_and_truncation_is_detected() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4\r\nConnection: close\r\nX-Cache: hit\r\nX-Key: 00\r\n\r\nbody";
        let r = parse_reply(raw).unwrap();
        assert_eq!(
            (r.status, r.x_cache, r.body),
            (200, Some("hit"), &b"body"[..])
        );
        assert!(parse_reply(&raw[..raw.len() - 1]).is_none(), "short body");
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_none());
    }

    #[test]
    fn emulator_total_is_found_in_a_report() {
        let body = br#"{"apps":[{"app":"EP","emulator_total_ns":123456,"counters":{}}]}"#;
        assert_eq!(emulator_total_ns(body), Some(123_456));
        assert_eq!(emulator_total_ns(b"{}"), None);
    }

    #[test]
    fn job_bodies_are_valid_requests_with_distinct_keys() {
        let a = apserve::parse_request(job_body("CG", "r1").as_bytes()).unwrap();
        let b = apserve::parse_request(job_body("CG", "r2").as_bytes()).unwrap();
        assert_ne!(a.key, b.key);
        assert_eq!(a.kind, apserve::Kind::Bench);
    }

    #[test]
    fn hit_ratio_is_served_over_all() {
        let s = CacheStats {
            hits: 3,
            disk_hits: 1,
            misses: 4,
            ..CacheStats::default()
        };
        assert_eq!(s.hit_ratio(), 0.5);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        let later = CacheStats { hits: 5, ..s };
        assert_eq!(later.since(&s).hits, 2);
    }
}
