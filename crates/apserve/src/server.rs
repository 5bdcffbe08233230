//! The HTTP front end: accept loop, routing, and response shaping over
//! [`crate::service::Service`].
//!
//! Response-shaping rules that the cache-correctness suite pins: every
//! request gets exactly one response, written by
//! [`crate::http::write_response`] with a `Content-Length` equal to its
//! body; and cache status travels in the `X-Cache` header (`miss`, `hit`,
//! `disk-hit`, `join`), **never** in the body — so a cached response body
//! is byte-for-byte the cold response body.

use std::io::{BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aputil::Json;

use crate::http::{read_request, write_response, HttpError, HttpRequest, Response, MAX_BODY_BYTES};
use crate::service::{Config, Executor, Service, Submission};

/// Per-connection socket deadline: a stalled or vanished client cannot
/// hold a handler thread (and its file descriptor) forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(120);

/// A running server: the bound address plus shutdown/join machinery.
pub struct ServerHandle {
    /// Actual bound address (resolves port 0).
    pub addr: SocketAddr,
    service: Arc<Service>,
    stopping: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Stops accepting, fails queued jobs, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.service.shutdown();
        // Poke the blocking accept() with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// True once the service has been asked to stop — by a local
    /// [`ServerHandle::shutdown`] or a client's `POST /shutdown`. Lets a
    /// foreground `repro serve` turn a remote shutdown into process exit.
    pub fn shutting_down(&self) -> bool {
        self.stopping.load(Ordering::SeqCst) || self.service.is_shutdown()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `cfg.addr`, starts the worker pool and accept loop, and
/// returns immediately.
pub fn serve(cfg: Config, executor: Executor) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let service = Service::new(cfg, executor);
    let workers = service.spawn_workers();
    let stopping = Arc::new(AtomicBool::new(false));
    let open_connections = Arc::new(AtomicUsize::new(0));

    let svc = Arc::clone(&service);
    let stop = Arc::clone(&stopping);
    let accept_thread = std::thread::Builder::new()
        .name("apserve-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let svc = Arc::clone(&svc);
                let conn = OpenConnection::count(&open_connections);
                // Detached handler thread per connection; bounded in
                // practice by Connection: close + the socket deadline.
                // The closure owns `conn`, so the count comes back when
                // the handler returns or panics, or when a failed spawn
                // drops the closure unrun.
                let _ = std::thread::Builder::new()
                    .name("apserve-conn".to_string())
                    .spawn(move || {
                        let _ = handle_connection(&svc, stream, &conn.0);
                    });
            }
        })
        .expect("spawn accept loop");

    Ok(ServerHandle {
        addr,
        service,
        stopping,
        accept_thread: Some(accept_thread),
        workers,
    })
}

/// One count held on the `open_connections` gauge, given back on drop.
struct OpenConnection(Arc<AtomicUsize>);

impl OpenConnection {
    fn count(gauge: &Arc<AtomicUsize>) -> OpenConnection {
        gauge.fetch_add(1, Ordering::SeqCst);
        OpenConnection(Arc::clone(gauge))
    }
}

impl Drop for OpenConnection {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn error_body(error: &str, detail: &str) -> Vec<u8> {
    Json::obj([("error", Json::from(error)), ("detail", Json::from(detail))])
        .to_string()
        .into_bytes()
}

fn handle_connection(
    svc: &Service,
    stream: TcpStream,
    gauge: &Arc<AtomicUsize>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let req = match read_request(&mut reader) {
        Ok(req) => req,
        Err(HttpError::Io(_)) => return Ok(()), // client vanished; nothing to say
        Err(HttpError::BadRequest(m)) => {
            return write_response(
                &mut writer,
                &Response::json(400, error_body("bad_request", &m)),
            );
        }
        Err(e @ HttpError::TooLarge { declared, .. }) => {
            write_response(
                &mut writer,
                &Response::json(413, error_body("payload_too_large", &e.to_string())),
            )?;
            // Closing with the body unread makes the kernel answer the
            // client's in-flight writes with a reset, which can destroy
            // the 413 before it is read. Finish our side, then swallow
            // what the client is still sending — a bounded amount.
            writer.shutdown(Shutdown::Write)?;
            discard_body(&mut reader, declared);
            return Ok(());
        }
    };
    route(svc, &req, &mut writer, gauge)
}

/// Reads and drops the rejected body: at most `2 × MAX_BODY_BYTES` and
/// at most [`SOCKET_TIMEOUT`] in total, whatever length was declared.
fn discard_body(r: &mut impl Read, declared: usize) {
    let deadline = Instant::now() + SOCKET_TIMEOUT;
    let mut left = declared.min(2 * MAX_BODY_BYTES);
    let mut buf = [0u8; 8192];
    while left > 0 && Instant::now() < deadline {
        let want = left.min(buf.len());
        match r.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => left -= n,
        }
    }
}

fn route(
    svc: &Service,
    req: &HttpRequest,
    w: &mut TcpStream,
    gauge: &Arc<AtomicUsize>,
) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let st = svc.stats();
            let doc = Json::obj([
                ("status", Json::from("ok")),
                ("sandbox", Json::Bool(st.sandbox)),
                ("workers", Json::from(st.workers)),
                ("poisoned_keys", Json::from(st.poisoned_keys)),
            ]);
            write_response(w, &Response::json(200, doc.to_string().into_bytes()))
        }
        ("GET", "/stats") => {
            let doc = stats_json(svc, gauge.load(Ordering::SeqCst));
            write_response(w, &Response::json(200, doc.to_string().into_bytes()))
        }
        ("POST", "/submit") => submit(svc, req, w),
        ("POST", "/shutdown") => {
            // Acknowledge *before* draining: the drain can take up to
            // `drain_ms` plus the reap window, and the client should not
            // have its response truncated by the process exiting the
            // moment the drain completes.
            let sent = write_response(
                w,
                &Response::json(200, br#"{"status":"stopping"}"#.to_vec()),
            );
            svc.shutdown();
            sent
        }
        (_, "/healthz" | "/stats" | "/submit" | "/shutdown") => write_response(
            w,
            &Response::json(
                405,
                error_body(
                    "method_not_allowed",
                    &format!("{} is not supported on {}", req.method, req.path),
                ),
            ),
        ),
        _ => write_response(
            w,
            &Response::json(
                404,
                error_body("not_found", &format!("no route for {}", req.path)),
            ),
        ),
    }
}

fn stats_json(svc: &Service, open_connections: usize) -> Json {
    let st = svc.stats();
    Json::obj([
        ("schema", Json::from("ap1000plus.servestats")),
        ("version", Json::from(1u64)),
        ("cache", st.counters.to_json()),
        (
            "gauges",
            Json::obj([
                ("in_flight", Json::from(st.in_flight)),
                ("queue_depth", Json::from(st.queue_depth)),
                ("cache_entries", Json::from(st.cache_entries)),
                ("cache_bytes", Json::from(st.cache_bytes)),
                ("open_connections", Json::from(open_connections)),
                ("workers", Json::from(st.workers)),
                ("queue_capacity", Json::from(st.queue_capacity)),
                ("disk_entries", Json::from(st.disk_entries)),
                ("disk_bytes", Json::from(st.disk_bytes)),
                ("poisoned_keys", Json::from(st.poisoned_keys)),
                ("children", Json::from(st.children)),
                ("sandbox", Json::Bool(st.sandbox)),
            ]),
        ),
    ])
}

fn submit(svc: &Service, req: &HttpRequest, w: &mut TcpStream) -> std::io::Result<()> {
    let canon = match crate::request::parse_request(&req.body) {
        Ok(c) => c,
        Err(e) => {
            return write_response(
                w,
                &Response::json(400, e.to_json().to_string().into_bytes()),
            );
        }
    };
    let key = canon.key_hex();
    match svc.submit(canon) {
        Submission::Done { body, tier } => {
            let status = match tier {
                crate::cache::CacheTier::Memory => "hit",
                crate::cache::CacheTier::Disk => "disk-hit",
            };
            finish(w, &key, status, Ok(body))
        }
        Submission::Pending { job, joined } => {
            let status = if joined { "join" } else { "miss" };
            finish(w, &key, status, job.wait())
        }
        Submission::Poisoned { crashes } => {
            let err = crate::service::JobError::Poisoned { crashes };
            let mut resp =
                Response::json(err.http_status(), err.to_json().to_string().into_bytes());
            resp.headers.push(("X-Key".to_string(), key));
            write_response(w, &resp)
        }
        Submission::Rejected { queued, capacity } => {
            let body = Json::obj([
                ("error", Json::from("queue_full")),
                ("queued", Json::from(queued)),
                ("capacity", Json::from(capacity)),
                (
                    "detail",
                    Json::from("worker queue is at capacity; retry after a job finishes"),
                ),
            ]);
            let mut resp = Response::json(429, body.to_string().into_bytes());
            resp.headers
                .push(("Retry-After".to_string(), "1".to_string()));
            write_response(w, &resp)
        }
    }
}

/// Writes the one response of an admitted submit. Cache status rides in
/// `X-Cache`; the body is exactly the report bytes, or the job's
/// structured error under its own status.
fn finish(
    w: &mut TcpStream,
    key: &str,
    cache_status: &str,
    outcome: Result<Vec<u8>, crate::service::JobError>,
) -> std::io::Result<()> {
    let mut resp = match outcome {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::json(e.http_status(), e.to_json().to_string().into_bytes()),
    };
    resp.headers
        .push(("X-Cache".to_string(), cache_status.to_string()));
    resp.headers.push(("X-Key".to_string(), key.to_string()));
    write_response(w, &resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_connection_gauge_is_given_back_on_every_path() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let conn = OpenConnection::count(&gauge);
        let returned = std::thread::spawn(move || drop(conn)).join();
        assert!(returned.is_ok());
        assert_eq!(gauge.load(Ordering::SeqCst), 0);

        let conn = OpenConnection::count(&gauge);
        assert_eq!(gauge.load(Ordering::SeqCst), 1);
        let panicked = std::thread::spawn(move || {
            let _conn = conn;
            panic!("handler bug");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(gauge.load(Ordering::SeqCst), 0, "a panicking handler");

        // A failed spawn drops the handler closure without running it.
        let conn = OpenConnection::count(&gauge);
        let handler = move || drop(conn);
        drop(handler);
        assert_eq!(gauge.load(Ordering::SeqCst), 0, "a closure never run");
    }
}
