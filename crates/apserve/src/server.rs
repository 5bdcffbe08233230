//! The HTTP front end: accept loop, routing, and response shaping over
//! [`crate::service::Service`].
//!
//! Response-shaping rules that the cache-correctness suite pins: every
//! request gets exactly one response, written by
//! [`crate::http::write_response`] with a `Content-Length` equal to its
//! body; and cache status travels in the `X-Cache` header (`miss`, `hit`,
//! `disk-hit`, `join`), **never** in the body — so a cached response body
//! is byte-for-byte the cold response body.
//!
//! Connections are served by reused handler threads ([`Handlers`]): the
//! most recently idle one takes the next connection, a fresh one starts
//! when none is idle, and at most [`MAX_IDLE_HANDLERS`] stay parked. A
//! handler whose submit leads a job runs that job itself (DESIGN.md §11
//! "Connection handlers").

use std::io::{BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SendError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aputil::Json;

use crate::http::{read_request, write_response, HttpError, HttpRequest, Response, MAX_BODY_BYTES};
use crate::poison::lock;
use crate::service::{Config, Executor, Service, Submission};

/// Per-connection socket deadline: a stalled or vanished client cannot
/// hold a handler thread (and its file descriptor) forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(120);

/// Most connection handlers kept parked between connections. A handler
/// that finishes while this many are already parked exits, so a burst
/// wider than the cap leaves at most this many threads behind.
const MAX_IDLE_HANDLERS: usize = 16;

/// A running server: the bound address plus shutdown/join machinery.
pub struct ServerHandle {
    /// Actual bound address (resolves port 0).
    pub addr: SocketAddr,
    service: Arc<Service>,
    stopping: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Drains the service (waiting jobs fail, running ones finish, every
    /// admitted submission is answered), then stops accepting and joins
    /// the accept loop.
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

/// Binds `cfg.addr`, starts the accept loop, and returns immediately.
pub fn serve(cfg: Config, executor: Executor) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let service = Service::new(cfg, executor);
    let stopping = Arc::new(AtomicBool::new(false));
    let open_connections = Arc::new(AtomicUsize::new(0));

    let svc = Arc::clone(&service);
    let stop = Arc::clone(&stopping);
    let accept_thread = std::thread::Builder::new()
        .name("apserve-accept".to_string())
        .spawn(move || {
            let handlers = Handlers::new(move |(conn, stream): &Connection| {
                let _ = handle_connection(&svc, stream, &conn.0);
            });
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // The most recently idle handler takes the connection, or
                // a fresh one when none is parked; it is never waited
                // for. The guard travels with the stream, so the count
                // comes back when the handler is done with it, when the
                // handler panics, or when a failed spawn drops it unrun.
                handlers.dispatch((OpenConnection::count(&open_connections), stream));
            }
            handlers.close();
        })
        .expect("spawn accept loop");

    Ok(ServerHandle {
        addr,
        service,
        stopping,
        accept_thread: Some(accept_thread),
    })
}

/// An accepted connection and the gauge count it holds. Fields drop in
/// order: the count is given back before the socket closes, so a client
/// that has read EOF never finds its own connection counted.
type Connection = (OpenConnection, TcpStream);

/// Connection handler threads, reused across connections. A handler that
/// has finished a task parks on top of a stack (`idle`) and the next task
/// goes to the top one, so under serial load one warm thread, with its
/// stack and malloc arena, serves every connection and runs every job
/// they lead. With none parked, a task gets a fresh thread, exactly as
/// if there were no stack: no task ever waits for a busy handler.
struct Handlers<T, F> {
    idle: Mutex<Idle<T>>,
    run: F,
}

struct Idle<T> {
    /// One sender per parked handler, most recently idle last.
    parked: Vec<Sender<T>>,
    /// Set once at shutdown; a closed stack takes no more handlers.
    closed: bool,
}

impl<T: Send + 'static, F: Fn(&T) + Send + Sync + 'static> Handlers<T, F> {
    fn new(run: F) -> Arc<Self> {
        Arc::new(Handlers {
            idle: Mutex::new(Idle {
                parked: Vec::new(),
                closed: false,
            }),
            run,
        })
    }

    /// Hands `task` to the most recently idle handler. If none is
    /// parked, or the one popped is gone, a fresh handler takes it.
    fn dispatch(self: &Arc<Self>, task: T) {
        let parked = lock(&self.idle).parked.pop();
        let task = match parked {
            Some(handler) => match handler.send(task) {
                Ok(()) => return,
                Err(SendError(task)) => task,
            },
            None => task,
        };
        let pool = Arc::clone(self);
        // A failed spawn drops `task` unrun, and with it its guards.
        let _ = std::thread::Builder::new()
            .name("apserve-conn".to_string())
            .spawn(move || pool.handle(task));
    }

    /// A handler's life: run a task, park if the stack is open and below
    /// [`MAX_IDLE_HANDLERS`], take the next task, and exit on a full or
    /// closed stack. The finished task is dropped only once the handler
    /// is parked: dropping a connection closes its socket, which lets the
    /// client connect again, and that connection should find this
    /// handler on the stack rather than spawn another.
    fn handle(&self, mut task: T) {
        loop {
            (self.run)(&task);
            let (handoff, next) = mpsc::channel();
            let parked = {
                let mut idle = lock(&self.idle);
                let open = !idle.closed && idle.parked.len() < MAX_IDLE_HANDLERS;
                if open {
                    idle.parked.push(handoff);
                }
                open
            };
            drop(task);
            if !parked {
                return;
            }
            // Ends in an error once `close` drops the sender.
            match next.recv() {
                Ok(t) => task = t,
                Err(_) => return,
            }
        }
    }

    /// Closes the stack and releases every parked handler; a handler
    /// that finishes later exits instead of parking.
    fn close(&self) {
        let mut idle = lock(&self.idle);
        idle.closed = true;
        idle.parked.clear();
    }
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

/// Serves the one request of a connection. One socket does both
/// directions: reads go through a `BufReader` over `&TcpStream` and the
/// response is written on `&TcpStream`, so no descriptor is duplicated.
fn handle_connection(
    svc: &Service,
    stream: &TcpStream,
    gauge: &Arc<AtomicUsize>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
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
    w: &mut &TcpStream,
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

fn submit(svc: &Service, req: &HttpRequest, w: &mut &TcpStream) -> std::io::Result<()> {
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
            svc.settle(&job, joined, |outcome| finish(w, &key, status, outcome))
        }
        Submission::Refused(err) => {
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
    w: &mut &TcpStream,
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

    use std::cell::RefCell;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    const PATIENCE: Duration = Duration::from_secs(10);

    /// Polls `done` until it holds, failing after [`PATIENCE`].
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + PATIENCE;
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn parked<T, F>(pool: &Handlers<T, F>) -> usize {
        lock(&pool.idle).parked.len()
    }

    /// Held by a handler thread from its first task until it exits:
    /// the count it was registered on is the number of live handlers.
    struct Live(Arc<AtomicUsize>);

    impl Drop for Live {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static LIVE: RefCell<Option<Live>> = const { RefCell::new(None) };
    }

    fn register(live: &Arc<AtomicUsize>) {
        LIVE.with(|slot| {
            slot.borrow_mut().get_or_insert_with(|| {
                live.fetch_add(1, Ordering::SeqCst);
                Live(Arc::clone(live))
            });
        });
    }

    #[test]
    fn serial_connections_run_on_the_most_recently_idle_handler() {
        let (tx, rx) = mpsc::channel();
        let pool = Handlers::new(move |(i, gate): &(usize, Option<Arc<Barrier>>)| {
            tx.send((*i, std::thread::current().id())).unwrap();
            if let Some(gate) = gate {
                gate.wait();
            }
        });
        // Two handlers parked first, so the one taken each time shows.
        let both = Arc::new(Barrier::new(2));
        pool.dispatch((100, Some(Arc::clone(&both))));
        pool.dispatch((101, Some(both)));
        let warmup = [rx.recv_timeout(PATIENCE), rx.recv_timeout(PATIENCE)];
        assert!(warmup.iter().all(Result::is_ok));
        eventually("both handlers park", || parked(&pool) == 2);
        let mut ran_on = Vec::new();
        for i in 0..8 {
            pool.dispatch((i, None));
            let (j, id) = rx.recv_timeout(PATIENCE).expect("the task ran");
            assert_eq!(i, j);
            ran_on.push(id);
            eventually("the handler parks again", || parked(&pool) == 2);
        }
        assert_ne!(ran_on[0], std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == ran_on[0]), "{ran_on:?}");
        pool.close();
    }

    /// Signals when it is dropped.
    struct Dropped(mpsc::Sender<()>);

    impl Drop for Dropped {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    #[test]
    fn a_finished_task_is_dropped_after_its_handler_parks() {
        let pool = Handlers::new(|_: &Dropped| {});
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            pool.dispatch(Dropped(tx.clone()));
            rx.recv_timeout(PATIENCE).expect("the task ends");
            assert_eq!(parked(&pool), 1, "parked before its task was dropped");
        }
        pool.close();
    }

    #[test]
    fn a_busy_handler_is_never_waited_for() {
        let (tx, rx) = mpsc::channel::<ThreadId>();
        let pool = Handlers::new(move |gate: &Option<Arc<Barrier>>| {
            tx.send(std::thread::current().id()).unwrap();
            if let Some(gate) = gate {
                gate.wait();
            }
        });
        pool.dispatch(None);
        let first = rx.recv_timeout(PATIENCE).unwrap();
        eventually("the handler parks", || parked(&pool) == 1);
        // The parked handler takes the blocking task; the next task must
        // start while it is still blocked, on another thread.
        let gate = Arc::new(Barrier::new(2));
        pool.dispatch(Some(Arc::clone(&gate)));
        assert_eq!(rx.recv_timeout(PATIENCE).unwrap(), first);
        pool.dispatch(None);
        let second = rx
            .recv_timeout(PATIENCE)
            .expect("started while the first handler is blocked");
        assert_ne!(second, first);
        gate.wait();
        eventually("both handlers park", || parked(&pool) == 2);
        pool.close();
    }

    #[test]
    fn the_idle_stack_is_capped_after_a_wider_burst() {
        let width = MAX_IDLE_HANDLERS + 8;
        let live = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&live);
        let pool = Handlers::new(move |all: &Arc<Barrier>| {
            register(&count);
            all.wait();
        });
        // Every task waits for all the others: `width` threads at once.
        let all = Arc::new(Barrier::new(width));
        for _ in 0..width {
            pool.dispatch(Arc::clone(&all));
        }
        eventually("the burst ends", || {
            assert!(parked(&pool) <= MAX_IDLE_HANDLERS);
            live.load(Ordering::SeqCst) == MAX_IDLE_HANDLERS && parked(&pool) == MAX_IDLE_HANDLERS
        });
        pool.close();
        eventually("the parked handlers exit", || {
            live.load(Ordering::SeqCst) == 0
        });
    }

    #[test]
    fn shutdown_releases_parked_handlers_and_a_late_one_does_not_park() {
        let live = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&live);
        let pool = Handlers::new(move |gate: &Arc<Barrier>| {
            register(&count);
            gate.wait();
        });
        let three = Arc::new(Barrier::new(3));
        for _ in 0..3 {
            pool.dispatch(Arc::clone(&three));
        }
        eventually("three handlers park", || parked(&pool) == 3);
        // One of them takes a task that outlives the shutdown.
        let late = Arc::new(Barrier::new(2));
        pool.dispatch(Arc::clone(&late));
        assert_eq!(parked(&pool), 2);
        pool.close();
        eventually("the parked handlers exit", || {
            live.load(Ordering::SeqCst) == 1
        });
        late.wait();
        eventually("the late handler exits", || {
            live.load(Ordering::SeqCst) == 0
        });
        let idle = lock(&pool.idle);
        assert!(idle.closed && idle.parked.is_empty());
    }

    #[test]
    fn a_failed_handoff_gives_the_connection_to_a_fresh_handler() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let pool = Handlers::new(move |_: &OpenConnection| {
            tx.send(std::thread::current().id()).unwrap();
        });
        // A parked handler whose receiving end is gone.
        let (dead, gone) = mpsc::channel();
        drop(gone);
        lock(&pool.idle).parked.push(dead);
        pool.dispatch(OpenConnection::count(&gauge));
        let ran_on = rx.recv_timeout(PATIENCE).expect("a fresh handler ran it");
        assert_ne!(ran_on, std::thread::current().id());
        eventually("the count comes back", || gauge.load(Ordering::SeqCst) == 0);
        assert_eq!(parked(&pool), 1, "the fresh handler parks");
        pool.close();
    }

    /// Threads in process `pid`.
    #[cfg(target_os = "linux")]
    fn threads(pid: u32) -> usize {
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("/proc/<pid>/task");
        tasks.count()
    }

    /// The server of `a_soaked_server_keeps_its_thread_bound`, alone in a
    /// process of its own: that test re-runs this binary for it. Run any
    /// other way, it returns at once.
    #[cfg(target_os = "linux")]
    #[test]
    #[ignore = "the server process a_soaked_server_keeps_its_thread_bound starts"]
    fn a_server_in_a_process_of_its_own() {
        let parent =
            std::fs::read_link(format!("/proc/{}/exe", std::os::unix::process::parent_id()));
        if parent.ok() != std::env::current_exe().ok() {
            return;
        }
        let harness = threads(std::process::id());
        let dir = std::env::temp_dir().join(format!("apserve-soak-{}", std::process::id()));
        let cfg = Config {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 1,
            cache_entries: 64,
            cache_dir: Some(dir.clone()),
            ..Config::default()
        };
        let handle = serve(cfg, Arc::new(|_| Ok("{}".to_string()))).expect("bind server");
        println!("listening {} with {harness} threads before it", handle.addr);
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `repro serve` process is its main thread, the accept loop and at
    /// most [`MAX_IDLE_HANDLERS`] parked handlers once a burst wider than
    /// the cap and a hundred serial jobs are answered. The server runs in
    /// a child process, so the count is every thread it has.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_soaked_server_keeps_its_thread_bound() {
        use std::io::{BufRead, Write};
        use std::process::{Command, Stdio};

        let mut child = Command::new(std::env::current_exe().unwrap())
            .args(["server::tests::a_server_in_a_process_of_its_own", "--exact"])
            .args(["--ignored", "--nocapture", "--test-threads=1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("re-run this test binary");
        // The harness may print the test's name on the same line first.
        let lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let mut bind = lines.map_while(Result::ok).filter_map(|l| {
            let words = l.split_once("listening ")?.1.to_string();
            Some(words.split(' ').map(str::to_string).collect::<Vec<_>>())
        });
        let words = bind.next().expect("the server's address");
        let (addr, harness) = (words[0].as_str(), words[2].parse::<usize>().unwrap());

        // Every connection is open before any request is sent, so each
        // one holds a handler of its own.
        let burst: Vec<TcpStream> = (0..MAX_IDLE_HANDLERS + 8)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        for mut conn in burst {
            conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut answer = Vec::new();
            conn.read_to_end(&mut answer).unwrap();
            assert!(answer.starts_with(b"HTTP/1.1 200"));
        }
        let job = r#"{"kind":"bench","apps":["EP"],"scale":"test"}"#;
        for i in 0..100 {
            let answer = crate::client::submit(addr, job).unwrap();
            assert_eq!(answer.status, 200, "job {i}: {}", answer.body_str());
        }
        let stats = crate::client::get(addr, "/stats").unwrap();
        let stats = Json::parse(&stats.body_str()).unwrap();
        for gauge in ["in_flight", "queue_depth"] {
            let value = stats.get("gauges").and_then(|g| g.get(gauge));
            assert_eq!(value.and_then(Json::as_u64), Some(0), "{gauge}");
        }

        // Of the `harness` threads the child had before the server, one
        // started it, as `repro serve`'s main thread does.
        let bound = 2 + MAX_IDLE_HANDLERS;
        eventually("the handlers past the cap exit", || {
            let as_repro_serve = threads(child.id()) + 1 - harness;
            as_repro_serve <= bound
        });
        drop(child.stdin.take());
        assert!(child.wait().unwrap().success());
    }
}
