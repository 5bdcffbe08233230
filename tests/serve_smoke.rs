//! The job server seen from the root package: an in-process `apserve`
//! server with the real simulator executor, driven over raw sockets the
//! way a plain HTTP/1.1 client drives it.
//!
//! - every answer is length-delimited: `Content-Length` is its body;
//! - a cached answer's body is byte-identical to the cold one (cache
//!   status travels in `X-Cache`, never in the body);
//! - after the exchanges nothing is left open or running: `/stats`
//!   counts only its own connection, and no job is in flight;
//! - a disk tier that cannot be written (`cache_dir` names a regular
//!   file) is one `disk_write_failures` count, not an error: the job
//!   answers and the memory tier serves every resubmit.
//!
//! And the admission decision, through `apserve::client`:
//!
//! - two concurrent identical requests simulate exactly once (one
//!   `miss`, one `join`);
//! - with every execution slot and queue place taken, the next distinct
//!   job gets the structured 429 backpressure document.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use apserve::{client, serve, Config};
use aputil::Json;

/// The answer to one request on a fresh connection.
struct Answer {
    status: u16,
    head: String,
    body: Vec<u8>,
}

impl Answer {
    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// Sends `request`, reads until the server closes, and checks that the
/// answer's `Content-Length` is exactly the body that follows its head.
fn exchange(addr: &str, request: &[u8]) -> Answer {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    conn.write_all(request).unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("the answer, then EOF");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a header block");
    let head = String::from_utf8(raw[..split].to_vec()).expect("an ASCII head");
    let body = raw[split + 4..].to_vec();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("a status code");
    let answer = Answer { status, head, body };
    let length = answer.header("Content-Length").and_then(|v| v.parse().ok());
    assert_eq!(length, Some(answer.body.len()), "{}", answer.head);
    answer
}

#[test]
fn sixty_four_serial_exchanges_leave_nothing_open() {
    let file = std::env::temp_dir().join(format!("ap1000plus-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, b"a regular file").unwrap();
    let cfg = apserve::Config {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(file.clone()),
        ..apserve::Config::default()
    };
    let handle = apserve::serve(cfg, apbench::simulator_executor()).expect("bind server");
    let addr = handle.addr.to_string();

    let job = r#"{"kind":"bench","apps":["EP"],"scale":"test"}"#;
    let submit = format!(
        "POST /submit HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{job}",
        job.len()
    );
    let cold = exchange(&addr, submit.as_bytes());
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    assert_eq!(cold.header("X-Cache"), Some("miss"));
    for i in 1..64 {
        let hit = exchange(&addr, submit.as_bytes());
        assert_eq!(hit.status, 200, "exchange {i}");
        assert_eq!(hit.header("X-Cache"), Some("hit"), "exchange {i}");
        assert_eq!(hit.header("X-Key"), cold.header("X-Key"), "exchange {i}");
        assert!(hit.body == cold.body, "exchange {i}: the hit body differs");
    }

    let stats = exchange(&addr, b"GET /stats HTTP/1.1\r\n\r\n");
    assert_eq!(stats.status, 200);
    let doc = Json::parse(std::str::from_utf8(&stats.body).unwrap()).unwrap();
    let gauge = |name: &str| {
        doc.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("gauge {name} missing from {doc}"))
    };
    assert_eq!(gauge("open_connections"), 1, "only the /stats request");
    assert_eq!(gauge("in_flight"), 0);
    let cache = |name: &str| {
        doc.get("cache")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
    };
    assert_eq!(cache("hits"), Some(63));
    assert_eq!(cache("disk_write_failures"), Some(1));
    handle.shutdown();
    let _ = std::fs::remove_file(&file);
}

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
    // Occupy the single execution slot, then the single queue place, with
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
