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

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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
