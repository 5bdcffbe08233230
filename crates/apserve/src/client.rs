//! A minimal blocking HTTP client for talking to an apserve server —
//! used by `repro submit`, the integration suite, and CI smoke jobs.

use crate::http::{content_length, read_headers, read_line, HttpError};
use crate::worker::MAX_RESULT_BYTES;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long the client waits for a connect or a read before giving up.
/// Generous: a cold `paper`-scale job runs for a while before its
/// response lands.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(600);

/// A complete response: status line code, headers (names lowercased),
/// body bytes.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Renders an error met reading a response. The parsers it shares with
/// the server call a malformed line, header or length a `BadRequest`; on
/// this side the response is what is malformed.
fn malformed(e: HttpError) -> String {
    match e {
        HttpError::BadRequest(what) => format!("malformed response: {what}"),
        other => format!("read response: {other}"),
    }
}

/// Reads one response with the server's own input bounds: lines and
/// headers as [`read_line`] and [`read_headers`] bound them, and a body
/// no longer than the largest report a server sends
/// ([`MAX_RESULT_BYTES`]), so a hostile peer earns an `Err`, not an
/// allocation of whatever length it names.
fn read_response(stream: TcpStream) -> Result<HttpResponse, String> {
    let mut r = BufReader::new(stream);
    let status_line = read_line(&mut r).map_err(malformed)?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line '{status_line}'"))?;
    let headers = read_headers(&mut r).map_err(malformed)?;
    // Every server answer is length-delimited; a body that only the
    // connection close would end is a protocol error.
    let n = content_length(&headers)
        .map_err(malformed)?
        .ok_or("response without a Content-Length")?;
    if n > MAX_RESULT_BYTES {
        return Err(format!(
            "response body of {n} bytes exceeds the {MAX_RESULT_BYTES}-byte limit"
        ));
    }
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// One request/response exchange (the server closes after each). A
/// write error does not end the exchange: a server that rejects a request
/// early (413) answers and closes before the body is fully sent, so a
/// parsed response wins over a write error.
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let sent = write_request(&mut stream, addr, method, path, body)
        .map_err(|e| format!("write request: {e}"));
    read_response(stream).map_err(|read_err| sent.err().unwrap_or(read_err))
}

/// Sends the request head and body in one `write_all`, as the server
/// sends its responses.
fn write_request(
    w: &mut impl Write,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut msg = Vec::with_capacity(96 + addr.len() + path.len() + body.len());
    write!(
        msg,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    msg.extend_from_slice(body);
    w.write_all(&msg)
}

/// `GET path`.
pub fn get(addr: &str, path: &str) -> Result<HttpResponse, String> {
    request(addr, "GET", path, b"")
}

/// `POST /submit` with a JSON job document.
pub fn submit(addr: &str, job_json: &str) -> Result<HttpResponse, String> {
    request(addr, "POST", "/submit", job_json.as_bytes())
}

/// [`submit`] that waits out `429` backpressure up to `retries` times,
/// honouring the server's `Retry-After` header with capped exponential
/// backoff; `on_retry(attempt, delay_ms)` runs before each wait. Only 429
/// retries — a structural error would just fail again, and a 5xx may not
/// be idempotent to wait out.
pub fn submit_with_retry(
    addr: &str,
    job_json: &str,
    retries: u32,
    mut on_retry: impl FnMut(u32, u64),
) -> Result<HttpResponse, String> {
    let mut attempt: u32 = 0;
    loop {
        let resp = submit(addr, job_json)?;
        if resp.status != 429 || attempt >= retries {
            return Ok(resp);
        }
        attempt += 1;
        let after_secs: u64 = resp
            .header("retry-after")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        let delay_ms = after_secs
            .saturating_mul(1000)
            .saturating_mul(1u64 << (attempt - 1).min(10))
            .min(10_000);
        on_retry(attempt, delay_ms);
        std::thread::sleep(Duration::from_millis(delay_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{CountingWriter, MAX_HEADERS, MAX_LINE_BYTES};
    use std::net::TcpListener;

    /// A peer on a local port that reads one request, answers `reply`
    /// and closes.
    fn stub(reply: Vec<u8>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = crate::http::read_request(&mut BufReader::new(&conn));
            let _ = conn.write_all(&reply);
        });
        (addr, peer)
    }

    #[test]
    fn a_hostile_response_is_a_structured_error() {
        let flood: String = (0..=MAX_HEADERS).map(|i| format!("x-{i}: y\r\n")).collect();
        for (reply, expected) in [
            (
                "HTTP/1.1 200 OK\r\nContent-Length: 1125899906842624\r\n\r\n".to_string(),
                "response body of 1125899906842624 bytes exceeds the",
            ),
            (
                "HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n".to_string(),
                "Content-Length is not a number: 'lots'",
            ),
            (
                format!("HTTP/1.1 200 {}\r\n\r\n", "x".repeat(MAX_LINE_BYTES)),
                "line exceeds the 8192-byte limit",
            ),
            (
                format!("HTTP/1.1 200 OK\r\n{flood}\r\n"),
                "more than 64 header lines",
            ),
            (
                "HTTP/1.1 200 OK\r\n\r\n".to_string(),
                "response without a Content-Length",
            ),
        ] {
            let (addr, peer) = stub(reply.into_bytes());
            let err = get(&addr, "/stats").unwrap_err();
            assert!(err.contains(expected), "{err}");
            peer.join().unwrap();
        }
        let (addr, peer) = stub(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}".to_vec());
        assert_eq!(get(&addr, "/stats").unwrap().body, b"{}");
        peer.join().unwrap();
    }

    #[test]
    fn a_request_is_one_write_with_pinned_bytes() {
        let mut out = CountingWriter::default();
        let job = br#"{"kind":"bench","apps":["EP"]}"#;
        write_request(&mut out, "127.0.0.1:8080", "POST", "/submit", job).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "POST /submit HTTP/1.1\r\n\
             Host: 127.0.0.1:8080\r\n\
             Content-Length: 30\r\n\
             Connection: close\r\n\
             \r\n\
             {\"kind\":\"bench\",\"apps\":[\"EP\"]}"
        );

        let mut out = CountingWriter::default();
        write_request(&mut out, "[::1]:9", "GET", "/stats", b"").unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "GET /stats HTTP/1.1\r\nHost: [::1]:9\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );
    }
}
