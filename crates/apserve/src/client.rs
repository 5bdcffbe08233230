//! A minimal blocking HTTP client for talking to an apserve server —
//! used by `repro submit`, the integration suite, and CI smoke jobs.

use std::io::{BufRead, BufReader, Read, Write};
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
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn read_response(stream: TcpStream) -> Result<HttpResponse, String> {
    let mut r = BufReader::new(stream);
    let mut status_line = String::new();
    r.read_line(&mut status_line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line '{}'", status_line.trim_end()))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        r.read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut body = vec![0u8; n];
            r.read_exact(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
            body
        }
        None => {
            // Streamed response: read to connection close.
            let mut body = Vec::new();
            r.read_to_end(&mut body)
                .map_err(|e| format!("read stream: {e}"))?;
            body
        }
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Connects and writes one request. A write error is handed back next
/// to the stream instead of ending the exchange: a server that rejects
/// a request early (413) answers and closes before the body is fully
/// sent, and the caller should still read that answer.
fn send_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(TcpStream, Result<(), String>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let sent = write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .map_err(|e| format!("write request: {e}"))
    .and_then(|()| {
        stream
            .write_all(body)
            .map_err(|e| format!("write body: {e}"))
    });
    Ok((stream, sent))
}

/// One request/response exchange (the server closes after each). A
/// parsed response wins over a write error.
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
    let (stream, sent) = send_request(addr, method, path, body)?;
    read_response(stream).map_err(|read_err| sent.err().unwrap_or(read_err))
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

/// `POST /submit` for a streaming job: invokes `on_line` for every
/// NDJSON line as it arrives (progress lines first, the report last)
/// and returns the final line.
pub fn submit_stream(
    addr: &str,
    job_json: &str,
    mut on_line: impl FnMut(&str),
) -> Result<String, String> {
    let (stream, sent) = send_request(addr, "POST", "/submit", job_json.as_bytes())?;
    let mut r = BufReader::new(stream);
    // Skip the status line and headers.
    let mut status = String::new();
    let got = r.read_line(&mut status).map_err(|e| e.to_string());
    if let Err(write_err) = sent {
        if !matches!(got, Ok(n) if n > 0) {
            return Err(write_err);
        }
    }
    got?;
    if !status.contains("200") {
        return Err(format!("stream refused: {}", status.trim_end()));
    }
    loop {
        let mut line = String::new();
        r.read_line(&mut line).map_err(|e| e.to_string())?;
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut last = String::new();
    loop {
        let mut line = String::new();
        let n = r.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        let line = line.trim_end().to_string();
        if line.is_empty() {
            continue;
        }
        on_line(&line);
        last = line;
    }
    if last.is_empty() {
        return Err("stream ended with no report line".to_string());
    }
    Ok(last)
}
