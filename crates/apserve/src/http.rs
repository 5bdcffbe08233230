//! Minimal HTTP/1.1 machinery over `std::net` — no external crates.
//!
//! The server speaks the smallest useful subset of HTTP/1.1:
//! `Connection: close` on every exchange (one request per connection, so
//! file descriptors cannot pile up behind idle keep-alives), explicit
//! `Content-Length` bodies, and hard input limits. Every limit violation
//! is a structured [`HttpError`] that the serving layer renders as a
//! JSON error document — a hostile or confused client gets a diagnosis,
//! never a panic, a hang, or unbounded memory growth.
//!
//! A response leaves in one write: [`write_response`] formats the head
//! into the buffer that then takes the body, so a message costs one
//! `send(2)` however many headers it carries, as an AP1000+ message is
//! one MSC+ command however its header and payload are laid out.

use std::io::{BufRead, Write};

/// Largest accepted request body, in bytes. Requests are small JSON
/// documents; a megabyte is already two orders of magnitude of headroom.
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Largest accepted request line or single header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8 << 10;
/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 64;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    pub method: String,
    /// Path exactly as sent (no query-string splitting; the API does not
    /// use queries).
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to one HTTP status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or length field (HTTP 400).
    BadRequest(String),
    /// Body longer than [`MAX_BODY_BYTES`] (HTTP 413).
    TooLarge { declared: usize, limit: usize },
    /// Socket error or timeout mid-request.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Io(m) => write!(f, "i/o: {m}"),
        }
    }
}

pub(crate) fn read_line(r: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = std::io::Read::read(r, &mut byte).map_err(|e| HttpError::Io(e.to_string()))?;
        if n == 0 {
            return Err(HttpError::Io("connection closed mid-line".into()));
        }
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::BadRequest(format!(
                "line exceeds the {MAX_LINE_BYTES}-byte limit"
            )));
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::BadRequest("line is not UTF-8".into()))
}

/// Reads header lines up to the blank line that ends them, names
/// lowercased: at most [`MAX_HEADERS`] lines of at most
/// [`MAX_LINE_BYTES`] each.
pub(crate) fn read_headers(r: &mut impl BufRead) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::BadRequest(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header '{line}'")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// The body length `headers` declare. RFC 9112 §6.3: the value is
/// `1*DIGIT`, and repeated `Content-Length` fields must agree; anything
/// else is unframeable and is refused rather than guessed at.
pub(crate) fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut values = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let Some(len) = values.next() else {
        return Ok(None);
    };
    if let Some(other) = values.find(|v| *v != len) {
        return Err(HttpError::BadRequest(format!(
            "conflicting Content-Length values '{len}' and '{other}'"
        )));
    }
    if len.is_empty() || !len.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::BadRequest(format!(
            "Content-Length is not a number: '{len}'"
        )));
    }
    len.parse()
        .map(Some)
        .map_err(|_| HttpError::BadRequest(format!("Content-Length is out of range: '{len}'")))
}

/// Reads one complete request (request line, headers, `Content-Length`
/// body) off the stream.
pub fn read_request(r: &mut impl BufRead) -> Result<HttpRequest, HttpError> {
    let request_line = read_line(r)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line '{request_line}'"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol '{version}'"
        )));
    }
    let mut req = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        headers: read_headers(r)?,
        body: Vec::new(),
    };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "chunked request bodies are not supported; send Content-Length".into(),
        ));
    }
    if let Some(declared) = content_length(&req.headers)? {
        if declared > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge {
                declared,
                limit: MAX_BODY_BYTES,
            });
        }
        let mut body = vec![0u8; declared];
        std::io::Read::read_exact(r, &mut body).map_err(|e| HttpError::Io(e.to_string()))?;
        req.body = body;
    }
    Ok(req)
}

/// A JSON response about to be written. `Content-Type:
/// application/json` and `Connection: close` are implied, and
/// `Content-Length` is the body's: every answer the server gives is
/// length-delimited.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with no extra headers.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
        }
    }
}

/// The standard reason phrase for the handful of statuses the API uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes `resp` (with `Content-Length`) onto the stream in one
/// `write_all`: status line, fixed headers, `resp.headers` in order, the
/// blank line and the body are assembled in one buffer first, so the
/// message is one `send(2)` rather than one per formatted piece.
pub fn write_response(w: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    // The head is about 100 bytes plus the extra headers (`X-Cache` and
    // `X-Key` add about 45), so the body is appended without a regrow.
    let mut msg = Vec::with_capacity(256 + resp.body.len());
    write!(
        msg,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        reason(resp.status),
        resp.body.len()
    )?;
    for (k, v) in &resp.headers {
        write!(msg, "{k}: {v}\r\n")?;
    }
    msg.extend_from_slice(b"\r\n");
    msg.extend_from_slice(&resp.body);
    w.write_all(&msg)?;
    w.flush()
}

/// A sink that records every `write` call it gets, for tests that pin
/// how many pieces a message leaves in.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    pub(crate) writes: usize,
    pub(crate) bytes: Vec<u8>,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<HttpRequest, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"rest")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/submit");
        assert_eq!(req.body, b"{\"a\"");
        assert_eq!(req.header("HOST"), Some("x"));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(
            parse(b"GARBAGE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies_and_bad_lengths() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(HttpError::TooLarge { .. })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn content_length_is_digits_and_repeats_must_agree() {
        for raw in [
            &b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"[..],
            b"POST / HTTP/1.1\r\nContent-Length: -0\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 5 5\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nContent-Length: 0x5\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 4\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 05\r\n\r\nhello",
        ] {
            let text = String::from_utf8_lossy(raw);
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{text}"
            );
        }
        let req = parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nCONTENT-LENGTH: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(req.body, b"hello");
        let req = parse(b"POST / HTTP/1.1\r\nContent-Length: 007\r\n\r\npayload").unwrap();
        assert_eq!(req.body, b"payload");
    }

    #[test]
    fn rejects_header_floods() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            raw.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&raw), Err(HttpError::BadRequest(_))));
        let long = format!(
            "GET / HTTP/1.1\r\nh: {}\r\n\r\n",
            "x".repeat(MAX_LINE_BYTES)
        );
        assert!(matches!(
            parse(long.as_bytes()),
            Err(HttpError::BadRequest(_))
        ));
    }

    /// Every status in [`reason`]'s table.
    const STATUSES: [u16; 10] = [200, 400, 404, 405, 413, 422, 429, 500, 503, 504];

    fn written(resp: &Response) -> CountingWriter {
        let mut out = CountingWriter::default();
        write_response(&mut out, resp).unwrap();
        out
    }

    #[test]
    fn a_response_is_one_write() {
        for status in STATUSES {
            let mut resp = Response::json(status, r#"{"k":1}"#);
            assert_eq!(written(&resp).writes, 1, "{status}, no extra headers");
            resp.headers.push(("X-Cache".into(), "hit".into()));
            resp.headers.push(("X-Key".into(), "00ff".into()));
            assert_eq!(written(&resp).writes, 1, "{status}, two extra headers");
        }
    }

    #[test]
    fn response_bytes_are_pinned() {
        let mut hit = Response::json(200, r#"{"schema":"ap1000plus.bench"}"#);
        hit.headers.push(("X-Cache".into(), "hit".into()));
        hit.headers
            .push(("X-Key".into(), "0123456789abcdef".into()));
        assert_eq!(
            String::from_utf8(written(&hit).bytes).unwrap(),
            "HTTP/1.1 200 OK\r\n\
             Content-Type: application/json\r\n\
             Content-Length: 29\r\n\
             Connection: close\r\n\
             X-Cache: hit\r\n\
             X-Key: 0123456789abcdef\r\n\
             \r\n\
             {\"schema\":\"ap1000plus.bench\"}"
        );
        let mut full = Response::json(429, r#"{"error":"queue_full"}"#);
        full.headers.push(("Retry-After".into(), "1".into()));
        assert_eq!(
            String::from_utf8(written(&full).bytes).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\n\
             Content-Type: application/json\r\n\
             Content-Length: 22\r\n\
             Connection: close\r\n\
             Retry-After: 1\r\n\
             \r\n\
             {\"error\":\"queue_full\"}"
        );
    }
}
