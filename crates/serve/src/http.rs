//! A minimal HTTP/1.1 wire implementation over `std` I/O.
//!
//! Just enough of the protocol for the serving layer and its replay
//! client: GET requests with a query string and headers, keep-alive
//! connections, `Content-Length`-framed bodies, and pipelining (the
//! replay client writes whole batches before reading the responses
//! back, which is what makes a six-figure replay fast over a real
//! socket). No chunked encoding, no bodies on requests.
//!
//! Both directions keep a head as one buffer of wire text. A head —
//! request or status line plus header lines — is read into one buffer
//! and parsed in the same single pass over the reader's bytes, which
//! records where each header's name and value sit. Every lookup
//! (header, query key, method) then reads that buffer in place, without
//! allocating. A response under construction keeps its header lines as
//! the text they go out as, so each header is one append and
//! serializing is one write. Heads over [`MAX_HEAD_BYTES`] and bodies
//! over [`MAX_BODY_BYTES`] are refused as `InvalidData`.
//!
//! The resilience headers are part of the contract:
//!
//! * `X-Client` — the client's stable address, fed to the backing
//!   store's per-client token bucket;
//! * `X-Now-Ms` — the client's virtual clock, driving TTLs, breaker
//!   probation, and rate-limit refill deterministically;
//! * `X-Deadline-Ms` — the request's deadline budget (propagated);
//! * `X-Retry-After-Ms` / `Retry-After` — shed/throttle backpressure;
//! * `X-Degraded` — how a degraded response was degraded
//!   (`stale`, `deadline`, `panic`, ...);
//! * `X-Source` — where a 200 came from (`edge`, `backing`);
//! * `X-Virtual-Ms` — the deterministic virtual latency the request
//!   was charged;
//! * `X-Trace-Id` — the request's cross-tier trace identity: both the
//!   replay client and the server emit their timeline spans on the
//!   track this id names, which is what stitches client → queue →
//!   edge → backing into one Perfetto lane;
//! * `X-Parent-Span` — the client-side span name the server's request
//!   span records as its parent (an annotation, not control flow).

use bytes::Bytes;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, Write};
use std::ops::Range;

/// Longest head either side accepts: the request or status line plus
/// every header line, line endings included.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Largest `Content-Length` a response may declare.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Read and write buffer size of a serving connection and of the replay
/// client: a whole 64-request pipelined batch fits in one buffer.
pub(crate) const IO_BUFFER_BYTES: usize = 64 * 1024;

/// Where one header's name and value sit in a head's text.
type HeaderSpan = (Range<usize>, Range<usize>);

/// A parsed request: its head as received, in one buffer, plus where
/// the method, the query string and each header sit in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Path portion of the target, without the query string.
    pub path: String,
    /// Request line and header lines, the blank line excluded.
    head: String,
    method: Range<usize>,
    query: Range<usize>,
    headers: Vec<HeaderSpan>,
}

impl HttpRequest {
    /// Request method (the serving layer only routes GET).
    pub fn method(&self) -> &str {
        &self.head[self.method.clone()]
    }

    /// First value of query key `key`.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.head[self.query.clone()].split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (!pair.is_empty() && k == key).then_some(v)
        })
    }

    /// First value of query key `key`, parsed as `u64`.
    pub fn query_u64(&self, key: &str) -> Option<u64> {
        self.query_value(key)?.parse().ok()
    }

    /// Header value by (case-insensitive) name, trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.head, &self.headers, name)
    }

    /// Header value parsed as `u64`.
    pub fn header_u64(&self, name: &str) -> Option<u64> {
        self.header(name)?.parse().ok()
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, 429, 500, 503, 504, ...).
    pub status: u16,
    /// Header lines as wire text, `Name: value\r\n` each, in the order
    /// they were added (`Content-Length` is added on write).
    headers: String,
    /// Where each header's name and value sit in `headers`.
    spans: Vec<HeaderSpan>,
    /// Response body.
    pub body: Bytes,
}

impl HttpResponse {
    /// An empty-bodied response with the given status.
    pub fn new(status: u16) -> HttpResponse {
        HttpResponse {
            status,
            headers: String::with_capacity(64),
            spans: Vec::new(),
            body: Bytes::new(),
        }
    }

    /// Adds a header (builder style): one append of its wire line.
    pub fn with_header(mut self, name: &str, value: impl fmt::Display) -> HttpResponse {
        let start = self.headers.len();
        // Writing to a String cannot fail.
        let _ = write!(self.headers, "{name}: {value}\r\n");
        let name_end = start + name.len();
        self.spans
            .push((start..name_end, name_end + 2..self.headers.len() - 2));
        self
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: impl Into<Bytes>) -> HttpResponse {
        self.body = body.into();
        self
    }

    /// Header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, &self.spans, name)
    }

    /// Header value parsed as `u64`.
    pub fn header_u64(&self, name: &str) -> Option<u64> {
        self.header(name)?.trim().parse().ok()
    }

    /// Serializes the response, adding `Content-Length`: the head in
    /// one write, then the body.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\n{}Content-Length: {}\r\n\r\n",
            self.status,
            status_text(self.status),
            self.headers,
            self.body.len()
        )?;
        out.write_all(&self.body)
    }
}

/// Reason phrase for the status codes the serving layer emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Reads one request off a connection. `Ok(None)` is a clean EOF
/// (client closed a keep-alive connection); an error is a torn,
/// malformed or oversized request.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<HttpRequest>> {
    let Some(head) = read_head(reader)? else {
        return Ok(None);
    };
    let line = &head.text.as_bytes()[..head.line_end];
    let method = token(line, 0).ok_or_else(|| malformed("request line"))?;
    let target = token(line, method.end).ok_or_else(|| malformed("request line"))?;
    let (path, query) = match head.text[target.clone()].find('?') {
        Some(at) => (
            target.start..target.start + at,
            target.start + at + 1..target.end,
        ),
        None => (target.clone(), target.end..target.end),
    };
    Ok(Some(HttpRequest {
        path: head.text[path].to_string(),
        head: head.text,
        method,
        query,
        headers: head.headers,
    }))
}

/// Reads one response (status line, headers, `Content-Length` body).
pub fn read_response(reader: &mut impl BufRead) -> io::Result<HttpResponse> {
    let Some(Head {
        mut text,
        line_end,
        mut headers,
    }) = read_head(reader)?
    else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    };
    let line = &text.as_bytes()[..line_end];
    let status = token(line, 0)
        .and_then(|version| token(line, version.end))
        .and_then(|code| text[code].parse::<u16>().ok())
        .ok_or_else(|| malformed("status line"))?;
    let length: usize = find_header(&text, &headers, "content-length")
        .and_then(|value| value.parse().ok())
        .unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("Content-Length {length} over the {MAX_BODY_BYTES}-byte limit"),
        ));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    // What stays is the header lines, exactly as received.
    let shift = text.find('\n').map_or(text.len(), |at| at + 1);
    text.drain(..shift);
    for (name, value) in &mut headers {
        *name = name.start - shift..name.end - shift;
        *value = value.start - shift..value.end - shift;
    }
    Ok(HttpResponse {
        status,
        headers: text,
        spans: headers,
        body: Bytes::from(body),
    })
}

/// A head read off the wire, in one buffer.
struct Head {
    /// The start line and the header lines, the blank line excluded.
    text: String,
    /// End of the start line's content, its line ending excluded.
    line_end: usize,
    /// Where each header's trimmed name and value sit in `text`.
    headers: Vec<HeaderSpan>,
}

/// Reads one head — a start line, then header lines, through the blank
/// line that ends them — into one buffer, and parses it in the same
/// single pass over the reader's bytes: each line is copied once and
/// split once, and no byte past the blank line is consumed. Lines may
/// end in CRLF or a bare LF. `None` is a clean EOF before any byte.
fn read_head(reader: &mut impl BufRead) -> io::Result<Option<Head>> {
    let mut text = Vec::with_capacity(256);
    let mut headers = Vec::with_capacity(8);
    let mut line_start = 0;
    let mut line_end = None;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return if text.is_empty() {
                Ok(None)
            } else {
                Err(malformed("head: truncated"))
            };
        }
        let mut used = 0;
        let mut ended = false;
        while let Some(at) = chunk[used..].iter().position(|&b| b == b'\n') {
            append(&mut text, &chunk[used..=used + at])?;
            used += at + 1;
            let end = line_start + text[line_start..].trim_ascii_end().len();
            if end == line_start {
                text.truncate(line_start);
                ended = true;
                break;
            }
            if line_end.is_none() {
                line_end = Some(end);
            } else {
                let colon = text[line_start..end]
                    .iter()
                    .position(|&b| b == b':')
                    .ok_or_else(|| malformed("header"))?;
                headers.push((
                    trimmed(&text, line_start..line_start + colon),
                    trimmed(&text, line_start + colon + 1..end),
                ));
            }
            line_start = text.len();
        }
        if !ended {
            append(&mut text, &chunk[used..])?;
            used = chunk.len();
        }
        reader.consume(used);
        if ended {
            break;
        }
    }
    let line_end = line_end.ok_or_else(|| malformed("start line"))?;
    let text = String::from_utf8(text).map_err(|_| malformed("head: not UTF-8"))?;
    Ok(Some(Head {
        text,
        line_end,
        headers,
    }))
}

/// Appends `bytes` to a head under construction, refusing to grow it
/// past [`MAX_HEAD_BYTES`].
fn append(head: &mut Vec<u8>, bytes: &[u8]) -> io::Result<()> {
    if head.len() + bytes.len() > MAX_HEAD_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("head over the {MAX_HEAD_BYTES}-byte limit"),
        ));
    }
    head.extend_from_slice(bytes);
    Ok(())
}

/// `span` of `text` without its leading and trailing ASCII whitespace.
fn trimmed(text: &[u8], span: Range<usize>) -> Range<usize> {
    let inner = text[span.clone()].trim_ascii_start();
    let start = span.end - inner.len();
    start..start + inner.trim_ascii_end().len()
}

/// The span of the first whitespace-delimited token of `line` at or
/// after `from`.
fn token(line: &[u8], from: usize) -> Option<Range<usize>> {
    let start = from
        + line
            .get(from..)?
            .iter()
            .position(|b| !b.is_ascii_whitespace())?;
    let end = line[start..]
        .iter()
        .position(u8::is_ascii_whitespace)
        .map_or(line.len(), |len| start + len);
    Some(start..end)
}

/// The value of the first header in `spans` whose name is `name`,
/// compared ASCII case-insensitively.
fn find_header<'a>(text: &'a str, spans: &[HeaderSpan], name: &str) -> Option<&'a str> {
    spans
        .iter()
        .find(|(key, _)| text[key.clone()].eq_ignore_ascii_case(name))
        .map(|(_, value)| &text[value.clone()])
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trip() {
        let raw = b"GET /app?id=42&day=3 HTTP/1.1\r\nX-Client: 7\r\nX-Now-Ms: 1500\r\n\r\n";
        let request = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(request.method(), "GET");
        assert_eq!(request.path, "/app");
        assert_eq!(request.query_u64("id"), Some(42));
        assert_eq!(request.query_u64("day"), Some(3));
        assert_eq!(request.header_u64("x-client"), Some(7));
        assert_eq!(request.header_u64("X-Now-Ms"), Some(1500));
        assert_eq!(request.header("missing"), None);
    }

    #[test]
    fn eof_is_a_clean_none() {
        let raw: &[u8] = b"";
        assert!(read_request(&mut BufReader::new(raw)).unwrap().is_none());
    }

    #[test]
    fn response_round_trip() {
        let response = HttpResponse::new(503)
            .with_header("Retry-After", 2)
            .with_header("X-Retry-After-Ms", 1500)
            .with_body("shed".to_string());
        let mut wire = Vec::new();
        response.write_to(&mut wire).unwrap();
        let parsed = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(parsed.status, 503);
        assert_eq!(parsed.header_u64("x-retry-after-ms"), Some(1500));
        assert_eq!(parsed.body, Bytes::from(b"shed".to_vec()));
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec();
        let mut reader = BufReader::new(raw.as_slice());
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/a");
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/b");
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    /// Three pipelined requests in the replay client's shape, one with
    /// a bare-LF header line.
    const PIPELINED: &[u8] = b"GET /app?id=7 HTTP/1.1\r\nX-Client: 3\r\nX-Now-Ms: 5\r\n\
        X-Deadline-Ms: 1000\r\nX-Trace-Id: 12\r\nX-Parent-Span: client-12\r\n\r\n\
        GET /rankings HTTP/1.1\r\nX-Client: 0\nX-Now-Ms: 10\r\n\r\n\
        GET /download?app=7 HTTP/1.1\r\n\r\n";

    fn read_all(reader: &mut impl BufRead) -> Vec<HttpRequest> {
        std::iter::from_fn(|| read_request(reader).unwrap()).collect()
    }

    #[test]
    fn heads_straddling_buffer_refills_parse_like_whole_ones() {
        let whole = read_all(&mut BufReader::with_capacity(IO_BUFFER_BYTES, PIPELINED));
        assert_eq!(whole.len(), 3);
        assert_eq!(whole[0].header("x-parent-span"), Some("client-12"));
        assert_eq!(whole[1].header_u64("x-now-ms"), Some(10));
        assert_eq!(whole[2].query_u64("app"), Some(7));
        for capacity in [1, 2, 7, 13] {
            let small = read_all(&mut BufReader::with_capacity(capacity, PIPELINED));
            assert_eq!(small, whole, "capacity {capacity}");
        }
    }

    #[test]
    fn header_lookup_is_case_insensitive_and_trims_values() {
        let raw = b"GET / HTTP/1.1\r\nX-Degraded:   stale  \r\nx-source:edge\r\n\r\n";
        let request = read_request(&mut &raw[..]).unwrap().unwrap();
        for name in ["X-Degraded", "x-degraded", "X-DEGRADED"] {
            assert_eq!(request.header(name), Some("stale"));
        }
        assert_eq!(request.header("X-Source"), Some("edge"));
        assert_eq!(request.header("x-sourc"), None);
        let response = HttpResponse::new(200).with_header("X-Virtual-Ms", 81);
        assert_eq!(response.header_u64("x-virtual-ms"), Some(81));
        assert_eq!(response.header("X-VIRTUAL-MS"), Some("81"));
    }

    #[test]
    fn bare_lf_line_endings_parse() {
        let raw = b"GET /app?id=9 HTTP/1.1\nX-Client: 4\nX-Now-Ms: 77\n\n";
        let request = read_request(&mut &raw[..]).unwrap().unwrap();
        assert_eq!((request.method(), request.path.as_str()), ("GET", "/app"));
        assert_eq!(request.query_u64("id"), Some(9));
        assert_eq!(request.header_u64("x-now-ms"), Some(77));
        let raw = b"HTTP/1.1 200 OK\nX-Source: edge\nContent-Length: 2\n\nok";
        let response = read_response(&mut &raw[..]).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("x-source"), Some("edge"));
        assert_eq!(response.body, Bytes::from(b"ok".to_vec()));
    }

    #[test]
    fn truncated_heads_are_errors_and_clean_eof_is_none() {
        assert!(read_request(&mut &b""[..]).unwrap().is_none());
        for torn in [
            &b"GET /app HTTP/1.1"[..],
            b"GET /app HTTP/1.1\r\n",
            b"GET /app HTTP/1.1\r\nX-Client: 1\r\n",
        ] {
            assert!(read_request(&mut &torn[..]).is_err(), "{torn:?}");
        }
        let error = read_response(&mut &b""[..]).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
        assert!(read_response(&mut &b"HTTP/1.1 200 OK\r\n"[..]).is_err());
        let short_body = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc";
        assert!(read_response(&mut &short_body[..]).is_err());
        for malformed in [
            &b"GET\r\n\r\n"[..],
            b"\r\n\r\n",
            b"GET / HTTP/1.1\r\nno colon\r\n\r\n",
        ] {
            let error = read_request(&mut &malformed[..]).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{malformed:?}");
        }
    }

    #[test]
    fn oversized_heads_and_bodies_are_refused() {
        let mut huge = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        huge.resize(MAX_HEAD_BYTES + 1, b'a');
        huge.extend_from_slice(b"\r\n\r\n");
        let error = read_request(&mut BufReader::new(huge.as_slice())).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        // A header line that never ends is refused once it passes the
        // limit, not buffered without bound.
        let endless = io::Read::take(io::repeat(b'a'), 4 * MAX_HEAD_BYTES as u64);
        let mut reader =
            BufReader::new(io::Read::chain(&b"GET / HTTP/1.1\r\nX-Pad: "[..], endless));
        let error = read_request(&mut reader).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        let claims = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let error = read_response(&mut claims.as_bytes()).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        // Exactly at the limits is fine.
        let mut limit = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        limit.resize(MAX_HEAD_BYTES - 4, b'a');
        limit.extend_from_slice(b"\r\n\r\n");
        assert!(read_request(&mut limit.as_slice()).unwrap().is_some());
    }

    fn wire(response: &HttpResponse) -> String {
        let mut out = Vec::new();
        response.write_to(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// The server's responses, byte for byte as the serializer wrote
    /// them before heads were kept as wire text.
    #[test]
    fn wire_bytes_of_served_responses_are_pinned() {
        let edge_page = HttpResponse::new(200)
            .with_header("X-Source", "edge")
            .with_body(b"{\"AppPage\":{}}".to_vec())
            .with_header("X-Virtual-Ms", 1u64);
        assert_eq!(
            wire(&edge_page),
            "HTTP/1.1 200 OK\r\nX-Source: edge\r\nX-Virtual-Ms: 1\r\nContent-Length: 14\r\n\r\n{\"AppPage\":{}}"
        );
        let shed = |status: u16, reason: &str, retry_after_ms: u64| {
            HttpResponse::new(status)
                .with_header("X-Degraded", reason)
                .with_header("Retry-After", retry_after_ms.div_ceil(1_000).max(1))
                .with_header("X-Retry-After-Ms", retry_after_ms.max(1))
        };
        assert_eq!(
            wire(&shed(503, "breaker-open", 1_500).with_header("X-Virtual-Ms", 81u64)),
            "HTTP/1.1 503 Service Unavailable\r\nX-Degraded: breaker-open\r\nRetry-After: 2\r\n\
             X-Retry-After-Ms: 1500\r\nX-Virtual-Ms: 81\r\nContent-Length: 0\r\n\r\n"
        );
        assert_eq!(
            wire(&shed(504, "deadline", 1_000).with_header("X-Virtual-Ms", 1u64)),
            "HTTP/1.1 504 Gateway Timeout\r\nX-Degraded: deadline\r\nRetry-After: 1\r\n\
             X-Retry-After-Ms: 1000\r\nX-Virtual-Ms: 1\r\nContent-Length: 0\r\n\r\n"
        );
    }
}
