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
//! and parsed in the same single pass over the reader's bytes. A
//! request also records where each header's name and value sit, since
//! the server looks several of them up; every lookup (header, query
//! key, method) reads the buffer in place, without allocating. A
//! response keeps its header lines as the text they go out as: each
//! header is one append, integers go through a small integer writer
//! instead of `fmt`, and a lookup scans its few lines.
//!
//! The serving connection reads every head into one request it reuses,
//! and looks up the headers it acts on in one pass over their spans.
//! The replay client reads every response into one `ClientResponse`:
//! the pass that reads the head also picks out the status and the
//! headers the client acts on, and the body is consumed without being
//! copied, since the client never reads it. So a warm round trip
//! allocates only the response's header text. [`read_request`] and
//! [`read_response`] read into fresh buffers and keep bodies: a body
//! that is already whole in the reader's buffer is copied once, from
//! there into its [`Bytes`]. Heads over
//! [`MAX_HEAD_BYTES`], bodies over [`MAX_BODY_BYTES`] and a
//! `Content-Length` that does not parse are refused as `InvalidData`.
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

/// Starting capacity of a head's text: a replay request head or a
/// served response head fits without growing.
const HEAD_CAPACITY: usize = 256;

/// Where one header's name and value sit in a head's text.
type HeaderSpan = (Range<usize>, Range<usize>);

/// A parsed request: its head as received, in one buffer, plus where
/// the method, the query string and each header sit in it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        let [value] = self.header_values([name]);
        value
    }

    /// Header value parsed as `u64`.
    pub fn header_u64(&self, name: &str) -> Option<u64> {
        self.header(name)?.parse().ok()
    }

    /// The values of several headers, found in one pass over the header
    /// spans: entry `i` is the value of header `names[i]`, matched
    /// case-insensitively and trimmed; the first of a repeated header
    /// counts.
    pub(crate) fn header_values<const N: usize>(&self, names: [&str; N]) -> [Option<&str>; N] {
        let mut values = [None; N];
        for (key, value) in &self.headers {
            if let Some(i) = header_index(&self.head.as_bytes()[key.clone()], &names) {
                values[i].get_or_insert(&self.head[value.clone()]);
            }
        }
        values
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, 429, 500, 503, 504, ...).
    pub status: u16,
    /// Header lines as wire text, `Name: value\r\n` each, in the order
    /// they were added or received (`Content-Length` is added on
    /// write). Lookups scan these few lines: the server never reads
    /// back the responses it builds, so they keep no index.
    headers: String,
    /// Response body.
    pub body: Bytes,
}

/// A header value [`HttpResponse::with_header`] appends as wire text
/// without going through `fmt`: a string as it is, an integer through
/// the integer writer.
pub trait HeaderValue {
    /// Appends the value to a header line under construction.
    fn append_to(self, line: &mut String);
}

impl HeaderValue for &str {
    fn append_to(self, line: &mut String) {
        line.push_str(self);
    }
}

impl HeaderValue for u64 {
    fn append_to(self, line: &mut String) {
        let mut digits = [0; 20];
        line.extend(
            decimal(self, &mut digits)
                .iter()
                .map(|&digit| char::from(digit)),
        );
    }
}

impl HttpResponse {
    /// An empty-bodied response with the given status.
    pub fn new(status: u16) -> HttpResponse {
        HttpResponse {
            status,
            headers: String::with_capacity(HEAD_CAPACITY),
            body: Bytes::new(),
        }
    }

    /// Adds a header (builder style): appends its wire line.
    pub fn with_header(mut self, name: &str, value: impl HeaderValue) -> HttpResponse {
        self.headers.push_str(name);
        self.headers.push_str(": ");
        value.append_to(&mut self.headers);
        self.headers.push_str("\r\n");
        self
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: impl Into<Bytes>) -> HttpResponse {
        self.body = body.into();
        self
    }

    /// The header lines as `(name, value)` pairs, each trimmed, in
    /// order.
    pub(crate) fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        let text = &self.headers;
        let mut start = 0;
        std::iter::from_fn(move || {
            while start < text.len() {
                let line = &text.as_bytes()[start..];
                let end = find_byte(line, b'\n').unwrap_or(line.len());
                let at = start;
                start += end + 1;
                if let Some((name, value)) = split_header(&line[..end]) {
                    return Some((
                        &text[at + name.start..at + name.end],
                        &text[at + value.start..at + value.end],
                    ));
                }
            }
            None
        })
    }

    /// Header value by (case-insensitive) name, trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, value)| value)
    }

    /// Header value parsed as `u64`.
    pub fn header_u64(&self, name: &str) -> Option<u64> {
        self.header(name)?.parse().ok()
    }

    /// Serializes the response, adding `Content-Length`: the status
    /// line from a table, the header lines as they are, then the body.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let mut digits = [0; 20];
        match status_line(self.status) {
            Some(line) => out.write_all(line.as_bytes())?,
            None => {
                out.write_all(b"HTTP/1.1 ")?;
                out.write_all(decimal(self.status.into(), &mut digits))?;
                out.write_all(b" Unknown\r\n")?;
            }
        }
        out.write_all(self.headers.as_bytes())?;
        out.write_all(b"Content-Length: ")?;
        out.write_all(decimal(self.body.len() as u64, &mut digits))?;
        out.write_all(b"\r\n\r\n")?;
        out.write_all(&self.body)
    }
}

/// The status line of each status code the serving layer emits.
fn status_line(status: u16) -> Option<&'static str> {
    Some(match status {
        200 => "HTTP/1.1 200 OK\r\n",
        400 => "HTTP/1.1 400 Bad Request\r\n",
        403 => "HTTP/1.1 403 Forbidden\r\n",
        404 => "HTTP/1.1 404 Not Found\r\n",
        429 => "HTTP/1.1 429 Too Many Requests\r\n",
        500 => "HTTP/1.1 500 Internal Server Error\r\n",
        502 => "HTTP/1.1 502 Bad Gateway\r\n",
        503 => "HTTP/1.1 503 Service Unavailable\r\n",
        504 => "HTTP/1.1 504 Gateway Timeout\r\n",
        _ => return None,
    })
}

/// Reason phrase for the status codes the serving layer emits.
pub fn status_text(status: u16) -> &'static str {
    status_line(status).map_or("Unknown", |line| {
        &line["HTTP/1.1 200 ".len()..line.len() - "\r\n".len()]
    })
}

/// The integer writer: `n` in decimal, written into the end of
/// `digits`, and the slice of `digits` that holds it.
pub(crate) fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &[u8] {
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &digits[start..];
        }
    }
}

/// Reads one request off a connection. `Ok(None)` is a clean EOF
/// (client closed a keep-alive connection); an error is a torn,
/// malformed or oversized request.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<HttpRequest>> {
    let mut request = HttpRequest {
        head: String::with_capacity(HEAD_CAPACITY),
        headers: Vec::with_capacity(8),
        ..HttpRequest::default()
    };
    Ok(read_request_into(reader, &mut request)?.then_some(request))
}

/// [`read_request`] into a request whose buffers are reused: a
/// connection reads every request into one. `Ok(false)` is a clean
/// EOF. After `Ok(false)` or an error, `request` holds no request
/// worth reading.
pub(crate) fn read_request_into(
    reader: &mut impl BufRead,
    request: &mut HttpRequest,
) -> io::Result<bool> {
    let HttpRequest {
        path,
        head,
        method,
        query,
        headers,
    } = request;
    path.clear();
    headers.clear();
    *method = 0..0;
    *query = 0..0;
    let Some(line_end) = read_head(reader, head, |_, span| headers.push(span))? else {
        return Ok(false);
    };
    let line = &head.as_bytes()[..line_end];
    *method = token(line, 0).ok_or_else(|| malformed("request line"))?;
    let target = token(line, method.end).ok_or_else(|| malformed("request line"))?;
    let path_span = match head[target.clone()].find('?') {
        Some(at) => {
            *query = target.start + at + 1..target.end;
            target.start..target.start + at
        }
        None => {
            *query = target.end..target.end;
            target
        }
    };
    path.push_str(&head[path_span]);
    Ok(true)
}

/// Reads one response (status line, headers, `Content-Length` body).
pub fn read_response(reader: &mut impl BufRead) -> io::Result<HttpResponse> {
    let mut response = HttpResponse::new(0);
    let (status, length) = read_response_head(reader, &mut response.headers, |_, _| {})?;
    response.status = status;
    // What stays is the header lines, exactly as received.
    let text = &response.headers;
    let shift = find_byte(text.as_bytes(), b'\n').map_or(text.len(), |at| at + 1);
    response.headers.drain(..shift);
    response.body = read_body(reader, length)?;
    Ok(response)
}

/// The headers a [`ClientResponse`] picks out, in the order of its spans.
const CLIENT_HEADERS: [&str; 4] = ["x-virtual-ms", "x-retry-after-ms", "x-degraded", "x-source"];

/// A response as the replay client reads it: its status and the headers
/// the client acts on, found in the pass that reads the head. The body
/// is consumed, not kept. One is reused for every response of a replay.
#[derive(Debug, Default)]
pub(crate) struct ClientResponse {
    /// Status line and header lines, as received.
    head: String,
    /// Status code.
    pub(crate) status: u16,
    /// Where the value of each of [`CLIENT_HEADERS`] sits in `head`.
    spans: [Option<Range<usize>>; 4],
}

impl ClientResponse {
    fn value(&self, header: usize) -> Option<&str> {
        self.spans[header].clone().map(|span| &self.head[span])
    }

    /// `X-Virtual-Ms`, parsed.
    pub(crate) fn virtual_ms(&self) -> Option<u64> {
        self.value(0)?.parse().ok()
    }

    /// `X-Retry-After-Ms`, parsed.
    pub(crate) fn retry_after_ms(&self) -> Option<u64> {
        self.value(1)?.parse().ok()
    }

    /// `X-Degraded`.
    pub(crate) fn degraded(&self) -> Option<&str> {
        self.value(2)
    }

    /// `X-Source`.
    pub(crate) fn source(&self) -> Option<&str> {
        self.value(3)
    }
}

/// Which of `names` the header name `name` is, case-insensitively.
fn header_index(name: &[u8], names: &[&str]) -> Option<usize> {
    names
        .iter()
        .position(|known| name.eq_ignore_ascii_case(known.as_bytes()))
}

/// Reads one response into `response`: the pass that reads the head
/// also takes the status, `Content-Length` and the client's headers (as
/// with [`HttpResponse::header`], the first of a repeated header
/// counts); then the body is consumed without being copied. Refuses
/// what [`read_response`] refuses. After an error, `response` holds no
/// response worth reading.
pub(crate) fn read_client_response(
    reader: &mut impl BufRead,
    response: &mut ClientResponse,
) -> io::Result<()> {
    let spans = &mut response.spans;
    *spans = Default::default();
    let (status, length) = read_response_head(reader, &mut response.head, |name, (_, value)| {
        if let Some(i) = header_index(name, &CLIENT_HEADERS) {
            spans[i].get_or_insert(value);
        }
    })?;
    response.status = status;
    skip_body(reader, length)
}

/// Reads a response head into `head`, reusing its buffer, and parses
/// its status and `Content-Length`; `on_header` sees each header as
/// [`read_head`] hands it over. A missing `Content-Length` is an empty
/// body; one that does not parse is refused, since its body would be
/// read as the next head, and so is one over [`MAX_BODY_BYTES`].
fn read_response_head(
    reader: &mut impl BufRead,
    head: &mut String,
    mut on_header: impl FnMut(&[u8], HeaderSpan),
) -> io::Result<(u16, usize)> {
    let mut length = None;
    let read = read_head(reader, head, |name, span| {
        if length.is_none() && name.eq_ignore_ascii_case(b"content-length") {
            length = Some(span.1.clone());
        }
        on_header(name, span);
    })?;
    let Some(line_end) = read else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    };
    let line = &head.as_bytes()[..line_end];
    let status = token(line, 0)
        .and_then(|version| token(line, version.end))
        .and_then(|code| head[code].parse::<u16>().ok())
        .ok_or_else(|| malformed("status line"))?;
    let length: usize = match length {
        Some(value) => head[value]
            .parse()
            .map_err(|_| malformed("Content-Length"))?,
        None => 0,
    };
    if length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("Content-Length {length} over the {MAX_BODY_BYTES}-byte limit"),
        ));
    }
    Ok((status, length))
}

/// Consumes a `length`-byte body without copying it. Like
/// [`read_body`], an empty body never asks the reader for bytes.
fn skip_body(reader: &mut impl BufRead, mut length: usize) -> io::Result<()> {
    while length > 0 {
        let available = reader.fill_buf()?.len();
        if available == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a body",
            ));
        }
        let step = available.min(length);
        reader.consume(step);
        length -= step;
    }
    Ok(())
}

/// Reads a `length`-byte body. A body already whole in the reader's
/// buffer is copied once, from there into the `Bytes`. An empty body
/// never asks the reader for bytes, so a `Content-Length: 0` response
/// cannot wait on bytes that are not coming.
fn read_body(reader: &mut impl BufRead, length: usize) -> io::Result<Bytes> {
    if length == 0 {
        return Ok(Bytes::new());
    }
    if let Some(body) = reader.fill_buf()?.get(..length) {
        let body = Bytes::from(body);
        reader.consume(length);
        return Ok(body);
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok(Bytes::from(body))
}

/// Reads one head — a start line, then header lines, through the blank
/// line that ends them — into `head`, reusing its buffer, and parses it
/// in the same single pass over the reader's bytes: each line is split
/// where it sits in the reader's buffer, the lines are copied with one
/// append per buffer fill, and no byte past the blank line is consumed.
/// Lines may end in CRLF or a bare LF. Each header's trimmed name goes
/// to `on_header` with the spans of its name and value in `head`.
/// Returns where the start line's content ends; `None` is a clean EOF
/// before any byte.
fn read_head(
    reader: &mut impl BufRead,
    head: &mut String,
    mut on_header: impl FnMut(&[u8], HeaderSpan),
) -> io::Result<Option<usize>> {
    let mut text = std::mem::take(head).into_bytes();
    text.clear();
    let mut start_line_end = None;
    // Splits one complete line, which starts at `at` in `text`; true
    // when it is the blank line that ends the head.
    let mut split = |line: &[u8], at: usize| -> io::Result<bool> {
        let content = line.trim_ascii_end();
        if content.is_empty() {
            return Ok(true);
        }
        if start_line_end.is_none() {
            start_line_end = Some(at + content.len());
        } else {
            let (name, value) = split_header(content).ok_or_else(|| malformed("header"))?;
            on_header(
                &content[name.clone()],
                (
                    at + name.start..at + name.end,
                    at + value.start..at + value.end,
                ),
            );
        }
        Ok(false)
    };
    // Bytes at the end of `text` that start a line not yet complete.
    let mut partial = 0;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return if text.is_empty() {
                Ok(None)
            } else {
                Err(malformed("head: truncated"))
            };
        }
        let mut from = 0;
        if partial > 0 {
            // A line begun in an earlier fill is completed in `text`.
            let Some(at) = find_byte(chunk, b'\n') else {
                append(&mut text, chunk)?;
                partial += chunk.len();
                let len = chunk.len();
                reader.consume(len);
                continue;
            };
            append(&mut text, &chunk[..=at])?;
            let line_start = text.len() - partial - (at + 1);
            from = at + 1;
            if split(&text[line_start..], line_start)? {
                text.truncate(line_start);
                reader.consume(from);
                break;
            }
        }
        // Every other line of this fill is split in place and copied
        // with the rest in one append.
        let base = text.len() - from;
        let mut line_start = from;
        let mut ended = None;
        while let Some(at) = find_byte(&chunk[line_start..], b'\n') {
            let line_end = line_start + at + 1;
            if base + line_end > MAX_HEAD_BYTES {
                return Err(over_head_limit());
            }
            if split(&chunk[line_start..line_end], base + line_start)? {
                ended = Some(line_end);
                break;
            }
            line_start = line_end;
        }
        match ended {
            Some(end) => {
                append(&mut text, &chunk[from..line_start])?;
                reader.consume(end);
                break;
            }
            None => {
                append(&mut text, &chunk[from..])?;
                partial = chunk.len() - line_start;
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
    let line_end = start_line_end.ok_or_else(|| malformed("start line"))?;
    *head = String::from_utf8(text).map_err(|_| malformed("head: not UTF-8"))?;
    Ok(Some(line_end))
}

/// Appends `bytes` to a head under construction, refusing to grow it
/// past [`MAX_HEAD_BYTES`].
fn append(head: &mut Vec<u8>, bytes: &[u8]) -> io::Result<()> {
    if head.len() + bytes.len() > MAX_HEAD_BYTES {
        return Err(over_head_limit());
    }
    head.extend_from_slice(bytes);
    Ok(())
}

fn over_head_limit() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("head over the {MAX_HEAD_BYTES}-byte limit"),
    )
}

/// Index of the first `byte` in `bytes`, searched a word at a time: a
/// word's bytes are XORed with `byte`, and the classic has-zero-byte
/// test flags the zeroed ones. Its lowest flag is exact (only bytes
/// above a real zero can be flagged falsely), so the first match is the
/// lowest flagged byte.
#[inline]
fn find_byte(bytes: &[u8], byte: u8) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let needles = u64::from_le_bytes([byte; 8]);
    let mut words = bytes.chunks_exact(8);
    for (index, word) in words.by_ref().enumerate() {
        let mut le = [0; 8];
        le.copy_from_slice(word);
        let zeroed = u64::from_le_bytes(le) ^ needles;
        let flags = zeroed.wrapping_sub(ONES) & !zeroed & HIGHS;
        if flags != 0 {
            return Some(index * 8 + flags.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == byte)?;
    Some(bytes.len() - tail.len() + at)
}

/// Splits a header line's content at its first colon into the spans of
/// its trimmed name and value, relative to the line. `None` when the
/// line has no colon.
fn split_header(line: &[u8]) -> Option<HeaderSpan> {
    let colon = find_byte(line, b':')?;
    Some((
        trimmed(line, 0..colon),
        trimmed(line, colon + 1..line.len()),
    ))
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

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;
    use std::time::Duration;

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
            .with_header("Retry-After", 2u64)
            .with_header("X-Retry-After-Ms", 1500u64)
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
            // One reused request reads the same stream the same way.
            let mut reader = BufReader::with_capacity(capacity, PIPELINED);
            let mut request = HttpRequest::default();
            for expected in &whole {
                assert!(read_request_into(&mut reader, &mut request).unwrap());
                assert_eq!(&request, expected, "capacity {capacity}");
            }
            assert!(!read_request_into(&mut reader, &mut request).unwrap());
        }
    }

    /// Four pipelined responses: an empty body, a one-byte body, a
    /// body longer than every small buffer below, and no
    /// `Content-Length` at all.
    fn pipelined_responses() -> Vec<u8> {
        let mut wire = Vec::new();
        let long = "x".repeat(300);
        for response in [
            HttpResponse::new(503).with_header("Retry-After", 1u64),
            HttpResponse::new(200)
                .with_header("X-Source", "edge")
                .with_body("!".to_string()),
            HttpResponse::new(200)
                .with_header("X-Virtual-Ms", 81u64)
                .with_body(long),
        ] {
            response.write_to(&mut wire).unwrap();
        }
        wire.extend_from_slice(b"HTTP/1.1 404 Not Found\r\nX-Source: edge\r\n\r\n");
        wire
    }

    #[test]
    fn bodies_straddling_buffer_refills_read_like_whole_ones() {
        let wire = pipelined_responses();
        let read_four = |reader: &mut dyn BufRead| -> Vec<HttpResponse> {
            (0..4)
                .map(|_| read_response(&mut &mut *reader).unwrap())
                .collect()
        };
        let whole = read_four(&mut BufReader::with_capacity(
            IO_BUFFER_BYTES,
            wire.as_slice(),
        ));
        assert_eq!(
            whole
                .iter()
                .map(|r| (r.status, r.body.len()))
                .collect::<Vec<_>>(),
            [(503, 0), (200, 1), (200, 300), (404, 0)]
        );
        assert_eq!(whole[2].header_u64("x-virtual-ms"), Some(81));
        for capacity in [1, 7, 13] {
            let small = read_four(&mut BufReader::with_capacity(capacity, wire.as_slice()));
            assert_eq!(small, whole, "capacity {capacity}");
        }
    }

    #[test]
    fn unparsable_content_length_is_refused_not_read_as_the_next_head() {
        for length in ["12x", "", "-1", "0x10", "1 2", "18446744073709551616"] {
            let mut wire =
                format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\nhello").into_bytes();
            HttpResponse::new(404).write_to(&mut wire).unwrap();
            let error = read_response(&mut wire.as_slice()).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{length:?}");
            let error = read_client_response(&mut wire.as_slice(), &mut ClientResponse::default())
                .unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{length:?}");
        }
    }

    /// The client's view of a response, read the way the replay client
    /// reads it.
    type ClientView = (
        u16,
        Option<u64>,
        Option<u64>,
        Option<String>,
        Option<String>,
    );

    fn client_view(response: &ClientResponse) -> ClientView {
        (
            response.status,
            response.virtual_ms(),
            response.retry_after_ms(),
            response.degraded().map(str::to_string),
            response.source().map(str::to_string),
        )
    }

    /// The same view through the public reader's header lookups.
    fn kept_view(response: &HttpResponse) -> ClientView {
        (
            response.status,
            response.header_u64("x-virtual-ms"),
            response.header_u64("x-retry-after-ms"),
            response.header("x-degraded").map(str::to_string),
            response.header("x-source").map(str::to_string),
        )
    }

    #[test]
    fn client_reads_see_what_the_public_reader_sees_and_stay_in_step() {
        let mut wire = pipelined_responses();
        for response in [
            HttpResponse::new(503)
                .with_header("X-Degraded", "breaker-open")
                .with_header("Retry-After", 2u64)
                .with_header("X-Retry-After-Ms", 1_500u64)
                .with_header("X-Virtual-Ms", 81u64),
            HttpResponse::new(200)
                .with_header("x-source", "edge")
                .with_header("X-Source", "backing")
                .with_header("X-VIRTUAL-MS", "7x")
                .with_body("y".repeat(40)),
        ] {
            response.write_to(&mut wire).unwrap();
        }
        let expected: Vec<ClientView> = {
            let mut reader = wire.as_slice();
            (0..6)
                .map(|_| kept_view(&read_response(&mut reader).unwrap()))
                .collect()
        };
        assert_eq!(expected[4].3.as_deref(), Some("breaker-open"));
        assert_eq!(
            expected[5].4.as_deref(),
            Some("edge"),
            "the first one counts"
        );
        for capacity in [1, 7, 13, IO_BUFFER_BYTES] {
            let mut reader = BufReader::with_capacity(capacity, wire.as_slice());
            let mut response = ClientResponse::default();
            for (i, expected) in expected.iter().enumerate() {
                read_client_response(&mut reader, &mut response).unwrap();
                assert_eq!(
                    &client_view(&response),
                    expected,
                    "capacity {capacity}, #{i}"
                );
            }
            let error = read_client_response(&mut reader, &mut response).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn client_reads_refuse_short_and_oversized_bodies() {
        let mut response = ClientResponse::default();
        let short_body = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc";
        let error = read_client_response(&mut &short_body[..], &mut response).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
        let claims = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let error = read_client_response(&mut claims.as_bytes(), &mut response).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(read_client_response(&mut &b"HTTP/1.1 OK\r\n\r\n"[..], &mut response).is_err());
    }

    #[test]
    fn one_pass_header_values_match_each_lookup() {
        let raw = b"GET /app?id=1 HTTP/1.1\r\nx-now-ms: 5\r\nX-Client: 7\r\n\
            X-NOW-MS: 6\r\nX-Trace-Id: 12\r\nX-Parent-Span: client-12\r\n\r\n";
        let request = read_request(&mut &raw[..]).unwrap().unwrap();
        let names = [
            "X-Now-Ms",
            "x-deadline-ms",
            "x-client",
            "x-trace-id",
            "X-PARENT-SPAN",
        ];
        let values = request.header_values(names);
        assert_eq!(
            values,
            [Some("5"), None, Some("7"), Some("12"), Some("client-12")]
        );
        assert_eq!(values, names.map(|name| request.header(name)));
    }

    #[test]
    fn empty_bodies_never_wait_for_more_bytes_on_a_live_socket() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (read_one, wait) = mpsc::channel::<()>();
        std::thread::scope(move |scope| {
            scope.spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                // Each response goes out alone, and the connection stays
                // open until the client has read it: a reader that asks
                // for more bytes than the head times out below. A client
                // that fails drops `read_one`, which ends this thread.
                HttpResponse::new(503)
                    .with_header("Retry-After", 1u64)
                    .write_to(&mut stream)
                    .unwrap();
                if wait.recv().is_ok() {
                    stream
                        .write_all(b"HTTP/1.1 404 Not Found\r\nX-Source: edge\r\n\r\n")
                        .unwrap();
                    let _ = wait.recv();
                }
            });
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut reader = BufReader::new(stream);
            let shed = read_response(&mut reader).unwrap();
            assert_eq!((shed.status, shed.body.len()), (503, 0));
            read_one.send(()).unwrap();
            let missing = read_response(&mut reader).unwrap();
            assert_eq!((missing.status, missing.body.len()), (404, 0));
            read_one.send(()).unwrap();
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn integer_writer_matches_to_string(n in any::<u64>(), digits in 0u32..20) {
            let mut buf = [0; 20];
            for value in [n, n % 10u64.pow(digits), 0, u64::MAX] {
                prop_assert_eq!(decimal(value, &mut buf), value.to_string().as_bytes());
            }
        }

        #[test]
        fn byte_search_matches_position_on_random_bytes(
            bytes in proptest::collection::vec(0u8..16, 0..64),
            offset in 0usize..8,
        ) {
            // Mostly control bytes, so newlines and near misses are common.
            let bytes = &bytes[offset.min(bytes.len())..];
            for byte in [b'\n', b':'] {
                let expected = bytes.iter().position(|&b| b == byte);
                prop_assert_eq!(find_byte(bytes, byte), expected);
            }
        }
    }

    #[test]
    fn newline_search_matches_position_at_every_length_and_place() {
        // Fillers next to `\n` in value, and high bytes whose low bits
        // match it, are where a word-at-a-time test could misfire.
        for filler in [0x00, 0x09, 0x0b, 0x0d, 0x1a, 0x7f, 0x80, 0x8a, 0xff] {
            for len in 0..=24 {
                let mut bytes = vec![filler; len];
                assert_eq!(
                    find_byte(&bytes, b'\n'),
                    None,
                    "len {len} filler {filler:#x}"
                );
                for at in 0..len {
                    bytes[at] = b'\n';
                    let expected = bytes.iter().position(|&b| b == b'\n');
                    assert_eq!(find_byte(&bytes, b'\n'), expected, "len {len} at {at}");
                    // A later newline must not win over this one.
                    bytes[len - 1] = b'\n';
                    assert_eq!(find_byte(&bytes, b'\n'), Some(at), "len {len} at {at}");
                    bytes.fill(filler);
                }
            }
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
        let response = HttpResponse::new(200).with_header("X-Virtual-Ms", 81u64);
        assert_eq!(response.header_u64("x-virtual-ms"), Some(81));
        assert_eq!(response.header("X-VIRTUAL-MS"), Some("81"));
        let raw = b"HTTP/1.1 200 OK\r\n x-source :edge \r\nX-Source: backing\r\nX-Empty:\r\n\r\n";
        let response = read_response(&mut &raw[..]).unwrap();
        assert_eq!(
            response.headers().collect::<Vec<_>>(),
            [
                ("x-source", "edge"),
                ("X-Source", "backing"),
                ("X-Empty", "")
            ]
        );
        assert_eq!(response.header("X-SOURCE"), Some("edge"));
        assert_eq!(response.header("x-empty"), Some(""));
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
    fn status_lines_come_from_the_table_and_unknown_codes_still_serialize() {
        for (status, reason) in [
            (200, "OK"),
            (400, "Bad Request"),
            (403, "Forbidden"),
            (404, "Not Found"),
            (429, "Too Many Requests"),
            (500, "Internal Server Error"),
            (502, "Bad Gateway"),
            (503, "Service Unavailable"),
            (504, "Gateway Timeout"),
            (418, "Unknown"),
            (0, "Unknown"),
            (u16::MAX, "Unknown"),
        ] {
            assert_eq!(status_text(status), reason);
            assert_eq!(
                wire(&HttpResponse::new(status)),
                format!("HTTP/1.1 {status} {reason}\r\nContent-Length: 0\r\n\r\n")
            );
        }
    }

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
