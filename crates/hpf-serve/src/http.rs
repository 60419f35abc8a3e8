//! A minimal HTTP/1.1 layer over `std::net` — request framing, response
//! serialization, keep-alive bookkeeping. Zero dependencies, consistent
//! with the vendored-deps policy: the service only needs the subset of
//! HTTP that `curl` and the loadgen speak (request line, headers,
//! `Content-Length` bodies, persistent connections).
//!
//! **Framing.** A connection reads its requests through one
//! [`RequestReader`]: the head (request line and headers) is read line by
//! line into one byte buffer through a reader that stops after
//! [`MAX_HEADER_BYTES`] + 1 bytes, so a peer that never sends a newline
//! costs at most that much memory and reading before it is answered. The
//! head is parsed in place into a [`Request`] the connection reuses, so
//! once its buffers have grown to fit the traffic, reading a keep-alive
//! request allocates nothing. [`read_request`] is the same parser over
//! fresh buffers.
//!
//! **Statuses.** A malformed head is `400` (a request line longer than
//! [`MAX_HEADER_BYTES`] included: it is refused without reading the
//! rest), a head or body over its limit `413`, a read that times out
//! `408`, and a clean end of stream between requests `Ok(None)`. An error
//! message quotes at most 64 characters of client input.
//!
//! **Responses.** [`write_response`] writes the status line and headers
//! from static pieces and a small integer formatter, with no `fmt`
//! machinery on the hot path.

use std::io::{BufRead, Read, Take, Write};

/// Largest accepted request body, bytes. HPF programs are kilobytes; a
/// megabyte leaves room without letting one request balloon the worker.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted header section (request line + headers), bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Most characters of client input an error message quotes.
const ECHO_CHARS: usize = 64;

/// One parsed HTTP request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    pub method: String,
    /// Path with the query string stripped — routing is on the path alone.
    pub path: String,
    /// Raw query string (no leading `?`); empty when the request had none.
    pub query: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of the query parameter `name` (`k=v` pairs split on `&`).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// Did the client ask to close the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// A malformed or over-limit request, mapped to the HTTP status the
/// connection handler should answer with before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    pub status: u16,
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HTTP {}: {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// The canonical reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Map a read error to the right protocol answer: a timed-out read (a
/// slow-loris peer, or an idle keep-alive connection expiring) is `408
/// Request Timeout`; anything else is a `400` protocol violation.
fn read_error(context: &str, e: &std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            HttpError::new(408, format!("{context}: read timed out"))
        }
        _ => HttpError::new(400, format!("{context}: {e}")),
    }
}

/// `text` quoted for an error message, cut to [`ECHO_CHARS`] characters
/// (and marked `...` when cut), so no message carries a client's whole
/// line back to it.
fn echo(text: &str) -> String {
    match text.char_indices().nth(ECHO_CHARS) {
        Some((cut, _)) => format!("{:?}...", &text[..cut]),
        None => format!("{text:?}"),
    }
}

/// The line `head[start..]` as text, line terminators trimmed.
fn head_text(head: &[u8], start: usize) -> Result<&str, HttpError> {
    std::str::from_utf8(&head[start..])
        .map(|l| l.trim_end_matches(['\r', '\n']))
        .map_err(|_| HttpError::new(400, "head line is not UTF-8"))
}

/// Overwrite `dst` with `src`, keeping `dst`'s allocation.
fn set(dst: &mut String, src: &str) {
    dst.clear();
    dst.push_str(src);
}

/// Read header lines through `limited` onto `head` up to the blank line
/// that ends the head. Each header lands in `headers` as a lower-cased,
/// trimmed name and a trimmed value, overwriting the strings already
/// there; `headers` is cut to the headers read. The head may grow to
/// [`MAX_HEADER_BYTES`] bytes; one more is `413`.
fn read_headers<R: BufRead>(
    limited: &mut Take<R>,
    head: &mut Vec<u8>,
    headers: &mut Vec<(String, String)>,
    what: &str,
) -> Result<(), HttpError> {
    let mut count = 0;
    loop {
        let start = head.len();
        let read = limited.read_until(b'\n', head);
        if read.map_err(|e| read_error(&format!("read {what}"), &e))? == 0 {
            return Err(HttpError::new(400, format!("eof inside {what}s")));
        }
        if head.len() > MAX_HEADER_BYTES {
            return Err(HttpError::new(413, "header section too large"));
        }
        let line = head_text(head, start)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(
                400,
                format!("malformed {what} {}", echo(line)),
            ));
        };
        let (name, value) = (name.trim(), value.trim());
        match headers.get_mut(count) {
            Some((k, v)) => {
                set(k, name);
                set(v, value);
            }
            None => headers.push((name.to_string(), value.to_string())),
        }
        headers[count].0.make_ascii_lowercase();
        count += 1;
    }
    headers.truncate(count);
    Ok(())
}

/// The `content-length` of a head (0 when absent).
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    match headers.iter().find(|(k, _)| k == "content-length") {
        None => Ok(0),
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, format!("bad content-length {}", echo(v)))),
    }
}

/// Read `len` body bytes into `body`, keeping its allocation.
fn read_body<R: BufRead>(
    reader: &mut R,
    body: &mut Vec<u8>,
    len: usize,
    context: &str,
) -> Result<(), HttpError> {
    body.clear();
    body.resize(len, 0);
    if len > 0 {
        reader
            .read_exact(body)
            .map_err(|e| read_error(context, &e))?;
    }
    Ok(())
}

/// A connection's request buffers, reused across its keep-alive
/// requests: the head's bytes and the last [`Request`] read.
#[derive(Debug, Default)]
pub struct RequestReader {
    head: Vec<u8>,
    request: Request,
}

impl RequestReader {
    /// Read the next request from `reader`. Returns `Ok(None)` on a clean
    /// end-of-stream before any byte of a new request (the keep-alive
    /// peer hung up — not an error); timeouts and protocol violations are
    /// `Err` with the status to answer before closing. After an error the
    /// buffered request is unspecified.
    pub fn read<R: BufRead>(&mut self, reader: &mut R) -> Result<Option<&Request>, HttpError> {
        let RequestReader { head, request: req } = self;
        head.clear();
        let mut limited = Read::take(&mut *reader, MAX_HEADER_BYTES as u64 + 1);
        let read = limited.read_until(b'\n', head);
        if read.map_err(|e| read_error("read request line", &e))? == 0 {
            return Ok(None);
        }
        if head.len() > MAX_HEADER_BYTES {
            return Err(HttpError::new(
                400,
                format!("request line longer than {MAX_HEADER_BYTES} bytes"),
            ));
        }
        let line = head_text(head, 0)?;
        let mut parts = line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::new(
                400,
                format!("malformed request line {}", echo(line)),
            ));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::new(
                400,
                format!("unsupported version {}", echo(version)),
            ));
        }
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        set(&mut req.method, method);
        set(&mut req.path, path);
        set(&mut req.query, query);

        read_headers(&mut limited, head, &mut req.headers, "header")?;
        let len = content_length(&req.headers)?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::new(413, "request body too large"));
        }
        read_body(reader, &mut req.body, len, "read body")?;
        Ok(Some(&self.request))
    }
}

/// Read one request from a buffered connection into fresh buffers —
/// [`RequestReader::read`] for a caller that reads one request.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let mut requests = RequestReader::default();
    if requests.read(reader)?.is_none() {
        return Ok(None);
    }
    Ok(Some(requests.request))
}

/// Serialize a response. `retry_after` adds the backpressure header the
/// 429 path promises; `keep_alive` decides the `Connection` header.
pub fn response_bytes(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after_s: Option<u32>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 160);
    let _ = write_response(
        &mut out,
        status,
        content_type,
        body,
        keep_alive,
        retry_after_s,
    );
    out
}

/// `n` in decimal, written into the end of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

/// Serialize a response directly into a writer — the keep-alive hot path
/// uses this to stream into the connection's write buffer instead of
/// allocating and copying a temporary per response.
pub fn write_response<W: Write>(
    out: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after_s: Option<u32>,
) -> std::io::Result<()> {
    let mut digits = [0u8; 20];
    out.write_all(b"HTTP/1.1 ")?;
    out.write_all(decimal(status.into(), &mut digits))?;
    out.write_all(b" ")?;
    out.write_all(reason(status).as_bytes())?;
    out.write_all(b"\r\ncontent-type: ")?;
    out.write_all(content_type.as_bytes())?;
    out.write_all(b"\r\ncontent-length: ")?;
    out.write_all(decimal(body.len() as u64, &mut digits))?;
    out.write_all(if keep_alive {
        b"\r\nconnection: keep-alive\r\n"
    } else {
        b"\r\nconnection: close\r\n"
    })?;
    if let Some(s) = retry_after_s {
        out.write_all(b"retry-after: ")?;
        out.write_all(decimal(s.into(), &mut digits))?;
        out.write_all(b"\r\n")?;
    }
    out.write_all(b"\r\n")?;
    out.write_all(body)
}

/// One parsed response: `(status, headers, body)`, header names lower-cased.
pub type Response = (u16, Vec<(String, String)>, Vec<u8>);

/// Read one response from a buffered connection — the client half used by
/// the loadgen and the end-to-end tests. Its head is read through the
/// same bounded reader as a request's.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, HttpError> {
    let mut head = Vec::new();
    let mut limited = Read::take(&mut *reader, MAX_HEADER_BYTES as u64 + 1);
    let read = limited.read_until(b'\n', &mut head);
    if read.map_err(|e| read_error("read status line", &e))? == 0 {
        return Err(HttpError::new(400, "eof before status line"));
    }
    let line = head_text(&head, 0)?;
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) if v.starts_with("HTTP/1.") => s
            .parse::<u16>()
            .map_err(|_| HttpError::new(400, format!("bad status {}", echo(s))))?,
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed status line {}", echo(line)),
            ))
        }
    };

    let mut headers = Vec::new();
    read_headers(&mut limited, &mut head, &mut headers, "response header")?;
    let mut body = Vec::new();
    read_body(
        reader,
        &mut body,
        content_length(&headers)?,
        "read response body",
    )?;
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"a\"");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_splits_query() {
        let req = parse("GET /v1/healthz?x=1&since=42 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert_eq!(req.query, "x=1&since=42");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("since"), Some("42"));
        assert_eq!(req.query_param("nope"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_close_is_detected() {
        let req = parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_none_not_error() {
        assert_eq!(parse("").unwrap().map(|r| r.method), None);
    }

    #[test]
    fn rejects_protocol_garbage() {
        assert_eq!(parse("NONSENSE\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / SPDY/3\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(&raw).unwrap_err().status, 413);
    }

    #[test]
    fn truncated_body_is_an_error() {
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn response_bytes_carry_headers() {
        let bytes = response_bytes(429, "application/json", b"{}", true, Some(2));
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn read_response_round_trips_what_response_bytes_wrote() {
        let bytes = response_bytes(404, "application/json", b"{\"e\":1}", false, None);
        let (status, headers, body) = read_response(&mut BufReader::new(bytes.as_slice())).unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, b"{\"e\":1}");
        assert!(headers
            .iter()
            .any(|(k, v)| k == "connection" && v == "close"));
    }

    #[test]
    fn keep_alive_roundtrip_reads_two_requests() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(raw.as_bytes());
        let a = read_request(&mut r).unwrap().unwrap();
        let b = read_request(&mut r).unwrap().unwrap();
        assert_eq!((a.path.as_str(), b.path.as_str()), ("/a", "/b"));
        assert!(read_request(&mut r).unwrap().is_none());
    }

    /// The per-line parser this module's framing replaced, kept only as
    /// the oracle the differential test compares against: a fresh
    /// `String` per line, the header limit checked after each line was
    /// read whole.
    fn oracle_read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(e) => return Err(read_error("read request line", &e)),
        }
        let mut parts = line.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
            _ => {
                return Err(HttpError::new(
                    400,
                    format!("malformed request line {line:?}"),
                ))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::new(
                400,
                format!("unsupported version {version}"),
            ));
        }

        let mut headers = Vec::new();
        let mut header_bytes = line.len();
        loop {
            let mut h = String::new();
            match reader.read_line(&mut h) {
                Ok(0) => return Err(HttpError::new(400, "eof inside headers")),
                Ok(n) => header_bytes += n,
                Err(e) => return Err(read_error("read header", &e)),
            }
            if header_bytes > MAX_HEADER_BYTES {
                return Err(HttpError::new(413, "header section too large"));
            }
            let h = h.trim_end_matches(['\r', '\n']);
            if h.is_empty() {
                break;
            }
            let Some((name, value)) = h.split_once(':') else {
                return Err(HttpError::new(400, format!("malformed header {h:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| {
                v.parse::<usize>()
                    .map_err(|_| HttpError::new(400, format!("bad content-length {v:?}")))
            })
            .transpose()?
            .unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::new(413, "request body too large"));
        }
        let mut body = vec![0u8; content_length];
        if content_length > 0 {
            std::io::Read::read_exact(reader, &mut body)
                .map_err(|e| read_error("read body", &e))?;
        }

        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path, String::new()),
        };
        Ok(Some(Request {
            method,
            path,
            query,
            headers,
            body,
        }))
    }

    /// A seeded generator of request heads and bodies.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }

        /// `s` with each ASCII letter's case flipped at random.
        fn mixed_case(&mut self, s: &str) -> String {
            s.chars()
                .map(|c| {
                    if self.one_in(2) {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect()
        }

        /// One request's bytes. A `rich` request has a query and at least
        /// two headers besides `content-length`; a bare one has neither.
        fn request(&mut self, rich: bool) -> Vec<u8> {
            let eol = self.pick(&["\r\n", "\r\n", "\n", "\r\r\n"]);
            let sep = self.pick(&[" ", " ", "  ", "\t", " \t "]);
            let mut out = String::new();
            out += self.pick(&["GET", "POST", "POST", "PUT", "get", "PoSt"]);
            out += sep;
            out += if rich {
                self.pick(&[
                    "/v1/metrics?since=7",
                    "/a?b=c&d=e",
                    "/x?",
                    "/v1/sweep?x=1?y=2",
                ])
            } else {
                self.pick(&["/v1/predict", "/v1/healthz", "/", "/v1/advise"])
            };
            if !self.one_in(25) {
                out += sep;
                out += if self.one_in(10) {
                    self.pick(&["HTTP/2", "SPDY/3", "http/1.1"])
                } else {
                    self.pick(&["HTTP/1.1", "HTTP/1.0"])
                };
            }
            if self.one_in(12) {
                out += " extra";
            }
            out += eol;
            let mut bytes = out.into_bytes();
            let extra = if rich { 2 + self.below(4) } else { 0 };
            for _ in 0..extra {
                let name = self.pick(&[
                    "Host",
                    "Accept",
                    "X-Trace",
                    "Connection",
                    "User-Agent",
                    "x-chaos-panic",
                ]);
                let name = self.mixed_case(name);
                let colon = self.pick(&[":", ": ", " : ", ":\t"]);
                let value = self.pick(&[
                    "x",
                    " spaced value ",
                    "",
                    "close",
                    "keep-alive",
                    "a:b:c",
                    "\tt\t",
                ]);
                let line = if self.one_in(30) {
                    format!("{name} no colon{eol}")
                } else {
                    format!("{name}{colon}{value}{eol}")
                };
                bytes.extend_from_slice(line.as_bytes());
                if self.one_in(60) {
                    bytes.extend_from_slice(b"X-Bad: \xff\xfe");
                    bytes.extend_from_slice(eol.as_bytes());
                }
                if self.one_in(80) {
                    let long = "v".repeat(MAX_HEADER_BYTES);
                    bytes.extend_from_slice(format!("X-Long: {long}{eol}").as_bytes());
                }
            }
            const BODY_BYTES: &[u8] = b"{}\"abc: \r\n\x00\xff";
            let body: Vec<u8> = (0..self.below(48))
                .map(|_| BODY_BYTES[self.below(BODY_BYTES.len())])
                .collect();
            if !body.is_empty() || self.one_in(3) {
                let name = self.mixed_case("content-length");
                let len = match self.below(40) {
                    0 => "banana".to_string(),
                    1 => format!("{}", body.len() + 3),
                    2 => format!("{}", MAX_BODY_BYTES + 1),
                    _ => format!("{}", body.len()),
                };
                let colon = self.pick(&[":", ": ", " :  "]);
                bytes.extend_from_slice(format!("{name}{colon}{len}{eol}").as_bytes());
            }
            bytes.extend_from_slice(self.pick(&["\r\n", "\r\n", "\n"]).as_bytes());
            if !body.is_empty() {
                bytes.extend_from_slice(&body);
            }
            bytes
        }

        /// A pipelined sequence: one to four requests, rich and bare ones
        /// alternating from a random start, sometimes cut short inside
        /// the last one.
        fn sequence(&mut self) -> Vec<u8> {
            let first_rich = self.one_in(2);
            let mut bytes = Vec::new();
            for i in 0..1 + self.below(4) {
                let rich = (i % 2 == 0) == first_rich;
                bytes.extend(self.request(rich));
            }
            if self.one_in(5) {
                let rich = self.one_in(2);
                let tail = self.request(rich);
                let cut = self.below(tail.len());
                bytes.extend_from_slice(&tail[..cut]);
            }
            bytes
        }
    }

    /// A request's fields, for comparing two requests.
    type Fields<'a> = (&'a str, &'a str, &'a str, &'a [(String, String)], &'a [u8]);

    fn fields(r: &Request) -> Fields<'_> {
        (&r.method, &r.path, &r.query, &r.headers, &r.body)
    }

    /// Read `bytes` through the oracle and through one reused
    /// [`RequestReader`], each through a `BufReader` of `capacity`, and
    /// require equal fields request by request, or equal error statuses
    /// where both stop. Returns how many requests both read, and whether
    /// they stopped at an error.
    fn agree(bytes: &[u8], capacity: usize, case: usize) -> (usize, bool) {
        let mut old = BufReader::with_capacity(capacity, bytes);
        let mut new = BufReader::with_capacity(capacity, bytes);
        let mut requests = RequestReader::default();
        let mut read = 0;
        loop {
            let context = || format!("case {case}, capacity {capacity}, request {read}");
            match (oracle_read_request(&mut old), requests.read(&mut new)) {
                (Ok(None), Ok(None)) => return (read, false),
                (Ok(Some(a)), Ok(Some(b))) => {
                    assert_eq!(fields(&a), fields(b), "{}", context());
                    read += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.status, b.status, "{}: {a} vs {b}", context());
                    return (read, true);
                }
                (a, b) => panic!("{}: oracle {a:?}, reader {b:?}", context()),
            }
        }
    }

    /// Differential: over seeded heads (header case and whitespace,
    /// queries, bodies, malformed and over-limit lines) in pipelined
    /// sequences where a request with a query and extra headers precedes
    /// one with neither, the reused reader agrees with the old per-line
    /// parser, read one byte at a time and whole.
    #[test]
    fn request_reader_agrees_with_the_per_line_oracle() {
        let mut gen = Gen(0x4854_5450);
        let (mut requests, mut errors) = (0, 0);
        for case in 0..3000 {
            let bytes = gen.sequence();
            let whole = agree(&bytes, 8 << 10, case);
            assert_eq!(agree(&bytes, 1, case), whole, "case {case}");
            requests += whole.0;
            errors += usize::from(whole.1);
        }
        println!("{requests} requests read; {errors} of 3000 sequences ended in an error");
        // The mix exercises both outcomes in earnest.
        assert!(requests > 3000, "{requests} requests read");
        assert!(errors > 600, "{errors} sequences ended in an error");
    }

    /// A reused reader leaves nothing of a rich request in the bare one
    /// that follows it.
    #[test]
    fn a_reused_request_keeps_no_stale_fields() {
        let raw = "POST /q?x=1 HTTP/1.1\r\nA: 1\r\nB: 2\r\ncontent-length: 3\r\n\r\nabc\
                   GET /plain HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(raw.as_bytes());
        let mut requests = RequestReader::default();
        assert_eq!(requests.read(&mut r).unwrap().unwrap().headers.len(), 3);
        let bare = requests.read(&mut r).unwrap().unwrap();
        assert_eq!(fields(bare), ("GET", "/plain", "", &[][..], &[][..]));
        assert!(requests.read(&mut r).unwrap().is_none());
    }

    /// Counts the bytes read through it.
    struct Counted<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    /// A 32 MiB line with no newline, as the request line or as a
    /// header, is refused (400 and 413) after at most
    /// `MAX_HEADER_BYTES` plus one buffer has been read, holding at most
    /// a few times `MAX_HEADER_BYTES` of it.
    #[test]
    fn unterminated_lines_are_refused_after_a_bounded_read() {
        const LINE: u64 = 32 << 20;
        const BUFFER: usize = 8 << 10;
        let cases: [(&[u8], u16); 2] = [
            (b"GET /", 400),
            (b"GET / HTTP/1.1\r\nhost: x\r\nx-long: ", 413),
        ];
        for (prefix, status) in cases {
            let source = Counted {
                inner: prefix.chain(std::io::repeat(b'a').take(LINE)),
                read: 0,
            };
            let mut reader = BufReader::with_capacity(BUFFER, source);
            let mut requests = RequestReader::default();
            let err = requests.read(&mut reader).unwrap_err();
            assert_eq!(err.status, status, "{err}");
            let read = reader.get_ref().read;
            assert!(read <= MAX_HEADER_BYTES + BUFFER, "read {read} bytes");
            assert!(
                requests.head.capacity() <= 4 * MAX_HEADER_BYTES,
                "held {} bytes",
                requests.head.capacity()
            );
        }
    }

    /// No error message quotes more than a short excerpt of what the
    /// client sent, however long the offending line or value.
    #[test]
    fn error_messages_quote_only_an_excerpt() {
        let long = "x".repeat(12 << 10);
        let wide = "é".repeat(6 << 10);
        for raw in [
            format!("{long}\r\n\r\n"),
            format!("GET / HTTP/{long}\r\n\r\n"),
            format!("GET / HTTP/1.1\r\n{long}\r\n\r\n"),
            format!("GET / HTTP/1.1\r\n{wide}\r\n\r\n"),
            format!("GET / HTTP/1.1\r\ncontent-length: {long}\r\n\r\n"),
            format!("GET /{long}"),
        ] {
            let err = parse(&raw).unwrap_err();
            assert_eq!(err.status, 400, "{err}");
            assert!(
                err.message.len() <= 256,
                "{} bytes: {err}",
                err.message.len()
            );
        }
    }

    /// The head bytes `write_response` wrote with `write!` before it was
    /// built from static pieces: the oracle for the table test.
    fn formatted_response(
        status: u16,
        content_type: &str,
        body: &[u8],
        keep_alive: bool,
        retry_after_s: Option<u32>,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        write!(
            out,
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            reason(status),
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .unwrap();
        if let Some(s) = retry_after_s {
            write!(out, "retry-after: {s}\r\n").unwrap();
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(body);
        out
    }

    /// For every status the service emits (and an unknown one), with
    /// keep-alive on and off and with and without `retry-after`, the
    /// response bytes equal the `write!` formatting's.
    #[test]
    fn response_heads_match_the_formatted_ones() {
        let bodies = [vec![], b"{}".to_vec(), vec![b'x'; 9], vec![b'y'; 2_600]];
        for status in [200, 400, 404, 405, 408, 413, 429, 500, 503, 504, 299] {
            for keep_alive in [true, false] {
                for retry in [None, Some(0), Some(1), Some(10), Some(u32::MAX)] {
                    for body in &bodies {
                        let mut out = Vec::new();
                        write_response(
                            &mut out,
                            status,
                            "application/json",
                            body,
                            keep_alive,
                            retry,
                        )
                        .unwrap();
                        let want =
                            formatted_response(status, "application/json", body, keep_alive, retry);
                        assert_eq!(
                            String::from_utf8_lossy(&out),
                            String::from_utf8_lossy(&want),
                            "status {status}, keep-alive {keep_alive}, retry {retry:?}"
                        );
                    }
                }
            }
        }
        let mut digits = [0u8; 20];
        assert_eq!(decimal(u64::MAX, &mut digits), b"18446744073709551615");
        assert_eq!(decimal(0, &mut digits), b"0");
    }
}
