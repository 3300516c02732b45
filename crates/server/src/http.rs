//! A deliberately small HTTP/1.1 codec: enough to parse the requests the
//! preserva API serves and write plain or chunked responses. No external
//! dependencies — the workspace is std-only by constraint, and the server
//! needs exactly GET/PUT, headers, a sized body, keep-alive and chunked
//! transfer for the change feed.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::TcpStream;

/// Total bytes of request line + headers we will buffer before refusing.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest request body accepted (a single record, generously).
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request. Header names are lowercased; the path and query
/// string are split off the target but left ENCODED — use
/// [`Request::segments`] and [`Request::query`], which decode after
/// splitting, so an encoded separator can't change the structure.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub raw_query: String,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    /// Path segments, percent-decoded individually. The raw path is
    /// split on '/' FIRST, so `%2F` inside a segment (e.g. a record id
    /// containing a slash) stays inside that segment instead of
    /// changing the route shape. A `+` in a segment is itself, not a
    /// space: record `a+b` is `/records/a+b`.
    pub fn segments(&self) -> Vec<String> {
        self.path
            .split('/')
            .filter(|s| !s.is_empty())
            .map(decode_segment)
            .collect()
    }

    /// Decoded query parameters, last occurrence winning.
    pub fn query(&self) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for pair in self.raw_query.split('&') {
            if pair.is_empty() {
                continue;
            }
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            out.insert(percent_decode(k), percent_decode(v));
        }
        out
    }

    /// The client asked to drop the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }

    /// The bearer token / API key presented, if any.
    pub fn api_key(&self) -> Option<&str> {
        if let Some(auth) = self.headers.get("authorization") {
            if let Some(token) = auth.strip_prefix("Bearer ") {
                return Some(token.trim());
            }
        }
        self.headers.get("x-api-key").map(|v| v.trim())
    }
}

/// Percent-decoding of a query component: `+` is a space and `%` with
/// two hex digits a byte; any other `%` stays as it is, and invalid
/// UTF-8 is replaced.
pub fn percent_decode(s: &str) -> String {
    decode(s, true)
}

/// Percent-decoding of a path segment: like [`percent_decode`], except
/// that `+` is itself.
fn decode_segment(s: &str) -> String {
    decode(s, false)
}

fn decode(s: &str, plus_is_space: bool) -> String {
    let hex = |b: u8| (b as char).to_digit(16);
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' if plus_is_space => out.push(b' '),
            b'%' => {
                if let Some(&[hi, lo]) = bytes.get(i + 1..i + 3) {
                    if let (Some(hi), Some(lo)) = (hex(hi), hex(lo)) {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Why [`read_request`] read no request.
#[derive(Debug)]
pub enum ReadError {
    /// The request breaks a limit or the grammar: answer `status`, then
    /// close the connection.
    Refused {
        /// 400, 413 or 431.
        status: u16,
        /// What was wrong, for the reply body.
        reason: &'static str,
    },
    /// The socket failed or the client cut the request off: there is
    /// nobody to answer.
    Io(io::Error),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn refused(status: u16, reason: &'static str) -> ReadError {
    ReadError::Refused { status, reason }
}

/// Read one request off the stream. `Ok(None)` means the peer closed (or
/// idled past the read timeout) between requests — a clean keep-alive end.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, ReadError> {
    let mut head = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        // Each line is read through what is left of the head budget, plus
        // two bytes for the blank line's CRLF, so a line that never ends
        // stops at the budget instead of being buffered whole.
        let budget = (MAX_HEAD_BYTES - head.len() + 2) as u64;
        let n = match reader.by_ref().take(budget).read_line(&mut line) {
            Ok(n) => n,
            Err(e)
                if head.is_empty()
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::ConnectionReset
                    ) =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            // EOF: fine between requests, torn mid-head otherwise.
            if head.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn head").into());
        }
        if line == "\r\n" || line == "\n" {
            if head.is_empty() {
                continue; // tolerate stray blank lines between requests
            }
            break;
        }
        head.push_str(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(refused(431, "request head over 16 KiB"));
        }
    }

    let mut parts = head.lines().next().unwrap_or_default().split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(refused(400, "malformed request line"));
    };
    let method = method.to_string();
    let (path, raw_query) = target.split_once('?').unwrap_or((target, ""));

    let mut headers = BTreeMap::new();
    for l in head.lines().skip(1) {
        if let Some((k, v)) = l.split_once(':') {
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
            if k == "content-length" && headers.get(&k).is_some_and(|old: &String| old != v) {
                return Err(refused(400, "conflicting Content-Length headers"));
            }
            headers.insert(k, v.to_string());
        }
    }

    // Only a sized body is read: any other framing would leave the body
    // to be parsed as the next request.
    if headers.contains_key("transfer-encoding") {
        return Err(refused(400, "Transfer-Encoding is not supported"));
    }
    let len = match headers.get("content-length") {
        None => 0,
        Some(v) if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) => {
            v.parse().unwrap_or(usize::MAX)
        }
        Some(_) => return Err(refused(400, "Content-Length is not a decimal number")),
    };
    if len > MAX_BODY_BYTES {
        return Err(refused(413, "request body over 1 MiB"));
    }
    let mut body = vec![0u8; len];
    if len > 0 {
        reader.read_exact(&mut body)?;
    }

    Ok(Some(Request {
        method,
        path: path.to_string(),
        raw_query: raw_query.to_string(),
        headers,
        body,
    }))
}

/// A plain (sized) response.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(status: u16, value: serde_json::Value) -> Response {
        let mut body = value.to_string().into_bytes();
        body.push(b'\n');
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    pub fn text(status: u16, text: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: text.into().into_bytes(),
        }
    }

    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, serde_json::json!({ "error": message }))
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a sized response; `close` controls the Connection header.
pub fn write_response(stream: &mut TcpStream, r: &Response, close: bool) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        r.status,
        reason(r.status),
        r.content_type,
        r.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    // Head and body leave in one write: the socket is TCP_NODELAY, so
    // two writes would cost two syscalls and two segments.
    let mut bufs = [IoSlice::new(head.as_bytes()), IoSlice::new(&r.body)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Start a chunked `text/event-stream` response. Pair with
/// [`write_chunk`] and [`finish_chunked`]. Always `Connection: close` —
/// a feed is the connection's last exchange.
pub fn start_event_stream(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// One chunk of a chunked body.
pub fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(()); // an empty chunk would terminate the body
    }
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminate a chunked body.
pub fn finish_chunked(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_spaces_and_escapes() {
        assert_eq!(percent_decode("Hyla+faber"), "Hyla faber");
        assert_eq!(percent_decode("Hyla%20faber"), "Hyla faber");
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn only_a_percent_and_two_hex_digits_is_an_escape() {
        // A sign is not a hex digit: `%+5` is not byte 0x05.
        for s in ["%+5", "%+f", "%-1", "%5", "%"] {
            assert_eq!(percent_decode(s), s.replace('+', " "));
            assert_eq!(decode_segment(s), s);
        }
        assert_eq!(percent_decode("%4a%4A"), "JJ");
    }

    #[test]
    fn a_plus_in_a_path_segment_is_a_plus() {
        assert_eq!(decode_segment("a+b"), "a+b");
        assert_eq!(decode_segment("a%2Bb%20c"), "a+b c");
        assert_eq!(percent_decode("a+b"), "a b");
    }

    #[test]
    fn segments_split_before_decoding() {
        let req = Request {
            method: "GET".into(),
            path: "/v1/herp/records/FNJV%2F0001".into(),
            raw_query: String::new(),
            headers: BTreeMap::new(),
            body: Vec::new(),
        };
        // An encoded slash stays INSIDE its segment: still a 4-segment
        // record route, with the id decoded to contain '/'.
        assert_eq!(req.segments(), ["v1", "herp", "records", "FNJV/0001"]);

        // A literal extra slash, by contrast, changes the shape.
        let req = Request {
            path: "/v1/herp/records/FNJV/0001".into(),
            ..req
        };
        assert_eq!(req.segments().len(), 5);
    }
}
