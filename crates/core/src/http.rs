//! The workspace's one HTTP/1.1 codec: just enough of the protocol for
//! the daemons' JSON endpoints, with no external dependency.
//!
//! Both directions parse *sans-IO*: [`parse_head`] and
//! [`parse_response_head`] run over whatever bytes are buffered and answer
//! [`HeadOutcome::Partial`] until a whole head is present, so an event
//! loop re-runs them as bytes arrive and a blocking caller drives them
//! through [`read_frame`]. They share one header loop, hence one set of
//! limits — heads of at most [`MAX_HEAD_BYTES`] and [`MAX_HEADERS`]
//! fields, bodies of at most [`MAX_BODY_BYTES`] (requests) or
//! [`MAX_RESPONSE_BODY_BYTES`] (responses) — and one framing rule: only
//! `Content-Length`, so a chunked body can never be mistaken for the next
//! request. [`Response::write_into`] is the one serializer.

use crate::Json;
use std::borrow::Cow;
use std::io::{self, Read, Write};

/// Upper bound on start line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on the number of header lines in one head.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on a request body (1 MiB), refused with 413 from the
/// `Content-Length` alone, before a single body byte is buffered.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Upper bound on a response body a client buffers (4 MiB): a `/metrics`
/// page is tens of KB, anything past this is a misbehaving peer.
pub const MAX_RESPONSE_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Bound on bytes discarded from a peer after an error response (see
/// [`crate::conn`]); past this the peer is hostile and an RST is fine.
pub const DRAIN_BUDGET_BYTES: usize = 256 * 1024;
/// Bytes added to a buffer per `read` call in [`read_frame`].
const READ_CHUNK: usize = 16 * 1024;
/// `Content-Type` assumed for a response that carries none.
const DEFAULT_CONTENT_TYPE: &str = "application/json";

/// One parsed request.
///
/// `Default` gives `keep_alive: false`; every complete parse sets the
/// flag, so only scratch swaps (`mem::take`) ever observe the default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased as received).
    pub method: String,
    /// The path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// The body parsed as JSON (empty body → empty object, so endpoints
    /// with all-optional fields accept bare POSTs).
    pub fn json(&self) -> Result<Json, String> {
        if self.body.is_empty() {
            return Ok(Json::obj());
        }
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        Json::parse(text)
    }
}

/// A response: built by handlers and serialized with
/// [`Response::write_into`], or parsed off the wire by a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (borrowed for the daemons' own
    /// responses, owned when relayed from an upstream).
    pub content_type: Cow<'static, str>,
    /// `Allow` header value (RFC 9110 requires it on 405s so clients
    /// learn which methods the path *does* answer).
    pub allow: Option<Cow<'static, str>>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            content_type: Cow::Borrowed("application/json"),
            allow: None,
            body: value.render().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: Cow::Borrowed("text/plain; charset=utf-8"),
            allow: None,
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut obj = Json::obj();
        obj.set("error", message);
        Response::json(status, &obj)
    }

    /// A 405 for a known path hit with the wrong method. Carries the
    /// `Allow` header and keeps the connection open — a wrong verb is a
    /// client mistake, not a protocol violation worth a teardown.
    pub fn method_not_allowed(allow: &'static str) -> Response {
        let mut resp = Response::error(405, "method not allowed");
        resp.allow = Some(Cow::Borrowed(allow));
        resp
    }

    /// Serializes the response into a caller-owned scratch buffer, so
    /// pooled connections build status line + headers + body into one
    /// reusable `Vec<u8>` and issue a single write. `keep_alive` controls
    /// the `Connection` header (and must match what the connection then
    /// does). Appends without clearing, which lets callers batch
    /// pipelined responses; integer formatting stays on the stack, so
    /// once the buffer has grown to its steady-state size this performs
    /// no heap allocation.
    pub fn write_into(&self, buf: &mut Vec<u8>, keep_alive: bool) {
        write!(
            buf,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .expect("writing into a Vec cannot fail");
        if let Some(allow) = &self.allow {
            write!(buf, "Allow: {allow}\r\n").expect("writing into a Vec cannot fail");
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&self.body);
    }

    /// Reads one response off `r` through [`read_frame`] and consumes its
    /// frame from `buf`, the connection's persistent read buffer. Returns
    /// the response and whether the server keeps the connection open.
    pub fn read_from<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<(Response, bool)> {
        let mut resp = Response {
            status: 0,
            content_type: Cow::Borrowed(DEFAULT_CONTENT_TYPE),
            allow: None,
            body: Vec::new(),
        };
        let message = match read_frame(r, buf, |bytes| parse_response_head(bytes, &mut resp))? {
            HeadOutcome::Complete(info) => {
                info.take_body(buf, &mut resp.body);
                return Ok((resp, info.keep_alive));
            }
            HeadOutcome::Reject { message, .. } => message,
            _ => "malformed HTTP response",
        };
        Err(io::Error::new(io::ErrorKind::InvalidData, message))
    }
}

/// The reason phrase for the status codes the workspace emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// A parsed head's framing facts, carried from head to body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadInfo {
    /// Bytes of start line + headers + terminating empty line.
    pub head_len: usize,
    /// Advertised `Content-Length` (0 when absent).
    pub content_length: usize,
    /// False when the peer sent `Connection: close`.
    pub keep_alive: bool,
}

impl HeadInfo {
    /// Total framed size: head plus body.
    pub fn total_len(&self) -> usize {
        self.head_len + self.content_length
    }

    /// Copies the frame's body out of `buf` into `body` (cleared first,
    /// capacity kept) and consumes the frame, sliding pipelined
    /// successors to the front. `buf` must hold the whole frame.
    pub fn take_body(&self, buf: &mut Vec<u8>, body: &mut Vec<u8>) {
        body.clear();
        body.extend_from_slice(&buf[self.head_len..self.total_len()]);
        buf.drain(..self.total_len());
    }
}

/// What one incremental head-parse attempt produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadOutcome {
    /// Head complete and parsed into the caller's scratch; the body (if
    /// any) still needs `content_length` bytes.
    Complete(HeadInfo),
    /// Not enough bytes yet; keep reading.
    Partial,
    /// Malformed or unsupported framing (bad start line, a header with no
    /// colon, a bad `Content-Length`, any `Transfer-Encoding`).
    Malformed,
    /// A size limit tripped but framing was intact enough to answer: a
    /// server writes this error (`Connection: close`), then drains.
    Reject {
        /// 413 (body too large) or 431 (head too large / too many
        /// headers); 502 for a response over the limits.
        status: u16,
        /// Human-readable reason for the error envelope.
        message: &'static str,
    },
}

/// One complete line (through `\n`) starting at `*pos`, or `None`.
fn next_line<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let rest = &buf[*pos..];
    let nl = rest.iter().position(|&b| b == b'\n')?;
    *pos += nl + 1;
    Some(&rest[..=nl])
}

/// Splits off the start line (request or status line), enforcing the head
/// cap even before its newline arrives.
fn start_line<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], HeadOutcome> {
    let too_long = HeadOutcome::Reject {
        status: 431,
        message: "request line too long",
    };
    match next_line(buf, pos) {
        Some(line) if line.len() > MAX_HEAD_BYTES => Err(too_long),
        Some(line) => Ok(line),
        None if buf.len() > MAX_HEAD_BYTES => Err(too_long),
        None => Err(HeadOutcome::Partial),
    }
}

/// The shared header loop: walks header lines from `*pos` to the empty
/// line, enforcing the head and field-count caps, and returns the framing
/// facts. `max_body` caps `Content-Length` (413 past it); every header
/// other than the framing ones goes to `other(name, value)`.
fn header_fields(
    buf: &[u8],
    pos: &mut usize,
    max_body: usize,
    mut other: impl FnMut(&str, &str),
) -> Result<HeadInfo, HeadOutcome> {
    let mut info = HeadInfo {
        head_len: 0,
        content_length: 0,
        keep_alive: true, // HTTP/1.1 default
    };
    let mut head_bytes = *pos;
    let mut headers = 0usize;
    loop {
        let Some(hline) = next_line(buf, pos) else {
            // An unterminated header line past the whole head budget can
            // never become legal; answer now instead of buffering on.
            return Err(if buf.len() - *pos > MAX_HEAD_BYTES {
                HeadOutcome::Reject {
                    status: 431,
                    message: "header line too long",
                }
            } else {
                HeadOutcome::Partial
            });
        };
        if hline.len() > MAX_HEAD_BYTES {
            return Err(HeadOutcome::Reject {
                status: 431,
                message: "header line too long",
            });
        }
        head_bytes += hline.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HeadOutcome::Reject {
                status: 431,
                message: "request head exceeds 8 KiB",
            });
        }
        let text = String::from_utf8_lossy(hline);
        let text = text.trim_end();
        if text.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HeadOutcome::Reject {
                status: 431,
                message: "too many header fields",
            });
        }
        let Some((name, value)) = text.split_once(':') else {
            return Err(HeadOutcome::Malformed);
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Parsed as u64 first so a body advertised beyond the cap is
            // rejected with 413, never buffered, and never wraps a 32-bit
            // usize.
            match value.parse::<u64>() {
                Ok(n) if n <= max_body as u64 => info.content_length = n as usize,
                Ok(_) => {
                    return Err(HeadOutcome::Reject {
                        status: 413,
                        message: "request body exceeds 1 MiB",
                    })
                }
                Err(_) => return Err(HeadOutcome::Malformed),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            info.keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HeadOutcome::Malformed); // unsupported
        } else {
            other(name, value);
        }
    }
    info.head_len = *pos;
    Ok(info)
}

/// Incrementally parses an HTTP/1.1 request head out of `buf`, writing
/// method, path and keep-alive into the reused `req` scratch (body is
/// left alone — the caller copies it once `content_length` bytes are
/// buffered, see [`HeadInfo::take_body`]). Re-run from scratch whenever
/// more bytes arrive; heads are capped at 8 KiB so the rescan stays
/// trivially cheap.
pub fn parse_head(buf: &[u8], req: &mut Request) -> HeadOutcome {
    request_head(buf, req).unwrap_or_else(|refused| refused)
}

fn request_head(buf: &[u8], req: &mut Request) -> Result<HeadOutcome, HeadOutcome> {
    let mut pos = 0usize;
    let text = String::from_utf8_lossy(start_line(buf, &mut pos)?);
    let mut parts = text.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HeadOutcome::Malformed);
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HeadOutcome::Malformed);
    }
    req.method.clear();
    req.method.push_str(method);
    req.method.make_ascii_uppercase();
    req.path.clear();
    req.path
        .push_str(target.split('?').next().unwrap_or(target));
    let info = header_fields(buf, &mut pos, MAX_BODY_BYTES, |_, _| {})?;
    req.keep_alive = info.keep_alive;
    Ok(HeadOutcome::Complete(info))
}

/// Incrementally parses an HTTP/1.1 response head out of `buf` into
/// `resp`: status, `Content-Type` (defaulting to JSON when absent) and
/// `Allow`; the body is left alone, as in [`parse_head`]. Same head
/// limits; bodies are capped at [`MAX_RESPONSE_BODY_BYTES`], and any
/// limit violation is a `Reject` with status 502.
pub fn parse_response_head(buf: &[u8], resp: &mut Response) -> HeadOutcome {
    let message = match response_head(buf, resp).unwrap_or_else(|refused| refused) {
        HeadOutcome::Reject { status: 413, .. } => "response body exceeds 4 MiB",
        HeadOutcome::Reject { .. } => "response head exceeds 8 KiB",
        outcome => return outcome,
    };
    HeadOutcome::Reject {
        status: 502,
        message,
    }
}

fn response_head(buf: &[u8], resp: &mut Response) -> Result<HeadOutcome, HeadOutcome> {
    let mut pos = 0usize;
    let text = String::from_utf8_lossy(start_line(buf, &mut pos)?);
    let mut parts = text.split_whitespace();
    let (Some(version), Some(Ok(status))) = (parts.next(), parts.next().map(str::parse::<u16>))
    else {
        return Err(HeadOutcome::Malformed);
    };
    if !version.starts_with("HTTP/1.") || !(100..=999).contains(&status) {
        return Err(HeadOutcome::Malformed);
    }
    resp.status = status;
    resp.content_type = Cow::Borrowed(DEFAULT_CONTENT_TYPE);
    resp.allow = None;
    let relayed = |name: &str, value: &str| {
        if name.eq_ignore_ascii_case("content-type") {
            resp.content_type = Cow::Owned(value.to_string());
        } else if name.eq_ignore_ascii_case("allow") {
            resp.allow = Some(Cow::Owned(value.to_string()));
        }
    };
    let info = header_fields(buf, &mut pos, MAX_RESPONSE_BODY_BYTES, relayed)?;
    Ok(HeadOutcome::Complete(info))
}

/// Blocking driver for either head parser: reads from `r` into `buf`
/// until `parse(buf)` reports a head *and* the whole frame is buffered, or
/// refuses. Buffered bytes (a pipelined successor) are parsed before any
/// read, and bytes past the frame stay in `buf` for the next call. An
/// unfinished head is buffered only as far as the parser needs to refuse
/// it — one byte past [`MAX_HEAD_BYTES`] for an endless start line, one
/// past twice that for an endless header line.
///
/// Never returns `Partial`. End of stream before a whole frame is
/// `UnexpectedEof` (with `buf` empty, a clean close between frames).
pub fn read_frame<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
    mut parse: impl FnMut(&[u8]) -> HeadOutcome,
) -> io::Result<HeadOutcome> {
    let mut head: Option<HeadInfo> = None;
    loop {
        let want = match head {
            Some(info) if buf.len() >= info.total_len() => {
                return Ok(HeadOutcome::Complete(info));
            }
            Some(info) => info.total_len() - buf.len(),
            None => match parse(buf) {
                HeadOutcome::Complete(info) => {
                    head = Some(info);
                    continue;
                }
                // Both head parsers refuse an unfinished head by then.
                HeadOutcome::Partial if buf.len() <= MAX_HEAD_BYTES => {
                    MAX_HEAD_BYTES + 1 - buf.len()
                }
                HeadOutcome::Partial => (2 * MAX_HEAD_BYTES + 1).saturating_sub(buf.len()).max(1),
                refused => return Ok(refused),
            },
        };
        let len = buf.len();
        buf.resize(len + want.min(READ_CHUNK), 0);
        let read = r.read(&mut buf[len..]);
        buf.truncate(len + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
