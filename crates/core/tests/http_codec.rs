//! The HTTP/1.1 codec's contract, in two parts.
//!
//! * One table of hand-picked requests — well-formed, malformed,
//!   truncated and over every limit — each framed at every split point of
//!   its bytes and through the blocking `read_frame`.
//! * Seeded properties over generated traffic (a std-only splitmix64
//!   generator with fixed seeds, so failures reproduce exactly): valid
//!   requests parse identically alone or pipelined at every split point,
//!   mangled bytes never panic or report lengths past the buffer, and the
//!   response parser reads back everything `Response::write_into` writes.

use perfpred_core::http::{
    parse_head, parse_response_head, read_frame, HeadOutcome, Request, Response, MAX_BODY_BYTES,
    MAX_HEADERS, MAX_HEAD_BYTES,
};
use perfpred_core::Json;
use std::borrow::Cow;
use std::io::{self, Read};

/// splitmix64: a tiny, well-mixed deterministic generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// `min..=max` characters drawn from `alphabet`.
    fn token(&mut self, alphabet: &[u8], min: usize, max: usize) -> String {
        let len = min + self.below(max - min + 1);
        (0..len).map(|_| *self.pick(alphabet) as char).collect()
    }
}

/// What one framed request comes out as.
#[derive(Debug, Clone, PartialEq)]
enum Framed {
    Request(Request),
    Malformed,
    Reject(u16, &'static str),
    /// End of stream came first.
    Truncated,
}

fn req(method: &str, path: &str, body: &[u8], keep_alive: bool) -> Framed {
    Framed::Request(Request {
        method: method.into(),
        path: path.into(),
        body: body.to_vec(),
        keep_alive,
    })
}

/// Frames every request in `bytes` the way a connection does, with the
/// bytes arriving in two deliveries split at `split`: everything
/// completable from the first delivery is framed before the second.
fn frame_split(bytes: &[u8], split: usize) -> Vec<Framed> {
    let mut out = Vec::new();
    let mut buf = bytes[..split].to_vec();
    let mut scratch = Request::default();
    let mut delivered = false;
    loop {
        match parse_head(&buf, &mut scratch) {
            HeadOutcome::Complete(info) if buf.len() >= info.total_len() => {
                info.take_body(&mut buf, &mut scratch.body);
                out.push(Framed::Request(scratch.clone()));
                continue;
            }
            HeadOutcome::Complete(info) => assert!(info.head_len <= buf.len()),
            HeadOutcome::Partial => {}
            refused => return [out, vec![refusal(refused)]].concat(),
        }
        if delivered {
            if !buf.is_empty() {
                out.push(Framed::Truncated);
            }
            return out;
        }
        buf.extend_from_slice(&bytes[split..]);
        delivered = true;
    }
}

/// A reader handing out its bytes in chunks of pseudo-random size.
struct Chunked<'a> {
    bytes: &'a [u8],
    rng: SplitMix,
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = (1 + self.rng.below(64))
            .min(out.len())
            .min(self.bytes.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Frames every request in `bytes` through the blocking driver.
fn frame_blocking(bytes: &[u8], seed: u64) -> Vec<Framed> {
    let mut r = Chunked {
        bytes,
        rng: SplitMix(seed),
    };
    let (mut buf, mut scratch, mut out) = (Vec::new(), Request::default(), Vec::new());
    loop {
        let last = match read_frame(&mut r, &mut buf, |b| parse_head(b, &mut scratch)) {
            Ok(HeadOutcome::Complete(info)) => {
                assert!(info.total_len() <= buf.len(), "total_len past the buffer");
                info.take_body(&mut buf, &mut scratch.body);
                out.push(Framed::Request(scratch.clone()));
                continue;
            }
            Ok(refused) => refusal(refused),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && buf.is_empty() => return out,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Framed::Truncated,
            Err(e) => panic!("unexpected I/O error {e}"),
        };
        return [out, vec![last]].concat();
    }
}

fn refusal(outcome: HeadOutcome) -> Framed {
    match outcome {
        HeadOutcome::Malformed => Framed::Malformed,
        HeadOutcome::Reject { status, message } => Framed::Reject(status, message),
        other => panic!("{other:?} is not a refusal"),
    }
}

/// Checks one byte stream against its expected framing on every path.
fn check(bytes: &[u8], expect: &[Framed], seed: u64) {
    let name = String::from_utf8_lossy(&bytes[..bytes.len().min(60)]);
    assert_eq!(frame_blocking(bytes, seed), expect, "{name:?}: read_frame");
    for split in 0..=bytes.len() {
        assert_eq!(frame_split(bytes, split), expect, "{name:?}: split {split}");
    }
}

fn headers(count: usize, pad: usize) -> String {
    let mut raw = String::from("GET / HTTP/1.1\r\n");
    for i in 0..count {
        raw.push_str(&format!("X-H{i}: {}\r\n", "p".repeat(pad)));
    }
    raw + "\r\n"
}

#[test]
fn the_request_table() {
    let big = format!(
        "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    let too_big = Framed::Reject(413, "request body exceeds 1 MiB");
    let line_too_long = Framed::Reject(431, "request line too long");
    let cases: Vec<(Vec<u8>, Vec<Framed>)> = vec![
        (
            b"POST /predict?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 9\r\n\r\n{\"n\": 42}".into(),
            vec![req("POST", "/predict", b"{\"n\": 42}", true)],
        ),
        (
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".into(),
            vec![req("GET", "/healthz", b"", false)],
        ),
        (
            b"post /x HTTP/1.0\r\nCONTENT-LENGTH: 2\r\nconnection: CLOSE\r\n\r\nab".into(),
            vec![req("POST", "/x", b"ab", false)],
        ),
        (
            b"GET /lf HTTP/1.1\nHost: h\n\n".into(),
            vec![req("GET", "/lf", b"", true)],
        ),
        // Pipelined, and scratch reuse: the shorter second request keeps
        // no stale field of the first.
        (
            b"POST /long HTTP/1.1\r\nConnection: close\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n".into(),
            vec![req("POST", "/long", b"abc", false), req("GET", "/b", b"", true)],
        ),
        (headers(MAX_HEADERS, 1).into(), vec![req("GET", "/", b"", true)]),
        (Vec::new(), Vec::new()),
        (b"garbage\r\n\r\n".into(), vec![Framed::Malformed]),
        (b"GET / SPDY/9\r\n\r\n".into(), vec![Framed::Malformed]),
        (b"GET / HTTP/1.1\r\nno colon\r\n\r\n".into(), vec![Framed::Malformed]),
        // An unparseable Content-Length is malformed framing, not a 413.
        (
            b"POST / HTTP/1.1\r\nContent-Length: umpteen\r\n\r\n".into(),
            vec![Framed::Malformed],
        ),
        // Chunked transfer is refused; its body is never a next request.
        (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nGET /x HTTP/1.1\r\n\r\n".into(),
            vec![Framed::Malformed],
        ),
        (
            b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort".into(),
            vec![Framed::Truncated],
        ),
        (b"GET / HTTP/1.1\r\nHost: h\r\n".into(), vec![Framed::Truncated]),
        (vec![b'a'; MAX_HEAD_BYTES], vec![Framed::Truncated]),
        (big.into(), vec![too_big.clone()]),
        // A 64-bit length must not wrap on a 32-bit usize.
        (
            b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n".into(),
            vec![too_big],
        ),
        (
            headers(MAX_HEADERS + 1, 1).into(),
            vec![Framed::Reject(431, "too many header fields")],
        ),
        (
            headers(40, 250).into(),
            vec![Framed::Reject(431, "request head exceeds 8 KiB")],
        ),
        (
            headers(1, MAX_HEAD_BYTES).into(),
            vec![Framed::Reject(431, "header line too long")],
        ),
        (
            format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES)).into(),
            vec![line_too_long.clone()],
        ),
        (vec![b'a'; MAX_HEAD_BYTES + 1], vec![line_too_long]),
    ];
    for (seed, (bytes, expect)) in cases.iter().enumerate() {
        check(bytes, expect, seed as u64);
    }
}

#[test]
fn read_frame_buffers_at_most_one_byte_past_the_head_cap() {
    /// An endless stream of one byte, never a newline.
    struct Endless;
    impl Read for Endless {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            out.fill(b'a');
            Ok(out.len())
        }
    }
    let (mut buf, mut scratch) = (Vec::new(), Request::default());
    let outcome = read_frame(&mut Endless, &mut buf, |b| parse_head(b, &mut scratch)).unwrap();
    assert!(matches!(outcome, HeadOutcome::Reject { status: 431, .. }));
    assert_eq!(buf.len(), MAX_HEAD_BYTES + 1);
}

#[test]
fn responses_serialize_to_exact_bytes() {
    let mut obj = Json::obj();
    obj.set("a", 1.5);
    let cases = [
        (
            Response::text(200, "ok"),
            true,
            "200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 2\r\n\
             Connection: keep-alive\r\n\r\nok",
        ),
        (
            Response::json(200, &obj),
            true,
            "200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\
             Connection: keep-alive\r\n\r\n{\n  \"a\": 1.5\n}\n",
        ),
        (
            Response::error(503, "busy"),
            false,
            "503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 22\r\n\
             Connection: close\r\n\r\n{\n  \"error\": \"busy\"\n}\n",
        ),
        // A wrong verb keeps the connection; Allow sits inside the head.
        (
            Response::method_not_allowed("GET, POST"),
            true,
            "405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 36\r\n\
             Connection: keep-alive\r\nAllow: GET, POST\r\n\r\n\
             {\n  \"error\": \"method not allowed\"\n}\n",
        ),
    ];
    let (mut batch, mut expected) = (Vec::new(), String::new());
    for (resp, keep_alive, wire) in &cases {
        let mut out = Vec::new();
        resp.write_into(&mut out, *keep_alive);
        assert_eq!(String::from_utf8(out).unwrap(), format!("HTTP/1.1 {wire}"));
        // Appending batches pipelined responses back to back.
        resp.write_into(&mut batch, *keep_alive);
        expected += &format!("HTTP/1.1 {wire}");
    }
    assert_eq!(String::from_utf8(batch).unwrap(), expected);
}

#[test]
fn response_heads_refuse_what_requests_refuse() {
    let mut scratch = Response::text(0, "");
    let mut parse = |raw: &str| parse_response_head(raw.as_bytes(), &mut scratch);
    assert_eq!(parse("not http\r\n\r\n"), HeadOutcome::Malformed);
    assert_eq!(parse("HTTP/1.1 abc\r\n\r\n"), HeadOutcome::Malformed);
    assert_eq!(parse("SPDY/9 200 OK\r\n\r\n"), HeadOutcome::Malformed);
    let chunked = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
    assert_eq!(parse(chunked), HeadOutcome::Malformed);
    assert_eq!(parse("HTTP/1.1 200 OK\r\n"), HeadOutcome::Partial);
    let length = |n: usize| format!("HTTP/1.1 200 OK\r\nContent-Length: {n}\r\n\r\n");
    let fits = parse(&length(4 << 20));
    assert!(matches!(fits, HeadOutcome::Complete(i) if i.content_length == 4 << 20));
    let over = parse(&length((4 << 20) + 1));
    assert!(matches!(over, HeadOutcome::Reject { status: 502, .. }));
    // No Content-Length is an empty body; no Content-Type reads as JSON.
    let raw = b"HTTP/1.1 204 No Content\r\n\r\n";
    let (resp, keep_alive) = Response::read_from(&mut &raw[..], &mut Vec::new()).unwrap();
    assert_eq!((resp.status, resp.body.len(), keep_alive), (204, 0, true));
    assert_eq!(resp.content_type, "application/json");
}

// ---- seeded properties --------------------------------------------------

const TOKEN: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~";
const VALUE: &[u8] = b"abcdefghijklmnopqrstuvwxyz ABCDEFGHIJ0123456789-_.,;=/\"()";

/// One random well-formed request and the bytes that carry it.
fn gen_request(rng: &mut SplitMix) -> (Framed, Vec<u8>) {
    let method = *rng.pick(&["GET", "POST", "PUT", "DELETE", "get", "Post"]);
    let path = format!("/{}", rng.token(TOKEN, 0, 23));
    let query = if rng.chance(30) {
        format!("?{}={}", rng.token(TOKEN, 1, 6), rng.token(TOKEN, 0, 5))
    } else {
        String::new()
    };
    let version = rng.pick(&["HTTP/1.1", "HTTP/1.0"]);
    let eol = *rng.pick(&["\r\n", "\n"]);
    let len = if rng.chance(50) { rng.below(300) } else { 0 };
    let body: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
    let keep_alive = !rng.chance(25);
    let mut fields: Vec<String> = (0..rng.below(6))
        .map(|_| {
            let name = rng.token(TOKEN, 1, 10);
            format!("X-{name}: {}", rng.token(VALUE, 0, 39).trim())
        })
        .collect();
    if !body.is_empty() || rng.chance(20) {
        fields.push(format!("Content-Length: {}", body.len()));
    }
    if !keep_alive {
        fields.push("Connection: close".into());
    } else if rng.chance(30) {
        fields.push("Connection: keep-alive".into());
    }
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.below(i + 1)); // field order is free
    }
    let mut head = format!("{method} {path}{query} {version}{eol}");
    for field in &fields {
        head += &format!("{field}{eol}");
    }
    let bytes = [(head + eol).into_bytes(), body.clone()].concat();
    let method = method.to_ascii_uppercase();
    (req(&method, &path, &body, keep_alive), bytes)
}

#[test]
fn valid_requests_parse_identically_alone_or_pipelined_at_every_split() {
    let mut rng = SplitMix(0x4854_5450_0001);
    for case in 0..150 {
        let (mut stream, mut expect) = (Vec::new(), Vec::new());
        for _ in 0..1 + rng.below(4) {
            let (request, bytes) = gen_request(&mut rng);
            stream.extend_from_slice(&bytes);
            expect.push(request);
        }
        check(&stream, &expect, case);
    }
}

#[test]
fn truncated_and_flipped_bytes_never_panic_or_overrun() {
    let mut rng = SplitMix(0x4854_5450_0002);
    for _ in 0..3000 {
        let (_, mut bytes) = gen_request(&mut rng);
        for _ in 0..rng.below(5) {
            let (at, any) = (rng.below(bytes.len()), rng.next() as u8);
            bytes[at] = *rng.pick(&[b'\n', b'\r', b':', b' ', 0, 0xFF, any]);
        }
        if rng.chance(50) {
            bytes.truncate(rng.below(bytes.len() + 1));
        }
        // Both parsers, sans-IO and blocking: no panic, and no frame
        // reported past the bytes actually buffered.
        if let HeadOutcome::Complete(info) = parse_head(&bytes, &mut Request::default()) {
            assert!(info.head_len <= bytes.len());
        }
        frame_blocking(&bytes, rng.next());
        let mut resp = Response::text(0, "");
        if let HeadOutcome::Complete(info) = parse_response_head(&bytes, &mut resp) {
            assert!(info.head_len <= bytes.len());
        }
        let mut buf = Vec::new();
        let parse = |b: &[u8]| parse_response_head(b, &mut resp);
        if let Ok(HeadOutcome::Complete(info)) = read_frame(&mut &bytes[..], &mut buf, parse) {
            assert!(info.total_len() <= buf.len());
        }
    }
}

#[test]
fn the_response_parser_reads_back_every_write_into_output() {
    let mut rng = SplitMix(0x4854_5450_0003);
    for case in 0..300 {
        let (mut wire, mut sent) = (Vec::new(), Vec::new());
        for _ in 0..1 + rng.below(3) {
            let status = if rng.chance(70) {
                *rng.pick(&[200, 400, 404, 405, 409, 413, 429, 431, 500, 503, 504])
            } else {
                100 + rng.below(900) as u16
            };
            let content_type = if rng.chance(50) {
                Cow::Borrowed(*rng.pick(&["application/json", "text/plain; charset=utf-8"]))
            } else {
                Cow::Owned(format!("application/{}", rng.token(TOKEN, 1, 12)))
            };
            let allow = rng
                .chance(30)
                .then(|| *rng.pick(&["GET", "POST", "GET, POST"]));
            let resp = Response {
                status,
                content_type,
                allow: allow.map(Cow::Borrowed),
                body: (0..rng.below(2000)).map(|_| rng.next() as u8).collect(),
            };
            let keep_alive = rng.chance(70);
            resp.write_into(&mut wire, keep_alive);
            sent.push((resp, keep_alive));
        }
        let mut r = Chunked {
            bytes: &wire,
            rng: SplitMix(case),
        };
        let mut buf = Vec::new();
        for expect in &sent {
            let got = Response::read_from(&mut r, &mut buf).unwrap();
            assert_eq!(&got, expect, "case {case}");
        }
        assert!(
            buf.is_empty() && r.bytes.is_empty(),
            "case {case}: bytes left over"
        );
    }
}
