//! Property-based tests of the wire protocol's one codec: round-trips,
//! pipelining, split delivery, trailer blocks, hashing on receipt, and
//! robustness against arbitrary (malformed) byte streams.

use baps_crypto::md5;
use baps_proxy::protocol::{MAX_BODY, MAX_HEADERS, MAX_HEAD_BYTES};
use baps_proxy::{
    encode_message, encode_trailer, read_message, read_message_digested, write_message,
    FrameParser, Message,
};
use proptest::prelude::*;
use std::io::{BufReader, Read};

/// Header names: token characters only (no colon / control bytes).
fn header_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,20}"
}

/// Header values: printable, no CR/LF, trimmed equals itself.
fn header_value() -> impl Strategy<Value = String> {
    "[!-~][ -~]{0,40}"
        .prop_map(|s| s.trim().to_owned())
        .prop_filter("non-empty", |s| !s.is_empty())
}

fn message() -> impl Strategy<Value = Message> {
    (
        "[A-Z]{3,8} [!-~]{1,40} BAPS/1\\.0",
        proptest::collection::vec((header_name(), header_value()), 0..8),
        proptest::collection::vec(any::<u8>(), 0..2048),
    )
        .prop_map(|(start, headers, body)| {
            let mut msg = Message::new(start);
            for (name, value) in headers {
                // Content-Length is managed by the writer.
                if !name.eq_ignore_ascii_case("content-length") {
                    msg = msg.header(name, value);
                }
            }
            msg.with_body(body)
        })
}

proptest! {
    /// Any well-formed message survives a write/read round-trip.
    #[test]
    fn message_roundtrip(msg in message()) {
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let back = read_message(&mut BufReader::new(buf.as_slice()))
            .unwrap()
            .expect("one message");
        prop_assert_eq!(&back.start, &msg.start);
        prop_assert_eq!(&back.body, &msg.body);
        for (name, value) in &msg.headers {
            prop_assert_eq!(back.get(name), Some(value.as_str()), "header {}", name);
        }
    }

    /// Pipelined messages are read back in order, then EOF.
    #[test]
    fn pipelining(msgs in proptest::collection::vec(message(), 0..5)) {
        let mut buf = Vec::new();
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut reader = BufReader::new(buf.as_slice());
        for m in &msgs {
            let back = read_message(&mut reader).unwrap().expect("message");
            prop_assert_eq!(&back.start, &m.start);
            prop_assert_eq!(&back.body, &m.body);
        }
        prop_assert!(read_message(&mut reader).unwrap().is_none());
    }

    /// Arbitrary garbage never panics the reader: it either parses or
    /// errors (no hangs either — the input is finite).
    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut reader = BufReader::new(bytes.as_slice());
        // Drain up to a few messages; all outcomes are acceptable except a
        // panic.
        for _ in 0..4 {
            match read_message(&mut reader) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// A truncated valid stream errors rather than fabricating a message.
    #[test]
    fn truncation_detected(msg in message(), cut in 1usize..64) {
        prop_assume!(!msg.body.is_empty());
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let cut = cut.min(msg.body.len());
        buf.truncate(buf.len() - cut);
        let result = read_message(&mut BufReader::new(buf.as_slice()));
        prop_assert!(result.is_err(), "truncated body must error");
    }

    /// A stream that ends inside the header section (before the blank
    /// line) errors instead of fabricating a message or hanging.
    #[test]
    fn truncated_header_section_rejected(msg in message(), frac in 0.0f64..1.0) {
        prop_assume!(!msg.body.is_empty());
        let frame = encode_message(&msg).unwrap();
        let head_len = frame.len() - msg.body.len();
        // Keep at least the first byte, cut strictly before the final
        // CRLF of the blank line so the header section never completes.
        let cut = 1 + ((head_len - 2) as f64 * frac) as usize;
        let result = read_message(&mut BufReader::new(&frame[..cut.min(head_len - 1)]));
        prop_assert!(result.is_err(), "truncated headers must error");
    }

    /// A Content-Length above the frame cap is rejected up front — the
    /// reader must not allocate or wait for the declared bytes.
    #[test]
    fn oversized_content_length_rejected(extra in 1u64..1_000_000_000) {
        let declared = MAX_BODY as u64 + extra;
        let raw = format!("BAPS/1.0 200 OK\r\nContent-Length: {declared}\r\n\r\n");
        let result = read_message(&mut BufReader::new(raw.as_bytes()));
        prop_assert!(result.is_err(), "oversized length must error");
    }

    /// Negative, fractional, overflowing, or non-numeric Content-Length
    /// values are rejected as malformed.
    #[test]
    fn malformed_content_length_rejected(
        bad in "-[0-9]{1,9}|[0-9]{1,6}\\.[0-9]{1,3}|[A-Za-z]{1,8}|[0-9]{30,40}| |0x[0-9a-f]{1,8}",
    ) {
        let raw = format!("GET /x BAPS/1.0\r\nContent-Length: {bad}\r\n\r\n");
        let result = read_message(&mut BufReader::new(raw.as_bytes()));
        prop_assert!(result.is_err(), "malformed length {bad:?} must error");
    }

    /// A body shorter than its declared Content-Length errors; the reader
    /// never hands back fewer bytes than the frame promised.
    #[test]
    fn body_shorter_than_declared_rejected(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        delta in 1usize..4096,
    ) {
        let mut raw = format!(
            "BAPS/1.0 200 OK\r\nContent-Length: {}\r\n\r\n",
            body.len() + delta
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let result = read_message(&mut BufReader::new(raw.as_slice()));
        prop_assert!(result.is_err(), "short body must error");
    }
}

/// Decodes every complete frame buffered in `parser`.
fn drain(parser: &mut FrameParser) -> Vec<Message> {
    let mut out = Vec::new();
    while let Some(msg) = parser.next_frame().expect("valid stream") {
        out.push(msg);
    }
    out
}

proptest! {
    /// One codec: a stream of valid frames decodes to the same messages
    /// whether the parser gets it whole, split at random points, or
    /// through the blocking `read_message` adapter.
    #[test]
    fn frames_decode_the_same_however_the_bytes_arrive(
        msgs in proptest::collection::vec(message(), 1..4),
        cuts in proptest::collection::vec(0usize..8192, 0..8),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            write_message(&mut stream, m).unwrap();
        }

        let mut whole = FrameParser::new();
        whole.push(&stream);
        let whole = drain(&mut whole);

        let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        points.sort_unstable();
        points.push(stream.len());
        let mut split = FrameParser::new();
        let mut pieces = Vec::new();
        let mut prev = 0;
        for p in points {
            split.push(&stream[prev..p]);
            prev = p;
            pieces.extend(drain(&mut split));
        }
        prop_assert!(split.is_idle(), "nothing left over after the last frame");

        let mut reader = BufReader::new(stream.as_slice());
        let mut blocking = Vec::new();
        while let Some(m) = read_message(&mut reader).unwrap() {
            blocking.push(m);
        }

        prop_assert_eq!(&pieces, &whole);
        prop_assert_eq!(&blocking, &whole);
        prop_assert_eq!(whole.len(), msgs.len());
        for (got, sent) in whole.iter().zip(&msgs) {
            prop_assert_eq!(&got.start, &sent.start);
            prop_assert_eq!(&got.body, &sent.body);
        }
    }
}

/// Malformed inputs are refused with `InvalidData` by the parser (fed
/// whole or in small pieces) and by `read_message` alike.
#[test]
fn malformed_frames_are_refused_by_every_entry_point() {
    let mut too_many = String::from("GET /x BAPS/1.0\r\n");
    for i in 0..=MAX_HEADERS {
        too_many.push_str(&format!("H{i}: v\r\n"));
    }
    too_many.push_str("\r\n");
    let table: Vec<(&str, Vec<u8>)> = vec![
        ("empty start line", b"\r\n".to_vec()),
        (
            "header without a colon",
            b"GET /x BAPS/1.0\r\nnot-a-header\r\n\r\n".to_vec(),
        ),
        (
            "unparsable Content-Length",
            b"GET /x BAPS/1.0\r\nContent-Length: nope\r\n\r\n".to_vec(),
        ),
        (
            "oversized body",
            format!(
                "GET /x BAPS/1.0\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .into_bytes(),
        ),
        ("too many headers", too_many.into_bytes()),
        ("non-UTF-8 head", b"GET /\xff\xfe BAPS/1.0\r\n\r\n".to_vec()),
        ("unterminated head", vec![b'a'; MAX_HEAD_BYTES + 2]),
    ];
    for (what, bytes) in table {
        let mut whole = FrameParser::new();
        whole.push(&bytes);
        let err = whole.next_frame().expect_err(what);
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{what} (whole)"
        );

        let piece = if bytes.len() > 4096 { 4096 } else { 1 };
        let mut split = FrameParser::new();
        let outcome = bytes.chunks(piece).find_map(|c| {
            split.push(c);
            split.next_frame().err()
        });
        let err = outcome.unwrap_or_else(|| panic!("{what}: accepted in pieces"));
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{what} (pieces)"
        );

        let err = read_message(&mut BufReader::new(bytes.as_slice())).expect_err(what);
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{what} (read_message)"
        );
    }
}

/// Encodes `msg` as a trailer-form frame: the head announces
/// `X-Watermark` in a `Trailer` header, and the field follows the body.
fn trailer_frame(msg: &Message, watermark: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    write_message(&mut frame, &msg.clone().header("Trailer", "X-Watermark")).unwrap();
    frame.extend_from_slice(&encode_trailer(&[("X-Watermark", watermark)]));
    frame
}

fn watermark_hex() -> impl Strategy<Value = String> {
    "[0-9a-f]{64}"
}

/// A reader that hands out at most the next planned number of bytes per
/// `read`, like a socket that delivers a body in short pieces.
struct ShortReads<'a> {
    data: &'a [u8],
    plan: Vec<usize>,
    next: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.plan[self.next % self.plan.len()];
        self.next += 1;
        let n = step.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

proptest! {
    /// Trailer-form frames, mixed with head-form ones, decode to the same
    /// messages through the parser fed whole, the parser fed at random
    /// byte boundaries, and `read_message`; the trailer field joins the
    /// headers.
    #[test]
    fn trailer_frames_decode_the_same_however_the_bytes_arrive(
        msgs in proptest::collection::vec((message(), any::<bool>(), watermark_hex()), 1..4),
        cuts in proptest::collection::vec(0usize..8192, 0..12),
    ) {
        let mut stream = Vec::new();
        for (m, trailer, wm) in &msgs {
            if *trailer {
                stream.extend_from_slice(&trailer_frame(m, wm));
            } else {
                write_message(&mut stream, m).unwrap();
            }
        }

        let mut whole = FrameParser::new();
        whole.push(&stream);
        let whole = drain(&mut whole);

        let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        points.sort_unstable();
        points.push(stream.len());
        let mut split = FrameParser::new();
        let mut pieces = Vec::new();
        let mut prev = 0;
        for p in points {
            split.push(&stream[prev..p]);
            prev = p;
            pieces.extend(drain(&mut split));
        }
        prop_assert!(split.is_idle(), "nothing left over after the last frame");

        let mut reader = BufReader::new(stream.as_slice());
        let mut blocking = Vec::new();
        while let Some(m) = read_message(&mut reader).unwrap() {
            blocking.push(m);
        }

        prop_assert_eq!(&pieces, &whole);
        prop_assert_eq!(&blocking, &whole);
        prop_assert_eq!(whole.len(), msgs.len());
        for (got, (sent, trailer, wm)) in whole.iter().zip(&msgs) {
            prop_assert_eq!(&got.start, &sent.start);
            prop_assert_eq!(&got.body, &sent.body);
            if *trailer {
                prop_assert_eq!(got.get("X-Watermark"), Some(wm.as_str()));
            }
        }
    }

    /// A stream that ends inside the trailer block is `UnexpectedEof`,
    /// never a message without its watermark.
    #[test]
    fn truncated_trailer_is_unexpected_eof(
        msg in message(),
        wm in watermark_hex(),
        cut in 1usize..70,
    ) {
        let frame = trailer_frame(&msg, &wm);
        let trailer_len = encode_trailer(&[("X-Watermark", &wm)]).len();
        let cut = cut.min(trailer_len);
        let err = read_message(&mut BufReader::new(&frame[..frame.len() - cut]))
            .expect_err("truncated trailer");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        let mut parser = FrameParser::new();
        parser.push(&frame[..frame.len() - cut]);
        prop_assert!(parser.next_frame().unwrap().is_none());
        prop_assert!(!parser.is_idle(), "EOF here is not a clean close");
    }

    /// The digest taken on receipt is the MD5 of exactly the body handed
    /// back, however short the reads that delivered it.
    #[test]
    fn receipt_digest_is_md5_of_the_body(
        body in proptest::collection::vec(any::<u8>(), 0..200_000),
        plan in proptest::collection::vec(1usize..5000, 1..16),
        in_trailer in any::<bool>(),
        wm in watermark_hex(),
    ) {
        let msg = Message::new("BAPS/1.0 200 OK").with_body(body.clone());
        let frame = if in_trailer {
            trailer_frame(&msg, &wm)
        } else {
            encode_message(&msg.header("X-Watermark", wm.clone())).unwrap()
        };
        let mut reader = BufReader::with_capacity(
            64,
            ShortReads { data: &frame, plan, next: 0 },
        );
        let (back, receipt) = read_message_digested(&mut reader).unwrap().expect("frame");
        prop_assert_eq!(&back.body[..], &body[..]);
        prop_assert_eq!(back.get("X-Watermark"), Some(wm.as_str()));
        prop_assert_eq!(receipt.expect("a watermarked frame is hashed").digest, md5(&body));
    }
}

/// Frames without a watermark are not hashed on receipt: only a body the
/// client will verify pays for MD5.
#[test]
fn unwatermarked_frames_are_not_hashed() {
    let mut frame = Vec::new();
    write_message(
        &mut frame,
        &Message::new("BAPS/1.0 200 OK").with_body(b"stats".to_vec()),
    )
    .unwrap();
    let (_, receipt) = read_message_digested(&mut BufReader::new(frame.as_slice()))
        .unwrap()
        .unwrap();
    assert!(receipt.is_none());
}

/// A trailer block that never ends is refused at the head cap, by the
/// parser and by `read_message`, like an unterminated head.
#[test]
fn oversized_trailer_hits_the_head_cap() {
    let msg = Message::new("BAPS/1.0 200 OK")
        .header("Trailer", "X-Watermark")
        .with_body(b"body".to_vec());
    let mut frame = encode_message(&msg).unwrap();
    frame.extend_from_slice(b"X-Watermark: ");
    frame.resize(frame.len() + MAX_HEAD_BYTES, b'a');

    let mut parser = FrameParser::new();
    parser.push(&frame);
    let err = parser.next_frame().expect_err("oversized trailer");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    let err = read_message(&mut BufReader::new(frame.as_slice())).expect_err("oversized trailer");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Trailer fields count against the head's header cap too.
    let mut frame = encode_message(&msg).unwrap();
    for i in 0..MAX_HEADERS {
        frame.extend_from_slice(format!("T{i}: v\r\n").as_bytes());
    }
    frame.extend_from_slice(b"\r\n");
    let err = read_message(&mut BufReader::new(frame.as_slice())).expect_err("too many fields");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
