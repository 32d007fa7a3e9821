//! Wire protocol of the live browsers-aware proxy.
//!
//! A minimal HTTP/1.0-flavoured text protocol: a start line, colon-separated
//! headers, a blank line, then an optional body of `Content-Length` bytes.
//! Methods:
//!
//! * `GET <url> BAPS/1.0` — client → proxy document fetch
//!   (header `Client: <id>`; optional `Bypass-Peers: 1` after a failed
//!   integrity check; optional `Evicted: <url> <url> …` carrying
//!   piggybacked eviction notices, processed before the GET — evictions
//!   don't spend a round trip each, see `INVALIDATE`);
//! * `PEERGET <url> BAPS/1.0` — proxy → peer browser-cache fetch
//!   (header `Txn: <id>`; deliberately **no requester identity**, §6.2);
//! * `PUSH <url> BAPS/1.0` — proxy → peer, *direct-forward mode* (paper
//!   §2's first implementation alternative): instructs the peer to push
//!   the document straight to the requester's delivery address
//!   (headers `Txn: <id>`, `Target: <host:port>`);
//! * `DELIVER <url> BAPS/1.0` — peer → requester direct delivery
//!   (headers `Txn: <id>`, `X-Watermark`; body = document);
//! * `INVALIDATE <url> BAPS/1.0` — client → proxy eviction notice
//!   (header `Client: <id>`);
//! * `REGISTER <peer-port> BAPS/1.0` — client → proxy enrolment
//!   (header `Client: <id>`);
//! * `STATS BAPS/1.0` — operator → proxy live-counter probe; the reply
//!   carries every [`ProxyCounters`] field as a header (`Requests`,
//!   `Proxy-Hits`, `Peer-Hits`, `Origin-Fetches`, `Invalidations`,
//!   `Peer-Failures`, `Direct-Pushes`);
//! * `METRICS BAPS/1.0` — operator → proxy metrics scrape; the reply body
//!   is a Prometheus text exposition (counters, per-shard gauges,
//!   per-tier/per-verb latency histograms — see DESIGN.md §9), with
//!   `Content-Type: text/plain; version=0.0.4`. Supersedes the ad-hoc
//!   `STATS` headers for monitoring; `STATS` remains for compatibility;
//! * `TRACE BAPS/1.0` — operator → proxy trace export; the reply body is
//!   JSONL, one span per line, drained from the proxy's flight recorder
//!   (`Content-Type: application/jsonl`, plus `Sample-One-In` naming the
//!   head-sampling rate). `trace_report` assembles the lines into causal
//!   span trees — see DESIGN.md §12;
//! * `GET <url> ORIGIN/1.0` — proxy → origin server fetch.
//!
//! Requests initiated on behalf of a client fetch additionally carry a
//! `Trace-Id: <16 hex digits>` header (minted by the requesting client,
//! forwarded by the proxy on `PEERGET`/`PUSH` and on the origin `GET`), so
//! one request can be followed through every component's flight-recorder
//! events.
//!
//! Head-sampled traces (a deterministic 1-in-N of trace ids, see
//! `baps_obs::span::sampled`) additionally carry a `Span-Id: <16 hex
//! digits>` header naming the **sender's hop span**: the client's root
//! span on `GET`, the proxy's probe/push/fetch hop spans on
//! `PEERGET`/`PUSH`/origin `GET`, and the pushing peer's serve span on
//! `DELIVER`. The receiver records its own spans with that id as the
//! parent, so span trees stitch across processes without any coordination
//! beyond the header.
//!
//! Responses: `BAPS/1.0 <code> <reason>` with `Content-Length`, `X-Source`
//! (`proxy` | `peer` | `origin`) and `X-Watermark` (hex, §6.1) headers.
//!
//! # Trailer form
//!
//! A frame whose head has a `Trailer` header carries a trailer block after
//! its body: header lines ended by a blank line, like a second head
//! ([`encode_trailer`]). The decoder appends the trailer fields to the
//! head's, so `get("X-Watermark")` finds a trailer watermark like a head
//! one, and head plus trailer together stay under [`MAX_HEAD_BYTES`] and
//! [`MAX_HEADERS`]. The proxy answers an origin miss of 64 KiB or more this
//! way: `Trailer: X-Watermark` in the head, the body sent while the proxy
//! hashes it, and the signed watermark in the trailer. The client hashes
//! the same bytes as they arrive ([`read_message_digested`]), so the two
//! MD5 passes of a miss overlap instead of running one after the other.
//! A reply with no watermark in its head or trailer is still refused.
//!
//! # Connection lifecycle (keep-alive)
//!
//! Every connection is **persistent**: both sides loop
//! `read_message` → handle → `write_message` until the peer closes, so one
//! TCP connection carries any number of request/response rounds. Framing
//! relies entirely on `Content-Length`, which is why [`write_message`]
//! refuses mismatched or duplicated lengths — one bad frame would
//! desynchronise every later message on the connection. [`read_message`]
//! returns `Ok(None)` on a clean close between messages, which handlers
//! treat as the end of the session. Clients hold one lazily-dialed
//! connection to the proxy and transparently redial (replaying the
//! in-flight request once) when the proxy drops it; the proxy keeps a pool
//! of kept-alive origin connections the same way. Every server (proxy,
//! origin, client peer port) parks idle connections in epoll and feeds a
//! [`FrameParser`] per connection, so an open connection costs an fd, not
//! a thread (DESIGN.md §13).
//!
//! [`ProxyCounters`]: crate::proxy::ProxyCounters

use baps_crypto::{Digest, Md5};
use baps_obs::{SpanId, TraceId};
use std::io::{self, BufRead, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum accepted header count (straightforward DoS hygiene).
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted body size.
pub const MAX_BODY: usize = 64 << 20;

/// A document body as shared immutable bytes. Cloning a `Body` is a
/// refcount bump, so a cached document travels cache → response frame →
/// peer → browser cache without ever being copied. The only copy is the
/// one `read_message` makes off the socket, straight into this
/// allocation.
pub type Body = Arc<[u8]>;

/// An empty [`Body`].
pub fn empty_body() -> Body {
    Arc::from(&[][..])
}

/// A parsed protocol message (request or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The start line, e.g. `GET /doc BAPS/1.0` or `BAPS/1.0 200 OK`.
    pub start: String,
    /// Header name/value pairs in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was present).
    pub body: Body,
}

impl Message {
    /// Creates a message with no headers and no body.
    pub fn new(start: impl Into<String>) -> Message {
        Message {
            start: start.into(),
            headers: Vec::new(),
            body: empty_body(),
        }
    }

    /// Appends a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Message {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Attaches a body (the `Content-Length` header is added on write).
    /// Accepts a `Vec<u8>` (converted once) or an existing [`Body`]
    /// (shared, no copy).
    pub fn with_body(mut self, body: impl Into<Body>) -> Message {
        self.body = body.into();
        self
    }

    /// First value of a header (case-insensitive name match).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Splits the start line into whitespace-separated tokens.
    pub fn tokens(&self) -> Vec<&str> {
        self.start.split_ascii_whitespace().collect()
    }

    /// The trace this message belongs to and the sender's hop span: the
    /// `Trace-Id` and `Span-Id` headers, each [`TraceId::NONE`] /
    /// [`SpanId::NONE`] when absent or malformed (administrative verbs
    /// carry neither; unsampled traces carry no span).
    pub fn trace_context(&self) -> (TraceId, SpanId) {
        (
            self.get("Trace-Id")
                .and_then(|h| h.parse().ok())
                .unwrap_or(TraceId::NONE),
            self.get("Span-Id")
                .and_then(|h| h.parse().ok())
                .unwrap_or(SpanId::NONE),
        )
    }
}

/// Dials `addr` with `deadline` as the connect timeout and installs it as
/// the read/write timeout on the resulting stream, so no later blocking
/// operation on this socket can outlive it. `Duration::ZERO` disables the
/// deadline entirely (plain blocking connect, no socket timeouts).
pub fn dial_with_deadline(addr: SocketAddr, deadline: Duration) -> io::Result<TcpStream> {
    let stream = if deadline.is_zero() {
        TcpStream::connect(addr)?
    } else {
        TcpStream::connect_timeout(&addr, deadline)?
    };
    stream.set_nodelay(true)?;
    if !deadline.is_zero() {
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
    }
    Ok(stream)
}

/// Writes a message, framing the body with exactly one `Content-Length`.
///
/// If the caller already set a `Content-Length` header it is kept (never
/// duplicated) and must match the actual body length — a mismatch returns
/// `InvalidInput` instead of emitting a frame the receiver would misread.
/// Duplicated or wrong lengths are fatal under keep-alive: the reader
/// honours the first header it sees, desynchronising every later message
/// on the connection.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    // One write per frame. Writing head and body separately triggers the
    // Nagle/delayed-ACK interaction on keep-alive connections: the kernel
    // holds the second small write until the peer ACKs the first, and the
    // peer delays that ACK up to ~40 ms waiting to piggyback it. A
    // vectored write keeps that single-syscall framing without copying the
    // body into a contiguous frame first (bodies are shared `Arc<[u8]>`).
    let head = encode_head(msg)?;
    let body = &msg.body[..];
    let total = head.len() + body.len();
    let mut written = 0;
    while written < total {
        let n = if written < head.len() {
            let bufs = [
                IoSlice::new(&head.as_bytes()[written..]),
                IoSlice::new(body),
            ];
            w.write_vectored(&bufs)?
        } else {
            w.write(&body[written - head.len()..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        written += n;
    }
    w.flush()
}

/// Serialises a message into one contiguous frame (what [`write_message`]
/// puts on the wire), applying the same `Content-Length` validation. The
/// fault injector uses this to truncate or stall frames mid-byte-stream;
/// the hot path uses [`write_message`], which never builds this copy.
pub fn encode_message(msg: &Message) -> io::Result<Vec<u8>> {
    let head = encode_head(msg)?;
    let mut frame = Vec::with_capacity(head.len() + msg.body.len());
    frame.extend_from_slice(head.as_bytes());
    frame.extend_from_slice(&msg.body);
    Ok(frame)
}

/// Serialises the start line and headers (through the terminating blank
/// line), validating any caller-supplied `Content-Length`.
pub(crate) fn encode_head(msg: &Message) -> io::Result<String> {
    if let Some(declared) = msg.get("Content-Length") {
        let declared: usize = declared.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unparsable Content-Length {declared:?}: {e}"),
            )
        })?;
        if declared != msg.body.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "Content-Length {} does not match body length {}",
                    declared,
                    msg.body.len()
                ),
            ));
        }
    }
    let mut head = String::with_capacity(64 + msg.headers.len() * 32);
    head.push_str(&msg.start);
    head.push_str("\r\n");
    for (name, value) in &msg.headers {
        debug_assert!(!name.contains(':') || name.eq_ignore_ascii_case("host"));
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if msg.get("Content-Length").is_none() {
        use std::fmt::Write as _;
        let _ = write!(head, "Content-Length: {}\r\n", msg.body.len());
    }
    head.push_str("\r\n");
    Ok(head)
}

/// Cap on the head (start line plus headers) of one frame, trailer block
/// included. A peer that never ends its head gets `InvalidData` here
/// instead of unbounded buffering; legitimate heads are a few hundred
/// bytes.
pub const MAX_HEAD_BYTES: usize = 1 << 20;

#[derive(Clone, Copy)]
enum ParseState {
    /// Expecting the start line.
    Start,
    /// Inside the head's header lines.
    Headers,
    /// Head done; the body is this many bytes.
    Body(usize),
    /// Body done; inside the trailer block the head announced.
    Trailer,
    /// The frame is complete.
    Done,
}

/// The frame parser: a resumable, sans-I/O decoder. Feed it raw bytes with
/// [`push`](Self::push) and pull complete frames with
/// [`next_frame`](Self::next_frame). The serving workers feed it from
/// nonblocking sockets; [`read_message`] is a thin blocking loop over it.
pub struct FrameParser {
    buf: Vec<u8>,
    /// Parse cursor into `buf`; everything before it has been consumed.
    pos: usize,
    /// Head and trailer bytes of the frame in progress consumed so far.
    head_bytes: usize,
    /// Bytes after `pos` already searched for a line end, so a head that
    /// dribbles in is scanned once, not once per push.
    scanned: usize,
    state: ParseState,
    start: String,
    headers: Vec<(String, String)>,
    /// The body of the frame in progress, once it is complete.
    body: Option<Body>,
}

impl Default for FrameParser {
    fn default() -> Self {
        FrameParser::new()
    }
}

impl FrameParser {
    /// A parser at a frame boundary with nothing buffered.
    pub fn new() -> FrameParser {
        FrameParser {
            buf: Vec::new(),
            pos: 0,
            head_bytes: 0,
            scanned: 0,
            state: ParseState::Start,
            start: String::new(),
            headers: Vec::new(),
            body: None,
        }
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, data: &[u8]) {
        // Compact once the consumed prefix is at least half the buffer:
        // amortized O(1) per byte however many frames one push carries.
        if self.pos > 0 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Whether the parser sits at a frame boundary with nothing buffered,
    /// i.e. whether EOF here is a clean close.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ParseState::Start) && self.pos == self.buf.len()
    }

    /// Returns the next complete frame, `Ok(None)` if more bytes are
    /// needed, or `InvalidData` for a malformed or oversized frame.
    pub fn next_frame(&mut self) -> io::Result<Option<Message>> {
        loop {
            match self.parse_lines()? {
                ParseState::Body(len) => {
                    if self.buf.len() - self.pos < len {
                        return Ok(None);
                    }
                    let body: Body = Arc::from(&self.buf[self.pos..self.pos + len]);
                    self.pos += len;
                    self.body_received(body);
                }
                ParseState::Done => break,
                _ => return Ok(None),
            }
        }
        if self.pos == self.buf.len() {
            self.pos = 0;
            self.buf.clear();
            // Do not pin a large body's allocation on an idle connection.
            if self.buf.capacity() > 64 << 10 {
                self.buf = Vec::new();
            }
        }
        Ok(Some(self.finish()))
    }

    /// Consumes complete head or trailer lines and returns the state
    /// reached: `Body` once the head is complete, `Done` once the frame
    /// is, any other state when more bytes are needed.
    fn parse_lines(&mut self) -> io::Result<ParseState> {
        loop {
            let state = self.state;
            if matches!(state, ParseState::Body(_) | ParseState::Done) {
                return Ok(state);
            }
            let Some(end) = self.next_line()? else {
                return Ok(state);
            };
            let line = std::str::from_utf8(&self.buf[self.pos..end])
                .map_err(|_| invalid("stream did not contain valid UTF-8"))?
                .trim_end();
            match state {
                ParseState::Start => {
                    if line.is_empty() {
                        return Err(invalid("empty start line"));
                    }
                    self.start = line.to_owned();
                    self.state = ParseState::Headers;
                }
                ParseState::Headers if line.is_empty() => {
                    self.state = ParseState::Body(content_length(&self.headers)?);
                }
                ParseState::Trailer if line.is_empty() => self.state = ParseState::Done,
                _ => {
                    // Trailer fields join the head's and share its caps.
                    if self.headers.len() >= MAX_HEADERS {
                        return Err(invalid("too many headers"));
                    }
                    let (name, value) = line
                        .split_once(':')
                        .ok_or_else(|| invalid(&format!("bad header: {line}")))?;
                    self.headers
                        .push((name.trim().to_owned(), value.trim().to_owned()));
                }
            }
            self.pos = end + 1;
        }
    }

    /// Records the frame's body; the trailer block follows if the head
    /// announced one (a `Trailer` header).
    fn body_received(&mut self, body: Body) {
        self.body = Some(body);
        let trailer = self
            .headers
            .iter()
            .any(|(n, _)| n.eq_ignore_ascii_case("Trailer"));
        self.state = if trailer {
            ParseState::Trailer
        } else {
            ParseState::Done
        };
    }

    /// End (index of the `\n`) of the next buffered head line, or `None`
    /// if the line is still incomplete. Enforces [`MAX_HEAD_BYTES`].
    fn next_line(&mut self) -> io::Result<Option<usize>> {
        let pending = &self.buf[self.pos..];
        let found = pending[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| self.scanned + i);
        let used = self.head_bytes + found.map_or(pending.len(), |i| i + 1);
        if used > MAX_HEAD_BYTES {
            return Err(invalid("frame head too large"));
        }
        self.scanned = if found.is_some() { 0 } else { pending.len() };
        Ok(found.map(|i| {
            self.head_bytes = used;
            self.pos + i
        }))
    }

    /// Hands out the completed frame, resetting for the next.
    fn finish(&mut self) -> Message {
        self.state = ParseState::Start;
        self.head_bytes = 0;
        Message {
            start: std::mem::take(&mut self.start),
            headers: std::mem::take(&mut self.headers),
            body: self.body.take().unwrap_or_else(empty_body),
        }
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

fn eof(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, msg.to_owned())
}

/// `Content-Length` of a completed head (first case-insensitive match,
/// like [`Message::get`]); zero if absent.
fn content_length(headers: &[(String, String)]) -> io::Result<usize> {
    let Some((_, value)) = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("Content-Length"))
    else {
        return Ok(0);
    };
    let len: usize = value
        .parse()
        .map_err(|e| invalid(&format!("bad length: {e}")))?;
    if len > MAX_BODY {
        return Err(invalid("body too large"));
    }
    Ok(len)
}

/// Whether a head carries a §6.1 watermark, in itself or announced for
/// its trailer.
fn carries_watermark(headers: &[(String, String)]) -> bool {
    headers.iter().any(|(n, v)| {
        n.eq_ignore_ascii_case("X-Watermark")
            || (n.eq_ignore_ascii_case("Trailer")
                && v.split(',')
                    .any(|f| f.trim().eq_ignore_ascii_case("X-Watermark")))
    })
}

/// Serialises a trailer block: the named fields, then the blank line that
/// ends the frame. It follows a body whose head announced the fields in a
/// `Trailer` header.
pub fn encode_trailer(fields: &[(&str, &str)]) -> Vec<u8> {
    let mut block = String::with_capacity(2 + fields.len() * 80);
    for (name, value) in fields {
        block.push_str(name);
        block.push_str(": ");
        block.push_str(value);
        block.push_str("\r\n");
    }
    block.push_str("\r\n");
    block.into_bytes()
}

/// The MD5 of a frame's body, computed chunk by chunk as the body was
/// read off the socket, and the time those updates took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiptDigest {
    /// MD5 of exactly the bytes in the returned message's body.
    pub digest: Digest,
    /// Time spent hashing during receipt.
    pub hash_time: Duration,
}

/// Reads one message; returns `None` on a cleanly closed connection.
///
/// A blocking loop over [`FrameParser`]: head and trailer lines are fed
/// one line at a time, so the reader never consumes bytes past the frame,
/// and the body is read straight into its final [`Body`] allocation.
pub fn read_message<R: BufRead>(r: &mut R) -> io::Result<Option<Message>> {
    Ok(read_frame(r, false)?.map(|(msg, _)| msg))
}

/// [`read_message`] that also hashes the body on receipt when the frame
/// carries a watermark (an `X-Watermark` header, or a `Trailer` that
/// announces one): each chunk is fed to MD5 as it lands, so verifying the
/// watermark needs no second pass over the body.
pub fn read_message_digested<R: BufRead>(
    r: &mut R,
) -> io::Result<Option<(Message, Option<ReceiptDigest>)>> {
    read_frame(r, true)
}

fn read_frame<R: BufRead>(
    r: &mut R,
    hash: bool,
) -> io::Result<Option<(Message, Option<ReceiptDigest>)>> {
    let mut parser = FrameParser::new();
    let len = loop {
        if let ParseState::Body(len) = parser.parse_lines()? {
            break len;
        }
        if !feed_line(r, &mut parser)? {
            if parser.is_idle() {
                return Ok(None);
            }
            return Err(eof("eof inside headers"));
        }
    };
    let mut hasher = (hash && carries_watermark(&parser.headers)).then(Md5::new);
    let (body, hash_time) = read_body(r, len, hasher.as_mut())?;
    parser.body_received(body);
    while !matches!(parser.parse_lines()?, ParseState::Done) {
        if !feed_line(r, &mut parser)? {
            return Err(eof("eof inside trailer"));
        }
    }
    let receipt = hasher.map(|h| ReceiptDigest {
        digest: h.finalize(),
        hash_time,
    });
    Ok(Some((parser.finish(), receipt)))
}

/// Moves the next line of `r`, or as much of it as is buffered, into
/// `parser`. `false` at EOF.
fn feed_line<R: BufRead>(r: &mut R, parser: &mut FrameParser) -> io::Result<bool> {
    let avail = r.fill_buf()?;
    if avail.is_empty() {
        return Ok(false);
    }
    let n = avail
        .iter()
        .position(|&b| b == b'\n')
        .map_or(avail.len(), |i| i + 1);
    parser.push(&avail[..n]);
    r.consume(n);
    Ok(true)
}

/// Reads a `len`-byte body into its final allocation, feeding each chunk
/// to `hasher` as it lands. Returns the body and the time spent hashing.
fn read_body<R: Read>(
    r: &mut R,
    len: usize,
    mut hasher: Option<&mut Md5>,
) -> io::Result<(Body, Duration)> {
    // The one copy: socket bytes straight into the shared allocation. It
    // is zeroed rather than filled, so a declared but unsent body stays
    // lazily mapped.
    // SAFETY: all-zero bytes are a valid `[u8]`.
    let mut body: Body = unsafe { Arc::<[u8]>::new_zeroed_slice(len).assume_init() };
    let buf = Arc::get_mut(&mut body).expect("a fresh allocation is unshared");
    let mut filled = 0;
    let mut hash_time = Duration::ZERO;
    while filled < len {
        let n = match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(eof("eof inside body")),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if let Some(h) = hasher.as_deref_mut() {
            let t = Instant::now();
            h.update(&buf[filled..filled + n]);
            hash_time += t.elapsed();
        }
        filled += n;
    }
    Ok((body, hash_time))
}

/// Response codes used by the protocol.
pub mod status {
    /// Success.
    pub const OK: u16 = 200;
    /// Conditional GET: the requester's copy (named by `If-Digest`) still
    /// matches the origin's, so no body is sent.
    pub const NOT_MODIFIED: u16 = 304;
    /// Document not found anywhere.
    pub const NOT_FOUND: u16 = 404;
    /// Peer no longer holds the document.
    pub const GONE: u16 = 410;
    /// Malformed request.
    pub const BAD_REQUEST: u16 = 400;
    /// The server failed internally (fault-injected origin errors).
    pub const SERVER_ERROR: u16 = 500;
    /// The document exists but no backend could serve it right now
    /// (origin unreachable after retries); clients may retry.
    pub const UNAVAILABLE: u16 = 503;
}

/// Builds a response message with the given status code.
pub fn response(code: u16, reason: &str) -> Message {
    Message::new(format!("BAPS/1.0 {code} {reason}"))
}

/// Parses the status code out of a response start line.
pub fn response_code(msg: &Message) -> Option<u16> {
    let tokens = msg.tokens();
    if tokens.len() < 2 || !tokens[0].starts_with("BAPS/") {
        return None;
    }
    tokens[1].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        write_message(&mut buf, msg).unwrap();
        read_message(&mut BufReader::new(Cursor::new(buf)))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let msg = Message::new("GET http://x/doc BAPS/1.0")
            .header("Client", "3")
            .header("Bypass-Peers", "1");
        let back = roundtrip(&msg);
        assert_eq!(back.start, msg.start);
        assert_eq!(back.get("Client"), Some("3"));
        assert_eq!(back.get("bypass-peers"), Some("1"));
        assert!(back.body.is_empty());
    }

    #[test]
    fn response_with_body_roundtrip() {
        let body = b"<html>doc body</html>".to_vec();
        let msg = response(status::OK, "OK")
            .header("X-Source", "peer")
            .with_body(body.clone());
        let back = roundtrip(&msg);
        assert_eq!(response_code(&back), Some(200));
        assert_eq!(back.get("X-Source"), Some("peer"));
        assert_eq!(&back.body[..], &body[..]);
        assert_eq!(back.get("Content-Length"), Some("21"));
    }

    #[test]
    fn empty_body_has_zero_length_header() {
        let back = roundtrip(&response(status::GONE, "Gone"));
        assert_eq!(back.get("Content-Length"), Some("0"));
        assert!(back.body.is_empty());
    }

    #[test]
    fn closed_stream_yields_none() {
        let mut r = BufReader::new(Cursor::new(Vec::<u8>::new()));
        assert!(read_message(&mut r).unwrap().is_none());
    }

    #[test]
    fn bad_header_rejected() {
        let raw = b"GET x BAPS/1.0\r\nnocolonhere\r\n\r\n".to_vec();
        let err = read_message(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_body_rejected() {
        let raw = b"BAPS/1.0 200 OK\r\nContent-Length: 10\r\n\r\nabc".to_vec();
        let err = read_message(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn eof_inside_headers_rejected() {
        let raw = b"GET x BAPS/1.0\r\nClient: 1\r\n".to_vec();
        let err = read_message(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// An unterminated head longer than the cap is refused at the cap, not
    /// buffered to EOF (a hostile peer answering `PEERGET` must not grow
    /// the proxy's memory without bound).
    #[test]
    fn unterminated_head_is_refused_at_the_cap() {
        let mut r = BufReader::new(Cursor::new(vec![b'a'; 4 * MAX_HEAD_BYTES]));
        let err = read_message(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let consumed = r.into_inner().position() as usize;
        assert!(
            consumed <= MAX_HEAD_BYTES + (64 << 10),
            "read {consumed} bytes before refusing"
        );
    }

    #[test]
    fn response_code_parsing() {
        assert_eq!(response_code(&response(410, "Gone")), Some(410));
        assert_eq!(response_code(&Message::new("GET x BAPS/1.0")), None);
        assert_eq!(response_code(&Message::new("BAPS/1.0")), None);
    }

    #[test]
    fn tokens_split() {
        let m = Message::new("PEERGET http://a/b BAPS/1.0");
        assert_eq!(m.tokens(), vec!["PEERGET", "http://a/b", "BAPS/1.0"]);
    }

    /// Regression: a caller-supplied `Content-Length` must not be emitted
    /// twice. The duplicate used to desynchronise keep-alive connections
    /// (the reader honours the first header, here the caller's copy, while
    /// the writer appended a second computed one).
    #[test]
    fn caller_content_length_not_duplicated() {
        let body = b"payload".to_vec();
        let msg = Message::new("BAPS/1.0 200 OK")
            .header("Content-Length", body.len().to_string())
            .with_body(body.clone());
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(
            text.matches("Content-Length").count(),
            1,
            "exactly one Content-Length header:\n{text}"
        );
        let back = read_message(&mut BufReader::new(Cursor::new(buf)))
            .unwrap()
            .unwrap();
        assert_eq!(&back.body[..], &body[..]);
    }

    /// Regression: a mismatched caller-supplied `Content-Length` is an
    /// error, not a silently corrupt frame.
    #[test]
    fn mismatched_content_length_rejected() {
        let msg = Message::new("BAPS/1.0 200 OK")
            .header("Content-Length", "3")
            .with_body(b"longer than three".to_vec());
        let err = write_message(&mut Vec::new(), &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let msg = Message::new("BAPS/1.0 200 OK").header("Content-Length", "not-a-number");
        let err = write_message(&mut Vec::new(), &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// Pipelining with caller-set lengths: back-to-back frames stay in sync
    /// (the keep-alive invariant).
    #[test]
    fn pipelined_with_explicit_lengths() {
        let mut buf = Vec::new();
        let a = Message::new("BAPS/1.0 200 OK")
            .header("Content-Length", "2")
            .with_body(b"ab".to_vec());
        let b = Message::new("BAPS/1.0 200 OK").with_body(b"xyz".to_vec());
        write_message(&mut buf, &a).unwrap();
        write_message(&mut buf, &b).unwrap();
        let mut r = BufReader::new(Cursor::new(buf));
        assert_eq!(&read_message(&mut r).unwrap().unwrap().body[..], b"ab");
        assert_eq!(&read_message(&mut r).unwrap().unwrap().body[..], b"xyz");
        assert!(read_message(&mut r).unwrap().is_none());
    }

    /// Attaching an existing `Body` shares it — no copy on the response
    /// build path.
    #[test]
    fn with_body_shares_allocation() {
        let body: Body = Arc::from(&b"shared bytes"[..]);
        let msg = response(status::OK, "OK").with_body(Arc::clone(&body));
        assert!(Arc::ptr_eq(&msg.body, &body));
        let clone = msg.clone();
        assert!(Arc::ptr_eq(&clone.body, &body), "clone is a refcount bump");
    }

    #[test]
    fn pipelined_messages() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::new("GET a BAPS/1.0")).unwrap();
        write_message(&mut buf, &Message::new("GET b BAPS/1.0")).unwrap();
        let mut r = BufReader::new(Cursor::new(buf));
        assert_eq!(read_message(&mut r).unwrap().unwrap().tokens()[1], "a");
        assert_eq!(read_message(&mut r).unwrap().unwrap().tokens()[1], "b");
        assert!(read_message(&mut r).unwrap().is_none());
    }
}
