//! The proxy's one connection-serving model (DESIGN.md §13): a fixed pool
//! of workers that wait in epoll.
//!
//! - The **acceptor** thread blocks in `accept`, makes each socket
//!   nonblocking and registers it in one shared epoll set with
//!   `EPOLLONESHOT`. A failed `accept` (say, fd exhaustion) is counted in
//!   `accept_errors` and followed by a short fixed backoff, never a spin.
//! - `worker_threads` **workers** block in `epoll_wait`, one event at a
//!   time. One-shot arming means exactly one worker claims a ready
//!   connection. It reads without blocking into the connection's
//!   [`FrameParser`] and serves each complete frame itself through the
//!   unchanged `dispatch`: a memory hit and a disk, peer or origin miss
//!   alike, with no hand-off to another thread.
//! - Replies are queued as `[owned head, shared body]` segments and pushed
//!   with nonblocking vectored writes. A reply the socket cannot take at
//!   once parks the connection on `EV_WRITE`. No further frame is parsed
//!   or read while replies are queued, so a client that pipelines without
//!   reading is throttled by its own socket buffers.
//! - On would-block the worker re-arms the connection and goes back to
//!   waiting. An idle or dribbling connection costs an fd and a parser
//!   buffer, not a thread.
//!
//! Fault injection goes through the same [`write_reply_with_fault`] as the
//! blocking servers: a drop severs before handling, a stall sleeps the
//! serving worker mid-frame, a truncation closes after the half frame
//! flushes.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fault::{write_reply_with_fault, FaultKind, FaultPlan};
use crate::protocol::{encode_head, Body, FrameParser, Message};
use crate::proxy::{dispatch, verb_index, ProxyState, PROXY_VERBS};
use crate::sys::{Epoll, EpollEvent, WakeFd, EV_ERROR, EV_ONESHOT, EV_RDHUP, EV_READ, EV_WRITE};

/// Name of the serving model, reported in the STATS and HEALTH `Io-Mode`
/// headers and the `io_mode` label of `baps_build_info`, so every
/// recorded run says which model produced it.
pub const IO_MODEL: &str = "epoll-workers";

/// Pause after a failed `accept` before trying again. Under `EMFILE` the
/// pending connection stays queued and every retry fails at once; the
/// backoff turns that into at most one attempt per interval.
pub const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Token of the stop eventfd (never a connection token).
const STOP_TOKEN: u64 = u64::MAX;
/// Bytes read per `read` call on a ready socket.
const READ_CHUNK: usize = 16 << 10;
/// Most write-queue segments offered to one vectored write.
const MAX_IOVEC: usize = 16;
/// Interest of a connection waiting for its next request.
const WANT_READ: u32 = EV_READ | EV_RDHUP | EV_ONESHOT;
/// Interest of a connection parked on a partly written reply.
const WANT_WRITE: u32 = EV_WRITE | EV_ONESHOT;

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Always-on gauges of the serving workers that [`crate::pool::PoolTelemetry`]
/// does not already hold: registered connections and worker busy time.
/// (`PoolTelemetry` keeps the worker count, busy workers and queue wait.)
#[derive(Debug)]
pub(crate) struct ReactorTelemetry {
    registered: AtomicU64,
    registered_peak: AtomicU64,
    ready_events: AtomicU64,
    busy_nanos: AtomicU64,
    started: Instant,
}

impl ReactorTelemetry {
    pub(crate) fn new() -> ReactorTelemetry {
        ReactorTelemetry {
            registered: AtomicU64::new(0),
            registered_peak: AtomicU64::new(0),
            ready_events: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn conn_registered(&self) {
        let now = self.registered.fetch_add(1, Ordering::Relaxed) + 1;
        if now > self.registered_peak.load(Ordering::Relaxed) {
            self.registered_peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    fn conn_closed(&self) {
        self.registered.fetch_sub(1, Ordering::Relaxed);
    }

    /// Client connections currently registered in the epoll set.
    pub(crate) fn registered(&self) -> usize {
        self.registered.load(Ordering::Relaxed) as usize
    }
}

/// A point-in-time view of the serving workers, surfaced via
/// `ProxyServer::reactor_stats`, STATS headers, and `baps_reactor_*`
/// metrics.
#[derive(Debug, Clone)]
pub struct ReactorSnapshot {
    /// Connections currently registered in the epoll set.
    pub registered_fds: u64,
    /// Most connections simultaneously registered since start.
    pub registered_fds_peak: u64,
    /// Readiness events claimed by workers.
    pub ready_events: u64,
    /// Requests answered from memory or by an administrative verb (derived
    /// from the memory-hit counter and the per-verb histograms).
    pub inline_served: u64,
    /// Requests answered from disk, a peer or the origin (derived from
    /// those tiers' counters).
    pub offloaded: u64,
    /// Fraction of wall time the workers spent serving claimed
    /// connections rather than waiting in `epoll_wait` (0.0–1.0, averaged
    /// across workers).
    pub busy_fraction: f64,
}

/// The serving workers' snapshot for this proxy incarnation.
pub(crate) fn snapshot(state: &ProxyState) -> ReactorSnapshot {
    let t = &state.reactor;
    let served = state.counters.snapshot();
    let admin: u64 = (0..PROXY_VERBS.len())
        .filter(|&i| PROXY_VERBS[i] != "GET")
        .map(|i| state.obs.verbs.snapshot(i).count())
        .sum();
    let workers = state.telemetry.snapshot().workers.max(1);
    let elapsed = t.started.elapsed().as_nanos().max(1) as f64;
    let busy = t.busy_nanos.load(Ordering::Relaxed) as f64;
    ReactorSnapshot {
        registered_fds: t.registered.load(Ordering::Relaxed),
        registered_fds_peak: t.registered_peak.load(Ordering::Relaxed),
        ready_events: t.ready_events.load(Ordering::Relaxed),
        inline_served: served.proxy_hits + admin,
        offloaded: served.disk_hits + served.peer_hits + served.origin_fetches,
        busy_fraction: (busy / (elapsed * workers as f64)).min(1.0),
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    token: u64,
    peer_ip: IpAddr,
    accepted: Instant,
    /// Set by the first worker to claim the connection; until then it
    /// counts in the `Queue-Depth` gauge.
    claimed: AtomicBool,
    /// One-shot arming means only the claiming worker ever locks this.
    io: Mutex<ConnIo>,
}

struct ConnIo {
    parser: FrameParser,
    wq: WriteQueue,
    /// Close once the write queue drains (fault truncation).
    close_after_flush: bool,
    /// Accept-to-first-claim wait, attributed to the first sampled
    /// request as a `queue-wait` span.
    queue_wait: Option<Duration>,
}

/// State shared by the acceptor, the workers and the control surface.
struct Core {
    epoll: Epoll,
    stop_fd: WakeFd,
    stop: AtomicBool,
    /// Every registered connection, by epoll token. Workers look up the
    /// token of each claimed event here; a token that is gone belongs to
    /// a connection already severed.
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_token: AtomicU64,
    state: Arc<ProxyState>,
}

impl Core {
    fn register(&self, stream: TcpStream, peer_ip: IpAddr) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        let conn = Arc::new(Conn {
            stream,
            token,
            peer_ip,
            accepted: Instant::now(),
            claimed: AtomicBool::new(false),
            io: Mutex::new(ConnIo {
                parser: FrameParser::new(),
                wq: WriteQueue::new(),
                close_after_flush: false,
                queue_wait: None,
            }),
        });
        self.state.telemetry.enqueued();
        self.state.reactor.conn_registered();
        // Into the table before arming: the worker that claims the first
        // event must find the connection.
        self.conns.lock().insert(token, conn);
        if self.epoll.add(fd, token, WANT_READ).is_err()
            && self.conns.lock().remove(&token).is_some()
        {
            self.state.reactor.conn_closed();
            self.state.telemetry.enqueue_failed();
        }
    }

    /// Bookkeeping for a connection that left the table.
    fn retire(&self, conn: &Conn) {
        self.state.reactor.conn_closed();
        if !conn.claimed.swap(true, Ordering::Relaxed) {
            self.state.telemetry.abandoned();
        }
    }

    fn close(&self, conn: &Conn) {
        if self.conns.lock().remove(&conn.token).is_some() {
            self.retire(conn);
        }
    }

    /// Severs every registered connection. Closing is the severing: the
    /// table holds the only handle of each socket (a worker mid-serve
    /// holds a second reference to the same fd, not a duplicate fd).
    fn drop_all(&self) {
        let conns = std::mem::take(&mut *self.conns.lock());
        for conn in conns.into_values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.retire(&conn);
        }
    }

    fn accept_loop(&self, listener: TcpListener) {
        while !self.stop.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if self.stop.load(Ordering::Acquire) {
                        break;
                    }
                    self.register(stream, peer.ip());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.state
                        .counters
                        .accept_errors
                        .fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
    }

    fn worker_loop(&self) {
        let state = &*self.state;
        let mut events = [EpollEvent::default(); 1];
        let mut scratch = vec![0u8; READ_CHUNK];
        loop {
            match self.epoll.wait(&mut events, None) {
                Ok(0) => continue,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
            // Copy out of the (packed) event before using the fields.
            let token = events[0].data;
            let bits = events[0].events;
            if token == STOP_TOKEN || self.stop.load(Ordering::Acquire) {
                return;
            }
            let Some(conn) = self.conns.lock().get(&token).cloned() else {
                continue;
            };
            let t_busy = Instant::now();
            state.telemetry.task_started();
            state.reactor.ready_events.fetch_add(1, Ordering::Relaxed);
            let rearmed = serve_ready(&conn, bits, &mut scratch, state).is_some_and(|want| {
                self.epoll
                    .modify(conn.stream.as_raw_fd(), token, want)
                    .is_ok()
            });
            if !rearmed {
                self.close(&conn);
            }
            state.telemetry.task_finished();
            state
                .reactor
                .busy_nanos
                .fetch_add(t_busy.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Serves one claimed readiness event: flush queued replies, then parse
/// and serve frames, reading more bytes only when no complete frame is
/// buffered. Returns the interest to re-arm with, or `None` to close.
fn serve_ready(conn: &Conn, bits: u32, scratch: &mut [u8], state: &ProxyState) -> Option<u32> {
    if bits & EV_ERROR != 0 {
        return None;
    }
    let mut io = conn.io.lock();
    if !conn.claimed.swap(true, Ordering::Relaxed) {
        let wait = conn.accepted.elapsed();
        state.telemetry.dequeued(wait);
        io.queue_wait = Some(wait);
    }
    // A short read means the socket was drained: re-arm instead of paying
    // a read that would only say `EAGAIN`.
    let mut drained = false;
    loop {
        if !io.wq.is_empty() {
            match io.wq.flush(&mut &conn.stream) {
                Ok(true) => {}
                Ok(false) => return Some(WANT_WRITE),
                Err(_) => return None,
            }
        }
        if io.close_after_flush {
            return None;
        }
        match io.parser.next_frame() {
            Ok(Some(msg)) => {
                if !serve_frame(conn, &mut io, &msg, state) {
                    return None;
                }
                continue;
            }
            Ok(None) => {}
            // Protocol violation: close without a reply.
            Err(_) => return None,
        }
        if drained {
            return Some(WANT_READ);
        }
        match (&conn.stream).read(scratch) {
            Ok(0) => return None,
            Ok(n) => {
                io.parser.push(&scratch[..n]);
                drained = n < scratch.len();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Some(WANT_READ),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// One complete request frame: draw the fault decision (one RNG draw per
/// GET, in arrival order), run `dispatch`, and queue the reply.
/// `false` = close.
fn serve_frame(conn: &Conn, io: &mut ConnIo, msg: &Message, state: &ProxyState) -> bool {
    // One proxy-site fault decision per client-facing GET. The
    // administrative verbs stay honest so chaos runs can still register
    // clients and read counters.
    let fault = match (msg.tokens().first(), state.config.faults.as_deref()) {
        (Some(&"GET"), Some(plan)) => plan.proxy_fault(),
        _ => None,
    };
    if fault == Some(FaultKind::ProxyDrop) {
        // Sever before handling: the client sees EOF, redials, and
        // replays; the request is never counted.
        return false;
    }
    let t_verb = Instant::now();
    let reply = dispatch(msg, conn.peer_ip, &mut io.queue_wait, state);
    state
        .obs
        .verbs
        .record(verb_index(msg.tokens().first()), t_verb.elapsed());
    let Some(reply) = reply else {
        return true;
    };
    if fault.and_then(FaultKind::wire).is_none() {
        let Ok(head) = encode_head(&reply) else {
            return false;
        };
        io.wq.push_owned(head.into_bytes());
        io.wq.push_shared(Arc::clone(&reply.body));
        return true;
    }
    let stall = state
        .config
        .faults
        .as_deref()
        .map(FaultPlan::stall)
        .unwrap_or_default();
    let mut sink = QueueWriter {
        wq: &mut io.wq,
        stream: &conn.stream,
    };
    match write_reply_with_fault(&mut sink, &reply, fault, stall) {
        Ok(keep) => {
            io.close_after_flush = !keep;
            true
        }
        Err(_) => false,
    }
}

/// Adapts a connection's write queue to [`Write`] for the fault writer:
/// writes queue private copies, `flush` pushes what the socket takes now.
struct QueueWriter<'a> {
    wq: &'a mut WriteQueue,
    stream: &'a TcpStream,
}

impl Write for QueueWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.wq.push_owned(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.wq.flush(&mut self.stream).map(drop)
    }
}

// ---------------------------------------------------------------------------
// The server: acceptor + workers
// ---------------------------------------------------------------------------

/// The running serving model of one proxy incarnation.
pub(crate) struct EpollServer {
    core: Arc<Core>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EpollServer {
    /// Spawns the acceptor (`{name}`) on `listener` and `workers` serving
    /// workers (`{name}-worker-N`).
    pub(crate) fn start(
        name: &str,
        listener: TcpListener,
        workers: usize,
        state: Arc<ProxyState>,
    ) -> io::Result<EpollServer> {
        let workers = workers.max(1);
        state.telemetry.set_workers(workers as u64);
        let addr = listener.local_addr()?;
        let core = Arc::new(Core {
            epoll: Epoll::new()?,
            stop_fd: WakeFd::new()?,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
            state,
        });
        // Level-triggered: once written at stop, it wakes every waiter in
        // turn.
        core.epoll.add(core.stop_fd.raw(), STOP_TOKEN, EV_READ)?;
        let mut server = EpollServer {
            core: Arc::clone(&core),
            addr,
            acceptor: None,
            workers: Vec::with_capacity(workers),
        };
        for i in 0..workers {
            let core = Arc::clone(&core);
            server.workers.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || core.worker_loop())?,
            );
        }
        server.acceptor = Some(
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || core.accept_loop(listener))?,
        );
        Ok(server)
    }

    /// Severs every open client connection without stopping the server.
    /// Returns once every socket is shut down, so callers may assert on
    /// EOF at once.
    pub(crate) fn drop_all(&self) {
        self.core.drop_all();
    }

    /// Stops accepting, joins the acceptor and every worker, then closes
    /// the remaining connections (keep-alive clients see EOF). Workers
    /// never block on a client socket, so the joins wait at most for the
    /// miss or fault stall a worker is in.
    pub(crate) fn shutdown(&mut self) {
        self.core.stop.store(true, Ordering::Release);
        // Unblock the acceptor; it sees the flag and returns.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.core.stop_fd.wake();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for conn in std::mem::take(&mut *self.core.conns.lock()).into_values() {
            self.core.retire(&conn);
        }
    }
}

// ---------------------------------------------------------------------------
// Partial-write queue
// ---------------------------------------------------------------------------

enum SegBytes {
    /// Encoded head (or a fault-mangled private frame copy).
    Owned(Vec<u8>),
    /// The reply body, shared zero-copy with the cache.
    Shared(Body),
}

struct Segment {
    bytes: SegBytes,
    /// Bytes of this segment already written to the socket.
    pos: usize,
}

impl Segment {
    fn remaining(&self) -> &[u8] {
        let all = match &self.bytes {
            SegBytes::Owned(v) => v.as_slice(),
            SegBytes::Shared(b) => b,
        };
        &all[self.pos..]
    }
}

/// Pending reply bytes for one connection, flushed with vectored writes
/// that resume mid-segment after `EAGAIN`.
struct WriteQueue {
    segs: VecDeque<Segment>,
}

impl WriteQueue {
    fn new() -> WriteQueue {
        WriteQueue {
            segs: VecDeque::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    fn push_owned(&mut self, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.segs.push_back(Segment {
                bytes: SegBytes::Owned(bytes),
                pos: 0,
            });
        }
    }

    fn push_shared(&mut self, body: Body) {
        if !body.is_empty() {
            self.segs.push_back(Segment {
                bytes: SegBytes::Shared(body),
                pos: 0,
            });
        }
    }

    /// Advances the queue past `n` freshly written bytes.
    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let Some(front) = self.segs.front_mut() else {
                return;
            };
            let left = front.remaining().len();
            if n < left {
                front.pos += n;
                return;
            }
            n -= left;
            self.segs.pop_front();
        }
    }

    /// Writes as much as the socket accepts. `Ok(true)` = fully drained,
    /// `Ok(false)` = the kernel pushed back (`EAGAIN`); re-arm `EPOLLOUT`
    /// and continue from the same byte on the next writable event.
    fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while !self.segs.is_empty() {
            let bufs: Vec<IoSlice<'_>> = self
                .segs
                .iter()
                .take(MAX_IOVEC)
                .map(|s| IoSlice::new(s.remaining()))
                .collect();
            match w.write_vectored(&bufs) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection write stalled",
                    ))
                }
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{response, status};

    /// Writer that accepts at most `cap` bytes per call and then a
    /// `WouldBlock`, like a full socket send buffer.
    struct Throttled {
        out: Vec<u8>,
        cap: usize,
        blocked: bool,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.blocked {
                self.blocked = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            self.blocked = true;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_resumes_after_eagain_across_segments() {
        let reply = response(status::OK, "OK").with_body(b"shared-body-bytes".to_vec());
        let head = encode_head(&reply).unwrap();
        let mut expected = head.clone().into_bytes();
        expected.extend_from_slice(&reply.body);

        let mut wq = WriteQueue::new();
        wq.push_owned(head.into_bytes());
        wq.push_shared(Arc::clone(&reply.body));

        let mut sink = Throttled {
            out: Vec::new(),
            cap: 5,
            blocked: false,
        };
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < 1000, "flush must terminate");
            match wq.flush(&mut sink) {
                Ok(true) => break,
                Ok(false) => continue, // EAGAIN: a real loop would re-arm EPOLLOUT
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        assert!(wq.is_empty());
        assert_eq!(
            sink.out, expected,
            "byte-exact frame despite partial writes"
        );
    }
}
