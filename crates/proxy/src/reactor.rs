//! The one connection-serving model of every server in this crate: the
//! proxy, the origin and each client's peer port (DESIGN.md §13). A fixed
//! pool of workers waits in epoll.
//!
//! - The **acceptor** thread blocks in `accept`, makes each socket
//!   nonblocking and registers it in one shared epoll set with
//!   `EPOLLONESHOT`. A failed `accept` (say, fd exhaustion) is counted in
//!   the server's telemetry and followed by a short fixed backoff, never a
//!   spin.
//! - The **workers** block in `epoll_wait`, one event at a time. One-shot
//!   arming means exactly one worker claims a ready connection. It reads
//!   without blocking into the connection's [`FrameParser`] and serves
//!   each complete frame itself through the server's handler: a proxy
//!   memory hit and a disk, peer or origin miss alike, with no hand-off to
//!   another thread.
//! - Replies are queued as `[owned head, shared body]` segments and pushed
//!   with nonblocking vectored writes. A reply the socket cannot take at
//!   once parks the connection on `EV_WRITE`. No further frame is parsed
//!   or read while replies are queued, so a client that pipelines without
//!   reading is throttled by its own socket buffers.
//! - On would-block the worker re-arms the connection and goes back to
//!   waiting. An idle or dribbling connection costs an fd and a parser
//!   buffer, not a thread.
//!
//! The handler is the only thing a server brings. It answers each request
//! frame with an [`Answer`]: a reply, a reply distorted by a wire fault, a
//! reply it already queued itself, or a close. Every frame gets one of the
//! four. Wire faults go through [`write_reply_with_fault`]: a stall sleeps
//! the serving worker mid-frame, a truncation closes after the half frame
//! flushes.
//!
//! A handler may also start its reply before it returns, through the
//! [`FrameCtx`] it is given: it queues a head and a shared body, keeps
//! working (the proxy hashes the body it is sending), pushes what the
//! socket takes between steps without blocking, queues the rest and
//! returns [`Answer::Streamed`]. Whatever is still unsent leaves through
//! the same `EV_WRITE` path as any other reply.

use baps_obs::{AtomicHistogram, LatencyHistogram};
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
use crate::sys::{Epoll, EpollEvent, WakeFd, EV_ERROR, EV_ONESHOT, EV_RDHUP, EV_READ, EV_WRITE};

/// Name of the serving model, reported in the STATS and HEALTH `Io-Mode`
/// headers and the `io_mode` label of `baps_build_info`, so every
/// recorded run says which model produced it.
pub const IO_MODEL: &str = "epoll-workers";

/// Pause after a failed `accept` before trying again. Under `EMFILE` the
/// pending connection stays queued and every retry fails at once; the
/// backoff turns that into at most one attempt per interval.
pub const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Serving workers of a server started without an explicit count.
pub(crate) const DEFAULT_WORKERS: usize = 8;

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
// The handler contract
// ---------------------------------------------------------------------------

/// What a server's handler makes of one request frame.
pub(crate) enum Answer {
    /// Queue this reply.
    Reply(Message),
    /// Queue this reply, distorted on the way out by the fault's wire
    /// effect (stall for the given time, truncate, corrupt).
    Faulted(Message, FaultKind, Duration),
    /// The handler queued the whole reply through its [`FrameCtx`].
    Streamed,
    /// Close the connection without a reply.
    Close,
}

impl Answer {
    /// `reply` under the fault drawn for it from `plan`, if any. Faults
    /// without a wire effect leave the reply as it is.
    pub(crate) fn with_fault(
        reply: Message,
        fault: Option<FaultKind>,
        plan: Option<&FaultPlan>,
    ) -> Answer {
        match fault {
            Some(kind) if kind.wire().is_some() => {
                Answer::Faulted(reply, kind, plan.map(FaultPlan::stall).unwrap_or_default())
            }
            _ => Answer::Reply(reply),
        }
    }
}

/// A server's per-frame handler: the request and its [`FrameCtx`].
type Handler = dyn Fn(&Message, &mut FrameCtx<'_>) -> Answer + Send + Sync;

/// What a handler gets besides the request frame: the address of the peer
/// that sent it, the connection's accept-to-first-service wait, and the
/// connection's write queue, so it can start its reply before returning.
pub(crate) struct FrameCtx<'a> {
    peer_ip: IpAddr,
    queue_wait: &'a mut Option<Duration>,
    wq: &'a mut WriteQueue,
    stream: &'a TcpStream,
    /// The handler started its reply here.
    started: bool,
    /// A flush failed: the peer is gone, so later flushes are skipped and
    /// the worker closes the connection once the handler returns.
    broken: bool,
}

impl FrameCtx<'_> {
    /// The address of the peer that sent the frame.
    pub(crate) fn peer_ip(&self) -> IpAddr {
        self.peer_ip
    }

    /// The connection's accept-to-first-service wait, handed out once (the
    /// proxy takes it for the first sampled request's `queue-wait` span).
    pub(crate) fn take_queue_wait(&mut self) -> Option<Duration> {
        self.queue_wait.take()
    }

    /// Starts the reply: queues the encoded head of `reply` and its shared
    /// body, and pushes what the socket takes now. The handler then queues
    /// the rest with [`push`](Self::push) and returns [`Answer::Streamed`].
    pub(crate) fn start_reply(&mut self, reply: &Message) -> io::Result<()> {
        let head = encode_head(reply)?;
        self.wq.push_owned(head.into_bytes());
        self.wq.push_shared(Arc::clone(&reply.body));
        self.started = true;
        self.flush();
        Ok(())
    }

    /// Whether the handler started its reply through this context.
    pub(crate) fn reply_started(&self) -> bool {
        self.started
    }

    /// Queues more bytes of a started reply.
    pub(crate) fn push(&mut self, bytes: Vec<u8>) {
        self.wq.push_owned(bytes);
    }

    /// Pushes what the socket takes now, without blocking.
    pub(crate) fn flush(&mut self) {
        if !self.broken {
            self.broken = self.wq.flush(&mut &*self.stream).is_err();
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Always-on gauges of one server's serving workers: worker count, busy
/// workers, connections awaiting a first service and how long they wait,
/// registered connections, worker busy time and failed accepts.
///
/// All fields are plain relaxed atomics recorded unconditionally:
/// saturation data must exist even when the overhead benchmark turns
/// event recording off, and a handful per claimed event stays inside the
/// always-on budget.
#[derive(Debug)]
pub(crate) struct ServeTelemetry {
    workers: AtomicU64,
    queued: AtomicU64,
    queued_peak: AtomicU64,
    busy: AtomicU64,
    busy_peak: AtomicU64,
    rejected: AtomicU64,
    queue_wait: AtomicHistogram,
    registered: AtomicU64,
    registered_peak: AtomicU64,
    ready_events: AtomicU64,
    busy_nanos: AtomicU64,
    accept_errors: AtomicU64,
    started: Instant,
}

impl Default for ServeTelemetry {
    fn default() -> ServeTelemetry {
        ServeTelemetry {
            workers: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            queued_peak: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            busy_peak: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_wait: AtomicHistogram::default(),
            registered: AtomicU64::new(0),
            registered_peak: AtomicU64::new(0),
            ready_events: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

/// A point-in-time copy of a server's worker saturation.
#[derive(Debug, Clone)]
pub struct SaturationSnapshot {
    /// Configured serving workers.
    pub workers: u64,
    /// Connections accepted but not yet served a first time.
    pub queue_depth: u64,
    /// Most connections awaiting a first service at once since start.
    pub queue_depth_peak: u64,
    /// Workers currently serving a claimed connection.
    pub busy_workers: u64,
    /// Most workers simultaneously busy since start.
    pub busy_workers_peak: u64,
    /// Accepted connections that could not be registered with epoll.
    pub rejected: u64,
    /// Time from accept to a connection's first service.
    pub queue_wait: LatencyHistogram,
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

fn raise_peak(peak: &AtomicU64, value: u64) {
    // Same cheap discipline as `AtomicHistogram::record_ms`: skip the CAS
    // loop unless this is actually a new peak.
    if value > peak.load(Ordering::Relaxed) {
        peak.fetch_max(value, Ordering::Relaxed);
    }
}

impl ServeTelemetry {
    fn registered_conn(&self) {
        let now = self.registered.fetch_add(1, Ordering::Relaxed) + 1;
        raise_peak(&self.registered_peak, now);
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        raise_peak(&self.queued_peak, depth);
    }

    fn closed_conn(&self, ever_served: bool) {
        self.registered.fetch_sub(1, Ordering::Relaxed);
        if !ever_served {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn first_service(&self, wait: Duration) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.queue_wait.record(wait);
    }

    /// Connections currently registered in the epoll set.
    pub(crate) fn registered(&self) -> usize {
        self.registered.load(Ordering::Relaxed) as usize
    }

    /// Failed `accept` calls since start.
    pub(crate) fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Worker count, busy workers, first-service queue and its waits.
    pub(crate) fn saturation(&self) -> SaturationSnapshot {
        SaturationSnapshot {
            workers: self.workers.load(Ordering::Relaxed),
            queue_depth: self.queued.load(Ordering::Relaxed),
            queue_depth_peak: self.queued_peak.load(Ordering::Relaxed),
            busy_workers: self.busy.load(Ordering::Relaxed),
            busy_workers_peak: self.busy_peak.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
        }
    }

    /// Registered fds, claimed events and busy fraction; the caller
    /// supplies its own split of answers into inline and offloaded.
    pub(crate) fn reactor(&self, inline_served: u64, offloaded: u64) -> ReactorSnapshot {
        let workers = self.workers.load(Ordering::Relaxed).max(1) as f64;
        let elapsed = self.started.elapsed().as_nanos().max(1) as f64;
        let busy = self.busy_nanos.load(Ordering::Relaxed) as f64;
        ReactorSnapshot {
            registered_fds: self.registered.load(Ordering::Relaxed),
            registered_fds_peak: self.registered_peak.load(Ordering::Relaxed),
            ready_events: self.ready_events.load(Ordering::Relaxed),
            inline_served,
            offloaded,
            busy_fraction: (busy / (elapsed * workers)).min(1.0),
        }
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
    /// Accept-to-first-claim wait, handed to the handler until it takes
    /// it.
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
    telemetry: Arc<ServeTelemetry>,
    handler: Box<Handler>,
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
        self.telemetry.registered_conn();
        // Into the table before arming: the worker that claims the first
        // event must find the connection.
        self.conns.lock().insert(token, conn);
        if self.epoll.add(fd, token, WANT_READ).is_err()
            && self.conns.lock().remove(&token).is_some()
        {
            self.telemetry.closed_conn(false);
            self.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bookkeeping for a connection that left the table.
    fn retire(&self, conn: &Conn) {
        self.telemetry
            .closed_conn(conn.claimed.swap(true, Ordering::Relaxed));
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
                    self.telemetry.accept_errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
    }

    fn worker_loop(&self) {
        let t = &*self.telemetry;
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
            raise_peak(&t.busy_peak, t.busy.fetch_add(1, Ordering::Relaxed) + 1);
            t.ready_events.fetch_add(1, Ordering::Relaxed);
            let rearmed = self
                .serve_ready(&conn, bits, &mut scratch)
                .is_some_and(|want| {
                    self.epoll
                        .modify(conn.stream.as_raw_fd(), token, want)
                        .is_ok()
                });
            if !rearmed {
                self.close(&conn);
            }
            t.busy.fetch_sub(1, Ordering::Relaxed);
            t.busy_nanos
                .fetch_add(t_busy.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Serves one claimed readiness event: flush queued replies, then
    /// parse and serve frames, reading more bytes only when no complete
    /// frame is buffered. Returns the interest to re-arm with, or `None`
    /// to close.
    fn serve_ready(&self, conn: &Conn, bits: u32, scratch: &mut [u8]) -> Option<u32> {
        if bits & EV_ERROR != 0 {
            return None;
        }
        let mut io = conn.io.lock();
        if !conn.claimed.swap(true, Ordering::Relaxed) {
            let wait = conn.accepted.elapsed();
            self.telemetry.first_service(wait);
            io.queue_wait = Some(wait);
        }
        // A short read means the socket was drained: re-arm instead of
        // paying a read that would only say `EAGAIN`.
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
                    if !self.serve_frame(conn, &mut io, &msg) {
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

    /// One complete request frame: ask the handler, queue what it
    /// answers. `false` = close.
    fn serve_frame(&self, conn: &Conn, io: &mut ConnIo, msg: &Message) -> bool {
        let mut ctx = FrameCtx {
            peer_ip: conn.peer_ip,
            queue_wait: &mut io.queue_wait,
            wq: &mut io.wq,
            stream: &conn.stream,
            started: false,
            broken: false,
        };
        let answer = (self.handler)(msg, &mut ctx);
        debug_assert_eq!(ctx.started, matches!(answer, Answer::Streamed));
        if ctx.broken {
            return false;
        }
        match answer {
            Answer::Close => false,
            Answer::Streamed => true,
            Answer::Reply(reply) => {
                let Ok(head) = encode_head(&reply) else {
                    return false;
                };
                io.wq.push_owned(head.into_bytes());
                io.wq.push_shared(reply.body);
                true
            }
            Answer::Faulted(reply, fault, stall) => {
                let mut sink = QueueWriter {
                    wq: &mut io.wq,
                    stream: &conn.stream,
                };
                match write_reply_with_fault(&mut sink, &reply, Some(fault), stall) {
                    Ok(keep) => {
                        io.close_after_flush = !keep;
                        true
                    }
                    Err(_) => false,
                }
            }
        }
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

/// A running server: its acceptor and serving workers. Dropping it shuts
/// it down.
pub(crate) struct EpollServer {
    core: Arc<Core>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EpollServer {
    /// Spawns the acceptor (`{name}`) on `listener` and `workers` serving
    /// workers (`{name}-worker-N`) that answer every frame with
    /// `handler`, recording into `telemetry`.
    pub(crate) fn start(
        name: &str,
        listener: TcpListener,
        workers: usize,
        telemetry: Arc<ServeTelemetry>,
        handler: impl Fn(&Message, &mut FrameCtx<'_>) -> Answer + Send + Sync + 'static,
    ) -> io::Result<EpollServer> {
        let workers = workers.max(1);
        telemetry.workers.store(workers as u64, Ordering::Relaxed);
        let addr = listener.local_addr()?;
        let core = Arc::new(Core {
            epoll: Epoll::new()?,
            stop_fd: WakeFd::new()?,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
            telemetry,
            handler: Box::new(handler),
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

    /// The address the server listens on.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Severs every open connection without stopping the server. Returns
    /// once every socket is shut down, so callers may assert on EOF at
    /// once.
    pub(crate) fn drop_all(&self) {
        self.core.drop_all();
    }

    /// Stops accepting, joins the acceptor and every worker, then closes
    /// the remaining connections (keep-alive dialers see EOF). Workers
    /// never block on a client socket, so the joins wait at most for the
    /// miss or fault stall a worker is in. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        if self.core.stop.swap(true, Ordering::AcqRel) {
            return;
        }
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

impl Drop for EpollServer {
    fn drop(&mut self) {
        self.shutdown();
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
    use crate::protocol::{read_message, response, status, write_message};
    use std::io::BufReader;

    /// The telemetry a server keeps: worker count, one queue wait per
    /// connection, busy and queue peaks, registered fds and claimed
    /// events, all settling back to zero once the server stops.
    #[test]
    fn telemetry_tracks_queue_busy_and_waits() {
        let telemetry = Arc::new(ServeTelemetry::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut server = EpollServer::start(
            "telemetry-test",
            listener,
            2,
            Arc::clone(&telemetry),
            |_: &Message, _: &mut FrameCtx<'_>| Answer::Reply(response(status::OK, "OK")),
        )
        .unwrap();
        for _ in 0..4 {
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            write_message(&mut &stream, &Message::new("PING x/1.0")).unwrap();
            let reply = read_message(&mut reader).unwrap().unwrap();
            assert_eq!(reply.start, "BAPS/1.0 200 OK");
        }
        let sat = telemetry.saturation();
        assert_eq!(sat.workers, 2);
        assert_eq!(sat.rejected, 0);
        assert_eq!(sat.queue_wait.count(), 4, "one wait per connection");
        assert!(sat.busy_workers_peak >= 1);
        assert!(sat.queue_depth_peak >= 1);
        let r = telemetry.reactor(0, 0);
        assert!(r.registered_fds_peak >= 1);
        assert!(r.ready_events >= 4, "{r:?}");
        server.shutdown();
        let sat = telemetry.saturation();
        assert_eq!(sat.queue_depth, 0);
        assert_eq!(sat.busy_workers, 0);
        assert_eq!(telemetry.registered(), 0);
    }

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
