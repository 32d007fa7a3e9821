//! A client agent: a browser cache, a peer-serving port, and the fetch
//! logic with end-to-end integrity verification.
//!
//! The agent is also where request tracing starts: every logical
//! [`ClientAgent::fetch`] mints a [`TraceId`] that rides a `Trace-Id`
//! header on each hop (GET to the proxy, the proxy's PEERGET/PUSH to a
//! peer, the origin fetch, the direct DELIVER), so one grep through a
//! flight-recorder dump reconstructs the whole request path.
//!
//! Head-sampled traces ([`baps_obs::span::sampled`], a deterministic 1-in-N
//! hash of the trace id) additionally carry a causal **span tree**: the
//! client mints the root span beside the trace id and forwards it in the
//! `Span-Id` header; every downstream hop mints child spans under it, so a
//! `TRACE BAPS/1.0` dump reassembles the whole client→proxy→peer/origin
//! tree with parent/child timing attribution.

use crate::error::ProxyError;
use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::{
    dial_with_deadline, read_message_digested, response, response_code, status, write_message,
    Body, Message, ReceiptDigest,
};
use crate::proxy::{verb_index, PROXY_VERBS};
use crate::reactor::{Answer, EpollServer};
use crate::store::{BodyCache, CachedDoc};
use baps_crypto::{md5, verify_digest, CryptoError, PublicKey, Watermark};
use baps_obs::{
    span, EventKind, FlightRecorder, LabeledHistograms, SpanId, Tier, TraceId, TIER_NAMES,
};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a requester waits for a direct peer delivery before falling
/// back to a peer-bypassing refetch.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(2);

/// Latency above which a plain cache-hit fetch earns a flight-recorder
/// span. Multi-hop fetches (peer, origin) and errors are always recorded;
/// fast local/proxy hits are the ~50k req/s bulk, fully accounted by the
/// tier histograms, and recording each one measurably taxed the hot path.
const SLOW_FETCH: Duration = Duration::from_millis(2);

/// Serving workers of this client's peer port. A worker is held only
/// while it answers a frame (a PUSH holds it for the delivery dial), so a
/// few suffice however many dialers stay connected.
const PEER_WORKERS: usize = 4;

/// What a tampering client serves its peers (test/fault hook; the honest
/// value is [`TamperMode::Honest`]). Every dishonest mode must be caught
/// by the requester's §6.1 watermark verification — never silently
/// accepted as wrong bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperMode {
    /// Serve the cached document faithfully.
    Honest,
    /// Flip the first body byte (classic bit-rot / malicious edit).
    FlipByte,
    /// Serve only the first half of the body, with a matching
    /// `Content-Length` (well-formed frame, wrong content).
    Truncate,
    /// Serve the intact body under a forged (bit-flipped) watermark.
    ForgeWatermark,
}

/// Tuning knobs for one [`ClientAgent`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Browser cache capacity in bytes.
    pub browser_capacity: u64,
    /// Connect/read/write deadline on the proxy connection. A stalled
    /// proxy makes the in-flight call fail with [`ProxyError::Timeout`]
    /// instead of hanging the agent forever. `Duration::ZERO` disables it.
    pub proxy_deadline: Duration,
    /// Extra fetch attempts after the first for retryable failures
    /// (timeouts, transport errors, 5xx), with exponential backoff.
    pub retries: u32,
    /// Initial backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Fault plan consulted by the peer-serving loop (chaos testing).
    pub faults: Option<Arc<FaultPlan>>,
    /// Shared flight recorder (`None` gives the agent a private ring; the
    /// test bed shares one ring across the whole deployment).
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            browser_capacity: 32 << 10,
            proxy_deadline: Duration::from_secs(5),
            retries: 2,
            retry_backoff: Duration::from_millis(10),
            faults: None,
            recorder: None,
        }
    }
}

/// Where a fetched document came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The client's own browser cache.
    LocalBrowser,
    /// The proxy's in-memory cache.
    Proxy,
    /// The proxy's persistent disk tier (a warm-restart or spill hit).
    ProxyDisk,
    /// Another client's browser cache (mediated by the proxy).
    Peer,
    /// The origin server.
    Origin,
}

/// A successful fetch. The body is a shared handle: a browser-cache hit
/// returns the cached allocation itself, not a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResult {
    /// The document body.
    pub body: Body,
    /// Where it was served from.
    pub source: Source,
}

struct ClientState {
    id: u32,
    cache: Mutex<BodyCache>,
    /// Direct deliveries awaiting pickup, keyed by transaction id.
    deliveries: Mutex<HashMap<u64, CachedDoc>>,
    delivered: Condvar,
    /// Test hook: what this client serves its peers (a malicious client).
    tamper: Mutex<TamperMode>,
    peer_serves: AtomicU64,
    /// Fault plan consulted once per served PEERGET/PUSH.
    faults: Option<Arc<FaultPlan>>,
    /// Flight recorder the peer-serving loop records into.
    recorder: Arc<FlightRecorder>,
}

/// A kept-alive connection to the proxy (paired buffered reader + writer
/// over one TCP stream).
struct ProxyConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ProxyConn {
    fn dial(addr: SocketAddr, deadline: Duration) -> io::Result<ProxyConn> {
        let stream = dial_with_deadline(addr, deadline)?;
        Ok(ProxyConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request/response exchange on this connection. `Ok(None)` means
    /// the proxy closed the connection cleanly before replying. A reply
    /// that carries a watermark comes with its body's receipt digest.
    fn exchange(&mut self, msg: &Message) -> io::Result<Option<Received>> {
        write_message(&mut self.writer, msg)?;
        read_message_digested(&mut self.reader)
    }
}

/// A proxy reply and, when it carries a watermark, the MD5 of its body
/// taken as the body arrived.
type Received = (Message, Option<ReceiptDigest>);

/// A running client agent. Dropping it shuts it down.
pub struct ClientAgent {
    id: u32,
    proxy_addr: SocketAddr,
    proxy_key: PublicKey,
    config: ClientConfig,
    state: Arc<ClientState>,
    /// The peer port's acceptor and serving workers.
    peer_server: EpollServer,
    /// The persistent keep-alive connection to the proxy, dialed lazily
    /// and redialed transparently when the proxy drops it.
    proxy_conn: Mutex<Option<ProxyConn>>,
    /// Eviction notices awaiting the next request. An eviction does not
    /// cost a synchronous INVALIDATE round trip; the notice rides in the
    /// `Evicted` header of the next GET. The proxy tolerates the brief
    /// staleness the same way it tolerates a crashed client (probe fails,
    /// index self-heals).
    pending_evictions: Mutex<Vec<String>>,
    /// When false, every [`ClientAgent::roundtrip`] dials a fresh
    /// connection (the pre-keep-alive behaviour, kept for comparison
    /// benchmarks).
    keep_alive: AtomicBool,
    /// Times the persistent connection was found dead and redialed.
    reconnects: AtomicU64,
    /// Monotone per-agent fetch counter; with the client id it forms the
    /// [`TraceId`] minted for each logical fetch.
    fetch_seq: AtomicU64,
    obs: ClientObs,
}

/// Client-side observability: the (possibly deployment-shared) flight
/// recorder plus this agent's own tier/verb latency histograms.
struct ClientObs {
    recorder: Arc<FlightRecorder>,
    /// Whole-fetch latency by serve tier, as the *client* saw it (includes
    /// the wire, retries, and watermark verification).
    tiers: LabeledHistograms,
    /// Round-trip latency by protocol verb, client side.
    verbs: LabeledHistograms,
}

impl ClientAgent {
    /// Starts the agent with default tuning ([`ClientConfig::default`],
    /// with the given browser cache capacity).
    pub fn start(
        id: u32,
        proxy_addr: SocketAddr,
        proxy_key: PublicKey,
        browser_capacity: u64,
    ) -> Result<ClientAgent, ProxyError> {
        ClientAgent::start_with(
            id,
            proxy_addr,
            proxy_key,
            ClientConfig {
                browser_capacity,
                ..ClientConfig::default()
            },
        )
    }

    /// Starts the agent: binds a peer-serving port, registers with the
    /// proxy, and is then ready to [`ClientAgent::fetch`].
    pub fn start_with(
        id: u32,
        proxy_addr: SocketAddr,
        proxy_key: PublicKey,
        config: ClientConfig,
    ) -> Result<ClientAgent, ProxyError> {
        let recorder = config
            .recorder
            .clone()
            .unwrap_or_else(|| Arc::new(FlightRecorder::default()));
        let state = Arc::new(ClientState {
            id,
            cache: Mutex::new(BodyCache::new(config.browser_capacity)),
            deliveries: Mutex::new(HashMap::new()),
            delivered: Condvar::new(),
            tamper: Mutex::new(TamperMode::Honest),
            peer_serves: AtomicU64::new(0),
            faults: config.faults.clone(),
            recorder: Arc::clone(&recorder),
        });
        let peer_server = {
            let state = Arc::clone(&state);
            EpollServer::start(
                &format!("baps-client-{id}-peer"),
                TcpListener::bind("127.0.0.1:0")?,
                PEER_WORKERS,
                Arc::default(),
                move |msg, _| serve_peer(msg, &state),
            )?
        };
        let agent = ClientAgent {
            id,
            proxy_addr,
            proxy_key,
            config,
            state,
            peer_server,
            proxy_conn: Mutex::new(None),
            pending_evictions: Mutex::new(Vec::new()),
            keep_alive: AtomicBool::new(true),
            reconnects: AtomicU64::new(0),
            fetch_seq: AtomicU64::new(0),
            obs: ClientObs {
                recorder,
                tiers: LabeledHistograms::new(&TIER_NAMES),
                verbs: LabeledHistograms::new(&PROXY_VERBS),
            },
        };
        agent.register()?;
        Ok(agent)
    }

    /// This client's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The peer-serving address (for diagnostics).
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_server.addr()
    }

    /// How many PEERGETs this client has served.
    pub fn peer_serves(&self) -> u64 {
        self.state.peer_serves.load(Ordering::Relaxed)
    }

    /// Bytes in the browser cache.
    pub fn cache_used(&self) -> u64 {
        self.state.cache.lock().used()
    }

    /// Test hook: make this client serve corrupted bodies to its peers
    /// (shorthand for [`TamperMode::FlipByte`] / [`TamperMode::Honest`]).
    pub fn set_tamper(&self, tamper: bool) {
        self.set_tamper_mode(if tamper {
            TamperMode::FlipByte
        } else {
            TamperMode::Honest
        });
    }

    /// Test hook: choose exactly how this client tampers with the
    /// documents it serves to peers.
    pub fn set_tamper_mode(&self, mode: TamperMode) {
        *self.state.tamper.lock() = mode;
    }

    /// Test hook: silently drops `url` from the browser cache *without*
    /// notifying the proxy, so the proxy's browser index still lists this
    /// client as holding it. Models the index racing a local eviction
    /// (crash, out-of-band cache clear). Returns whether it was present.
    pub fn purge_local(&self, url: &str) -> bool {
        self.state.cache.lock().remove(url)
    }

    /// Toggles connection reuse. With keep-alive off every request dials a
    /// fresh proxy connection (the old behaviour); on (the default) a
    /// single persistent connection carries all of this client's traffic.
    pub fn set_keep_alive(&self, keep_alive: bool) {
        self.keep_alive.store(keep_alive, Ordering::Release);
        if !keep_alive {
            *self.proxy_conn.lock() = None;
        }
    }

    /// How many times the persistent proxy connection was found dead and
    /// transparently redialed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// The flight recorder this agent records into.
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.obs.recorder)
    }

    /// Client-observed whole-fetch latency for one serve tier.
    pub fn tier_latency(&self, tier: Tier) -> baps_obs::LatencyHistogram {
        self.obs.tiers.snapshot(tier.index())
    }

    /// Reads the proxy's live counters over the wire (`STATS BAPS/1.0`).
    /// Returns the raw reply; counter values are in its headers
    /// (`Requests`, `Proxy-Hits`, `Peer-Hits`, `Origin-Fetches`,
    /// `Invalidations`, `Peer-Failures`, `Direct-Pushes`).
    pub fn proxy_stats_raw(&self) -> Result<Message, ProxyError> {
        self.roundtrip(Message::new("STATS BAPS/1.0"))
    }

    /// Scrapes the proxy's Prometheus exposition over the wire
    /// (`METRICS BAPS/1.0`). The exposition text is the reply body.
    pub fn proxy_metrics_raw(&self) -> Result<Message, ProxyError> {
        self.roundtrip(Message::new("METRICS BAPS/1.0"))
    }

    /// Scrapes the deployment's causal-trace span dump over the wire
    /// (`TRACE BAPS/1.0`). The reply body is JSONL, one
    /// [`baps_obs::SpanRecord`] per line, assembled into trees with
    /// [`baps_obs::span::assemble`].
    pub fn proxy_trace_raw(&self) -> Result<Message, ProxyError> {
        self.roundtrip(Message::new("TRACE BAPS/1.0"))
    }

    /// Scrapes the proxy's SLO verdict document over the wire
    /// (`HEALTH BAPS/1.0`). The reply body parses with
    /// [`crate::HealthReport::parse`]; the `Verdict` header carries the
    /// worst rule verdict for cheap checks.
    pub fn proxy_health_raw(&self) -> Result<Message, ProxyError> {
        self.roundtrip(Message::new("HEALTH BAPS/1.0"))
    }

    fn register(&self) -> Result<(), ProxyError> {
        let reply = self.roundtrip(
            Message::new(format!("REGISTER {} BAPS/1.0", self.peer_addr().port()))
                .header("Client", self.id.to_string()),
        )?;
        if response_code(&reply) != Some(status::OK) {
            return Err(ProxyError::Protocol(format!(
                "register rejected: {}",
                reply.start
            )));
        }
        Ok(())
    }

    /// Fetches a document: browser cache, then the browsers-aware proxy.
    /// Peer-served documents are integrity-verified against the proxy's
    /// watermark; on a failed check the request is retried once with
    /// `Bypass-Peers` so a tampering peer cannot poison the client.
    ///
    /// Transient failures ([`ProxyError::is_retryable`]: socket deadlines,
    /// transport errors, proxy 5xx) are retried up to
    /// [`ClientConfig::retries`] extra times with exponential backoff
    /// before the error is surfaced.
    pub fn fetch(&self, url: &str) -> Result<FetchResult, ProxyError> {
        // One trace id per *logical* fetch: retries and the bypass refetch
        // reuse it, so a dump shows them as spans of the same request.
        let trace = TraceId::mint(self.id, self.fetch_seq.fetch_add(1, Ordering::Relaxed));
        // Head sampling: 1-in-N traces carry a full causal span tree. The
        // root span is minted here at the edge; every downstream hop
        // attaches under it via the `Span-Id` header.
        let root = span::hop(trace);
        let t_fetch = Instant::now();
        let local = self.state.cache.lock().get(url).map(|doc| doc.body.clone());
        if let Some(body) = local {
            let elapsed = t_fetch.elapsed();
            self.obs.tiers.record(Tier::Local.index(), elapsed);
            if !root.is_none() || elapsed > SLOW_FETCH {
                self.obs.recorder.record_hop(
                    trace,
                    root,
                    SpanId::NONE,
                    EventKind::Fetch,
                    elapsed,
                    format!("client={} url={url} source=local", self.id),
                );
            }
            return Ok(FetchResult {
                body,
                source: Source::LocalBrowser,
            });
        }
        let mut attempts_left = self.config.retries;
        let mut backoff = self.config.retry_backoff;
        loop {
            let result = match self.fetch_via_proxy(url, false, trace, root) {
                Err(ProxyError::Integrity(_)) | Err(ProxyError::DeliveryTimeout) => {
                    // A peer served tampered bytes or never delivered:
                    // bypass peers and retry (doesn't consume an attempt —
                    // it is a different request, not a repeat).
                    self.fetch_via_proxy(url, true, trace, root)
                }
                other => other,
            };
            match result {
                Err(e) if e.is_retryable() && attempts_left > 0 => {
                    attempts_left -= 1;
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    backoff *= 2;
                }
                other => {
                    let elapsed = t_fetch.elapsed();
                    match &other {
                        Ok(got) => {
                            let tier = match got.source {
                                Source::LocalBrowser => Tier::Local,
                                Source::Proxy => Tier::Proxy,
                                Source::ProxyDisk => Tier::Disk,
                                Source::Peer => Tier::Peer,
                                Source::Origin => Tier::Origin,
                            };
                            self.obs.tiers.record(tier.index(), elapsed);
                            // Multi-hop fetches are always worth a span;
                            // plain cache hits only when they ran slow or
                            // the trace is head-sampled (whose tree needs
                            // its root); the histograms account for the
                            // fast unsampled bulk.
                            let multi_hop = matches!(tier, Tier::Peer | Tier::Origin);
                            if !root.is_none() || multi_hop || elapsed > SLOW_FETCH {
                                self.obs.recorder.record_hop(
                                    trace,
                                    root,
                                    SpanId::NONE,
                                    EventKind::Fetch,
                                    elapsed,
                                    format!("client={} url={url} source={}", self.id, tier.name()),
                                );
                            }
                        }
                        Err(e) => self.obs.recorder.record_hop(
                            trace,
                            root,
                            SpanId::NONE,
                            EventKind::Fetch,
                            elapsed,
                            format!("client={} url={url} outcome=err: {e}", self.id),
                        ),
                    }
                    return other;
                }
            }
        }
    }

    /// Waits for a direct delivery with transaction id `txn`.
    fn await_delivery(&self, txn: u64) -> Option<CachedDoc> {
        let deadline = Instant::now() + DELIVERY_TIMEOUT;
        let mut deliveries = self.state.deliveries.lock();
        loop {
            if let Some(doc) = deliveries.remove(&txn) {
                return Some(doc);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.state
                .delivered
                .wait_for(&mut deliveries, deadline - now);
        }
    }

    fn fetch_via_proxy(
        &self,
        url: &str,
        bypass: bool,
        trace: TraceId,
        root: SpanId,
    ) -> Result<FetchResult, ProxyError> {
        let mut req = Message::new(format!("GET {url} BAPS/1.0"))
            .header("Client", self.id.to_string())
            .header("Trace-Id", trace.to_string());
        if !root.is_none() {
            // The root span parents every proxy-side span of this request.
            req = req.header("Span-Id", root.to_string());
        }
        let notices: Vec<String> = std::mem::take(&mut *self.pending_evictions.lock());
        if !notices.is_empty() {
            req = req.header("Evicted", notices.join(" "));
        }
        if bypass {
            req = req.header("Bypass-Peers", "1");
        }
        let (reply, receipt) = match self.roundtrip_received(req) {
            Ok(received) => received,
            Err(e) => {
                // The notices may not have reached the proxy: requeue them
                // exactly once. The proxy's invalidation handling is
                // idempotent too (a replayed notice is counted as stale),
                // but deduplicating here keeps the queue bounded when the
                // same request fails repeatedly.
                self.requeue_evictions(notices);
                return Err(e);
            }
        };
        match response_code(&reply) {
            Some(status::OK) => {}
            Some(status::NOT_FOUND) => return Err(ProxyError::NotFound(url.to_owned())),
            Some(code @ (status::SERVER_ERROR | status::UNAVAILABLE)) => {
                return Err(ProxyError::Unavailable(code))
            }
            other => {
                return Err(ProxyError::Protocol(format!(
                    "unexpected proxy response {other:?}: {}",
                    reply.start
                )))
            }
        }
        let source = match reply.get("X-Source") {
            Some("proxy") => Source::Proxy,
            Some("disk") => Source::ProxyDisk,
            Some("peer") => Source::Peer,
            Some("origin") => Source::Origin,
            Some("peer-direct") => {
                // Direct-forward mode: the body arrives out of band on our
                // peer port; await it by transaction id.
                let txn: u64 = reply
                    .get("Txn")
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ProxyError::Protocol("peer-direct without txn".into()))?;
                let doc = self
                    .await_delivery(txn)
                    .ok_or(ProxyError::DeliveryTimeout)?;
                self.verify_traced(trace, root, url, &doc.body, &doc.watermark, None)?;
                let evicted = self.state.cache.lock().insert(url, doc.clone());
                self.note_stored(url, evicted);
                return Ok(FetchResult {
                    body: doc.body,
                    source: Source::Peer,
                });
            }
            other => return Err(ProxyError::Protocol(format!("bad X-Source: {other:?}"))),
        };
        let watermark = reply
            .get("X-Watermark")
            .ok_or_else(|| ProxyError::Protocol("missing watermark".into()))
            .and_then(|h| Watermark::from_hex(h).map_err(ProxyError::Integrity))?;
        self.verify_traced(trace, root, url, &reply.body, &watermark, receipt)?;

        // Cache the verified copy; queue eviction notices for the next
        // request instead of spending a round trip per victim now.
        let evicted = self.state.cache.lock().insert(
            url,
            CachedDoc {
                body: reply.body.clone(),
                watermark,
            },
        );
        self.note_stored(url, evicted);
        Ok(FetchResult {
            body: reply.body,
            source,
        })
    }

    /// Reconciles the pending-eviction queue after storing `url` in the
    /// browser cache: a queued notice for `url` itself is now stale (this
    /// client holds the document again, and the proxy re-indexed it when
    /// serving) and is cancelled, and the insert's victims are queued
    /// exactly once even when a replayed requeue already listed them.
    fn note_stored(&self, url: &str, evicted: Vec<String>) {
        let mut pending = self.pending_evictions.lock();
        pending.retain(|u| u != url);
        for victim in evicted {
            if victim != url && !pending.contains(&victim) {
                pending.push(victim);
            }
        }
    }

    /// Puts notices back on the queue after a failed request, skipping any
    /// that a concurrent fetch already re-queued.
    fn requeue_evictions(&self, notices: Vec<String>) {
        if notices.is_empty() {
            return;
        }
        let mut pending = self.pending_evictions.lock();
        for url in notices {
            if !pending.contains(&url) {
                pending.push(url);
            }
        }
    }

    /// Test hook: the eviction notices queued to ride the next GET.
    pub fn pending_eviction_notices(&self) -> Vec<String> {
        self.pending_evictions.lock().clone()
    }

    /// §6.1 watermark verification wrapped in a `verify` span.
    ///
    /// `receipt` is the digest of `body` taken as it was read off the
    /// socket; without one (a direct delivery) the body is hashed here.
    /// Either way the span's duration is the MD5 time plus the signature
    /// check.
    ///
    /// Like the proxy's wait-for-shard span, a routine fast verification
    /// is not worth a ring event on every request; the span is recorded
    /// when the verdict is a mismatch or the check ran slow — the two
    /// cases a dump reader would look for.
    fn verify_traced(
        &self,
        trace: TraceId,
        root: SpanId,
        url: &str,
        body: &Body,
        watermark: &Watermark,
        receipt: Option<ReceiptDigest>,
    ) -> Result<(), ProxyError> {
        const SLOW_VERIFY: Duration = Duration::from_micros(250);
        let t_verify = Instant::now();
        let (digest, hash_time) = match receipt {
            Some(r) => (r.digest, r.hash_time),
            None => (md5(body), Duration::ZERO),
        };
        let verified = verify_digest(&self.proxy_key, &digest, &watermark.signature);
        let verify_time = hash_time + t_verify.elapsed();
        if !verified || verify_time > SLOW_VERIFY || !root.is_none() {
            let vspan = if root.is_none() {
                SpanId::NONE
            } else {
                SpanId::mint()
            };
            self.obs.recorder.record_hop(
                trace,
                vspan,
                root,
                EventKind::Verify,
                verify_time,
                format!(
                    "client={} url={url} outcome={}",
                    self.id,
                    if verified { "ok" } else { "MISMATCH" }
                ),
            );
        }
        if verified {
            Ok(())
        } else {
            Err(ProxyError::Integrity(CryptoError::WatermarkMismatch))
        }
    }

    /// Tells the proxy this client no longer caches `url`.
    fn invalidate(&self, url: &str) -> Result<(), ProxyError> {
        let reply = self.roundtrip(
            Message::new(format!("INVALIDATE {url} BAPS/1.0"))
                .header("Client", self.id.to_string()),
        )?;
        if response_code(&reply) != Some(status::OK) {
            return Err(ProxyError::Protocol("invalidate rejected".into()));
        }
        Ok(())
    }

    /// Evicts `url` locally and notifies the proxy (models the user
    /// clearing cache entries).
    pub fn evict(&self, url: &str) -> Result<bool, ProxyError> {
        let present = self.state.cache.lock().remove(url);
        if present {
            self.invalidate(url)?;
        }
        Ok(present)
    }

    /// Discards `url` from the browser cache because its content changed
    /// upstream, queueing a piggybacked eviction notice instead of a
    /// synchronous INVALIDATE round trip. During an invalidation storm
    /// this is what keeps wire traffic bounded: N clients discarding a
    /// doc cost zero extra messages (the notices ride the next GETs),
    /// versus N INVALIDATE round trips. Returns whether it was cached.
    pub fn discard(&self, url: &str) -> bool {
        let present = self.state.cache.lock().remove(url);
        if present {
            self.requeue_evictions(vec![url.to_string()]);
        }
        present
    }

    /// Publisher-side invalidation: tells the proxy `url`'s content
    /// changed at the origin, so the proxy must drop its memory replica
    /// and expire (not delete) its disk replica — the next read
    /// revalidates with `If-Digest`. One wire message per changed doc,
    /// regardless of how many clients hold replicas; the holders clean up
    /// via [`ClientAgent::discard`] + piggybacked notices.
    pub fn publish_invalidate(&self, url: &str) -> Result<(), ProxyError> {
        let reply = self.roundtrip(
            Message::new(format!("INVALIDATE {url} BAPS/1.0"))
                .header("Client", self.id.to_string())
                .header("Purge", "1"),
        )?;
        if response_code(&reply) != Some(status::OK) {
            return Err(ProxyError::Protocol("invalidate rejected".into()));
        }
        Ok(())
    }

    /// One request/response against the proxy.
    ///
    /// With keep-alive on, the persistent connection is dialed lazily on
    /// first use and reused for every subsequent message. If the proxy
    /// drops it between requests (restart, [`drop_connections`], idle
    /// reaping), the exchange fails or returns a clean EOF; the client
    /// then redials once and replays the message. Only an error on a
    /// *fresh* connection propagates, so a mid-session connection loss is
    /// invisible to callers.
    ///
    /// [`drop_connections`]: crate::proxy::ProxyServer::drop_connections
    fn roundtrip(&self, msg: Message) -> Result<Message, ProxyError> {
        self.roundtrip_received(msg).map(|(reply, _)| reply)
    }

    /// [`roundtrip`](Self::roundtrip), keeping the reply's receipt digest.
    fn roundtrip_received(&self, msg: Message) -> Result<Received, ProxyError> {
        let verb = verb_index(msg.tokens().first());
        let t_verb = Instant::now();
        let result = self.roundtrip_inner(&msg);
        self.obs.verbs.record(verb, t_verb.elapsed());
        result
    }

    /// Dials the proxy, recording the dial as a span of `trace` (a causal
    /// child of `parent` when the request carries a sampled span tree).
    fn dial_traced(&self, trace: TraceId, parent: SpanId, reason: &str) -> io::Result<ProxyConn> {
        let t_dial = Instant::now();
        let conn = ProxyConn::dial(self.proxy_addr, self.config.proxy_deadline);
        let dspan = if parent.is_none() {
            SpanId::NONE
        } else {
            SpanId::mint()
        };
        self.obs.recorder.record_hop(
            trace,
            dspan,
            parent,
            EventKind::Dial,
            t_dial.elapsed(),
            format!(
                "client={} reason={reason} outcome={}",
                self.id,
                if conn.is_ok() { "ok" } else { "err" }
            ),
        );
        conn
    }

    fn roundtrip_inner(&self, msg: &Message) -> Result<Received, ProxyError> {
        // EOF before a reply is a transport failure (restart, drop), not a
        // protocol violation — callers may retry it.
        fn hung_up() -> ProxyError {
            ProxyError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "proxy closed connection",
            ))
        }
        let (trace, parent) = msg.trace_context();
        if !self.keep_alive.load(Ordering::Acquire) {
            let mut conn = self.dial_traced(trace, parent, "one-shot")?;
            return conn.exchange(msg)?.ok_or_else(hung_up);
        }
        let mut guard = self.proxy_conn.lock();
        let reused = guard.is_some();
        if guard.is_none() {
            *guard = Some(self.dial_traced(trace, parent, "first-use")?);
        }
        let conn = guard.as_mut().expect("connection dialed above");
        match conn.exchange(msg) {
            Ok(Some(reply)) => Ok(reply),
            // An error or EOF on a reused connection means it went stale
            // while idle: reconnect and replay the request once.
            Ok(None) | Err(_) if reused => {
                *guard = None;
                self.reconnects.fetch_add(1, Ordering::Relaxed);
                let mut conn = self.dial_traced(trace, parent, "reconnect")?;
                // A dropped connection may mean the proxy restarted and
                // lost its in-memory registrations: re-introduce this
                // client's peer port before replaying, so peer fetches
                // keep finding it. REGISTER is idempotent — against a
                // merely-reaped connection it just refreshes the address.
                if !matches!(msg.tokens().first(), Some(&"REGISTER")) {
                    let reg =
                        Message::new(format!("REGISTER {} BAPS/1.0", self.peer_addr().port()))
                            .header("Client", self.id.to_string());
                    match conn.exchange(&reg)? {
                        Some((reply, _)) if response_code(&reply) == Some(status::OK) => {}
                        _ => return Err(hung_up()),
                    }
                }
                let reply = conn.exchange(msg)?.ok_or_else(hung_up)?;
                *guard = Some(conn);
                Ok(reply)
            }
            Ok(None) => {
                *guard = None;
                Err(hung_up())
            }
            Err(e) => {
                *guard = None;
                Err(e.into())
            }
        }
    }

    /// Stops the peer port (its open connections see EOF) and closes the
    /// proxy connection.
    pub fn shutdown(mut self) {
        self.peer_server.shutdown();
    }
}

/// Applies a tamper mode to a document about to be served to a peer:
/// returns the (possibly corrupted) body and watermark hex to send. The
/// honest path shares the cached body; only the corrupting modes copy.
fn tampered(mode: TamperMode, body: &Body, watermark_hex: String) -> (Body, String) {
    let mut hex = watermark_hex;
    let body = match mode {
        TamperMode::Honest => Arc::clone(body),
        TamperMode::FlipByte => {
            let mut bytes = body.to_vec();
            if let Some(b) = bytes.first_mut() {
                *b ^= 0xff;
            }
            bytes.into()
        }
        TamperMode::Truncate => {
            let half = body.len() / 2;
            Body::from(&body[..half])
        }
        TamperMode::ForgeWatermark => {
            // Swap the first hex digit for a different one: still parses
            // as a watermark, but verifies against nothing.
            let forged = if hex.starts_with('0') { "1" } else { "0" };
            hex.replace_range(0..1, forged);
            Arc::clone(body)
        }
    };
    (body, hex)
}

/// Serves PEERGET requests from this client's browser cache. The request
/// carries only a transaction id — the peer never learns who is asking.
///
/// When a fault plan is installed, exactly one fault draw happens per
/// served PEERGET/PUSH (never for DELIVER or malformed requests):
/// `PeerDrop` closes the connection without replying, `PeerRefuse`
/// answers 410 as if the document were gone, and the wire faults
/// (stall/truncate/corrupt) distort the otherwise-correct reply.
fn serve_peer(msg: &Message, state: &ClientState) -> Answer {
    let tokens = msg.tokens();
    // The proxy forwards the requester's trace id on PEERGET/PUSH and the
    // pushing peer forwards it on DELIVER, so peer-side spans join the
    // same trace as the client's fetch. For sampled traces the dialer
    // forwards its own hop span; our serve span attaches under it,
    // stitching the tree across processes.
    let (trace, parent) = msg.trace_context();
    // Fault decisions apply only to requests we serve *to* peers.
    let faultable = matches!(tokens.first(), Some(&"PEERGET") | Some(&"PUSH"));
    let fault = match (faultable, state.faults.as_deref()) {
        (true, Some(plan)) => plan.peer_fault(),
        _ => None,
    };
    if fault == Some(FaultKind::PeerDrop) {
        // Vanish mid-conversation: the dialer sees an abrupt EOF.
        return Answer::Close;
    }
    let t_serve = Instant::now();
    let serve_span = if parent.is_none() {
        SpanId::NONE
    } else {
        SpanId::mint()
    };
    let reply = match tokens.as_slice() {
        _ if fault == Some(FaultKind::PeerRefuse) => {
            // Claim the document is gone even though we may hold it.
            response(status::GONE, "Gone")
        }
        ["PEERGET", url, "BAPS/1.0"] => {
            // Clone the handle out so the cache lock is dropped before
            // the reply is built and written.
            let doc = state.cache.lock().get(url).cloned();
            let reply = match doc {
                Some(doc) => {
                    state.peer_serves.fetch_add(1, Ordering::Relaxed);
                    let (body, hex) =
                        tampered(*state.tamper.lock(), &doc.body, doc.watermark.to_hex());
                    response(status::OK, "OK")
                        .header("X-Watermark", hex)
                        .with_body(body)
                }
                None => response(status::GONE, "Gone"),
            };
            state.recorder.record_hop(
                trace,
                serve_span,
                parent,
                EventKind::PeerServe,
                t_serve.elapsed(),
                format!(
                    "client={} verb=PEERGET url={url} outcome={}",
                    state.id,
                    if response_code(&reply) == Some(status::OK) {
                        "ok"
                    } else {
                        "gone"
                    }
                ),
            );
            reply
        }
        ["PUSH", url, "BAPS/1.0"] => {
            // Direct-forward order from the proxy: push the document to
            // the requester's delivery address before acknowledging.
            let txn = msg.get("Txn").map(str::to_owned);
            let target = msg.get("Target").map(str::to_owned);
            let reply = match (txn, target, state.cache.lock().get(url).cloned()) {
                (Some(txn), Some(target), Some(doc)) => {
                    state.peer_serves.fetch_add(1, Ordering::Relaxed);
                    let (body, hex) =
                        tampered(*state.tamper.lock(), &doc.body, doc.watermark.to_hex());
                    match deliver_to(&target, url, &txn, &hex, body, trace, serve_span) {
                        Ok(()) => response(status::OK, "OK"),
                        Err(_) => response(status::GONE, "Delivery Failed"),
                    }
                }
                (_, _, None) => response(status::GONE, "Gone"),
                _ => response(status::BAD_REQUEST, "Bad Request"),
            };
            state.recorder.record_hop(
                trace,
                serve_span,
                parent,
                EventKind::PeerServe,
                t_serve.elapsed(),
                format!(
                    "client={} verb=PUSH url={url} outcome={}",
                    state.id,
                    if response_code(&reply) == Some(status::OK) {
                        "ok"
                    } else {
                        "err"
                    }
                ),
            );
            reply
        }
        ["DELIVER", url, "BAPS/1.0"] => {
            // Incoming direct delivery for one of our own requests.
            let parsed = msg.get("Txn").and_then(|t| t.parse::<u64>().ok()).zip(
                msg.get("X-Watermark")
                    .and_then(|h| Watermark::from_hex(h).ok()),
            );
            match parsed {
                Some((txn, watermark)) => {
                    state.deliveries.lock().insert(
                        txn,
                        CachedDoc {
                            body: msg.body.clone(),
                            watermark,
                        },
                    );
                    state.delivered.notify_all();
                    state.recorder.record_hop(
                        trace,
                        serve_span,
                        parent,
                        EventKind::Deliver,
                        Duration::ZERO,
                        format!("client={} url={url} txn={txn}", state.id),
                    );
                    response(status::OK, "OK")
                }
                None => response(status::BAD_REQUEST, "Bad Request"),
            }
        }
        _ => response(status::BAD_REQUEST, "Bad Request"),
    };
    Answer::with_fault(reply, fault, state.faults.as_deref())
}

/// Connects to a requester's delivery address and pushes the document.
#[allow(clippy::too_many_arguments)]
fn deliver_to(
    target: &str,
    url: &str,
    txn: &str,
    watermark_hex: &str,
    body: Body,
    trace: TraceId,
    span: SpanId,
) -> io::Result<()> {
    let addr: SocketAddr = target
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad target: {e}")))?;
    let stream = TcpStream::connect_timeout(&addr, DELIVERY_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(DELIVERY_TIMEOUT))?;
    let mut writer = stream;
    let mut msg = Message::new(format!("DELIVER {url} BAPS/1.0"))
        .header("Txn", txn)
        .header("X-Watermark", watermark_hex)
        .header("Trace-Id", trace.to_string());
    if !span.is_none() {
        // The pushing peer's serve span parents the requester's deliver
        // span.
        msg = msg.header("Span-Id", span.to_string());
    }
    write_message(&mut writer, &msg.with_body(body))
}
