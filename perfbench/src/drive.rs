//! Driving a live loopback deployment: set-up with warm-up, the open- and
//! closed-loop phases, and the body check on every fetch.
//!
//! Driver thread `b` owns browser `b` (one `ClientAgent`, one keep-alive
//! proxy connection) and replays `streams[b]`. Other browsers' caches are
//! touched only by `Op::Change`'s local discards, which need no connection.

use crate::layers::{source_name, Span};
use crate::workload::{url_of, Op, Workload};
use baps_proxy::protocol::Body;
use baps_proxy::{ClientAgent, ProxyError, Source, TestBed, TestBedConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every body version the origin has published, per document. A fetched
/// body is correct when it equals one of them: a fetch racing a change may
/// legitimately return either side of it. The newest version is kept whole
/// (the common case is one `memcmp`); older ones as 64-bit fingerprints,
/// so memory does not grow with the number of changes.
pub struct Oracle {
    versions: Vec<Mutex<Versions>>,
}

struct Versions {
    latest: Body,
    fingerprints: HashSet<u64>,
}

fn fingerprint(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

impl Oracle {
    fn new(bodies: &[Body]) -> Oracle {
        Oracle {
            versions: bodies
                .iter()
                .map(|b| {
                    Mutex::new(Versions {
                        latest: b.clone(),
                        fingerprints: HashSet::from([fingerprint(b)]),
                    })
                })
                .collect(),
        }
    }

    fn accepts(&self, doc: u32, body: &[u8]) -> bool {
        let versions = self.versions[doc as usize]
            .lock()
            .expect("oracle lock poisoned");
        versions.latest[..] == *body || versions.fingerprints.contains(&fingerprint(body))
    }

    fn publish(&self, doc: u32, body: &Body) {
        let mut versions = self.versions[doc as usize]
            .lock()
            .expect("oracle lock poisoned");
        versions.fingerprints.insert(fingerprint(body));
        versions.latest = body.clone();
    }

    /// The newest published body of `doc`.
    pub fn latest(&self, doc: u32) -> Body {
        self.versions[doc as usize]
            .lock()
            .expect("oracle lock poisoned")
            .latest
            .clone()
    }
}

/// A started deployment plus what the benchmark needs to check it.
pub struct Deployment {
    /// Origin, proxy and one `ClientAgent` per browser.
    pub bed: TestBed,
    /// Published versions, for the body check.
    pub oracle: Oracle,
    urls: Vec<String>,
    disk_dir: Option<PathBuf>,
}

impl Deployment {
    /// Starts the deployment for `w`; `disk_dir` is a fresh directory for
    /// the proxy's disk tier when the workload has one.
    pub fn start(w: &Workload, disk_dir: PathBuf) -> Result<Deployment, ProxyError> {
        let mut store = baps_proxy::DocumentStore::new();
        let urls: Vec<String> = (0..w.bodies.len() as u32).map(url_of).collect();
        for (url, body) in urls.iter().zip(&w.bodies) {
            store.insert(url.clone(), body.clone());
        }
        let disk_dir = w.shape.disk_capacity.map(|_| disk_dir);
        if let Some(dir) = &disk_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir)?;
        }
        let bed = TestBed::start(
            store,
            TestBedConfig {
                n_clients: w.streams.len() as u32,
                proxy_capacity: w.shape.proxy_capacity,
                browser_capacity: w.shape.browser_capacity,
                disk_root: disk_dir.clone(),
                disk_capacity: w.shape.disk_capacity.unwrap_or(0),
                ..TestBedConfig::default()
            },
        )?;
        Ok(Deployment {
            bed,
            oracle: Oracle::new(&w.bodies),
            urls,
            disk_dir,
        })
    }

    /// URL of document `doc`.
    pub fn url(&self, doc: u32) -> &str {
        &self.urls[doc as usize]
    }

    /// Stops every component and removes the disk tier's directory.
    pub fn shutdown(self) {
        self.bed.shutdown();
        if let Some(dir) = self.disk_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One executed `Get`. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Fetch {
    /// Document fetched.
    pub doc: u32,
    /// Browser that fetched it.
    pub browser: usize,
    /// Where the body came from; `None` when the fetch failed.
    pub source: Option<Source>,
    /// Body bytes received.
    pub bytes: u64,
    /// When the open-loop schedule wanted it sent (= `start` when closed).
    pub due: u64,
    /// When `fetch` was called.
    pub start: u64,
    /// When `fetch` returned.
    pub end: u64,
    /// The body equalled no published version.
    pub wrong: bool,
    /// Id of this fetch's root span; 0 when spans were off.
    pub span: u64,
}

impl Fetch {
    /// Latency in ms from the due time; a failed fetch misses every limit.
    pub fn latency_ms(&self) -> f64 {
        if self.source.is_none() {
            return MISSED_MS;
        }
        (self.end - self.due) as f64 / 1e6
    }

    /// Service time in µs, from send to reply.
    pub fn service_us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// Latency recorded for a failed fetch: beyond any limit a user would set.
pub const MISSED_MS: f64 = 1e6;

/// Every tier a fetch can be served from, in reporting order.
pub const SOURCES: [Source; 5] = [
    Source::LocalBrowser,
    Source::Proxy,
    Source::ProxyDisk,
    Source::Peer,
    Source::Origin,
];

/// Position of `source` in [`SOURCES`].
pub fn source_index(source: Source) -> usize {
    SOURCES
        .iter()
        .position(|&s| s == source)
        .expect("every source is listed")
}

/// Counts of what a phase executed; kept for every op, recorded or not.
#[derive(Debug, Default, Clone, Copy)]
pub struct Summary {
    /// Successful gets per tier ([`SOURCES`] order).
    pub served: [u64; 5],
    /// Body bytes received per tier.
    pub served_bytes: [u64; 5],
    /// Gets that returned an error.
    pub failed: u64,
    /// Gets whose body matched no published version.
    pub wrong: u64,
    /// `Change` ops executed.
    pub changes: u64,
    /// `Change` ops whose `INVALIDATE` failed.
    pub failed_changes: u64,
}

impl Summary {
    /// Gets attempted.
    pub fn gets(&self) -> u64 {
        self.served.iter().sum::<u64>() + self.failed
    }

    /// Accumulates `other`.
    pub fn add(&mut self, other: &Summary) {
        for i in 0..SOURCES.len() {
            self.served[i] += other.served[i];
            self.served_bytes[i] += other.served_bytes[i];
        }
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.changes += other.changes;
        self.failed_changes += other.failed_changes;
    }
}

/// Counters sampled at one window boundary of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// Nanoseconds since the run's epoch.
    pub at: u64,
    /// Successful gets so far in the phase.
    pub completed: u64,
    /// Process CPU seconds (all threads) so far.
    pub cpu: f64,
    /// Machine-wide CPU time (steal, total) so far, in clock ticks.
    pub host: (u64, u64),
}

impl Tick {
    /// Share of the machine's CPU time between `self` and `later` that the
    /// hypervisor gave to other guests.
    pub fn steal_share(&self, later: &Tick) -> f64 {
        let total = later.host.1.saturating_sub(self.host.1);
        later.host.0.saturating_sub(self.host.0) as f64 / total.max(1) as f64
    }
}

/// What a phase did.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Counts over every op.
    pub summary: Summary,
    /// Per-get records, when the phase was asked to keep them.
    pub fetches: Vec<Fetch>,
    /// Spans recorded while tracing was on.
    pub spans: Vec<Span>,
    /// Window boundaries sampled while the phase ran (first at 0).
    pub ticks: Vec<Tick>,
}

impl PhaseOut {
    fn absorb(&mut self, part: PhaseOut) {
        self.summary.add(&part.summary);
        self.fetches.extend(part.fetches);
        self.spans.extend(part.spans);
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Replay exactly `n` ops per browser, one browser after another
    /// (warm-up).
    Count(usize),
    /// Independent users: each browser sends on a fixed schedule so that
    /// together they offer `rate_rps`, whether or not replies are back.
    Open { rate_rps: f64, length: Duration },
    /// Each browser sends its next request when the previous one is done.
    Closed { length: Duration },
}

/// Spans-on schedule for a phase.
#[derive(Debug, Clone, Copy)]
pub enum Tracing {
    /// Never traced.
    Off,
    /// Every op traced.
    On,
    /// Traced in odd slices of the given length, untraced in even ones, so
    /// drift during the phase hits both alike.
    Alternate(Duration),
}

/// What a phase keeps besides its [`Summary`].
#[derive(Debug, Clone, Copy)]
pub struct Keep {
    /// Keep a [`Fetch`] record per get.
    pub fetches: bool,
    /// Sample completions and CPU time at this interval.
    pub window: Option<Duration>,
}

/// Runs one phase on every browser concurrently. `cursors[b]` is where
/// browser `b` resumes in its stream (wrapping at the end).
pub fn run_phase(
    dep: &Deployment,
    w: &Workload,
    cursors: &mut [usize],
    pace: Pace,
    tracing: Tracing,
    keep: Keep,
    epoch: Instant,
) -> PhaseOut {
    let n = w.streams.len();
    let completed = AtomicU64::new(0);
    let running = AtomicUsize::new(n);
    let phase_start = Instant::now();
    let mut out = PhaseOut::default();
    let completed = &completed;
    let driver = |browser: usize| Driver {
        dep,
        client: &dep.bed.clients[browser],
        browser,
        workload: w,
        epoch,
        phase_start,
        completed,
    };
    if let Pace::Count(_) = pace {
        // Warm-up replays one browser's prefix at a time: with a single
        // client/worker pair on the CPUs, set-up time and the cache state
        // it leaves do not depend on how the scheduler places concurrent
        // pairs.
        for (b, cursor) in cursors.iter_mut().enumerate() {
            out.absorb(driver(b).run(cursor, pace, tracing, keep.fetches));
        }
        return out;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = cursors
            .iter_mut()
            .enumerate()
            .map(|(b, cursor)| {
                let running = &running;
                scope.spawn(move || {
                    let out = driver(b).run(cursor, pace, tracing, keep.fetches);
                    running.fetch_sub(1, Ordering::SeqCst);
                    out
                })
            })
            .collect();
        if let Some(window) = keep.window {
            let tick = |at: Instant| Tick {
                at: at.duration_since(epoch).as_nanos() as u64,
                completed: completed.load(Ordering::SeqCst),
                cpu: crate::report::cpu_seconds(),
                host: crate::report::host_cpu_ticks(),
            };
            out.ticks.push(tick(phase_start));
            let mut next = phase_start + window;
            while running.load(Ordering::SeqCst) == n {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep((next - now).min(Duration::from_millis(20)));
                    continue;
                }
                out.ticks.push(tick(Instant::now()));
                next += window;
            }
        }
        for h in handles {
            out.absorb(h.join().expect("driver thread panicked"));
        }
    });
    out
}

struct Driver<'a> {
    dep: &'a Deployment,
    client: &'a ClientAgent,
    browser: usize,
    workload: &'a Workload,
    epoch: Instant,
    phase_start: Instant,
    completed: &'a AtomicU64,
}

impl Driver<'_> {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn run(
        &self,
        cursor: &mut usize,
        pace: Pace,
        tracing: Tracing,
        keep_fetches: bool,
    ) -> PhaseOut {
        let n_browsers = self.workload.streams.len();
        let mut out = PhaseOut::default();
        let traced_at = |t: Instant| match tracing {
            Tracing::Off => false,
            Tracing::On => true,
            Tracing::Alternate(slice) => {
                (t.duration_since(self.phase_start).as_nanos() / slice.as_nanos().max(1)) % 2 == 1
            }
        };
        let mut k = 0usize;
        loop {
            let due = match pace {
                Pace::Count(limit) if k >= limit => break,
                Pace::Count(_) => None,
                Pace::Open { rate_rps, length } => {
                    // Browser b's k-th request is due at (k + b/n) × n/rate:
                    // browsers interleave evenly at the combined rate.
                    let interval = n_browsers as f64 / rate_rps;
                    let offset = (k as f64 + self.browser as f64 / n_browsers as f64) * interval;
                    let due = self.phase_start + Duration::from_secs_f64(offset);
                    if due >= self.phase_start + length {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    Some(due)
                }
                Pace::Closed { length } => {
                    if self.phase_start.elapsed() >= length {
                        break;
                    }
                    None
                }
            };
            let stream = &self.workload.streams[self.browser];
            let op = &stream[*cursor % stream.len()];
            *cursor += 1;
            k += 1;
            match op {
                Op::Get(doc) => {
                    let spans = traced_at(Instant::now()).then_some(&mut out.spans);
                    let fetch = self.get(*doc, due, spans);
                    let summary = &mut out.summary;
                    match fetch.source {
                        Some(source) => {
                            summary.served[source_index(source)] += 1;
                            summary.served_bytes[source_index(source)] += fetch.bytes;
                            self.completed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => summary.failed += 1,
                    }
                    summary.wrong += u64::from(fetch.wrong);
                    if keep_fetches {
                        out.fetches.push(fetch);
                    }
                }
                Op::Change { doc, version } => {
                    out.summary.changes += 1;
                    let body = (*version > 0).then(|| self.workload.changed_body(*doc, *version));
                    if self.change(*doc, body.as_ref()).is_err() {
                        out.summary.failed_changes += 1;
                    }
                }
            }
        }
        out
    }

    /// Fetches `doc` and checks the body. With `spans` given, records a
    /// `fetch` root span (the request's id) with `wait` (open-loop time
    /// spent behind schedule) and `check` children.
    fn get(&self, doc: u32, due: Option<Instant>, spans: Option<&mut Vec<Span>>) -> Fetch {
        let start = Instant::now();
        let result = self.client.fetch(self.dep.url(doc));
        let end = Instant::now();
        let (source, bytes, wrong) = match &result {
            Ok(got) => (
                Some(got.source),
                got.body.len() as u64,
                !self.dep.oracle.accepts(doc, &got.body),
            ),
            Err(_) => (None, 0, false),
        };
        let checked = Instant::now();
        let mut span = 0;
        if let Some(spans) = spans {
            // Unique per run: a browser's fetches start at distinct times.
            span = ((self.ns(start) + 1) << 16) | self.browser as u64;
            let tag = source.map_or("failed", source_name);
            let sent = self.ns(due.unwrap_or(start));
            spans.push(Span::new(span, 0, "fetch", sent, self.ns(end), tag));
            if due.is_some() {
                spans.push(Span::new(span, span, "wait", sent, self.ns(start), ""));
            }
            spans.push(Span::new(
                span,
                span,
                "check",
                self.ns(end),
                self.ns(checked),
                "",
            ));
        }
        Fetch {
            doc,
            browser: self.browser,
            source,
            bytes,
            due: self.ns(due.unwrap_or(start)),
            start: self.ns(start),
            end: self.ns(end),
            wrong,
            span,
        }
    }

    /// The publisher protocol: new bytes at the origin (or identical ones
    /// republished), every browser replica discarded with a piggybacked
    /// notice, and exactly one `INVALIDATE` through the proxy.
    fn change(&self, doc: u32, body: Option<&Body>) -> Result<(), ProxyError> {
        let url = self.dep.url(doc);
        if let Some(body) = body {
            // Publish to the oracle first: a fetch that sees the new bytes
            // must find them accepted.
            self.dep.oracle.publish(doc, body);
            self.dep.bed.origin.mutate(url, body.to_vec());
        }
        for client in &self.dep.bed.clients {
            client.discard(url);
        }
        self.client.publish_invalidate(url)
    }
}
