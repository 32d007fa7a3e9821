//! Seeded workload generation: the origin corpus, one op stream per
//! browser, and the deployment shape (cache budgets, open-loop rate).
//!
//! Everything here is a pure function of `(kind, seed, n_browsers)`. The
//! deployment under test receives only what this module produces — a
//! document store, cache budgets and the URLs the browsers fetch — never
//! the workload's name.

use baps_proxy::protocol::Body;
use baps_trace::{Profile, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// The three workloads, each chosen to stress different layers (see
/// `LAYERS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small bodies, a memory tier holding the whole corpus: per-request
    /// fixed cost (codec, serving loop, shard lookup).
    HotSmall,
    /// Heavy-tailed bodies: per-byte cost (MD5, copies, large writes).
    HeavyTail,
    /// A paper profile with undersized proxy, big browsers, a disk tier
    /// and a document-change stream: the browsers-aware mechanism.
    BrowsersAware,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::HotSmall, Kind::HeavyTail, Kind::BrowsersAware];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HotSmall => "hot-small",
            Kind::HeavyTail => "heavy-tail",
            Kind::BrowsersAware => "browsers-aware",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One browser operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Fetch document `doc` through the browser's `ClientAgent`.
    Get(u32),
    /// The document changed upstream: publish new bytes at the origin
    /// ([`Workload::changed_body`] of `version`; version 0 republishes
    /// identical bytes), discard every browser replica, and send one
    /// `INVALIDATE` through the proxy.
    Change { doc: u32, version: u32 },
}

/// Cache budgets handed to the test bed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Proxy memory tier, bytes.
    pub proxy_capacity: u64,
    /// Each browser cache, bytes.
    pub browser_capacity: u64,
    /// Proxy disk tier, bytes; `None` runs the proxy memory-only.
    pub disk_capacity: Option<u64>,
}

/// A generated workload.
pub struct Workload {
    /// Initial body of document `i` (URL [`url_of`]`(i)`).
    pub bodies: Vec<Body>,
    /// One op stream per browser; browser `b` replays `streams[b]`.
    pub streams: Vec<Vec<Op>>,
    /// Leading ops of every stream replayed during set-up, unmeasured.
    pub warmup: usize,
    /// Cache budgets.
    pub shape: Shape,
    /// Offered open-loop rate for the whole deployment, requests/s.
    pub rate_rps: f64,
    seed: u64,
}

/// Origin URL of document `doc`.
pub fn url_of(doc: u32) -> String {
    baps_bench::scenario::url_of(baps_trace::DocId(doc))
}

/// Documents in the `hot-small` corpus (~2.3 MB, well inside the proxy).
const HOT_DOCS: u32 = 2_000;
/// `hot-small` proxy budget: holds the whole corpus with room to spare.
const HOT_PROXY: u64 = 8 << 20;
/// `hot-small` browser budget: a couple of documents, so nearly every
/// fetch goes to the proxy.
const HOT_BROWSER: u64 = 4 << 10;
/// Gets per browser generated for the stationary workloads; streams wrap
/// around if a fast build exhausts them.
const STATIONARY_OPS: usize = 200_000;

/// Documents in the `heavy-tail` corpus (~50 MB at the model's mean).
const HEAVY_DOCS: usize = 384;
/// Size draws the `heavy-tail` corpus is stratified from.
const HEAVY_POOL: u32 = 16_384;

/// Requests generated from the paper profile for `browsers-aware`; like
/// the stationary streams, they wrap around if a fast build exhausts them.
const AWARE_REQUESTS: u64 = 600_000;
/// Document universe of the scaled profile (~3.5 MB footprint).
const AWARE_DOCS: u32 = 300;
/// Gets between two document changes.
const CHANGE_PERIOD: usize = 250;
/// Proxy memory tier as a fraction of the infinite-cache footprint.
const AWARE_PROXY_FRAC: f64 = 0.20;
/// Disk tier as a fraction of the footprint: larger than memory, smaller
/// than the browsers combined, so every tier serves a share.
const AWARE_DISK_FRAC: f64 = 0.80;
/// Leading ops of each browser stream replayed as warm-up: enough body
/// bytes to fill every tier.
const AWARE_WARMUP: usize = 8_000;

impl Workload {
    /// Generates workload `kind` for `n_browsers` browsers from `seed`.
    pub fn generate(kind: Kind, seed: u64, n_browsers: usize) -> Workload {
        assert!(n_browsers >= 1, "at least one browser");
        match kind {
            Kind::HotSmall => hot_small(seed, n_browsers),
            Kind::HeavyTail => heavy_tail(seed, n_browsers),
            Kind::BrowsersAware => browsers_aware(seed, n_browsers),
        }
    }

    /// Body bytes of the initial corpus.
    pub fn footprint(&self) -> u64 {
        self.bodies.iter().map(|b| b.len() as u64).sum()
    }

    /// The bytes `Op::Change { doc, version }` publishes (`version` > 0),
    /// built when the change runs so streams stay small.
    pub fn changed_body(&self, doc: u32, version: u32) -> Body {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (u64::from(version) << 32 | u64::from(doc)));
        random_body(&mut rng, self.bodies[doc as usize].len())
    }
}

fn random_body(rng: &mut StdRng, len: usize) -> Body {
    let mut body = vec![0u8; len];
    rng.fill(body.as_mut_slice());
    Arc::from(body)
}

/// Uniform popularity over every document: no seed can make one large
/// document dominate the byte mix, so figures stay comparable across seeds.
fn uniform_streams(rng: &mut StdRng, n_docs: u32, n_browsers: usize) -> Vec<Vec<Op>> {
    (0..n_browsers)
        .map(|_| {
            (0..STATIONARY_OPS)
                .map(|_| Op::Get(rng.gen_range(0..n_docs)))
                .collect()
        })
        .collect()
}

/// Prepends a warm-up prefix to every stream: browser `b` fetches each
/// document `d` with `d % n == b`, in order, so every document is fetched
/// once and the proxy learns the URLs in the same order for every seed
/// (its sharding follows that order). Returns the prefix length.
fn prepend_each_document_once(streams: &mut [Vec<Op>], n_docs: u32) -> usize {
    let n = streams.len();
    let warmup = (n_docs as usize).div_ceil(n);
    for (b, stream) in streams.iter_mut().enumerate() {
        let mut prefix: Vec<Op> = (0..warmup)
            .map(|i| Op::Get(((i * n + b) % n_docs as usize) as u32))
            .collect();
        prefix.append(stream);
        *stream = prefix;
    }
    warmup
}

fn hot_small(seed: u64, n: usize) -> Workload {
    // Sizes come from the scenario generator's uniform base corpus
    // (256 B – 2 KB).
    let sizes = Scenario::FlashCrowd
        .config(1, 1, HOT_DOCS)
        .generate(seed)
        .doc_sizes;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4057_5e11);
    let bodies = sizes
        .iter()
        .map(|&s| random_body(&mut rng, s as usize))
        .collect();
    let mut streams = uniform_streams(&mut rng, HOT_DOCS, n);
    // The proxy tier holds the whole corpus before measuring starts.
    let warmup = prepend_each_document_once(&mut streams, HOT_DOCS);
    Workload {
        bodies,
        streams,
        warmup,
        shape: Shape {
            proxy_capacity: HOT_PROXY,
            browser_capacity: HOT_BROWSER,
            disk_capacity: None,
        },
        rate_rps: 8_000.0,
        seed,
    }
}

fn heavy_tail(seed: u64, n: usize) -> Workload {
    let cfg = Scenario::HeavyTail.config(1, 1, HEAVY_POOL);
    let mut pool = cfg.generate(seed).doc_sizes;
    pool.sort_unstable();
    // Stratified: one size per equal-probability slice of a large draw,
    // so every seed gets the same size distribution, 4 MB bodies included.
    // Popularity is uniform, so which document gets which size does not
    // matter; in slice order, the proxy's URL-ordered shards see the same
    // byte load for every seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4ea7_7a11);
    let offset: f64 = rng.gen();
    let bodies = (0..HEAVY_DOCS)
        .map(|i| {
            let size = pool[((i as f64 + offset) / HEAVY_DOCS as f64 * pool.len() as f64) as usize];
            random_body(&mut rng, size as usize)
        })
        .collect();
    let mut streams = uniform_streams(&mut rng, HEAVY_DOCS as u32, n);
    let warmup = prepend_each_document_once(&mut streams, HEAVY_DOCS as u32);
    // Cache budgets exactly as the scenario replays size them; memory-only,
    // so per-byte cost is not mixed with file I/O.
    let bed = baps_bench::scenario::bed_config(&cfg, None);
    Workload {
        bodies,
        streams,
        warmup,
        shape: Shape {
            proxy_capacity: bed.proxy_capacity,
            browser_capacity: bed.browser_capacity,
            disk_capacity: None,
        },
        rate_rps: 300.0,
        seed,
    }
}

fn browsers_aware(seed: u64, n: usize) -> Workload {
    let profile = Profile::Bu98;
    let mut cfg = profile.config();
    cfg.n_clients = n as u32;
    cfg.n_requests = AWARE_REQUESTS;
    cfg.n_docs = AWARE_DOCS;
    // Browsers are independent users offering equal load; every browser
    // shares one group pool. Changes come from the explicit change
    // stream below, not from size drift.
    cfg.client_alpha = 0.0;
    cfg.group_count = 1;
    cfg.p_size_change = 0.0;
    let trace = cfg.generate(seed);

    // Dense document ids in order of first reference; the first request's
    // size is the document's size.
    let mut dense: HashMap<u32, u32> = HashMap::new();
    let mut sizes: Vec<u32> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0a5_a3a3);
    let mut streams: Vec<Vec<Op>> = vec![Vec::new(); n];
    let mut recent: Vec<u32> = Vec::new();
    let mut changes = 0u32;
    for (i, req) in trace.requests.iter().enumerate() {
        let next = sizes.len() as u32;
        let doc = *dense.entry(req.doc.0).or_insert(next);
        if doc == next {
            sizes.push(req.size.max(1));
        }
        let stream = &mut streams[req.client.0 as usize % n];
        if i > 0 && i % CHANGE_PERIOD == 0 {
            // Change a recently requested document, so cached replicas
            // exist to be invalidated. Every other change republishes
            // identical bytes: that path ends in an `If-Digest` 304.
            let doc = recent[rng.gen_range(0..recent.len())];
            changes += 1;
            let version = if changes.is_multiple_of(2) {
                changes
            } else {
                0
            };
            stream.push(Op::Change { doc, version });
        }
        stream.push(Op::Get(doc));
        if recent.len() == 64 {
            recent.remove(0);
        }
        recent.push(doc);
    }
    let bodies: Vec<Body> = sizes
        .iter()
        .map(|&s| random_body(&mut rng, s as usize))
        .collect();
    let footprint: u64 = bodies.iter().map(|b| b.len() as u64).sum();
    let proxy_capacity = (footprint as f64 * AWARE_PROXY_FRAC) as u64;
    // The paper's browser sizing: k × proxy size / number of clients.
    let browser_capacity = (profile.avg_browser_k() * proxy_capacity as f64 / n as f64) as u64;
    Workload {
        bodies,
        streams,
        warmup: AWARE_WARMUP,
        shape: Shape {
            proxy_capacity,
            browser_capacity,
            disk_capacity: Some((footprint as f64 * AWARE_DISK_FRAC) as u64),
        },
        rate_rps: 3_000.0,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: &Workload, b: &Workload) -> bool {
        a.bodies == b.bodies && a.streams == b.streams && a.shape == b.shape
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 11, 2);
            let b = Workload::generate(kind, 11, 2);
            assert!(same(&a, &b), "{}: same seed diverged", kind.name());
        }
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 11, 2);
            let b = Workload::generate(kind, 12, 2);
            assert!(a.streams != b.streams, "{}: op streams equal", kind.name());
            assert!(a.bodies != b.bodies, "{}: corpora equal", kind.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
