//! The traced run's layer map, priced from outside the program.
//!
//! Spans are the benchmark's own: one `fetch` root per traced request
//! (its id is the request's id) with `wait`/`check` children, recorded by
//! the driver threads. After the measured phases, a sample of the traced
//! requests is *replayed*: each request's real inputs (URL, current body,
//! a watermark over it) go through each layer's public function on its
//! own, each call timed as a `replay.<layer>` child span of that request.
//! A tier's residual is its observed service time minus the isolated
//! costs on its path: transport, wake-ups and queueing the layers do not
//! explain.

use crate::drive::{Deployment, Fetch};
use crate::workload::Workload;
use baps_crypto::{md5, verify_document, ProxySigner};
use baps_proxy::protocol::{encode_message, read_message, write_message, Message};
use baps_proxy::{
    auto_shards, CachedDoc, DiskConfig, DiskTier, ShardedCache, Source, StripedIndex,
};
use baps_trace::{ClientId, DocId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One span. Spans of one request share `trace`; the root has `parent`
/// 0, its children name the root's id. Times are ns since the run epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id (the root span's id).
    pub trace: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Layer or step name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Free-form label (a fetch's serving tier).
    pub tag: &'static str,
}

impl Span {
    /// A span of request `trace` under `parent` (0 for the root).
    pub fn new(
        trace: u64,
        parent: u64,
        name: &'static str,
        start: u64,
        end: u64,
        tag: &'static str,
    ) -> Span {
        Span {
            trace,
            parent,
            name,
            start,
            end,
            tag,
        }
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"trace":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{},"tag":"{}"}}"#,
            s.trace, s.parent, s.name, s.start, s.end, s.tag
        )?;
    }
    out.flush()
}

/// Lowercase tier name of a fetch source.
pub fn source_name(source: Source) -> &'static str {
    match source {
        Source::LocalBrowser => "local",
        Source::Proxy => "proxy",
        Source::ProxyDisk => "disk",
        Source::Peer => "peer",
        Source::Origin => "origin",
    }
}

/// Isolated cost of one replayed request, ns per layer call.
#[derive(Debug, Clone, Copy, Default)]
struct Costs {
    md5: u64,
    sign: u64,
    verify: u64,
    /// Request plus reply frame.
    encode: u64,
    decode: u64,
    shard_get: u64,
    shard_insert: Option<u64>,
    index_lookup: u64,
    index_update: u64,
    disk_load: Option<u64>,
    disk_store: Option<u64>,
    origin_get: u64,
}

impl Costs {
    /// Summed isolated cost on the path that serves `source`, ns.
    fn path(&self, source: Source) -> u64 {
        let codec = self.encode + self.decode;
        let disk_load = self.disk_load.unwrap_or(0);
        let client_side = codec + self.verify;
        match source {
            Source::LocalBrowser => 0,
            Source::Proxy => client_side + self.shard_get + self.index_update,
            Source::ProxyDisk => client_side + self.shard_get + disk_load + self.index_update,
            // Client ↔ proxy and proxy ↔ peer frames.
            Source::Peer => {
                client_side
                    + codec
                    + self.shard_get
                    + disk_load
                    + self.index_lookup
                    + self.index_update
            }
            Source::Origin => {
                client_side
                    + self.shard_get
                    + disk_load
                    + self.index_lookup
                    + self.origin_get
                    + self.sign
                    + self.shard_insert.unwrap_or(0)
                    + self.disk_store.unwrap_or(0)
                    + self.index_update
            }
        }
    }
}

/// Most requests replayed per traced run.
const REPLAY_MAX: usize = 2_000;
/// Body bytes replayed at most, so per-byte workloads stay quick.
const REPLAY_BYTES: u64 = 96 << 20;

/// What the replay measured.
pub struct Replay {
    /// `(name, value, unit)` per-layer metrics.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `replay.<layer>` child spans.
    pub spans: Vec<Span>,
    /// Requests replayed.
    pub samples: usize,
}

/// Replays an evenly spaced sample of `traced` (successful, traced
/// fetches in issue order) through each layer in isolation.
pub fn replay(
    dep: &Deployment,
    w: &Workload,
    traced: &[Fetch],
    disk_root: &Path,
    epoch: Instant,
) -> io::Result<Replay> {
    let total_bytes: u64 = traced.iter().map(|f| f.bytes).sum();
    let mean_bytes = (total_bytes / traced.len().max(1) as u64).max(1);
    let count = traced
        .len()
        .min(REPLAY_MAX)
        .min((REPLAY_BYTES / mean_bytes) as usize)
        .max(1);
    let stride = (traced.len() / count).max(1);
    let sample: Vec<&Fetch> = traced.iter().step_by(stride).take(count).collect();

    let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(0x5eed_ba95));
    let key = signer.public_key();
    let cache = ShardedCache::new(w.shape.proxy_capacity, auto_shards(w.shape.proxy_capacity));
    let index = StripedIndex::new(baps_proxy::shard::DEFAULT_INDEX_SHARDS);
    let disk = match w.shape.disk_capacity {
        Some(capacity) => {
            let _ = std::fs::remove_dir_all(disk_root);
            Some(DiskTier::open(
                DiskConfig {
                    root: disk_root.to_path_buf(),
                    capacity,
                    default_ttl: Duration::from_secs(3600),
                },
                key,
            )?)
        }
        None => None,
    };
    let origin = TcpStream::connect(dep.bed.origin.addr())?;
    let mut origin_reader = BufReader::new(origin.try_clone()?);
    let mut origin_writer = origin;

    let mut spans = Vec::new();
    let mut costs = Vec::with_capacity(sample.len());
    let mut md5_bytes = 0u64;
    for f in &sample {
        let url = dep.url(f.doc);
        let body = dep.oracle.latest(f.doc);
        let doc = DocId(f.doc);
        let client = ClientId(f.browser as u32);
        let source = f.source.expect("replayed fetches succeeded");
        let mut c = Costs::default();
        let mut time = |name: &'static str, op: &mut dyn FnMut()| -> u64 {
            let t0 = Instant::now();
            op();
            let t1 = Instant::now();
            let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
            spans.push(Span::new(f.span, f.span, name, ns(t0), ns(t1), ""));
            (t1 - t0).as_nanos() as u64
        };

        c.md5 = time("replay.md5", &mut || {
            std::hint::black_box(md5(std::hint::black_box(&body)));
        });
        md5_bytes += body.len() as u64;
        let mut watermark = None;
        c.sign = time("replay.sign", &mut || {
            watermark = Some(signer.watermark(&body))
        });
        let watermark = watermark.expect("signed above");
        c.verify = time("replay.verify", &mut || {
            assert!(
                verify_document(&key, &body, &watermark).is_ok(),
                "replayed watermark verifies"
            );
        });

        let request = Message::new(format!("GET {url} BAPS/1.0"))
            .header("Client", f.browser.to_string())
            .header("Trace-Id", f.span.to_string());
        let reply = Message::new("BAPS/1.0 200 OK")
            .header("X-Source", source_name(source))
            .header("X-Watermark", watermark.to_hex())
            .with_body(body.clone());
        let mut frames = Vec::new();
        c.encode = time("replay.encode", &mut || {
            frames = vec![
                encode_message(&request).expect("encode to memory"),
                encode_message(&reply).expect("encode to memory"),
            ];
        });
        c.decode = time("replay.decode", &mut || {
            for frame in &frames {
                let decoded = read_message(&mut &frame[..]).expect("decode from memory");
                std::hint::black_box(decoded);
            }
        });

        let mut hit = false;
        c.shard_get = time("replay.shard_get", &mut || {
            hit = cache.get(doc, url).is_some()
        });
        if !hit {
            let entry = CachedDoc {
                body: body.clone(),
                watermark,
            };
            c.shard_insert = Some(time("replay.shard_insert", &mut || {
                std::hint::black_box(cache.insert(doc, url, entry.clone()));
            }));
        }
        c.index_lookup = time("replay.index_lookup", &mut || {
            std::hint::black_box(index.lookup_all(doc, client));
        });
        c.index_update = time("replay.index_update", &mut || index.on_store(client, doc));

        if let Some(disk) = &disk {
            let mut found = false;
            c.disk_load = Some(time("replay.disk_load", &mut || {
                found = disk.load(url).is_some()
            }));
            if !found {
                let entry = CachedDoc {
                    body: body.clone(),
                    watermark,
                };
                c.disk_store = Some(time("replay.disk_store", &mut || disk.store(url, &entry)));
            }
        }

        let mut got = None;
        c.origin_get = time("replay.origin_get", &mut || {
            let get = Message::new(format!("GET {url} ORIGIN/1.0"));
            got = Some(
                write_message(&mut origin_writer, &get)
                    .and_then(|()| read_message(&mut origin_reader)),
            );
        });
        match got {
            Some(Ok(Some(reply))) if reply.body.len() == body.len() => {}
            other => {
                return Err(io::Error::other(format!(
                    "isolated origin GET of {url} failed: {other:?}"
                )))
            }
        }
        costs.push((f, c));
    }
    if let Some(disk) = disk {
        drop(disk);
        let _ = std::fs::remove_dir_all(disk_root);
    }

    let n = costs.len().max(1) as f64;
    let mean =
        |get: &dyn Fn(&Costs) -> u64| costs.iter().map(|(_, c)| get(c)).sum::<u64>() as f64 / n;
    let mean_some = |get: &dyn Fn(&Costs) -> Option<u64>| {
        let xs: Vec<u64> = costs.iter().filter_map(|(_, c)| get(c)).collect();
        xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64
    };
    let md5_secs = costs.iter().map(|(_, c)| c.md5).sum::<u64>() as f64 / 1e9;
    let residual = |tier: Source| {
        let xs: Vec<f64> = costs
            .iter()
            .filter(|(f, _)| f.source == Some(tier))
            .map(|(f, c)| f.service_us() - c.path(tier) as f64 / 1e3)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let metrics = vec![
        ("crypto.sign_us", mean(&|c| c.sign) / 1e3, "us"),
        ("crypto.verify_us", mean(&|c| c.verify) / 1e3, "us"),
        (
            "crypto.md5_mib_s",
            md5_bytes as f64 / (1 << 20) as f64 / md5_secs.max(1e-9),
            "MiB/s",
        ),
        // Per message: each request contributes a request and a reply frame.
        ("protocol.encode_us", mean(&|c| c.encode) / 2e3, "us"),
        ("protocol.decode_us", mean(&|c| c.decode) / 2e3, "us"),
        ("shard.get_ns", mean(&|c| c.shard_get), "ns"),
        ("shard.insert_ns", mean_some(&|c| c.shard_insert), "ns"),
        ("index.lookup_ns", mean(&|c| c.index_lookup), "ns"),
        ("index.update_ns", mean(&|c| c.index_update), "ns"),
        ("disk.load_us", mean_some(&|c| c.disk_load) / 1e3, "us"),
        ("disk.store_us", mean_some(&|c| c.disk_store) / 1e3, "us"),
        ("origin.get_us", mean(&|c| c.origin_get) / 1e3, "us"),
        ("io.residual_us.proxy", residual(Source::Proxy), "us"),
        ("io.residual_us.disk", residual(Source::ProxyDisk), "us"),
        ("io.residual_us.peer", residual(Source::Peer), "us"),
        ("io.residual_us.origin", residual(Source::Origin), "us"),
    ];
    Ok(Replay {
        metrics,
        spans,
        samples: costs.len(),
    })
}
