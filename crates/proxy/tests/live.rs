//! End-to-end tests of the live browsers-aware proxy over loopback TCP.

use baps_proxy::{DocumentStore, Source, TestBed, TestBedConfig};

fn bed(n_clients: u32, proxy_capacity: u64, browser_capacity: u64) -> TestBed {
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    TestBed::start(
        store,
        TestBedConfig {
            n_clients,
            proxy_capacity,
            browser_capacity,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts")
}

#[test]
fn origin_then_proxy_then_local() {
    let bed = bed(2, 64 << 10, 32 << 10);
    let url = "http://origin/doc/0";

    // First fetch: from the origin (and verified).
    let r0 = bed.clients[0].fetch(url).unwrap();
    assert_eq!(r0.source, Source::Origin);

    // Another client: proxy cache hit.
    let r1 = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r1.source, Source::Proxy);
    assert_eq!(r1.body, r0.body);

    // Same client again: local browser cache.
    let r2 = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r2.source, Source::LocalBrowser);

    let stats = bed.proxy.stats();
    assert_eq!(stats.origin_fetches, 1);
    assert_eq!(stats.proxy_hits, 1);
    assert_eq!(bed.origin.hits(), 1);
    bed.shutdown();
}

#[test]
fn remote_browser_hit_after_proxy_eviction() {
    // Tiny proxy cache: one ~2KB doc flushes another out.
    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    let r0 = bed.clients[0].fetch(url0).unwrap();
    assert_eq!(r0.source, Source::Origin);

    // Flood the proxy cache so doc/0 is evicted from it (but stays in
    // client 0's browser cache).
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }

    // Client 1 now gets doc/0 from client 0's browser via the index.
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.source, Source::Peer, "expected a peer hit");
    assert_eq!(r1.body, r0.body);
    assert_eq!(bed.proxy.stats().peer_hits, 1);
    assert!(bed.clients[0].peer_serves() >= 1);
    bed.shutdown();
}

#[test]
fn tampering_peer_detected_and_bypassed() {
    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    let r0 = bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // Client 0 turns malicious: serves corrupted bytes to peers.
    bed.clients[0].set_tamper(true);

    // Client 1 still receives the *correct* document: the watermark check
    // rejects the tampered copy and the retry bypasses peers.
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.body, r0.body);
    assert_ne!(r1.source, Source::Peer);
    bed.shutdown();
}

#[test]
fn invalidation_keeps_index_consistent() {
    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // Client 0 evicts the doc and tells the proxy.
    assert!(bed.clients[0].evict(url0).unwrap());

    // Client 1's fetch cannot be served by a peer anymore.
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.source, Source::Origin);
    bed.shutdown();
}

#[test]
fn stale_index_self_heals_on_dead_peer() {
    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // Kill client 0 without invalidating: the index is now stale.
    let client0 = {
        let mut clients = bed.clients;
        let c0 = clients.remove(0);
        c0.shutdown();
        clients
    };
    // The probe fails, the proxy self-heals, and the origin serves.
    let r1 = client0[0].fetch(url0).unwrap(); // this is old client 1
    assert_eq!(r1.source, Source::Origin);
    // (peer_failures may be 0 if the OS delivered a GONE-equivalent reset
    // before the probe; the fetch succeeding is the contract.)
    for c in client0 {
        c.shutdown();
    }
    bed.proxy.shutdown();
    bed.origin.shutdown();
}

#[test]
fn missing_document_is_not_found() {
    let bed = bed(1, 64 << 10, 32 << 10);
    let err = bed.clients[0].fetch("http://origin/doc/999").unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");
    bed.shutdown();
}

#[test]
fn browser_evictions_send_invalidations() {
    // Browser cache fits roughly one document: every new fetch evicts.
    let bed = bed(1, 64 << 10, 2_100);
    for i in 0..6 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let stats = bed.proxy.stats();
    assert!(
        stats.invalidations > 0,
        "expected eviction invalidations, got {stats:?}"
    );
    // Index bounded by what the browser can actually hold.
    assert!(bed.proxy.index_entries() <= 6);
    bed.shutdown();
}

#[test]
fn concurrent_clients_consistent_bodies() {
    let bed = bed(6, 64 << 10, 32 << 10);
    let expected = bed.clients[0].fetch("http://origin/doc/3").unwrap().body;
    // Fetch from all clients concurrently using scoped threads.
    std::thread::scope(|scope| {
        for c in &bed.clients {
            let expected = expected.clone();
            scope.spawn(move || {
                let r = c.fetch("http://origin/doc/3").unwrap();
                assert_eq!(r.body, expected);
            });
        }
    });
    bed.shutdown();
}

#[test]
fn direct_forward_peer_delivery() {
    // Same scenario as the relayed peer hit, but in direct-forward mode:
    // the holder pushes the document straight to the requester.
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 3,
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            direct_forward: true,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let url0 = "http://origin/doc/0";
    let r0 = bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.source, Source::Peer);
    assert_eq!(r1.body, r0.body);
    let stats = bed.proxy.stats();
    assert_eq!(stats.peer_hits, 1);
    assert_eq!(stats.direct_pushes, 1, "must be a direct push, not a relay");
    // The requester cached the delivery: next access is local.
    assert_eq!(
        bed.clients[1].fetch(url0).unwrap().source,
        Source::LocalBrowser
    );
    bed.shutdown();
}

#[test]
fn direct_forward_tampering_detected() {
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 3,
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            direct_forward: true,
            ..TestBedConfig::default()
        },
    )
    .unwrap();
    let url0 = "http://origin/doc/0";
    let r0 = bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    bed.clients[0].set_tamper(true);
    // The tampered direct delivery fails the watermark check; the retry
    // bypasses peers and still returns the correct bytes.
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.body, r0.body);
    assert_ne!(r1.source, Source::Peer);
    bed.shutdown();
}

#[test]
fn stats_verb_over_one_keepalive_connection() {
    use baps_proxy::{read_message, response_code, write_message, Message};
    use std::io::BufReader;
    use std::net::TcpStream;

    let bed = bed(2, 64 << 10, 32 << 10);
    bed.clients[0].fetch("http://origin/doc/0").unwrap();
    bed.clients[1].fetch("http://origin/doc/0").unwrap();

    // Several exchanges over a single raw connection: a GET, then STATS,
    // then STATS again — the connection stays framed throughout.
    let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    write_message(
        &mut writer,
        &Message::new("GET http://origin/doc/1 BAPS/1.0").header("Client", "0"),
    )
    .unwrap();
    let reply = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&reply), Some(200));

    for _ in 0..2 {
        write_message(&mut writer, &Message::new("STATS BAPS/1.0")).unwrap();
        let stats_reply = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(response_code(&stats_reply), Some(200));
        let stats = bed.proxy.stats();
        let field = |name: &str| -> u64 { stats_reply.get(name).unwrap().parse().unwrap() };
        assert_eq!(field("Requests"), stats.requests);
        assert_eq!(field("Proxy-Hits"), stats.proxy_hits);
        assert_eq!(field("Disk-Hits"), stats.disk_hits);
        assert_eq!(field("Disk-Revalidations"), stats.disk_revalidations);
        // No disk tier configured in this bed: its gauges stay zero but
        // the headers are always present.
        assert_eq!(field("Disk-Entries"), 0);
        assert_eq!(field("Disk-Bytes"), 0);
        assert_eq!(field("Peer-Hits"), stats.peer_hits);
        assert_eq!(field("Origin-Fetches"), stats.origin_fetches);
        assert_eq!(field("Invalidations"), stats.invalidations);
        assert_eq!(field("Peer-Failures"), stats.peer_failures);
        assert_eq!(field("Peer-Fallbacks"), stats.peer_fallbacks);
        assert_eq!(field("Direct-Pushes"), stats.direct_pushes);
        assert_eq!(field("Errors"), stats.errors);
        assert!(stats.requests >= 3);
        // Balance identity straight off the wire.
        assert_eq!(
            field("Requests"),
            field("Proxy-Hits")
                + field("Disk-Hits")
                + field("Peer-Hits")
                + field("Origin-Fetches")
                + field("Errors")
        );

        // Shard occupancy and contention counters. Per-shard lists carry
        // exactly one comma-separated value per shard and sum to the
        // whole-structure totals.
        let shard_list = |name: &str| -> Vec<u64> {
            stats_reply
                .get(name)
                .unwrap_or_else(|| panic!("missing {name} header"))
                .split(',')
                .map(|v| v.parse().unwrap())
                .collect()
        };
        let cache_shards = field("Cache-Shards") as usize;
        let index_shards = field("Index-Shards") as usize;
        assert!(cache_shards >= 1);
        assert!(index_shards >= 1);
        let cache_entries = shard_list("Cache-Shard-Entries");
        let cache_bytes = shard_list("Cache-Shard-Bytes");
        let cache_locks = shard_list("Cache-Lock-Acquires");
        assert_eq!(cache_entries.len(), cache_shards);
        assert_eq!(cache_bytes.len(), cache_shards);
        assert_eq!(cache_locks.len(), cache_shards);
        assert_eq!(cache_bytes.iter().sum::<u64>(), field("Cache-Bytes"));
        assert!(cache_entries.iter().sum::<u64>() >= 2, "doc/0 + doc/1");
        assert!(
            cache_locks.iter().sum::<u64>() > 0,
            "hot path must have taken cache locks"
        );
        let index_entries = shard_list("Index-Shard-Entries");
        let index_locks = shard_list("Index-Lock-Acquires");
        assert_eq!(index_entries.len(), index_shards);
        assert_eq!(index_locks.len(), index_shards);
        assert_eq!(index_entries.iter().sum::<u64>(), field("Index-Entries"));
        assert_eq!(field("Index-Entries"), bed.proxy.index_entries());
        assert!(index_locks.iter().sum::<u64>() > 0);
    }
    bed.shutdown();
}

/// Satellite: a proxy cache hit must not copy the body. The test hook
/// hands out the cache's own `Arc` handle; two reads return the same
/// allocation, and serving requests in between does not disturb it.
#[test]
fn proxy_cache_hit_does_not_copy_body() {
    use std::sync::Arc;

    let bed = bed(2, 64 << 10, 32 << 10);
    let url = "http://origin/doc/5";
    bed.clients[0].fetch(url).unwrap();

    let first = bed.proxy.cached_body(url).expect("doc cached after fetch");
    // A proxy-hit fetch serves the same cached entry...
    let r = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r.body[..], first[..]);
    // ...and the cache still holds the identical allocation: the hit path
    // bumped a refcount instead of copying or replacing the body.
    let second = bed.proxy.cached_body(url).expect("still cached");
    assert!(
        Arc::ptr_eq(&first, &second),
        "cache hit must share the allocation, not copy it"
    );
    bed.shutdown();
}

/// Tentpole stress: many workers hammering one hot document plus disjoint
/// per-thread documents. Every fetch must return byte-exact,
/// watermark-valid bodies with no deadlock, while the sharded state takes
/// concurrent traffic on different shards.
#[test]
fn concurrent_stress_hot_and_disjoint_docs() {
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    let bed = TestBed::start(
        store.clone(),
        TestBedConfig {
            n_clients: 8,
            proxy_capacity: 256 << 10,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    let hot = "http://origin/doc/0";
    let expected_hot = store.get(hot).unwrap().to_vec();

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let workers: Vec<_> = bed
            .clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let expected_hot = expected_hot.clone();
                let store = &store;
                scope.spawn(move || {
                    // Each thread interleaves the shared hot doc with its
                    // own disjoint docs (spread over shards).
                    for round in 0..30 {
                        let r = c.fetch(hot).unwrap();
                        assert_eq!(r.body[..], expected_hot[..], "hot doc corrupted");
                        let own = format!("http://origin/doc/{}", 1 + ((i + round) % 15));
                        let r = c.fetch(&own).unwrap();
                        assert_eq!(
                            r.body[..],
                            store.get(&own).unwrap()[..],
                            "disjoint doc corrupted"
                        );
                    }
                })
            })
            .collect();
        // Sampler: snapshots taken *while* the workers hammer the proxy
        // must balance every time. (Before `ProxyCounters::snapshot` the
        // STATS path read each counter independently and could observe a
        // request in `requests` whose outcome counter had not landed yet.)
        let proxy = &bed.proxy;
        let done = &done;
        let sampler = scope.spawn(move || loop {
            let s = proxy.stats();
            assert_eq!(
                s.requests,
                s.proxy_hits + s.disk_hits + s.peer_hits + s.origin_fetches + s.errors,
                "mid-load snapshot tore: {s:?}"
            );
            if done.load(std::sync::atomic::Ordering::Acquire) {
                break;
            }
            std::thread::yield_now();
        });
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        sampler.join().unwrap();
    });

    // Integrity was verified client-side (watermarks) on every non-local
    // fetch; the counters must balance, proving no request was lost.
    let stats = bed.proxy.stats();
    assert_eq!(
        stats.requests,
        stats.proxy_hits + stats.disk_hits + stats.peer_hits + stats.origin_fetches + stats.errors
    );
    assert_eq!(stats.errors, 0);
    bed.shutdown();
}

#[test]
fn stats_via_client_helper() {
    let bed = bed(1, 64 << 10, 32 << 10);
    bed.clients[0].fetch("http://origin/doc/2").unwrap();
    let reply = bed.clients[0].proxy_stats_raw().unwrap();
    assert_eq!(reply.get("Requests").unwrap(), "1");
    assert_eq!(reply.get("Origin-Fetches").unwrap(), "1");
    bed.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection() {
    let bed = bed(1, 64 << 10, 32 << 10);
    // Drive enough distinct URLs that every fetch goes to the proxy.
    for i in 0..8 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // One persistent client connection held open, zero forced reconnects.
    assert_eq!(bed.clients[0].reconnects(), 0);
    assert_eq!(bed.proxy.open_connections(), 1);
    bed.shutdown();
}

#[test]
fn stalled_proxy_reply_times_out_instead_of_hanging() {
    use baps_proxy::{FaultConfig, FaultPlan, ProxyError};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // Every GET reply stalls mid-frame far longer than the client's read
    // deadline: the fetch must surface a timeout quickly, never hang.
    let plan = Arc::new(FaultPlan::new(
        7,
        FaultConfig {
            p_proxy_stall: 1.0,
            stall: Duration::from_secs(2),
            ..FaultConfig::default()
        },
    ));
    let store = DocumentStore::synthetic(4, 200, 400, 42);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 1,
            client_timeout: Duration::from_millis(150),
            client_retries: 0,
            fault_plan: Some(plan),
            ..TestBedConfig::default()
        },
    )
    .unwrap();

    let t0 = Instant::now();
    let err = bed.clients[0].fetch("http://origin/doc/0").unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        matches!(err, ProxyError::Timeout),
        "expected timeout: {err}"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "fetch blocked for {elapsed:?} despite a 150 ms deadline"
    );
    bed.shutdown();
}

#[test]
fn tamper_mode_matrix_never_yields_wrong_bytes() {
    use baps_proxy::TamperMode;

    // Every way a malicious peer can lie — corrupted bytes, a truncated
    // body, a forged watermark — must be caught by the requester's
    // verification and answered with correct bytes from elsewhere.
    for mode in [
        TamperMode::FlipByte,
        TamperMode::Truncate,
        TamperMode::ForgeWatermark,
    ] {
        let bed = bed(3, 2_500, 64 << 10);
        let url0 = "http://origin/doc/0";
        let r0 = bed.clients[0].fetch(url0).unwrap();
        for i in 1..8 {
            bed.clients[2]
                .fetch(&format!("http://origin/doc/{i}"))
                .unwrap();
        }
        bed.clients[0].set_tamper_mode(mode);

        let r1 = bed.clients[1].fetch(url0).unwrap();
        assert_eq!(r1.body, r0.body, "{mode:?}: wrong bytes served");
        assert_ne!(r1.source, Source::Peer, "{mode:?}: tampered peer trusted");
        bed.shutdown();
    }
}

/// Satellite: a client-minted `Trace-Id` must reappear on every hop the
/// request touches. One request that is served by a peer yields, under the
/// same trace id, the proxy's peer-probe span and the holder's peer-serve
/// span; one origin-served request yields the proxy's origin-fetch span
/// and the origin's own serve span.
#[test]
fn trace_id_propagates_across_peer_and_origin_hops() {
    use baps_obs::{EventKind, TraceId};

    let bed = bed(3, 2_500, 64 << 10);
    let url0 = "http://origin/doc/0";

    // Origin-served fetch by client 0, then the usual eviction flood so
    // client 1's fetch of url0 becomes a peer hit served by client 0.
    bed.clients[0].fetch(url0).unwrap();
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.source, Source::Peer, "scenario must produce a peer hit");

    let events = bed.recorder.dump();
    // The whole-fetch span carries the client id, url, and serve tier in
    // its detail; use it to recover the trace id each fetch minted.
    let fetch_trace = |detail_needle: &str| -> TraceId {
        events
            .iter()
            .find(|e| e.kind == EventKind::Fetch && e.detail.contains(detail_needle))
            .unwrap_or_else(|| panic!("no fetch event matching {detail_needle:?}"))
            .trace
    };
    let with_trace = |trace: TraceId, kind: EventKind| -> Vec<&baps_obs::Event> {
        events
            .iter()
            .filter(|e| e.trace == trace && e.kind == kind)
            .collect()
    };

    // Client 1's peer-served fetch: the proxy probed under the same trace,
    // and client 0 served the PEERGET under the same trace.
    let peer_trace = fetch_trace("client=1 url=http://origin/doc/0 source=peer");
    assert_ne!(peer_trace, TraceId::NONE);
    assert!(
        !with_trace(peer_trace, EventKind::PeerProbe).is_empty(),
        "proxy peer-probe span missing for {peer_trace}"
    );
    let serves = with_trace(peer_trace, EventKind::PeerServe);
    assert!(
        serves.iter().any(|e| e.detail.contains("client=0")),
        "client 0's peer-serve span missing for {peer_trace}: {events:#?}"
    );

    // Client 0's original origin-served fetch: proxy-side origin-fetch
    // span and the origin server's own serve span, same trace.
    let origin_trace = fetch_trace("client=0 url=http://origin/doc/0 source=origin");
    assert_ne!(origin_trace, TraceId::NONE);
    assert_ne!(origin_trace, peer_trace, "each fetch mints a fresh trace");
    assert!(
        !with_trace(origin_trace, EventKind::OriginFetch).is_empty(),
        "proxy origin-fetch span missing for {origin_trace}"
    );
    assert!(
        !with_trace(origin_trace, EventKind::OriginServe).is_empty(),
        "origin serve span missing for {origin_trace}"
    );
    bed.shutdown();
}

/// Tentpole: the `METRICS BAPS/1.0` verb returns a parseable Prometheus
/// exposition whose counters agree with the `STATS` snapshot and whose
/// per-tier histogram counts sum to the served-request total.
#[test]
fn metrics_verb_exposition_balances() {
    use baps_obs::prom;

    let bed = bed(2, 64 << 10, 32 << 10);
    for i in 0..4 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
        bed.clients[1]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }

    let reply = bed.clients[0].proxy_metrics_raw().unwrap();
    assert!(reply.get("Content-Type").unwrap().starts_with("text/plain"));
    let text = String::from_utf8(reply.body.to_vec()).unwrap();
    let samples = prom::parse(&text).expect("exposition parses");
    let get = |name: &str, labels: &[(&str, &str)]| {
        prom::find(&samples, name, labels)
            .unwrap_or_else(|| panic!("missing {name}{labels:?} in:\n{text}"))
    };

    let stats = bed.proxy.stats();
    assert_eq!(get("baps_requests_total", &[]), stats.requests as f64);
    assert_eq!(
        get("baps_served_total", &[("tier", "proxy")]),
        stats.proxy_hits as f64
    );
    assert_eq!(
        get("baps_served_total", &[("tier", "disk")]),
        stats.disk_hits as f64
    );
    assert_eq!(
        get("baps_served_total", &[("tier", "origin")]),
        stats.origin_fetches as f64
    );
    assert_eq!(get("baps_errors_total", &[]), stats.errors as f64);

    // Per-tier latency histogram counts cover exactly the served GETs.
    let served: f64 = ["proxy", "disk", "peer", "origin"]
        .iter()
        .map(|t| get("baps_request_latency_ms_count", &[("tier", t)]))
        .sum();
    assert_eq!(served, (stats.requests - stats.errors) as f64);
    // And the verb histogram saw every dispatched GET (keep-alive GETs,
    // REGISTERs, plus this METRICS scrape are all dispatched verbs).
    assert!(get("baps_verb_latency_ms_count", &[("verb", "GET")]) >= stats.requests as f64);
    assert!(get("baps_verb_latency_ms_count", &[("verb", "METRICS")]) >= 0.0);

    // Shard gauges: per-shard cache bytes sum to the aggregate gauge.
    let cache_bytes = get("baps_cache_bytes", &[]);
    let shard_sum: f64 = samples
        .iter()
        .filter(|s| s.name == "baps_cache_shard_bytes")
        .map(|s| s.value)
        .sum();
    assert_eq!(shard_sum, cache_bytes);
    bed.shutdown();
}

#[test]
fn per_request_mode_still_works() {
    let bed = bed(2, 64 << 10, 32 << 10);
    for client in &bed.clients {
        client.set_keep_alive(false);
    }
    let r0 = bed.clients[0].fetch("http://origin/doc/3").unwrap();
    assert_eq!(r0.source, Source::Origin);
    let r1 = bed.clients[1].fetch("http://origin/doc/3").unwrap();
    assert_eq!(r1.source, Source::Proxy);
    assert_eq!(r1.body, r0.body);
    bed.shutdown();
}

// ---------------------------------------------------------------------------
// Persistent disk tier (DESIGN.md §10): warm restarts, crash safety,
// restart-surviving counters, and idempotent eviction notices.

/// A fresh, empty disk root under the system temp dir, unique per test.
fn disk_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("baps_live_{}_{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A test bed whose proxy has the persistent disk tier enabled.
fn disk_bed(n_clients: u32, dir: &std::path::Path, ttl: std::time::Duration) -> TestBed {
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    TestBed::start(
        store,
        TestBedConfig {
            n_clients,
            proxy_capacity: 64 << 10,
            browser_capacity: 32 << 10,
            disk_root: Some(dir.to_path_buf()),
            disk_capacity: 1 << 20,
            disk_ttl: ttl,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts")
}

/// Tentpole: a fully restarted proxy (workers stopped, memory cache and
/// index lost) re-opens its disk store and serves the next miss from it —
/// byte-exact, without touching the origin again.
#[test]
fn warm_restart_serves_from_disk() {
    let dir = disk_dir("warm_restart");
    let mut bed = disk_bed(3, &dir, std::time::Duration::from_secs(3600));
    let url = "http://origin/doc/0";

    let r0 = bed.clients[0].fetch(url).unwrap();
    assert_eq!(r0.source, Source::Origin);
    assert_eq!(bed.origin.hits(), 1);

    bed.restart_proxy().expect("proxy restarts in place");
    assert!(
        bed.proxy.disk_stats().unwrap().entries >= 1,
        "restarted proxy must re-open a non-empty store"
    );

    // Client 1 never saw the doc; the restarted proxy's memory cache is
    // empty; the index is empty too — only the disk tier can serve this
    // without the origin.
    let r1 = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r1.source, Source::ProxyDisk, "expected a warm disk hit");
    assert_eq!(r1.body, r0.body, "disk-served bytes must be exact");
    assert_eq!(bed.origin.hits(), 1, "origin must not be refetched");
    assert!(bed.proxy.stats().disk_hits >= 1);

    // The disk hit promoted the doc back into the memory cache: a third
    // client (whose browser never held it) gets a plain proxy hit.
    let r2 = bed.clients[2].fetch(url).unwrap();
    assert_eq!(r2.source, Source::Proxy);
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: Prometheus counters survive a proxy restart — a scraper
/// sees `baps_requests_total` monotonic across it, not a reset to zero.
#[test]
fn metrics_counters_survive_restart() {
    use baps_obs::prom;

    let dir = disk_dir("counter_baseline");
    let mut bed = disk_bed(1, &dir, std::time::Duration::from_secs(3600));
    bed.clients[0].fetch("http://origin/doc/0").unwrap();
    bed.clients[0].fetch("http://origin/doc/1").unwrap();

    let scrape = |bed: &TestBed| -> f64 {
        let reply = bed.clients[0].proxy_metrics_raw().unwrap();
        let text = String::from_utf8(reply.body.to_vec()).unwrap();
        let samples = prom::parse(&text).expect("exposition parses");
        prom::find(&samples, "baps_requests_total", &[]).expect("requests_total present")
    };
    let before = scrape(&bed);
    assert_eq!(before, 2.0);

    bed.restart_proxy().expect("proxy restarts in place");

    // The restarted proxy folds the persisted baseline into every
    // snapshot: the next scrape continues from 2, it does not reset.
    let r = bed.clients[0].fetch("http://origin/doc/2").unwrap();
    assert_eq!(r.source, Source::Origin);
    let after = scrape(&bed);
    assert_eq!(after, before + 1.0, "requests_total must stay monotonic");

    // STATS agrees, and the balance identity holds on the folded values.
    let stats = bed.proxy.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(
        stats.requests,
        stats.proxy_hits + stats.disk_hits + stats.peer_hits + stats.origin_fetches + stats.errors
    );
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a proxy killed mid-disk-write leaves a torn file behind.
/// On restart the corrupted entry fails watermark verification and
/// self-heals via the origin, while intact entries keep serving warm —
/// and every body is byte-exact either way.
#[test]
fn torn_disk_write_self_heals_after_crash() {
    let dir = disk_dir("torn_write");
    let (body0, body1);
    {
        let bed = disk_bed(1, &dir, std::time::Duration::from_secs(3600));
        body0 = bed.clients[0].fetch("http://origin/doc/0").unwrap().body;
        body1 = bed.clients[0].fetch("http://origin/doc/1").unwrap().body;
        bed.shutdown();
    }

    // Simulate the crash mid-append: doc/1's file loses its tail (the
    // header and URL survive, the body is short). The write path never
    // fsyncs — this is exactly what a power cut can leave behind.
    let torn = baps_proxy::disk::entry_path(&dir, "http://origin/doc/1");
    let bytes = std::fs::read(&torn).expect("doc/1 landed on disk");
    std::fs::write(&torn, &bytes[..bytes.len() - 10]).unwrap();

    let bed = disk_bed(1, &dir, std::time::Duration::from_secs(3600));
    // The intact entry serves warm from disk, byte-exact.
    let r0 = bed.clients[0].fetch("http://origin/doc/0").unwrap();
    assert_eq!(r0.source, Source::ProxyDisk);
    assert_eq!(r0.body, body0);
    // The torn entry fails verification, is deleted, and the request
    // falls through to the origin — correct bytes, never the torn ones.
    let r1 = bed.clients[0].fetch("http://origin/doc/1").unwrap();
    assert_eq!(r1.source, Source::Origin, "torn entry must not serve");
    assert_eq!(r1.body, body1);
    assert_eq!(bed.origin.hits(), 1, "only the healed doc hits the origin");
    let d = bed.proxy.disk_stats().unwrap();
    assert!(d.heals >= 1, "the torn file must be counted as healed");
    // The self-heal rewrote doc/1 through to disk: both serve warm now.
    assert!(!std::fs::read(&torn).unwrap().is_empty());
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a TTL-expired disk entry revalidates against the origin
/// with a conditional `If-Digest` GET; the 304 refreshes the entry in
/// place and the document serves from disk without a full refetch.
#[test]
fn stale_disk_entry_revalidates_with_304() {
    let dir = disk_dir("revalidate");
    // TTL zero: every disk entry is stale the moment it lands.
    let mut bed = disk_bed(2, &dir, std::time::Duration::ZERO);
    let url = "http://origin/doc/0";

    let r0 = bed.clients[0].fetch(url).unwrap();
    assert_eq!(r0.source, Source::Origin);

    // Clear the memory cache so the next fetch reaches the disk tier.
    bed.restart_proxy().expect("proxy restarts in place");

    let r1 = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r1.source, Source::ProxyDisk, "revalidated entry serves");
    assert_eq!(r1.body, r0.body);
    assert_eq!(bed.origin.hits(), 1, "304 must not transfer the body");
    assert_eq!(bed.origin.revalidations(), 1, "one conditional GET");
    assert_eq!(bed.proxy.stats().disk_revalidations, 1);
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: requeued `Evicted` notices survive a dropped connection and
/// are applied exactly once — replaying the notice (lost-reply model)
/// leaves the index and the invalidation counter unchanged.
#[test]
fn eviction_notices_survive_reconnect_and_apply_once() {
    use baps_proxy::{read_message, response_code, write_message, Message};
    use std::io::BufReader;
    use std::net::TcpStream;

    // Browser fits roughly one document: fetching down the corpus soon
    // evicts something, and the notice waits for the next GET.
    let bed = bed(1, 64 << 10, 2_100);
    let c0 = &bed.clients[0];
    let mut evicted_url = None;
    for i in 0..10 {
        c0.fetch(&format!("http://origin/doc/{i}")).unwrap();
        if let Some(url) = c0.pending_eviction_notices().first().cloned() {
            evicted_url = Some(url);
            break;
        }
    }
    let evicted_url = evicted_url.expect("tiny browser cache must evict");
    assert!(
        bed.proxy.index_holds(0, &evicted_url),
        "the notice rides the next GET, so the index is briefly stale"
    );

    // The proxy severs the connection before the notice is delivered: the
    // client must reconnect and the replayed GET still carries it.
    bed.proxy.drop_connections();
    c0.fetch("http://origin/doc/12").unwrap();
    assert_eq!(c0.reconnects(), 1);
    assert!(
        !bed.proxy.index_holds(0, &evicted_url),
        "notice must survive the reconnect"
    );
    assert!(
        !c0.pending_eviction_notices().contains(&evicted_url),
        "delivered notice must not be requeued"
    );
    let applied = bed.proxy.stats().invalidations;
    assert!(applied >= 1);

    // Lost-reply model: the same notice delivered *again* (a replay) must
    // be a no-op — not double-counted, not disturbing the index.
    let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_message(
        &mut writer,
        &Message::new("GET http://origin/doc/13 BAPS/1.0")
            .header("Client", "0")
            .header("Evicted", &*evicted_url),
    )
    .unwrap();
    let reply = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&reply), Some(200));
    assert_eq!(
        bed.proxy.stats().invalidations,
        applied,
        "replayed notice must count as stale, not as a new invalidation"
    );
    bed.shutdown();
}

/// Tentpole: a head-sampled GET leaves spans in *three* processes —
/// client root, proxy hops, and the far side (origin's serve span, or a
/// peer's serve span) — and `span::assemble` stitches each sampled trace
/// into exactly ONE tree via the `Span-Id` parent links.
#[test]
fn sampled_fetch_assembles_one_tree_across_processes() {
    use baps_obs::span;
    use baps_proxy::response_code;

    // Tiny proxy cache (peer hits need eviction) over a corpus big
    // enough that every round touches fresh documents.
    let store = DocumentStore::synthetic(512, 200, 2_000, 42);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 3,
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");

    // Each round: an origin-served fetch, an eviction flood, then a
    // peer-served fetch. Head sampling keeps 1 trace in SAMPLE_ONE_IN
    // (a deterministic hash of the trace id), so rounds continue until
    // the dump holds a complete tree of each shape. Deterministic: with
    // 1-in-32 sampling, client 1's single fetch per round (seq = round)
    // first samples at round 46, and client 2's flood samples nearby
    // rounds, so 60 rounds always suffice and the two shapes land well
    // inside one ring's worth of history.
    let full = |trees: &[baps_obs::SpanTree], far_kind: &str, mid_kind: &str| -> bool {
        trees.iter().any(|t| {
            t.root.record.kind == "fetch"
                && t.root.contains_kind(mid_kind)
                && t.root.contains_kind(far_kind)
        })
    };
    let mut text = String::new();
    for round in 0..60u32 {
        let url0 = format!("http://origin/doc/{}", round * 8);
        bed.clients[0].fetch(&url0).unwrap();
        for i in 1..8 {
            bed.clients[2]
                .fetch(&format!("http://origin/doc/{}", round * 8 + i))
                .unwrap();
        }
        let r = bed.clients[1].fetch(&url0).unwrap();
        assert_eq!(r.source, Source::Peer, "round {round} must peer-hit");

        // The test bed shares one flight recorder across origin, proxy,
        // and clients, so the proxy's TRACE dump holds all three sides.
        let reply = bed.clients[0].proxy_trace_raw().unwrap();
        assert_eq!(response_code(&reply), Some(200));
        assert_eq!(reply.get("Content-Type"), Some("application/jsonl"));
        assert_eq!(
            reply.get("Sample-One-In"),
            Some(span::SAMPLE_ONE_IN.to_string().as_str())
        );
        text = String::from_utf8(reply.body.to_vec()).unwrap();
        let records = span::parse_jsonl(&text).expect("TRACE dump parses");
        let trees = span::assemble(&records);
        if full(&trees, "origin-serve", "origin-fetch") && full(&trees, "peer-serve", "peer-probe")
        {
            break;
        }
    }

    let records = span::parse_jsonl(&text).expect("TRACE dump parses");
    assert!(!records.is_empty(), "no spans sampled");
    let trees = span::assemble(&records);
    let find = |far_kind: &str, mid_kind: &str| -> &baps_obs::SpanTree {
        trees
            .iter()
            .find(|t| {
                t.root.record.kind == "fetch"
                    && t.root.contains_kind(mid_kind)
                    && t.root.contains_kind(far_kind)
            })
            .unwrap_or_else(|| panic!("no fetch tree reaching {far_kind} via {mid_kind}"))
    };

    // Origin path: client fetch -> proxy origin-fetch -> origin serve.
    let origin_tree = find("origin-serve", "origin-fetch");
    // Peer path: client fetch -> proxy peer-probe -> holder peer-serve.
    let peer_tree = find("peer-serve", "peer-probe");

    for tree in [origin_tree, peer_tree] {
        assert!(tree.root.max_depth() >= 2, "tree too shallow: {tree:#?}");
        // Single tree per sampled trace: every span of this trace landed
        // in this one tree (nothing orphaned into a second root).
        assert_eq!(
            trees.iter().filter(|t| t.trace == tree.trace).count(),
            1,
            "trace {} fragmented into multiple trees",
            tree.trace
        );
        let in_tree = tree.root.records().len();
        let in_dump = records.iter().filter(|r| r.trace == tree.trace).count();
        assert_eq!(in_tree, in_dump, "tree must hold all of its trace's spans");
    }
    bed.shutdown();
}

/// Satellite: the wire `METRICS` exposition passes the parser-backed
/// Prometheus conformance check (HELP/TYPE before samples, no duplicate
/// series, histogram invariants: cumulative buckets, +Inf == _count).
#[test]
fn metrics_exposition_conforms() {
    use baps_obs::prom;

    let bed = bed(2, 64 << 10, 32 << 10);
    for i in 0..6 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
        bed.clients[1]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let reply = bed.clients[0].proxy_metrics_raw().unwrap();
    let text = String::from_utf8(reply.body.to_vec()).unwrap();
    prom::check_conformance(&text).unwrap_or_else(|e| panic!("exposition violates format: {e}"));

    // The new saturation families are part of the scrape.
    let samples = prom::parse(&text).unwrap();
    for name in [
        "baps_workers",
        "baps_workers_busy",
        "baps_queue_depth",
        "baps_queue_rejected_total",
        "baps_queue_wait_ms_count",
        "baps_flight_registry_occupancy",
    ] {
        assert!(
            prom::find(&samples, name, &[]).is_some(),
            "exposition is missing {name}"
        );
    }
    assert!(prom::find(&samples, "baps_workers", &[]).unwrap() > 0.0);
    assert!(prom::find(&samples, "baps_queue_wait_ms_count", &[]).unwrap() >= 1.0);
    bed.shutdown();
}

/// Satellite: `STATS` exposes the recorder drop counter and the
/// runtime-saturation gauges as headers.
#[test]
fn stats_reports_recorder_drops_and_saturation() {
    let bed = bed(2, 64 << 10, 32 << 10);
    for i in 0..4 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let reply = bed.clients[1].proxy_stats_raw().unwrap();
    for header in [
        "Recorder-Dropped",
        "Workers",
        "Busy-Workers",
        "Busy-Workers-Peak",
        "Queue-Depth",
        "Queue-Depth-Peak",
        "Queue-Rejected",
        "Flight-Occupancy",
    ] {
        let value = reply
            .get(header)
            .unwrap_or_else(|| panic!("STATS reply is missing {header}"));
        value
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("STATS {header}={value:?} is not a number: {e}"));
    }
    assert!(reply.get("Workers").unwrap().parse::<u64>().unwrap() > 0);
    assert_eq!(reply.get("Recorder-Dropped"), Some("0"));
    assert_eq!(reply.get("Queue-Rejected"), Some("0"));
    bed.shutdown();
}

/// Body of `http://origin/big/<i>`: 1.5 MiB of scrambled bytes.
fn big_body(i: usize) -> Vec<u8> {
    (0..3 << 19)
        .map(|j: usize| (j.wrapping_mul(2_654_435_761) >> 13) as u8 ^ i as u8)
        .collect()
}

/// A deployment whose origin holds `n` documents of [`big_body`] and whose
/// proxy cache holds them all (4 MiB a shard), so a repeat GET is a
/// memory hit.
fn big_doc_bed(n: usize, fault_plan: Option<std::sync::Arc<baps_proxy::FaultPlan>>) -> TestBed {
    let mut store = DocumentStore::new();
    for i in 0..n {
        store.insert(format!("http://origin/big/{i}"), big_body(i));
    }
    TestBed::start(
        store,
        TestBedConfig {
            n_clients: 1,
            proxy_capacity: 64 << 20,
            browser_capacity: 4 << 20,
            fault_plan,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts")
}

/// Reads head or trailer lines up to the blank line that ends the block.
fn read_block(reader: &mut impl std::io::BufRead) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            return fields;
        }
        if let Some((name, value)) = line.split_once(':') {
            fields.push((name.trim().to_owned(), value.trim().to_owned()));
        }
    }
}

fn field<'a>(fields: &'a [(String, String)], name: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// An origin miss for a large body is streamed. On the wire the
/// head announces `Trailer: X-Watermark` and carries no watermark, the
/// body arrives byte for byte, and the trailer's watermark verifies under
/// the proxy's public key over the MD5 of that body. The repeat GET, a
/// memory hit, carries the same watermark in its head.
#[test]
fn streamed_origin_miss_carries_its_watermark_in_a_trailer() {
    use baps_crypto::{verify_document, Watermark};
    use baps_proxy::{read_message, write_message, Message};
    use std::io::{BufReader, Read};
    use std::net::TcpStream;

    let bed = big_doc_bed(2, None);
    let url = "http://origin/big/1";
    let expected = big_body(1);

    let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let get = Message::new(format!("GET {url} BAPS/1.0")).header("Client", "7");
    write_message(&mut &stream, &get).unwrap();

    let mut status = String::new();
    std::io::BufRead::read_line(&mut reader, &mut status).unwrap();
    assert_eq!(status.trim_end(), "BAPS/1.0 200 OK");
    let head = read_block(&mut reader);
    assert_eq!(field(&head, "Trailer"), Some("X-Watermark"), "{head:?}");
    assert_eq!(field(&head, "X-Source"), Some("origin"));
    assert_eq!(
        field(&head, "X-Watermark"),
        None,
        "watermark is not in the head"
    );
    let len: usize = field(&head, "Content-Length").unwrap().parse().unwrap();
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    assert!(
        body == expected[..],
        "streamed body differs from the origin's"
    );
    let trailer = read_block(&mut reader);
    let watermark = Watermark::from_hex(field(&trailer, "X-Watermark").expect("trailer field"))
        .expect("well-formed watermark");
    verify_document(&bed.proxy.public_key(), &body, &watermark)
        .expect("trailer watermark verifies over md5(body)");

    write_message(&mut &stream, &get).unwrap();
    let hit = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(hit.get("X-Source"), Some("proxy"));
    assert_eq!(hit.get("Trailer"), None, "a memory hit is head-form");
    assert_eq!(hit.get("X-Watermark"), Some(watermark.to_hex().as_str()));
    assert!(hit.body[..] == expected[..]);

    // The client agent reads the streamed form too, and verifies it.
    let fetched = bed.clients[0].fetch("http://origin/big/0").unwrap();
    assert_eq!(fetched.source, Source::Origin);
    assert!(fetched.body[..] == big_body(0)[..]);
    bed.shutdown();
}

/// A GET that draws a proxy fault keeps the head form, so the fault's
/// wire effect applies to one whole frame exactly as before.
#[test]
fn faulted_origin_miss_stays_head_form() {
    use baps_crypto::{verify_document, Watermark};
    use baps_proxy::{read_message, write_message, FaultConfig, FaultPlan, Message};
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    let plan = Arc::new(FaultPlan::new(
        3,
        FaultConfig {
            p_proxy_stall: 1.0,
            stall: Duration::from_millis(20),
            ..FaultConfig::default()
        },
    ));
    let bed = big_doc_bed(1, Some(Arc::clone(&plan)));
    let url = "http://origin/big/0";
    let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write_message(
        &mut &stream,
        &Message::new(format!("GET {url} BAPS/1.0")).header("Client", "7"),
    )
    .unwrap();
    let reply = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(reply.get("X-Source"), Some("origin"));
    assert_eq!(reply.get("Trailer"), None, "a faulted reply is head-form");
    let watermark = Watermark::from_hex(reply.get("X-Watermark").unwrap()).unwrap();
    verify_document(&bed.proxy.public_key(), &reply.body, &watermark).unwrap();
    assert!(reply.body[..] == big_body(0)[..]);
    assert_eq!(plan.counts().get(baps_proxy::FaultKind::ProxyStall), 1);
    bed.shutdown();
}

/// A stand-in proxy that answers `REGISTER` and then every `GET` with a
/// streamed reply whose body has one flipped byte under the trailer
/// watermark of the intact body. Serves one connection, then returns.
fn tampering_streamer(
    signer: baps_crypto::ProxySigner,
    body: Vec<u8>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    use baps_proxy::{encode_message, encode_trailer, read_message, write_message, Message};
    use std::io::{BufReader, Write};
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let watermark = signer.watermark(&body).to_hex();
        let mut flipped = body.clone();
        flipped[body.len() / 2] ^= 0x01;
        while let Ok(Some(msg)) = read_message(&mut reader) {
            if msg.start.starts_with("REGISTER") {
                write_message(&mut &stream, &Message::new("BAPS/1.0 200 OK")).unwrap();
                continue;
            }
            let head = Message::new("BAPS/1.0 200 OK")
                .header("X-Source", "origin")
                .header("Trailer", "X-Watermark")
                .with_body(flipped.clone());
            let mut frame = encode_message(&head).unwrap();
            frame.extend_from_slice(&encode_trailer(&[("X-Watermark", &watermark)]));
            (&stream).write_all(&frame).unwrap();
        }
    });
    (addr, server)
}

/// A body with a flipped byte under a valid trailer watermark is rejected
/// with `ProxyError::Integrity`: the digest taken on receipt is checked,
/// not trusted. The client's `verify` span still records the mismatch.
#[test]
fn tampered_streamed_reply_is_rejected_and_recorded() {
    use baps_crypto::ProxySigner;
    use baps_obs::EventKind;
    use baps_proxy::{ClientAgent, ClientConfig, ProxyError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let signer = ProxySigner::generate(&mut StdRng::seed_from_u64(11));
    let key = signer.public_key();
    let body: Vec<u8> = (0..300_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
    let (addr, server) = tampering_streamer(signer, body);
    let agent = ClientAgent::start_with(
        1,
        addr,
        key,
        ClientConfig {
            browser_capacity: 1 << 20,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let result = agent.fetch("http://origin/tampered");
    let events = agent.recorder().dump();
    agent.shutdown();
    server.join().unwrap();

    assert!(
        matches!(result, Err(ProxyError::Integrity(_))),
        "tampered streamed body accepted: {result:?}"
    );
    let mismatches = events
        .iter()
        .filter(|e| e.kind == EventKind::Verify && e.detail.contains("outcome=MISMATCH"))
        .count();
    // The first attempt and the bypass refetch both fail the check.
    assert_eq!(mismatches, 2, "{events:#?}");
}
