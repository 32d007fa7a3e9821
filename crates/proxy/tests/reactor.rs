//! End-to-end tests of the proxy's serving model, workers that wait in
//! epoll (DESIGN.md §13): full verb coverage, the disk tier, warm
//! restarts, connection drops, idle-connection scaling, slow-loris
//! resistance, and bounded pipelining.

use baps_proxy::{
    encode_message, read_message, response_code, write_message, DocumentStore, Message,
    OriginServer, Source, TestBed, TestBedConfig, IO_MODEL,
};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn reactor_bed(n_clients: u32, config: TestBedConfig) -> TestBed {
    let store = DocumentStore::synthetic(16, 200, 2_000, 42);
    TestBed::start(
        store,
        TestBedConfig {
            n_clients,
            ..config
        },
    )
    .expect("test bed starts")
}

/// A fresh, empty disk root under the system temp dir, unique per test.
fn disk_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("baps_reactor_{}_{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The full serve-tier ladder: origin miss, proxy memory hit, local
/// browser hit, and a peer hit after proxy eviction.
#[test]
fn reactor_serves_every_tier() {
    let bed = reactor_bed(
        3,
        TestBedConfig {
            proxy_capacity: 2_500, // one ~2KB doc evicts another
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    );
    let url0 = "http://origin/doc/0";

    let r0 = bed.clients[0].fetch(url0).unwrap();
    assert_eq!(r0.source, Source::Origin);

    let r1 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r1.source, Source::Proxy);
    assert_eq!(r1.body, r0.body);

    let r2 = bed.clients[1].fetch(url0).unwrap();
    assert_eq!(r2.source, Source::LocalBrowser);

    // Evict doc/0 from the tiny proxy cache; client 1's copy serves it.
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let r3 = bed.clients[2].fetch(url0).unwrap();
    assert_eq!(r3.source, Source::Peer, "expected a peer hit");
    assert_eq!(r3.body, r0.body);

    let stats = bed.proxy.stats();
    assert_eq!(stats.proxy_hits, 1);
    assert_eq!(stats.peer_hits, 1);
    assert_eq!(
        stats.requests,
        stats.proxy_hits + stats.disk_hits + stats.peer_hits + stats.origin_fetches + stats.errors,
        "balance identity holds"
    );

    // Origin and peer answers count as offloaded, the memory hit and the
    // REGISTERs as inline.
    let r = bed.proxy.reactor_stats().expect("serving-worker snapshot");
    assert!(r.offloaded >= 9, "origin and peer answers: {r:?}");
    assert!(r.inline_served >= 1, "memory and admin answers: {r:?}");
    bed.shutdown();
}

/// STATS/TRACE/METRICS (and keep-alive framing) over one raw connection,
/// including the serving workers' own gauges.
#[test]
fn reactor_admin_verbs_over_one_keepalive_connection() {
    let bed = reactor_bed(2, TestBedConfig::default());
    bed.clients[0].fetch("http://origin/doc/0").unwrap();
    bed.clients[1].fetch("http://origin/doc/0").unwrap();

    let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // GET (memory hit).
    write_message(
        &mut writer,
        &Message::new("GET http://origin/doc/0 BAPS/1.0").header("Client", "0"),
    )
    .unwrap();
    let reply = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&reply), Some(200));

    // STATS carries the serving gauges alongside the classic counters.
    write_message(&mut writer, &Message::new("STATS BAPS/1.0")).unwrap();
    let stats = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&stats), Some(200));
    assert_eq!(stats.get("Io-Mode"), Some(IO_MODEL));
    let field = |name: &str| -> u64 { stats.get(name).unwrap().parse().unwrap() };
    assert!(field("Reactor-Fds") >= 1, "this very connection counts");
    assert!(field("Reactor-Fds-Peak") >= field("Reactor-Fds"));
    assert!(field("Reactor-Inline") >= 1);
    assert!(field("Reactor-Offloaded") >= 1);
    assert_eq!(
        field("Requests"),
        field("Proxy-Hits")
            + field("Disk-Hits")
            + field("Peer-Hits")
            + field("Origin-Fetches")
            + field("Errors")
    );

    // METRICS exposes the baps_reactor_* series.
    write_message(&mut writer, &Message::new("METRICS BAPS/1.0")).unwrap();
    let metrics = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&metrics), Some(200));
    let text = String::from_utf8(metrics.body.to_vec()).unwrap();
    assert!(text.contains("baps_reactor_registered_fds"), "{text}");
    assert!(text.contains("baps_reactor_busy_fraction"), "{text}");
    assert!(text.contains("baps_requests_total"), "{text}");

    // TRACE still answers on the same framed connection.
    write_message(&mut writer, &Message::new("TRACE BAPS/1.0")).unwrap();
    let trace = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&trace), Some(200));
    assert_eq!(trace.get("Content-Type"), Some("application/jsonl"));

    // INVALIDATE (admin verb).
    write_message(
        &mut writer,
        &Message::new("INVALIDATE http://origin/doc/0 BAPS/1.0").header("Client", "0"),
    )
    .unwrap();
    let inv = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(response_code(&inv), Some(200));
    bed.shutdown();
}

/// The disk tier, including a warm in-place restart with monotonic
/// restart-surviving counters.
#[test]
fn reactor_disk_tier_survives_warm_restart() {
    let dir = disk_dir("warm");
    let mut bed = reactor_bed(
        2,
        TestBedConfig {
            proxy_capacity: 64 << 10,
            browser_capacity: 32 << 10,
            disk_root: Some(dir.clone()),
            disk_capacity: 1 << 20,
            disk_ttl: Duration::from_secs(3600),
            ..TestBedConfig::default()
        },
    );
    let url = "http://origin/doc/0";
    let r0 = bed.clients[0].fetch(url).unwrap();
    assert_eq!(r0.source, Source::Origin);
    let before = bed.proxy.stats();

    bed.restart_proxy().expect("proxy restarts in place");
    assert!(
        bed.proxy.disk_stats().unwrap().entries >= 1,
        "restarted proxy re-opens a non-empty store"
    );

    // Next fetch misses memory but hits disk — byte-exact, no origin.
    let r1 = bed.clients[1].fetch(url).unwrap();
    assert_eq!(r1.body, r0.body);
    assert_eq!(bed.origin.hits(), 1, "origin not touched again");
    let after = bed.proxy.stats();
    assert!(after.disk_hits >= 1, "served from disk: {after:?}");
    assert!(
        after.requests >= before.requests,
        "counters stay monotonic across the restart"
    );
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `drop_connections` severs every registered connection; clients see EOF
/// and transparently reconnect.
#[test]
fn reactor_drop_connections_then_reconnect() {
    let bed = reactor_bed(2, TestBedConfig::default());
    bed.clients[0].fetch("http://origin/doc/0").unwrap();
    assert!(bed.proxy.open_connections() >= 1);

    bed.proxy.drop_connections();
    assert_eq!(bed.proxy.open_connections(), 0);

    // The client's next fetch redials and succeeds.
    let r = bed.clients[0].fetch("http://origin/doc/1").unwrap();
    assert_eq!(r.source, Source::Origin);
    bed.shutdown();
}

/// Idle-connection scaling smoke: hundreds of registered keep-alive
/// connections cost fds, not threads, and active traffic still flows.
/// (The 10k point lives in `live_load --sweep`'s connections axis.)
#[test]
fn reactor_holds_idle_connections_while_serving() {
    const IDLE: usize = 300;
    let bed = reactor_bed(2, TestBedConfig::default());

    let mut idle = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // A REGISTER makes each one a real, known browser connection.
        write_message(
            &mut writer,
            &Message::new("REGISTER 1 BAPS/1.0").header("Client", (1_000_000 + i).to_string()),
        )
        .unwrap();
        let reply = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(response_code(&reply), Some(200));
        idle.push((reader, writer));
    }

    let r = bed.proxy.reactor_stats().expect("serving-worker snapshot");
    assert!(
        r.registered_fds >= IDLE as u64,
        "all idle connections registered: {r:?}"
    );
    assert!(r.registered_fds_peak >= IDLE as u64);

    // Active traffic is unaffected by the idle mass.
    for i in 0..8 {
        bed.clients[0]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    // The idle connections are still alive and answer.
    let (reader, writer) = &mut idle[IDLE / 2];
    write_message(writer, &Message::new("STATS BAPS/1.0")).unwrap();
    let reply = read_message(reader).unwrap().unwrap();
    assert_eq!(response_code(&reply), Some(200));

    drop(idle);
    bed.shutdown();
}

/// Slow-loris regression: a swarm of connections dribbling a request
/// head one byte at a time must not delay other clients. Each loris
/// connection costs a registered fd and a parser buffer, never a worker
/// for longer than one byte takes to parse, so honest requests keep their
/// sub-threshold latency throughout.
#[test]
fn slow_loris_does_not_delay_other_clients() {
    const LORIS_CONNS: usize = 32;
    const DRIBBLE: Duration = Duration::from_millis(20);

    let bed = reactor_bed(
        2,
        TestBedConfig {
            // Far fewer workers than loris connections: if the dribblers
            // held workers, honest traffic would starve.
            proxy_workers: 4,
            ..TestBedConfig::default()
        },
    );
    // Warm the doc so honest fetches are pure proxy hits.
    bed.clients[0].fetch("http://origin/doc/0").unwrap();

    let head: &[u8] = b"GET http://origin/doc/0 BAPS/1.0\r\nClient: 1\r\n\r\n";
    let addr = bed.proxy.addr();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut loris = Vec::new();
    for _ in 0..LORIS_CONNS {
        let stop = std::sync::Arc::clone(&stop);
        loris.push(std::thread::spawn(move || {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return;
            };
            // Dribble the head one byte at a time, forever (until told to
            // stop) — the canonical loris never finishes its request.
            for b in head.iter().cycle() {
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    return;
                }
                if stream.write_all(std::slice::from_ref(b)).is_err() {
                    return;
                }
                std::thread::sleep(DRIBBLE);
            }
        }));
    }

    // Give the swarm time to connect and start dribbling.
    std::thread::sleep(Duration::from_millis(100));
    let r = bed.proxy.reactor_stats().expect("serving-worker snapshot");
    assert!(
        r.registered_fds as usize > LORIS_CONNS / 2,
        "loris swarm is connected: {r:?}"
    );

    // Honest client: repeated proxy-hit fetches while the swarm dribbles.
    // Threshold is generous against CI noise; the failure mode it guards
    // against is queuing behind the swarm (hundreds of ms to seconds).
    let mut worst = Duration::ZERO;
    for _ in 0..50 {
        let t = Instant::now();
        let r = bed.clients[1].fetch("http://origin/doc/0").unwrap();
        let elapsed = t.elapsed();
        assert!(matches!(r.source, Source::Proxy | Source::LocalBrowser));
        worst = worst.max(elapsed);
    }
    assert!(
        worst < Duration::from_millis(250),
        "honest fetches stayed fast during the loris swarm; worst {worst:?}"
    );

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for handle in loris {
        let _ = handle.join();
    }
    bed.shutdown();
}

/// Bounded pipelining: a client that pipelines GETs for a cached 64 KiB
/// document and never reads its replies must be throttled by its own
/// socket buffers. The proxy parses no further frame while replies are
/// queued on the connection, so it stops reading: the client's
/// nonblocking writes stall for good before 16 MiB of requests, and the
/// proxy has served only the replies the socket buffers hold. (A server
/// that kept reading would keep accepting bytes and queueing replies.)
#[test]
fn pipelining_client_that_never_reads_is_throttled() {
    const LIMIT: usize = 16 << 20;
    const STALLED: Duration = Duration::from_secs(1);
    let url = "http://origin/big";
    let mut store = DocumentStore::new();
    store.insert(url, vec![7u8; 64 << 10]);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 1,
            proxy_capacity: 1 << 20,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    bed.clients[0].fetch(url).unwrap();
    assert!(bed.proxy.cached_body(url).is_some(), "document is cached");
    let before = bed.proxy.stats().proxy_hits;

    let get =
        encode_message(&Message::new(format!("GET {url} BAPS/1.0")).header("Client", "0")).unwrap();
    let chunk: Vec<u8> = get.iter().copied().cycle().take(get.len() * 1024).collect();
    let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
    stream.set_nonblocking(true).unwrap();
    let mut sent = 0usize;
    let mut last_progress = Instant::now();
    while last_progress.elapsed() < STALLED {
        assert!(
            sent < LIMIT,
            "the proxy kept reading: {sent} bytes of GETs accepted"
        );
        let at = sent % chunk.len();
        match (&stream).write(&chunk[at..]) {
            Ok(n) => {
                sent += n;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("pipelining write failed: {e}"),
        }
    }
    // Each served reply is 64 KiB; a few thousand would already be
    // hundreds of MiB queued for a client that reads nothing.
    let served = bed.proxy.stats().proxy_hits - before;
    assert!(
        served < 1024,
        "{served} replies served to a client that never reads ({sent} request bytes sent)"
    );
    drop(stream);
    bed.shutdown();
}

/// Idle keep-alive connections to the origin cost fds, not workers: with
/// as many idle connections as the origin has workers, one more client
/// is still answered at once.
#[test]
fn idle_connections_do_not_pin_the_origin() {
    const IDLE: usize = 8;
    let origin = OriginServer::start(DocumentStore::synthetic(4, 200, 2_000, 42)).unwrap();
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|_| TcpStream::connect(origin.addr()).unwrap())
        .collect();

    let stream = TcpStream::connect(origin.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_message(
        &mut writer,
        &Message::new("GET http://origin/doc/0 ORIGIN/1.0"),
    )
    .unwrap();
    let reply = read_message(&mut reader)
        .expect("the origin answers within 2 s")
        .expect("a reply, not EOF");
    assert_eq!(response_code(&reply), Some(200));
    drop(idle);
    origin.shutdown();
}

/// Idle connections to a client's peer port do not pin its serving
/// workers: a fetch the browser index routes to that client is still a
/// peer hit, not an origin fallback after the probe deadlines expire.
#[test]
fn idle_connections_do_not_pin_a_peer_port() {
    const IDLE: usize = 4;
    let bed = reactor_bed(
        3,
        TestBedConfig {
            proxy_capacity: 2_500, // one ~2KB doc evicts another
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    );
    let url0 = "http://origin/doc/0";
    // Client 0 becomes the only holder of doc/0; client 2's fetches then
    // evict it from the tiny proxy cache.
    assert_eq!(bed.clients[0].fetch(url0).unwrap().source, Source::Origin);
    for i in 1..8 {
        bed.clients[2]
            .fetch(&format!("http://origin/doc/{i}"))
            .unwrap();
    }
    let holder = bed.clients[0].peer_addr();
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|_| TcpStream::connect(holder).unwrap())
        .collect();

    let t = Instant::now();
    let r = bed.clients[2].fetch(url0).unwrap();
    assert_eq!(
        r.source,
        Source::Peer,
        "expected a peer hit, got {:?} after {:?}",
        r.source,
        t.elapsed()
    );
    drop(idle);
    bed.shutdown();
}

/// Shutdown of the origin and of a client's peer port returns promptly
/// while a dialer holds an idle keep-alive connection, and that dialer
/// then sees EOF.
#[test]
fn shutdown_closes_idle_keepalive_connections() {
    fn hold_idle(addr: std::net::SocketAddr, request: &str) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_message(&mut writer, &Message::new(request)).unwrap();
        read_message(&mut reader).unwrap().expect("served once");
        reader
    }
    fn assert_eof(mut reader: BufReader<TcpStream>) {
        assert!(
            read_message(&mut reader).unwrap().is_none(),
            "the idle dialer sees EOF"
        );
    }

    let origin = OriginServer::start(DocumentStore::synthetic(1, 200, 2_000, 42)).unwrap();
    let held = hold_idle(origin.addr(), "GET http://origin/doc/0 ORIGIN/1.0");
    let t = Instant::now();
    origin.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "origin: {:?}",
        t.elapsed()
    );
    assert_eof(held);

    let mut bed = reactor_bed(1, TestBedConfig::default());
    let client = bed.clients.pop().unwrap();
    let held = hold_idle(client.peer_addr(), "PEERGET http://origin/doc/0 BAPS/1.0");
    let t = Instant::now();
    client.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "peer: {:?}",
        t.elapsed()
    );
    assert_eof(held);
    bed.shutdown();
}

/// Every request frame gets a reply or a close: requests the proxy
/// cannot act on are answered `400 Bad Request`, never left hanging.
#[test]
fn malformed_requests_are_answered_400() {
    let bed = reactor_bed(1, TestBedConfig::default());
    let cases = [
        Message::new("GET http://origin/doc/0 BAPS/1.0"),
        Message::new("GET http://origin/doc/0 BAPS/1.0").header("Client", "x"),
        Message::new("INVALIDATE http://origin/doc/0 BAPS/1.0"),
        Message::new("REGISTER notaport BAPS/1.0").header("Client", "0"),
    ];
    for request in cases {
        let stream = TcpStream::connect(bed.proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_message(&mut writer, &request).unwrap();
        let reply = read_message(&mut reader)
            .unwrap_or_else(|e| panic!("no reply to {:?} within 1 s: {e}", request.start))
            .expect("a reply, not EOF");
        assert_eq!(response_code(&reply), Some(400), "{}", request.start);
        // The connection stays usable after the refusal.
        write_message(&mut writer, &Message::new("STATS BAPS/1.0")).unwrap();
        let stats = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(response_code(&stats), Some(200));
    }
    bed.shutdown();
}
