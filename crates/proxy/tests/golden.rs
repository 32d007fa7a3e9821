//! Golden sets of the proxy's operator surfaces: the METRICS `# TYPE`
//! families and the STATS, TRACE and HEALTH header names. Ops tooling
//! (`baps_top`, `perfbench`, scrapers) is written against these names; a
//! change here must be deliberate, so each set is pinned as a literal.

use baps_proxy::{DocumentStore, HealthReport, Message, TestBed, TestBedConfig, IO_MODEL};
use std::collections::BTreeSet;

const METRIC_FAMILIES: &[(&str, &str)] = &[
    ("baps_accept_errors_total", "counter"),
    ("baps_build_info", "gauge"),
    ("baps_cache_bytes", "gauge"),
    ("baps_cache_entries", "gauge"),
    ("baps_cache_evicted_bytes_total", "counter"),
    ("baps_cache_evictions_total", "counter"),
    ("baps_cache_hits_total", "counter"),
    ("baps_cache_inserts_total", "counter"),
    ("baps_cache_misses_total", "counter"),
    ("baps_cache_shard_bytes", "gauge"),
    ("baps_cache_shard_entries", "gauge"),
    ("baps_cache_shard_lock_acquires_total", "counter"),
    ("baps_cache_shard_lock_wait_micros_total", "counter"),
    ("baps_coalesced_fetches_total", "counter"),
    ("baps_direct_pushes_total", "counter"),
    ("baps_disk_bytes", "gauge"),
    ("baps_disk_entries", "gauge"),
    ("baps_disk_evictions_total", "counter"),
    ("baps_disk_heals_total", "counter"),
    ("baps_disk_io_errors_total", "counter"),
    ("baps_disk_reads_fresh_total", "counter"),
    ("baps_disk_reads_stale_total", "counter"),
    ("baps_disk_revalidations_total", "counter"),
    ("baps_disk_writes_total", "counter"),
    ("baps_disk_written_bytes_total", "counter"),
    ("baps_errors_total", "counter"),
    ("baps_flight_recorder_dropped_total", "counter"),
    ("baps_flight_recorder_events", "gauge"),
    ("baps_flight_registry_occupancy", "gauge"),
    ("baps_index_entries", "gauge"),
    ("baps_index_hit_ratio", "gauge"),
    ("baps_index_hits_total", "counter"),
    ("baps_index_lookups_total", "counter"),
    ("baps_index_shard_entries", "gauge"),
    ("baps_index_shard_lock_acquires_total", "counter"),
    ("baps_index_shard_lock_wait_micros_total", "counter"),
    ("baps_index_updates_total", "counter"),
    ("baps_invalidations_total", "counter"),
    ("baps_peer_failures_total", "counter"),
    ("baps_peer_fallbacks_total", "counter"),
    ("baps_queue_depth", "gauge"),
    ("baps_queue_depth_peak", "gauge"),
    ("baps_queue_rejected_total", "counter"),
    ("baps_queue_wait_ms", "histogram"),
    ("baps_reactor_busy_fraction", "gauge"),
    ("baps_reactor_inline_dispatch_total", "counter"),
    ("baps_reactor_offloaded_dispatch_total", "counter"),
    ("baps_reactor_ready_events_total", "counter"),
    ("baps_reactor_registered_fds", "gauge"),
    ("baps_reactor_registered_fds_peak", "gauge"),
    ("baps_request_latency_ms", "histogram"),
    ("baps_requests_total", "counter"),
    ("baps_served_total", "counter"),
    ("baps_uptime_seconds", "gauge"),
    ("baps_verb_latency_ms", "histogram"),
    ("baps_workers", "gauge"),
    ("baps_workers_busy", "gauge"),
    ("baps_workers_busy_peak", "gauge"),
];

const STATS_HEADERS: &[&str] = &[
    "Accept-Errors",
    "Busy-Workers",
    "Busy-Workers-Peak",
    "Cache-Bytes",
    "Cache-Lock-Acquires",
    "Cache-Shard-Bytes",
    "Cache-Shard-Entries",
    "Cache-Shards",
    "Coalesced-Fetches",
    "Content-Length",
    "Direct-Pushes",
    "Disk-Bytes",
    "Disk-Entries",
    "Disk-Hits",
    "Disk-Revalidations",
    "Errors",
    "Flight-Occupancy",
    "Index-Entries",
    "Index-Lock-Acquires",
    "Index-Shard-Entries",
    "Index-Shards",
    "Invalidations",
    "Io-Mode",
    "Origin-Fetches",
    "Peer-Failures",
    "Peer-Fallbacks",
    "Peer-Hits",
    "Proxy-Hits",
    "Queue-Depth",
    "Queue-Depth-Peak",
    "Queue-Rejected",
    "Reactor-Busy-Permille",
    "Reactor-Fds",
    "Reactor-Fds-Peak",
    "Reactor-Inline",
    "Reactor-Offloaded",
    "Recorder-Dropped",
    "Requests",
    "Workers",
];

const TRACE_HEADERS: &[&str] = &["Content-Length", "Content-Type", "Sample-One-In"];

const HEALTH_HEADERS: &[&str] = &[
    "Content-Length",
    "Content-Type",
    "Io-Mode",
    "Rules",
    "Uptime-Seconds",
    "Verdict",
];

/// A deterministic workload touching every serve tier the bed has: origin
/// misses, memory and disk hits, and one publisher invalidation.
fn scraped_bed(disk: &std::path::Path) -> TestBed {
    let _ = std::fs::remove_dir_all(disk);
    let store = DocumentStore::synthetic(12, 200, 1_500, 42);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 2,
            disk_root: Some(disk.to_path_buf()),
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    for i in 0..8 {
        let url = format!("http://origin/doc/{}", i % 4);
        bed.clients[(i % 2) as usize].fetch(&url).expect("fetch ok");
    }
    bed.clients[0]
        .publish_invalidate("http://origin/doc/0")
        .expect("invalidate ok");
    bed
}

fn header_names(msg: &Message) -> BTreeSet<String> {
    msg.headers.iter().map(|(k, _)| k.clone()).collect()
}

fn literal(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|n| n.to_string()).collect()
}

/// `# TYPE` families of an exposition: `(name, kind)` pairs.
fn families(text: &str) -> BTreeSet<(String, String)> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| {
            let mut words = rest.split_whitespace();
            (
                words.next().expect("family name").to_string(),
                words.next().expect("family kind").to_string(),
            )
        })
        .collect()
}

#[test]
fn operator_surfaces_match_their_golden_sets() {
    let disk = std::env::temp_dir().join(format!("baps_golden_{}", std::process::id()));
    let bed = scraped_bed(&disk);

    let text = bed.proxy.metrics_text();
    baps_obs::prom::check_conformance(&text).expect("exposition conforms");
    let want: BTreeSet<(String, String)> = METRIC_FAMILIES
        .iter()
        .map(|&(n, k)| (n.to_string(), k.to_string()))
        .collect();
    assert_eq!(families(&text), want, "METRICS # TYPE families");

    let stats = bed.clients[0].proxy_stats_raw().expect("stats");
    assert_eq!(
        header_names(&stats),
        literal(STATS_HEADERS),
        "STATS headers"
    );
    assert_eq!(stats.get("Io-Mode"), Some(IO_MODEL));

    let trace = bed.clients[0].proxy_trace_raw().expect("trace");
    assert_eq!(
        header_names(&trace),
        literal(TRACE_HEADERS),
        "TRACE headers"
    );

    let health = bed.clients[0].proxy_health_raw().expect("health");
    assert_eq!(
        header_names(&health),
        literal(HEALTH_HEADERS),
        "HEALTH headers"
    );
    assert_eq!(health.get("Io-Mode"), Some(IO_MODEL));
    let report = HealthReport::parse(std::str::from_utf8(&health.body).unwrap())
        .expect("verdict document parses");
    assert_eq!(report.io_mode, IO_MODEL);

    bed.shutdown();
    let _ = std::fs::remove_dir_all(&disk);
}
