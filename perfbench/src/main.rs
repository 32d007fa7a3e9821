//! BAPS runtime benchmark: drives a live loopback deployment (origin,
//! browsers-aware proxy, one `ClientAgent` per driver thread) through
//! `ClientAgent::fetch` and checks every body it receives.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-small|heavy-tail|browsers-aware --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `LAYERS.md`). The last stdout line is the result object; the
//! line before it records provenance.

mod drive;
mod layers;
mod report;
mod workload;

use baps_obs::Tier;
use baps_proxy::Source;
use drive::{
    run_phase, source_index, Deployment, Fetch, Keep, Pace, PhaseOut, Summary, Tick, Tracing,
    SOURCES,
};
use report::{json_str, quantile, sorted, Metrics};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of `--seconds` given to the open-loop phase; the closed-loop
/// phase gets the rest.
const OPEN_SHARE: f64 = 0.5;
/// Slices of the traced run's closed-loop phase, alternately spans off
/// and on, to price the spans themselves.
const TRACE_SLICES: u32 = 10;
/// Open-loop samples needed behind the latency percentiles, so at least
/// ten lie beyond p99.
const MIN_LATENCY_SAMPLES: usize = 1_000;
/// Measurement window; phases are sampled at window boundaries.
const WINDOW: Duration = Duration::from_millis(500);
/// Growth in median generator lateness, last tenth of the open-loop phase
/// over its first tenth, beyond which the backlog is growing and the
/// offered rate was not actually offered.
const BACKLOG_GROWTH_MS: f64 = 10.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s >= 1)
                        .ok_or("--seconds takes a positive integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <hot-small|heavy-tail|browsers-aware> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// How far behind schedule the open-loop generator sent.
struct Lateness {
    p99_ms: f64,
    max_ms: f64,
    /// Median lateness of the last tenth minus that of the first tenth.
    /// Medians, so a host stall inside one tenth does not read as a
    /// backlog; a growing backlog makes most of the last tenth late.
    growth_ms: f64,
}

impl Lateness {
    /// `by_due`: the open-loop fetches sorted by due time.
    fn of(by_due: &[Fetch]) -> Lateness {
        let late_ms =
            |fs: &[Fetch]| sorted(fs.iter().map(|f| (f.start - f.due) as f64 / 1e6).collect());
        let tenth = (by_due.len() / 10).max(1).min(by_due.len());
        let all = late_ms(by_due);
        Lateness {
            p99_ms: quantile(&all, 0.99),
            max_ms: all.last().copied().unwrap_or(0.0),
            growth_ms: quantile(&late_ms(&by_due[by_due.len() - tenth..]), 0.5)
                - quantile(&late_ms(&by_due[..tenth]), 0.5),
        }
    }
}

/// The program's own tier tallies, in [`SOURCES`] order.
const TIERS: [Tier; 5] = [
    Tier::Local,
    Tier::Proxy,
    Tier::Disk,
    Tier::Peer,
    Tier::Origin,
];

fn median(values: Vec<f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The values of the calmer half of `windows`, each given with the share
/// of CPU time the host stole during it.
fn calm_half<T>(mut windows: Vec<(f64, T)>) -> Vec<T> {
    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = windows.len().div_ceil(2);
    windows.into_iter().take(keep).map(|(_, v)| v).collect()
}

/// The end-to-end figures of one run.
struct EndToEnd {
    /// Figures steady enough on a shared host to carry a regression bound.
    gated: Vec<(&'static str, f64, &'static str)>,
    /// Figures reported for every run but too noisy to bound.
    unbounded: Vec<(&'static str, f64, &'static str)>,
    /// Open-loop requests behind the latency percentiles.
    latency_samples: usize,
    /// Closed-loop requests behind throughput and CPU per request.
    closed_requests: f64,
}

impl EndToEnd {
    /// Both phases are cut into windows at their sampled ticks. The host
    /// steals this machine's CPUs in bursts, and a window's share of
    /// stolen time says how much the host rather than the program shaped
    /// it, so every timing figure is taken over the calmer half of the
    /// windows: latency percentiles as the median of the windows' values,
    /// throughput and CPU pooled. `open.fetches` is sorted by due time.
    fn of(open: &PhaseOut, closed: &PhaseOut, measured: &Summary, setup_s: &[f64]) -> EndToEnd {
        let latency = calm_half(
            open.ticks
                .windows(2)
                .map(|pair| {
                    let lo = open.fetches.partition_point(|f| f.due < pair[0].at);
                    let hi = open.fetches.partition_point(|f| f.due < pair[1].at);
                    (pair[0].steal_share(&pair[1]), &open.fetches[lo..hi])
                })
                .filter(|(_, part)| !part.is_empty())
                .collect(),
        );
        let p50 = median(
            latency
                .iter()
                .map(|part| quantile(&sorted(part.iter().map(Fetch::latency_ms).collect()), 0.5))
                .collect(),
        );
        // p99 pools the calm windows, so at least MIN_LATENCY_SAMPLES
        // requests (ten beyond p99) stand behind it.
        let pooled = sorted(latency.concat().iter().map(Fetch::latency_ms).collect());
        // The first closed-loop window is skipped: the loop is settling
        // after the open-loop phase.
        let calm = calm_half(
            closed
                .ticks
                .windows(2)
                .skip(1)
                .map(|pair| {
                    let done = (pair[1].completed - pair[0].completed) as f64;
                    let secs = (pair[1].at - pair[0].at) as f64 / 1e9;
                    (
                        pair[0].steal_share(&pair[1]),
                        (done, secs, pair[1].cpu - pair[0].cpu),
                    )
                })
                .collect(),
        );
        let done: f64 = calm.iter().map(|w| w.0).sum();
        let secs: f64 = calm.iter().map(|w| w.1).sum();
        let cpu: f64 = calm.iter().map(|w| w.2).sum();

        let origin = source_index(Source::Origin);
        let hits = measured.served.iter().sum::<u64>() - measured.served[origin];
        let bytes: u64 = measured.served_bytes.iter().sum();
        EndToEnd {
            gated: vec![
                ("setup_s", median(setup_s.to_vec()), "s"),
                (
                    "hit_ratio",
                    hits as f64 / measured.gets().max(1) as f64,
                    "ratio",
                ),
                (
                    "byte_hit_ratio",
                    (bytes - measured.served_bytes[origin]) as f64 / bytes.max(1) as f64,
                    "ratio",
                ),
            ],
            unbounded: vec![
                ("throughput_rps", done / secs.max(1e-9), "1/s"),
                ("p50_ms", p50, "ms"),
                ("p99_ms", quantile(&pooled, 0.99), "ms"),
                ("cpu_us_per_req", cpu * 1e6 / done.max(1.0), "us"),
                ("peak_rss_mib", report::peak_rss_mib(), "MiB"),
            ],
            latency_samples: pooled.len(),
            closed_requests: done,
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One driver thread, one browser and one proxy connection per CPU.
    let n_browsers = nproc;
    let w = Workload::generate(args.kind, args.seed, n_browsers);
    assert!(w.streams.len() <= nproc, "more driver threads than CPUs");
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let scratch =
        |what: &str| -> PathBuf { out_dir.join(format!("{what}-{}", std::process::id())) };
    let epoch = Instant::now();
    let mut total = Summary::default();
    let summary_only = Keep {
        fetches: false,
        window: None,
    };

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept = None;
    for i in 0..setups {
        let t = Instant::now();
        let dep = Deployment::start(&w, scratch(&format!("disk{i}")))
            .map_err(|e| format!("start: {e}"))?;
        let mut cursors = vec![0; n_browsers];
        let warm = run_phase(
            &dep,
            &w,
            &mut cursors,
            Pace::Count(w.warmup),
            Tracing::Off,
            summary_only,
            epoch,
        );
        setup_s.push(t.elapsed().as_secs_f64());
        total.add(&warm.summary);
        if i + 1 == setups {
            kept = Some((dep, cursors, warm.summary));
        } else {
            dep.shutdown();
        }
    }
    let (dep, mut cursors, mut kept_summary) = kept.expect("at least one set-up");
    let connections = dep.bed.proxy.open_connections();
    assert!(
        dep.bed.clients.len() <= nproc && connections <= nproc,
        "{connections} proxy connections for {nproc} CPUs"
    );
    let io_mode = dep.bed.clients[0]
        .proxy_stats_raw()
        .map_err(|e| format!("STATS: {e}"))?
        .get("Io-Mode")
        .unwrap_or("unreported")
        .to_owned();
    let loopback =
        dep.bed.proxy.addr().ip().is_loopback() && dep.bed.origin.addr().ip().is_loopback();

    // Memory is reported for the measured phases only, not the set-ups.
    report::reset_peak_rss();
    let open_len = Duration::from_secs_f64(args.seconds as f64 * OPEN_SHARE);
    let closed_len = Duration::from_secs(args.seconds) - open_len;
    let mut open = run_phase(
        &dep,
        &w,
        &mut cursors,
        Pace::Open {
            rate_rps: w.rate_rps,
            length: open_len,
        },
        if args.trace {
            Tracing::On
        } else {
            Tracing::Off
        },
        Keep {
            fetches: true,
            window: Some(WINDOW),
        },
        epoch,
    );
    open.fetches.sort_by_key(|f| f.due);
    let closed = run_phase(
        &dep,
        &w,
        &mut cursors,
        Pace::Closed { length: closed_len },
        if args.trace {
            Tracing::Alternate(closed_len / TRACE_SLICES)
        } else {
            Tracing::Off
        },
        Keep {
            fetches: args.trace,
            window: Some(WINDOW),
        },
        epoch,
    );
    let phase_steal = |ticks: &[Tick]| match (ticks.first(), ticks.last()) {
        (Some(a), Some(b)) => a.steal_share(b),
        _ => 0.0,
    };
    let host_steal = [phase_steal(&open.ticks), phase_steal(&closed.ticks)];
    let mut measured = open.summary;
    measured.add(&closed.summary);
    total.add(&measured);
    kept_summary.add(&measured);

    // Checks: bodies, the generator, and the two balances.
    let late = Lateness::of(&open.fetches);
    let mut generator_ok =
        open.fetches.len() >= MIN_LATENCY_SAMPLES && late.growth_ms <= BACKLOG_GROWTH_MS;
    let stats = dep.bed.proxy.stats();
    let proxy_balanced = stats.requests
        == stats.proxy_hits
            + stats.disk_hits
            + stats.peer_hits
            + stats.origin_fetches
            + stats.errors;
    // The clients' own per-tier tallies cover the kept deployment's
    // warm-up and both phases: tier by tier they must match what the
    // benchmark saw, and with failures account for every attempted get.
    let program: Vec<u64> = TIERS
        .iter()
        .map(|&tier| {
            dep.bed
                .clients
                .iter()
                .map(|c| c.tier_latency(tier).count())
                .sum()
        })
        .collect();
    let client_balanced = program == kept_summary.served
        && program.iter().sum::<u64>() + kept_summary.failed == kept_summary.gets();
    let mut metrics = Metrics::default();
    let mut samples = Metrics::default();
    let mut unbounded = Metrics::default();
    let e2e = EndToEnd::of(&open, &closed, &measured, &setup_s);
    generator_ok &= e2e.latency_samples >= MIN_LATENCY_SAMPLES && e2e.closed_requests > 0.0;
    samples.put("setup_s", setup_s.len() as f64, "count");
    samples.put("open_loop_requests", open.fetches.len() as f64, "count");
    samples.put("latency_requests_used", e2e.latency_samples as f64, "count");
    samples.put(
        "closed_loop_requests",
        closed.summary.gets() as f64,
        "count",
    );
    samples.put("closed_loop_requests_used", e2e.closed_requests, "count");
    samples.put("hit_ratio_requests", measured.gets() as f64, "count");
    let extra = if !args.trace {
        for (name, value, unit) in e2e.gated {
            metrics.put(name, value, unit);
        }
        for (name, value, unit) in e2e.unbounded {
            unbounded.put(name, value, unit);
        }
        format!(", \"unbounded\": {}", unbounded.json())
    } else {
        // The end-to-end figures too noisy on a shared host to bound, as
        // unbounded per-layer metrics under their own names.
        for (name, value, unit) in e2e.unbounded {
            metrics.put(format!("e2e.{name}"), value, unit);
        }
        let traced: Vec<Fetch> = open
            .fetches
            .iter()
            .chain(&closed.fetches)
            .filter(|f| f.span != 0 && f.source.is_some())
            .copied()
            .collect();
        for source in SOURCES {
            let name = layers::source_name(source);
            let us = sorted(
                traced
                    .iter()
                    .filter(|f| f.source == Some(source))
                    .map(Fetch::service_us)
                    .collect(),
            );
            metrics.put(format!("fetch.{name}_p50_us"), quantile(&us, 0.5), "us");
            metrics.put(format!("fetch.{name}_p99_us"), quantile(&us, 0.99), "us");
            samples.put(format!("fetch.{name}"), us.len() as f64, "count");
        }
        let ok = measured.served.iter().sum::<u64>();
        metrics.put(
            "fetch.mean_body_bytes",
            measured.served_bytes.iter().sum::<u64>() as f64 / ok.max(1) as f64,
            "bytes",
        );
        for source in SOURCES {
            let name = layers::source_name(source);
            metrics.put(
                format!("client.served.{name}"),
                measured.served[source_index(source)] as f64,
                "count",
            );
        }
        let reconnects: u64 = dep.bed.clients.iter().map(|c| c.reconnects()).sum();
        metrics.put("client.reconnects", reconnects as f64, "count");

        let sat = dep.bed.proxy.saturation();
        metrics.put(
            "pool.queue_wait_p99_ms",
            sat.queue_wait.quantile_ms(0.99),
            "ms",
        );
        metrics.put("pool.busy_peak", sat.busy_workers_peak as f64, "count");
        // The reactor gauges exist only when the proxy serves from epoll
        // loops; a worker-pool proxy reports 0.
        let reactor = dep.bed.proxy.reactor_stats();
        metrics.put(
            "reactor.busy_fraction",
            reactor.as_ref().map_or(0.0, |r| r.busy_fraction),
            "ratio",
        );
        metrics.put(
            "reactor.offload_ratio",
            reactor.as_ref().map_or(0.0, |r| {
                r.offloaded as f64 / (r.offloaded + r.inline_served).max(1) as f64
            }),
            "ratio",
        );
        metrics.put("proxy.invalidations", stats.invalidations as f64, "count");
        metrics.put(
            "proxy.coalesced_fetches",
            stats.coalesced_fetches as f64,
            "count",
        );
        let peer_attempts = stats.peer_hits + stats.peer_failures + stats.peer_fallbacks;
        metrics.put(
            "peer.useful_ratio",
            stats.peer_hits as f64 / peer_attempts.max(1) as f64,
            "ratio",
        );
        let disk = dep.bed.proxy.disk_stats().unwrap_or_default();
        metrics.put("disk.hits", disk.hits as f64, "count");
        metrics.put("disk.stale", disk.stale as f64, "count");
        metrics.put("disk.writes", disk.writes as f64, "count");
        metrics.put("disk.io_errors", disk.io_errors as f64, "count");
        // Origin counters cover this deployment's warm-up and both phases.
        metrics.put(
            "origin.fetches_per_req",
            dep.bed.origin.hits() as f64 / kept_summary.gets().max(1) as f64,
            "ratio",
        );
        metrics.put(
            "origin.revalidations",
            dep.bed.origin.revalidations() as f64,
            "count",
        );
        metrics.put("gen.late_p99_ms", late.p99_ms, "ms");
        metrics.put("gen.late_max_ms", late.max_ms, "ms");
        // Closed-loop slices alternate spans off (even) and on (odd). The
        // first slice is left out: the loop is settling after the open
        // phase.
        let phase_start = closed.ticks.first().map_or(0, |t| t.at);
        let slice_ns = (closed_len / TRACE_SLICES).as_nanos() as u64;
        let slice = |f: &Fetch| f.start.saturating_sub(phase_start) / slice_ns.max(1);
        let counted = closed.fetches.iter().filter(|f| slice(f) >= 1);
        let on_slices = f64::from(TRACE_SLICES / 2);
        let off_slices = f64::from((TRACE_SLICES - 1) / 2);
        let on = counted.clone().filter(|f| f.span != 0).count() as f64 / on_slices;
        let off = counted.filter(|f| f.span == 0).count() as f64 / off_slices;
        metrics.put("trace.overhead_pct", (off - on) / off.max(1.0) * 100.0, "%");

        let replay = layers::replay(&dep, &w, &traced, &scratch("replay"), epoch)
            .map_err(|e| format!("replay: {e}"))?;
        for (name, value, unit) in &replay.metrics {
            metrics.put(*name, *value, unit);
        }
        samples.put("replay", replay.samples as f64, "count");
        // Every span feeds the figures above; the file keeps the replayed
        // requests' trees (root, children and replay spans), so its size
        // stays bounded however fast the build runs. One file per
        // workload, overwritten by the next traced run.
        let spans_path = out_dir.join(format!("spans-{}.jsonl", args.kind.name()));
        let replayed: HashSet<u64> = replay.spans.iter().map(|s| s.trace).collect();
        let spans: Vec<layers::Span> = open
            .spans
            .iter()
            .chain(&closed.spans)
            .filter(|s| replayed.contains(&s.trace))
            .chain(&replay.spans)
            .copied()
            .collect();
        layers::write_spans(&spans_path, &spans).map_err(|e| format!("write spans: {e}"))?;
        format!(
            ", \"spans\": {}",
            json_str(&spans_path.display().to_string())
        )
    };
    let correct = total.wrong == 0
        && total.failed_changes == 0
        && proxy_balanced
        && client_balanced
        && generator_ok;
    if !correct {
        eprintln!(
            "perfbench: checks failed: wrong_bodies={} failed_changes={} proxy_balanced={proxy_balanced} \
             client_balanced={client_balanced} generator_ok={generator_ok} (open samples {}, lateness growth {:.3} ms)",
            total.wrong,
            total.failed_changes,
            open.fetches.len(),
            late.growth_ms
        );
    }

    dep.shutdown();

    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \
         \"nproc\": {nproc}, \"browsers\": {n_browsers}, \"proxy_connections\": {connections}, \"loopback\": {loopback}, \
         \"io_mode\": {}, \"offered_rps\": {}, \"footprint_bytes\": {}, \"host_steal_share\": {{\"open\": {}, \"closed\": {}}}, \"generator\": {{\"valid\": {generator_ok}, \
         \"late_p99_ms\": {}, \"late_max_ms\": {}, \"late_growth_ms\": {}}}, \"setups_s\": {:?}, \"samples\": {}{extra}}}}}",
        json_str(args.kind.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&report::git_rev()),
        json_str(&io_mode),
        w.rate_rps,
        w.footprint(),
        host_steal[0],
        host_steal[1],
        late.p99_ms,
        late.max_ms,
        late.growth_ms,
        setup_s,
        samples.json(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        total.gets() + total.changes,
        total.failed + total.wrong + total.failed_changes,
        metrics.json()
    );
    Ok(())
}
