//! The SLO health engine behind the `HEALTH BAPS/1.0` verb (DESIGN.md
//! §14).
//!
//! A background sampler captures the proxy's cumulative counters and
//! latency histograms into a [`WindowRing`] once per second; every
//! `HEALTH` request forces one more capture (so a scrape always sees
//! data no older than the request itself) and then evaluates the
//! declarative rule table on [`ProxyConfig`](crate::ProxyConfig) against
//! rolling windows differenced out of the ring. The verdict document
//! reports, per rule, the observed value, the thresholds, an
//! `ok|warn|critical` verdict, and — for request-facing rules that fired
//! — the tail-latency exemplar trace ids currently held by the tier
//! histograms, each resolvable to a full span tree via `TRACE BAPS/1.0`.
//!
//! Windows are *differences of cumulative captures* (see
//! [`baps_obs::window`]), so a rate can never go negative and a torn
//! read is impossible by construction; the only freshness caveat is that
//! a window's span is reported honestly (`span_s`) and may exceed the
//! asked-for width when captures are sparse.

use crate::proxy::ProxyState;
use baps_obs::window::{push_hist, WindowRing, WindowSchema, WindowSnapshot, DEFAULT_CAPACITY};
use baps_obs::LatencyHistogram;
use parking_lot::Mutex;
use std::time::Instant;

/// Capture layout: counter slots in every window capture.
pub(crate) const WIN_REQUESTS: usize = 0;
pub(crate) const WIN_ERRORS: usize = 1;
pub(crate) const WIN_ORIGIN_FETCHES: usize = 2;
pub(crate) const WIN_PEER_FALLBACKS: usize = 3;
pub(crate) const WIN_COALESCED: usize = 4;
pub(crate) const WIN_RECORDER_SHED: usize = 5;
pub(crate) const WIN_QUEUE_REJECTED: usize = 6;
const WIN_COUNTERS: usize = 7;

/// Capture layout: histogram slots (after the counters).
pub(crate) const WIN_HIST_REQUEST: usize = 0;
pub(crate) const WIN_HIST_QUEUE_WAIT: usize = 1;
const WIN_HISTS: usize = 2;

/// The schema every proxy window capture follows.
fn schema() -> WindowSchema {
    WindowSchema {
        counters: WIN_COUNTERS,
        hists: WIN_HISTS,
    }
}

/// The rolling windows every `HEALTH` reply reports rates for.
pub const REPORT_WINDOWS: [u64; 3] = [1, 10, 60];

/// Most exemplar trace ids attached to one offending rule.
const MAX_RULE_EXEMPLARS: usize = 8;

/// The proxy's window ring plus the capture clock that feeds it.
///
/// Captures come from two places — the 1 Hz sampler thread and forced
/// captures on every `HEALTH` request (plus the
/// [`sample_windows_now`](crate::ProxyServer::sample_windows_now) test
/// hook) — so the tick counter is a mutex, serializing writers as the
/// ring's seqlock slots require. A forced capture always advances the
/// tick by at least one second even when the wall clock has not moved,
/// which is what lets deterministic tests bracket a burst with two
/// captures and difference them.
pub(crate) struct ProxyWindows {
    ring: WindowRing,
    started: Instant,
    /// Last capture tick, `None` before the first capture.
    tick: Mutex<Option<u64>>,
}

impl ProxyWindows {
    pub(crate) fn new() -> ProxyWindows {
        ProxyWindows {
            ring: WindowRing::new(schema(), DEFAULT_CAPACITY),
            started: Instant::now(),
            tick: Mutex::new(None),
        }
    }

    /// Seconds since this proxy incarnation started.
    pub(crate) fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    pub(crate) fn ring(&self) -> &WindowRing {
        &self.ring
    }

    /// Sampler path: captures only when a new wall second has arrived,
    /// so the ring holds at most one capture per second of uptime.
    pub(crate) fn maybe_capture(&self, state: &ProxyState) {
        let sec = self.started.elapsed().as_secs();
        let mut tick = self.tick.lock();
        if tick.is_some_and(|t| t >= sec) {
            return;
        }
        *tick = Some(sec);
        self.ring.ingest(sec, &capture_values(state));
    }

    /// Forced capture (`HEALTH` request or test hook): always lands,
    /// advancing the tick past the wall clock if necessary.
    pub(crate) fn force_capture(&self, state: &ProxyState) {
        let sec = self.started.elapsed().as_secs();
        let mut tick = self.tick.lock();
        let next = match *tick {
            Some(t) => sec.max(t + 1),
            None => sec,
        };
        *tick = Some(next);
        self.ring.ingest(next, &capture_values(state));
    }
}

/// One cumulative capture of everything the SLO rules consume.
fn capture_values(state: &ProxyState) -> Vec<u64> {
    let s = state.stats();
    let sat = state.telemetry.saturation();
    let mut v = Vec::with_capacity(schema().width());
    v.push(s.requests);
    v.push(s.errors);
    v.push(s.origin_fetches);
    v.push(s.peer_fallbacks);
    v.push(s.coalesced_fetches);
    v.push(state.obs.recorder.dropped());
    v.push(sat.rejected);
    let mut request = LatencyHistogram::new();
    for (_, h) in state.obs.tiers.iter() {
        request.merge(&h);
    }
    push_hist(&mut v, &request);
    push_hist(&mut v, &sat.queue_wait);
    v
}

/// What a rule measures over its window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloSignal {
    /// Errors per request (0 when the window saw no requests).
    ErrorRate,
    /// Peer→origin fallbacks per request: how often the peer path failed
    /// and the request degraded to an origin fetch.
    OriginFallbackRate,
    /// p999 of client-facing GET latency, milliseconds (all tiers merged).
    RequestP999Ms,
    /// p99 of the wait from `accept` to a connection's first service by a
    /// worker, milliseconds (DESIGN.md §13).
    QueueWaitP99Ms,
    /// Flight-recorder events shed per second (ring contention).
    RecorderShedPerSec,
    /// Instantaneous gauge: most ready connections claimed from the epoll
    /// set at once since start, i.e. the peak of workers busy serving one
    /// (DESIGN.md §13). Once it equals the worker count, further ready
    /// connections wait in the kernel's ready list.
    ReactorReadyDepth,
}

impl SloSignal {
    /// Stable wire name, as emitted in the verdict document.
    pub fn name(self) -> &'static str {
        match self {
            SloSignal::ErrorRate => "error_rate",
            SloSignal::OriginFallbackRate => "origin_fallback_rate",
            SloSignal::RequestP999Ms => "request_p999_ms",
            SloSignal::QueueWaitP99Ms => "queue_wait_p99_ms",
            SloSignal::RecorderShedPerSec => "recorder_shed_per_s",
            SloSignal::ReactorReadyDepth => "reactor_ready_depth",
        }
    }

    /// Inverse of [`SloSignal::name`].
    pub fn parse(s: &str) -> Option<SloSignal> {
        Some(match s {
            "error_rate" => SloSignal::ErrorRate,
            "origin_fallback_rate" => SloSignal::OriginFallbackRate,
            "request_p999_ms" => SloSignal::RequestP999Ms,
            "queue_wait_p99_ms" => SloSignal::QueueWaitP99Ms,
            "recorder_shed_per_s" => SloSignal::RecorderShedPerSec,
            "reactor_ready_depth" => SloSignal::ReactorReadyDepth,
            _ => return None,
        })
    }

    /// Whether offending-exemplar trace ids (from the GET tier
    /// histograms' tail buckets) are attached when this rule fires.
    /// Queue wait, recorder shed and reactor depth are not traced per
    /// request, so they have no exemplars to offer.
    fn request_facing(self) -> bool {
        matches!(
            self,
            SloSignal::ErrorRate | SloSignal::OriginFallbackRate | SloSignal::RequestP999Ms
        )
    }
}

/// One declarative SLO rule: a signal, the window it is evaluated over,
/// and the two thresholds. `value >= critical` is critical, `value >=
/// warn` is warn, below is ok (thresholds are inclusive ceilings).
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Operator-facing rule name (one token, no spaces).
    pub name: String,
    /// What the rule measures.
    pub signal: SloSignal,
    /// Window width in seconds ([`SloSignal::ReactorReadyDepth`] is an
    /// instantaneous gauge and ignores this).
    pub window_secs: u64,
    /// At or above this, the verdict is at least `warn`.
    pub warn: f64,
    /// At or above this, the verdict is `critical`.
    pub critical: f64,
}

impl SloRule {
    /// Convenience constructor.
    pub fn new(name: &str, signal: SloSignal, window_secs: u64, warn: f64, critical: f64) -> Self {
        SloRule {
            name: name.to_string(),
            signal,
            window_secs,
            warn,
            critical,
        }
    }

    fn judge(&self, value: f64) -> Verdict {
        if value >= self.critical {
            Verdict::Critical
        } else if value >= self.warn {
            Verdict::Warn
        } else {
            Verdict::Ok
        }
    }
}

/// The rule table evaluated by every `HEALTH` request; lives on
/// [`ProxyConfig`](crate::ProxyConfig).
#[derive(Debug, Clone)]
pub struct SloTable {
    /// Rules, evaluated in order; the document verdict is the worst rule
    /// verdict.
    pub rules: Vec<SloRule>,
}

impl Default for SloTable {
    /// Deliberately generous defaults: they flag a proxy that is broken
    /// (sustained error burn, multi-second tails, all requests falling
    /// through peers to origin), not one that is merely busy. Deployments
    /// with real objectives replace the table wholesale.
    fn default() -> SloTable {
        SloTable {
            rules: vec![
                SloRule::new("error_burn", SloSignal::ErrorRate, 10, 0.05, 0.25),
                SloRule::new("p999_ceiling", SloSignal::RequestP999Ms, 60, 500.0, 5000.0),
                SloRule::new(
                    "origin_fallback",
                    SloSignal::OriginFallbackRate,
                    10,
                    0.25,
                    0.75,
                ),
                SloRule::new("queue_wait", SloSignal::QueueWaitP99Ms, 10, 100.0, 1000.0),
                SloRule::new(
                    "recorder_shed",
                    SloSignal::RecorderShedPerSec,
                    10,
                    1_000.0,
                    100_000.0,
                ),
                SloRule::new(
                    "reactor_ready_depth",
                    SloSignal::ReactorReadyDepth,
                    1,
                    1024.0,
                    8192.0,
                ),
            ],
        }
    }
}

/// Per-rule or whole-document health verdict. Ordered: `Ok < Warn <
/// Critical`, so `max` combines verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within objectives.
    Ok,
    /// At or above the warn threshold.
    Warn,
    /// At or above the critical threshold.
    Critical,
}

impl Verdict {
    /// Stable lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Critical => "critical",
        }
    }

    /// Inverse of [`Verdict::name`].
    pub fn parse(s: &str) -> Option<Verdict> {
        Some(match s {
            "ok" => Verdict::Ok,
            "warn" => Verdict::Warn,
            "critical" => Verdict::Critical,
            _ => return None,
        })
    }
}

/// Rolling-rate line for one report window.
#[derive(Debug, Clone, Default)]
pub struct WindowRates {
    /// Asked-for window width, seconds.
    pub window_secs: u64,
    /// Actual span between the window's endpoint captures (0 = no data).
    pub span_secs: u64,
    /// Requests answered in the window.
    pub requests: u64,
    /// Errors in the window.
    pub errors: u64,
    /// Origin fetches in the window.
    pub origin_fetches: u64,
    /// Coalesced (herd-shared) fetches in the window.
    pub coalesced: u64,
    /// Connections rejected at the accept backlog / offload queue.
    pub rejected: u64,
    /// Requests per second over the span.
    pub req_per_s: f64,
    /// Errors per second over the span.
    pub err_per_s: f64,
    /// Windowed GET latency p99, milliseconds.
    pub p99_ms: f64,
    /// Windowed GET latency p999, milliseconds.
    pub p999_ms: f64,
}

/// One evaluated rule in a health report.
#[derive(Debug, Clone)]
pub struct RuleVerdict {
    /// Rule name from the table.
    pub name: String,
    /// The measured signal.
    pub signal: SloSignal,
    /// Asked-for window, seconds.
    pub window_secs: u64,
    /// Actual span of the evaluated window (0 = no data; gauges too).
    pub span_secs: u64,
    /// Observed value in the signal's unit.
    pub value: f64,
    /// Warn threshold.
    pub warn: f64,
    /// Critical threshold.
    pub critical: f64,
    /// This rule's verdict.
    pub verdict: Verdict,
    /// Tail-latency exemplar trace ids attached when a request-facing
    /// rule fires (each resolvable via `TRACE BAPS/1.0`).
    pub exemplars: Vec<u64>,
}

/// The parsed/renderable `HEALTH BAPS/1.0` verdict document.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Worst rule verdict (`ok` when every rule passes).
    pub verdict: Verdict,
    /// Seconds since this proxy incarnation started.
    pub uptime_secs: u64,
    /// Serving model ([`crate::IO_MODEL`]).
    pub io_mode: String,
    /// Rolling rates for each of [`REPORT_WINDOWS`].
    pub windows: Vec<WindowRates>,
    /// Every rule in table order.
    pub rules: Vec<RuleVerdict>,
}

impl HealthReport {
    /// Rules that did not come back `ok`.
    pub fn offending(&self) -> impl Iterator<Item = &RuleVerdict> {
        self.rules.iter().filter(|r| r.verdict != Verdict::Ok)
    }

    /// Finds a rule by name.
    pub fn rule(&self, name: &str) -> Option<&RuleVerdict> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// Renders the body of the `HEALTH` reply (`key=value` lines; one
    /// `window=` line per report window, one `rule=` line per rule).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("uptime_s={}\n", self.uptime_secs));
        out.push_str(&format!("io_mode={}\n", self.io_mode));
        out.push_str(&format!("verdict={}\n", self.verdict.name()));
        for w in &self.windows {
            out.push_str(&format!(
                "window={} span_s={} requests={} errors={} origin={} \
                 coalesced={} rejected={} req_per_s={:.3} err_per_s={:.3} \
                 p99_ms={:.3} p999_ms={:.3}\n",
                w.window_secs,
                w.span_secs,
                w.requests,
                w.errors,
                w.origin_fetches,
                w.coalesced,
                w.rejected,
                w.req_per_s,
                w.err_per_s,
                w.p99_ms,
                w.p999_ms,
            ));
        }
        for r in &self.rules {
            let exemplars = if r.exemplars.is_empty() {
                "-".to_string()
            } else {
                r.exemplars
                    .iter()
                    .map(|t| format!("{t:016x}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "rule={} signal={} window_s={} span_s={} value={:.6} \
                 warn={:.6} critical={:.6} verdict={} exemplars={exemplars}\n",
                r.name,
                r.signal.name(),
                r.window_secs,
                r.span_secs,
                r.value,
                r.warn,
                r.critical,
                r.verdict.name(),
            ));
        }
        out
    }

    /// Parses a rendered verdict document (the `HEALTH` reply body).
    /// Strict on structure — unknown keys are errors, so drift between
    /// proxy and tooling fails loudly in CI instead of silently.
    pub fn parse(text: &str) -> Result<HealthReport, String> {
        let mut uptime_secs = None;
        let mut io_mode = None;
        let mut verdict = None;
        let mut windows = Vec::new();
        let mut rules = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields = parse_kv_line(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let err = |e: String| format!("line {}: {e}", n + 1);
            match fields[0].0 {
                "uptime_s" => uptime_secs = Some(num(&fields, "uptime_s").map_err(err)? as u64),
                "io_mode" => io_mode = Some(get(&fields, "io_mode").map_err(err)?.to_string()),
                "verdict" => {
                    let v = get(&fields, "verdict").map_err(err)?;
                    verdict =
                        Some(Verdict::parse(v).ok_or_else(|| err(format!("bad verdict {v:?}")))?);
                }
                "window" => windows.push(parse_window_line(&fields).map_err(err)?),
                "rule" => rules.push(parse_rule_line(&fields).map_err(err)?),
                other => return Err(err(format!("unknown line kind {other:?}"))),
            }
        }
        Ok(HealthReport {
            verdict: verdict.ok_or("missing verdict line")?,
            uptime_secs: uptime_secs.ok_or("missing uptime_s line")?,
            io_mode: io_mode.ok_or("missing io_mode line")?,
            windows,
            rules,
        })
    }
}

type Fields<'a> = Vec<(&'a str, &'a str)>;

fn parse_kv_line(line: &str) -> Result<Fields<'_>, String> {
    line.split_ascii_whitespace()
        .map(|tok| {
            tok.split_once('=')
                .ok_or_else(|| format!("token {tok:?} is not key=value"))
        })
        .collect()
}

fn get<'a>(fields: &Fields<'a>, key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn num(fields: &Fields<'_>, key: &str) -> Result<f64, String> {
    let v = get(fields, key)?;
    v.parse::<f64>()
        .map_err(|_| format!("key {key:?} has non-numeric value {v:?}"))
}

fn parse_window_line(fields: &Fields<'_>) -> Result<WindowRates, String> {
    Ok(WindowRates {
        window_secs: num(fields, "window")? as u64,
        span_secs: num(fields, "span_s")? as u64,
        requests: num(fields, "requests")? as u64,
        errors: num(fields, "errors")? as u64,
        origin_fetches: num(fields, "origin")? as u64,
        coalesced: num(fields, "coalesced")? as u64,
        rejected: num(fields, "rejected")? as u64,
        req_per_s: num(fields, "req_per_s")?,
        err_per_s: num(fields, "err_per_s")?,
        p99_ms: num(fields, "p99_ms")?,
        p999_ms: num(fields, "p999_ms")?,
    })
}

fn parse_rule_line(fields: &Fields<'_>) -> Result<RuleVerdict, String> {
    let signal_name = get(fields, "signal")?;
    let signal =
        SloSignal::parse(signal_name).ok_or_else(|| format!("unknown signal {signal_name:?}"))?;
    let verdict_name = get(fields, "verdict")?;
    let verdict =
        Verdict::parse(verdict_name).ok_or_else(|| format!("bad verdict {verdict_name:?}"))?;
    let raw = get(fields, "exemplars")?;
    let exemplars = if raw == "-" {
        Vec::new()
    } else {
        raw.split(',')
            .map(|t| {
                if t.len() != 16 || !t.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(format!("exemplar {t:?} is not 16 hex digits"));
                }
                u64::from_str_radix(t, 16).map_err(|_| format!("bad exemplar {t:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    Ok(RuleVerdict {
        name: get(fields, "rule")?.to_string(),
        signal,
        window_secs: num(fields, "window_s")? as u64,
        span_secs: num(fields, "span_s")? as u64,
        value: num(fields, "value")?,
        warn: num(fields, "warn")?,
        critical: num(fields, "critical")?,
        verdict,
        exemplars,
    })
}

/// Evaluates the configured rule table over the current windows. The
/// caller (the `HEALTH` dispatch arm, or the
/// [`health`](crate::ProxyServer::health) hook) forces a capture first,
/// so every evaluation sees data at least as fresh as the request.
pub(crate) fn evaluate(state: &ProxyState) -> HealthReport {
    let ring = state.windows.ring();
    let windows = REPORT_WINDOWS
        .iter()
        .map(|&want| window_rates(ring.window(want), want))
        .collect();
    // Tail exemplars are read once per evaluation, not per rule: every
    // request-facing rule that fires shares the same "these are the slow
    // traces right now" evidence.
    let mut tail_exemplars: Vec<u64> = Vec::new();
    for (_, _, exemplars) in state.obs.tiers.iter_with_exemplars() {
        for t in exemplars {
            if t != 0 && !tail_exemplars.contains(&t) {
                tail_exemplars.push(t);
            }
        }
    }
    tail_exemplars.truncate(MAX_RULE_EXEMPLARS);
    let mut rules = Vec::with_capacity(state.config.slo.rules.len());
    let mut worst = Verdict::Ok;
    for rule in &state.config.slo.rules {
        let (value, span_secs) = measure(state, rule);
        let verdict = rule.judge(value);
        worst = worst.max(verdict);
        let exemplars = if verdict != Verdict::Ok && rule.signal.request_facing() {
            tail_exemplars.clone()
        } else {
            Vec::new()
        };
        rules.push(RuleVerdict {
            name: rule.name.clone(),
            signal: rule.signal,
            window_secs: rule.window_secs,
            span_secs,
            value,
            warn: rule.warn,
            critical: rule.critical,
            verdict,
            exemplars,
        });
    }
    HealthReport {
        verdict: worst,
        uptime_secs: state.windows.uptime_secs(),
        io_mode: crate::reactor::IO_MODEL.to_string(),
        windows,
        rules,
    }
}

/// Measures one rule's signal: `(value, span_secs)`. A missing window
/// (fewer than two captures retained) measures as 0 over a 0-second
/// span — "no data" is not an alert.
fn measure(state: &ProxyState, rule: &SloRule) -> (f64, u64) {
    if rule.signal == SloSignal::ReactorReadyDepth {
        let depth = state.telemetry.saturation().busy_workers_peak;
        return (depth as f64, 0);
    }
    let Some(w) = state.windows.ring().window(rule.window_secs) else {
        return (0.0, 0);
    };
    let span = w.span_secs();
    let value = match rule.signal {
        SloSignal::ErrorRate => per_request(&w, WIN_ERRORS),
        SloSignal::OriginFallbackRate => per_request(&w, WIN_PEER_FALLBACKS),
        SloSignal::RequestP999Ms => w.hist(WIN_HIST_REQUEST).quantile_ms(0.999),
        SloSignal::QueueWaitP99Ms => w.hist(WIN_HIST_QUEUE_WAIT).quantile_ms(0.99),
        SloSignal::RecorderShedPerSec => w.rate(WIN_RECORDER_SHED),
        SloSignal::ReactorReadyDepth => unreachable!("handled above"),
    };
    (value, span)
}

fn per_request(w: &WindowSnapshot, counter: usize) -> f64 {
    let requests = w.counter(WIN_REQUESTS);
    if requests == 0 {
        0.0
    } else {
        w.counter(counter) as f64 / requests as f64
    }
}

fn window_rates(w: Option<WindowSnapshot>, want: u64) -> WindowRates {
    let Some(w) = w else {
        return WindowRates {
            window_secs: want,
            ..WindowRates::default()
        };
    };
    let hist = w.hist(WIN_HIST_REQUEST);
    WindowRates {
        window_secs: want,
        span_secs: w.span_secs(),
        requests: w.counter(WIN_REQUESTS),
        errors: w.counter(WIN_ERRORS),
        origin_fetches: w.counter(WIN_ORIGIN_FETCHES),
        coalesced: w.counter(WIN_COALESCED),
        rejected: w.counter(WIN_QUEUE_REJECTED),
        req_per_s: w.rate(WIN_REQUESTS),
        err_per_s: w.rate(WIN_ERRORS),
        p99_ms: hist.quantile_ms(0.99),
        p999_ms: hist.quantile_ms(0.999),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> HealthReport {
        HealthReport {
            verdict: Verdict::Warn,
            uptime_secs: 42,
            io_mode: crate::IO_MODEL.to_string(),
            windows: vec![WindowRates {
                window_secs: 10,
                span_secs: 10,
                requests: 1000,
                errors: 40,
                origin_fetches: 7,
                coalesced: 3,
                rejected: 1,
                req_per_s: 100.0,
                err_per_s: 4.0,
                p99_ms: 12.5,
                p999_ms: 80.25,
            }],
            rules: vec![
                RuleVerdict {
                    name: "error_burn".to_string(),
                    signal: SloSignal::ErrorRate,
                    window_secs: 10,
                    span_secs: 10,
                    value: 0.04,
                    warn: 0.01,
                    critical: 0.25,
                    verdict: Verdict::Warn,
                    exemplars: vec![0xdead_beef_0000_0001, 2],
                },
                RuleVerdict {
                    name: "queue_wait".to_string(),
                    signal: SloSignal::QueueWaitP99Ms,
                    window_secs: 10,
                    span_secs: 10,
                    value: 1.5,
                    warn: 100.0,
                    critical: 1000.0,
                    verdict: Verdict::Ok,
                    exemplars: vec![],
                },
            ],
        }
    }

    #[test]
    fn report_roundtrips_through_render_and_parse() {
        let report = sample_report();
        let parsed = HealthReport::parse(&report.render()).expect("parses");
        assert_eq!(parsed.verdict, Verdict::Warn);
        assert_eq!(parsed.uptime_secs, 42);
        assert_eq!(parsed.io_mode, crate::IO_MODEL);
        assert_eq!(parsed.windows.len(), 1);
        assert_eq!(parsed.windows[0].requests, 1000);
        assert!((parsed.windows[0].p999_ms - 80.25).abs() < 1e-9);
        assert_eq!(parsed.rules.len(), 2);
        let burn = parsed.rule("error_burn").expect("rule present");
        assert_eq!(burn.signal, SloSignal::ErrorRate);
        assert_eq!(burn.verdict, Verdict::Warn);
        assert_eq!(burn.exemplars, vec![0xdead_beef_0000_0001, 2]);
        assert_eq!(
            parsed.rule("queue_wait").unwrap().exemplars,
            Vec::<u64>::new()
        );
        assert_eq!(parsed.offending().count(), 1);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(HealthReport::parse("").is_err(), "empty doc lacks verdict");
        assert!(
            HealthReport::parse("verdict=ok\n").is_err(),
            "missing uptime"
        );
        let ok = sample_report().render();
        assert!(HealthReport::parse(&ok.replace("verdict=warn", "verdict=wat")).is_err());
        assert!(HealthReport::parse(&ok.replace("signal=error_rate", "signal=x")).is_err());
        assert!(HealthReport::parse(&(ok.clone() + "mystery=1\n")).is_err());
        assert!(HealthReport::parse(&ok.replace(
            "exemplars=deadbeef00000001,0000000000000002",
            "exemplars=xyz"
        ))
        .is_err());
    }

    #[test]
    fn thresholds_are_inclusive_ceilings() {
        let rule = SloRule::new("r", SloSignal::ErrorRate, 10, 0.1, 0.5);
        assert_eq!(rule.judge(0.099), Verdict::Ok);
        assert_eq!(rule.judge(0.1), Verdict::Warn);
        assert_eq!(rule.judge(0.499), Verdict::Warn);
        assert_eq!(rule.judge(0.5), Verdict::Critical);
        assert_eq!(rule.judge(f64::INFINITY), Verdict::Critical);
    }

    #[test]
    fn verdicts_combine_by_max() {
        assert_eq!(Verdict::Ok.max(Verdict::Warn), Verdict::Warn);
        assert_eq!(Verdict::Critical.max(Verdict::Warn), Verdict::Critical);
        assert!(Verdict::Ok < Verdict::Warn && Verdict::Warn < Verdict::Critical);
    }

    #[test]
    fn default_table_names_are_unique_and_signals_parse() {
        let table = SloTable::default();
        let mut names: Vec<&str> = table.rules.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.rules.len(), "duplicate rule names");
        for rule in &table.rules {
            assert_eq!(SloSignal::parse(rule.signal.name()), Some(rule.signal));
            assert!(rule.warn <= rule.critical);
        }
    }
}
