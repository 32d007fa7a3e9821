//! Process measurements, order statistics and the JSON result lines.

use std::fmt::Write as _;

/// Linux reports process CPU times in clock ticks of this fixed rate
/// (`USER_HZ`, part of the kernel ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds used by this process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Machine-wide CPU time as (steal, total) clock ticks. Steal is time the
/// hypervisor ran other guests while this machine's CPUs wanted to run.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .map(|v| v.parse().expect("numeric /proc/stat field"))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user and nice.
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Resets this process's peak resident set size to its current size.
pub fn reset_peak_rss() {
    // "5" clears the VmHWM high-water mark (Linux 4.0+); without it the
    // peak covers the whole run, set-ups included.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The source revision, when the benchmark runs inside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

/// The `q` quantile of `sorted` by nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (no NaNs expected).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric values are finite");
        self.0.push((name.into(), value, unit));
    }

    /// Renders `{"name": {"value": v, "unit": u}, ...}`.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs = sorted((1..=1000).map(f64::from).collect());
        assert_eq!(quantile(&xs, 0.5), 500.0);
        assert_eq!(quantile(&xs, 0.99), 990.0);
        assert_eq!(quantile(&xs, 1.0), 1000.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("p50_ms", 1.25, "ms");
        m.put("count", 3.0, "count");
        assert_eq!(
            m.json(),
            r#"{"p50_ms": {"value": 1.25, "unit": "ms"}, "count": {"value": 3.0, "unit": "count"}}"#
        );
        assert_eq!(json_str("a\"b"), r#""a\"b""#);
    }
}
