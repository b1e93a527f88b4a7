//! Metric collection, order statistics, input digests, and provenance.

use std::collections::BTreeMap;
use std::path::Path;

use crate::trace::{self, NameStats, Span};

/// Metrics every workload reports in an untraced run, in this order.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "ops_per_s",
    "op_p50_ms",
    "resolution",
];

/// Metrics every workload reports in a traced run, in this order.
pub const PER_LAYER: &[&str] = &[
    "unaccounted_share",
    "trace_overhead",
    "op.p99_ms",
    "atpg.tests_s",
    "sim.simulate_s",
    "sim.simulate_jobs1_s",
    "core.p1_s",
    "core.p1_calls",
    "core.p2_s",
    "core.sd_build_s",
    "store.encode_s",
    "store.commit_s",
    "store.open_ms",
    "logic.parse_us",
    "core.encode_observed_us",
    "core.score_us",
    "core.score_ns_per_fault",
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Named measurements in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// `{"name":{"value":v,"unit":"u"},...}` for the metrics in `names`
    /// (all of them when `names` is `None`).
    pub fn json(&self, names: Option<&[&str]>) -> String {
        let pick: Vec<&Metric> = match names {
            Some(names) => names
                .iter()
                .map(|n| {
                    self.get(n)
                        .unwrap_or_else(|| panic!("metric {n} not measured"))
                })
                .collect(),
            None => self.0.iter().collect(),
        };
        let body: Vec<String> = pick
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A finite JSON number with every digit `f64` carries.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (requests, devices, build cycles) plus output checks
    /// made outside them.
    pub attempted: u64,
    /// Ops or checks whose output was wrong or missing.
    pub failed: u64,
    /// Every metric measured: those `BENCHMARK.json` lists and the
    /// workload-specific ones.
    pub metrics: Metrics,
    /// Input shape and digests, for the detail line.
    pub shape: Vec<(&'static str, String)>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn shape(&mut self, key: &'static str, value: impl ToString) {
        self.shape.push((key, value.to_string()));
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median duration (seconds) of the spans named `name`; 0 when none.
pub fn span_median(stats: &BTreeMap<&'static str, NameStats>, name: &str) -> f64 {
    stats.get(name).map_or(0.0, |s| median(&s.durations))
}

/// Adds the per-layer metrics every workload derives the same way from its
/// spans: the stage medians, the diagnosis-layer probes, and
/// `unaccounted_share`.
pub fn common_layer_metrics(
    metrics: &mut Metrics,
    stats: &BTreeMap<&'static str, NameStats>,
    faults: usize,
) {
    metrics.put(
        "unaccounted_share",
        trace::unaccounted_share(stats),
        "share",
    );
    for (metric, span) in [
        ("atpg.tests_s", "atpg.tests"),
        ("sim.simulate_s", "sim.simulate"),
        ("sim.simulate_jobs1_s", "sim.simulate_jobs1"),
        ("core.p1_s", "core.p1"),
        ("core.p2_s", "core.p2"),
        ("core.sd_build_s", "core.sd_build"),
        ("store.encode_s", "store.encode"),
        ("store.commit_s", "store.commit"),
    ] {
        metrics.put(metric, span_median(stats, span), "s");
    }
    metrics.put(
        "store.open_ms",
        span_median(stats, "store.open") * 1e3,
        "ms",
    );
    metrics.put(
        "logic.parse_us",
        span_median(stats, "logic.parse") * 1e6,
        "us",
    );
    metrics.put(
        "core.encode_observed_us",
        span_median(stats, "core.encode_observed") * 1e6,
        "us",
    );
    let score = span_median(stats, "core.score");
    metrics.put("core.score_us", score * 1e6, "us");
    metrics.put(
        "core.score_ns_per_fault",
        score * 1e9 / faults.max(1) as f64,
        "ns",
    );
}

/// 64-bit FNV-1a, for input digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn of<'a>(items: impl IntoIterator<Item = &'a [u8]>) -> String {
        let mut digest = Self::default();
        for item in items {
            digest.update(item);
            digest.update(b"\n");
        }
        digest.hex()
    }
}

/// Peak resident set (`VmHWM`) of `pid` (this process when `None`), in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?;
                kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and on what the numbers were taken.
pub fn provenance(seed: u64, root: &Path) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    // Only the checkout's own git metadata: git must not search the
    // directories above it.
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            command_line(
                "git",
                &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
            )
        })
        .flatten()
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        (
            "available_parallelism",
            sdd_sim::available_jobs().to_string(),
        ),
        ("cpu_model", cpu),
        ("rustc", rustc),
        ("commit", commit),
        ("source_digest", source_digest(root)),
        ("seed", seed.to_string()),
    ]
}

/// First stdout line of a command that exits successfully.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_owned())
}

/// Digest of the program's sources (manifests and `.rs` files outside the
/// benchmark), standing in for a commit id where the checkout has no git
/// metadata.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut digest = Digest::default();
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            let name = file.strip_prefix(root).unwrap_or(file);
            digest.update(name.display().to_string().as_bytes());
            digest.update(&bytes);
        }
    }
    digest.hex()
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                collect(&entry.path(), out);
            }
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}

/// Minimal JSON string escaping for provenance values.
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
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
    fn quantiles_and_medians() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
    }

    #[test]
    fn json_has_every_requested_metric() {
        let mut m = Metrics::default();
        m.put("a", 1.25, "s");
        m.put("b", 2.0, "count");
        assert_eq!(
            m.json(Some(&["b"])),
            "{\"b\":{\"value\":2,\"unit\":\"count\"}}"
        );
    }
}
