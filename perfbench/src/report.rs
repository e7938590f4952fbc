//! Sample statistics and the benchmark's output lines.

use std::time::Duration;

use mis_probe::json::{is_wellformed, json_f64, json_string};

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one benchmark run reports: operation counts, the metrics
/// of the result line, and an info object recording run conditions,
/// sample statistics and the deterministic simulated statistics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Info fields as `(key, rendered JSON value)`.
    pub info: Vec<(String, String)>,
    /// Simulated statistics as `(key, rendered JSON value)`: pure
    /// functions of the seed, identical on every run with that seed.
    pub simulated: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric. The first value added under a name is kept: in a
    /// traced run the workload's own job reports before the others, so
    /// a layer both measure (C880 set-up) keeps the workload's figure.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if self.get(name).is_some() {
            return;
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds an info field holding a number.
    pub fn info_num(&mut self, key: &str, value: f64) {
        self.info.push((key.to_string(), json_f64(value)));
    }

    /// Adds an info field holding pre-rendered JSON.
    pub fn info_json(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    /// Adds a simulated statistic holding pre-rendered JSON.
    pub fn stat(&mut self, key: &str, json: String) {
        self.simulated.push((key.to_string(), json));
    }

    /// Counts `n` operations, `bad` of them failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The value of a metric already added, by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The info line: `{"info":{...}}`.
    #[must_use]
    pub fn info_line(&self) -> String {
        object_line("info", &self.info)
    }

    /// The simulated-statistics line: `{"simulated":{...}}`.
    #[must_use]
    pub fn simulated_line(&self) -> String {
        object_line("simulated", &self.simulated)
    }

    /// The result line, last on stdout: correctness, operation counts
    /// and the metrics.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(&m.name),
                    json_f64(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        checked(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}

fn object_line(name: &str, fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    checked(format!("{{\"{name}\":{{{}}}}}", body.join(",")))
}

fn checked(line: String) -> String {
    assert!(is_wellformed(&line), "malformed JSON output: {line}");
    line
}

/// Order statistics of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples` (must be non-empty).
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// JSON object `{"n":..,"q1":..,"median":..,"q3":..}`.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
            self.n,
            json_f64(self.q1),
            json_f64(self.median),
            json_f64(self.q3)
        )
    }

    /// [`Summary::json`] with one more field.
    #[must_use]
    pub fn json_with(&self, key: &str, value: f64) -> String {
        let base = self.json();
        format!(
            "{},{}:{}}}",
            &base[..base.len() - 1],
            json_string(key),
            json_f64(value)
        )
    }
}

/// The `q`-quantile of ascending `sorted` samples, interpolating
/// linearly between order statistics.
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Seconds as `f64`.
#[must_use]
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc` does not report it.
#[must_use]
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `peak_rss_mb`: the process's `VmHWM` so far, one sample.
pub fn peak_rss(report: &mut Report) {
    report.metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB");
    report.info_json("peak_rss_mb", "{\"n\":1}".to_string());
}

/// Quantile of the window rates behind `ops_per_s` (the slow end), and
/// of the window medians behind `latency_p50_ms` (the matching end).
const SLOW_WINDOWS: f64 = 0.1;

/// The timed loop's metrics from per-operation busy times `times_s`
/// (seconds), each operation doing `work` units, cut into consecutive
/// windows of `window` operations (whole cycles of the input mix):
///
/// * `ops_per_s`: the 10th percentile of the window rates (work ÷ busy
///   time);
/// * `latency_p50_ms`: the 90th percentile of the window medians;
/// * `latency_tail_ms`: the `tail_q` quantile of all operations, a
///   percentile fixed per workload so that at least ten samples lie
///   beyond it at the loop's minimum size.
///
/// The host slows all code by up to 1.45× in spells of seconds to
/// minutes (see `NOTES.md`), and the share of a run they cover varies
/// from run to run. Nearly every run measured had slow spells, and the
/// slowdown saturates, so the slow end of the window distribution is
/// the steadiest estimate of the code's cost; a change in that cost
/// scales both ends alike.
///
/// # Panics
///
/// If fewer than ten samples lie beyond `tail_q`.
pub fn loop_metrics(report: &mut Report, work: f64, times_s: &[f64], window: usize, tail_q: f64) {
    let windows: Vec<&[f64]> = times_s.chunks_exact(window).collect();
    let rates: Vec<f64> = windows
        .iter()
        .map(|t| work * t.len() as f64 / t.iter().sum::<f64>())
        .collect();
    let medians: Vec<f64> = windows
        .iter()
        .map(|t| Summary::of(t).median * 1e3)
        .collect();
    let mut sorted: Vec<f64> = times_s.iter().map(|s| s * 1e3).collect();
    sorted.sort_by(f64::total_cmp);
    let beyond = ((1.0 - tail_q) * sorted.len() as f64).floor() as usize;
    assert!(
        beyond >= 10,
        "p{} needs at least 10 samples beyond it, have {beyond}",
        tail_q * 100.0
    );
    let mut rates_sorted = rates.clone();
    rates_sorted.sort_by(f64::total_cmp);
    let mut medians_sorted = medians.clone();
    medians_sorted.sort_by(f64::total_cmp);
    report.metric("ops_per_s", quantile(&rates_sorted, SLOW_WINDOWS), "1/s");
    report.metric(
        "latency_p50_ms",
        quantile(&medians_sorted, 1.0 - SLOW_WINDOWS),
        "ms",
    );
    report.metric("latency_tail_ms", quantile(&sorted, tail_q), "ms");
    report.info_json(
        "ops_per_s",
        Summary::of(&rates).json_with("window_ops", window as f64),
    );
    report.info_json("latency_p50_ms", Summary::of(&medians).json());
    report.info_json("latency_ms", Summary::of(&sorted).json());
    report.info_json(
        "latency_tail_ms",
        format!(
            "{{\"n\":{},\"percentile\":{},\"beyond\":{beyond}}}",
            sorted.len(),
            json_f64(tail_q * 100.0)
        ),
    );
}
