//! Repetition records, medians and the one-line JSON result.

use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated counts of one repetition. They are deterministic functions
/// of the workload inputs, so every repetition of a run must agree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sim {
    /// Rounds (pulses under the synchronizers) executed.
    pub rounds: u64,
    /// Payload messages delivered.
    pub messages: u64,
    /// Widest payload message, in bits.
    pub max_bits: u64,
    /// Payload plus synchronizer control messages delivered.
    pub wire_messages: u64,
}

/// Per-layer values of one traced repetition, keyed by metric name.
pub type Layers = BTreeMap<String, f64>;

/// What one repetition (one instance: set-up, solve, check) produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Seed → engine ready, in seconds.
    pub setup_s: f64,
    /// Ready engine → checked output, in seconds.
    pub solve_s: f64,
    /// Peak resident set over set-up and solve, in MB.
    pub peak_rss_mb: f64,
    /// The simulated counts.
    pub sim: Sim,
    /// Share of the planted set inside the largest output set, when the
    /// instance has one.
    pub recall: Option<f64>,
    /// A deterministic summary of the outputs (set sizes, overhead
    /// counts), compared across repetitions like `sim`.
    pub outputs: Vec<u64>,
    /// Failed correctness checks, one line each; empty when correct.
    pub failures: Vec<String>,
    /// Per-layer values; empty for untraced repetitions.
    pub layers: Layers,
}

impl Rep {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (metrics never carry NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Restarts this process's peak-resident-set watermark (`VmHWM`) at
/// its current resident set, so the next reading covers one repetition.
pub fn reset_peak_rss() {
    // Best effort: without the file the watermark spans the whole run.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics of one run, in emission order: name → (value, unit).
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (value, unit));
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, attempted: usize, failed: usize) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
