//! What one run reports: named metrics with units, provenance notes,
//! the attempted/failed request counts, and any correctness problem.

use crate::stats::{self, Shortfall};

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`latency_p50_ms`, `core.match_us`, ...).
    pub name: String,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Out {
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Provenance and sample-size notes, printed before the result.
    pub notes: Vec<String>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that errored, were refused or shed, came back degraded,
    /// or failed the correctness gate.
    pub failed: u64,
    /// Correctness problems (answer mismatches, accounting failures).
    pub problems: Vec<String>,
}

impl Out {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Records a provenance note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Records a correctness problem (the run then reports
    /// `correct: false`). Only the first few are kept verbatim.
    pub fn problem(&mut self, p: impl Into<String>) {
        if self.problems.len() < 20 {
            self.problems.push(p.into());
        }
    }

    /// Records percentile `q` of `sorted` as `name`, with the sample
    /// count behind it; under the sample-size rule a short sample emits
    /// a note and no number.
    pub fn percentile(&mut self, name: &str, sorted: &[f64], q: f64, unit: &'static str) {
        match stats::percentile(sorted, q) {
            Ok(v) => {
                self.metric(name, v, unit);
                self.note(format!("{name}: {} samples", sorted.len()));
            }
            Err(s) => self.shortfall(name, s),
        }
    }

    /// Records the median over `window`-sample windows of percentile
    /// `q` of `samples` (in arrival order) as `name`.
    fn windowed(&mut self, name: &str, samples: &[f64], q: f64, window: usize) {
        match stats::windowed_percentile(samples, q, window) {
            Ok((v, windows)) => {
                self.metric(name, v, "ms");
                self.note(format!("{name}: median of {windows} windows of {window} samples"));
            }
            Err(s) => self.shortfall(name, s),
        }
    }

    /// Records one run's latency metrics from a loop running `round`
    /// cases per round (1 for an open loop): p50 and p90 as medians over
    /// windows of whole rounds, p99 over the whole sample.
    pub fn latencies(&mut self, samples_ms: &[f64], round: usize) {
        for (name, q) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
            self.windowed(name, samples_ms, q, stats::percentile_window(round, q));
        }
        self.percentile("latency_p99_ms", &stats::sorted(samples_ms.to_vec()), 0.99, "ms");
    }

    /// Records the throughput as the median completion rate over
    /// `window`-completion windows (`done_at`: completion times in
    /// seconds from the start of the measurement).
    pub fn throughput(&mut self, done_at: &[f64], window: usize) {
        match stats::windowed_rate(done_at, window) {
            Some(r) => {
                self.metric("throughput_qps", r, "1/s");
                self.note(format!(
                    "throughput_qps: median rate of windows of {window} over {} completions",
                    done_at.len()
                ));
            }
            None => self.note("throughput_qps: not reported, fewer completions than one window"),
        }
    }

    fn shortfall(&mut self, name: &str, Shortfall { samples, needed }: Shortfall) {
        self.note(format!(
            "{name}: not reported, {samples} samples collected and {needed} needed \
             for {} samples above it",
            stats::MIN_ABOVE
        ));
    }

    /// The value of metric `name`, if measured.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Peak resident memory (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
