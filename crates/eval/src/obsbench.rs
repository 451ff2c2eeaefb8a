//! Metrics-overhead benchmark: answers the TPC-H' aggregate workload
//! end to end twice per repetition — once with the always-on metrics
//! registry disabled, once enabled — and reports the per-query and
//! median overhead of observation, serialized as `BENCH_obs.json`.
//!
//! The always-on subsystem's contract is twofold: enabled recording
//! costs < 3% of median end-to-end latency on a real workload, and the
//! disabled path performs **zero** allocations. The first is measured
//! by interleaved A/B repetitions (disabled and enabled runs alternate
//! within each repetition, so clock drift and cache warming hit both
//! arms equally). The second is pinned by an allocation probe: the
//! `repro` binary installs a counting global allocator that bumps
//! [`PROBE_ALLOCATIONS`] while [`PROBE_ACTIVE`] is set; a tight loop of
//! metric-handle calls with the registry disabled must leave the count
//! at zero. When the harness runs without that allocator (e.g. from a
//! library test), the probe detects it via a sentinel allocation and
//! reports the check as skipped rather than trivially passing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use aqks_core::Engine;
use aqks_obs::metrics::{self, Counter, Histogram, LabeledCounter, Unit};

use crate::timing::TimingSummary;
use crate::workload::tpch_queries;

/// Arms the allocation probe: while set, the binary's counting global
/// allocator bumps [`PROBE_ALLOCATIONS`] on every allocation.
pub static PROBE_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Allocations observed while [`PROBE_ACTIVE`] was set.
pub static PROBE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Hook for the binary's `#[global_allocator]`: call on every `alloc`.
/// One relaxed load when the probe is disarmed.
#[inline]
pub fn probe_alloc() {
    if PROBE_ACTIVE.load(Ordering::Relaxed) {
        PROBE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Overhead measurement of one workload query.
#[derive(Debug, Clone)]
pub struct QueryObsBench {
    /// Paper query id (T1…T8).
    pub id: &'static str,
    /// End-to-end `answer` wall time with metrics disabled.
    pub disabled: TimingSummary,
    /// End-to-end `answer` wall time with metrics enabled.
    pub enabled: TimingSummary,
    /// Median-over-median overhead of enabling metrics, percent.
    pub overhead_pct: f64,
    /// Failure message when the query could not be answered.
    pub error: Option<String>,
}

/// The full overhead benchmark.
#[derive(Debug, Clone)]
pub struct ObsBench {
    /// Per-query measurements.
    pub rows: Vec<QueryObsBench>,
    /// Repetitions per arm per query.
    pub reps: usize,
    /// Median across queries of each query's `overhead_pct`.
    pub median_overhead_pct: f64,
    /// Allocations observed on the disabled recording path — must be
    /// `Some(0)`; `None` means the counting allocator is not installed
    /// (library-test context) and the check could not run.
    pub disabled_path_allocations: Option<u64>,
    /// Flight-recorder entries retained after the enabled runs.
    pub flight_retained: usize,
}

static PROBE_COUNTER: Counter = Counter::new("obsbench_probe_counter");
static PROBE_LATENCY: Histogram = Histogram::new("obsbench_probe_latency_ns", Unit::Nanos);
static PROBE_SITES: LabeledCounter = LabeledCounter::new("obsbench_probe_sites", "site");

/// Measures allocations across 10k disabled-path handle recordings.
/// Returns `None` when no counting allocator is installed.
pub fn disabled_path_allocations() -> Option<u64> {
    // Warm: register every probe cell while enabled, so the measured
    // loop exercises the steady-state (not first-use) path.
    let was_enabled = metrics::enabled();
    metrics::set_enabled(true);
    PROBE_COUNTER.add(1);
    PROBE_LATENCY.observe(1);
    PROBE_SITES.add("ops.Scan", 1);

    // Sentinel: prove the probe is live before trusting a zero count.
    PROBE_ALLOCATIONS.store(0, Ordering::SeqCst);
    PROBE_ACTIVE.store(true, Ordering::SeqCst);
    let sentinel = std::hint::black_box(vec![0u8; 64]);
    drop(sentinel);
    let installed = PROBE_ALLOCATIONS.load(Ordering::SeqCst) > 0;
    if !installed {
        PROBE_ACTIVE.store(false, Ordering::SeqCst);
        metrics::set_enabled(was_enabled);
        return None;
    }

    metrics::set_enabled(false);
    PROBE_ALLOCATIONS.store(0, Ordering::SeqCst);
    for i in 0..10_000u64 {
        PROBE_COUNTER.add(1);
        PROBE_LATENCY.observe(i * 17);
        PROBE_SITES.add("ops.Scan", 1);
    }
    let allocs = PROBE_ALLOCATIONS.load(Ordering::SeqCst);
    PROBE_ACTIVE.store(false, Ordering::SeqCst);
    metrics::set_enabled(was_enabled);
    Some(allocs)
}

/// Runs the overhead benchmark: the TPC-H' aggregate workload, `reps`
/// interleaved repetitions per arm per query. Leaves the registry
/// enabled (its default) on return.
pub fn run_obs_bench(reps: usize) -> ObsBench {
    let reps = reps.max(1);
    let disabled_path_allocations = disabled_path_allocations();
    let engine = match Engine::new(crate::execbench::sweep_database()) {
        Ok(e) => e,
        Err(e) => {
            let rows = tpch_queries()
                .iter()
                .map(|q| QueryObsBench {
                    id: q.id,
                    disabled: TimingSummary::zero(),
                    enabled: TimingSummary::zero(),
                    overhead_pct: 0.0,
                    error: Some(format!("engine: {e}")),
                })
                .collect();
            return ObsBench {
                rows,
                reps,
                median_overhead_pct: 0.0,
                disabled_path_allocations,
                flight_retained: 0,
            };
        }
    };
    let rows: Vec<QueryObsBench> = tpch_queries()
        .into_iter()
        .map(|q| {
            let fail = |msg: String| QueryObsBench {
                id: q.id,
                disabled: TimingSummary::zero(),
                enabled: TimingSummary::zero(),
                overhead_pct: 0.0,
                error: Some(msg),
            };
            // Warm both arms once: first-touch costs (interning, cell
            // registration, plan caches) stay out of the timed reps.
            for on in [false, true] {
                metrics::set_enabled(on);
                if let Err(e) = engine.answer(q.text, 1) {
                    metrics::set_enabled(true);
                    return fail(format!("answer: {e}"));
                }
            }
            let mut off_us = Vec::with_capacity(reps);
            let mut on_us = Vec::with_capacity(reps);
            for _ in 0..reps {
                // Interleaved A/B: drift and thermal effects hit both
                // arms symmetrically.
                metrics::set_enabled(false);
                let t = Instant::now();
                if let Err(e) = engine.answer(q.text, 1) {
                    metrics::set_enabled(true);
                    return fail(format!("answer (disabled): {e}"));
                }
                off_us.push(t.elapsed().as_secs_f64() * 1e6);
                metrics::set_enabled(true);
                let t = Instant::now();
                if let Err(e) = engine.answer(q.text, 1) {
                    return fail(format!("answer (enabled): {e}"));
                }
                on_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let disabled = TimingSummary::from_samples(&off_us);
            let enabled = TimingSummary::from_samples(&on_us);
            let overhead_pct = if disabled.median_us > 0.0 {
                (enabled.median_us - disabled.median_us) / disabled.median_us * 100.0
            } else {
                0.0
            };
            QueryObsBench { id: q.id, disabled, enabled, overhead_pct, error: None }
        })
        .collect();
    metrics::set_enabled(true);
    let mut overheads: Vec<f64> =
        rows.iter().filter(|r| r.error.is_none()).map(|r| r.overhead_pct).collect();
    overheads.sort_by(|a, b| a.partial_cmp(b).expect("overheads are finite"));
    let median_overhead_pct =
        if overheads.is_empty() { 0.0 } else { overheads[overheads.len() / 2] };
    ObsBench {
        rows,
        reps,
        median_overhead_pct,
        disabled_path_allocations,
        flight_retained: aqks_obs::flight::global().retained(),
    }
}

/// Serializes the benchmark as the `BENCH_obs.json` document.
pub fn render_json(bench: &ObsBench) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"reps\": {},\n", bench.reps));
    s.push_str(&format!("  \"median_overhead_pct\": {:.2},\n", bench.median_overhead_pct));
    match bench.disabled_path_allocations {
        Some(n) => s.push_str(&format!("  \"disabled_path_allocations\": {n},\n")),
        None => s.push_str("  \"disabled_path_allocations\": null,\n"),
    }
    s.push_str(&format!("  \"flight_retained\": {},\n", bench.flight_retained));
    s.push_str("  \"queries\": [\n");
    for (i, r) in bench.rows.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"id\": \"{}\", ", r.id));
        match &r.error {
            Some(e) => s.push_str(&format!("\"error\": \"{}\"", aqks_obs::json::escape(e))),
            None => {
                s.push_str(&format!("\"disabled_us\": {:.1}, ", r.disabled.median_us));
                s.push_str(&format!("\"enabled_us\": {:.1}, ", r.enabled.median_us));
                s.push_str(&format!("\"overhead_pct\": {:.2}", r.overhead_pct));
            }
        }
        s.push_str(&format!("}}{}\n", if i + 1 < bench.rows.len() { "," } else { "" }));
    }
    s.push_str("  ]\n}\n");
    s
}
