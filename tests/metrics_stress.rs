//! Cross-thread counter-handoff stress test for the always-on metrics.
//!
//! The executor's determinism contract says the worker thread count is
//! invisible in every output — and the observability layer inherits it:
//! the per-operator `op:*` span totals (rows in/out) and the global
//! registry's per-operator row counters must be identical whether the
//! TPC-H' aggregate workload runs single-threaded or morsel-parallel
//! at 8 threads. The comparison is on row totals, which no merge order
//! can change.
//!
//! This also stresses the worker-exit counter handoff in
//! `aqks_sqlgen::par`: each worker merges its local task tally into the
//! shared registry exactly once, so totals must come out exact — not
//! approximately right — under real scheduling.

use std::collections::BTreeMap;

use aqks::core::Engine;
use aqks::datasets::{denormalize_tpch, generate_tpch, TpchConfig};
use aqks::obs::metrics::{self, MetricValue, Snapshot};
use aqks::obs::SpanNode;
use aqks_eval::tpch_queries;

/// Sums `rows_in`/`rows_out` over every `op:<Name>` span, keyed by
/// operator name, recursing through the grafted operator tree.
fn op_span_totals(node: &SpanNode, into: &mut SpanTotals) {
    if let Some(op) = node.name.strip_prefix("op:") {
        let e = into.entry(op.to_string()).or_default();
        e.0 += node.counter("rows_in").unwrap_or(0);
        e.1 += node.counter("rows_out").unwrap_or(0);
    }
    for c in &node.children {
        op_span_totals(c, into);
    }
}

/// Per-operator totals of the registry's `aqks_ops_rows` counter.
fn registry_op_rows(snap: &Snapshot) -> BTreeMap<String, u64> {
    snap.metrics
        .iter()
        .filter(|m| m.name == "aqks_ops_rows")
        .filter_map(|m| match (&m.label, &m.value) {
            (Some((_, op)), MetricValue::Counter(v)) => Some(((*op).to_string(), *v)),
            _ => None,
        })
        .collect()
}

/// `after - before`, dropping keys whose delta is zero.
fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .filter(|(_, d)| *d > 0)
        .collect()
}

/// Per-operator (rows_in, rows_out) totals from the span tree.
type SpanTotals = BTreeMap<String, (u64, u64)>;

/// One run of the workload at `threads` workers: the op-span row
/// totals, the registry row-counter deltas, and the parallel-pool
/// launch delta.
fn run_workload(engine: &mut Engine, threads: usize) -> (SpanTotals, BTreeMap<String, u64>, u64) {
    engine.set_threads(threads);
    let before = metrics::global().snapshot();
    let mut spans = BTreeMap::new();
    for q in tpch_queries() {
        let (answers, trace) =
            engine.answer_traced(q.text, 1).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        assert!(!answers.is_empty(), "{} answered", q.id);
        for root in &trace.roots {
            op_span_totals(root, &mut spans);
        }
    }
    let after = metrics::global().snapshot();
    let rows = delta(&registry_op_rows(&after), &registry_op_rows(&before));
    let pools = after.counter_total("aqks_par_pools") - before.counter_total("aqks_par_pools");
    (spans, rows, pools)
}

/// The whole comparison lives in one test function: the registry is
/// process-global, and a single test keeps the delta windows exact.
#[test]
fn op_totals_are_identical_at_1_and_8_threads() {
    metrics::set_enabled(true);
    // Sized past the executor's parallel threshold (4096 rows) so the
    // morsel-driven paths actually engage at 8 threads.
    let db = denormalize_tpch(&generate_tpch(&TpchConfig {
        seed: 42,
        parts: 120,
        suppliers: 80,
        customers: 60,
        orders: 6_000,
        parts_per_supplier: 40,
        max_orders_per_pair: 2,
    }));
    let mut engine = Engine::new(db).expect("engine builds");

    let (spans_1, rows_1, pools_1) = run_workload(&mut engine, 1);
    let (spans_8, rows_8, pools_8) = run_workload(&mut engine, 8);

    assert!(!spans_1.is_empty(), "workload produced operator spans");
    assert_eq!(spans_1, spans_8, "op:* span row totals diverge across thread counts");
    assert_eq!(rows_1, rows_8, "registry per-op row counters diverge across thread counts");
    // The comparison only means something if the 8-thread run actually
    // took the parallel path.
    assert_eq!(pools_1, 0, "threads=1 stays on the inline path");
    assert!(pools_8 > 0, "threads=8 launched no worker pool");
}
