//! One traced answer. The benchmark times the public call
//! `Engine::answer_traced` with its own clock; that wall time is the
//! root span. Below it sit the phase spans the engine's recorder
//! returns in the call's `PipelineTrace` (parse, match, pattern,
//! annotate, rank, translate, analyze, and plan/plancheck/exec per
//! interpretation), renamed to the layers of the per-layer metrics.
//! Below each `exec` span sit the executor's per-operator `OpMetrics`
//! of that interpretation, shaped by its physical plan. The program
//! gets no tracing of its own for the benchmark.

use std::collections::BTreeMap;
use std::time::Instant;

use aqks_core::{Engine, Interpretation};
use aqks_obs::{PipelineTrace, SpanNode};
use aqks_relational::Database;
use aqks_sqlgen::{plan, ExecStats, PlanNode, PlanOp};

use crate::spans::Span;

/// Operator kinds, named as in the per-layer metrics.
pub const OP_KINDS: [&str; 10] = [
    "Scan",
    "Filter",
    "HashJoin",
    "CrossJoin",
    "HashAggregate",
    "Project",
    "Distinct",
    "Sort",
    "Limit",
    "Derived",
];

/// The metric name of a plan node's operator kind.
pub fn op_kind(op: &PlanOp) -> &'static str {
    match op {
        PlanOp::Scan { .. } => "Scan",
        PlanOp::DerivedTable { .. } => "Derived",
        PlanOp::HashJoin { .. } => "HashJoin",
        PlanOp::CrossJoin => "CrossJoin",
        PlanOp::Filter { .. } => "Filter",
        PlanOp::HashAggregate { .. } => "HashAggregate",
        PlanOp::Project { .. } => "Project",
        PlanOp::Distinct => "Distinct",
        PlanOp::Sort { .. } => "Sort",
        PlanOp::Limit { .. } => "Limit",
    }
}

/// The layer a phase span of the engine's trace belongs to.
fn layer(phase: &str) -> String {
    match phase {
        "parse" | "match" | "pattern" | "annotate" | "rank" | "translate" => {
            format!("core.{phase}")
        }
        "analyze" => "analyze.check".into(),
        "plan" | "plancheck" | "exec" => format!("sqlgen.{phase}"),
        other => format!("engine.{other}"),
    }
}

/// Counts returned at the layer boundaries of one traced answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Term matches over all basic terms.
    pub matches: u64,
    /// Generated query patterns.
    pub patterns: u64,
    /// Translated (and executed) interpretations.
    pub interpretations: u64,
    /// Result rows over all interpretations.
    pub result_rows: u64,
}

/// Per-operator-kind totals of one traced answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpTotals {
    /// Rows received from all inputs.
    pub rows_in: u64,
    /// Largest per-operator peak bytes.
    pub peak_bytes: u64,
    /// Operator self time spent in operators that ran a parallel section.
    pub parallel_self_ns: u64,
}

/// Everything one traced answer produced.
pub struct Traced {
    /// The interpretations, as `Engine::answer` returns them.
    pub answers: Vec<Interpretation>,
    /// The `answer` root span: the benchmark's wall time of the call.
    pub root: Span,
    /// Layer-boundary counts.
    pub counts: Counts,
    /// Per operator kind.
    pub ops: BTreeMap<&'static str, OpTotals>,
}

/// Answers `text` with the top `k` interpretations through
/// `Engine::answer_traced` and builds the span tree of the call.
pub fn answer(engine: &Engine, text: &str, k: usize) -> Result<Traced, String> {
    let t0 = Instant::now();
    let (answers, trace) = engine.answer_traced(text, k).map_err(|e| e.to_string())?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut ops = BTreeMap::new();
    let children = phase_spans(&trace, &answers, engine.database(), &mut ops)?;
    let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
    let counts = Counts {
        matches: counter("matches.total"),
        patterns: counter("patterns.generated"),
        interpretations: answers.len() as u64,
        result_rows: answers.iter().map(|a| a.result.row_count() as u64).sum(),
    };
    let root = Span { name: "answer".into(), total_ns: wall_ns, children };
    Ok(Traced { answers, root, counts, ops })
}

/// The phase spans under the engine's `answer` root, with the `n`-th
/// `exec` span's children replaced by the operator spans of the `n`-th
/// interpretation (the executor's own `par:` spans overlap them).
fn phase_spans(
    trace: &PipelineTrace,
    answers: &[Interpretation],
    db: &Database,
    ops: &mut BTreeMap<&'static str, OpTotals>,
) -> Result<Vec<Span>, String> {
    let root = match trace.roots.as_slice() {
        [r] if r.name == "answer" => r,
        _ => return Err("the trace has no single `answer` root".into()),
    };
    let mut execs = answers.iter();
    let mut out = Vec::with_capacity(root.children.len());
    for phase in &root.children {
        let mut span = engine_span(phase);
        if phase.name == "exec" {
            let a = execs.next().ok_or("more `exec` spans than interpretations")?;
            // Planning is deterministic: re-planning the statement (off
            // the clock) gives the tree the metrics are indexed by.
            let p = plan(&a.sql, db).map_err(|e| e.to_string())?;
            if count_nodes(&p) != a.stats.ops.len() {
                return Err("operator metrics do not match the statement's plan".into());
            }
            span.children = vec![op_span(&p, &a.stats, db, ops)];
        }
        out.push(span);
    }
    if execs.next().is_some() {
        return Err("an interpretation without an `exec` span".into());
    }
    Ok(out)
}

/// An engine span and its descendants, renamed to layers.
fn engine_span(node: &SpanNode) -> Span {
    Span {
        name: layer(&node.name),
        total_ns: node.total_ns,
        children: node.children.iter().map(engine_span).collect(),
    }
}

fn count_nodes(node: &PlanNode) -> usize {
    1 + node.children.iter().map(count_nodes).sum::<usize>()
}

/// The span of operator `node` (inclusive wall time from its
/// `OpMetrics`) with its inputs as children; folds the node's counts
/// into `ops`. A scan has no input operator: its input rows are the
/// tuples of the relation it reads.
fn op_span(
    node: &PlanNode,
    stats: &ExecStats,
    db: &Database,
    ops: &mut BTreeMap<&'static str, OpTotals>,
) -> Span {
    let m = &stats.ops[node.id];
    let kind = op_kind(&node.op);
    let span = Span {
        name: format!("sqlgen.op.{kind}"),
        total_ns: m.wall.as_nanos() as u64,
        children: node.children.iter().map(|c| op_span(c, stats, db, ops)).collect(),
    };
    let rows_in = match &node.op {
        PlanOp::Scan { relation, .. } => db.table(relation).map_or(0, |t| t.len() as u64),
        _ => m.rows_in,
    };
    let t = ops.entry(kind).or_default();
    t.rows_in += rows_in;
    t.peak_bytes = t.peak_bytes.max(m.peak_bytes);
    if m.threads > 1 {
        t.parallel_self_ns += span.self_ns().max(0) as u64;
    }
    span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_phases_map_to_layers() {
        assert_eq!(layer("match"), "core.match");
        assert_eq!(layer("translate"), "core.translate");
        assert_eq!(layer("analyze"), "analyze.check");
        assert_eq!(layer("exec"), "sqlgen.exec");
        assert_eq!(layer("guard"), "engine.guard");
    }

    #[test]
    fn a_traced_answer_nests_operators_under_exec() {
        let db = aqks_datasets::university::normalized();
        let engine = Engine::new(db).unwrap();
        let t = answer(&engine, "Green SUM Credit", 1).unwrap();
        assert_eq!(t.answers.len(), 1);
        assert_eq!(t.counts.interpretations, 1);
        assert!(t.counts.matches >= 1 && t.counts.patterns >= 1);
        let names: Vec<&str> = t.root.children.iter().map(|s| s.name.as_str()).collect();
        for l in ["core.parse", "core.match", "core.translate", "analyze.check", "sqlgen.exec"] {
            assert!(names.contains(&l), "{l} missing from {names:?}");
        }
        let exec = t.root.children.iter().find(|s| s.name == "sqlgen.exec").unwrap();
        assert_eq!(exec.children.len(), 1);
        assert!(exec.children[0].name.starts_with("sqlgen.op."));
        assert!(t.ops.contains_key("Scan"));
        assert!(t.root.self_ns() >= 0);
    }
}
