#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # aqks-sqlgen
//!
//! The SQL subset shared by the semantic engine and the SQAK baseline:
//!
//! * [`ast`] — a `SELECT` statement AST covering exactly the shapes the
//!   paper's translation step emits (conjunctive equi-joins, `contains`
//!   predicates, GROUP BY, the five aggregate functions, DISTINCT, derived
//!   tables in FROM, and nested aggregate queries);
//! * [`render()`] — pretty-printing in the paper's listing style;
//! * [`plan()`] — a planner lowering statements into a physical operator
//!   tree (scans with predicate pushdown, cardinality-aware hash/cross
//!   joins, aggregation, sort/limit) with an EXPLAIN pretty-printer;
//! * [`ops`] — a Volcano-style batch executor over the plan, recording
//!   per-operator rows and wall time into [`ops::ExecStats`]: [`run()`]
//!   returns a plan's result table and [`materialize()`] its raw batches,
//!   both under an [`ExecCtx`] (thread count and shared subtrees);
//! * [`exec`] — the stable `execute(stmt, db)` facade over plan + run,
//!   standing in for the RDBMS the paper ran on.
//!
//! The executor exists because the paper's experiments report *answers*,
//! not just SQL text: Tables 5/6/8/9 compare the numbers both systems
//! return. Execution semantics follow SQL: aggregates skip NULLs, `AVG`
//! is always a float, `contains` is case-insensitive substring match.

pub mod ast;
pub mod batch;
pub mod exec;
pub mod ops;
mod par;
pub mod plan;
pub mod render;
pub mod result;

pub use ast::{AggFunc, ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};
pub use batch::{Bitmap, Column, ColumnBatch, ColumnData};
pub use exec::{execute, ExecError};
pub use ops::{materialize, run, ExecCtx, ExecStats, OpMetrics, SharedRows};
pub use plan::{
    plan, plan_with_options, render_plan, render_plan_with_stats, PhysAggItem, PhysPred, PlanNode,
    PlanOp, PlanOptions,
};
pub use render::{render, render_spanned, SpanKind, SqlSpan};
pub use result::ResultTable;
