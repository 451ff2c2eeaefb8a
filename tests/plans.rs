//! Integration tests of the planner/executor pipeline over the full
//! evaluation workloads: predicate pushdown must be a pure optimization
//! (identical answers with it on or off), and `run` must agree with
//! the `execute` facade on every statement both engines generate.

use aqks_core::Engine;
use aqks_eval::{acmdl_queries, tpch_queries, EvalQuery};
use aqks_relational::Database;
use aqks_sqlgen::{
    execute, plan_with_options, run, ExecCtx, PlanNode, PlanOp, PlanOptions, SelectStatement,
};

fn tpch_prime() -> Database {
    aqks_datasets::denormalize_tpch(&aqks_datasets::generate_tpch(
        &aqks_datasets::TpchConfig::small(),
    ))
}

fn count_op(plan: &PlanNode, pred: impl Fn(&PlanOp) -> bool) -> usize {
    let mut n = 0;
    plan.visit(&mut |node| {
        if pred(&node.op) {
            n += 1;
        }
    });
    n
}

/// Every statement the engine generates for the workload, paired with
/// the database it runs on.
fn generated(db: Database, queries: &[EvalQuery], k: usize) -> (Database, Vec<SelectStatement>) {
    let engine = Engine::new(db.clone()).expect("engine builds");
    let mut stmts = Vec::new();
    for q in queries {
        // Some workload queries may legitimately have < k interpretations.
        if let Ok(gen) = engine.generate(q.text, k) {
            stmts.extend(gen.into_iter().map(|g| g.sql));
        }
    }
    assert!(stmts.len() >= queries.len(), "workload produced {} statements", stmts.len());
    (db, stmts)
}

/// Pushdown equivalence on unnormalized TPC-H′: for every generated
/// statement, planning with scan-time predicate evaluation and planning
/// with a post-join Filter return identical sorted answers — and at
/// least one statement actually exercises a pushed scan.
#[test]
fn pushdown_is_equivalent_on_tpch_prime_workload() {
    let (db, stmts) = generated(tpch_prime(), &tpch_queries(), 3);
    let mut pushed_scans = 0;
    for stmt in &stmts {
        let on = plan_with_options(stmt, &db, &PlanOptions { pushdown: true }).unwrap();
        let off = plan_with_options(stmt, &db, &PlanOptions { pushdown: false }).unwrap();
        pushed_scans +=
            count_op(&on, |op| matches!(op, PlanOp::Scan { pushed, .. } if !pushed.is_empty()));
        assert_eq!(
            count_op(&off, |op| matches!(op, PlanOp::Scan { pushed, .. } if !pushed.is_empty())),
            0,
            "pushdown=false must not push predicates into scans:\n{stmt}"
        );
        let (a, _) = run(&on, &db, &ExecCtx::default()).unwrap();
        let (b, _) = run(&off, &db, &ExecCtx::default()).unwrap();
        assert_eq!(a, b, "pushdown changed the answer of:\n{stmt}");
    }
    assert!(pushed_scans > 0, "no workload statement exercised a pushed scan");
}

/// The plan pipeline agrees with the `execute` facade on both normalized
/// workloads (TPC-H T1–T8 and ACMDL A1–A8, top-3 interpretations each).
#[test]
fn run_plan_matches_execute_on_normalized_workloads() {
    for (db, queries) in [
        (aqks_datasets::generate_tpch(&aqks_datasets::TpchConfig::small()), tpch_queries()),
        (aqks_datasets::generate_acmdl(&aqks_datasets::AcmdlConfig::small()), acmdl_queries()),
    ] {
        let (db, stmts) = generated(db, &queries, 3);
        for stmt in &stmts {
            let via_facade = execute(stmt, &db).unwrap();
            let plan = plan_with_options(stmt, &db, &PlanOptions::default()).unwrap();
            let (via_plan, stats) = run(&plan, &db, &ExecCtx::default()).unwrap();
            assert_eq!(via_facade, via_plan, "{stmt}");
            assert_eq!(stats.ops.len(), plan.max_id() + 1);
        }
    }
}

/// Cross products, when unavoidable, start from the smallest source: no
/// workload statement plans a CrossJoin whose left subtree is estimated
/// larger than another available source (regression for the old
/// `pick.unwrap_or(0)` fallback is in `sqlgen::plan::tests`; this checks
/// the invariant holds over real generated SQL too).
#[test]
fn workload_plans_prefer_hash_joins() {
    let (db, stmts) = generated(tpch_prime(), &tpch_queries(), 3);
    let mut hash = 0;
    let mut cross = 0;
    for stmt in &stmts {
        let plan = plan_with_options(stmt, &db, &PlanOptions::default()).unwrap();
        hash += count_op(&plan, |op| matches!(op, PlanOp::HashJoin { .. }));
        cross += count_op(&plan, |op| matches!(op, PlanOp::CrossJoin));
    }
    assert!(hash > 0, "workload contains equi-joins");
    assert_eq!(cross, 0, "connected join graphs must never fall back to cross products");
}
