//! Cross-thread-count determinism of the parallel executor.
//!
//! The columnar executor's contract is that the worker thread count is
//! invisible in every output: stabilized result tables, generated SQL,
//! and budget-exhaustion reports are byte-identical whether a plan runs
//! single-threaded or morsel-parallel. These tests pin that contract on
//! the bundled workloads, on randomized plans (fixed-seed, so every run
//! exercises the same cases), and on budget trips mid-parallel-work.

use std::time::Duration;

use aqks::core::{Budget, BudgetKind, Engine};
use aqks::datasets::{
    denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch, university, AcmdlConfig,
    TpchConfig,
};
use aqks::relational::Database;
use aqks::sqlgen::{execute, plan, run, ExecCtx};

#[path = "support/random.rs"]
mod random;
use random::{arb_db, arb_stmt, Rng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Renders every answer of one engine run to a single comparable string:
/// SQL text, stabilized result table, and executor stats summary.
fn rendered_answers(engine: &Engine, query: &str, k: usize) -> String {
    let answers = engine.answer(query, k).unwrap_or_else(|e| panic!("`{query}`: {e}"));
    let mut out = String::new();
    for a in &answers {
        out.push_str(&a.sql_text);
        out.push('\n');
        out.push_str(&format!("{}\n", a.result));
    }
    out
}

fn assert_workload_deterministic(db: Database, queries: &[&str], label: &str) {
    let mut engine = Engine::new(db).expect("engine builds");
    let mut baseline: Vec<String> = Vec::new();
    for &t in &THREAD_COUNTS {
        engine.set_threads(t);
        assert_eq!(engine.threads(), t);
        for (i, q) in queries.iter().enumerate() {
            let got = rendered_answers(&engine, q, 2);
            if t == 1 {
                baseline.push(got);
            } else {
                assert_eq!(
                    baseline[i], got,
                    "{label} `{q}` diverges at {t} thread(s) from single-threaded run"
                );
            }
        }
    }
}

/// Every bundled workload answers byte-identically at 1/2/4/8 threads:
/// the normalized university dataset, the normalized TPC-H and ACMDL
/// instances, and their denormalized primed variants.
#[test]
fn bundled_workloads_answer_identically_at_every_thread_count() {
    assert_workload_deterministic(
        university::normalized(),
        &["Green SUM Credit", "COUNT Student GROUPBY Course", "Engineering COUNT Department"],
        "university",
    );
    let tpch_queries: Vec<&str> = aqks_eval::tpch_queries().iter().map(|q| q.text).collect();
    let tpch = generate_tpch(&TpchConfig::small());
    assert_workload_deterministic(tpch.clone(), &tpch_queries, "tpch");
    assert_workload_deterministic(denormalize_tpch(&tpch), &tpch_queries, "tpch-prime");
    let acmdl_queries: Vec<&str> = aqks_eval::acmdl_queries().iter().map(|q| q.text).collect();
    let acmdl = generate_acmdl(&AcmdlConfig::small());
    assert_workload_deterministic(acmdl.clone(), &acmdl_queries, "acmdl");
    assert_workload_deterministic(denormalize_acmdl(&acmdl), &acmdl_queries, "acmdl-prime");
}

/// 200 fixed-seed rounds of random join/filter/aggregate statements:
/// the multi-threaded executor returns exactly the single-threaded
/// table, row for row and value for value.
#[test]
fn random_plans_execute_identically_sequential_and_parallel() {
    let mut rng = Rng(0xA96C_2026);
    for round in 0..200 {
        let big = round % 20 == 19;
        let db = arb_db(&mut rng, big);
        let stmt = arb_stmt(&mut rng);
        let sequential = execute(&stmt, &db).expect("sequential run");
        for threads in [2, 8] {
            let (parallel, stats) =
                run(&plan(&stmt, &db).expect("plans"), &db, &ExecCtx::with_threads(threads))
                    .expect("parallel run");
            assert_eq!(
                sequential, parallel,
                "round {round} (big={big}) diverges at {threads} thread(s)"
            );
            if big {
                assert!(
                    stats.max_threads() > 1,
                    "round {round}: large input never took a parallel path"
                );
            }
        }
    }
}

/// A budget that trips while parallel workers are active degrades
/// exactly like the sequential engine: `answer_governed` returns a
/// structured exhaustion report (never a panic), scoped workers are
/// joined before the call returns, and the engine stays usable.
#[test]
fn parallel_budget_trip_returns_structured_exhaustion() {
    let db = denormalize_tpch(&generate_tpch(&TpchConfig::small()));
    let mut engine = Engine::new(db).expect("engine builds");
    engine.set_threads(4);

    // Pre-expired deadline: workers observe the shared governor at the
    // first checkpoint and cancel mid-morsel.
    let g = engine
        .answer_governed("order AVG amount", 1, &Budget::unlimited().with_timeout(Duration::ZERO))
        .expect("governed answer");
    let ex = g.exhaustion.expect("expired deadline trips");
    assert_eq!(ex.kind, BudgetKind::Deadline);

    // Row cap: charges happen on the plan's thread regardless of worker
    // count, so the trip site and kind match the sequential engine.
    let g = engine
        .answer_governed("order AVG amount", 1, &Budget::unlimited().with_max_rows(1))
        .expect("governed answer");
    let ex = g.exhaustion.expect("row cap trips");
    assert_eq!(ex.kind, BudgetKind::Rows);

    // The engine is not poisoned: the same query then answers in full.
    let answers = engine.answer("order AVG amount", 1).expect("ungoverned answer");
    assert!(!answers.is_empty());
}
