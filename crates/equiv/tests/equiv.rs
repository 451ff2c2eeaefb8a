//! End-to-end equivalence tests: canonicalization identifies plans the
//! structural fingerprint tells apart (pushdown on/off, commuted join
//! inputs), keeps corrupted plans apart, rejects unsound rewrites with
//! a typed certificate error, and shared execution returns exactly the
//! per-plan results while moving fewer rows.

use aqks_core::Engine;
use aqks_datasets::university;
use aqks_equiv::{analyze, canonicalize, certify_rewrite, run_shared, shared_set, EquivError};
use aqks_plancheck::{fingerprint, mutate};
use aqks_relational::Database;
use aqks_sqlgen::{
    plan, plan_with_options, render_plan, run, ExecCtx, PlanNode, PlanOp, PlanOptions,
    SelectStatement,
};

const QUERIES: &[&str] = &[
    "Green SUM Credit",
    "Green George COUNT Code",
    "Java SUM Price",
    "Engineering COUNT Department",
    "AVG COUNT Lecturer GROUPBY Course",
];

/// Plans every interpretation the engine generates for `queries`.
fn engine_plans(db: &Database, queries: &[&str]) -> Vec<(SelectStatement, PlanNode)> {
    let engine = Engine::new(db.clone()).expect("engine builds");
    let mut out = Vec::new();
    for q in queries {
        for g in engine.generate(q, 3).expect("interpretations generated") {
            let p = plan(&g.sql, db).expect("statement plans");
            out.push((g.sql, p));
        }
    }
    assert!(!out.is_empty(), "query set produced no plans");
    out
}

#[test]
fn canonical_plan_executes_to_the_same_result() {
    let db = university::normalized();
    for (_, p) in engine_plans(&db, QUERIES) {
        let canon = canonicalize(&p, &db)
            .unwrap_or_else(|e| panic!("canonicalize failed: {e}\n{}", render_plan(&p)));
        assert_eq!(
            canon.perm,
            (0..p.cols.len()).collect::<Vec<_>>(),
            "statement-level plan permuted its output"
        );
        let (a, _) = run(&p, &db, &ExecCtx::default()).expect("original executes");
        let (b, _) = run(&canon.plan, &db, &ExecCtx::default()).expect("canonical executes");
        assert_eq!(
            a.clone().sorted().rows,
            b.clone().sorted().rows,
            "canonicalization changed results:\noriginal:\n{}\ncanonical:\n{}",
            render_plan(&p),
            render_plan(&canon.plan)
        );
    }
}

#[test]
fn pushdown_on_and_off_converge_to_one_canonical_form() {
    let db = university::normalized();
    let engine = Engine::new(db.clone()).expect("engine builds");
    let mut converged = 0usize;
    for q in QUERIES {
        for g in engine.generate(q, 3).expect("generates") {
            let on = plan(&g.sql, &db).expect("plans");
            let off = plan_with_options(&g.sql, &db, &PlanOptions { pushdown: false })
                .expect("plans unpushed");
            let con = canonicalize(&on, &db).expect("canonicalizes pushed");
            let coff = canonicalize(&off, &db).expect("canonicalizes unpushed");
            assert_eq!(
                con.fingerprint,
                coff.fingerprint,
                "pushdown on/off did not converge for {q}:\non:\n{}\noff:\n{}\ncanonical on:\n{}\ncanonical off:\n{}",
                render_plan(&on),
                render_plan(&off),
                render_plan(&con.plan),
                render_plan(&coff.plan)
            );
            if fingerprint(&on) != fingerprint(&off) {
                converged += 1; // structurally different, semantically unified
            }
        }
    }
    assert!(converged >= 3, "too few structurally-distinct pairs unified ({converged})");
}

#[test]
fn benign_input_swap_shares_a_class_but_key_swap_does_not() {
    let db = university::normalized();
    let mut swapped = 0usize;
    for (_, p) in engine_plans(&db, QUERIES) {
        let base = canonicalize(&p, &db).expect("canonicalizes").fingerprint;
        if let Some(good) = mutate::apply(&p, mutate::Mutation::SwapJoinInputs) {
            swapped += 1;
            let c = canonicalize(&good, &db).expect("sound swap canonicalizes");
            assert_eq!(c.fingerprint, base, "commuted join inputs left the equivalence class");
        }
        if let Some(bad) = mutate::apply(&p, mutate::Mutation::SwapJoinKeys) {
            // A key swap relates different columns: canonicalization
            // either refuses the broken plan or lands in another class.
            match canonicalize(&bad, &db) {
                Err(_) => {}
                Ok(c) => assert_ne!(
                    c.fingerprint, base,
                    "swapped join keys identified with the original"
                ),
            }
        }
    }
    assert!(swapped >= 3, "too few joins exercised ({swapped})");
}

#[test]
fn unsound_rewrite_is_rejected_with_a_typed_certificate_error() {
    let db = university::normalized();
    let (_, p) = engine_plans(&db, &["Green George COUNT Code"])
        .into_iter()
        .find(|(_, p)| {
            let mut joins = 0;
            p.visit(&mut |n| {
                if matches!(n.op, PlanOp::HashJoin { .. }) {
                    joins += 1;
                }
            });
            joins > 0
        })
        .expect("a join plan exists");
    // A correct input swap paired with a *wrong* (identity) permutation
    // claims nothing moved — the certificate must catch the provenance
    // mismatch with a typed error. Certify at the join node itself: at
    // the statement root the swap really is identity-sound.
    fn find_join(node: &PlanNode) -> Option<&PlanNode> {
        if matches!(node.op, PlanOp::HashJoin { .. }) {
            return Some(node);
        }
        node.children.iter().find_map(find_join)
    }
    let join = find_join(&p).expect("plan has a join");
    let swapped = mutate::apply(join, mutate::Mutation::SwapJoinInputs).expect("join to swap");
    let identity: Vec<usize> = (0..join.cols.len()).collect();
    let err = certify_rewrite("bogus-swap", join, &swapped, &identity, &db)
        .expect_err("unsound rewrite accepted");
    match err {
        EquivError::Certificate { rule, .. } => assert_eq!(rule, "bogus-swap"),
        other => panic!("expected a certificate rejection, got: {other}"),
    }
    // Re-pointing a join key at a neighboring column corrupts the key
    // functional dependencies the certificate tracks.
    if join.children[1].cols.len() > 1 {
        let keyswap = mutate::apply(join, mutate::Mutation::SwapJoinKeys).expect("keys to swap");
        assert!(
            certify_rewrite("swap-keys", join, &keyswap, &identity, &db).is_err(),
            "re-pointed join key passed certification"
        );
    }
}

#[test]
fn shared_execution_matches_per_plan_results_and_saves_rows() {
    let db = university::normalized();
    // Plan every interpretation both with and without pushdown: the
    // pairs converge to one class each, so deduplication is guaranteed
    // to have work to do (mirroring a cache fed by mixed plan sources).
    let engine = Engine::new(db.clone()).expect("engine builds");
    let mut plans: Vec<PlanNode> = Vec::new();
    for q in QUERIES {
        for g in engine.generate(q, 3).expect("generates") {
            plans.push(plan(&g.sql, &db).expect("plans"));
            plans.push(
                plan_with_options(&g.sql, &db, &PlanOptions { pushdown: false })
                    .expect("plans unpushed"),
            );
        }
    }
    let analysis = analyze(&plans, &db).expect("analysis succeeds");
    assert_eq!(analysis.canonical.len(), plans.len());
    assert!(analysis.nontrivial_classes() >= 1, "no nontrivial class in mixed plan set");
    assert!(analysis.duplicates() >= 1, "no duplicates found in mixed plan set");
    let set = shared_set(&analysis);
    assert_eq!(set.plans.len(), analysis.classes.len());
    let run = run_shared(&set, &db).expect("shared set executes");

    // Every class member's individual execution matches the shared run
    // of its representative.
    let mut baseline_rows = 0u64;
    for (ci, class) in analysis.classes.iter().enumerate() {
        for &m in &class.members {
            let (t, stats) =
                aqks_sqlgen::run(&plans[m], &db, &ExecCtx::default()).expect("member executes");
            baseline_rows += stats.rows_flowed();
            assert_eq!(
                t.sorted().rows,
                run.tables[ci].clone().sorted().rows,
                "shared execution changed results for class {ci} member {m}"
            );
        }
    }
    let shared_rows: u64 =
        run.plan_stats.iter().chain(run.share_stats.iter()).map(|s| s.rows_flowed()).sum();
    assert!(
        shared_rows < baseline_rows,
        "shared execution moved no fewer rows ({shared_rows} vs {baseline_rows})"
    );
}
