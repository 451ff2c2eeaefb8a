//! End-to-end verifier tests: planner-produced plans verify clean (and
//! execute), seeded mutations are rejected with the right diagnostic
//! kind, and fingerprints behave like cache keys.

use aqks_core::Engine;
use aqks_datasets::university;
use aqks_plancheck::{fingerprint, mutate, render_verified, verify, PlanErrorKind};
use aqks_relational::{AttrType, Database, RelationSchema, Value};
use aqks_sqlgen::ast::{AggFunc, ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};
use aqks_sqlgen::{plan, render_plan, run, ExecCtx, PlanNode};

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

const UNIVERSITY_QUERIES: &[&str] = &[
    "Green SUM Credit",
    "Green George COUNT Code",
    "Java SUM Price",
    "Engineering COUNT Department",
    "AVG COUNT Lecturer GROUPBY Course",
    "Green Green COUNT Code",
];

#[test]
fn planner_produced_plans_verify_clean_and_execute() {
    let db = university::normalized();
    for (stmt, p) in engine_plans(&db, UNIVERSITY_QUERIES) {
        let verified = verify(&p, &db, Some(&stmt))
            .unwrap_or_else(|e| panic!("clean plan rejected: {e}\n{}", render_plan(&p)));
        run(&p, &db, &ExecCtx::default()).expect("verified plan executes");
        // The annotated rendering surfaces properties for every node.
        let text = render_verified(&p, &verified);
        assert!(text.contains("rows<="), "no row bounds in:\n{text}");
    }
}

#[test]
fn root_properties_reflect_the_statement() {
    let db = university::normalized();
    // Global aggregate: single row, trivially unique.
    let (_, p) = engine_plans(&db, &["Green SUM Credit"]).remove(0);
    let verified = verify(&p, &db, None).expect("verifies");
    let root = verified.root(&p);
    assert!(root.unique);
    assert!(root.max_rows >= 1);
    // A base scan keeps its primary key and full row bound.
    let scan = plan(
        &select(vec![col("S", "Sid"), col("S", "Sname")], vec![rel("Student", "S")], vec![]),
        &db,
    )
    .expect("plans");
    let v = verify(&scan, &db, None).expect("verifies");
    let leaf = v.props(find_scan_id(&scan)).expect("scan props");
    assert!(leaf.unique, "base relation with a PK is row-unique");
    assert_eq!(leaf.key(), Some(vec![0]), "Sid alone is the key");
    assert_eq!(leaf.max_rows, db.table("Student").unwrap().len());
}

fn find_scan_id(p: &PlanNode) -> usize {
    if p.children.is_empty() {
        p.id
    } else {
        find_scan_id(&p.children[0])
    }
}

#[test]
fn every_seeded_mutation_is_rejected_with_a_typed_diagnostic() {
    let db = university::normalized();
    let mut applied = 0usize;
    for (stmt, p) in engine_plans(&db, UNIVERSITY_QUERIES) {
        for (m, bad) in mutate::all(&p) {
            applied += 1;
            let Err(err) = verify(&bad, &db, Some(&stmt)) else {
                panic!("{m:?} accepted on:\n{}", render_plan(&p));
            };
            let allowed: &[PlanErrorKind] = match m {
                mutate::Mutation::SwapJoinKeys => &[
                    PlanErrorKind::JoinProvenance,
                    PlanErrorKind::JoinKeyType,
                    PlanErrorKind::UnresolvedColumn,
                ],
                mutate::Mutation::DropDistinct => &[PlanErrorKind::LostDistinct],
                mutate::Mutation::FlipBuildSide => &[PlanErrorKind::BuildSide],
                mutate::Mutation::StaleColumnIndex => &[PlanErrorKind::UnresolvedColumn],
                mutate::Mutation::SwapJoinInputs => {
                    panic!("benign mutation yielded by mutate::all()")
                }
            };
            assert!(
                allowed.contains(&err.kind),
                "{m:?} rejected as {:?} (wanted one of {allowed:?}): {err}",
                err.kind
            );
        }
    }
    assert!(applied >= 8, "mutation corpus too small ({applied} applications)");
}

#[test]
fn benign_input_swap_verifies_clean_but_moves_the_fingerprint() {
    let db = university::normalized();
    let mut swapped = 0usize;
    for (stmt, p) in engine_plans(&db, UNIVERSITY_QUERIES) {
        let Some(good) = mutate::apply(&p, mutate::Mutation::SwapJoinInputs) else {
            continue; // no hash join in this plan
        };
        swapped += 1;
        verify(&good, &db, Some(&stmt)).unwrap_or_else(|e| {
            panic!(
                "sound input swap rejected: {e}\noriginal:\n{}\nswapped:\n{}",
                render_plan(&p),
                render_plan(&good)
            )
        });
        // The swap is structural, so the *structural* fingerprint moves;
        // only the canonical fingerprint (aqks-equiv) identifies them.
        assert_ne!(fingerprint(&p), fingerprint(&good), "input swap left fingerprint unchanged");
        // Same rows out: the swap must not change results.
        let (a, _) = run(&p, &db, &ExecCtx::default()).expect("original executes");
        let (b, _) = run(&good, &db, &ExecCtx::default()).expect("mutant executes");
        assert_eq!(a.sorted().rows, b.sorted().rows, "rows changed by input swap");
    }
    assert!(swapped >= 3, "too few joins exercised ({swapped})");
}

#[test]
fn dropped_distinct_is_caught_against_the_statement() {
    let db = university::normalized();
    let mut stmt = select(vec![col("E", "Grade")], vec![rel("Enrol", "E")], vec![]);
    stmt.distinct = true;
    let p = plan(&stmt, &db).expect("plans");
    verify(&p, &db, Some(&stmt)).expect("distinct plan verifies");
    let (m, bad) = mutate::all(&p)
        .into_iter()
        .find(|(m, _)| *m == mutate::Mutation::DropDistinct)
        .expect("plan has a Distinct to drop");
    let err = verify(&bad, &db, Some(&stmt)).expect_err("dropped Distinct accepted");
    assert_eq!(err.kind, PlanErrorKind::LostDistinct, "{m:?}: {err}");
}

#[test]
fn duplicate_sensitive_aggregate_over_redundant_fd_is_rejected() {
    // R(a, b, c) with PK a and the declared (non-key) FD b -> c: rows
    // duplicated along b -> c inflate SUM(c) when grouped by b.
    let mut db = Database::new("redundant");
    let mut r = RelationSchema::new("R");
    r.add_attr("A", AttrType::Int).add_attr("B", AttrType::Text).add_attr("C", AttrType::Int);
    r.set_primary_key(["A"]);
    r.add_fd(["B"], ["C"]);
    db.add_relation(r).unwrap();
    for (a, b, c) in [(1, "x", 10), (2, "x", 10), (3, "y", 20)] {
        db.insert("R", vec![Value::Int(a), Value::str(b), Value::Int(c)]).unwrap();
    }
    let stmt = select(
        vec![
            col("R", "B"),
            SelectItem::Aggregate {
                func: AggFunc::Sum,
                arg: ColumnRef::new("R", "C"),
                distinct: false,
                alias: "sumc".into(),
            },
        ],
        vec![rel("R", "R")],
        vec![],
    );
    let mut stmt = stmt;
    stmt.group_by = vec![ColumnRef::new("R", "B")];
    let p = plan(&stmt, &db).expect("plans");
    let err = verify(&p, &db, Some(&stmt)).expect_err("redundant aggregate accepted");
    assert_eq!(err.kind, PlanErrorKind::DuplicateRisk, "{err}");
}

#[test]
fn contains_matched_group_key_that_merges_entities_is_rejected() {
    let db = university::normalized();
    // GROUP BY the contains-matched Sname: the two Greens merge, whatever
    // is computed per group (MAX is not duplicate-sensitive, yet still
    // reports one answer for two students).
    for func in [AggFunc::Count, AggFunc::Max] {
        let mut stmt = select(
            vec![
                col("S", "Sname"),
                SelectItem::Aggregate {
                    func,
                    arg: ColumnRef::new("E", "Code"),
                    distinct: false,
                    alias: "numcode".into(),
                },
            ],
            vec![rel("Student", "S"), rel("Enrol", "E")],
            vec![
                Predicate::JoinEq(ColumnRef::new("S", "Sid"), ColumnRef::new("E", "Sid")),
                Predicate::Contains(ColumnRef::new("S", "Sname"), "green".into()),
            ],
        );
        stmt.group_by = vec![ColumnRef::new("S", "Sname")];
        let p = plan(&stmt, &db).expect("plans");
        let err = verify(&p, &db, Some(&stmt)).expect_err("merged groups accepted");
        assert_eq!(err.kind, PlanErrorKind::MergedGroups, "{func:?}: {err}");
    }
    // Grouping by the key instead is clean.
    let mut keyed = select(
        vec![
            col("S", "Sid"),
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: ColumnRef::new("E", "Code"),
                distinct: false,
                alias: "numcode".into(),
            },
        ],
        vec![rel("Student", "S"), rel("Enrol", "E")],
        vec![
            Predicate::JoinEq(ColumnRef::new("S", "Sid"), ColumnRef::new("E", "Sid")),
            Predicate::Contains(ColumnRef::new("S", "Sname"), "green".into()),
        ],
    );
    keyed.group_by = vec![ColumnRef::new("S", "Sid")];
    let p = plan(&keyed, &db).expect("plans");
    verify(&p, &db, Some(&keyed)).expect("keyed grouping verifies");
}

#[test]
fn fingerprints_are_deterministic_and_mutation_sensitive() {
    let db = university::normalized();
    let mut roots = Vec::new();
    for (stmt, p) in engine_plans(&db, UNIVERSITY_QUERIES) {
        let again = plan(&stmt, &db).expect("plans again");
        assert_eq!(
            fingerprint(&p),
            fingerprint(&again),
            "fingerprint unstable across plan() calls for:\n{}",
            render_plan(&p)
        );
        for (m, bad) in mutate::all(&p) {
            assert_ne!(fingerprint(&p), fingerprint(&bad), "{m:?} left the fingerprint unchanged");
        }
        roots.push(fingerprint(&p));
    }
    // Distinct interpretations hash apart (collision check).
    let mut sorted = roots.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), roots.len(), "fingerprint collision across interpretations");
}

// ---------------------------------------------------------------------------
// Small AST builders
// ---------------------------------------------------------------------------

fn select(
    items: Vec<SelectItem>,
    from: Vec<TableExpr>,
    predicates: Vec<Predicate>,
) -> SelectStatement {
    SelectStatement { items, from, predicates, ..SelectStatement::new() }
}

fn col(q: &str, c: &str) -> SelectItem {
    SelectItem::Column { col: ColumnRef::new(q, c), alias: None }
}

fn rel(name: &str, alias: &str) -> TableExpr {
    TableExpr::Relation { name: name.into(), alias: alias.into() }
}
