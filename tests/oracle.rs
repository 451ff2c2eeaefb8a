//! The executor against an independent reference evaluator.
//!
//! `support/reference.rs` evaluates `SelectStatement`s by nested loops,
//! one value at a time, with no planner and no code shared with the
//! executor. Every statement below runs through the executor at 1 and 4
//! threads and must match the reference answer: every interpretation
//! (k=2) of every bundled query on the five bundled databases, the
//! small rounds of the fixed-seed random statements, and the SQL
//! semantics fixtures (which also pin their expected values).

use aqks::core::Engine;
use aqks::datasets::{
    denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch, university, AcmdlConfig,
    TpchConfig,
};
use aqks::relational::{AttrType, Database, RelationSchema, Value};
use aqks::sqlgen::{
    plan, run, AggFunc, ColumnRef, ExecCtx, Predicate, ResultTable, SelectItem, SelectStatement,
    TableExpr,
};

#[path = "support/random.rs"]
mod random;
#[path = "support/reference.rs"]
mod reference;

const THREADS: [usize; 2] = [1, 4];

/// Runs `stmt` at every thread count of [`THREADS`], checks each answer
/// against the reference, and returns the single-thread table.
fn check(stmt: &SelectStatement, db: &Database) -> ResultTable {
    let expected = reference::evaluate(stmt, db);
    let p = plan(stmt, db).unwrap_or_else(|e| panic!("plan: {e}\n{stmt}"));
    let mut first = None;
    for t in THREADS {
        let (table, _) = run(&p, db, &ExecCtx::with_threads(t))
            .unwrap_or_else(|e| panic!("threads={t}: {e}\n{stmt}"));
        if let Err(e) = reference::agrees(stmt, &expected, &table.columns, &table.rows) {
            panic!("threads={t}: {e}\n{stmt}");
        }
        first.get_or_insert(table);
    }
    first.expect("at least one thread count")
}

/// Every interpretation the engine returns for `queries` matches the
/// reference at every thread count.
fn check_workload(db: Database, queries: &[&str], label: &str) {
    let mut engine = Engine::new(db).expect("engine builds");
    for q in queries {
        let mut expected = None;
        for t in THREADS {
            engine.set_threads(t);
            let answers = engine.answer(q, 2).unwrap_or_else(|e| panic!("{label} `{q}`: {e}"));
            assert!(!answers.is_empty(), "{label} `{q}` has an interpretation");
            let expected: &Vec<reference::Table> = expected.get_or_insert_with(|| {
                answers.iter().map(|a| reference::evaluate(&a.sql, engine.database())).collect()
            });
            assert_eq!(answers.len(), expected.len(), "{label} `{q}` at {t} thread(s)");
            for (a, want) in answers.iter().zip(expected) {
                if let Err(e) = reference::agrees(&a.sql, want, &a.result.columns, &a.result.rows) {
                    panic!("{label} `{q}` at {t} thread(s): {e}\n{}", a.sql_text);
                }
            }
        }
    }
}

#[test]
fn bundled_workloads_match_reference() {
    check_workload(
        university::normalized(),
        &[
            "Green SUM Credit",
            "Engineering COUNT Department",
            "COUNT Student GROUPBY Course",
            "Green George COUNT Code",
            "COUNT Lecturer GROUPBY Course",
            "AVG COUNT Lecturer GROUPBY Course",
        ],
        "university",
    );
    let tpch_queries: Vec<&str> = aqks_eval::tpch_queries().iter().map(|q| q.text).collect();
    let tpch = generate_tpch(&TpchConfig::small());
    check_workload(tpch.clone(), &tpch_queries, "tpch");
    check_workload(denormalize_tpch(&tpch), &tpch_queries, "tpch-prime");
    let acmdl_queries: Vec<&str> = aqks_eval::acmdl_queries().iter().map(|q| q.text).collect();
    let acmdl = generate_acmdl(&AcmdlConfig::small());
    check_workload(acmdl.clone(), &acmdl_queries, "acmdl");
    check_workload(denormalize_acmdl(&acmdl), &acmdl_queries, "acmdl-prime");
}

/// The small rounds of the fixed-seed random statements (the same
/// stream `par_determinism` replays; its large rounds stay thread-count
/// comparisons there, as a nested loop over them would take minutes).
#[test]
fn random_statements_match_reference() {
    let mut rng = random::Rng(0xA96C_2026);
    for round in 0..200 {
        let big = round % 20 == 19;
        let db = random::arb_db(&mut rng, big);
        let stmt = random::arb_stmt(&mut rng);
        if !big {
            check(&stmt, &db);
        }
    }
}

// ---------------------------------------------------------------------------
// SQL semantics fixtures
// ---------------------------------------------------------------------------

fn col(q: &str, c: &str) -> ColumnRef {
    ColumnRef::new(q, c)
}

/// Small Student/Enrol/Course database mirroring Figure 1's left side.
fn uni() -> Database {
    let mut db = Database::new("uni");
    let mut s = RelationSchema::new("Student");
    s.add_attr("Sid", AttrType::Text)
        .add_attr("Sname", AttrType::Text)
        .add_attr("Age", AttrType::Int);
    s.set_primary_key(["Sid"]);
    db.add_relation(s).unwrap();
    let mut c = RelationSchema::new("Course");
    c.add_attr("Code", AttrType::Text)
        .add_attr("Title", AttrType::Text)
        .add_attr("Credit", AttrType::Float);
    c.set_primary_key(["Code"]);
    db.add_relation(c).unwrap();
    let mut e = RelationSchema::new("Enrol");
    e.add_attr("Sid", AttrType::Text)
        .add_attr("Code", AttrType::Text)
        .add_attr("Grade", AttrType::Text);
    e.set_primary_key(["Sid", "Code"]);
    e.add_foreign_key(["Sid"], "Student", ["Sid"]);
    e.add_foreign_key(["Code"], "Course", ["Code"]);
    db.add_relation(e).unwrap();

    for (sid, name, age) in [("s1", "George", 22), ("s2", "Green", 24), ("s3", "Green", 21)] {
        db.insert("Student", vec![Value::str(sid), Value::str(name), Value::Int(age)]).unwrap();
    }
    for (code, title, credit) in
        [("c1", "Java", 5.0), ("c2", "Database", 4.0), ("c3", "Multimedia", 3.0)]
    {
        db.insert("Course", vec![Value::str(code), Value::str(title), Value::Float(credit)])
            .unwrap();
    }
    for (sid, code, g) in [
        ("s1", "c1", "A"),
        ("s1", "c2", "B"),
        ("s1", "c3", "B"),
        ("s2", "c1", "A"),
        ("s3", "c1", "A"),
        ("s3", "c3", "B"),
    ] {
        db.insert("Enrol", vec![Value::str(sid), Value::str(code), Value::str(g)]).unwrap();
    }
    db
}

/// Q1 as SQAK would issue it (paper's first listing): one merged row.
#[test]
fn q1_sqak_style_merges_greens() {
    let stmt = SelectStatement {
        items: vec![
            SelectItem::Column { col: col("S", "Sname"), alias: None },
            SelectItem::Aggregate {
                func: AggFunc::Sum,
                arg: col("C", "Credit"),
                distinct: false,
                alias: "sumCredit".into(),
            },
        ],
        from: vec![
            TableExpr::Relation { name: "Student".into(), alias: "S".into() },
            TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
            TableExpr::Relation { name: "Course".into(), alias: "C".into() },
        ],
        predicates: vec![
            Predicate::JoinEq(col("E", "Sid"), col("S", "Sid")),
            Predicate::JoinEq(col("E", "Code"), col("C", "Code")),
            Predicate::Contains(col("S", "Sname"), "Green".into()),
        ],
        group_by: vec![col("S", "Sname")],
        ..Default::default()
    };
    let r = check(&stmt, &uni());
    assert_eq!(r.len(), 1);
    assert_eq!(r.rows[0][1], Value::Float(13.0), "5 + (5+3) merged into 13");
}

/// The corrected Q1: grouping by Sid separates the two Greens.
#[test]
fn q1_semantic_style_distinguishes_greens() {
    let stmt = SelectStatement {
        items: vec![
            SelectItem::Column { col: col("S", "Sid"), alias: None },
            SelectItem::Aggregate {
                func: AggFunc::Sum,
                arg: col("C", "Credit"),
                distinct: false,
                alias: "sumCredit".into(),
            },
        ],
        from: vec![
            TableExpr::Relation { name: "Student".into(), alias: "S".into() },
            TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
            TableExpr::Relation { name: "Course".into(), alias: "C".into() },
        ],
        predicates: vec![
            Predicate::JoinEq(col("E", "Sid"), col("S", "Sid")),
            Predicate::JoinEq(col("E", "Code"), col("C", "Code")),
            Predicate::Contains(col("S", "Sname"), "Green".into()),
        ],
        group_by: vec![col("S", "Sid")],
        ..Default::default()
    };
    let r = check(&stmt, &uni()).sorted();
    assert_eq!(r.len(), 2);
    assert_eq!(r.rows[0], vec![Value::str("s2"), Value::Float(5.0)]);
    assert_eq!(r.rows[1], vec![Value::str("s3"), Value::Float(8.0)]);
}

#[test]
fn global_aggregate_without_groupby_returns_one_row() {
    let stmt = SelectStatement {
        items: vec![SelectItem::Aggregate {
            func: AggFunc::Avg,
            arg: col("S", "Age"),
            distinct: false,
            alias: "avgAge".into(),
        }],
        from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
        ..Default::default()
    };
    let r = check(&stmt, &uni());
    assert_eq!(r.scalar(), Some(&Value::Float((22.0 + 24.0 + 21.0) / 3.0)));
}

#[test]
fn aggregate_over_empty_input() {
    let stmt = SelectStatement {
        items: vec![
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("S", "Sid"),
                distinct: false,
                alias: "n".into(),
            },
            SelectItem::Aggregate {
                func: AggFunc::Sum,
                arg: col("S", "Age"),
                distinct: false,
                alias: "s".into(),
            },
        ],
        from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
        predicates: vec![Predicate::Contains(col("S", "Sname"), "nobody".into())],
        ..Default::default()
    };
    let r = check(&stmt, &uni());
    assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Null]]);
}

#[test]
fn derived_table_in_from() {
    let inner = SelectStatement {
        distinct: true,
        items: vec![SelectItem::Column { col: col("E", "Sid"), alias: None }],
        from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
        ..Default::default()
    };
    let stmt = SelectStatement {
        items: vec![SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: col("D", "Sid"),
            distinct: false,
            alias: "n".into(),
        }],
        from: vec![TableExpr::Derived { query: Box::new(inner), alias: "D".into() }],
        ..Default::default()
    };
    let r = check(&stmt, &uni());
    assert_eq!(r.scalar(), Some(&Value::Int(3)));
}

#[test]
fn self_join_counts_common_courses() {
    // Courses taken by both s1 (George) and s3 (a Green).
    let stmt = SelectStatement {
        items: vec![SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: col("C", "Code"),
            distinct: false,
            alias: "n".into(),
        }],
        from: vec![
            TableExpr::Relation { name: "Course".into(), alias: "C".into() },
            TableExpr::Relation { name: "Enrol".into(), alias: "E1".into() },
            TableExpr::Relation { name: "Enrol".into(), alias: "E2".into() },
        ],
        predicates: vec![
            Predicate::JoinEq(col("C", "Code"), col("E1", "Code")),
            Predicate::JoinEq(col("C", "Code"), col("E2", "Code")),
            Predicate::Eq(col("E1", "Sid"), Value::str("s1")),
            Predicate::Eq(col("E2", "Sid"), Value::str("s3")),
        ],
        ..Default::default()
    };
    let r = check(&stmt, &uni());
    assert_eq!(r.scalar(), Some(&Value::Int(2)), "c1 and c3 shared");
}

#[test]
fn count_distinct() {
    let stmt = SelectStatement {
        items: vec![SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: col("E", "Sid"),
            distinct: true,
            alias: "n".into(),
        }],
        from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
        ..Default::default()
    };
    let r = check(&stmt, &uni());
    assert_eq!(r.scalar(), Some(&Value::Int(3)));
}

#[test]
fn min_max_on_strings_and_dates() {
    let stmt = SelectStatement {
        items: vec![
            SelectItem::Aggregate {
                func: AggFunc::Min,
                arg: col("S", "Sname"),
                distinct: false,
                alias: "lo".into(),
            },
            SelectItem::Aggregate {
                func: AggFunc::Max,
                arg: col("S", "Sname"),
                distinct: false,
                alias: "hi".into(),
            },
        ],
        from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
        ..Default::default()
    };
    let r = check(&stmt, &uni());
    assert_eq!(r.rows[0], vec![Value::str("George"), Value::str("Green")]);
}

#[test]
fn nested_aggregate_example7_shape() {
    // AVG over a grouped COUNT, paper Example 7 shape on Enrol:
    // average number of students per course = 6 enrolments / 3 courses.
    let inner = SelectStatement {
        items: vec![
            SelectItem::Column { col: col("E", "Code"), alias: None },
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("E", "Sid"),
                distinct: false,
                alias: "numSid".into(),
            },
        ],
        from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
        group_by: vec![col("E", "Code")],
        ..Default::default()
    };
    let outer = SelectStatement {
        items: vec![SelectItem::Aggregate {
            func: AggFunc::Avg,
            arg: col("R", "numSid"),
            distinct: false,
            alias: "avgnumSid".into(),
        }],
        from: vec![TableExpr::Derived { query: Box::new(inner), alias: "R".into() }],
        ..Default::default()
    };
    let r = check(&outer, &uni());
    assert_eq!(r.scalar(), Some(&Value::Float(2.0)));
}

/// The greedy join order makes FROM-clause order irrelevant to the
/// result (and avoids the Part x Supplier cross product a naive
/// left-to-right fold would build for chain joins).
#[test]
fn from_order_does_not_change_results() {
    let base = SelectStatement {
        items: vec![
            SelectItem::Column { col: col("S", "Sid"), alias: None },
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("C", "Code"),
                distinct: false,
                alias: "n".into(),
            },
        ],
        from: vec![
            TableExpr::Relation { name: "Student".into(), alias: "S".into() },
            TableExpr::Relation { name: "Course".into(), alias: "C".into() },
            TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
        ],
        predicates: vec![
            Predicate::JoinEq(col("E", "Sid"), col("S", "Sid")),
            Predicate::JoinEq(col("E", "Code"), col("C", "Code")),
        ],
        group_by: vec![col("S", "Sid")],
        ..Default::default()
    };
    let db = uni();
    let reference = check(&base, &db).sorted();
    // Student and Course are not directly joined: with left-to-right
    // folding this order would cross-join them first.
    let mut permuted = base.clone();
    permuted.from.rotate_left(1);
    assert_eq!(check(&permuted, &db).sorted().rows, reference.rows);
    let mut permuted = base;
    permuted.from.swap(0, 2);
    assert_eq!(check(&permuted, &db).sorted().rows, reference.rows);
}

#[test]
fn order_by_and_limit() {
    use aqks::sqlgen::ast::OrderKey;
    // Top-2 students by enrolment count, descending.
    let stmt = SelectStatement {
        items: vec![
            SelectItem::Column { col: col("E", "Sid"), alias: None },
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("E", "Code"),
                distinct: false,
                alias: "n".into(),
            },
        ],
        from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
        group_by: vec![col("E", "Sid")],
        order_by: vec![
            OrderKey { column: col("", "n"), desc: true },
            OrderKey { column: col("", "Sid"), desc: false },
        ],
        limit: Some(2),
        ..Default::default()
    };
    let r = check(&stmt, &uni());
    assert_eq!(r.len(), 2);
    assert_eq!(r.rows[0], vec![Value::str("s1"), Value::Int(3)]);
    assert_eq!(r.rows[1], vec![Value::str("s3"), Value::Int(2)]);
    // Rendering includes the clauses.
    let text = stmt.to_string();
    assert!(text.contains("ORDER BY .n DESC, .Sid") || text.contains("ORDER BY"), "{text}");
    assert!(text.contains("LIMIT 2"), "{text}");
}

#[test]
fn sum_over_text_is_null() {
    let stmt = SelectStatement {
        items: vec![SelectItem::Aggregate {
            func: AggFunc::Sum,
            arg: col("S", "Sname"),
            distinct: false,
            alias: "s".into(),
        }],
        from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
        ..Default::default()
    };
    let r = check(&stmt, &uni());
    assert_eq!(r.scalar(), Some(&Value::Null));
}

#[test]
fn null_join_keys_never_match() {
    let mut db = uni();
    db.insert("Enrol", vec![Value::Null, Value::str("c2"), Value::str("C")]).unwrap();
    let stmt = SelectStatement {
        items: vec![SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: col("E", "Code"),
            distinct: false,
            alias: "n".into(),
        }],
        from: vec![
            TableExpr::Relation { name: "Student".into(), alias: "S".into() },
            TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
        ],
        predicates: vec![Predicate::JoinEq(col("S", "Sid"), col("E", "Sid"))],
        ..Default::default()
    };
    let r = check(&stmt, &db);
    assert_eq!(r.scalar(), Some(&Value::Int(6)), "NULL Sid row must not join");
}
