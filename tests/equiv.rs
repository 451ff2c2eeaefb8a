//! Differential tests for semantic plan equivalence: every equivalence
//! class the canonicalizer finds across the bundled workloads must be a
//! *behavioral* equivalence — all members execute to the same table —
//! and on randomized schemas canonicalize → verify → execute must never
//! change a query's result.

use aqks::core::Engine;
use aqks::datasets::university;
use aqks::equiv::{analyze, canonicalize};
use aqks::plancheck::verify;
use aqks::relational::{AttrType, Database, RelationSchema, Value};
use aqks::sqlgen::ast::OrderKey;
use aqks::sqlgen::{
    plan, plan_with_options, run, AggFunc, ColumnRef, ExecCtx, PlanNode, PlanOptions, Predicate,
    SelectItem, SelectStatement, TableExpr,
};

/// Plans the top-k interpretations of each query with and without
/// predicate pushdown — the mixed plan set a cache would accumulate.
fn workload_plans(db: &Database, queries: &[&str], k: usize) -> Vec<PlanNode> {
    let engine = Engine::new(db.clone()).expect("engine builds");
    let mut plans = Vec::new();
    for q in queries {
        for g in engine.generate(q, k).expect("interpretations generated") {
            plans.push(plan(&g.sql, db).expect("statement plans"));
            plans.push(
                plan_with_options(&g.sql, db, &PlanOptions { pushdown: false })
                    .expect("statement plans without pushdown"),
            );
        }
    }
    plans
}

/// Analyzes the workload's plan set and checks that every member of
/// every equivalence class executes to its classmates' table.
fn assert_classes_are_behavioral(db: &Database, queries: &[&str], workload: &str) {
    let plans = workload_plans(db, queries, 2);
    let analysis = analyze(&plans, db)
        .unwrap_or_else(|e| panic!("{workload}: canonicalization rejected a planner plan: {e}"));
    assert!(
        analysis.nontrivial_classes() >= 1,
        "{workload}: pushdown variants produced no duplicates"
    );
    for (ci, class) in analysis.classes.iter().enumerate() {
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for &m in &class.members {
            let (table, _) = run(&plans[m], db, &ExecCtx::default())
                .unwrap_or_else(|e| panic!("{workload}: plan {m} fails to execute: {e}"));
            let rows = table.sorted().rows;
            match &reference {
                None => reference = Some(rows),
                Some(r) => {
                    assert_eq!(r, &rows, "{workload}: class {ci} members disagree (member {m})")
                }
            }
        }
    }
}

#[test]
fn university_equivalence_classes_execute_identically() {
    let db = university::normalized();
    let queries = [
        "Green SUM Credit",
        "Green George COUNT Code",
        "Java SUM Price",
        "COUNT Lecturer GROUPBY Course",
    ];
    assert_classes_are_behavioral(&db, &queries, "university");
}

#[test]
fn tpch_equivalence_classes_execute_identically() {
    use aqks_eval::{tpch_queries, Scale};
    let queries: Vec<String> = tpch_queries().iter().map(|q| q.text.to_string()).collect();
    let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
    let normalized = aqks_eval::workload::tpch_database(Scale::Small);
    assert_classes_are_behavioral(&normalized, &refs, "tpch");
    let prime = aqks_eval::workload::tpch_prime_database(Scale::Small);
    assert_classes_are_behavioral(&prime, &refs, "tpch-prime");
}

#[test]
fn acmdl_equivalence_classes_execute_identically() {
    use aqks_eval::{acmdl_queries, Scale};
    let queries: Vec<String> = acmdl_queries().iter().map(|q| q.text.to_string()).collect();
    let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
    let normalized = aqks_eval::workload::acmdl_database(Scale::Small);
    assert_classes_are_behavioral(&normalized, &refs, "acmdl");
    let prime = aqks_eval::workload::acmdl_prime_database(Scale::Small);
    assert_classes_are_behavioral(&prime, &refs, "acmdl-prime");
}

// ---------------------------------------------------------------------
// Randomized canonicalization property
// ---------------------------------------------------------------------

/// SplitMix64: deterministic across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }
}

/// A small random FK-chain schema with populated tables.
fn random_database(rng: &mut Rng) -> Database {
    let payload_types = [AttrType::Int, AttrType::Float, AttrType::Text];
    let mut db = Database::new("prop");
    let n_rels = 2 + rng.below(3);
    let mut schemas: Vec<(Vec<AttrType>, Option<usize>)> = Vec::new();
    for i in 0..n_rels {
        let mut r = RelationSchema::new(format!("R{i}"));
        r.add_attr("Id", AttrType::Int);
        let mut tys = Vec::new();
        for j in 0..1 + rng.below(3) {
            let ty = payload_types[rng.below(payload_types.len())];
            r.add_attr(format!("P{j}"), ty);
            tys.push(ty);
        }
        r.set_primary_key(["Id"]);
        let parent = if i > 0 { Some(rng.below(i)) } else { None };
        if let Some(p) = parent {
            r.add_attr("Ref", AttrType::Int);
            r.add_foreign_key(["Ref"], format!("R{p}"), ["Id"]);
        }
        schemas.push((tys, parent));
        db.add_relation(r).expect("schema is valid");
    }
    let mut sizes: Vec<usize> = Vec::new();
    for (i, (tys, parent)) in schemas.iter().enumerate() {
        let rows = 2 + rng.below(6);
        for id in 0..rows {
            let mut row = vec![Value::Int(id as i64)];
            for ty in tys {
                row.push(match ty {
                    AttrType::Int => Value::Int(rng.below(50) as i64),
                    AttrType::Float => Value::Float(rng.below(50) as f64 / 2.0),
                    _ => Value::str(format!("t{}", rng.below(6))),
                });
            }
            if let Some(p) = parent {
                row.push(Value::Int(rng.below(sizes[*p]) as i64));
            }
            db.insert(&format!("R{i}"), row).expect("row matches schema");
        }
        sizes.push(rows);
    }
    db
}

/// A random interpretation-shaped statement over an FK chain: a plain
/// (optionally DISTINCT/ordered) projection or a key-grouped aggregate,
/// with optional literal and contains predicates for pushdown to chew on.
fn random_statement(rng: &mut Rng, db: &Database) -> SelectStatement {
    let rels: Vec<&RelationSchema> = db.tables().iter().map(|t| &t.schema).collect();
    let mut chain = vec![rng.below(rels.len())];
    loop {
        let rel = rels[*chain.last().expect("chain is non-empty")];
        let Some(fk) = rel.foreign_keys.first() else { break };
        let parent = rels.iter().position(|r| r.is_named(&fk.ref_relation)).expect("fk target");
        chain.push(parent);
        if rng.chance(40) {
            break;
        }
    }
    let alias = |i: usize| format!("X{i}");
    let mut stmt = SelectStatement::new();
    stmt.from = chain
        .iter()
        .enumerate()
        .map(|(i, &r)| TableExpr::Relation { name: rels[r].name.clone(), alias: alias(i) })
        .collect();
    stmt.predicates = (1..chain.len())
        .map(|i| {
            Predicate::JoinEq(ColumnRef::new(alias(i - 1), "Ref"), ColumnRef::new(alias(i), "Id"))
        })
        .collect();
    if rng.chance(60) {
        let i = rng.below(chain.len());
        let rel = rels[chain[i]];
        let a = &rel.attrs[1 + rng.below(rel.attrs.len() - 1)];
        let pred = match a.ty {
            AttrType::Int => Predicate::Eq(
                ColumnRef::new(alias(i), a.name.clone()),
                Value::Int(rng.below(50) as i64),
            ),
            AttrType::Float => Predicate::Eq(
                ColumnRef::new(alias(i), a.name.clone()),
                Value::Float(rng.below(50) as f64 / 2.0),
            ),
            _ => Predicate::Contains(
                ColumnRef::new(alias(i), a.name.clone()),
                format!("t{}", rng.below(6)),
            ),
        };
        stmt.predicates.push(pred);
    }
    if rng.chance(50) {
        let g = ColumnRef::new(alias(0), "Id");
        let tail = rels[*chain.last().expect("chain is non-empty")];
        let func =
            [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max][rng.below(5)];
        let numeric: Vec<&str> = tail
            .attrs
            .iter()
            .filter(|a| matches!(a.ty, AttrType::Int | AttrType::Float))
            .map(|a| a.name.as_str())
            .collect();
        let arg = numeric[rng.below(numeric.len())];
        stmt.items = vec![
            SelectItem::Column { col: g.clone(), alias: None },
            SelectItem::Aggregate {
                func,
                arg: ColumnRef::new(alias(chain.len() - 1), arg),
                distinct: rng.chance(25),
                alias: "aggval".into(),
            },
        ];
        stmt.group_by = vec![g];
        if rng.chance(40) {
            stmt.order_by =
                vec![OrderKey { column: ColumnRef::new("", "aggval"), desc: rng.chance(50) }];
        }
    } else {
        let rel = rels[chain[0]];
        let n_items = 1 + rng.below(rel.attrs.len());
        stmt.items = (0..n_items)
            .map(|j| SelectItem::Column {
                col: ColumnRef::new(alias(0), rel.attrs[j].name.clone()),
                alias: None,
            })
            .collect();
        stmt.distinct = rng.chance(30);
    }
    stmt
}

/// 200 random schema/statement rounds: the canonical plan must verify
/// clean and execute to exactly the original plan's rows. Fixed seed —
/// every run exercises the same cases.
#[test]
fn canonicalize_verify_execute_never_changes_results() {
    let mut rng = Rng(0xE9B1);
    for round in 0..200 {
        let db = random_database(&mut rng);
        let stmt = random_statement(&mut rng, &db);
        let pushdown = rng.chance(50);
        let p = plan_with_options(&stmt, &db, &PlanOptions { pushdown })
            .unwrap_or_else(|e| panic!("round {round}: plan: {e}"));
        let canon =
            canonicalize(&p, &db).unwrap_or_else(|e| panic!("round {round}: canonicalize: {e}"));
        assert_eq!(
            canon.perm,
            (0..p.cols.len()).collect::<Vec<_>>(),
            "round {round}: statement root was permuted"
        );
        verify(&canon.plan, &db, None)
            .unwrap_or_else(|e| panic!("round {round}: canonical plan rejected: {e}"));
        let (a, _) = run(&p, &db, &ExecCtx::default())
            .unwrap_or_else(|e| panic!("round {round}: original: {e}"));
        let (b, _) = run(&canon.plan, &db, &ExecCtx::default())
            .unwrap_or_else(|e| panic!("round {round}: canonical: {e}"));
        assert_eq!(
            a.sorted().rows,
            b.sorted().rows,
            "round {round}: canonicalization changed the result"
        );
    }
}
