//! Fixed-seed random databases and statements shared by the executor
//! tests: a two-table instance (`R(k, v, s)`, `S(k, w)`) and join /
//! filter / aggregate statements over it.

use aqks::relational::{AttrType, Database, RelationSchema, Value};
use aqks::sqlgen::{AggFunc, ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};

/// SplitMix64 (same generator as `tests/properties.rs`): deterministic
/// across platforms, so every run replays the identical case set.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random two-table instance. Small rounds stress edge cases (empty
/// inputs, all-NULL columns); every 20th round is sized past the
/// executor's parallel threshold so the scan, join build and probe, and
/// aggregate split their inputs across several workers.
pub fn arb_db(rng: &mut Rng, big: bool) -> Database {
    let mut db = Database::new("prop");
    let mut r = RelationSchema::new("R");
    r.add_attr("k", AttrType::Int).add_attr("v", AttrType::Int).add_attr("s", AttrType::Text);
    db.add_relation(r).expect("schema");
    let mut s = RelationSchema::new("S");
    s.add_attr("k", AttrType::Int).add_attr("w", AttrType::Int);
    db.add_relation(s).expect("schema");
    let (r_rows, s_rows, keys) = if big {
        (5000 + rng.below(2000), 4000 + rng.below(1000), 1500)
    } else {
        (rng.below(30), rng.below(30), 6)
    };
    const WORDS: [&str; 5] = ["alpha", "Beta", "gamma", "DELTA", "alpha beta"];
    for _ in 0..r_rows {
        let k = Value::Int(rng.below(keys) as i64);
        let v = if rng.below(5) == 0 { Value::Null } else { Value::Int(rng.below(9) as i64) };
        let s =
            if rng.below(7) == 0 { Value::Null } else { Value::str(WORDS[rng.below(WORDS.len())]) };
        db.insert("R", vec![k, v, s]).expect("insert");
    }
    for _ in 0..s_rows {
        let k = Value::Int(rng.below(keys) as i64);
        db.insert("S", vec![k, Value::Int(rng.below(9) as i64)]).expect("insert");
    }
    db
}

pub fn arb_stmt(rng: &mut Rng) -> SelectStatement {
    let agg_funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
    let mut predicates =
        vec![Predicate::JoinEq(ColumnRef::new("R", "k"), ColumnRef::new("S", "k"))];
    match rng.below(4) {
        0 => predicates.push(Predicate::Contains(ColumnRef::new("R", "s"), "alpha".into())),
        1 => predicates.push(Predicate::Eq(ColumnRef::new("R", "v"), Value::Int(3))),
        _ => {}
    }
    if rng.below(3) == 0 {
        // Ungrouped projection, possibly DISTINCT.
        return SelectStatement {
            distinct: rng.below(2) == 0,
            items: vec![
                SelectItem::Column { col: ColumnRef::new("R", "k"), alias: None },
                SelectItem::Column { col: ColumnRef::new("S", "w"), alias: None },
            ],
            from: vec![
                TableExpr::Relation { name: "R".into(), alias: "R".into() },
                TableExpr::Relation { name: "S".into(), alias: "S".into() },
            ],
            predicates,
            group_by: vec![],
            ..Default::default()
        };
    }
    SelectStatement {
        distinct: false,
        items: vec![
            SelectItem::Column { col: ColumnRef::new("R", "k"), alias: None },
            SelectItem::Aggregate {
                func: agg_funcs[rng.below(agg_funcs.len())],
                arg: ColumnRef::new("S", "w"),
                distinct: rng.below(3) == 0,
                alias: "a".into(),
            },
            SelectItem::Aggregate {
                func: agg_funcs[rng.below(agg_funcs.len())],
                arg: ColumnRef::new("R", "v"),
                distinct: false,
                alias: "b".into(),
            },
        ],
        from: vec![
            TableExpr::Relation { name: "R".into(), alias: "R".into() },
            TableExpr::Relation { name: "S".into(), alias: "S".into() },
        ],
        predicates,
        group_by: vec![ColumnRef::new("R", "k")],
        ..Default::default()
    }
}
