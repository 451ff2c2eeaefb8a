//! A reference evaluator for `SelectStatement`s, written to be obviously
//! right rather than fast: no planner, no hashing, no columnar batches,
//! one `Value` at a time. The executor is checked against it, so it
//! shares none of the executor's code: it reads the statement AST and
//! the database's rows and nothing else.
//!
//! Semantics (the executor's documented SQL semantics):
//! * FROM items are bound in FROM order by nested loops; each WHERE
//!   conjunct is evaluated as soon as every alias it names is bound;
//! * NULL never equals anything, so NULL never joins;
//! * `contains` is a case-insensitive substring test (non-text values
//!   match on their display form);
//! * aggregates skip NULLs; COUNT over no rows is 0 and the other
//!   aggregates are NULL; AVG is always a float; SUM is an integer when
//!   every input is one, a float otherwise, and NULL when no input is
//!   numeric (e.g. text);
//! * an aggregate without GROUP BY returns exactly one row; a plain
//!   column of a group takes the group's first row;
//! * without ORDER BY rows are sorted by value; with it, ties are
//!   sorted by value too.

use std::cmp::Ordering;

use aqks::relational::{Database, Value};
use aqks::sqlgen::{AggFunc, ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};

/// A result: output column names and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

/// One bound FROM item.
struct Source {
    alias: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

/// `(source, column)` position of a column reference.
type Pos = (usize, usize);

/// A WHERE conjunct with its columns resolved to positions.
enum Check {
    Equal(Pos, Pos),
    EqualTo(Pos, Value),
    /// Needle already lowercased.
    Contains(Pos, String),
}

/// Evaluates `stmt` against `db`. Panics on a statement the executor
/// would reject (unknown names, duplicate aliases): the evaluator only
/// checks answers, not errors.
pub fn evaluate(stmt: &SelectStatement, db: &Database) -> Table {
    let sources: Vec<Source> = stmt.from.iter().map(|item| source(item, db)).collect();
    for (i, s) in sources.iter().enumerate() {
        assert!(
            sources[..i].iter().all(|t| !t.alias.eq_ignore_ascii_case(&s.alias)),
            "duplicate alias {}",
            s.alias
        );
    }
    let at = |c: &ColumnRef| position(&sources, c);

    // Each conjunct is checked at the depth that binds its last alias.
    let mut checks: Vec<Vec<Check>> = sources.iter().map(|_| Vec::new()).collect();
    for p in &stmt.predicates {
        let (depth, check) = match p {
            Predicate::JoinEq(a, b) => (at(a).0.max(at(b).0), Check::Equal(at(a), at(b))),
            Predicate::Eq(c, v) => (at(c).0, Check::EqualTo(at(c), v.clone())),
            Predicate::Contains(c, text) => (at(c).0, Check::Contains(at(c), text.to_lowercase())),
        };
        checks[depth].push(check);
    }
    let mut tuples: Vec<Vec<usize>> = Vec::new();
    bind(&sources, &checks, &mut Vec::new(), &mut tuples);
    let value = |t: &[usize], (s, c): Pos| &sources[s].rows[t[s]][c];

    let columns: Vec<String> = stmt.items.iter().map(|i| i.output_name().to_string()).collect();
    let mut rows: Vec<Vec<Value>> = if stmt.has_aggregate() || !stmt.group_by.is_empty() {
        let keys: Vec<Pos> = stmt.group_by.iter().map(at).collect();
        // Groups in first-appearance order, found by linear search.
        let mut groups: Vec<(Vec<Value>, Vec<&Vec<usize>>)> = Vec::new();
        for t in &tuples {
            let key: Vec<Value> = keys.iter().map(|&k| value(t, k).clone()).collect();
            match groups.iter_mut().find(|(g, _)| *g == key) {
                Some((_, members)) => members.push(t),
                None => groups.push((key, vec![t])),
            }
        }
        if groups.is_empty() && keys.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        groups
            .iter()
            .map(|(_, members)| {
                stmt.items
                    .iter()
                    .map(|item| match item {
                        SelectItem::Column { col, .. } => {
                            members.first().map_or(Value::Null, |t| value(t, at(col)).clone())
                        }
                        SelectItem::Aggregate { func, arg, distinct, .. } => {
                            let arg = at(arg);
                            let vals = members.iter().map(|t| value(t, arg).clone()).collect();
                            aggregate(*func, *distinct, vals)
                        }
                    })
                    .collect()
            })
            .collect()
    } else {
        let cols: Vec<Pos> = stmt
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Column { col, .. } => at(col),
                SelectItem::Aggregate { .. } => unreachable!("no aggregate in this branch"),
            })
            .collect();
        tuples.iter().map(|t| cols.iter().map(|&c| value(t, c).clone()).collect()).collect()
    };

    if stmt.distinct {
        rows.sort();
        rows.dedup();
    }
    let order: Vec<(usize, bool)> = stmt
        .order_by
        .iter()
        .map(|k| {
            let i = columns
                .iter()
                .position(|n| n.eq_ignore_ascii_case(&k.column.column))
                .unwrap_or_else(|| panic!("ORDER BY {} is not an output column", k.column));
            (i, k.desc)
        })
        .collect();
    rows.sort_by(|a, b| order_cmp(&order, a, b).then_with(|| a.cmp(b)));
    if let Some(n) = stmt.limit {
        // Without ORDER BY, LIMIT may keep any n rows.
        assert!(!order.is_empty(), "LIMIT without ORDER BY has no single answer");
        rows.truncate(n);
    }
    Table { columns, rows }
}

/// Compares two output rows by ORDER BY keys `(column, descending)`.
pub fn order_cmp(keys: &[(usize, bool)], a: &[Value], b: &[Value]) -> Ordering {
    for &(i, desc) in keys {
        let ord = if desc { b[i].cmp(&a[i]) } else { a[i].cmp(&b[i]) };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn source(item: &TableExpr, db: &Database) -> Source {
    match item {
        TableExpr::Relation { name, alias } => {
            let table = db.table(name).unwrap_or_else(|| panic!("unknown relation {name}"));
            Source {
                alias: alias.clone(),
                columns: table.schema.attr_names().map(str::to_string).collect(),
                rows: table.rows().to_vec(),
            }
        }
        TableExpr::Derived { query, alias } => {
            let t = evaluate(query, db);
            Source { alias: alias.clone(), columns: t.columns, rows: t.rows }
        }
    }
}

fn position(sources: &[Source], c: &ColumnRef) -> Pos {
    for (s, src) in sources.iter().enumerate() {
        if src.alias.eq_ignore_ascii_case(&c.qualifier) {
            if let Some(i) = src.columns.iter().position(|n| n.eq_ignore_ascii_case(&c.column)) {
                return (s, i);
            }
        }
    }
    panic!("unresolved column {c}")
}

/// Extends the partial tuple `bound` (one row index per bound source)
/// by every row of the next source that passes the conjuncts due at
/// that depth.
fn bind(
    sources: &[Source],
    checks: &[Vec<Check>],
    bound: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    let depth = bound.len();
    if depth == sources.len() {
        out.push(bound.clone());
        return;
    }
    for r in 0..sources[depth].rows.len() {
        bound.push(r);
        if checks[depth].iter().all(|c| holds(c, sources, bound)) {
            bind(sources, checks, bound, out);
        }
        bound.pop();
    }
}

fn holds(check: &Check, sources: &[Source], bound: &[usize]) -> bool {
    let value = |(s, c): Pos| &sources[s].rows[bound[s]][c];
    match check {
        Check::Equal(a, b) => equal(value(*a), value(*b)),
        Check::EqualTo(c, lit) => equal(value(*c), lit),
        Check::Contains(c, needle) => match value(*c) {
            Value::Null => false,
            Value::Str(s) => s.to_lowercase().contains(needle.as_str()),
            other => other.to_string().to_lowercase().contains(needle.as_str()),
        },
    }
}

/// SQL equality: NULL equals nothing, not even NULL.
fn equal(a: &Value, b: &Value) -> bool {
    !a.is_null() && !b.is_null() && a == b
}

fn aggregate(func: AggFunc, distinct: bool, vals: Vec<Value>) -> Value {
    let mut vals: Vec<Value> = vals.into_iter().filter(|v| !v.is_null()).collect();
    if distinct {
        let mut unique: Vec<Value> = Vec::new();
        for v in vals {
            if !unique.contains(&v) {
                unique.push(v);
            }
        }
        vals = unique;
    }
    let nums: Vec<f64> = vals
        .iter()
        .filter_map(|v| match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        })
        .collect();
    match func {
        AggFunc::Count => Value::Int(vals.len() as i64),
        AggFunc::Min => vals.iter().min().cloned().unwrap_or(Value::Null),
        AggFunc::Max => vals.iter().max().cloned().unwrap_or(Value::Null),
        AggFunc::Sum if nums.is_empty() => Value::Null,
        AggFunc::Sum => {
            let ints: Option<Vec<i64>> =
                vals.iter().map(|v| if let Value::Int(i) = v { Some(*i) } else { None }).collect();
            match ints {
                Some(ints) => Value::Int(ints.iter().sum()),
                None => Value::Float(nums.iter().sum()),
            }
        }
        AggFunc::Avg if nums.is_empty() => Value::Null,
        AggFunc::Avg => Value::Float(nums.iter().sum::<f64>() / nums.len() as f64),
    }
}

/// `Ok` when the executor's `columns`/`rows` carry the reference answer:
/// same column names, same row count, every non-float value exactly
/// equal, and floats within 1e-9 relative (absolute below magnitude 1).
/// Rows the executor sorts by ORDER BY keys are compared with ties
/// sorted by value, as the reference orders them.
pub fn agrees(
    stmt: &SelectStatement,
    expected: &Table,
    columns: &[String],
    rows: &[Vec<Value>],
) -> Result<(), String> {
    if columns != expected.columns.as_slice() {
        return Err(format!("columns {columns:?}, expected {:?}", expected.columns));
    }
    if rows.len() != expected.rows.len() {
        return Err(format!("{} rows, expected {}", rows.len(), expected.rows.len()));
    }
    let mut rows = rows.to_vec();
    if !stmt.order_by.is_empty() {
        let keys: Vec<(usize, bool)> = stmt
            .order_by
            .iter()
            .map(|k| {
                let i = columns.iter().position(|n| n.eq_ignore_ascii_case(&k.column.column));
                (i.expect("ORDER BY names an output column"), k.desc)
            })
            .collect();
        if !rows.windows(2).all(|w| order_cmp(&keys, &w[0], &w[1]) != Ordering::Greater) {
            return Err("rows are not in ORDER BY order".into());
        }
        rows.sort_by(|a, b| order_cmp(&keys, a, b).then_with(|| a.cmp(b)));
    }
    for (i, (got, want)) in rows.iter().zip(&expected.rows).enumerate() {
        if got.len() != want.len() || !got.iter().zip(want).all(|(a, b)| same(a, b)) {
            return Err(format!("row {i}: {got:?}, expected {want:?}"));
        }
    }
    Ok(())
}

fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        (Value::Float(_), _) | (_, Value::Float(_)) => false,
        _ => a.type_name() == b.type_name() && a == b,
    }
}
