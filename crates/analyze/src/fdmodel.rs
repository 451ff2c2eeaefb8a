//! A functional-dependency model of a whole statement.
//!
//! Pass P5 has to reason about which columns are *pinned* once the GROUP
//! BY keys and literal selections are fixed, across joins and through
//! derived tables. This module flattens one statement into a single
//! [`FdSet`] over path-qualified attribute names (`"s1.sid"`,
//! `"t.teach.lid"`, …, all lowercase):
//!
//! * a base-relation FROM item contributes its declared FDs
//!   (`PK -> all` plus `extra_fds`), attribute names prefixed with the
//!   item's alias path;
//! * an equi-join `a = b` contributes `a -> b` and `b -> a`;
//! * an equality with a literal contributes `{} -> column`;
//! * a derived table links each plainly-projected output to its inner
//!   column (both directions), and — when it aggregates — makes its
//!   GROUP BY keys determine every output (one row per key value; with no
//!   GROUP BY the whole table is a single row, `{} -> outputs`).
//!
//! `contains` predicates contribute nothing: a substring condition keeps
//! every object whose value matches, so it pins no column.
//!
//! On top of the closure, [`item_row_unique`] decides whether a FROM item
//! can contribute at most one row once the pinned columns are fixed —
//! base relations via their superkeys, derived tables via their
//! DISTINCT/GROUP BY structure, plain projections recursively.

use std::collections::BTreeSet;

use aqks_relational::{Fd, FdSet, RelationSchema};
use aqks_sqlgen::{Predicate, SelectItem, SelectStatement};

use crate::rules;
use crate::scope::{ItemScope, ItemSource, Scope};

/// A set of path-qualified lowercase attribute names.
pub type Pinned = BTreeSet<String>;

/// The flattened FD model of one statement.
#[derive(Debug)]
pub struct StmtFds {
    fds: FdSet,
}

/// A relation's FD set with every attribute name lowercased, so closures
/// compose with the lowercase names used throughout this module.
pub fn lower_fd_set(rel: &RelationSchema) -> FdSet {
    let lower = |s: &String| s.to_lowercase();
    let mut out = FdSet::new(rel.attr_names().map(str::to_lowercase));
    for fd in rel.fd_set().fds {
        out.add(Fd::new(fd.lhs.iter().map(lower), fd.rhs.iter().map(lower)));
    }
    out
}

impl StmtFds {
    /// Builds the model for `stmt` with `scope` already resolved.
    pub fn build(stmt: &SelectStatement, scope: &Scope<'_>) -> StmtFds {
        let mut universe: BTreeSet<String> = BTreeSet::new();
        let mut fds: Vec<Fd> = Vec::new();
        add_statement_body(&mut fds, &mut universe, "", stmt, scope);
        let mut set = FdSet::new(universe);
        for fd in fds {
            set.add(fd);
        }
        StmtFds { fds: set }
    }

    /// Closure of a set of path-qualified names.
    pub fn closure(&self, seeds: Pinned) -> Pinned {
        self.fds.closure(seeds)
    }
}

/// The pinned-column seeds of a statement: GROUP BY columns plus columns
/// equated with a literal. `contains` columns are deliberately absent.
pub fn seeds(stmt: &SelectStatement) -> Pinned {
    let mut out = Pinned::new();
    for c in &stmt.group_by {
        if !c.qualifier.is_empty() {
            out.insert(format!("{}.{}", c.qualifier.to_lowercase(), c.column.to_lowercase()));
        }
    }
    for p in &stmt.predicates {
        if let Predicate::Eq(c, _) = p {
            if !c.qualifier.is_empty() {
                out.insert(format!("{}.{}", c.qualifier.to_lowercase(), c.column.to_lowercase()));
            }
        }
    }
    out
}

/// Adds the FD contributions of a statement's body (FROM items, join and
/// literal predicates) under `prefix` ("" for the analyzed statement,
/// `"t."` for a derived table aliased `T`, nested recursively).
fn add_statement_body(
    fds: &mut Vec<Fd>,
    universe: &mut BTreeSet<String>,
    prefix: &str,
    stmt: &SelectStatement,
    scope: &Scope<'_>,
) {
    for item in &scope.items {
        add_item(fds, universe, prefix, item);
    }
    let qual = |q: &str, c: &str| format!("{prefix}{}.{}", q.to_lowercase(), c.to_lowercase());
    for p in &stmt.predicates {
        match p {
            Predicate::JoinEq(a, b) => {
                if !a.qualifier.is_empty() && !b.qualifier.is_empty() {
                    let (na, nb) = (qual(&a.qualifier, &a.column), qual(&b.qualifier, &b.column));
                    fds.push(Fd::new([na.clone()], [nb.clone()]));
                    fds.push(Fd::new([nb], [na]));
                }
            }
            Predicate::Eq(c, _) => {
                if !c.qualifier.is_empty() {
                    fds.push(Fd::new(Vec::<String>::new(), [qual(&c.qualifier, &c.column)]));
                }
            }
            Predicate::Contains(..) => {}
        }
    }
}

/// Adds one FROM item's FDs under its parent statement's `prefix`.
fn add_item(
    fds: &mut Vec<Fd>,
    universe: &mut BTreeSet<String>,
    prefix: &str,
    item: &ItemScope<'_>,
) {
    let mine = format!("{prefix}{}.", item.alias.to_lowercase());
    for o in &item.outputs {
        universe.insert(format!("{mine}{}", o.name.to_lowercase()));
    }
    match &item.source {
        ItemSource::Unknown => {}
        ItemSource::Base(rel) => {
            for fd in &lower_fd_set(rel).fds {
                fds.push(Fd::new(
                    fd.lhs.iter().map(|a| format!("{mine}{a}")),
                    fd.rhs.iter().map(|a| format!("{mine}{a}")),
                ));
            }
        }
        ItemSource::Derived(sub, query) => {
            add_statement_body(fds, universe, &mine, query, sub);
            // Plainly-projected outputs mirror their inner column.
            for item in &query.items {
                if let SelectItem::Column { col, alias } = item {
                    if col.qualifier.is_empty() {
                        continue;
                    }
                    let inner = format!(
                        "{mine}{}.{}",
                        col.qualifier.to_lowercase(),
                        col.column.to_lowercase()
                    );
                    let outer =
                        format!("{mine}{}", alias.as_deref().unwrap_or(&col.column).to_lowercase());
                    fds.push(Fd::new([inner.clone()], [outer.clone()]));
                    fds.push(Fd::new([outer], [inner]));
                }
            }
            if query.has_aggregate() {
                let outputs: Vec<String> = item
                    .outputs
                    .iter()
                    .map(|o| format!("{mine}{}", o.name.to_lowercase()))
                    .collect();
                let keys: Vec<String> = query
                    .group_by
                    .iter()
                    .filter(|c| !c.qualifier.is_empty())
                    .map(|c| {
                        format!("{mine}{}.{}", c.qualifier.to_lowercase(), c.column.to_lowercase())
                    })
                    .collect();
                // One row per GROUP BY key value (a single row in total
                // when there is no GROUP BY).
                fds.push(Fd::new(keys, outputs));
            }
        }
    }
}

/// True when the FROM item can contribute at most one row once the
/// columns in `closure` are fixed. `prefix` is the item's parent path
/// ("" at the analyzed statement).
pub fn item_row_unique(item: &ItemScope<'_>, prefix: &str, closure: &Pinned) -> bool {
    let path = format!("{prefix}{}", item.alias.to_lowercase());
    let mine = format!("{path}.");
    match &item.source {
        // Unresolved relations produce P1 errors; suppress cascades here.
        ItemSource::Unknown => true,
        ItemSource::Base(rel) => rules::rows_identified(&lower_fd_set(rel), closure, &path),
        ItemSource::Derived(sub, query) => {
            if query.has_aggregate() {
                if query.group_by.is_empty() {
                    return true;
                }
                return query.group_by.iter().all(|c| {
                    c.qualifier.is_empty()
                        || closure.contains(&format!(
                            "{mine}{}.{}",
                            c.qualifier.to_lowercase(),
                            c.column.to_lowercase()
                        ))
                });
            }
            if query.distinct {
                return item
                    .outputs
                    .iter()
                    .all(|o| closure.contains(&format!("{mine}{}", o.name.to_lowercase())));
            }
            // A plain projection repeats its source rows: it is unique
            // exactly when every inner FROM item is.
            sub.items.iter().all(|inner| item_row_unique(inner, &mine, closure))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;
    use aqks_relational::{AttrType, DatabaseSchema, RelationSchema};
    use aqks_sqlgen::{AggFunc, ColumnRef, TableExpr};

    /// Figure 8's Enrolment relation: PK (Sid, Code) with the partial
    /// dependencies Sid -> Sname and Code -> Title declared.
    fn enrolment_schema() -> DatabaseSchema {
        let mut r = RelationSchema::new("Enrolment");
        r.add_attr("Sid", AttrType::Text)
            .add_attr("Sname", AttrType::Text)
            .add_attr("Code", AttrType::Text)
            .add_attr("Title", AttrType::Text);
        r.set_primary_key(["Sid", "Code"]);
        r.add_fd(["Sid"], ["Sname"]);
        r.add_fd(["Code"], ["Title"]);
        DatabaseSchema { relations: vec![r] }
    }

    #[test]
    fn join_equalities_propagate_pins() {
        let schema = enrolment_schema();
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: ColumnRef::new("A", "Sid"), alias: None }],
            from: vec![
                TableExpr::Relation { name: "Enrolment".into(), alias: "A".into() },
                TableExpr::Relation { name: "Enrolment".into(), alias: "B".into() },
            ],
            predicates: vec![Predicate::JoinEq(
                ColumnRef::new("A", "Sid"),
                ColumnRef::new("B", "Sid"),
            )],
            group_by: vec![ColumnRef::new("A", "Sid")],
            ..Default::default()
        };
        let scope = Scope::build(&stmt, &schema);
        let fds = StmtFds::build(&stmt, &scope);
        let closure = fds.closure(seeds(&stmt));
        // A.Sid pins A.Sname (FD) and B.Sid (join), then B.Sname.
        for n in ["a.sid", "a.sname", "b.sid", "b.sname"] {
            assert!(closure.contains(n), "{n} in {closure:?}");
        }
        assert!(!closure.contains("a.code"));
        assert_eq!(rules::pinned_for(&closure, "B"), ["sid", "sname"].map(String::from).into());
    }

    #[test]
    fn distinct_projection_uniqueness() {
        let schema = enrolment_schema();
        let proj = |attrs: &[&str], distinct: bool| SelectStatement {
            distinct,
            items: attrs
                .iter()
                .map(|a| SelectItem::Column {
                    col: ColumnRef::new("Enrolment", a.to_string()),
                    alias: None,
                })
                .collect(),
            from: vec![TableExpr::Relation { name: "Enrolment".into(), alias: "Enrolment".into() }],
            ..Default::default()
        };
        // SELECT COUNT(D.Sname) FROM (DISTINCT Sid, Sname) D GROUP BY D.Sid
        let stmt = |inner: SelectStatement| SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: ColumnRef::new("D", "Sname"),
                distinct: false,
                alias: "n".into(),
            }],
            from: vec![TableExpr::Derived { query: Box::new(inner), alias: "D".into() }],
            group_by: vec![ColumnRef::new("D", "Sid")],
            ..Default::default()
        };

        let dedup = stmt(proj(&["Sid", "Sname"], true));
        let scope = Scope::build(&dedup, &schema);
        let closure = StmtFds::build(&dedup, &scope).closure(seeds(&dedup));
        // D.Sid pins the inner Sid, its FD pins Sname, which mirrors out.
        assert!(item_row_unique(&scope.items[0], "", &closure), "{closure:?}");

        // Without DISTINCT the projection repeats Enrolment rows: Sid does
        // not key the base relation, so the item is not row-unique.
        let plain = stmt(proj(&["Sid", "Sname"], false));
        let scope = Scope::build(&plain, &schema);
        let closure = StmtFds::build(&plain, &scope).closure(seeds(&plain));
        assert!(!item_row_unique(&scope.items[0], "", &closure), "{closure:?}");
    }

    #[test]
    fn aggregate_subquery_is_single_row() {
        let schema = enrolment_schema();
        let inner = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: ColumnRef::new("E", "Sid"),
                distinct: false,
                alias: "n".into(),
            }],
            from: vec![TableExpr::Relation { name: "Enrolment".into(), alias: "E".into() }],
            ..Default::default()
        };
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: ColumnRef::new("R", "n"), alias: None }],
            from: vec![TableExpr::Derived { query: Box::new(inner), alias: "R".into() }],
            ..Default::default()
        };
        let scope = Scope::build(&stmt, &schema);
        let closure = StmtFds::build(&stmt, &scope).closure(seeds(&stmt));
        assert!(item_row_unique(&scope.items[0], "", &closure));
        // And its single output is pinned unconditionally.
        assert!(closure.contains("r.n"), "{closure:?}");
    }
}
