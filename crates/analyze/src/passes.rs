//! The five lint passes.
//!
//! Each pass inspects one statement (the analyzer applies every pass to
//! the root and to each derived-table subquery) and files
//! [`Diagnostic`]s. Codes are stable: `AQ-P1` name/scope resolution,
//! `AQ-P2` type checking, `AQ-P3` join validity, `AQ-P4` aggregate
//! well-formedness, `AQ-P5` duplicate inflation. The rules P2, P3 and P5
//! share with the plan verifier live in [`crate::rules`]; the passes
//! here find their inputs on the AST.

use std::collections::BTreeSet;

use aqks_relational::AttrType;
use aqks_sqlgen::{AggFunc, ColumnRef, Predicate, SelectItem, SpanKind};

use crate::analyzer::StmtContext;
use crate::diagnostics::Diagnostic;
use crate::fdmodel::{self, lower_fd_set};
use crate::rules;
use crate::scope::{ItemSource, ResolveError};

/// One pass: checks `cx.stmt` and files its findings.
type Check = fn(&StmtContext<'_>, &mut Findings<'_>);

/// The pass pipeline, in execution order: `(name, code, check)`.
pub(crate) const PASSES: &[(&str, &str, Check)] = &[
    ("name-resolution", "AQ-P1", name_resolution),
    ("type-check", "AQ-P2", type_check),
    ("join-validity", "AQ-P3", join_validity),
    ("aggregate-form", "AQ-P4", aggregate_form),
    ("duplicate-inflation", "AQ-P5", duplicate_inflation),
];

/// Where one pass files its findings: each is stamped with the pass's
/// name and code and the statement's derived-table path.
pub(crate) struct Findings<'a> {
    pub pass: &'static str,
    pub code: &'static str,
    pub path: &'a [usize],
    pub out: &'a mut Vec<Diagnostic>,
}

impl Findings<'_> {
    fn error(&mut self, clause: Option<SpanKind>, message: impl Into<String>) {
        self.out.push(Diagnostic::error(self.code, self.pass, self.path, clause, message));
    }

    fn warning(&mut self, clause: Option<SpanKind>, message: impl Into<String>) {
        self.out.push(Diagnostic::warning(self.code, self.pass, self.path, clause, message));
    }
}

/// Every column reference of a statement with the clause it sits in.
fn column_refs<'a>(cx: &'a StmtContext<'a>) -> Vec<(&'a ColumnRef, SpanKind)> {
    let stmt = cx.stmt;
    let mut out = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Column { col, .. } => out.push((col, SpanKind::SelectItem(i))),
            SelectItem::Aggregate { arg, .. } => out.push((arg, SpanKind::SelectItem(i))),
        }
    }
    for (i, p) in stmt.predicates.iter().enumerate() {
        match p {
            Predicate::JoinEq(a, b) => {
                out.push((a, SpanKind::Predicate(i)));
                out.push((b, SpanKind::Predicate(i)));
            }
            Predicate::Contains(c, _) | Predicate::Eq(c, _) => {
                out.push((c, SpanKind::Predicate(i)));
            }
        }
    }
    for (i, c) in stmt.group_by.iter().enumerate() {
        out.push((c, SpanKind::GroupBy(i)));
    }
    out
}

/// P1 — every qualifier must address exactly one FROM item, every column
/// must exist there, and FROM relations must exist in the schema. An
/// unqualified reference is only legal in ORDER BY, where it names a
/// select-list output.
fn name_resolution(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    let stmt = cx.stmt;

    // Duplicate aliases and unknown relations.
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (i, item) in cx.scope.items.iter().enumerate() {
        if !seen.insert(item.alias.to_lowercase()) {
            out.error(
                Some(SpanKind::FromItem(i)),
                format!("duplicate FROM alias `{}`", item.alias),
            );
        }
        if matches!(item.source, ItemSource::Unknown) {
            out.error(
                Some(SpanKind::FromItem(i)),
                format!("unknown relation behind FROM alias `{}`", item.alias),
            );
        }
    }

    for (col, clause) in column_refs(cx) {
        if col.qualifier.is_empty() {
            out.error(
                Some(clause),
                format!("unqualified column `{}` outside ORDER BY", col.column),
            );
            continue;
        }
        match cx.scope.resolve(col) {
            Ok(_) | Err(ResolveError::PoisonedItem) => {}
            Err(ResolveError::UnknownAlias(q)) => {
                out.error(Some(clause), format!("`{col}` references undeclared FROM alias `{q}`"))
            }
            Err(ResolveError::AmbiguousAlias(q)) => out.error(
                Some(clause),
                format!("`{col}` is ambiguous: alias `{q}` is declared twice"),
            ),
            Err(ResolveError::UnknownColumn(q, c)) => {
                out.error(Some(clause), format!("`{q}` exposes no column `{c}`"))
            }
        }
    }

    // ORDER BY: an unqualified key must name a select-list output.
    let outputs: Vec<&str> = stmt.items.iter().map(|i| i.output_name()).collect();
    for (i, key) in stmt.order_by.iter().enumerate() {
        let col = &key.column;
        if col.qualifier.is_empty() {
            if !outputs.iter().any(|o| o.eq_ignore_ascii_case(&col.column)) {
                out.error(
                    Some(SpanKind::OrderBy(i)),
                    format!("ORDER BY `{}` names no select-list output", col.column),
                );
            }
        } else if let Err(ResolveError::UnknownAlias(_) | ResolveError::UnknownColumn(..)) =
            cx.scope.resolve(col)
        {
            out.error(Some(SpanKind::OrderBy(i)), format!("ORDER BY `{col}` does not resolve"));
        }
    }
}

/// P2 — equi-joins must compare compatible types, `SUM`/`AVG` need
/// numeric arguments, `contains` needs text, literal equalities must
/// match the column type. Numeric (`int`/`float`) comparisons mix freely.
fn type_check(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    let stmt = cx.stmt;
    let ty_of = |col: &ColumnRef| cx.scope.resolve(col).ok().and_then(|o| o.ty);

    for (i, item) in stmt.items.iter().enumerate() {
        let SelectItem::Aggregate { func, arg, .. } = item else { continue };
        let Some(ty) = ty_of(arg) else { continue };
        if !rules::aggregate_arg_ok(*func, ty) {
            out.error(
                Some(SpanKind::SelectItem(i)),
                format!("{} over non-numeric column `{arg}` ({})", func.keyword(), ty.name()),
            );
        }
    }

    for (i, p) in stmt.predicates.iter().enumerate() {
        let clause = Some(SpanKind::Predicate(i));
        match p {
            Predicate::JoinEq(a, b) => {
                let (Some(ta), Some(tb)) = (ty_of(a), ty_of(b)) else { continue };
                if !rules::types_compatible(ta, tb) {
                    out.error(
                        clause,
                        format!("join compares `{a}` ({}) with `{b}` ({})", ta.name(), tb.name()),
                    );
                }
            }
            Predicate::Contains(c, _) => {
                let Some(ty) = ty_of(c) else { continue };
                if !rules::contains_ok(ty) {
                    out.error(
                        clause,
                        format!("`contains` on numeric column `{c}` ({})", ty.name()),
                    );
                } else if ty == AttrType::Date {
                    // Searched as rendered text; suspicious, not wrong.
                    out.warning(clause, format!("`contains` on date column `{c}`"));
                }
            }
            Predicate::Eq(c, v) => {
                let Some(ty) = ty_of(c) else { continue };
                if !rules::literal_compatible(v, ty) {
                    out.error(clause, format!("literal {v:?} compared with `{c}` ({})", ty.name()));
                }
            }
        }
    }
}

/// P3 — every equi-join between base columns must follow schema
/// structure ([`rules::join_allowed`]): a shared attribute name or a
/// declared foreign-key column pair.
fn join_validity(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    for (i, p) in cx.stmt.predicates.iter().enumerate() {
        let Predicate::JoinEq(a, b) = p else { continue };
        // Joins on aggregate results (or unresolvable sides — P1's
        // findings) have no base provenance to validate against.
        let base = |c| cx.scope.resolve(c).ok().and_then(|o| o.base.as_ref());
        let (Some(pa), Some(pb)) = (base(a), base(b)) else { continue };
        if rules::join_allowed((&pa.0, &pa.1), (&pb.0, &pb.1), |r| cx.schema.relation(r)) {
            continue;
        }
        out.error(
            Some(SpanKind::Predicate(i)),
            format!(
                "join `{a}`=`{b}` ({}.{} with {}.{}) follows no declared foreign key",
                pa.0, pa.1, pb.0, pb.1
            ),
        );
    }
}

/// P4 — aggregate well-formedness: with aggregates (or a GROUP BY)
/// present, every plain select column must be grouped; `SELECT DISTINCT`
/// cannot be combined with aggregates; `DISTINCT` inside `MIN`/`MAX` is
/// pointless. Nested aggregates are structurally confined to derived
/// tables by the AST (an aggregate argument is a column reference, never
/// an aggregate), so the remaining nesting rule needs no check here.
fn aggregate_form(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    let stmt = cx.stmt;
    let has_agg = stmt.has_aggregate();

    if stmt.distinct && has_agg {
        out.error(None, "SELECT DISTINCT combined with aggregate select items");
    }

    if has_agg || !stmt.group_by.is_empty() {
        for (i, item) in stmt.items.iter().enumerate() {
            let SelectItem::Column { col, .. } = item else { continue };
            let grouped = stmt.group_by.iter().any(|g| {
                g.qualifier.eq_ignore_ascii_case(&col.qualifier)
                    && g.column.eq_ignore_ascii_case(&col.column)
            });
            if !grouped {
                out.error(
                    Some(SpanKind::SelectItem(i)),
                    format!("`{col}` is selected but not in GROUP BY"),
                );
            }
        }
    }

    for (i, item) in stmt.items.iter().enumerate() {
        if let SelectItem::Aggregate {
            func: AggFunc::Min | AggFunc::Max,
            distinct: true,
            arg,
            ..
        } = item
        {
            out.warning(
                Some(SpanKind::SelectItem(i)),
                format!("DISTINCT inside MIN/MAX over `{arg}` has no effect"),
            );
        }
    }
}

/// P5 — duplicate-inflation detection: the paper's Section 4 error class,
/// caught statically with the shared [`rules`]. Two findings:
///
/// * **merged groups** ([`rules::merged_groups`]) — a GROUP BY key that
///   is also a `contains`-matched column does not identify its FROM
///   item's rows;
/// * **redundant rows** ([`rules::redundant_copy`]) — with a
///   duplicate-sensitive aggregate, a base relation joins in rows that
///   are redundant copies with respect to every attribute the statement
///   uses.
fn duplicate_inflation(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    let stmt = cx.stmt;
    let closure = cx.fds.closure(fdmodel::seeds(stmt));
    let pair = |c: &ColumnRef| (c.qualifier.to_lowercase(), c.column.to_lowercase());

    let keys: Vec<(String, String)> = stmt.group_by.iter().map(pair).collect();
    let matched: BTreeSet<(String, String)> = stmt
        .predicates
        .iter()
        .filter_map(|p| match p {
            Predicate::Contains(c, _) => Some(pair(c)),
            _ => None,
        })
        .collect();
    let identified = |alias: &str| {
        cx.scope.item(alias).map_or(true, |item| fdmodel::item_row_unique(item, "", &closure))
    };
    for i in rules::merged_groups(&keys, &matched, identified) {
        let g = &stmt.group_by[i];
        out.error(
            Some(SpanKind::GroupBy(i)),
            format!(
                "GROUP BY `{g}` groups by a text-matched column that does not identify \
                 `{}` rows: distinct entities sharing the value are merged into one group",
                g.qualifier
            ),
        );
    }

    // Redundant rows need a duplicate-sensitive aggregate.
    let Some((func, arg)) = stmt.items.iter().find_map(|i| match i {
        SelectItem::Aggregate { func, arg, distinct, .. }
            if rules::duplicate_sensitive(*func, *distinct) =>
        {
            Some((func, arg))
        }
        _ => None,
    }) else {
        return;
    };

    for (fi, item) in cx.scope.items.iter().enumerate() {
        let ItemSource::Base(rel) = &item.source else { continue };
        let fds = lower_fd_set(rel);
        let pinned = rules::pinned_for(&closure, &item.alias);
        if let Some(fd) = rules::redundant_copy(&fds, &used_columns(cx, &item.alias), &pinned) {
            let det: Vec<&str> = fd.lhs.iter().map(String::as_str).collect();
            out.error(
                Some(SpanKind::FromItem(fi)),
                format!(
                    "`{}` repeats `{{{}}}`-entity rows (declared FD on the unnormalized \
                     relation `{}`): every used attribute is a copy, so {}({arg}) counts \
                     duplicates",
                    item.alias,
                    det.join(", "),
                    rel.name,
                    func.keyword()
                ),
            );
        }
    }
}

/// Lowercase columns of `alias` referenced anywhere in the statement.
fn used_columns(cx: &StmtContext<'_>, alias: &str) -> BTreeSet<String> {
    let mut used = BTreeSet::new();
    let mut note = |c: &ColumnRef| {
        if c.qualifier.eq_ignore_ascii_case(alias) {
            used.insert(c.column.to_lowercase());
        }
    };
    for (c, _) in column_refs(cx) {
        note(c);
    }
    for k in &cx.stmt.order_by {
        note(&k.column);
    }
    used
}
