//! The verification rules both verifiers check, defined once.
//!
//! The SQL analyzer (the passes of this crate, over the statement AST)
//! and `aqks-plancheck` (over the physical plan) check the same type,
//! join and duplicate-inflation rules. Each front end only walks its own
//! IR to find the columns, types and closures a rule needs, and reports
//! a violation its own way; the rule itself lives here.
//!
//! Attribute names are lowercase throughout; pinned sets and closures
//! hold `"alias.column"` names (path-qualified through derived tables on
//! the AST side, `ColProp::token`s on the plan side).

use std::collections::BTreeSet;

use aqks_relational::{AttrType, Fd, FdSet, RelationSchema, Value};
use aqks_sqlgen::AggFunc;

// ---------------------------------------------------------------------------
// Types (AQ-P2 / `JoinKeyType`, `PredType`, `AggType`)
// ---------------------------------------------------------------------------

/// `int` and `float` compare and aggregate freely with each other.
fn numeric(ty: AttrType) -> bool {
    matches!(ty, AttrType::Int | AttrType::Float)
}

/// Two columns may be equated: same type, or both numeric.
pub fn types_compatible(a: AttrType, b: AttrType) -> bool {
    a == b || (numeric(a) && numeric(b))
}

/// A literal may be compared with a column of type `ty` (NULL with any).
pub fn literal_compatible(v: &Value, ty: AttrType) -> bool {
    match v {
        Value::Null => true,
        Value::Int(_) | Value::Float(_) => numeric(ty),
        Value::Str(_) => ty == AttrType::Text,
        Value::Date(_) => ty == AttrType::Date,
    }
}

/// `func` accepts an argument of type `ty`: `SUM`/`AVG` need a numeric
/// one, every other aggregate takes any type.
pub fn aggregate_arg_ok(func: AggFunc, ty: AttrType) -> bool {
    !matches!(func, AggFunc::Sum | AggFunc::Avg) || numeric(ty)
}

/// `contains` may search a column of type `ty`: anything but a number.
/// (Dates render as text and the keyword matcher searches them that way.)
pub fn contains_ok(ty: AttrType) -> bool {
    !numeric(ty)
}

// ---------------------------------------------------------------------------
// Joins (AQ-P3 / `JoinProvenance`)
// ---------------------------------------------------------------------------

/// An equi-join of the base attributes `a` and `b` (`(relation,
/// attribute)` pairs) follows schema structure: both project the same
/// attribute name (the natural-join unification the Section 4 rewrites
/// use to join a relation with projections of itself), or they form one
/// column pair of a declared foreign key, in either direction.
/// `relation` looks a relation up by name.
pub fn join_allowed<'s>(
    a: (&str, &str),
    b: (&str, &str),
    relation: impl Fn(&str) -> Option<&'s RelationSchema>,
) -> bool {
    let fk_edge = |from: (&str, &str), to: (&str, &str)| {
        relation(from.0).is_some_and(|rel| {
            rel.foreign_keys.iter().any(|fk| {
                fk.ref_relation.eq_ignore_ascii_case(to.0)
                    && fk.attrs.iter().zip(&fk.ref_attrs).any(|(x, y)| {
                        x.eq_ignore_ascii_case(from.1) && y.eq_ignore_ascii_case(to.1)
                    })
            })
        })
    };
    a.1.eq_ignore_ascii_case(b.1) || fk_edge(a, b) || fk_edge(b, a)
}

// ---------------------------------------------------------------------------
// Duplicate inflation (AQ-P5 / `DuplicateRisk`, `MergedGroups`)
// ---------------------------------------------------------------------------

/// `COUNT`, `SUM` and `AVG` without `DISTINCT` change when a row is
/// repeated; `MIN`, `MAX` and the `DISTINCT` forms do not.
pub fn duplicate_sensitive(func: AggFunc, distinct: bool) -> bool {
    matches!(func, AggFunc::Count | AggFunc::Sum | AggFunc::Avg) && !distinct
}

/// The columns of the FROM item at `path` (an alias, or a dotted alias
/// chain through derived tables) in `closure`, without the prefix.
/// Names of items nested deeper below `path` are left out.
pub fn pinned_for(closure: &BTreeSet<String>, path: &str) -> BTreeSet<String> {
    let prefix = format!("{}.", path.to_lowercase());
    closure
        .iter()
        .filter_map(|n| n.strip_prefix(&prefix))
        .filter(|rest| !rest.contains('.'))
        .map(str::to_string)
        .collect()
}

/// The FROM item at `path`, a base relation with lowercased FD set
/// `fds`, contributes at most one row once the columns in `closure` are
/// fixed: its pinned columns form a superkey.
pub fn rows_identified(fds: &FdSet, closure: &BTreeSet<String>, path: &str) -> bool {
    fds.is_superkey(&pinned_for(closure, path))
}

/// Redundant copies: the declared non-key FD of a base relation whose
/// closure covers every `used` attribute, while its determinant plus the
/// `pinned` attributes is still not a superkey. Each entity along that
/// FD is then stored once per row carrying it, and every copy lands in
/// the same group as an identical row, so a duplicate-sensitive
/// aggregate counts it once per copy (SQAK on the unnormalized
/// `Ordering`: `AVG(amount)` per `orderkey` reads one copy per
/// part/supplier of the order). Returns the first such FD.
pub fn redundant_copy<'f>(
    fds: &'f FdSet,
    used: &BTreeSet<String>,
    pinned: &BTreeSet<String>,
) -> Option<&'f Fd> {
    fds.fds.iter().find(|fd| {
        if fds.is_superkey(&fd.lhs) || !used.is_subset(&fds.closure(fd.lhs.clone())) {
            return false;
        }
        let mut pinned_k = fd.lhs.clone();
        pinned_k.extend(pinned.iter().cloned());
        !fds.is_superkey(&pinned_k)
    })
}

/// Merged groups: the positions of the group `keys` (lowercase `(alias,
/// column)` pairs) that a `contains` predicate `matched` while their
/// FROM item's rows are not `identified` by the pinned columns. Distinct
/// entities sharing the matched text then fall into one group (SQAK's
/// `GROUP BY S.Sname` merges the two Greens). This holds whatever is
/// computed per group, so the test runs for every aggregate function.
pub fn merged_groups<'k>(
    keys: &'k [(String, String)],
    matched: &'k BTreeSet<(String, String)>,
    identified: impl Fn(&str) -> bool + 'k,
) -> impl Iterator<Item = usize> + 'k {
    keys.iter()
        .enumerate()
        .filter(move |(_, key)| matched.contains(*key) && !identified(&key.0))
        .map(|(i, _)| i)
}
