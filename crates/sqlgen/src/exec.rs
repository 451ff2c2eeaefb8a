//! In-memory execution of [`SelectStatement`]s.
//!
//! Since the planner/operator split, this module is the stable facade
//! over the two-layer pipeline: [`execute`] lowers the statement into a
//! physical operator tree via [`crate::plan::plan`] and runs it with
//! [`crate::ops::run`], keeping the exact signature and SQL semantics of
//! the original single-pass interpreter. Callers that want per-operator
//! metrics, threads or shared subtrees plan and run the statement
//! themselves.
//!
//! Semantics follow SQL (see [`crate::ops`]): aggregates skip NULLs;
//! `SUM`/`MIN`/`MAX`/`AVG` over an empty group yield NULL while `COUNT`
//! yields 0; `AVG` is always a float; an aggregate query without GROUP BY
//! returns exactly one row.
//! Additionally, results without an ORDER BY are stably sorted by row
//! value, so answers are reproducible across runs and plan revisions.

use aqks_relational::Database;

use crate::ast::SelectStatement;
use crate::ops::ExecCtx;
use crate::result::ResultTable;

/// Errors raised during planning or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A FROM item names a relation that is not in the database.
    UnknownRelation(String),
    /// A column reference does not resolve against the FROM items.
    UnknownColumn(String),
    /// Two FROM items share an alias.
    DuplicateAlias(String),
    /// Statement shape not supported (e.g. empty SELECT list).
    Unsupported(String),
    /// A resource budget tripped while the plan was running (cooperative
    /// cancellation; see `aqks-guard`).
    Budget(aqks_guard::Tripped),
    /// A deterministic failpoint fired (fault-injection builds only).
    Fault(&'static str),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            ExecError::UnknownColumn(c) => write!(f, "unresolved column `{c}`"),
            ExecError::DuplicateAlias(a) => write!(f, "duplicate FROM alias `{a}`"),
            ExecError::Unsupported(m) => write!(f, "unsupported statement: {m}"),
            ExecError::Budget(t) => write!(f, "{t}"),
            ExecError::Fault(site) => write!(f, "injected fault at `{site}`"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<aqks_guard::Tripped> for ExecError {
    fn from(t: aqks_guard::Tripped) -> Self {
        ExecError::Budget(t)
    }
}

impl From<aqks_guard::FailpointError> for ExecError {
    fn from(f: aqks_guard::FailpointError) -> Self {
        ExecError::Fault(f.site)
    }
}

/// Executes `stmt` against `db` on one thread.
pub fn execute(stmt: &SelectStatement, db: &Database) -> Result<ResultTable, ExecError> {
    let plan = crate::plan::plan(stmt, db)?;
    crate::ops::run(&plan, db, &ExecCtx::default()).map(|(table, _)| table)
}

#[cfg(test)]
mod tests {
    //! Planning errors surface through the facade. The SQL-semantics
    //! fixtures live in the root package's `tests/oracle.rs`, where each
    //! is also checked against a reference evaluator.

    use super::*;
    use crate::ast::{ColumnRef, SelectItem, TableExpr};
    use aqks_relational::{AttrType, RelationSchema, Value};

    /// Small Student/Enrol/Course database mirroring Figure 1's left side.
    fn db() -> Database {
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

    fn col(q: &str, c: &str) -> ColumnRef {
        ColumnRef::new(q, c)
    }

    #[test]
    fn error_on_unknown_relation_and_column() {
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("X", "a"), alias: None }],
            from: vec![TableExpr::Relation { name: "Nope".into(), alias: "X".into() }],
            ..Default::default()
        };
        assert!(matches!(execute(&stmt, &db()), Err(ExecError::UnknownRelation(_))));

        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("S", "missing"), alias: None }],
            from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
            ..Default::default()
        };
        assert!(matches!(execute(&stmt, &db()), Err(ExecError::UnknownColumn(_))));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("S", "Sid"), alias: None }],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "s".into() },
            ],
            ..Default::default()
        };
        assert!(matches!(execute(&stmt, &db()), Err(ExecError::DuplicateAlias(_))));
    }

    #[test]
    fn order_by_unknown_column_errors() {
        use crate::ast::OrderKey;
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("S", "Sid"), alias: None }],
            from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
            order_by: vec![OrderKey { column: col("S", "nope"), desc: false }],
            ..Default::default()
        };
        assert!(matches!(execute(&stmt, &db()), Err(ExecError::UnknownColumn(_))));
    }
}
