//! The analyzer driver: walks a statement tree and runs every pass.

use aqks_relational::DatabaseSchema;
use aqks_sqlgen::SelectStatement;

use crate::diagnostics::Report;
use crate::fdmodel::StmtFds;
use crate::passes::{Findings, PASSES};
use crate::scope::Scope;

/// Everything a pass may look at while checking one statement.
pub(crate) struct StmtContext<'a> {
    /// The statement under scrutiny (root or a derived-table subquery).
    pub stmt: &'a SelectStatement,
    /// Resolved FROM items of this statement.
    pub scope: &'a Scope<'a>,
    /// The database schema the statement runs against.
    pub schema: &'a DatabaseSchema,
    /// Flattened FD model of this statement.
    pub fds: &'a StmtFds,
}

/// Analyzes `stmt` and every derived-table subquery against `schema`;
/// returns all findings, root statement first.
pub fn analyze(stmt: &SelectStatement, schema: &DatabaseSchema) -> Report {
    let mut report = Report::default();
    stmt.walk(&mut |path, sub| {
        let scope = Scope::build(sub, schema);
        let fds = StmtFds::build(sub, &scope);
        let cx = StmtContext { stmt: sub, scope: &scope, schema, fds: &fds };
        for &(pass, code, check) in PASSES {
            // Per-pass timing and finding counts, recorded only when a
            // trace span is ambient (the engine's `analyze` phase).
            let span = aqks_obs::current().map(|r| r.span(format!("pass:{pass}")));
            let before = report.diagnostics.len();
            check(&cx, &mut Findings { pass, code, path, out: &mut report.diagnostics });
            if let Some(span) = &span {
                span.add("findings", (report.diagnostics.len() - before) as u64);
            }
        }
    });
    report
}
