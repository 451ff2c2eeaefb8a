//! Static analysis sweep over the evaluation workloads.
//!
//! Runs `aqks-analyze` over every SQL statement both engines generate for
//! the Tables 3/4 queries, on the normalized and unnormalized datasets.
//! This is the static mirror of Tables 5/6/8/9: where those compare
//! *answers*, this compares *plans* — the paper's engine must produce
//! zero error findings, while SQAK's statements trip `AQ-P5`
//! (duplicate inflation) exactly where Section 4 predicts wrong answers.

use aqks_analyze::analyze;
use aqks_core::{CoreError, Engine};
use aqks_relational::Database;
use aqks_sqak::{Sqak, SqakError};

use crate::workload::{acmdl_database, tpch_database};
use crate::workload::{
    acmdl_prime_database, acmdl_queries, tpch_prime_database, tpch_queries, EvalQuery, Scale,
};

/// Analysis verdict for one workload query on one system.
#[derive(Debug, Clone)]
pub enum PlanVerdict {
    /// Statements generated; findings (possibly none) collected.
    Analyzed {
        /// Total error-severity findings over the top-k statements.
        errors: usize,
        /// Distinct diagnostic codes observed.
        codes: Vec<&'static str>,
    },
    /// The system cannot express the query (SQAK's N.A. rows).
    Unsupported(String),
}

impl PlanVerdict {
    /// Error findings, zero for unsupported queries.
    pub fn errors(&self) -> usize {
        match self {
            PlanVerdict::Analyzed { errors, .. } => *errors,
            PlanVerdict::Unsupported(_) => 0,
        }
    }

    /// True when the verdict carries the given diagnostic code.
    pub fn has_code(&self, code: &str) -> bool {
        matches!(self, PlanVerdict::Analyzed { codes, .. } if codes.contains(&code))
    }
}

/// One row of the analysis sweep.
#[derive(Debug, Clone)]
pub struct AnalysisRow {
    /// Workload query id (T1…T8, A1…A8).
    pub id: &'static str,
    /// Verdict on the paper engine's top-k statements.
    pub ours: PlanVerdict,
    /// Verdict on SQAK's statement.
    pub sqak: PlanVerdict,
}

fn record(codes: &mut Vec<&'static str>, report: &aqks_analyze::Report) {
    for d in &report.diagnostics {
        if !codes.contains(&d.code) {
            codes.push(d.code);
        }
    }
}

/// Analyzes everything both engines generate for `queries` over `db`.
pub fn analyze_workload(db: &Database, queries: &[EvalQuery], k: usize) -> Vec<AnalysisRow> {
    let schema = db.schema();
    let engine = Engine::new(db.clone()).expect("engine construction");
    let sqak = Sqak::new(db.clone());
    queries
        .iter()
        .map(|q| {
            let ours = match engine.generate(q.text, k) {
                Ok(generated) => {
                    let mut errors = 0;
                    let mut codes = Vec::new();
                    for g in &generated {
                        errors += g.diagnostics.error_count();
                        record(&mut codes, &g.diagnostics);
                    }
                    PlanVerdict::Analyzed { errors, codes }
                }
                // Debug builds refuse statements with error findings
                // inside `generate` itself; surface that as an error.
                Err(CoreError::Analysis(_)) => {
                    PlanVerdict::Analyzed { errors: 1, codes: vec!["AQ-REJECTED"] }
                }
                Err(e) => PlanVerdict::Unsupported(e.to_string()),
            };
            let sqak_verdict = match sqak.generate(q.text) {
                Ok(g) => {
                    let report = analyze(&g.sql, &schema);
                    let mut codes = Vec::new();
                    record(&mut codes, &report);
                    PlanVerdict::Analyzed { errors: report.error_count(), codes }
                }
                Err(SqakError::Unsupported(m)) => PlanVerdict::Unsupported(m),
                Err(e) => PlanVerdict::Unsupported(e.to_string()),
            };
            AnalysisRow { id: q.id, ours, sqak: sqak_verdict }
        })
        .collect()
}

/// Sweeps all four workload databases at the given scale. Returns
/// `(tpch, acmdl, tpch', acmdl')` rows.
pub fn run_analysis(
    scale: Scale,
    k: usize,
) -> (Vec<AnalysisRow>, Vec<AnalysisRow>, Vec<AnalysisRow>, Vec<AnalysisRow>) {
    (
        analyze_workload(&tpch_database(scale), &tpch_queries(), k),
        analyze_workload(&acmdl_database(scale), &acmdl_queries(), k),
        analyze_workload(&tpch_prime_database(scale), &tpch_queries(), k),
        analyze_workload(&acmdl_prime_database(scale), &acmdl_queries(), k),
    )
}
