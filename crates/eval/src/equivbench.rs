//! Equivalence-analysis benchmark: measures how much duplicate work the
//! semantic canonicalizer (`aqks-equiv`) removes from the bundled
//! workloads, serialized as `BENCH_equiv.json`.
//!
//! For every workload query the engine's top interpretations are planned
//! twice — with and without predicate pushdown — mirroring a plan cache
//! fed from mixed sources. The structural fingerprint tells the variants
//! apart; the canonical fingerprint identifies them. The bench reports,
//! per workload, the class partition (plans vs. classes vs. duplicates),
//! the number of shared subtrees in the deduplicated execution set, and
//! the executed-rows reduction of running one canonical representative
//! per class (with common subtrees materialized once) against running
//! every plan individually. Every class member is also executed and
//! compared against its representative's shared-run table, so the bench
//! doubles as a differential-correctness sweep.

use aqks_core::Engine;
use aqks_datasets::university;
use aqks_equiv::{analyze, run_shared, shared_set};
use aqks_relational::Database;
use aqks_sqlgen::{plan, plan_with_options, ExecCtx, PlanNode, PlanOptions};

use crate::plans::university_queries;
use crate::workload::{
    acmdl_database, acmdl_prime_database, acmdl_queries, tpch_database, tpch_prime_database,
    tpch_queries, EvalQuery, Scale,
};

/// Equivalence-analysis results for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadEquivBench {
    /// Workload name (`university`, `tpch`, `acmdl`, `tpch-prime`,
    /// `acmdl-prime`).
    pub workload: &'static str,
    /// Interpretations planned (before the pushdown-variant doubling).
    pub interpretations: usize,
    /// Plans analyzed (interpretations × pushdown on/off).
    pub plans: usize,
    /// Equivalence classes the plans partition into.
    pub classes: usize,
    /// Classes with two or more members.
    pub nontrivial_classes: usize,
    /// Plans beyond the first in their class — work dedup eliminates.
    pub duplicates: usize,
    /// Subtrees shared by two or more class representatives.
    pub shared_subtrees: usize,
    /// Rows flowed executing every plan individually.
    pub baseline_rows: u64,
    /// Rows flowed executing one representative per class with shared
    /// subtrees materialized once.
    pub shared_rows: u64,
    /// Failures: planning errors, canonicalization rejections, or
    /// differential mismatches between a member and its representative.
    pub errors: Vec<String>,
}

impl WorkloadEquivBench {
    /// Rows saved by deduplicated, shared execution.
    pub fn rows_saved(&self) -> u64 {
        self.baseline_rows.saturating_sub(self.shared_rows)
    }
}

fn bench_workload(
    db: &Database,
    queries: &[EvalQuery],
    workload: &'static str,
    k: usize,
) -> WorkloadEquivBench {
    let mut out = WorkloadEquivBench {
        workload,
        interpretations: 0,
        plans: 0,
        classes: 0,
        nontrivial_classes: 0,
        duplicates: 0,
        shared_subtrees: 0,
        baseline_rows: 0,
        shared_rows: 0,
        errors: Vec::new(),
    };
    let engine = match Engine::new(db.clone()) {
        Ok(e) => e,
        Err(e) => {
            out.errors.push(format!("engine: {e}"));
            return out;
        }
    };
    let mut plans_vec: Vec<PlanNode> = Vec::new();
    for q in queries {
        let generated = match engine.generate(q.text, k) {
            Ok(g) => g,
            Err(e) => {
                out.errors.push(format!("{}: generate: {e}", q.id));
                continue;
            }
        };
        for g in generated {
            out.interpretations += 1;
            match plan(&g.sql, db) {
                Ok(p) => plans_vec.push(p),
                Err(e) => out.errors.push(format!("{}: plan: {e}", q.id)),
            }
            match plan_with_options(&g.sql, db, &PlanOptions { pushdown: false }) {
                Ok(p) => plans_vec.push(p),
                Err(e) => out.errors.push(format!("{}: plan (no pushdown): {e}", q.id)),
            }
        }
    }
    out.plans = plans_vec.len();
    let analysis = match analyze(&plans_vec, db) {
        Ok(a) => a,
        Err(e) => {
            out.errors.push(format!("canonicalization rejected a planner plan: {e}"));
            return out;
        }
    };
    out.classes = analysis.classes.len();
    out.nontrivial_classes = analysis.nontrivial_classes();
    out.duplicates = analysis.duplicates();
    let set = shared_set(&analysis);
    out.shared_subtrees = set.shares.len();
    let run = match run_shared(&set, db) {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(format!("shared execution: {e}"));
            return out;
        }
    };
    out.shared_rows =
        run.plan_stats.iter().chain(run.share_stats.iter()).map(|s| s.rows_flowed()).sum();
    // Baseline: every plan individually; differential check against the
    // shared run of the member's class representative.
    for (ci, class) in analysis.classes.iter().enumerate() {
        for &m in &class.members {
            match aqks_sqlgen::run(&plans_vec[m], db, &ExecCtx::default()) {
                Ok((table, stats)) => {
                    out.baseline_rows += stats.rows_flowed();
                    if table.sorted().rows != run.tables[ci].clone().sorted().rows {
                        out.errors.push(format!(
                            "class {ci} member {m}: shared run diverged from direct execution"
                        ));
                    }
                }
                Err(e) => out.errors.push(format!("plan {m}: execute: {e}")),
            }
        }
    }
    out
}

/// Runs the equivalence benchmark over all bundled workloads with the
/// top-`k` interpretations per query.
pub fn run_equiv_bench(scale: Scale, k: usize) -> Vec<WorkloadEquivBench> {
    vec![
        bench_workload(&university::normalized(), &university_queries(), "university", k),
        bench_workload(&tpch_database(scale), &tpch_queries(), "tpch", k),
        bench_workload(&acmdl_database(scale), &acmdl_queries(), "acmdl", k),
        bench_workload(&tpch_prime_database(scale), &tpch_queries(), "tpch-prime", k),
        bench_workload(&acmdl_prime_database(scale), &acmdl_queries(), "acmdl-prime", k),
    ]
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes benchmark rows as the `BENCH_equiv.json` document.
pub fn render_json(rows: &[WorkloadEquivBench], scale: Scale, k: usize) -> String {
    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Paper => "paper-scale",
    };
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"scale\": \"{scale_name}\",\n  \"k\": {k},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"workload\": \"{}\",\n", r.workload));
        s.push_str(&format!("      \"interpretations\": {},\n", r.interpretations));
        s.push_str(&format!("      \"plans\": {},\n", r.plans));
        s.push_str(&format!("      \"classes\": {},\n", r.classes));
        s.push_str(&format!("      \"nontrivial_classes\": {},\n", r.nontrivial_classes));
        s.push_str(&format!("      \"duplicates\": {},\n", r.duplicates));
        s.push_str(&format!("      \"shared_subtrees\": {},\n", r.shared_subtrees));
        s.push_str(&format!("      \"baseline_rows\": {},\n", r.baseline_rows));
        s.push_str(&format!("      \"shared_rows\": {},\n", r.shared_rows));
        s.push_str(&format!("      \"rows_saved\": {},\n", r.rows_saved()));
        let errors: Vec<String> =
            r.errors.iter().map(|e| format!("\"{}\"", json_escape(e))).collect();
        s.push_str(&format!("      \"errors\": [{}]\n", errors.join(", ")));
        s.push_str(&format!("    }}{}\n", if i + 1 < rows.len() { "," } else { "" }));
    }
    s.push_str("  ]\n}\n");
    s
}
