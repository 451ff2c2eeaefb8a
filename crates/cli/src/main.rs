#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `aqks` — an interactive keyword-query shell over the bundled datasets.
//!
//! ```text
//! aqks --dataset tpch 'COUNT order "royal olive"'     # one-shot
//! aqks --dataset university                           # REPL
//! ```
//!
//! Options:
//!
//! * `--dataset NAME` — `university` (default), `fig2`, `fig8`, `tpch`,
//!   `acmdl`, `tpch-prime`, `acmdl-prime`
//! * `--paper-scale` — full-cardinality synthetic data
//! * `--k N` — show the top-N interpretations (default 1)
//! * `--sqak` — also run the SQAK baseline for contrast
//! * `--explain` — print the ORM schema graph and the query pattern
//! * `--threads N` — executor worker threads (default 1); results are
//!   identical at every thread count, only wall time changes
//! * `--timeout-ms N`, `--max-rows N`, `--max-patterns N`,
//!   `--max-interpretations N` — resource budget for the query; on
//!   exhaustion the completed interpretations are printed, a one-line
//!   `budget exhausted: …` diagnostic goes to stderr, and the process
//!   exits with code 3
//!
//! Subcommand `aqks check [--dataset NAME] [--sqak] [--plans] [QUERY]`
//! runs the static analyzer (`aqks-analyze`) over the SQL both engines
//! generate — for one query, or for the dataset's whole built-in
//! workload when no query is given — and exits non-zero on
//! error-severity findings. `--plans` additionally lowers every
//! interpretation to its physical plan and runs the plan verifier
//! (`aqks-plancheck`) on it, printing each plan's fingerprint. `--equiv`
//! partitions each query's interpretations into semantic equivalence
//! classes (`aqks-equiv`): plans with the same canonical fingerprint
//! are duplicate work even when their structural fingerprints differ.
//!
//! Subcommand `aqks explain [--analyze] [--shared] [--dataset NAME]
//! [QUERY]` prints the physical operator tree of each generated
//! statement with its statically inferred properties (keys, ordering,
//! row bounds) and its normalized fingerprint; `--analyze` additionally
//! executes the plan and annotates every operator with rows in/out and
//! wall time. `--shared` instead prints the deduplicated execution set:
//! one canonical plan per equivalence class, with subtrees common to
//! two or more plans elided to numbered shared-subplan references that
//! would be materialized once.
//!
//! Subcommand `aqks trace [--dataset NAME] [QUERY]` answers the query
//! with the `aqks-obs` recorder enabled and prints the pipeline span
//! tree (per-phase self/total wall times plus counters). The global
//! `--trace[=text|json|chrome]` flag does the same for ordinary one-shot
//! and REPL queries; `chrome` additionally writes a `trace_event` JSON
//! file (`--trace-out FILE`, default `aqks-trace.json`) loadable in
//! `chrome://tracing` or Perfetto. `trace --slow` instead answers the
//! queries through the ordinary (untraced) path — which files every
//! query with the always-on flight recorder — and prints the retained
//! slowest-query exemplar's span tree.
//!
//! Subcommand `aqks metrics [--prom|--json] [--dataset NAME] [QUERY]`
//! answers the query (or the dataset's built-in workload) and prints
//! the always-on metrics registry — engine phase/latency histograms,
//! per-operator rows and peak memory, guard trips — in Prometheus text
//! format v0.0.4 (the default) or as a JSON snapshot.
//!
//! Subcommand `aqks serve [--dataset NAME] [--addr HOST:PORT]
//! [--workers N] [--queue-depth N]` loads the dataset once and serves
//! it as a concurrent TCP query service (`aqks-server`): bounded
//! admission queue, per-request deadlines clamped by the budget flags,
//! typed wire errors, graceful drain on stdin EOF or `quit`.
//!
//! Subcommand `aqks client --addr HOST:PORT [--k N] [--timeout-ms N]
//! QUERY` sends one keyword query to a running server through the
//! retrying client (exponential backoff with jitter on retryable
//! errors) and prints the interpretations; a budget-degraded answer
//! exits with code 3 like a local exhausted query.
//!
//! REPL commands: `\schema` (relations), `\graph` (ORM graph), `\q`.

use std::io::{BufRead, Write};

use aqks_analyze::Analyzer;
use aqks_core::{Budget, Engine};
use aqks_datasets::{
    denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch, university, AcmdlConfig,
    TpchConfig,
};
use aqks_obs::PipelineTrace;
use aqks_relational::Database;
use aqks_sqak::Sqak;

/// Rendering of a collected [`PipelineTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum TraceFormat {
    /// Span tree as text (the default).
    Text,
    /// Structured JSON on stdout.
    Json,
    /// Text tree on stdout plus a Chrome `trace_event` file.
    Chrome,
}

impl TraceFormat {
    fn parse(v: &str) -> Result<TraceFormat, String> {
        match v {
            "text" => Ok(TraceFormat::Text),
            "json" => Ok(TraceFormat::Json),
            "chrome" => Ok(TraceFormat::Chrome),
            other => Err(format!("unknown trace format `{other}` (text|json|chrome)")),
        }
    }
}

struct Options {
    dataset: String,
    paper_scale: bool,
    k: usize,
    sqak: bool,
    explain: bool,
    check: bool,
    plans: bool,
    equiv: bool,
    shared: bool,
    explain_plan: bool,
    trace_cmd: bool,
    metrics_cmd: bool,
    serve_cmd: bool,
    client_cmd: bool,
    addr: String,
    workers: usize,
    queue_depth: usize,
    metrics_json: bool,
    slow: bool,
    analyze: bool,
    trace: Option<TraceFormat>,
    trace_out: String,
    export: Option<String>,
    timeout_ms: Option<u64>,
    max_rows: Option<u64>,
    max_patterns: Option<u64>,
    max_interpretations: Option<u64>,
    threads: usize,
    query: Option<String>,
}

impl Options {
    /// True once one of the `check`/`explain`/`trace`/`metrics`/
    /// `serve`/`client` subcommands is set.
    fn subcommand(&self) -> bool {
        self.check
            || self.explain_plan
            || self.trace_cmd
            || self.metrics_cmd
            || self.serve_cmd
            || self.client_cmd
    }

    /// The resource budget assembled from the `--timeout-ms`/`--max-*`
    /// flags; unlimited when none were given.
    fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.timeout_ms {
            b = b.with_timeout(std::time::Duration::from_millis(ms));
        }
        if let Some(n) = self.max_rows {
            b = b.with_max_rows(n);
        }
        if let Some(n) = self.max_patterns {
            b = b.with_max_patterns(n);
        }
        if let Some(n) = self.max_interpretations {
            b = b.with_max_interpretations(n);
        }
        b
    }
}

/// Exit code for a budget-exhausted query (distinct from usage errors
/// `2` and ordinary failures `1`).
const EXIT_EXHAUSTED: i32 = 3;

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        dataset: "university".into(),
        paper_scale: false,
        k: 1,
        sqak: false,
        explain: false,
        check: false,
        plans: false,
        equiv: false,
        shared: false,
        explain_plan: false,
        trace_cmd: false,
        metrics_cmd: false,
        serve_cmd: false,
        client_cmd: false,
        addr: "127.0.0.1:7878".into(),
        workers: 4,
        queue_depth: 64,
        metrics_json: false,
        slow: false,
        analyze: false,
        trace: None,
        trace_out: "aqks-trace.json".into(),
        export: None,
        timeout_ms: None,
        max_rows: None,
        max_patterns: None,
        max_interpretations: None,
        threads: 1,
        query: None,
    };
    fn num(args: &[String], i: usize, flag: &str) -> Result<u64, String> {
        args.get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a non-negative number"))
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut positional: Vec<String> = Vec::new();
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" | "-d" => {
                i += 1;
                opts.dataset = args.get(i).ok_or("--dataset needs a value")?.to_lowercase();
            }
            "--paper-scale" => opts.paper_scale = true,
            "--sqak" => opts.sqak = true,
            "--explain" => opts.explain = true,
            "--analyze" => opts.analyze = true,
            "--plans" => opts.plans = true,
            "--equiv" => opts.equiv = true,
            "--shared" => opts.shared = true,
            "--json" => opts.metrics_json = true,
            "--prom" => opts.metrics_json = false,
            "--slow" => opts.slow = true,
            "--trace" => opts.trace = Some(TraceFormat::Text),
            flag if flag.starts_with("--trace=") => {
                opts.trace = Some(TraceFormat::parse(&flag["--trace=".len()..])?);
            }
            "--trace-out" => {
                i += 1;
                opts.trace_out = args.get(i).ok_or("--trace-out needs a file")?.to_string();
            }
            "--export" => {
                i += 1;
                opts.export = Some(args.get(i).ok_or("--export needs a directory")?.to_string());
            }
            "--k" => {
                i += 1;
                opts.k = args.get(i).and_then(|v| v.parse().ok()).ok_or("--k needs a number")?;
            }
            "--timeout-ms" => {
                i += 1;
                opts.timeout_ms = Some(num(&args, i, "--timeout-ms")?);
            }
            "--max-rows" => {
                i += 1;
                opts.max_rows = Some(num(&args, i, "--max-rows")?);
            }
            "--max-patterns" => {
                i += 1;
                opts.max_patterns = Some(num(&args, i, "--max-patterns")?);
            }
            "--max-interpretations" => {
                i += 1;
                opts.max_interpretations = Some(num(&args, i, "--max-interpretations")?);
            }
            "--threads" => {
                i += 1;
                opts.threads = (num(&args, i, "--threads")? as usize).max(1);
            }
            "--addr" => {
                i += 1;
                opts.addr = args.get(i).ok_or("--addr needs HOST:PORT")?.to_string();
            }
            "--workers" => {
                i += 1;
                opts.workers = (num(&args, i, "--workers")? as usize).max(1);
            }
            "--queue-depth" => {
                i += 1;
                opts.queue_depth = num(&args, i, "--queue-depth")? as usize;
            }
            "--help" | "-h" => {
                println!("usage: aqks [check|explain|trace|metrics|serve|client] [--dataset NAME|DIR] [--paper-scale] [--k N] [--sqak] [--explain] [--analyze] [--plans] [--equiv] [--shared] [--slow] [--prom|--json] [--trace[=text|json|chrome]] [--trace-out FILE] [--export DIR] [--timeout-ms N] [--max-rows N] [--max-patterns N] [--max-interpretations N] [--threads N] [--addr HOST:PORT] [--workers N] [--queue-depth N] [QUERY]");
                std::process::exit(0);
            }
            "check" if positional.is_empty() && !opts.subcommand() => opts.check = true,
            "explain" if positional.is_empty() && !opts.subcommand() => opts.explain_plan = true,
            "trace" if positional.is_empty() && !opts.subcommand() => opts.trace_cmd = true,
            "metrics" if positional.is_empty() && !opts.subcommand() => opts.metrics_cmd = true,
            "serve" if positional.is_empty() && !opts.subcommand() => opts.serve_cmd = true,
            "client" if positional.is_empty() && !opts.subcommand() => opts.client_cmd = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    if !positional.is_empty() {
        opts.query = Some(positional.join(" "));
    }
    Ok(opts)
}

fn load_dataset(name: &str, paper_scale: bool) -> Result<Database, String> {
    let tpch_cfg = if paper_scale { TpchConfig::paper_scale() } else { TpchConfig::small() };
    let acmdl_cfg = if paper_scale { AcmdlConfig::paper_scale() } else { AcmdlConfig::small() };
    Ok(match name {
        "university" | "uni" => university::normalized(),
        "fig2" => university::unnormalized_fig2(),
        "fig8" | "enrolment" => university::enrolment_fig8(),
        "hobbies" => university::with_hobbies(),
        "tpch" => generate_tpch(&tpch_cfg),
        "acmdl" => generate_acmdl(&acmdl_cfg),
        "tpch-prime" | "tpch'" => denormalize_tpch(&generate_tpch(&tpch_cfg)),
        "acmdl-prime" | "acmdl'" => denormalize_acmdl(&generate_acmdl(&acmdl_cfg)),
        // Anything path-like imports a schema.txt + CSV directory.
        other if other.contains('/') || std::path::Path::new(other).is_dir() => {
            aqks_relational::import_dir(std::path::Path::new(other))
                .map_err(|e| format!("import `{other}`: {e}"))?
        }
        other => return Err(format!("unknown dataset `{other}`")),
    })
}

/// Prints a collected trace in the requested format; `Chrome` also
/// writes the `trace_event` file to `out`.
fn emit_trace(trace: &PipelineTrace, fmt: TraceFormat, out: &str) {
    match fmt {
        TraceFormat::Text => print!("{}", trace.render_text()),
        TraceFormat::Json => print!("{}", trace.to_json()),
        TraceFormat::Chrome => {
            print!("{}", trace.render_text());
            match std::fs::write(out, trace.to_chrome_json()) {
                Ok(()) => {
                    eprintln!("wrote Chrome trace to {out} (open in chrome://tracing or Perfetto)")
                }
                Err(e) => eprintln!("cannot write {out}: {e}"),
            }
        }
    }
}

/// Answers one query, printing interpretations (and optionally the
/// trace and the SQAK baseline). Returns the process exit code: `0` on
/// success, `1` on error, [`EXIT_EXHAUSTED`] when the budget tripped.
#[allow(clippy::too_many_arguments)]
fn run_query(
    engine: &Engine,
    sqak: Option<&Sqak>,
    query: &str,
    k: usize,
    explain: bool,
    trace: Option<TraceFormat>,
    trace_out: &str,
    budget: &Budget,
) -> i32 {
    if explain {
        match engine.explain(query) {
            Ok(ex) => {
                println!("── interpretation trace");
                for t in &ex.terms {
                    let kind = if t.is_operator { "operator" } else { "term" };
                    if t.matches.is_empty() {
                        println!("  {kind} {:<12}", t.term);
                    } else {
                        println!("  {kind} {:<12} -> {}", t.term, t.matches.join(" | "));
                    }
                }
                println!("  {} pattern(s) generated", ex.patterns.len());
            }
            Err(e) => println!("explain error: {e}"),
        }
    }
    let answered = match trace {
        Some(_) => engine.answer_traced_governed(query, k, budget).map(|(g, t)| (g, Some(t))),
        None => engine.answer_governed(query, k, budget).map(|g| (g, None)),
    };
    let mut code = 0;
    match answered {
        Ok((governed, collected)) => {
            for (rank, a) in governed.value.iter().enumerate() {
                println!("── interpretation #{}", rank + 1);
                if explain {
                    println!("pattern: {}", a.pattern_description);
                }
                println!("{}", a.sql_text);
                println!("{}", a.result);
                println!("({})", a.stats);
            }
            if let (Some(fmt), Some(t)) = (trace, collected) {
                println!("── pipeline trace");
                emit_trace(&t, fmt, trace_out);
            }
            if let Some(ex) = governed.exhaustion {
                eprintln!("budget exhausted: {ex}");
                code = EXIT_EXHAUSTED;
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            code = 1;
        }
    }
    if let Some(sqak) = sqak {
        println!("── SQAK baseline");
        match sqak.generate(query) {
            Ok(g) => {
                println!("{}", g.sql_text);
                match sqak.answer(query) {
                    Ok(r) => println!("{r}"),
                    Err(e) => println!("execution error: {e}"),
                }
            }
            Err(e) => println!("N.A.: {e}"),
        }
    }
    code
}

/// The built-in workload `aqks check` sweeps when no query is given.
fn check_workload(dataset: &str) -> Vec<String> {
    match dataset {
        "tpch" | "tpch-prime" | "tpch'" => {
            aqks_eval::tpch_queries().iter().map(|q| q.text.to_string()).collect()
        }
        "acmdl" | "acmdl-prime" | "acmdl'" => {
            aqks_eval::acmdl_queries().iter().map(|q| q.text.to_string()).collect()
        }
        "fig2" => vec!["Engineering COUNT Department".into()],
        "fig8" | "enrolment" => vec!["Green George COUNT Code".into()],
        _ => vec![
            "Green SUM Credit".into(),
            "Java SUM Price".into(),
            "COUNT Lecturer GROUPBY Course".into(),
        ],
    }
}

/// Prints the physical plan of every interpretation of `queries`; with
/// `analyze`, executes each plan and annotates operators with measured
/// row counts and wall time. Returns the number of failed queries.
fn run_explain(engine: &Engine, queries: &[String], k: usize, analyze: bool) -> usize {
    let ctx = aqks_sqlgen::ExecCtx::with_threads(engine.threads());
    let db = engine.database();
    let mut failures = 0;
    for q in queries {
        println!("── explain `{q}`");
        let generated = match engine.generate(q, k) {
            Ok(g) => g,
            Err(e) => {
                println!("  error: {e}");
                failures += 1;
                continue;
            }
        };
        for (rank, g) in generated.iter().enumerate() {
            println!("interpretation #{}", rank + 1);
            println!("{}", g.sql_text);
            let plan = match aqks_sqlgen::plan(&g.sql, db) {
                Ok(p) => p,
                Err(e) => {
                    println!("  plan error: {e}");
                    failures += 1;
                    continue;
                }
            };
            // Verify first: explain output shows each operator's
            // statically inferred keys, ordering, and row bounds.
            let verified = match aqks_plancheck::verify(&plan, db, Some(&g.sql)) {
                Ok(v) => v,
                Err(e) => {
                    println!("  plan verification error: {e}");
                    failures += 1;
                    continue;
                }
            };
            println!("plan fingerprint: {}", aqks_plancheck::fingerprint_hex(&plan));
            let rendered = if analyze {
                match aqks_sqlgen::run(&plan, db, &ctx) {
                    Ok((_, stats)) => aqks_sqlgen::render_plan_with_stats(&plan, &stats),
                    Err(e) => {
                        println!("  execution error: {e}");
                        failures += 1;
                        continue;
                    }
                }
            } else {
                aqks_plancheck::render_verified(&plan, &verified)
            };
            println!("{rendered}");
        }
    }
    failures
}

/// Plans every interpretation of every query, partitions the plans into
/// semantic equivalence classes, and prints the deduplicated execution
/// set: each class representative's canonical tree, with subtrees
/// common to two or more representatives elided to numbered
/// shared-subplan references. Returns the number of failures.
fn run_explain_shared(engine: &Engine, queries: &[String], k: usize) -> usize {
    let db = engine.database();
    let mut failures = 0;
    let mut plans = Vec::new();
    for q in queries {
        println!("── explain --shared `{q}`");
        match engine.interpretation_plans(q, k) {
            Ok(pairs) => {
                for (rank, (g, p)) in pairs.into_iter().enumerate() {
                    println!(
                        "interpretation #{} (plan #{}): {}",
                        rank + 1,
                        plans.len(),
                        g.sql_text
                    );
                    plans.push(p);
                }
            }
            Err(e) => {
                println!("  error: {e}");
                failures += 1;
            }
        }
    }
    match aqks_equiv::analyze(&plans, db) {
        Ok(analysis) => {
            println!(
                "── shared execution set: {} plan(s) -> {} class(es), {} duplicate(s) elided",
                plans.len(),
                analysis.classes.len(),
                analysis.duplicates()
            );
            for (ci, class) in analysis.classes.iter().enumerate() {
                if class.members.len() > 1 {
                    let members: Vec<String> =
                        class.members.iter().map(|m| format!("#{m}")).collect();
                    println!(
                        "class {ci} [{:016x}]: plans {}",
                        class.fingerprint,
                        members.join(", ")
                    );
                }
            }
            print!("{}", aqks_equiv::render_shared(&aqks_equiv::shared_set(&analysis)));
        }
        Err(e) => {
            println!("  equivalence analysis error: {e}");
            failures += 1;
        }
    }
    failures
}

/// Answers each query with tracing enabled and prints the pipeline span
/// tree. Returns the number of failures (errors or empty span trees —
/// the latter would mean the pipeline silently lost its instrumentation,
/// which CI guards against).
fn run_trace(
    engine: &Engine,
    queries: &[String],
    k: usize,
    fmt: TraceFormat,
    trace_out: &str,
) -> usize {
    let mut failures = 0;
    for q in queries {
        println!("── trace `{q}`");
        match engine.answer_traced(q, k) {
            Ok((answers, trace)) => {
                if trace.is_empty() {
                    println!("  error: empty span tree");
                    failures += 1;
                    continue;
                }
                for (rank, a) in answers.iter().enumerate() {
                    println!("interpretation #{}: {}", rank + 1, a.sql_text);
                    println!("({})", a.stats);
                }
                emit_trace(&trace, fmt, trace_out);
            }
            Err(e) => {
                println!("  error: {e}");
                failures += 1;
            }
        }
    }
    failures
}

/// Answers each query through the ordinary (untraced) path — every call
/// is metered by the always-on registry and filed with the flight
/// recorder — then prints the retained slowest-query exemplar's span
/// tree. Returns the number of failures.
fn run_trace_slow(
    engine: &Engine,
    queries: &[String],
    k: usize,
    fmt: TraceFormat,
    trace_out: &str,
) -> usize {
    let mut failures = 0;
    for q in queries {
        if let Err(e) = engine.answer(q, k) {
            println!("── trace --slow `{q}`");
            println!("  error: {e}");
            failures += 1;
        }
    }
    match aqks_obs::flight::global().slowest() {
        Some(entry) => {
            println!(
                "── slowest query `{}` ({} µs total{})",
                entry.query,
                entry.total_ns / 1_000,
                if entry.tripped.is_some() { ", budget tripped" } else { "" }
            );
            if let Some(t) = &entry.tripped {
                println!("tripped: {t}");
            }
            emit_trace(&entry.trace, fmt, trace_out);
        }
        None => {
            println!("  error: flight recorder is empty (metrics disabled?)");
            failures += 1;
        }
    }
    failures
}

/// Answers each query (feeding the always-on registry), then prints the
/// registry exposition: Prometheus text format v0.0.4, or a JSON
/// snapshot with `--json`. Returns the number of failures.
fn run_metrics(engine: &Engine, queries: &[String], k: usize, json: bool) -> usize {
    let mut failures = 0;
    for q in queries {
        if let Err(e) = engine.answer(q, k) {
            eprintln!("error answering `{q}`: {e}");
            failures += 1;
        }
    }
    let snapshot = aqks_obs::metrics::global().snapshot();
    if json {
        print!("{}", aqks_obs::expo::render_json(&snapshot));
    } else {
        print!("{}", aqks_obs::expo::render_prometheus(&snapshot));
    }
    failures
}

/// Semantic-equivalence check for one query's interpretation set: each
/// interpretation is planned with and without predicate pushdown and
/// both variants are canonicalized (`aqks-equiv`) — a pair that fails
/// to converge to one equivalence class, or a planner plan the
/// canonicalizer cannot certify, is an error. Classes spanning several
/// interpretations are reported as duplicate execution work. Returns
/// the error count.
fn check_equiv(generated: &[aqks_core::GeneratedSql], db: &Database) -> usize {
    let mut errors = 0usize;
    let mut flat: Vec<aqks_sqlgen::PlanNode> = Vec::new();
    let mut owner: Vec<usize> = Vec::new(); // plan index -> interpretation rank
    for (rank, g) in generated.iter().enumerate() {
        let on = aqks_sqlgen::plan(&g.sql, db);
        let off = aqks_sqlgen::plan_with_options(
            &g.sql,
            db,
            &aqks_sqlgen::PlanOptions { pushdown: false },
        );
        match (on, off) {
            (Ok(a), Ok(b)) => {
                flat.push(a);
                owner.push(rank);
                flat.push(b);
                owner.push(rank);
            }
            (Err(e), _) | (_, Err(e)) => {
                errors += 1;
                println!("  equiv #{}: plan error: {e}", rank + 1);
            }
        }
    }
    let analysis = match aqks_equiv::analyze(&flat, db) {
        Ok(a) => a,
        Err(e) => {
            // A planner-produced plan the canonicalizer cannot certify
            // is a bug in one of the two.
            errors += 1;
            println!("  equiv: REJECTED {e}");
            return errors;
        }
    };
    let mut class_of = vec![0usize; flat.len()];
    for (ci, class) in analysis.classes.iter().enumerate() {
        for &m in &class.members {
            class_of[m] = ci;
        }
    }
    let mut diverged = 0usize;
    for i in (0..flat.len()).step_by(2) {
        if class_of[i] != class_of[i + 1] {
            errors += 1;
            diverged += 1;
            println!(
                "  equiv #{}: pushdown variants did not converge to one canonical form",
                owner[i] + 1
            );
        }
    }
    println!(
        "  equiv: {} interpretation(s) -> {} class(es){}",
        generated.len(),
        analysis.classes.len(),
        if diverged == 0 { "; pushdown variants converge" } else { "" }
    );
    for (ci, class) in analysis.classes.iter().enumerate() {
        let interps: std::collections::BTreeSet<usize> =
            class.members.iter().map(|&m| owner[m]).collect();
        if interps.len() > 1 {
            let names: Vec<String> = interps.iter().map(|r| format!("#{}", r + 1)).collect();
            println!(
                "    class {ci} [{:016x}]: interpretations {} are semantically identical",
                class.fingerprint,
                names.join(", ")
            );
        }
    }
    errors
}

/// Statically analyzes the SQL both engines generate for `queries`;
/// with `plans`, additionally lowers each interpretation to a physical
/// plan and runs the plan verifier on it. Returns the number of
/// error-severity findings.
fn run_check(
    engine: &Engine,
    sqak: Option<&Sqak>,
    queries: &[String],
    k: usize,
    plans: bool,
    equiv: bool,
) -> usize {
    let schema = engine.database().schema();
    let db = engine.database();
    let mut errors = 0;
    for q in queries {
        println!("── check `{q}`");
        match engine.generate(q, k) {
            Ok(generated) => {
                for (rank, g) in generated.iter().enumerate() {
                    let verdict = if g.diagnostics.is_clean() {
                        "clean".to_string()
                    } else {
                        g.diagnostics.summary()
                    };
                    println!("  engine #{}: {verdict}", rank + 1);
                    errors += g.diagnostics.error_count();
                    if !g.diagnostics.is_clean() {
                        for line in g.diagnostics.render(&g.sql).lines() {
                            println!("    {line}");
                        }
                    }
                    if plans {
                        match aqks_sqlgen::plan(&g.sql, db) {
                            Ok(p) => match aqks_plancheck::verify(&p, db, Some(&g.sql)) {
                                Ok(_) => println!(
                                    "  plan #{}: verified (fingerprint {})",
                                    rank + 1,
                                    aqks_plancheck::fingerprint_hex(&p)
                                ),
                                Err(e) => {
                                    errors += 1;
                                    println!("  plan #{}: REJECTED {e}", rank + 1);
                                }
                            },
                            Err(e) => {
                                errors += 1;
                                println!("  plan #{}: plan error: {e}", rank + 1);
                            }
                        }
                    }
                }
                // Semantic-equivalence check: each interpretation is
                // planned with and without predicate pushdown, and the
                // canonicalizer must prove the two variants are the same
                // plan (one class per interpretation). Interpretations
                // sharing a class are flagged — they are the same query
                // in different clothes, i.e. duplicate execution work.
                if equiv {
                    errors += check_equiv(&generated, db);
                }
            }
            // Debug builds reject error findings inside `generate`.
            Err(aqks_core::CoreError::Analysis(m)) => {
                errors += 1;
                println!("  engine: rejected\n    {}", m.replace('\n', "\n    "));
            }
            // A query the engine cannot interpret at all (parse error,
            // unmatched term) is a check failure, not a shrug — malformed
            // input must not exit 0.
            Err(e) => {
                errors += 1;
                println!("  engine: error ({e})");
            }
        }
        if let Some(sqak) = sqak {
            match sqak.generate(q) {
                Ok(g) => {
                    let report = Analyzer::new(&schema).analyze(&g.sql);
                    let verdict =
                        if report.is_clean() { "clean".to_string() } else { report.summary() };
                    println!("  sqak: {verdict}");
                    errors += report.error_count();
                    if !report.is_clean() {
                        for line in report.render(&g.sql).lines() {
                            println!("    {line}");
                        }
                    }
                }
                Err(e) => println!("  sqak: N.A. ({e})"),
            }
        }
    }
    errors
}

/// `aqks serve`: loads the dataset once and serves it over TCP until
/// stdin reaches EOF (or `quit` is typed), then drains cleanly. The
/// budget flags become server policy: `--timeout-ms` is the default
/// per-request deadline, `--max-rows`/`--max-patterns` are hard caps
/// client hints cannot exceed.
fn run_serve(engine: Engine, opts: &Options) -> i32 {
    let mut cfg = aqks_server::ServerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        queue_depth: opts.queue_depth,
        ..aqks_server::ServerConfig::default()
    };
    if let Some(ms) = opts.timeout_ms {
        cfg.default_deadline = std::time::Duration::from_millis(ms);
    }
    cfg.max_rows = opts.max_rows;
    cfg.max_patterns = opts.max_patterns;
    let server = match aqks_server::Server::start(std::sync::Arc::new(engine), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind `{}`: {e}", opts.addr);
            return 1;
        }
    };
    eprintln!(
        "serving on {} ({} worker(s), queue depth {}); EOF or `quit` to drain",
        server.addr(),
        opts.workers,
        opts.queue_depth
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let stats = server.stats();
    server.shutdown();
    eprintln!(
        "drained: {} accepted, {} ok ({} degraded), {} error(s), {} shed",
        stats.accepted,
        stats.ok,
        stats.degraded,
        stats.errors,
        stats.shed()
    );
    0
}

/// `aqks client`: sends one keyword query to a running `aqks serve`
/// with the shipped retrying client and prints the interpretations.
/// Exit codes: 0 ok, 1 typed server/transport error, 2 usage,
/// [`EXIT_EXHAUSTED`] when the answer degraded under its budget.
fn run_client(opts: &Options) -> i32 {
    use std::net::ToSocketAddrs;
    let Some(query) = &opts.query else {
        eprintln!(
            "error: `aqks client` needs a query, e.g. aqks client --addr {} 'Green SUM Credit'",
            opts.addr
        );
        return 2;
    };
    let addr = match opts.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("error: cannot resolve `{}`", opts.addr);
            return 2;
        }
    };
    let mut client = aqks_server::Client::connect(addr, aqks_server::ClientConfig::default());
    let mut request = aqks_server::Request::new(query.clone());
    request.k = opts.k;
    request.timeout_ms = opts.timeout_ms;
    request.max_rows = opts.max_rows;
    request.max_patterns = opts.max_patterns;
    request.max_interps = opts.max_interpretations;
    match client.query(&request) {
        Ok(answer) => {
            for (rank, interp) in answer.interpretations.iter().enumerate() {
                println!("── interpretation #{}", rank + 1);
                println!("{}", interp.sql);
                println!("{}", interp.columns.join(" | "));
                for row in &interp.rows {
                    println!("{}", row.join(" | "));
                }
            }
            eprintln!("({} µs server time)", answer.server_us);
            client.quit();
            if let Some(d) = &answer.degraded {
                eprintln!("budget exhausted: {d} (partial={})", answer.partial);
                return EXIT_EXHAUSTED;
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            client.quit();
            1
        }
    }
}

fn main() {
    // One-line diagnostics instead of a backtrace dump if anything gets
    // past the engine's panic shield; the process still exits non-zero.
    std::panic::set_hook(Box::new(|info| {
        let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
            s
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.as_str()
        } else {
            "unknown panic"
        };
        eprintln!("error: internal panic: {msg}");
    }));
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    // `client` talks to a running server; it needs no local dataset.
    if opts.client_cmd {
        std::process::exit(run_client(&opts));
    }

    let db = match load_dataset(&opts.dataset, opts.paper_scale) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!("dataset `{}`: {} tuples", opts.dataset, db.total_rows());
    if let Some(dir) = &opts.export {
        if let Err(e) = aqks_relational::export_dir(&db, std::path::Path::new(dir)) {
            eprintln!("export failed: {e}");
            std::process::exit(1);
        }
        eprintln!("exported schema.txt + CSVs to {dir}");
    }

    let sqak = opts.sqak.then(|| Sqak::new(db.clone()));
    let mut engine = match Engine::new(db) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    engine.set_threads(opts.threads);
    if engine.is_unnormalized() {
        eprintln!("(unnormalized database: querying through the normalized view)");
    }

    if opts.serve_cmd {
        std::process::exit(run_serve(engine, &opts));
    }

    if opts.explain_plan {
        let queries = opts
            .query
            .as_ref()
            .map(|q| vec![q.clone()])
            .unwrap_or_else(|| check_workload(&opts.dataset));
        let failures = if opts.shared {
            run_explain_shared(&engine, &queries, opts.k.max(3))
        } else {
            run_explain(&engine, &queries, opts.k, opts.analyze)
        };
        if failures > 0 {
            eprintln!("explain failed for {failures} quer(y/ies)");
            std::process::exit(1);
        }
        return;
    }

    if opts.trace_cmd {
        let queries = opts
            .query
            .as_ref()
            .map(|q| vec![q.clone()])
            .unwrap_or_else(|| check_workload(&opts.dataset));
        let fmt = opts.trace.unwrap_or(TraceFormat::Text);
        let failures = if opts.slow {
            run_trace_slow(&engine, &queries, opts.k, fmt, &opts.trace_out)
        } else {
            run_trace(&engine, &queries, opts.k, fmt, &opts.trace_out)
        };
        if failures > 0 {
            eprintln!("trace failed for {failures} quer(y/ies)");
            std::process::exit(1);
        }
        return;
    }

    if opts.metrics_cmd {
        let queries = opts
            .query
            .as_ref()
            .map(|q| vec![q.clone()])
            .unwrap_or_else(|| check_workload(&opts.dataset));
        let failures = run_metrics(&engine, &queries, opts.k, opts.metrics_json);
        if failures > 0 {
            eprintln!("metrics failed for {failures} quer(y/ies)");
            std::process::exit(1);
        }
        return;
    }

    if opts.check {
        let queries = opts
            .query
            .as_ref()
            .map(|q| vec![q.clone()])
            .unwrap_or_else(|| check_workload(&opts.dataset));
        let errors =
            run_check(&engine, sqak.as_ref(), &queries, opts.k.max(3), opts.plans, opts.equiv);
        if errors > 0 {
            eprintln!("check failed: {errors} error finding(s)");
            std::process::exit(1);
        }
        eprintln!("check passed: no error findings");
        return;
    }

    let budget = opts.budget();
    if let Some(q) = &opts.query {
        let code = run_query(
            &engine,
            sqak.as_ref(),
            q,
            opts.k,
            opts.explain,
            opts.trace,
            &opts.trace_out,
            &budget,
        );
        std::process::exit(code);
    }

    // REPL.
    eprintln!("enter keyword queries; \\schema, \\graph, \\q to quit");
    let stdin = std::io::stdin();
    loop {
        eprint!("aqks> ");
        std::io::stderr().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        match line {
            "" => continue,
            "\\q" | "\\quit" | "exit" => break,
            "\\schema" => {
                for rel in &engine.database().schema().relations {
                    let attrs: Vec<&str> = rel.attr_names().collect();
                    println!("{}({})", rel.name, attrs.join(", "));
                }
            }
            "\\graph" => println!("{}", engine.orm_graph().describe()),
            q => {
                // The REPL reports errors/exhaustion inline and carries on.
                run_query(
                    &engine,
                    sqak.as_ref(),
                    q,
                    opts.k,
                    opts.explain,
                    opts.trace,
                    &opts.trace_out,
                    &budget,
                );
            }
        }
    }
}
