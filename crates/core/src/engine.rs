//! The end-to-end engine (Algorithm 2).
//!
//! [`Engine::new`] inspects the database: if every relation is in 3NF
//! (under its declared FDs) the ORM schema graph is built directly on the
//! schema; otherwise Algorithm 1 builds the normalized view `D'` first
//! and everything — matching, pattern generation, translation — runs over
//! `D'`, with the final SQL mapped back to the original relations and
//! simplified by the Section 4.1 rewrite rules.
//!
//! [`Engine::generate`] produces the ranked SQL statements (what
//! Figure 11 times); [`Engine::ask`] additionally executes them, under a
//! budget and optionally traced — [`Engine::answer`] and
//! [`Engine::answer_traced`] are its two common shapes.

use aqks_analyze::Report;
use aqks_guard::{Budget, Exhaustion, Governor};
use aqks_obs::metrics::{Counter, Gauge, Histogram, LabeledHistogram, Unit};
use aqks_obs::{PipelineTrace, Recorder};
use aqks_orm::OrmGraph;
use aqks_relational::{Database, DatabaseSchema, NormalizedView};
use aqks_sqlgen::{ExecStats, ResultTable, SelectStatement};

use crate::annotate::disambiguate;
use crate::error::CoreError;
use crate::matching::{Matcher, TermMatch, TermRole};
use crate::pattern::{generate_patterns, QueryPattern};
use crate::query::{KeywordQuery, Operator, Term};
use crate::rank::rank_patterns;
use crate::translate::{translate_ex, TranslateOptions};
use crate::unnormalized::{rewrite, RewriteOptions};

/// Answered keyword queries (every [`Engine::ask`] call, traced or not,
/// made while metrics are enabled).
static QUERIES: Counter = Counter::new("aqks_engine_queries");

/// End-to-end [`Engine::ask`] latency.
static ANSWER_NS: Histogram = Histogram::new("aqks_engine_answer_ns", Unit::Nanos);

/// Total result rows per answered query, summed over interpretations.
static RESULT_ROWS: Histogram = Histogram::new("aqks_engine_result_rows", Unit::Count);

/// Per-phase latency, labeled by pipeline phase name. Each occurrence
/// of a phase span is one sample (`plan`/`exec` run once per
/// interpretation, the front-end phases once per query).
static PHASE_NS: LabeledHistogram =
    LabeledHistogram::new("aqks_engine_phase_ns", "phase", Unit::Nanos);

/// Entries currently held by the global flight recorder (ring +
/// out-of-ring exemplars).
static FLIGHT_RETAINED: Gauge = Gauge::new("aqks_flight_retained");

/// Maps a span name to its static phase label; `None` for spans that
/// are not top-level pipeline phases. The label set is closed so the
/// labeled histogram's cardinality is bounded by the pipeline's shape.
fn phase_label(name: &str) -> Option<&'static str> {
    Some(match name {
        "parse" => "parse",
        "match" => "match",
        "pattern" => "pattern",
        "annotate" => "annotate",
        "rank" => "rank",
        "translate" => "translate",
        "analyze" => "analyze",
        "plan" => "plan",
        "plancheck" => "plancheck",
        "exec" => "exec",
        "guard" => "guard",
        _ => return None,
    })
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Translation rules (ablation switches).
    pub translate: TranslateOptions,
    /// Rewrite rules for unnormalized databases (ablation switches).
    pub rewrite: RewriteOptions,
    /// Skip the Section 4.1 rewriting entirely when true.
    pub skip_rewrites: bool,
    /// Run instance-level FD discovery before deciding whether the
    /// database is normalized — for unnormalized databases whose schema
    /// declares no FDs (the paper assumes FDs are given; a deployed
    /// system has to mine them).
    pub discover_fds: bool,
}

/// A generated (not yet executed) interpretation.
#[derive(Debug, Clone)]
pub struct GeneratedSql {
    /// The annotated query pattern.
    pub pattern: QueryPattern,
    /// The SQL statement.
    pub sql: SelectStatement,
    /// Rendered SQL text.
    pub sql_text: String,
    /// The pattern's rank key (smaller ranks first); interpretations are
    /// returned in rank order.
    pub score: crate::rank::RankKey,
    /// Findings of the static analyzer (`aqks-analyze`) on `sql`. Debug
    /// builds refuse to return statements with error-severity findings;
    /// release builds record them here.
    pub diagnostics: Report,
}

/// An executed interpretation.
#[derive(Debug, Clone)]
pub struct Interpretation {
    /// Human-readable pattern description.
    pub pattern_description: String,
    /// The SQL statement.
    pub sql: SelectStatement,
    /// Rendered SQL text.
    pub sql_text: String,
    /// The answer rows (deterministically sorted).
    pub result: ResultTable,
    /// Per-operator execution metrics of the physical plan that produced
    /// [`Interpretation::result`] (see [`aqks_sqlgen::render_plan_with_stats`]).
    pub stats: ExecStats,
}

/// What one [`Engine::ask`] call asks for.
#[derive(Debug, Clone)]
pub struct Request {
    /// How many top-ranked interpretations to execute.
    pub k: usize,
    /// Resource limits for the call; [`Budget::unlimited`] installs no
    /// governor at all.
    pub budget: Budget,
    /// Return the call's [`PipelineTrace`] in [`Answer::trace`].
    pub trace: bool,
}

impl Request {
    /// The top-`k` interpretations, unlimited and untraced; set the
    /// other fields with struct-update syntax.
    pub fn new(k: usize) -> Request {
        Request { k, budget: Budget::unlimited(), trace: false }
    }
}

/// The result of [`Engine::ask`].
#[derive(Debug, Clone)]
pub struct Answer {
    /// The executed interpretations in rank order — on a budget trip,
    /// those that completed before it (possibly none).
    pub interpretations: Vec<Interpretation>,
    /// Which budget tripped, where, and whether `interpretations` is
    /// non-empty; `None` when the call completed within its budget.
    pub exhaustion: Option<Exhaustion>,
    /// The pipeline trace, when [`Request::trace`] asked for it.
    pub trace: Option<PipelineTrace>,
}

/// How one query term matched the database (see [`Engine::explain`]).
#[derive(Debug, Clone)]
pub struct TermReport {
    /// The term's text (operators in their keyword form).
    pub term: String,
    /// True for aggregate/GROUPBY operators.
    pub is_operator: bool,
    /// Human-readable descriptions of each match.
    pub matches: Vec<String>,
}

/// One ranked interpretation in an [`Explanation`].
#[derive(Debug, Clone)]
pub struct PatternReport {
    /// One-line pattern description.
    pub description: String,
    /// Graphviz rendering of the pattern.
    pub dot: String,
    /// The rank key (smaller ranks first).
    pub score: crate::rank::RankKey,
}

/// The interpretation trace of a query (see [`Engine::explain`]).
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Per-term match reports, in query order.
    pub terms: Vec<TermReport>,
    /// All generated patterns, ranked best-first.
    pub patterns: Vec<PatternReport>,
}

/// What [`Engine::front_end`] hands on: the parsed query, each term's
/// matches (in query order), and the ranked patterns, best first.
struct FrontEnd {
    query: KeywordQuery,
    matches: Vec<Vec<TermMatch>>,
    ranked: Vec<QueryPattern>,
}

/// Per-thread trace recorders. Every OS thread calling into a shared
/// engine gets its own lazily-created [`Recorder`], so concurrent
/// `answer` calls — the query server runs many workers over one
/// `Arc<Engine>` — never steal each other's spans, traces, or always-on
/// observations. Entries are created on first use and live for the
/// engine's lifetime; worker pools are fixed-size, so the map stays
/// small and the per-call cost is one short-held lock.
struct ThreadRecorders {
    map: std::sync::Mutex<std::collections::HashMap<std::thread::ThreadId, Recorder>>,
}

impl ThreadRecorders {
    fn new() -> ThreadRecorders {
        ThreadRecorders { map: std::sync::Mutex::new(std::collections::HashMap::new()) }
    }

    /// The calling thread's recorder (created disabled on first use).
    fn get(&self) -> Recorder {
        let id = std::thread::current().id();
        let mut map = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        map.entry(id).or_insert_with(Recorder::disabled).clone()
    }
}

/// The semantic keyword-search engine.
///
/// `Engine` is `Send + Sync`: after construction every field is either
/// immutable (schema, ORM graph, inverted index) or behind a lock (the
/// per-thread recorder map), so one engine can be shared across a
/// worker pool via `Arc` — the query server does exactly that.
pub struct Engine {
    db: Database,
    original_schema: DatabaseSchema,
    namespace: DatabaseSchema,
    graph: OrmGraph,
    matcher: Matcher,
    view: Option<NormalizedView>,
    options: EngineOptions,
    /// Worker threads for plan execution (1 = every operator runs on
    /// the calling thread).
    threads: usize,
    /// Per-thread pipeline tracing sinks; disabled by default, so every
    /// span below costs one atomic load until someone asks for a trace.
    recorders: ThreadRecorders,
}

/// Compile-time proof that a shared engine can cross a worker-pool
/// boundary: a future non-`Sync` interior cache is a build error here,
/// not a data race in production (mirrors `sqlgen::ops`'s asserts).
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Engine>();
const _: () = assert_send_sync::<std::sync::Arc<Engine>>();
const _: () = assert_send_sync::<Answer>();
const _: () = assert_send_sync::<Interpretation>();
const _: () = assert_send_sync::<CoreError>();

impl Engine {
    /// Builds an engine with default options.
    pub fn new(db: Database) -> Result<Engine, CoreError> {
        Engine::with_options(db, EngineOptions::default())
    }

    /// Builds an engine with explicit options.
    pub fn with_options(mut db: Database, options: EngineOptions) -> Result<Engine, CoreError> {
        if options.discover_fds {
            db.discover_and_declare_fds(&aqks_relational::DiscoveryOptions::default());
        }
        let schema = db.schema();
        if NormalizedView::is_normalized(&schema) {
            let graph = OrmGraph::build(&schema)?;
            let matcher = Matcher::normalized(&db);
            Ok(Engine {
                db,
                original_schema: schema.clone(),
                namespace: schema,
                graph,
                matcher,
                view: None,
                options,
                threads: 1,
                recorders: ThreadRecorders::new(),
            })
        } else {
            let view = NormalizedView::build(&schema);
            let namespace = view.schema();
            let graph = OrmGraph::build(&namespace)?;
            let matcher = Matcher::unnormalized(&db, view.clone());
            Ok(Engine {
                db,
                original_schema: schema,
                namespace,
                graph,
                matcher,
                view: Some(view),
                options,
                threads: 1,
                recorders: ThreadRecorders::new(),
            })
        }
    }

    /// Sets the worker thread count for plan execution. Results are
    /// identical at every value (the executor's merge orders are
    /// deterministic); only wall time changes. Clamped to at least 1.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker thread count for plan execution.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the database required a normalized view (Section 4).
    pub fn is_unnormalized(&self) -> bool {
        self.view.is_some()
    }

    /// The ORM schema graph the engine works over.
    pub fn orm_graph(&self) -> &OrmGraph {
        &self.graph
    }

    /// The pattern-namespace schema (`D` or `D'`).
    pub fn namespace(&self) -> &DatabaseSchema {
        &self.namespace
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The calling thread's trace recorder for this engine. Disabled
    /// (and effectively free) outside [`Engine::ask`], which enables it
    /// for the call when metrics are on or a trace was requested.
    /// Recorders are per thread, so concurrent callers on a shared
    /// engine observe independently.
    fn recorder(&self) -> Recorder {
        self.recorders.get()
    }

    /// Parses, matches, generates, ranks, and translates — everything but
    /// execution. This is the work Figure 11 measures.
    ///
    /// Library panics are caught at this boundary and surface as
    /// [`CoreError::Internal`].
    pub fn generate(&self, query: &str, k: usize) -> Result<Vec<GeneratedSql>, CoreError> {
        shielded(|| self.generate_inner(query, k))
    }

    /// The front end shared by generation and [`Engine::explain`]:
    /// parse, match every term, enumerate, annotate, and rank the
    /// patterns (best first).
    fn front_end(&self, query: &str) -> Result<FrontEnd, CoreError> {
        let rec = self.recorder();
        let query = {
            let _s = rec.span("parse");
            KeywordQuery::parse(query)?
        };
        let matches = {
            let s = rec.span("match");
            let matches = self.term_matches(&query)?;
            s.add("matches.total", matches.iter().map(Vec::len).sum::<usize>() as u64);
            matches
        };
        let patterns = {
            let s = rec.span("pattern");
            let patterns = generate_patterns(&query, &matches, &self.graph, &self.namespace)?;
            s.add("patterns.generated", patterns.len() as u64);
            patterns
        };
        let patterns = {
            let _s = rec.span("annotate");
            disambiguate(patterns, &self.namespace)
        };
        let ranked = {
            let s = rec.span("rank");
            let ranked = rank_patterns(patterns);
            s.add("patterns.ranked", ranked.len() as u64);
            ranked
        };
        Ok(FrontEnd { query, matches, ranked })
    }

    fn generate_inner(&self, query: &str, k: usize) -> Result<Vec<GeneratedSql>, CoreError> {
        let rec = self.recorder();
        let patterns = self.front_end(query)?.ranked;

        // Translate all top-k patterns, then analyze all statements, so a
        // trace shows exactly one `translate` and one `analyze` phase.
        let translated = {
            let s = rec.span("translate");
            let mut translated = Vec::new();
            for p in patterns.into_iter().take(k) {
                // Each translated pattern is one interpretation charged
                // against the budget; on a trip the interpretations
                // finished so far are kept as partials.
                if aqks_guard::charge_interpretations("engine.translate", 1).is_err()
                    || aqks_guard::checkpoint("engine.translate").is_err()
                {
                    break;
                }
                let t = translate_ex(
                    &p,
                    &self.graph,
                    &self.namespace,
                    self.view.as_ref(),
                    &self.options.translate,
                )?;
                let sql = if self.view.is_some() && !self.options.skip_rewrites {
                    rewrite(&t.stmt, &t.derived_keys, &self.db.schema(), &self.options.rewrite)
                } else {
                    t.stmt
                };
                let sql_text = sql.to_string();
                translated.push((p, sql, sql_text));
            }
            s.add("patterns.translated", translated.len() as u64);
            translated
        };

        let _s = rec.span("analyze");
        let mut out = Vec::with_capacity(translated.len());
        for (p, sql, sql_text) in translated {
            let diagnostics = self.analyze(&sql);
            if cfg!(debug_assertions) && diagnostics.has_errors() {
                return Err(CoreError::Analysis(format!(
                    "{}\n{sql_text}",
                    diagnostics.render(&sql).trim_end()
                )));
            }
            let score = crate::rank::rank_key(&p);
            out.push(GeneratedSql { pattern: p, sql, sql_text, score, diagnostics });
        }
        Ok(out)
    }

    /// Statically analyzes a generated statement. Base relations in the
    /// final SQL always come from the original schema — normalized-view
    /// relations only ever appear as derived projections *over* original
    /// relations — so the analysis resolves against it.
    fn analyze(&self, sql: &SelectStatement) -> Report {
        aqks_analyze::analyze(sql, &self.original_schema)
    }

    /// Full Algorithm 2 — the engine's one answer path: generate the
    /// top-`request.k` interpretations and execute them under
    /// `request.budget`, returning the pipeline trace when
    /// `request.trace` is set.
    ///
    /// A budget trip is not an error: the interpretations completed
    /// before it come back with the structured [`Exhaustion`] report,
    /// and the trip shows in the trace as a `guard` span with
    /// `guard.trip.<site>` counters. Library panics are caught at this
    /// boundary and surface as [`CoreError::Internal`]. While metrics
    /// are enabled every call, traced or not, is counted, timed per
    /// phase, and filed with the flight recorder.
    pub fn ask(&self, query: &str, request: &Request) -> Result<Answer, CoreError> {
        let rec = self.recorder();
        let metrics = aqks_obs::metrics::enabled();
        let observed = metrics || request.trace;
        if observed {
            rec.enable();
            let _ = rec.take(); // discard stale spans
        }
        let t0 = std::time::Instant::now();
        let result = {
            let _root = rec.span("answer");
            // An unlimited budget builds no governor, so the pipeline's
            // checkpoints stay on their zero-cost ungoverned path.
            let gov = (!request.budget.is_unlimited()).then(|| Governor::new(&request.budget));
            let run = {
                let _installed = gov.as_ref().map(aqks_guard::install);
                shielded(|| self.answer_inner(query, request.k))
            };
            let run = match run {
                // A trip that unwound the whole pipeline: no partials exist.
                Err(CoreError::Budget(_)) if gov.is_some() => Ok(Vec::new()),
                run => run,
            };
            run.map(|interpretations| {
                let exhaustion = gov.and_then(|g| g.trip()).map(|t| {
                    let s = rec.span("guard");
                    s.add("guard.trips", 1);
                    s.add(format!("guard.trip.{}", t.site), 1);
                    t.exhaust(!interpretations.is_empty())
                });
                (interpretations, exhaustion)
            })
        };
        let mut trace = observed.then(|| {
            let trace = rec.take();
            rec.disable();
            trace
        });
        if metrics {
            let total_ns = t0.elapsed().as_nanos() as u64;
            let (rows, tripped) = match &result {
                Ok((interpretations, exhaustion)) => (
                    interpretations.iter().map(|i| i.result.row_count() as u64).sum(),
                    exhaustion.as_ref().map(|e| e.to_string()),
                ),
                Err(_) => (0, None),
            };
            QUERIES.add(1);
            ANSWER_NS.observe(total_ns);
            RESULT_ROWS.observe(rows);
            let filed = if request.trace { trace.clone() } else { trace.take() };
            let filed = filed.unwrap_or_default();
            if let Some(root) = filed.roots.iter().find(|r| r.name == "answer") {
                for child in &root.children {
                    if let Some(label) = phase_label(&child.name) {
                        PHASE_NS.observe(label, child.total_ns);
                    }
                }
            }
            let flight = aqks_obs::flight::global();
            flight.record(query, total_ns, tripped, filed);
            FLIGHT_RETAINED.set(flight.retained() as i64);
        }
        let (interpretations, exhaustion) = result?;
        Ok(Answer { interpretations, exhaustion, trace })
    }

    /// The top-`k` interpretations, executed: [`Engine::ask`] with no
    /// budget and no trace.
    pub fn answer(&self, query: &str, k: usize) -> Result<Vec<Interpretation>, CoreError> {
        self.ask(query, &Request::new(k)).map(|a| a.interpretations)
    }

    /// [`Engine::answer`] with its [`PipelineTrace`]: [`Engine::ask`]
    /// with `trace` set.
    pub fn answer_traced(
        &self,
        query: &str,
        k: usize,
    ) -> Result<(Vec<Interpretation>, PipelineTrace), CoreError> {
        self.ask(query, &Request { trace: true, ..Request::new(k) })
            .map(|a| (a.interpretations, a.trace.unwrap_or_default()))
    }

    fn answer_inner(&self, query: &str, k: usize) -> Result<Vec<Interpretation>, CoreError> {
        let rec = self.recorder();
        let generated = self.generate_inner(query, k)?;
        let mut out = Vec::with_capacity(generated.len());
        for g in generated {
            // Between interpretations is the natural cancellation point:
            // answers already executed are kept as partials.
            if aqks_guard::checkpoint("engine.answer").is_err() {
                break;
            }
            let plan = {
                let _s = rec.span("plan");
                aqks_sqlgen::plan(&g.sql, &self.db).map_err(CoreError::from)?
            };
            {
                // Debug builds statically verify every plan before it
                // runs; release builds skip in a branch (the span keeps
                // traces shape-stable across profiles).
                let s = rec.span("plancheck");
                if cfg!(debug_assertions) {
                    s.add("plancheck.checked", 1);
                }
                if let Err(e) = aqks_plancheck::verify_in_debug(&plan, &self.db, Some(&g.sql)) {
                    s.add(format!("plancheck.rejected.{}", e.kind.name()), 1);
                    return Err(CoreError::Analysis(format!(
                        "plan verification failed: {e}\n{}",
                        g.sql_text
                    )));
                }
            }
            let run = {
                let s = rec.span("exec");
                let run = aqks_sqlgen::run(
                    &plan,
                    &self.db,
                    &aqks_sqlgen::ExecCtx::with_threads(self.threads),
                );
                if let Ok((result, _)) = &run {
                    s.add("exec.rows_out", result.row_count() as u64);
                }
                run
            };
            let (result, stats) = match run {
                Ok(r) => r,
                // A budget trip mid-plan cancels this interpretation but
                // keeps the completed ones; the governor records the site.
                Err(aqks_sqlgen::ExecError::Budget(_)) => break,
                Err(e) => return Err(e.into()),
            };
            out.push(Interpretation {
                pattern_description: g.pattern.describe(),
                sql: g.sql,
                sql_text: g.sql_text,
                result: result.sorted(),
                stats,
            });
        }
        Ok(out)
    }

    /// Explains how a query is interpreted: each term's matches and the
    /// ranked patterns with their scores — the trace behind
    /// [`Engine::generate`], for debugging and the CLI's `--explain`.
    ///
    /// Library panics are caught at this boundary and surface as
    /// [`CoreError::Internal`].
    pub fn explain(&self, query: &str) -> Result<Explanation, CoreError> {
        shielded(|| {
            let FrontEnd { query, matches, ranked } = self.front_end(query)?;
            let terms = query
                .terms
                .iter()
                .zip(&matches)
                .map(|(t, ms)| TermReport {
                    term: match t {
                        Term::Basic(s) => s.clone(),
                        Term::Op(Operator::GroupBy) => "GROUPBY".to_string(),
                        Term::Op(Operator::Agg(f)) => f.keyword().to_string(),
                    },
                    is_operator: matches!(t, Term::Op(_)),
                    matches: ms.iter().map(describe_match).collect(),
                })
                .collect();
            let patterns = ranked
                .iter()
                .map(|p| PatternReport {
                    description: p.describe(),
                    dot: p.to_dot(),
                    score: crate::rank::rank_key(p),
                })
                .collect();
            Ok(Explanation { terms, patterns })
        })
    }

    fn term_matches(&self, query: &KeywordQuery) -> Result<Vec<Vec<TermMatch>>, CoreError> {
        let mut out = Vec::with_capacity(query.terms.len());
        for (i, t) in query.terms.iter().enumerate() {
            out.push(match t {
                Term::Basic(text) => {
                    let role = if query.is_operand(i) {
                        match query.terms[i - 1] {
                            Term::Op(Operator::Agg(aqks_sqlgen::AggFunc::Count))
                            | Term::Op(Operator::GroupBy) => TermRole::CountGroupByOperand,
                            Term::Op(Operator::Agg(_)) => TermRole::AggOperand,
                            Term::Basic(_) => TermRole::Free,
                        }
                    } else {
                        TermRole::Free
                    };
                    self.matcher.matches(&self.db, text, role)?
                }
                Term::Op(_) => Vec::new(),
            });
        }
        Ok(out)
    }
}

/// Runs `f` behind a panic shield: a panic anywhere in the pipeline is
/// caught and surfaced as [`CoreError::Internal`] instead of unwinding
/// through the caller. The engine owns no interior mutability that a
/// mid-panic unwind could corrupt, so `AssertUnwindSafe` is sound here.
fn shielded<T>(f: impl FnOnce() -> Result<T, CoreError>) -> Result<T, CoreError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(CoreError::Internal(aqks_guard::panic_message(&*payload))))
}

/// One line describing how a term matched (see [`TermReport::matches`]).
fn describe_match(m: &TermMatch) -> String {
    match m {
        TermMatch::RelationName { relation } => format!("relation `{relation}`"),
        TermMatch::AttributeName { relation, attribute } => {
            format!("attribute `{relation}.{attribute}`")
        }
        TermMatch::Value { relation, attribute, tuple_count } => {
            format!("value of `{relation}.{attribute}` ({tuple_count} object(s))")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_datasets::university;
    use aqks_relational::Value;

    #[test]
    fn q1_end_to_end() {
        let engine = Engine::new(university::normalized()).unwrap();
        let answers = engine.answer("Green SUM Credit", 1).unwrap();
        let r = &answers[0].result;
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0].last().unwrap(), &Value::Float(5.0));
        assert_eq!(r.rows[1].last().unwrap(), &Value::Float(8.0));
    }

    #[test]
    fn q2_end_to_end() {
        let engine = Engine::new(university::normalized()).unwrap();
        let answers = engine.answer("Java SUM Price", 3).unwrap();
        let textbook = answers
            .iter()
            .find(|a| a.result.column_index("sumPrice").is_some())
            .expect("textbook interpretation");
        assert_eq!(textbook.result.rows[0].last().unwrap(), &Value::Int(25));
    }

    /// Q3 on Figure 2: the unnormalized engine counts 1 department in
    /// Engineering (SQAK's join over duplicated Lecturer rows says 2).
    #[test]
    fn q3_unnormalized_fig2() {
        let engine = Engine::new(university::unnormalized_fig2()).unwrap();
        assert!(engine.is_unnormalized());
        let answers = engine.answer("Engineering COUNT Department", 1).unwrap();
        let r = &answers[0].result;
        assert_eq!(r.rows[0].last().unwrap(), &Value::Int(1), "{}\n{r}", answers[0].sql_text);
    }

    /// Example 9/10 end to end on the Figure-8 database.
    #[test]
    fn fig8_green_george_count_code() {
        let engine = Engine::new(university::enrolment_fig8()).unwrap();
        assert!(engine.is_unnormalized());
        let answers = engine.answer("Green George COUNT Code", 1).unwrap();
        let r = &answers[0].result;
        assert_eq!(r.len(), 2, "{}\n{r}", answers[0].sql_text);
        assert_eq!(r.rows[0].last().unwrap(), &Value::Int(1));
        assert_eq!(r.rows[1].last().unwrap(), &Value::Int(2));
        // The rewritten SQL runs on the original Enrolment relation.
        assert!(answers[0].sql_text.contains("Enrolment"));
    }

    /// FD discovery substitutes for declared FDs: an Enrolment database
    /// with *no* declared dependencies still gets decomposed, and every
    /// discovered dependency holds on the instance, so the answers match
    /// the declared-FD engine.
    #[test]
    fn discovery_substitutes_for_declared_fds() {
        let declared = Engine::new(university::enrolment_fig8()).unwrap();

        let mut undeclared = university::enrolment_fig8();
        // Strip the declared FDs (and naming hints) from the schema.
        let mut bare = aqks_relational::Database::new("fig8-bare");
        let mut schema = undeclared.table("Enrolment").unwrap().schema.clone();
        schema.extra_fds.clear();
        schema.entity_names.clear();
        bare.add_relation(schema).unwrap();
        for row in undeclared.table("Enrolment").unwrap().rows() {
            bare.insert("Enrolment", row.clone()).unwrap();
        }
        undeclared = bare;

        // Without discovery the engine treats the relation as normalized.
        let naive = Engine::new(undeclared.clone()).unwrap();
        assert!(!naive.is_unnormalized());

        let discovering = Engine::with_options(
            undeclared,
            EngineOptions { discover_fds: true, ..Default::default() },
        )
        .unwrap();
        assert!(discovering.is_unnormalized());

        let a = &declared.answer("Green George COUNT Code", 1).unwrap()[0];
        let b = &discovering.answer("Green George COUNT Code", 1).unwrap()[0];
        let left: Vec<&Value> = a.result.rows.iter().map(|r| r.last().unwrap()).collect();
        let right: Vec<&Value> = b.result.rows.iter().map(|r| r.last().unwrap()).collect();
        assert_eq!(left, right, "{}\nvs\n{}", a.sql_text, b.sql_text);
    }

    #[test]
    fn nonexistent_term_errors() {
        let engine = Engine::new(university::normalized()).unwrap();
        assert!(matches!(engine.answer("zebra COUNT Code", 1), Err(CoreError::NoMatch(_))));
    }

    #[test]
    fn explain_reports_matches_and_patterns() {
        let engine = Engine::new(university::normalized()).unwrap();
        let ex = engine.explain("Green SUM Credit").unwrap();
        assert_eq!(ex.terms.len(), 3);
        assert!(ex.terms[0].matches[0].contains("Student.Sname"), "{:?}", ex.terms);
        assert!(ex.terms[1].is_operator);
        assert!(ex.patterns.len() >= 2, "merged + per-Green");
        // Ranked: scores are non-decreasing.
        for w in ex.patterns.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
        assert!(ex.patterns[0].dot.starts_with("graph pattern {"));
    }

    #[test]
    fn answer_carries_execution_stats() {
        let engine = Engine::new(university::normalized()).unwrap();
        let answers = engine.answer("Green SUM Credit", 1).unwrap();
        let s = &answers[0].stats;
        assert!(!s.ops.is_empty());
        assert!(s.ops.iter().any(|m| m.rows_out > 0), "{s:?}");
        // The plan and the stats vector index the same node ids.
        let plan = aqks_sqlgen::plan(&answers[0].sql, engine.database()).unwrap();
        assert_eq!(s.ops.len(), plan.max_id() + 1);
    }

    #[test]
    fn generate_does_not_execute() {
        let engine = Engine::new(university::normalized()).unwrap();
        let gen = engine.generate("COUNT Lecturer GROUPBY Course", 2).unwrap();
        assert!(!gen.is_empty());
        assert!(gen[0].sql_text.contains("COUNT"));
    }

    /// Every pipeline phase appears exactly once under the `answer` root
    /// (k=1), operator spans graft under `exec`, analyzer pass spans
    /// under `analyze`, and index counters flow up via the ambient stack.
    #[test]
    fn answer_traced_covers_every_phase_once() {
        let engine = Engine::new(university::normalized()).unwrap();
        let (answers, trace) = engine.answer_traced("Green SUM Credit", 1).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(trace.roots.len(), 1, "{trace:?}");
        let root = &trace.roots[0];
        assert_eq!(root.name, "answer");
        for phase in [
            "parse",
            "match",
            "pattern",
            "annotate",
            "rank",
            "translate",
            "analyze",
            "plan",
            "exec",
        ] {
            let n = root.children.iter().filter(|c| c.name == phase).count();
            assert_eq!(n, 1, "phase `{phase}` appeared {n} times");
        }
        let exec = root.children.iter().find(|c| c.name == "exec").unwrap();
        assert!(exec.children.iter().all(|c| c.name.starts_with("op:")), "{exec:?}");
        assert!(!exec.children.is_empty());
        let analyze = root.children.iter().find(|c| c.name == "analyze").unwrap();
        assert!(analyze.children.iter().any(|c| c.name.starts_with("pass:")), "{analyze:?}");
        // Leaf-layer counters reached the trace without API plumbing.
        assert!(trace.counters.contains_key("index.probes"), "{:?}", trace.counters);
        assert!(trace.counters.contains_key("exec.rows_out"), "{:?}", trace.counters);
        // The recorder is back off afterwards.
        assert!(!engine.recorder().is_enabled());
    }

    /// Untraced calls leave nothing behind: the recorder stays disabled
    /// and a later traced call sees only its own spans.
    #[test]
    fn untraced_answer_records_nothing() {
        let engine = Engine::new(university::normalized()).unwrap();
        engine.answer("Green SUM Credit", 1).unwrap();
        assert!(!engine.recorder().is_enabled());
        assert!(engine.recorder().take().is_empty());
        let (_, trace) = engine.answer_traced("Java SUM Price", 1).unwrap();
        assert_eq!(trace.roots.len(), 1);
    }

    /// Plain `answer` feeds the always-on metrics and files its trace
    /// with the flight recorder; a governed trip lands there too, as
    /// the most recent tripped exemplar. Assertions are delta-based
    /// because the registry and flight recorder are process-global and
    /// tests run concurrently.
    #[test]
    fn answer_feeds_metrics_and_flight() {
        aqks_obs::metrics::set_enabled(true);
        let engine = Engine::new(university::normalized()).unwrap();
        let snap = || aqks_obs::metrics::global().snapshot();
        let flight = aqks_obs::flight::global();

        let queries_before = snap().counter_total("aqks_engine_queries");
        let recorded_before = flight.recorded();
        engine.answer("Green SUM Credit", 1).unwrap();
        assert!(snap().counter_total("aqks_engine_queries") > queries_before);
        assert!(flight.recorded() > recorded_before);
        let phases = snap();
        for phase in ["parse", "exec"] {
            let m = phases
                .find("aqks_engine_phase_ns", Some(phase))
                .unwrap_or_else(|| panic!("phase `{phase}` histogram missing"));
            match &m.value {
                aqks_obs::metrics::MetricValue::Histogram(h) => assert!(h.count > 0),
                other => panic!("expected histogram, got {other:?}"),
            }
        }

        // A governed trip files a tripped exemplar.
        let budget = Budget::unlimited().with_max_patterns(1);
        let g =
            engine.ask("Green George COUNT Code", &Request { budget, ..Request::new(3) }).unwrap();
        assert!(g.exhaustion.is_some());
        let tripped = flight.last_tripped().expect("tripped exemplar retained");
        assert!(tripped.tripped.is_some());

        // The traced surface is unaffected: its trace is not stolen by
        // the observation path, and untraced state stays clean.
        let (_, trace) = engine.answer_traced("Green SUM Credit", 1).unwrap();
        assert_eq!(trace.roots.len(), 1);
        assert!(!engine.recorder().is_enabled());
    }

    /// A traced answer is observed like any other: the caller gets its
    /// trace, and the call still reaches the always-on metrics and the
    /// flight recorder.
    #[test]
    fn traced_answer_feeds_metrics_and_flight() {
        aqks_obs::metrics::set_enabled(true);
        let engine = Engine::new(university::normalized()).unwrap();
        let queries =
            || aqks_obs::metrics::global().snapshot().counter_total("aqks_engine_queries");
        let flight = aqks_obs::flight::global();

        let (queries_before, recorded_before) = (queries(), flight.recorded());
        let (_, trace) = engine.answer_traced("Green SUM Credit", 1).unwrap();
        assert_eq!(trace.roots.len(), 1);
        assert!(queries() > queries_before);
        assert!(flight.recorded() > recorded_before);
    }

    #[test]
    fn unlimited_budget_matches_ungoverned_answer() {
        let engine = Engine::new(university::normalized()).unwrap();
        let plain = engine.answer("Java SUM Price", 3).unwrap();
        let governed = engine.ask("Java SUM Price", &Request::new(3)).unwrap();
        assert!(governed.exhaustion.is_none());
        assert_eq!(governed.interpretations.len(), plain.len());
        for (a, b) in plain.iter().zip(&governed.interpretations) {
            assert_eq!(a.sql_text, b.sql_text);
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    fn pattern_cap_trips_enumeration_with_structured_report() {
        let engine = Engine::new(university::normalized()).unwrap();
        // "Green George COUNT Code" enumerates 2 interpretation combos.
        let budget = Budget::unlimited().with_max_patterns(1);
        let g =
            engine.ask("Green George COUNT Code", &Request { budget, ..Request::new(3) }).unwrap();
        let ex = g.exhaustion.expect("pattern budget should trip");
        assert_eq!(ex.kind, aqks_guard::BudgetKind::Patterns);
        assert_eq!(ex.site, "pattern.enumerate");
        assert_eq!(ex.partial, !g.interpretations.is_empty());
    }

    #[test]
    fn interpretation_cap_keeps_completed_answers() {
        let engine = Engine::new(university::normalized()).unwrap();
        // Baseline: "Green SUM Credit" yields 2 interpretations.
        let all = engine.answer("Green SUM Credit", 3).unwrap();
        assert!(all.len() >= 2, "fixture needs >=2 interpretations");
        let budget = Budget::unlimited().with_max_interpretations(1);
        let g = engine.ask("Green SUM Credit", &Request { budget, ..Request::new(3) }).unwrap();
        assert_eq!(g.interpretations.len(), 1, "one interpretation completed before the trip");
        let ex = g.exhaustion.expect("interpretation budget should trip");
        assert_eq!(ex.kind, aqks_guard::BudgetKind::Interpretations);
        assert_eq!(ex.site, "engine.translate");
        assert!(ex.partial);
        // The survivor is the top-ranked interpretation.
        assert_eq!(g.interpretations[0].sql_text, all[0].sql_text);
    }

    #[test]
    fn expired_deadline_reports_exhaustion_not_error() {
        let engine = Engine::new(university::normalized()).unwrap();
        let budget = Budget::unlimited().with_timeout(std::time::Duration::ZERO);
        let g = engine.ask("Green SUM Credit", &Request { budget, ..Request::new(1) }).unwrap();
        let ex = g.exhaustion.expect("deadline should trip");
        assert_eq!(ex.kind, aqks_guard::BudgetKind::Deadline);
        assert!(g.interpretations.is_empty());
        assert!(!ex.partial);
        // Exhaustion renders a one-line human-readable report.
        let msg = ex.to_string();
        assert!(msg.contains("deadline budget exhausted"), "{msg}");
    }

    #[test]
    fn row_cap_returns_partial_results_through_engine() {
        let engine = Engine::new(university::normalized()).unwrap();
        // Generous pattern allowance, tiny row allowance: generation
        // succeeds, execution trips inside an operator.
        let budget = Budget::unlimited().with_max_rows(1);
        let g = engine.ask("Java SUM Price", &Request { budget, ..Request::new(3) }).unwrap();
        let ex = g.exhaustion.expect("row budget should trip");
        assert_eq!(ex.kind, aqks_guard::BudgetKind::Rows);
        assert!(ex.site.starts_with("ops.") || ex.site.starts_with("index."), "{}", ex.site);
    }

    /// Governance is scoped to the call: after a governed call trips,
    /// plain `answer` on the same engine runs unrestricted.
    #[test]
    fn governor_does_not_leak_past_the_call() {
        let engine = Engine::new(university::normalized()).unwrap();
        let budget = Budget::unlimited().with_max_rows(1);
        let g = engine.ask("Green SUM Credit", &Request { budget, ..Request::new(1) }).unwrap();
        assert!(g.exhaustion.is_some());
        let plain = engine.answer("Green SUM Credit", 1).unwrap();
        assert_eq!(plain.len(), 1);
    }

    /// Budget trips show up in the pipeline trace as a `guard` span with
    /// per-site counters.
    #[test]
    fn governed_trip_is_visible_in_trace() {
        let engine = Engine::new(university::normalized()).unwrap();
        let budget = Budget::unlimited().with_max_patterns(1);
        let g = engine
            .ask("Green George COUNT Code", &Request { budget, trace: true, ..Request::new(3) })
            .unwrap();
        let trace = g.trace.as_ref().expect("trace requested");
        assert!(g.exhaustion.is_some());
        let root = &trace.roots[0];
        assert_eq!(root.name, "answer");
        assert!(root.children.iter().any(|c| c.name == "guard"), "{trace:?}");
        assert_eq!(trace.counters.get("guard.trips"), Some(&1));
        assert_eq!(trace.counters.get("guard.trip.pattern.enumerate"), Some(&1));
    }

    /// The shield converts library panics into `CoreError::Internal`
    /// instead of unwinding through the caller.
    #[test]
    fn shield_converts_panics_to_internal_error() {
        let r = shielded::<()>(|| panic!("boom at {}", "site"));
        match r {
            Err(CoreError::Internal(m)) => assert!(m.contains("boom"), "{m}"),
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn translate_failpoint_surfaces_typed_fault() {
        let engine = Engine::new(university::normalized()).unwrap();
        aqks_guard::failpoint::enable("translate");
        let r = engine.answer("Green SUM Credit", 1);
        aqks_guard::failpoint::disable("translate");
        assert!(matches!(r, Err(CoreError::Fault("translate"))), "{r:?}");
        // With the failpoint disarmed the same query succeeds.
        assert_eq!(engine.answer("Green SUM Credit", 1).unwrap().len(), 1);
    }
}
