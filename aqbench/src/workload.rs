//! The workloads, their generated instances, set-up, the correctness
//! gate's reference answers, and the local closed-loop and traced runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aqks_core::{Engine, Interpretation};
use aqks_datasets::{
    denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch, AcmdlConfig, TpchConfig,
};
use aqks_eval::{acmdl_queries, tpch_queries, EvalQuery};
use aqks_orm::OrmGraph;
use aqks_relational::{Database, MatchIndex, NormalizedView};

use crate::expected::{check_pin, pairs, paper_pin, same_answer, DEFAULT_SEED};
use crate::out::Out;
use crate::rng::RoundOrder;
use crate::spans::Ledger;
use crate::stats;
use crate::traced::{self, OpTotals, OP_KINDS};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// T1–T8 on a large denormalized TPC-H′, two executor threads.
    OlapPrime,
    /// T1–T8 and A1–A8 on small TPC-H, TPC-H′, ACMDL and ACMDL′, k=3.
    /// Not declared in `BENCHMARK.json`: on a shared host its figures
    /// move with the host's speed by more than the benchmark's bounds.
    KeywordMix,
    /// T1–T8 on small TPC-H through `aqks-server` on loopback.
    ServeZipf,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::OlapPrime, Workload::KeywordMix, Workload::ServeZipf];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapPrime => "olap-prime",
            Workload::KeywordMix => "keyword-mix",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Executor threads per engine.
    pub fn threads(self) -> usize {
        match self {
            Workload::OlapPrime => 2,
            Workload::KeywordMix | Workload::ServeZipf => 1,
        }
    }

    /// Interpretations answered per query.
    pub fn k(self) -> usize {
        match self {
            Workload::KeywordMix => 3,
            Workload::OlapPrime | Workload::ServeZipf => 1,
        }
    }

    /// Set-up repetitions per run (`setup_s` is their median).
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::OlapPrime => 7,
            Workload::KeywordMix | Workload::ServeZipf => 25,
        }
    }
}

/// One generated database and the paper queries run against it.
pub struct Instance {
    /// Instance name (`tpch`, `tpch-prime`, ...).
    pub name: &'static str,
    /// The generated data.
    pub db: Database,
    /// Queries answered on this instance.
    pub queries: Vec<EvalQuery>,
}

/// The large TPC-H′ instance: the executor sweep's sizes (about 48k
/// rows), generated from `seed`.
fn olap_config(seed: u64) -> TpchConfig {
    TpchConfig {
        seed,
        parts: 400,
        suppliers: 300,
        customers: 200,
        orders: 20_000,
        parts_per_supplier: 80,
        max_orders_per_pair: 3,
    }
}

/// Generates the workload's instances from `seed` (the benchmark's own
/// work; excluded from set-up time).
pub fn instances(w: Workload, seed: u64) -> Vec<Instance> {
    let tpch = || generate_tpch(&TpchConfig { seed, ..TpchConfig::small() });
    match w {
        Workload::OlapPrime => vec![Instance {
            name: "tpch-prime-large",
            db: denormalize_tpch(&generate_tpch(&olap_config(seed))),
            queries: tpch_queries(),
        }],
        Workload::KeywordMix => {
            let t = tpch();
            let a = generate_acmdl(&AcmdlConfig { seed, ..AcmdlConfig::small() });
            vec![
                Instance { name: "tpch-prime", db: denormalize_tpch(&t), queries: tpch_queries() },
                Instance { name: "tpch", db: t, queries: tpch_queries() },
                Instance {
                    name: "acmdl-prime",
                    db: denormalize_acmdl(&a),
                    queries: acmdl_queries(),
                },
                Instance { name: "acmdl", db: a, queries: acmdl_queries() },
            ]
        }
        Workload::ServeZipf => vec![Instance { name: "tpch", db: tpch(), queries: tpch_queries() }],
    }
}

/// One (instance, query) pair of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Index into the instance list.
    pub inst: usize,
    /// Paper id.
    pub id: &'static str,
    /// Keyword query text.
    pub text: &'static str,
}

/// Every (instance, query) pair, instance by instance.
pub fn cases(instances: &[Instance]) -> Vec<Case> {
    let mut out = Vec::new();
    for (inst, i) in instances.iter().enumerate() {
        out.extend(i.queries.iter().map(|q| Case { inst, id: q.id, text: q.text }));
    }
    out
}

/// Records the run's provenance: seed, host, threads, row counts.
pub fn provenance(w: Workload, seed: u64, instances: &[Instance], out: &mut Out) {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    out.note(format!("workload={} seed={seed} host_cpus={cpus}", w.name()));
    out.note(format!("engine_threads={} k={}", w.threads(), w.k()));
    for i in instances {
        out.note(format!("instance {} rows={}", i.name, i.db.total_rows()));
    }
}

/// Builds one engine per instance `reps` times from fresh copies of the
/// generated data and returns each repetition's set-up time (the
/// engines of the last repetition are kept).
pub fn setup(
    instances: &[Instance],
    threads: usize,
    reps: usize,
) -> Result<(Vec<f64>, Vec<Engine>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut engines = Vec::new();
    for _ in 0..reps.max(1) {
        drop(std::mem::take(&mut engines));
        let copies: Vec<Database> = instances.iter().map(|i| i.db.clone()).collect();
        let t = Instant::now();
        for db in copies {
            engines.push(Engine::new(db).map_err(|e| format!("engine: {e}"))?);
        }
        times.push(t.elapsed().as_secs_f64());
    }
    for e in &mut engines {
        e.set_threads(threads);
    }
    Ok((times, engines))
}

/// The correctness gate's reference: every case answered once on a
/// single-threaded engine, checked against the paper pins on the
/// default seed when `pinned`.
pub fn references(
    engines: &mut [Engine],
    cases: &[Case],
    k: usize,
    pinned: bool,
    out: &mut Out,
) -> Result<Vec<Vec<Interpretation>>, String> {
    let threads: Vec<usize> = engines.iter().map(Engine::threads).collect();
    for e in engines.iter_mut() {
        e.set_threads(1);
    }
    let mut refs = Vec::with_capacity(cases.len());
    for c in cases {
        let answer =
            engines[c.inst].answer(c.text, k).map_err(|e| format!("reference {}: {e}", c.id))?;
        if pinned {
            let pin = paper_pin(c.id).ok_or_else(|| format!("no pin for {}", c.id))?;
            match answer.first() {
                Some(top) => {
                    if let Err(e) = check_pin(&pin, &top.result) {
                        out.problem(format!("{} on instance {}: {e}", c.id, c.inst));
                    }
                }
                None => out.problem(format!("{}: no interpretation", c.id)),
            }
        }
        refs.push(answer);
    }
    for (e, t) in engines.iter_mut().zip(threads) {
        e.set_threads(t);
    }
    if pinned {
        out.note(format!("pins: {} answers checked against EXPERIMENTS.md", cases.len()));
    }
    Ok(refs)
}

/// Whether the paper pins apply to workload `w` at `seed` (they describe
/// the small-scale instances at the generators' default seed).
pub fn pinned(w: Workload, seed: u64) -> bool {
    seed == DEFAULT_SEED && w != Workload::OlapPrime
}

/// One closed-loop caller: runs the cases in seeded rounds until
/// `seconds` have passed (ending on a round boundary, so every case runs
/// equally often), timing each `Engine::answer` and checking each answer
/// against its reference. Records the latency and throughput metrics.
pub fn closed_loop(
    engines: &[Engine],
    cases: &[Case],
    refs: &[Vec<Interpretation>],
    k: usize,
    seed: u64,
    seconds: f64,
    out: &mut Out,
) {
    let mut order = RoundOrder::new(seed, cases.len());
    let (mut samples, mut done_at) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget {
        for _ in 0..cases.len() {
            let i = order.next_index();
            let c = &cases[i];
            let t = Instant::now();
            let got = engines[c.inst].answer(c.text, k);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            done_at.push(start.elapsed().as_secs_f64());
            out.attempted += 1;
            let verdict =
                got.map_err(|e| e.to_string()).and_then(|g| same_answer(&refs[i], pairs(&g)));
            if let Err(e) = verdict {
                out.failed += 1;
                out.problem(format!("{} on instance {}: {e}", c.id, c.inst));
            }
        }
    }
    out.latencies(&samples, cases.len());
    out.throughput(&done_at, stats::window_for(cases.len()));
}

/// Times each set-up layer's public build call on every instance,
/// `reps` times, and records the medians of the per-repetition sums.
pub fn setup_layers(instances: &[Instance], reps: usize, out: &mut Out) -> Result<(), String> {
    let (mut index, mut normalize, mut graph) = (Vec::new(), Vec::new(), Vec::new());
    let mut unnormalized = false;
    for _ in 0..reps.max(1) {
        let (mut ti, mut tn, mut tg) = (0.0, 0.0, 0.0);
        for inst in instances {
            let t = Instant::now();
            drop(MatchIndex::build(&inst.db));
            ti += t.elapsed().as_secs_f64();
            let schema = inst.db.schema();
            let namespace = if NormalizedView::is_normalized(&schema) {
                schema
            } else {
                unnormalized = true;
                let t = Instant::now();
                let view = NormalizedView::build(&schema);
                tn += t.elapsed().as_secs_f64();
                view.schema()
            };
            let t = Instant::now();
            OrmGraph::build(&namespace).map_err(|e| format!("orm graph: {e}"))?;
            tg += t.elapsed().as_secs_f64();
        }
        index.push(ti);
        normalize.push(tn);
        graph.push(tg);
    }
    out.metric("relational.index_build_s", stats::median(&index), "s");
    if unnormalized {
        out.metric("relational.normalize_s", stats::median(&normalize), "s");
    }
    out.metric("orm.graph_build_s", stats::median(&graph), "s");
    Ok(())
}

/// The traced run: answers the cases through `Engine::answer_traced`
/// for `seconds`, alternating each traced answer with an untraced
/// `Engine::answer` of the same case, and records the per-layer
/// metrics. Each traced answer must equal its reference and pass the
/// self-time accounting check.
pub fn traced_loop(
    engines: &[Engine],
    cases: &[Case],
    refs: &[Vec<Interpretation>],
    k: usize,
    seed: u64,
    seconds: f64,
    out: &mut Out,
) -> Result<(), String> {
    let mut ledger = Ledger::default();
    let mut ops: BTreeMap<&'static str, OpTotals> = BTreeMap::new();
    let (mut matches, mut patterns, mut interps, mut results) = (0u64, 0u64, 0u64, 0u64);
    let (mut traced_ns, mut untraced_ns) = (0u128, 0u128);
    let mut order = RoundOrder::new(seed, cases.len());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget {
        for _ in 0..cases.len() {
            let i = order.next_index();
            let c = &cases[i];
            let engine = &engines[c.inst];
            out.attempted += 1;
            let traced = match traced::answer(engine, c.text, k) {
                Ok(t) => t,
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("{} traced: {e}", c.id));
                    continue;
                }
            };
            traced_ns += traced.root.total_ns as u128;
            if let Err(e) = same_answer(&refs[i], pairs(&traced.answers)) {
                out.failed += 1;
                out.problem(format!("{} traced: {e}", c.id));
            }
            if let Err(e) = ledger.add(&traced.root) {
                out.problem(format!("{} self-time accounting: {e}", c.id));
            }
            matches += traced.counts.matches;
            patterns += traced.counts.patterns;
            interps += traced.counts.interpretations;
            results += traced.counts.result_rows;
            for (kind, t) in &traced.ops {
                let acc = ops.entry(kind).or_default();
                acc.rows_in += t.rows_in;
                acc.peak_bytes = acc.peak_bytes.max(t.peak_bytes);
                acc.parallel_self_ns += t.parallel_self_ns;
            }
            let t = Instant::now();
            let untraced = engine.answer(c.text, k);
            untraced_ns += t.elapsed().as_nanos();
            out.attempted += 1;
            let verdict =
                untraced.map_err(|e| e.to_string()).and_then(|g| same_answer(&refs[i], pairs(&g)));
            if let Err(e) = verdict {
                out.failed += 1;
                out.problem(format!("{} untraced: {e}", c.id));
            }
        }
    }
    let n = ledger.roots.max(1) as f64;
    out.note(format!("traced answers: {} (each paired with one untraced)", ledger.roots));
    for layer in [
        "core.parse",
        "core.match",
        "core.pattern",
        "core.annotate",
        "core.rank",
        "core.translate",
        "analyze.check",
        "sqlgen.plan",
        "sqlgen.plancheck",
        "sqlgen.exec",
    ] {
        out.metric(format!("{layer}_us"), ledger.mean_us(layer), "us");
        out.metric(format!("{layer}_share"), ledger.share(layer), "ratio");
    }
    out.metric("core.matches", matches as f64 / n, "count");
    out.metric("core.patterns", patterns as f64 / n, "count");
    out.metric("core.interpretations", interps as f64 / n, "count");
    let mut rows_in_total = 0u64;
    let (mut op_self_ns, mut par_self_ns) = (0i128, 0u64);
    for kind in OP_KINDS {
        let Some(t) = ops.get(kind) else { continue };
        let layer = format!("sqlgen.op.{kind}");
        let self_ns = ledger.self_ns.get(&layer).copied().unwrap_or(0);
        rows_in_total += t.rows_in;
        op_self_ns += self_ns;
        par_self_ns += t.parallel_self_ns;
        out.metric(format!("{layer}.self_us"), ledger.mean_us(&layer), "us");
        out.metric(format!("{layer}.share"), ledger.share(&layer), "ratio");
        out.metric(format!("{layer}.rows_in"), t.rows_in as f64 / n, "count");
        if t.rows_in > 0 {
            out.metric(format!("{layer}.ns_per_row"), self_ns as f64 / t.rows_in as f64, "ns");
        }
        out.metric(format!("{layer}.peak_bytes"), t.peak_bytes as f64, "bytes");
    }
    out.metric(
        "sqlgen.rows_examined_per_result",
        rows_in_total as f64 / results.max(1) as f64,
        "ratio",
    );
    out.metric("sqlgen.par.parallel_share", par_self_ns as f64 / op_self_ns.max(1) as f64, "ratio");
    out.metric("trace.unattributed_share", ledger.unattributed_share(), "ratio");
    out.metric(
        "obs.trace_overhead_pct",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64 * 100.0,
        "%",
    );
    Ok(())
}
