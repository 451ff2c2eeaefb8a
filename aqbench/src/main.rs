//! The repository benchmark.
//!
//! ```text
//! aqbench --workload <olap-prime|keyword-mix|serve-zipf> --seed <n> \
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! The seed sets dataset generation, query order and the arrival
//! schedule; the engine only ever sees the generated inputs. With
//! `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it times the public `Engine::answer_traced`
//! call, splits that wall time into the layer spans the call returns
//! (and the executor's per-operator metrics), times the set-up layers'
//! public build calls, and reports per-layer metrics. Every answer is
//! checked against a single-threaded reference (and, on the default
//! seed, against the paper's pinned answers).
//!
//! Human-readable lines come first: `# ` provenance notes, one
//! `<name> <value> <unit>` line per measured metric, `! ` correctness
//! problems. The last line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (the metrics `BENCHMARK.json`
//! declares for the mode).

mod expected;
mod out;
mod rng;
mod serve;
mod spans;
mod stats;
mod traced;
mod workload;

use aqks_core::Engine;

use crate::out::{peak_rss_mb, Out};
use crate::workload::{Case, Instance, Workload};

/// End-to-end metrics of `BENCHMARK.json` (`--trace 0`), measured on
/// every workload. `latency_p90_ms` is printed but not declared: on
/// serve-zipf it has followed the host's steal by more than the bound.
const END_TO_END: [&str; 4] = ["setup_s", "latency_p50_ms", "throughput_qps", "peak_rss_mb"];

/// Per-layer metrics of `BENCHMARK.json` (`--trace 1`), measured on
/// every workload.
const PER_LAYER: [&str; 46] = [
    "relational.index_build_s",
    "orm.graph_build_s",
    "core.parse_us",
    "core.match_us",
    "core.pattern_us",
    "core.annotate_us",
    "core.rank_us",
    "core.translate_us",
    "analyze.check_us",
    "sqlgen.plan_us",
    "sqlgen.exec_us",
    "core.match_share",
    "core.pattern_share",
    "core.translate_share",
    "analyze.check_share",
    "sqlgen.plan_share",
    "core.matches",
    "core.patterns",
    "core.interpretations",
    "sqlgen.op.Scan.self_us",
    "sqlgen.op.Scan.ns_per_row",
    "sqlgen.op.Scan.rows_in",
    "sqlgen.op.Scan.peak_bytes",
    "sqlgen.op.HashJoin.self_us",
    "sqlgen.op.HashJoin.ns_per_row",
    "sqlgen.op.HashJoin.rows_in",
    "sqlgen.op.HashJoin.peak_bytes",
    "sqlgen.op.HashAggregate.self_us",
    "sqlgen.op.HashAggregate.ns_per_row",
    "sqlgen.op.HashAggregate.rows_in",
    "sqlgen.op.HashAggregate.peak_bytes",
    "sqlgen.op.Project.self_us",
    "sqlgen.op.Project.ns_per_row",
    "sqlgen.op.Project.rows_in",
    "sqlgen.op.Project.peak_bytes",
    "sqlgen.op.Distinct.self_us",
    "sqlgen.op.Distinct.ns_per_row",
    "sqlgen.op.Distinct.rows_in",
    "sqlgen.op.Distinct.peak_bytes",
    "sqlgen.op.Derived.self_us",
    "sqlgen.op.Derived.ns_per_row",
    "sqlgen.op.Derived.rows_in",
    "sqlgen.op.Derived.peak_bytes",
    "sqlgen.rows_examined_per_result",
    "trace.unattributed_share",
    "obs.trace_overhead_pct",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: Workload::OlapPrime, seed: 42, seconds: 10.0, trace: false };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs one workload with tracing off: the end-to-end metrics.
fn end_to_end(a: &Args, insts: &[Instance], cases: &[Case], out: &mut Out) -> Result<(), String> {
    let w = a.workload;
    let pinned = workload::pinned(w, a.seed);
    if w == Workload::ServeZipf {
        let (total, _, server) = serve::setup(&insts[0], w.setup_reps())?;
        record_setup(&total, out);
        let mut local = vec![Engine::new(insts[0].db.clone()).map_err(|e| e.to_string())?];
        let refs = workload::references(&mut local, cases, w.k(), pinned, out)?;
        let texts: Vec<&str> = cases.iter().map(|c| c.text).collect();
        let load = serve::drive(server.addr(), &texts, &refs, a.seed, a.seconds, out);
        server.shutdown();
        serve::record(&load?, out);
    } else {
        let (times, mut engines) = workload::setup(insts, w.threads(), w.setup_reps())?;
        record_setup(&times, out);
        let refs = workload::references(&mut engines, cases, w.k(), pinned, out)?;
        workload::closed_loop(&engines, cases, &refs, w.k(), a.seed, a.seconds, out);
    }
    Ok(())
}

fn record_setup(times: &[f64], out: &mut Out) {
    out.metric("setup_s", stats::median(times), "s");
    out.note(format!("setup_s: median of {} set-ups", times.len()));
}

/// Runs one workload with tracing on: per-layer metrics.
fn traced(a: &Args, insts: &[Instance], cases: &[Case], out: &mut Out) -> Result<(), String> {
    let w = a.workload;
    let pinned = workload::pinned(w, a.seed);
    workload::setup_layers(insts, w.setup_reps().min(5), out)?;
    if w == Workload::ServeZipf {
        let (_, start, server) = serve::setup(&insts[0], w.setup_reps())?;
        out.metric("server.start_s", stats::median(&start), "s");
        let mut local = vec![Engine::new(insts[0].db.clone()).map_err(|e| e.to_string())?];
        let refs = workload::references(&mut local, cases, w.k(), pinned, out)?;
        let half = a.seconds / 2.0;
        let traced = workload::traced_loop(&local, cases, &refs, w.k(), a.seed, half, out);
        let served = traced.and_then(|()| serve_layers(a, &server, cases, &refs, half, out));
        server.shutdown();
        served
    } else {
        let (_, mut engines) = workload::setup(insts, w.threads(), 1)?;
        let refs = workload::references(&mut engines, cases, w.k(), pinned, out)?;
        workload::traced_loop(&engines, cases, &refs, w.k(), a.seed, a.seconds, out)
    }
}

/// The server layer: stage times from the server's own histograms and
/// client-seen wire time, over an open-loop run.
fn serve_layers(
    a: &Args,
    server: &aqks_server::Server,
    cases: &[Case],
    refs: &[Vec<aqks_core::Interpretation>],
    seconds: f64,
    out: &mut Out,
) -> Result<(), String> {
    let before = server.stats();
    aqks_obs::metrics::global().reset();
    let texts: Vec<&str> = cases.iter().map(|c| c.text).collect();
    let load = serve::drive(server.addr(), &texts, refs, a.seed, seconds, out)?;
    let snap = aqks_obs::metrics::global().snapshot();
    serve::tally(&load, out);
    let wire = stats::sorted(load.open.iter().map(|d| d.wire_us).collect());
    out.percentile("server.wire_us", &wire, 0.5, "us");
    for (metric, name) in
        [("server.queue_wait", "aqks_server_queue_wait_ns"), ("server.exec", "aqks_server_exec_ns")]
    {
        let Some(aqks_obs::metrics::MetricValue::Histogram(h)) =
            snap.find(name, None).map(|m| &m.value)
        else {
            out.note(format!("{metric}: histogram `{name}` not recorded"));
            continue;
        };
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            if (h.count as usize) < stats::samples_needed(q) {
                out.note(format!("{metric}_{tag}_us: not reported, {} samples", h.count));
            } else {
                out.metric(format!("{metric}_{tag}_us"), h.quantile(q) as f64 / 1e3, "us");
            }
        }
        out.note(format!("{metric}: {} histogram samples", h.count));
    }
    let after = server.stats();
    out.metric("server.shed", (after.shed() - before.shed()) as f64, "count");
    out.metric("server.degraded", (after.degraded - before.degraded) as f64, "count");
    out.metric("server.errors", (after.errors - before.errors) as f64, "count");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aqbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Out::default();
    let insts = workload::instances(args.workload, args.seed);
    workload::provenance(args.workload, args.seed, &insts, &mut out);
    out.note(format!("seconds={} trace={}", args.seconds, u8::from(args.trace)));
    let cases = workload::cases(&insts);
    let run = if args.trace {
        traced(&args, &insts, &cases, &mut out)
    } else {
        end_to_end(&args, &insts, &cases, &mut out)
    };
    if let Err(e) = run {
        eprintln!("aqbench: {}: {e}", args.workload.name());
        std::process::exit(1);
    }
    if out.attempted == 0 {
        eprintln!("aqbench: {}: no request completed", args.workload.name());
        std::process::exit(1);
    }
    out.metric("error_rate", out.failed as f64 / out.attempted as f64, "ratio");
    out.note(format!("error_rate: {} failed of {} attempted", out.failed, out.attempted));
    if let Some(mb) = peak_rss_mb() {
        out.metric("peak_rss_mb", mb, "MiB");
    }

    for n in &out.notes {
        println!("# {n}");
    }
    for m in &out.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("! {p}");
    }
    let declared: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for name in declared {
        match out.get(name) {
            Some(m) if m.value.is_finite() => fields
                .push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)),
            _ => println!("# {name}: not measured on this workload"),
        }
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics the run emits
    /// in its JSON line, and the steady workloads (keyword-mix runs, but
    /// its figures follow the host's speed; see the README).
    #[test]
    fn benchmark_json_declares_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = doc.find(&format!("\"{key}\"")).expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        assert_eq!(section("end_to_end"), END_TO_END);
        assert_eq!(section("per_layer"), PER_LAYER);
        let declared: Vec<Workload> =
            section("workloads").iter().map(|n| Workload::parse(n).expect("a workload")).collect();
        assert_eq!(declared, [Workload::OlapPrime, Workload::ServeZipf]);
    }
}
