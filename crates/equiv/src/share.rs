//! Common-subplan extraction and shared execution.
//!
//! Hash-conses canonical subtrees across one interpretation set: a
//! subtree whose canonical fingerprint occurs at two or more places
//! (across class representatives, or twice within one plan) becomes a
//! *share point*. The shared-subplan DAG executes each shared subtree
//! once; its materialized rows feed every consumer through the
//! executor's cached-rows operator, with guard checkpoints and
//! per-operator metering preserved.

use std::collections::HashMap;
use std::sync::Arc;

use aqks_plancheck::fingerprint;
use aqks_relational::Database;
use aqks_sqlgen::{materialize, run, ExecCtx, ExecError, ExecStats, PlanNode, ResultTable};

use crate::classes::ClassAnalysis;

/// A shared subtree: executed once, consumed at every listed site.
#[derive(Debug, Clone)]
pub struct SharePoint {
    /// Canonical fingerprint of the shared subtree.
    pub fingerprint: u64,
    /// The subtree itself (fresh pre-order ids, rooted at 0).
    pub subtree: PlanNode,
    /// Consumer sites as `(plan index, node id)` into
    /// [`SharedSet::plans`].
    pub consumers: Vec<(usize, usize)>,
}

/// A deduplicated interpretation set with its share points: one
/// representative plan per equivalence class, plus the shared-subplan
/// DAG connecting them.
#[derive(Debug, Clone)]
pub struct SharedSet {
    /// One canonical representative per equivalence class, in class
    /// order.
    pub plans: Vec<PlanNode>,
    /// Maximal repeated subtrees, largest first.
    pub shares: Vec<SharePoint>,
}

/// The result of executing a [`SharedSet`].
#[derive(Debug)]
pub struct SharedRun {
    /// Result of each representative plan, in [`SharedSet::plans`]
    /// order (stabilized exactly as `aqks_sqlgen::run` would).
    pub tables: Vec<ResultTable>,
    /// Executor stats of each representative plan run.
    pub plan_stats: Vec<ExecStats>,
    /// Executor stats of each shared-subtree materialization, in
    /// [`SharedSet::shares`] order.
    pub share_stats: Vec<ExecStats>,
}

/// Builds the shared-subplan DAG over the class representatives of
/// `analysis`. Share points are maximal: candidates are considered
/// largest-subtree first, and a candidate is dropped when any of its
/// occurrences overlaps an already-shared region. Bare scans (single
/// nodes) are never shared — replaying a materialized scan moves as
/// many rows as rescanning it. Emits the `equiv.shared_subtrees`
/// counter when an ambient span is active.
pub fn shared_set(analysis: &ClassAnalysis) -> SharedSet {
    let plans: Vec<PlanNode> =
        analysis.classes.iter().map(|c| analysis.canonical[c.members[0]].plan.clone()).collect();

    // Collect candidate subtrees by canonical fingerprint. Canonical
    // plans carry fresh pre-order ids, so a subtree rooted at id `x`
    // with `s` nodes occupies exactly the id interval [x, x+s).
    struct Cand {
        subtree: PlanNode,
        size: usize,
        occurrences: Vec<(usize, usize)>,
    }
    let mut by_fp: HashMap<u64, Cand> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for (pi, plan) in plans.iter().enumerate() {
        plan.visit(&mut |n| {
            let size = n.node_count();
            if size < 2 {
                return;
            }
            let fp = fingerprint(n);
            let cand = by_fp.entry(fp).or_insert_with(|| {
                order.push(fp);
                Cand { subtree: n.clone(), size, occurrences: Vec::new() }
            });
            cand.occurrences.push((pi, n.id));
        });
    }

    // Largest first; fingerprint ties broken by first appearance so
    // the result is deterministic.
    let mut cands: Vec<(u64, Cand)> = order
        .into_iter()
        .filter_map(|fp| {
            let c = by_fp.remove(&fp)?;
            (c.occurrences.len() >= 2).then_some((fp, c))
        })
        .collect();
    cands.sort_by_key(|c| std::cmp::Reverse(c.1.size));

    let mut covered: Vec<Vec<(usize, usize)>> = vec![Vec::new(); plans.len()];
    let overlaps = |covered: &[Vec<(usize, usize)>], pi: usize, lo: usize, hi: usize| {
        covered[pi].iter().any(|&(a, b)| lo < b && a < hi)
    };
    let mut shares: Vec<SharePoint> = Vec::new();
    for (fp, cand) in cands {
        let clear =
            cand.occurrences.iter().all(|&(pi, id)| !overlaps(&covered, pi, id, id + cand.size));
        if !clear {
            continue;
        }
        for &(pi, id) in &cand.occurrences {
            covered[pi].push((id, id + cand.size));
        }
        let mut subtree = cand.subtree;
        reassign_ids(&mut subtree, &mut 0);
        shares.push(SharePoint { fingerprint: fp, subtree, consumers: cand.occurrences });
    }

    aqks_obs::counter("equiv.shared_subtrees", shares.len() as u64);
    if aqks_obs::metrics::enabled() {
        SHARED_SUBTREES.add(shares.len() as u64);
    }
    SharedSet { plans, shares }
}

/// Shared subtrees elected across all [`shared_set`] calls.
static SHARED_SUBTREES: aqks_obs::metrics::Counter =
    aqks_obs::metrics::Counter::new("aqks_equiv_shared_subtrees");

/// Consumer-site replays of a materialized shared subtree — each one
/// replaced a full re-execution of that subtree.
static SHARE_REPLAYS: aqks_obs::metrics::Counter =
    aqks_obs::metrics::Counter::new("aqks_equiv_share_replays");

/// Executes a shared set: each shared subtree is materialized once,
/// then every representative plan runs with the materialized batches
/// substituted at its consumer sites. The batches are `Arc`-shared, so
/// feeding them to N consumers costs N reference-count bumps, not N
/// deep copies.
pub fn run_shared(set: &SharedSet, db: &Database) -> Result<SharedRun, ExecError> {
    let mut share_batches = Vec::with_capacity(set.shares.len());
    let mut share_stats = Vec::with_capacity(set.shares.len());
    for sp in &set.shares {
        let (batches, stats) = materialize(&sp.subtree, db, &ExecCtx::default())?;
        share_batches.push(Arc::new(batches));
        share_stats.push(stats);
    }
    let mut tables = Vec::with_capacity(set.plans.len());
    let mut plan_stats = Vec::with_capacity(set.plans.len());
    for (pi, plan) in set.plans.iter().enumerate() {
        let mut ctx = ExecCtx::default();
        for (k, sp) in set.shares.iter().enumerate() {
            for &(p, id) in &sp.consumers {
                if p == pi {
                    ctx.shared.insert(id, Arc::clone(&share_batches[k]));
                }
            }
        }
        if !ctx.shared.is_empty() && aqks_obs::metrics::enabled() {
            SHARE_REPLAYS.add(ctx.shared.len() as u64);
        }
        let (table, stats) = run(plan, db, &ctx)?;
        tables.push(table);
        plan_stats.push(stats);
    }
    Ok(SharedRun { tables, plan_stats, share_stats })
}

/// Pretty-prints the shared-subplan DAG: every share point's subtree
/// once, then each representative plan with `⇒ shared #k` markers at
/// its consumer sites (subtrees below a marker are elided — they run
/// as cached-row replays).
pub fn render_shared(set: &SharedSet) -> String {
    let mut out = String::new();
    for (k, sp) in set.shares.iter().enumerate() {
        out.push_str(&format!(
            "shared subplan #{k} [{:016x}] used {} times:\n",
            sp.fingerprint,
            sp.consumers.len()
        ));
        render_tree(&sp.subtree, "", true, true, &HashMap::new(), &mut out);
    }
    if set.shares.is_empty() {
        out.push_str("no shared subplans\n");
    }
    for (pi, plan) in set.plans.iter().enumerate() {
        let mut marks: HashMap<usize, usize> = HashMap::new();
        for (k, sp) in set.shares.iter().enumerate() {
            for &(p, id) in &sp.consumers {
                if p == pi {
                    marks.insert(id, k);
                }
            }
        }
        out.push_str(&format!("plan #{pi}:\n"));
        render_tree(plan, "", true, true, &marks, &mut out);
    }
    out
}

fn render_tree(
    node: &PlanNode,
    prefix: &str,
    last: bool,
    root: bool,
    marks: &HashMap<usize, usize>,
    out: &mut String,
) {
    let (branch, child_prefix) = if root {
        (String::new(), String::new())
    } else if last {
        (format!("{prefix}└─ "), format!("{prefix}   "))
    } else {
        (format!("{prefix}├─ "), format!("{prefix}│  "))
    };
    out.push_str(&branch);
    if let Some(&k) = marks.get(&node.id) {
        out.push_str(&format!("⇒ shared #{k}: {} (est={})\n", node.label(), node.est_rows));
        return;
    }
    out.push_str(&format!("{} (est={})\n", node.label(), node.est_rows));
    let n = node.children.len();
    for (i, c) in node.children.iter().enumerate() {
        render_tree(c, &child_prefix, i + 1 == n, false, marks, out);
    }
}

fn reassign_ids(node: &mut PlanNode, next: &mut usize) {
    node.id = *next;
    *next += 1;
    for c in &mut node.children {
        reassign_ids(c, next);
    }
}
