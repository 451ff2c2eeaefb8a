//! The traced run's span tree and its self-time accounting.
//!
//! The root span is the benchmark's own wall time of one traced
//! `answer` call; the layer spans below it come from the engine's trace
//! and, below `exec`, from the executor's per-operator `OpMetrics` (see
//! `traced`). A span's *self time* is its duration minus the durations
//! of the child spans it covers; the root's self time is the part of
//! `answer` no layer claims (`trace.unattributed`). Self times plus the
//! unattributed time add up to the root by construction; what the
//! accounting check tests is that no span's children outlast it. As the
//! root is measured on a different clock from the layers, this catches
//! a layer time that exceeds the wall time it sits in.

use std::collections::BTreeMap;

/// One timed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.match` or `sqlgen.op.HashJoin`.
    pub name: String,
    /// Inclusive duration in nanoseconds.
    pub total_ns: u64,
    /// Child spans, all covered by this one.
    pub children: Vec<Span>,
}

impl Span {
    /// A span with no children.
    #[cfg(test)]
    pub fn leaf(name: impl Into<String>, total_ns: u64) -> Span {
        Span { name: name.into(), total_ns, children: Vec::new() }
    }

    /// Duration minus the children's durations (negative when the
    /// children claim more time than the span lasted).
    pub fn self_ns(&self) -> i128 {
        self.total_ns as i128 - self.children.iter().map(|c| c.total_ns as i128).sum::<i128>()
    }
}

/// Per-layer totals over many traced roots.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Layer name -> summed self time (ns).
    pub self_ns: BTreeMap<String, i128>,
    /// Summed root (answer) wall time (ns).
    pub root_ns: u128,
    /// Summed root self time: time no layer claims (ns).
    pub unattributed_ns: i128,
    /// Roots folded in.
    pub roots: u64,
}

impl Ledger {
    /// Checks one root's accounting and folds it in. Fails when the
    /// children of any span, the root included, last longer than it.
    pub fn add(&mut self, root: &Span) -> Result<(), String> {
        let mut layers: BTreeMap<String, i128> = BTreeMap::new();
        check(root, &mut layers)?;
        let unattributed = root.self_ns();
        for (k, v) in layers {
            *self.self_ns.entry(k).or_default() += v;
        }
        self.root_ns += root.total_ns as u128;
        self.unattributed_ns += unattributed;
        self.roots += 1;
        Ok(())
    }

    /// Mean self time of `layer` per root, in microseconds.
    pub fn mean_us(&self, layer: &str) -> f64 {
        let ns = self.self_ns.get(layer).copied().unwrap_or(0);
        ns as f64 / 1e3 / self.roots.max(1) as f64
    }

    /// Share of the roots' wall time spent in `layer`'s self time.
    pub fn share(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / self.root_ns.max(1) as f64
    }

    /// Share of the roots' wall time no layer claims.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns as f64 / self.root_ns.max(1) as f64
    }
}

/// Validates every non-root span under `s` and sums self times by name.
fn check(s: &Span, layers: &mut BTreeMap<String, i128>) -> Result<(), String> {
    if s.self_ns() < 0 {
        return Err(format!(
            "children of `{}` last {} ns, longer than the span's {} ns",
            s.name,
            s.total_ns as i128 - s.self_ns(),
            s.total_ns
        ));
    }
    for c in &s.children {
        *layers.entry(c.name.clone()).or_default() += c.self_ns();
        check(c, layers)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Span {
        Span {
            name: "answer".into(),
            total_ns: 1000,
            children: vec![
                Span::leaf("core.match", 100),
                Span {
                    name: "sqlgen.exec".into(),
                    total_ns: 700,
                    children: vec![Span {
                        name: "sqlgen.op.Project".into(),
                        total_ns: 600,
                        children: vec![Span::leaf("sqlgen.op.Scan", 450)],
                    }],
                },
            ],
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let t = tree();
        assert_eq!(t.self_ns(), 200);
        assert_eq!(t.children[1].self_ns(), 100);
        assert_eq!(t.children[1].children[0].self_ns(), 150);
    }

    #[test]
    fn ledger_sums_self_times_per_layer() {
        let mut l = Ledger::default();
        l.add(&tree()).unwrap();
        l.add(&tree()).unwrap();
        assert_eq!(l.roots, 2);
        assert_eq!(l.mean_us("core.match"), 0.1);
        assert_eq!(l.mean_us("sqlgen.op.Scan"), 0.45);
        assert_eq!(l.mean_us("sqlgen.op.Project"), 0.15);
        assert_eq!(l.mean_us("sqlgen.exec"), 0.1);
        assert_eq!(l.unattributed_share(), 0.2);
        let total: f64 = l.self_ns.keys().map(|k| l.share(k)).sum::<f64>() + l.unattributed_share();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_child_longer_than_its_parent_fails_the_check() {
        let mut t = tree();
        t.children[1].children[0].children[0].total_ns = 650;
        let err = Ledger::default().add(&t).unwrap_err();
        assert!(err.contains("sqlgen.op.Project"), "{err}");
        let mut t = tree();
        t.children.push(Span::leaf("core.rank", 300));
        assert!(Ledger::default().add(&t).unwrap_err().contains("answer"));
    }
}
