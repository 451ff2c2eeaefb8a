//! Plan-algebra equivalence analysis over the physical plan IR.
//!
//! A single keyword query fans out into many interpretations whose
//! physical plans are near-duplicates: the same Scan/Join subtrees
//! re-planned and re-executed per interpretation. The structural
//! fingerprint in `aqks-plancheck` only catches *syntactically*
//! identical plans; this crate proves *semantic* equivalence and then
//! exploits it:
//!
//! - [`canon`] rewrites a plan into a canonical normal form
//!   (commutative join-input and join-key ordering, predicate
//!   normalization, full filter pushdown, Project collapsing). Every
//!   rewrite emits a certificate checked against the properties
//!   inferred by `aqks_plancheck::props` — output schema and
//!   provenance, functional dependencies, uniqueness, sortedness, and
//!   cardinality bounds must all be preserved, or the rewrite is
//!   rejected with a typed [`EquivError`];
//! - [`classes`] canonicalizes an interpretation set and partitions it
//!   into equivalence classes by canonical fingerprint, catching
//!   duplicates the structural fingerprint misses;
//! - [`share`] hash-conses repeated canonical subtrees across one
//!   interpretation set into a shared-subplan DAG and executes each
//!   shared subtree once, feeding its materialized rows to every
//!   consumer through the executor's cached-rows operator.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

use std::fmt;

use aqks_plancheck::PlanError;

pub mod canon;
pub mod classes;
pub mod share;

pub use canon::{canonicalize, certify_rewrite, Canonical};
pub use classes::{analyze, ClassAnalysis, EquivClass};
pub use share::{render_shared, run_shared, shared_set, SharePoint, SharedRun, SharedSet};

/// A rejected rewrite or a canonical plan that fails verification.
#[derive(Debug)]
pub enum EquivError {
    /// A canonicalization rewrite changed an inferred property of the
    /// subtree it rewrote; the certificate comparison names the rule
    /// and the violated property.
    Certificate {
        /// The rewrite rule that produced the rejected subtree.
        rule: &'static str,
        /// Plan-node id (in the input plan) of the rewritten subtree.
        node: usize,
        /// Which inferred property diverged, and how.
        detail: String,
    },
    /// The fully canonicalized plan failed `aqks_plancheck::verify`.
    Verify(PlanError),
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::Certificate { rule, node, detail } => {
                write!(f, "rewrite `{rule}` rejected at node {node}: {detail}")
            }
            EquivError::Verify(e) => write!(f, "canonical plan failed verification: {e}"),
        }
    }
}

impl std::error::Error for EquivError {}
