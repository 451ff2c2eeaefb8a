//! End-to-end resource-governance tests through the `aqks` facade: the
//! acceptance scenario of the guard layer. A TPC-H′ (denormalized)
//! workload under starvation budgets must come back as a *structured*
//! [`Exhaustion`] report — never a panic, never a stringly error — with
//! whatever interpretations completed before the trip.

use std::time::Duration;

use aqks::core::{Budget, BudgetKind, Engine, Request};
use aqks::datasets::{denormalize_tpch, generate_tpch, university, TpchConfig};

fn tpch_prime() -> Engine {
    Engine::new(denormalize_tpch(&generate_tpch(&TpchConfig::small()))).expect("TPC-H' builds")
}

/// The paper's T1–T8 workload on TPC-H′ under a 1-row / 1-pattern / 1 ms
/// starvation budget: every query must return `Ok` with a structured
/// exhaustion report whose `partial` flag matches the returned value.
#[test]
fn tpch_prime_workload_survives_starvation_budget() {
    let engine = tpch_prime();
    let budget = Budget::unlimited()
        .with_timeout(Duration::from_millis(1))
        .with_max_rows(1)
        .with_max_patterns(1);
    let mut trips = 0;
    for q in aqks_eval::tpch_queries() {
        let governed =
            match engine.ask(q.text, &Request { budget: budget.clone(), ..Request::new(3) }) {
                Ok(g) => g,
                // A term the small dataset cannot match is a legitimate typed
                // error; anything else (especially Internal) is a bug.
                Err(aqks::core::CoreError::NoMatch(_)) => continue,
                Err(e) => panic!("{}: unexpected error {e}", q.id),
            };
        if let Some(ex) = governed.exhaustion {
            trips += 1;
            assert!(
                matches!(ex.kind, BudgetKind::Deadline | BudgetKind::Rows | BudgetKind::Patterns),
                "{}: {ex:?}",
                q.id
            );
            assert!(!ex.site.is_empty(), "{}: trip site recorded", q.id);
            assert_eq!(ex.partial, !governed.interpretations.is_empty(), "{}: {ex:?}", q.id);
        }
    }
    assert!(trips > 0, "the starvation budget tripped on at least one workload query");
}

/// A query worth answering under a merely *tight* (not starving) budget
/// returns its full answer and no exhaustion: budgets only bite when
/// exceeded.
#[test]
fn tpch_prime_generous_budget_is_invisible() {
    let engine = tpch_prime();
    let budget = Budget::unlimited()
        .with_timeout(Duration::from_secs(30))
        .with_max_rows(1_000_000)
        .with_max_patterns(10_000);
    let q = "COUNT order \"royal olive\"";
    let plain = engine.answer(q, 1).expect("query answers");
    let governed = engine.ask(q, &Request { budget, ..Request::new(1) }).expect("query answers");
    assert!(governed.exhaustion.is_none());
    assert_eq!(plain.len(), governed.interpretations.len());
    assert_eq!(plain[0].result, governed.interpretations[0].result);
}

/// The interpretation cap is a soft trip: on a multi-interpretation
/// query it returns exactly the top-k-capped prefix as partial results.
#[test]
fn interpretation_cap_yields_partial_results() {
    let engine = Engine::new(university::normalized()).unwrap();
    let budget = Budget::unlimited().with_max_interpretations(1);
    let governed =
        engine.ask("Green George COUNT Code", &Request { budget, ..Request::new(3) }).unwrap();
    assert_eq!(governed.interpretations.len(), 1);
    let ex = governed.exhaustion.expect("cap trips");
    assert_eq!(ex.kind, BudgetKind::Interpretations);
    assert_eq!(ex.site, "engine.translate");
    assert!(ex.partial);
    // The report renders as the one-liner the CLI prints.
    assert!(ex.to_string().ends_with("(partial results returned)"), "{ex}");
}

/// Each budget dimension trips at its own pipeline layer: rows inside
/// the executor or index, patterns inside enumeration, the deadline at
/// whichever checkpoint runs first.
#[test]
fn trip_sites_name_their_layer() {
    let engine = Engine::new(university::normalized()).unwrap();

    let g = engine
        .ask(
            "Green SUM Credit",
            &Request { budget: Budget::unlimited().with_max_rows(1), ..Request::new(1) },
        )
        .unwrap();
    let ex = g.exhaustion.expect("row cap trips");
    assert_eq!(ex.kind, BudgetKind::Rows);
    assert!(ex.site.starts_with("ops.") || ex.site.starts_with("index."), "{}", ex.site);

    let g = engine
        .ask(
            "Green George COUNT Code",
            &Request { budget: Budget::unlimited().with_max_patterns(1), ..Request::new(3) },
        )
        .unwrap();
    let ex = g.exhaustion.expect("pattern cap trips");
    assert_eq!(ex.kind, BudgetKind::Patterns);
    assert_eq!(ex.site, "pattern.enumerate");

    let g = engine
        .ask(
            "Green SUM Credit",
            &Request {
                budget: Budget::unlimited().with_timeout(Duration::ZERO),
                ..Request::new(1)
            },
        )
        .unwrap();
    let ex = g.exhaustion.expect("deadline trips");
    assert_eq!(ex.kind, BudgetKind::Deadline);
    assert!(!ex.partial);
}

/// Governed calls do not disturb each other or later ungoverned calls:
/// the governor is installed per call, not per engine.
#[test]
fn governance_is_per_call() {
    let engine = Engine::new(university::normalized()).unwrap();
    let starved = Budget::unlimited().with_max_rows(1);
    assert!(engine
        .ask("Green SUM Credit", &Request { budget: starved, ..Request::new(1) })
        .unwrap()
        .exhaustion
        .is_some());
    // Ungoverned and unlimited-governed calls run to completion.
    assert_eq!(engine.answer("Green SUM Credit", 1).unwrap().len(), 1);
    let g = engine
        .ask("Green SUM Credit", &Request { budget: Budget::unlimited(), ..Request::new(1) })
        .unwrap();
    assert!(g.exhaustion.is_none());
    assert_eq!(g.interpretations.len(), 1);
}
