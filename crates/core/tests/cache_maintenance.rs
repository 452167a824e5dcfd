//! Differential tests for incremental cache maintenance
//! (`CacheMaintenance::Incremental`, §6.1).
//!
//! The guarantee under test: after a base-tuple deletion, a cached query
//! session that *maintains* its entries in place returns exactly what an
//! invalidate-and-recompute session returns — at one shard and at four.
//! Polynomial results are compared as canonical monomial sets (the set of
//! derivations, each a sorted multiset of base-tuple VIDs), which is the
//! semantic content of a provenance polynomial and is insensitive to the
//! structural term ordering that recomputation may shuffle.  BDD results
//! are compared by evaluating both under a battery of trust assignments.

use exspan_core::{CacheMaintenance, Deployment, Exspan, ProvExpr, ProvenanceMode, Repr};
use exspan_ndlog::programs;
use exspan_netsim::Topology;
use exspan_types::{Tuple, Vid};
use std::collections::BTreeSet;

fn deploy(shards: usize) -> Deployment {
    Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::testbed_ring(16, 5))
        .mode(ProvenanceMode::Reference)
        .shards(shards)
        .build()
        .expect("valid deployment")
}

/// Query targets with interesting provenance: every bestPathCost stored at
/// the first few nodes after the protocol converged.
fn targets(deployment: &Deployment) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = deployment
        .tuples_everywhere_shared("bestPathCost")
        .iter()
        .filter(|t| t.location < 6)
        .map(|t| (**t).clone())
        .collect();
    out.sort();
    out
}

/// Expands a polynomial into its canonical monomial set: one sorted VID list
/// per derivation.
fn monomials(e: &ProvExpr) -> BTreeSet<Vec<Vid>> {
    match e {
        ProvExpr::Base(v) => BTreeSet::from([vec![*v]]),
        ProvExpr::Sum { terms, .. } => terms.iter().flat_map(monomials).collect(),
        ProvExpr::Product { factors, .. } => {
            let mut acc: BTreeSet<Vec<Vid>> = BTreeSet::from([Vec::new()]);
            for f in factors {
                let fm = monomials(f);
                acc = acc
                    .iter()
                    .flat_map(|m| {
                        fm.iter().map(move |fm1| {
                            let mut combined = m.clone();
                            combined.extend(fm1.iter().copied());
                            combined.sort();
                            combined
                        })
                    })
                    .collect();
            }
            acc
        }
    }
}

/// One full scenario at a given shard count and maintenance policy:
/// converge, warm the cache, delete a ring link, re-converge, re-query.
/// Returns the canonical monomial sets of the second round of answers plus
/// the session's (maintained, invalidations) counters.
fn polynomial_round(
    shards: usize,
    maintenance: CacheMaintenance,
) -> (Vec<Option<BTreeSet<Vec<Vid>>>>, u64, u64) {
    let mut d = deploy(shards);
    d.run_to_fixpoint();
    let targets = targets(&d);
    assert!(!targets.is_empty(), "protocol produced no bestPathCost");
    for t in &targets {
        let _ = d
            .query(t)
            .repr(Repr::Polynomial)
            .cached(true)
            .maintenance(maintenance)
            .submit();
    }
    d.run_to_fixpoint();
    // Delete one ring link (both directions) and let retractions cascade.
    d.remove_link(2, 3);
    d.run_to_fixpoint();
    // Second round: same targets, answered from the maintained (or
    // recomputed) cache where entries survived.
    let mut handles = Vec::new();
    for t in &targets {
        handles.push(
            d.query(t)
                .repr(Repr::Polynomial)
                .cached(true)
                .maintenance(maintenance)
                .submit(),
        );
    }
    d.run_to_fixpoint();
    let answers = handles
        .iter()
        .map(|h| {
            d.outcome(*h)
                .and_then(|o| o.annotation.as_ref())
                .and_then(|a| a.as_expr())
                .map(monomials)
        })
        .collect();
    let stats = d.session(handles[0]).stats().clone();
    (answers, stats.cache_maintained, stats.invalidations)
}

#[test]
fn maintained_polynomials_match_recompute_at_one_and_four_shards() {
    let (oracle, zero_maintained, oracle_invalidations) =
        polynomial_round(1, CacheMaintenance::Invalidate);
    assert_eq!(
        zero_maintained, 0,
        "invalidate mode must never maintain in place"
    );
    assert!(
        oracle_invalidations > 0,
        "the deleted link must touch cached entries"
    );
    for shards in [1, 4] {
        let (maintained, maintained_count, _) =
            polynomial_round(shards, CacheMaintenance::Incremental);
        assert_eq!(
            oracle, maintained,
            "incremental maintenance diverged from invalidate-and-recompute at {shards} shard(s)"
        );
        assert!(
            maintained_count > 0,
            "incremental mode never exercised the maintenance path at {shards} shard(s)"
        );
    }
    // The invalidate oracle itself must be shard-count independent.
    let (oracle4, _, _) = polynomial_round(4, CacheMaintenance::Invalidate);
    assert_eq!(oracle, oracle4);
}

#[test]
fn maintained_bdd_answers_match_recompute_under_trust_assignments() {
    // Same scenario with the condensed (BDD) representation: compare the
    // two policies' answers semantically, by evaluating derivability under
    // a battery of trust assignments over base links.
    let run = |maintenance: CacheMaintenance| {
        let mut d = deploy(1);
        d.run_to_fixpoint();
        let targets = targets(&d);
        for t in &targets {
            let _ = d
                .query(t)
                .repr(Repr::Bdd)
                .cached(true)
                .maintenance(maintenance)
                .submit();
        }
        d.run_to_fixpoint();
        d.remove_link(2, 3);
        d.run_to_fixpoint();
        let mut handles = Vec::new();
        for t in &targets {
            handles.push(
                d.query(t)
                    .repr(Repr::Bdd)
                    .cached(true)
                    .maintenance(maintenance)
                    .submit(),
            );
        }
        d.run_to_fixpoint();
        // Distrust each node's outgoing links in turn, plus all-trusted.
        let link_vids_of = |node: u32, d: &Deployment| -> BTreeSet<Vid> {
            d.tuples_everywhere_shared("link")
                .iter()
                .filter(|t| t.location == node)
                .map(|t| t.vid())
                .collect()
        };
        let mut verdicts = Vec::new();
        for h in &handles {
            verdicts.push(d.derivable_under(*h, |_| true));
            for node in 0..8u32 {
                let distrusted = link_vids_of(node, &d);
                verdicts.push(d.derivable_under(*h, |v| !distrusted.contains(&v)));
            }
        }
        verdicts
    };
    let recomputed = run(CacheMaintenance::Invalidate);
    let maintained = run(CacheMaintenance::Incremental);
    assert!(recomputed.iter().any(Option::is_some));
    assert_eq!(recomputed, maintained);
}

#[test]
fn insertions_fall_back_to_invalidation() {
    // Incremental maintenance only prunes on deletion; an insertion must
    // invalidate exactly like the default policy — a cached annotation
    // cannot learn about derivations it has never seen.
    let mut d = deploy(1);
    d.run_to_fixpoint();
    let targets = targets(&d);
    let t = targets.first().expect("targets").clone();
    let h = d
        .query(&t)
        .repr(Repr::Polynomial)
        .cached(true)
        .maintenance(CacheMaintenance::Incremental)
        .submit();
    d.run_to_fixpoint();
    let before = d.session(h).cache_entries();
    assert!(before > 0);
    // Insert a brand-new link touching the cached path.
    d.add_link(
        2,
        9,
        exspan_netsim::LinkProps::from_class(exspan_netsim::LinkClass::Testbed),
    );
    d.run_to_fixpoint();
    let stats = d.session(h).stats().clone();
    assert_eq!(
        stats.cache_maintained, 0,
        "insertion must not take the maintenance path"
    );
    // And the query still answers correctly after the insertion.
    let h2 = d
        .query(&t)
        .repr(Repr::Polynomial)
        .cached(true)
        .maintenance(CacheMaintenance::Incremental)
        .submit();
    d.run_to_fixpoint();
    let ann = d.outcome(h2).and_then(|o| o.annotation.clone());
    assert!(
        ann.is_some(),
        "query after insertion produced no annotation"
    );
}

/// Submits a cached polynomial query for `t` under `maintenance`, runs it to
/// completion and returns its canonical monomial set.
fn cached_answer(
    d: &mut Deployment,
    t: &Tuple,
    maintenance: CacheMaintenance,
) -> BTreeSet<Vec<Vid>> {
    let h = d
        .query(t)
        .repr(Repr::Polynomial)
        .cached(true)
        .maintenance(maintenance)
        .submit();
    d.run_to_fixpoint();
    d.outcome(h)
        .and_then(|o| o.annotation.as_ref())
        .and_then(|a| a.as_expr())
        .map(monomials)
        .expect("query completed with a polynomial")
}

#[test]
fn a_target_deleted_then_rederived_is_not_answered_from_a_stale_empty_entry() {
    // Querying a tuple churn has deleted yields an empty answer.  That
    // answer depends on no base tuple, so nothing would ever invalidate it
    // if it were cached: once the tuple is derived again the session must
    // not keep serving "no derivations".
    for maintenance in [CacheMaintenance::Invalidate, CacheMaintenance::Incremental] {
        for shards in [1, 4] {
            let mut d = deploy(shards);
            d.run_to_fixpoint();
            let target = d
                .tuples_everywhere_shared("bestPathCost")
                .iter()
                .find(|t| t.location == 2 && t.values[0] == exspan_types::Value::Node(3))
                .map(|t| (**t).clone())
                .expect("bestPathCost(@2, 3, _) after convergence");
            let label = format!("{maintenance:?} at {shards} shard(s)");
            assert!(
                !cached_answer(&mut d, &target, maintenance).is_empty(),
                "{label}: converged target has no derivations"
            );

            let props = *d.engine().topology().link(2, 3).expect("ring link 2-3");
            d.remove_link(2, 3);
            d.run_to_fixpoint();
            assert!(
                !d.tuples_everywhere_shared("bestPathCost")
                    .iter()
                    .any(|t| **t == target),
                "{label}: deleting the direct link must retract {target}"
            );
            assert!(
                cached_answer(&mut d, &target, maintenance).is_empty(),
                "{label}: a deleted target has no derivations"
            );

            d.add_link(2, 3, props);
            d.run_to_fixpoint();
            assert!(
                d.tuples_everywhere_shared("bestPathCost")
                    .iter()
                    .any(|t| **t == target),
                "{label}: restoring the link must re-derive {target}"
            );
            assert!(
                !cached_answer(&mut d, &target, maintenance).is_empty(),
                "{label}: the re-derived target was answered from a stale empty entry"
            );
        }
    }
}
