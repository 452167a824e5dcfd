//! Value-based distributed provenance (§3, §4.1.2) as an engine annotation
//! policy.
//!
//! In value-based provenance every transmitted tuple carries its *entire*
//! derivation history.  Following the evaluation section, the history is
//! condensed into a BDD over base tuples ("Value-based Prov. (BDD)" in
//! Figures 6–10 and 16): on every rule firing the policy conjoins the
//! annotations of the grounded inputs (all local to the firing node) and
//! ships the resulting BDD *with the delta* as an opaque token; when the
//! delta is applied at its destination the shipped history is disjoined into
//! the annotation stored for the tuple *at that node*.
//!
//! Keeping annotations per `(node, tuple)` mirrors the paper's distribution
//! model (each node knows the provenance of the tuples it stores) and is
//! load-bearing for the sharded runtime: every annotation is only read and
//! written while processing events of its own node, which the runtime
//! processes in a deterministic order regardless of shard count.  The BDD
//! manager is shared, but hash-consing makes it canonical — the serialized
//! size of a function does not depend on the order operations reached it.
//!
//! Because the annotation is carried with the data, queries in value-based
//! mode are answered locally ([`ValueBddPolicy::annotation_of`]) without any
//! distributed traversal — the trade-off the paper explores: high maintenance
//! bandwidth, zero query latency.
//!
//! # Keys
//!
//! Annotations live in one map per node keyed by `Arc<Tuple>`: the shared
//! tuple the runtime hands to [`AnnotationPolicy::on_arrival`] and to
//! [`AnnotationPolicy::on_derivation`], which is the allocation the node's
//! table row holds, so an entry costs a pointer and the tuple is hashed with
//! [`exspan_types::fasthash::FastHasher`] instead of being SHA-1'd into a
//! VID on every event.  Lookups borrow a plain `&Tuple`.  Tuple equality and
//! VID equality coincide (the VID hashes an injective encoding of the same
//! fields), so keying by tuple changes no answer.
//!
//! VIDs are still computed where a base tuple gets its BDD variable — in
//! [`AnnotationPolicy::on_base`], and for a rule input the policy has never
//! seen — because the variable map is keyed by VID: trust assignments
//! ([`ValueBddPolicy::derivable_under`]) speak about base tuples by VID.

use exspan_bdd::{Bdd, BddManager};
use exspan_runtime::{AnnotationPolicy, AnnotationToken};
use exspan_types::fasthash::FastHashMap;
use exspan_types::{NodeId, Tuple, Vid};
use std::collections::HashMap;
use std::sync::Arc;

/// Annotation policy implementing value-based (BDD) provenance.
#[derive(Debug, Default)]
pub struct ValueBddPolicy {
    manager: BddManager,
    /// Boolean variable assigned to each base tuple.
    vars: HashMap<Vid, u32>,
    /// Provenance stored for each tuple at each node (see "Keys" above).
    annotations: FastHashMap<NodeId, FastHashMap<Arc<Tuple>, Bdd>>,
    /// Bytes of annotation attached to messages so far.
    annotation_bytes_total: u64,
}

/// The BDD variable of the base tuple `vid`, assigned on first sight.
fn var_for(vars: &mut HashMap<Vid, u32>, manager: &mut BddManager, vid: Vid) -> Bdd {
    let next = vars.len() as u32;
    let id = *vars.entry(vid).or_insert(next);
    manager.var(id)
}

impl ValueBddPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The provenance BDD stored for a tuple at its own location, if any.
    pub fn annotation_of(&self, tuple: &Tuple) -> Option<Bdd> {
        self.annotations.get(&tuple.location)?.get(tuple).copied()
    }

    /// Serialized size (bytes) of a tuple's provenance annotation.
    pub fn annotation_size(&self, tuple: &Tuple) -> usize {
        self.annotation_of(tuple)
            .map_or(0, |b| self.manager.serialized_size(b))
    }

    /// Derivability test under a trust assignment over base tuples: is the
    /// tuple derivable using only trusted base tuples?
    pub fn derivable_under<F: Fn(Vid) -> bool>(&self, tuple: &Tuple, trusted: F) -> bool {
        let Some(b) = self.annotation_of(tuple) else {
            return false;
        };
        let by_var: HashMap<u32, bool> = self
            .vars
            .iter()
            .map(|(vid, var)| (*var, trusted(*vid)))
            .collect();
        self.manager
            .evaluate(b, |v| by_var.get(&v).copied().unwrap_or(false))
    }

    /// Total annotation bytes attached to transmitted tuples so far.
    pub fn total_annotation_bytes(&self) -> u64 {
        self.annotation_bytes_total
    }

    /// Number of `(node, tuple)` entries with a tracked provenance annotation.
    pub fn tracked_tuples(&self) -> usize {
        self.annotations.values().map(FastHashMap::len).sum()
    }

    /// The BDD manager (for inspection).
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }
}

impl AnnotationPolicy for ValueBddPolicy {
    fn on_base(&mut self, node: NodeId, tuple: &Tuple, insert: bool) {
        let stored = self.annotations.entry(node).or_default();
        if insert {
            let var = var_for(&mut self.vars, &mut self.manager, tuple.vid());
            match stored.get_mut(tuple) {
                Some(b) => *b = var,
                None => {
                    stored.insert(Arc::new(tuple.clone()), var);
                }
            }
        } else {
            stored.remove(tuple);
        }
    }

    fn on_derivation(
        &mut self,
        node: NodeId,
        _rule: &str,
        inputs: &[Arc<Tuple>],
        _output: &Tuple,
        insert: bool,
    ) -> Option<AnnotationToken> {
        let _ = insert;
        // AND over the inputs' locally stored provenance.  Rule bodies are
        // localized, so every input lives at the firing node.  Deletion
        // deltas ship the same conjunction: a value-based retraction must
        // identify *which* derivation disappears, so it carries (and is
        // charged for) that derivation's history just like the insertion
        // that established it.
        let mut conj = Bdd::TRUE;
        let stored = self.annotations.entry(node).or_default();
        for input in inputs {
            let b = match stored.get(&**input) {
                Some(b) => *b,
                // Inputs we have never seen (e.g. base tuples seeded before
                // the policy was installed) are treated as base variables.
                None => {
                    let var = var_for(&mut self.vars, &mut self.manager, input.vid());
                    stored.insert(Arc::clone(input), var);
                    var
                }
            };
            conj = self.manager.and(conj, b);
        }
        Some(conj.index())
    }

    fn annotation_bytes(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _tuple: &Tuple,
        token: Option<AnnotationToken>,
    ) -> usize {
        let bytes = token.map_or(0, |t| self.manager.serialized_size(Bdd::from_raw(t)));
        self.annotation_bytes_total += bytes as u64;
        bytes
    }

    fn annotation_bytes_compressed(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _tuple: &Tuple,
        token: Option<AnnotationToken>,
        _uncompressed: usize,
    ) -> usize {
        // Varint node encoding of the shipped BDD.  Deliberately does NOT
        // touch `annotation_bytes_total`: the flat accounting behind the
        // existing figures already charged this delta.
        token.map_or(0, |t| {
            self.manager.compressed_serialized_size(Bdd::from_raw(t))
        })
    }

    fn on_arrival(
        &mut self,
        node: NodeId,
        tuple: &Arc<Tuple>,
        token: Option<AnnotationToken>,
        insert: bool,
        removed: bool,
    ) {
        if insert {
            // OR the shipped derivation history into the annotation stored
            // for this tuple at this node (alternative derivations).
            if let Some(t) = token {
                let shipped = Bdd::from_raw(t);
                let stored = self.annotations.entry(node).or_default();
                match stored.get_mut(&**tuple) {
                    Some(existing) => *existing = self.manager.or(*existing, shipped),
                    None => {
                        stored.insert(Arc::clone(tuple), shipped);
                    }
                }
            }
        } else if removed {
            // Last derivation gone: the stale history must not keep
            // contributing bytes.  Tuples that stay visible through other
            // derivations keep their annotation.
            if let Some(stored) = self.annotations.get_mut(&node) {
                stored.remove(&**tuple);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_types::Value;

    fn link(s: NodeId, d: NodeId, c: i64) -> Tuple {
        Tuple::new("link", s, vec![Value::Node(d), Value::Int(c)])
    }

    fn shared(t: &Tuple) -> [Arc<Tuple>; 1] {
        [Arc::new(t.clone())]
    }

    fn path_cost(s: NodeId, d: NodeId, c: i64) -> Arc<Tuple> {
        Arc::new(Tuple::new(
            "pathCost",
            s,
            vec![Value::Node(d), Value::Int(c)],
        ))
    }

    #[test]
    fn tracks_base_and_derived_provenance() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        let l2 = link(1, 0, 3);
        p.on_base(0, &l1, true);
        p.on_base(1, &l2, true);
        let pc = path_cost(0, 2, 5);
        let token = p.on_derivation(0, "sp1", &shared(&l1), &pc, true);
        assert!(token.is_some());
        p.on_arrival(0, &pc, token, true, false);
        assert!(p.derivable_under(&pc, |v| v == l1.vid()));
        assert!(!p.derivable_under(&pc, |v| v == l2.vid()));
        assert_eq!(p.tracked_tuples(), 3);
        assert!(p.annotation_size(&pc) >= 4);
    }

    #[test]
    fn alternative_derivations_are_ored_at_the_storage_node() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        let l2 = link(1, 0, 3);
        let bpc = Tuple::new("bestPathCost", 1, vec![Value::Node(2), Value::Int(2)]);
        p.on_base(0, &l1, true);
        p.on_base(1, &l2, true);
        p.on_base(1, &bpc, true); // treat as base for the test
        let pc = path_cost(0, 2, 5);
        // One derivation computed at node 0, an alternative shipped from 1.
        let t1 = p.on_derivation(0, "sp1", &shared(&l1), &pc, true);
        p.on_arrival(0, &pc, t1, true, false);
        let t2 = p.on_derivation(
            1,
            "sp2",
            &[Arc::new(l2.clone()), Arc::new(bpc.clone())],
            &pc,
            true,
        );
        p.on_arrival(0, &pc, t2, true, false);
        // Either derivation suffices.
        assert!(p.derivable_under(&pc, |v| v == l1.vid()));
        assert!(p.derivable_under(&pc, |v| v == l2.vid() || v == bpc.vid()));
        assert!(!p.derivable_under(&pc, |v| v == l2.vid()));
    }

    #[test]
    fn unseen_inputs_become_base_variables() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        let pc = path_cost(0, 2, 5);
        // on_base was never called for l1.
        let token = p.on_derivation(0, "sp1", &shared(&l1), &pc, true);
        p.on_arrival(0, &pc, token, true, false);
        assert!(p.derivable_under(&pc, |v| v == l1.vid()));
    }

    #[test]
    fn annotation_bytes_follow_the_shipped_token() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        p.on_base(0, &l1, true);
        let pc = path_cost(0, 2, 5);
        let token = p.on_derivation(0, "sp1", &shared(&l1), &pc, true);
        let b1 = p.annotation_bytes(0, 2, &pc, token);
        assert!(b1 > 0);
        assert_eq!(p.total_annotation_bytes(), b1 as u64);
        // Deltas without a token carry no annotation.
        assert_eq!(p.annotation_bytes(0, 2, &path_cost(7, 8, 9), None), 0);
        // Deleting the base tuple clears its annotation.
        p.on_base(0, &l1, false);
        assert!(p.annotation_of(&l1).is_none());
    }

    #[test]
    fn deletion_arrival_drops_only_when_removed() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        p.on_base(0, &l1, true);
        let pc = path_cost(0, 2, 5);
        let token = p.on_derivation(0, "sp1", &shared(&l1), &pc, true);
        p.on_arrival(0, &pc, token, true, false);
        assert!(p.annotation_of(&pc).is_some());
        // A deletion that leaves other derivations keeps the annotation.
        p.on_arrival(0, &pc, None, false, false);
        assert!(p.annotation_of(&pc).is_some());
        // The final deletion drops it.
        p.on_arrival(0, &pc, None, false, true);
        assert!(p.annotation_of(&pc).is_none());
    }
}
