//! Engine extension hooks.
//!
//! The engine itself knows nothing about provenance.  *Value-based*
//! provenance (paper §3, "Distribution") — where every transmitted tuple
//! carries its entire derivation history — is implemented by the provenance
//! layer as an [`AnnotationPolicy`] plugged into the engine: the policy
//! observes every rule firing and decides how many extra bytes to attach to
//! each transmitted tuple.  Centralized provenance can similarly be modelled
//! by charging upload traffic from the policy.
//!
//! Annotations travel *with* the deltas, mirroring the paper's value-based
//! distribution model: [`AnnotationPolicy::on_derivation`] returns an opaque
//! [`AnnotationToken`] that the engine ships inside the delta message, and
//! [`AnnotationPolicy::on_arrival`] merges it into the policy's state for the
//! *receiving* node when the delta is applied there, handed the delta's
//! shared `Arc<Tuple>` so per-tuple state can be keyed by the tuple the
//! table row holds rather than by a recomputed VID.  Keeping annotation
//! state per `(node, tuple)` — rather than in one global map mutated in
//! arbitrary firing order — is what makes value-based provenance
//! deterministic under the sharded runtime: every update to a node's
//! annotations happens in that node's (deterministic) event order.

use crate::engine::Engine;
use exspan_types::{NodeId, Tuple};
use std::sync::Arc;

/// Receives event tuples the engine has no rules for (the engine's
/// [`crate::engine::Step::External`] events) during a driven run.
///
/// This is the hook through which higher protocol layers — the distributed
/// provenance *query* protocol of `exspan-core` — participate in the
/// engine's single simulated clock: [`Engine::run_until_interactive`] calls
/// the sink for every external tuple *in deterministic event order*, with the
/// engine handed back mutably so the sink can reply (send tuples, schedule
/// deltas) at the exact simulated time the event occurred.  Protocol
/// maintenance deltas, churn deltas and query messages therefore interleave
/// on one event queue instead of the query layer monopolizing the engine.
pub trait ExternalSink {
    /// Called for every surfaced external tuple.  `time` is the simulated
    /// arrival time; `insert` is the delta's polarity.  The tuple is shared
    /// with the delta that carried it (clone the `Arc` to retain it).
    fn on_external(
        &mut self,
        engine: &mut Engine,
        node: NodeId,
        tuple: Arc<Tuple>,
        time: f64,
        insert: bool,
    );
}

/// Opaque handle to an annotation shipped inside a delta message.  The
/// meaning of the token is private to the policy that produced it (the
/// value-based policy uses BDD node handles).
pub type AnnotationToken = u64;

/// Observes derivations and charges per-message annotation bytes.
///
/// All methods have empty default implementations so simple policies only
/// override what they need.  Policies must be [`Send`]: the sharded runtime
/// shares one policy between worker threads behind a mutex.
pub trait AnnotationPolicy: Send {
    /// Called when a base tuple is inserted (`insert = true`) or deleted at
    /// `node` by the experiment driver.
    fn on_base(&mut self, node: NodeId, tuple: &Tuple, insert: bool) {
        let _ = (node, tuple, insert);
    }

    /// Called on every rule firing: `rule` fired at `node` with the grounded
    /// `inputs` producing `output`.  `insert` is `false` for deletion deltas
    /// cascading through the rule.  The inputs are the engine's shared table
    /// rows — policies read them without cloning tuple contents.
    ///
    /// The returned token is attached to the emitted delta and handed back to
    /// the policy at [`AnnotationPolicy::annotation_bytes`] (if the delta
    /// leaves the node) and [`AnnotationPolicy::on_arrival`] (when it is
    /// applied at its destination).
    fn on_derivation(
        &mut self,
        node: NodeId,
        rule: &str,
        inputs: &[Arc<Tuple>],
        output: &Tuple,
        insert: bool,
    ) -> Option<AnnotationToken> {
        let _ = (node, rule, inputs, output, insert);
        None
    }

    /// Returns the number of extra annotation bytes to attach to `tuple` when
    /// it is transmitted from `from` to `to` carrying `token`.
    fn annotation_bytes(
        &mut self,
        from: NodeId,
        to: NodeId,
        tuple: &Tuple,
        token: Option<AnnotationToken>,
    ) -> usize {
        let _ = (from, to, tuple, token);
        0
    }

    /// Returns the annotation bytes for the same transmission under the
    /// *compressed* accounting model ([`exspan_types::compress`]).  Only
    /// consulted when the engine runs with
    /// [`crate::engine::EngineConfig::track_compressed`] enabled, and always
    /// *after* [`AnnotationPolicy::annotation_bytes`] for the same delta —
    /// `uncompressed` hands the already-charged flat size over so neither
    /// method is invoked twice.  The default charges the uncompressed size:
    /// a policy without a compressed encoding reports zero savings rather
    /// than wrong bytes.
    fn annotation_bytes_compressed(
        &mut self,
        from: NodeId,
        to: NodeId,
        tuple: &Tuple,
        token: Option<AnnotationToken>,
        uncompressed: usize,
    ) -> usize {
        let _ = (from, to, tuple, token);
        uncompressed
    }

    /// Called when a delta for `tuple` is applied at `node`.  For insertions
    /// `token` is the annotation shipped with the delta (if any).  For
    /// deletions `removed` reports whether the tuple actually left the
    /// node's visible state (its last derivation disappeared), so policies
    /// can keep annotations of tuples that remain visible through other
    /// derivations.
    ///
    /// `tuple` is the delta's shared tuple — for an insertion, the same
    /// allocation the node's table row holds — so a policy can key its
    /// state by the tuple itself (clone the `Arc`) instead of hashing it
    /// into a VID.
    fn on_arrival(
        &mut self,
        node: NodeId,
        tuple: &Arc<Tuple>,
        token: Option<AnnotationToken>,
        insert: bool,
        removed: bool,
    ) {
        let _ = (node, tuple, token, insert, removed);
    }
}

/// A policy that attaches nothing (the "No Prov." baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoAnnotation;

impl AnnotationPolicy for NoAnnotation {}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_types::Value;

    #[test]
    fn default_policy_is_inert() {
        let mut p = NoAnnotation;
        let t = Arc::new(Tuple::new("link", 0, vec![Value::Node(1), Value::Int(1)]));
        p.on_base(0, &t, true);
        let token = p.on_derivation(0, "sp1", std::slice::from_ref(&t), &t, true);
        assert!(token.is_none());
        assert_eq!(p.annotation_bytes(0, 1, &t, token), 0);
        p.on_arrival(0, &t, token, true, false);
    }
}
