//! Differential property test of the value-based provenance policy: the
//! tuple-keyed [`ValueBddPolicy`] must agree with a straightforward model
//! that keys every annotation by `(node, VID)`, over random sequences of
//! base insertions and deletions, rule firings, delta arrivals (including
//! a keyed replacement's removal of the old row) and shipped-byte charges.
//!
//! Both sides intern into the process-global BDD store, whose node ids are
//! content-keyed, so equal functions over equal variable numberings have
//! equal handles and the two policies' answers compare directly.

use exspan_bdd::{Bdd, BddManager};
use exspan_core::ValueBddPolicy;
use exspan_runtime::{AnnotationPolicy, AnnotationToken};
use exspan_types::{NodeId, Tuple, Value, Vid};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The reference: annotations keyed by `(node, VID)`, recomputing the VID
/// of every tuple it touches.
#[derive(Default)]
struct VidKeyed {
    manager: BddManager,
    vars: HashMap<Vid, u32>,
    annotations: HashMap<(NodeId, Vid), Bdd>,
    bytes: u64,
}

impl VidKeyed {
    fn var_for(&mut self, vid: Vid) -> Bdd {
        let next = self.vars.len() as u32;
        let id = *self.vars.entry(vid).or_insert(next);
        self.manager.var(id)
    }

    fn on_base(&mut self, node: NodeId, tuple: &Tuple, insert: bool) {
        let vid = tuple.vid();
        if insert {
            let var = self.var_for(vid);
            self.annotations.insert((node, vid), var);
        } else {
            self.annotations.remove(&(node, vid));
        }
    }

    fn on_derivation(&mut self, node: NodeId, inputs: &[Arc<Tuple>]) -> AnnotationToken {
        let mut conj = Bdd::TRUE;
        for input in inputs {
            let vid = input.vid();
            let b = match self.annotations.get(&(node, vid)) {
                Some(b) => *b,
                None => {
                    let var = self.var_for(vid);
                    self.annotations.insert((node, vid), var);
                    var
                }
            };
            conj = self.manager.and(conj, b);
        }
        conj.index()
    }

    fn annotation_bytes(&mut self, token: Option<AnnotationToken>) -> usize {
        let bytes = token.map_or(0, |t| self.manager.serialized_size(Bdd::from_raw(t)));
        self.bytes += bytes as u64;
        bytes
    }

    fn on_arrival(
        &mut self,
        node: NodeId,
        tuple: &Tuple,
        token: Option<AnnotationToken>,
        insert: bool,
        removed: bool,
    ) {
        let vid = tuple.vid();
        if insert {
            if let Some(t) = token {
                let shipped = Bdd::from_raw(t);
                let combined = match self.annotations.get(&(node, vid)) {
                    Some(existing) => self.manager.or(*existing, shipped),
                    None => shipped,
                };
                self.annotations.insert((node, vid), combined);
            }
        } else if removed {
            self.annotations.remove(&(node, vid));
        }
    }

    fn annotation_of(&self, tuple: &Tuple) -> Option<Bdd> {
        self.annotations
            .get(&(tuple.location, tuple.vid()))
            .copied()
    }

    fn derivable_under(&self, tuple: &Tuple, trusted: impl Fn(Vid) -> bool) -> bool {
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
}

/// A small universe of tuples over 3 nodes: links and path vectors, so
/// both flat and list-valued tuples are keys.  Equal indices give equal
/// (but separately allocated) tuples.
fn tuple(i: usize) -> Tuple {
    let loc = (i % 3) as NodeId;
    let d = ((i / 3) % 3) as NodeId;
    if i % 2 == 0 {
        Tuple::new(
            "link",
            loc,
            vec![Value::Node(d), Value::Int((i % 5) as i64)],
        )
    } else {
        Tuple::new(
            "path",
            loc,
            vec![
                Value::Node(d),
                Value::list(vec![Value::Node(loc), Value::Node(d)]),
                Value::Int((i % 4) as i64),
            ],
        )
    }
}

const UNIVERSE: usize = 18;

#[derive(Debug, Clone)]
enum Op {
    Base {
        node: NodeId,
        t: usize,
        insert: bool,
    },
    Derive {
        node: NodeId,
        inputs: Vec<usize>,
        out: usize,
    },
    Arrive {
        node: NodeId,
        t: usize,
        token: Option<usize>,
        insert: bool,
        removed: bool,
    },
    /// A keyed table replaced `old` by `new` at `node`: the new row's
    /// insertion arrives, then the old row leaves for good.
    Replace {
        node: NodeId,
        old: usize,
        new: usize,
        token: Option<usize>,
    },
    Ship {
        token: Option<usize>,
    },
}

/// An index into the tokens produced so far, or no token.
fn arb_token() -> impl Strategy<Value = Option<usize>> + Clone {
    (any::<bool>(), any::<usize>()).prop_map(|(some, i)| some.then_some(i))
}

fn arb_op() -> impl Strategy<Value = Op> {
    let node = 0..3u32;
    let t = 0..UNIVERSE;
    prop_oneof![
        (node.clone(), t.clone(), any::<bool>()).prop_map(|(node, t, insert)| Op::Base {
            node,
            t,
            insert
        }),
        (
            node.clone(),
            proptest::collection::vec(0..UNIVERSE, 0..4),
            t.clone()
        )
            .prop_map(|(node, inputs, out)| Op::Derive { node, inputs, out }),
        (
            node.clone(),
            t.clone(),
            arb_token(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(node, t, token, insert, removed)| Op::Arrive {
                node,
                t,
                token,
                insert,
                removed
            }),
        (node, t.clone(), t, arb_token()).prop_map(|(node, old, new, token)| {
            Op::Replace {
                node,
                old,
                new,
                token,
            }
        }),
        arb_token().prop_map(|token| Op::Ship { token }),
    ]
}

/// Applies `ops` to both policies, checking tokens and charged bytes as
/// they are produced; arrivals at the tuple's own node are the common case
/// but any node may receive any tuple.
fn run(ops: &[Op]) -> (ValueBddPolicy, VidKeyed) {
    let mut policy = ValueBddPolicy::new();
    let mut model = VidKeyed::default();
    let mut tokens: Vec<AnnotationToken> = Vec::new();
    let pick = |tokens: &[AnnotationToken], i: Option<usize>| {
        i.filter(|_| !tokens.is_empty())
            .map(|i| tokens[i % tokens.len()])
    };
    for op in ops {
        match op {
            Op::Base { node, t, insert } => {
                policy.on_base(*node, &tuple(*t), *insert);
                model.on_base(*node, &tuple(*t), *insert);
            }
            Op::Derive { node, inputs, out } => {
                let inputs: Vec<Arc<Tuple>> = inputs.iter().map(|&i| Arc::new(tuple(i))).collect();
                let got = policy.on_derivation(*node, "r", &inputs, &tuple(*out), true);
                let want = model.on_derivation(*node, &inputs);
                prop_assert_eq!(got, Some(want));
                tokens.push(want);
            }
            Op::Arrive {
                node,
                t,
                token,
                insert,
                removed,
            } => {
                let token = pick(&tokens, *token);
                policy.on_arrival(*node, &Arc::new(tuple(*t)), token, *insert, *removed);
                model.on_arrival(*node, &tuple(*t), token, *insert, *removed);
            }
            Op::Replace {
                node,
                old,
                new,
                token,
            } => {
                let token = pick(&tokens, *token);
                policy.on_arrival(*node, &Arc::new(tuple(*new)), token, true, false);
                model.on_arrival(*node, &tuple(*new), token, true, false);
                policy.on_arrival(*node, &Arc::new(tuple(*old)), None, false, true);
                model.on_arrival(*node, &tuple(*old), None, false, true);
            }
            Op::Ship { token } => {
                let token = pick(&tokens, *token);
                let got = policy.annotation_bytes(0, 1, &tuple(0), token);
                prop_assert_eq!(got, model.annotation_bytes(token));
            }
        }
    }
    (policy, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tuple_keyed_policy_agrees_with_the_vid_keyed_model(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let (policy, model) = run(&ops);
        prop_assert_eq!(policy.tracked_tuples(), model.annotations.len());
        prop_assert_eq!(policy.total_annotation_bytes(), model.bytes);
        for i in 0..UNIVERSE {
            let t = tuple(i);
            prop_assert_eq!(policy.annotation_of(&t), model.annotation_of(&t));
            let model_size = model
                .annotation_of(&t)
                .map_or(0, |b| model.manager.serialized_size(b));
            prop_assert_eq!(policy.annotation_size(&t), model_size);
            // Trust everything, nothing, and two halves of the base tuples.
            let trusts: [&dyn Fn(Vid) -> bool; 4] = [
                &|_| true,
                &|_| false,
                &|v: Vid| v.0[0] % 2 == 0,
                &|v: Vid| v.0[0] % 2 == 1,
            ];
            for trusted in trusts {
                prop_assert_eq!(
                    policy.derivable_under(&t, trusted),
                    model.derivable_under(&t, trusted)
                );
            }
        }
    }
}
