//! Micro-benchmarks of value-based provenance's per-event costs: what every
//! shipped tuple pays in `ValueBddPolicy` and the shared BDD store.
//!
//! Each case repeats its operation 1000 times per iteration.
//!
//! * `tuple_vid_path6` — one SHA-1 VID of a PATHVECTOR `path` tuple with a
//!   six-hop path vector.  The policy computes VIDs only where a base tuple
//!   gets its BDD variable, but WAL and snapshot digests and the rewritten
//!   rules' `f_sha1` still hash on every event.
//! * `bdd_serialized_size_1k` against `bdd_reachable_walk_1k` — sizing a
//!   shipped BDD of about a thousand internal nodes: the cached count the
//!   flat wire model reads, next to the full reachable walk it replaces.
//! * `value_policy_derive_ship_arrive` — the policy's share of a rule
//!   firing whose head crosses the network: conjoin the inputs' stored
//!   annotations, charge the shipped bytes, disjoin into the receiver's.

use criterion::{criterion_group, criterion_main, Criterion};
use exspan_bdd::{Bdd, BddManager, SharedBddStore, VarId};
use exspan_core::ValueBddPolicy;
use exspan_runtime::AnnotationPolicy;
use exspan_types::{NodeId, Tuple, Value};
use std::hint::black_box;
use std::sync::Arc;

/// `path(@S, D, [S, …, D], C)` with a `hops`-node path vector.
fn path_tuple(s: NodeId, d: NodeId, hops: u32) -> Tuple {
    Tuple::new(
        "path",
        s,
        vec![
            Value::Node(d),
            Value::list((0..hops).map(|i| Value::Node(s + i)).collect()),
            Value::Int(i64::from(hops)),
        ],
    )
}

fn link(s: NodeId, d: NodeId) -> Tuple {
    Tuple::new("link", s, vec![Value::Node(d), Value::Int(1)])
}

fn bench_vid(c: &mut Criterion) {
    let t = path_tuple(3, 9, 6);
    c.bench_function("tuple_vid_path6_x1000", |b| {
        b.iter(|| {
            (0..1000)
                .map(|_| black_box(&t).vid().0[0])
                .fold(0, u8::wrapping_add)
        });
    });
}

fn bench_sizing(c: &mut Criterion) {
    // 40 alternative derivations, each a conjunction of 5 variables from a
    // sliding band: an annotation of a well-connected tuple after many
    // arrivals.
    let mut m = BddManager::with_store(SharedBddStore::new());
    let alternatives: Vec<Bdd> = (0..40 as VarId)
        .map(|d| {
            let vars: Vec<Bdd> = (0..5).map(|i| m.var(d + 2 * i)).collect();
            m.and_all(vars)
        })
        .collect();
    let f = m.or_all(alternatives);
    let nodes = m.reachable_internal_count(f);
    assert!((500..2000).contains(&nodes), "{nodes} nodes, not ~1k");
    c.bench_function("bdd_serialized_size_1k_x1000", |b| {
        b.iter(|| {
            (0..1000)
                .map(|_| m.serialized_size(black_box(f)))
                .sum::<usize>()
        });
    });
    c.bench_function("bdd_reachable_walk_1k_x1000", |b| {
        b.iter(|| {
            (0..1000)
                .map(|_| m.reachable_node_count(black_box(f)))
                .sum::<usize>()
        });
    });
}

fn bench_policy(c: &mut Criterion) {
    // A 16-node ring: node n derives path tuples from its links and the
    // paths its neighbour shipped, 1000 firings per iteration.
    const NODES: NodeId = 16;
    let links: Vec<Arc<Tuple>> = (0..NODES)
        .map(|n| Arc::new(link(n, (n + 1) % NODES)))
        .collect();
    let paths: Vec<Arc<Tuple>> = (0..NODES)
        .map(|n| Arc::new(path_tuple(n, (n + 2) % NODES, 2 + n % 4)))
        .collect();
    c.bench_function("value_policy_derive_ship_arrive", |b| {
        b.iter_batched(
            || {
                let mut p = ValueBddPolicy::new();
                for l in &links {
                    p.on_base(l.location, l, true);
                }
                p
            },
            |mut p| {
                for i in 0..1000u32 {
                    let n = i % NODES;
                    let to = (n + NODES - 1) % NODES;
                    let inputs = [
                        Arc::clone(&links[n as usize]),
                        Arc::clone(&paths[n as usize]),
                    ];
                    let head = &paths[to as usize];
                    let token = p.on_derivation(n, "pv2", &inputs, head, true);
                    black_box(p.annotation_bytes(n, to, head, token));
                    p.on_arrival(to, head, token, true, false);
                }
                p.total_annotation_bytes()
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_vid, bench_sizing, bench_policy);
criterion_main!(benches);
