//! Micro-benchmarks of the durable store's per-byte costs: what every
//! committed barrier batch and every snapshot pays in `exspan-store`.
//!
//! * `crc32_1mib` — the CRC-32 that frames every WAL record and trails
//!   every snapshot, over 1 MiB.
//! * `wal_append_35k_mincost_ops` — one barrier batch of 35,000 MINCOST
//!   reference-provenance ops (`pathCost`, `prov` and `ruleExec` intents in
//!   equal parts, about the size of a churn batch on a 100-node network)
//!   appended under `Durability::None`, so encoding, framing and the CRC
//!   are measured rather than the disk.
//! * `encode_snapshot_100k_rows` — the canonical encoding of a 100,000-row
//!   dump (100 nodes × 4 relations × 250 rows).

use criterion::{criterion_group, criterion_main, Criterion};
use exspan_store::snapshot::{encode_snapshot, SnapshotData, TableDump};
use exspan_store::wal::{Durability, WalOp, WalWriter};
use exspan_types::symbol::RelId;
use exspan_types::{NodeId, Tuple, Value};
use std::hint::black_box;
use std::sync::Arc;

fn digest(seed: u32) -> [u8; 20] {
    let mut d = [0u8; 20];
    for (i, chunk) in d.chunks_mut(4).enumerate() {
        chunk.copy_from_slice(
            &seed
                .wrapping_mul(0x9E37_79B9)
                .rotate_left(i as u32)
                .to_be_bytes(),
        );
    }
    d
}

/// The three tuples a MINCOST derivation at `node` journals in reference
/// mode: the derived `pathCost`, its `prov` entry and its `ruleExec` entry.
fn mincost_tuples(node: NodeId, i: u32) -> [Tuple; 3] {
    let dest = (node + 1 + i % 97) % 100;
    let cost = i64::from(i % 13 + 1);
    [
        Tuple::new("pathCost", node, vec![Value::Node(dest), Value::Int(cost)]),
        Tuple::new(
            "prov",
            node,
            vec![
                Value::Digest(digest(i)),
                Value::Digest(digest(i ^ 0xFFFF)),
                Value::Node(node),
            ],
        ),
        Tuple::new(
            "ruleExec",
            node,
            vec![
                Value::Digest(digest(i ^ 0xFFFF)),
                Value::from("sp2"),
                Value::list(vec![
                    Value::Digest(digest(i + 1)),
                    Value::Digest(digest(i + 2)),
                ]),
            ],
        ),
    ]
}

fn bench_crc(c: &mut Criterion) {
    let data: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    c.bench_function("crc32_1mib", |b| {
        b.iter(|| exspan_store::crc32::crc32(black_box(&data)));
    });
}

fn bench_wal_append(c: &mut Criterion) {
    let ops: Vec<WalOp> = (0..35_000u32 / 3)
        .flat_map(|i| {
            let node = i % 100;
            mincost_tuples(node, i).map(|t| WalOp::Tuple {
                node,
                insert: i % 4 != 0,
                tuple: Arc::new(t),
            })
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("exspan-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let mut w = WalWriter::open(&dir.join("wal.log"), 0, Durability::None).expect("open WAL");
    let mut seq = 0;
    c.bench_function("wal_append_35k_mincost_ops", |b| {
        b.iter(|| {
            seq += 1;
            let len = w
                .append_batch(black_box(&ops), seq, 1.0f64.to_bits())
                .expect("append");
            w.truncate().expect("truncate");
            len
        });
    });
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_encode_snapshot(c: &mut Criterion) {
    let relations = ["bestPathCost", "link", "pathCost", "prov"];
    let mut tables = Vec::new();
    for node in 0..100 {
        for (r, relation) in relations.iter().enumerate() {
            let rows = (0..250u32)
                .map(|i| {
                    let tuple = mincost_tuples(node, i * 4 + r as u32)[r % 3].clone();
                    (Arc::new(tuple), 1)
                })
                .collect();
            tables.push(TableDump {
                node,
                relation: RelId::intern(relation),
                rows,
            });
        }
    }
    let snap = SnapshotData {
        seq: 1,
        time_bits: 1.0f64.to_bits(),
        node_count: 100,
        links: Vec::new(),
        tables,
        agg: Vec::new(),
    };
    let mut buf = Vec::new();
    c.bench_function("encode_snapshot_100k_rows", |b| {
        b.iter(|| {
            buf.clear();
            encode_snapshot(black_box(&snap), &mut buf);
            buf.len()
        });
    });
}

criterion_group!(benches, bench_crc, bench_wal_append, bench_encode_snapshot);
criterion_main!(benches);
