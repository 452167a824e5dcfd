//! Property tests for the persistence codec and the WAL framing.
//!
//! * Arbitrary `Value`/`Tuple` shapes (including nested lists, digests,
//!   empty strings, extreme integers) survive an encode/decode round trip
//!   bit-for-bit, and keep their provenance VID.
//! * Arbitrary committed WAL batches survive a write/read round trip.
//! * Cutting the log at *any* byte offset — the torn-tail corpus — never
//!   panics and never yields anything beyond the committed prefix.
//! * On that corpus and on logs with garbage appended or bits flipped, the
//!   streaming [`WalReader`] yields exactly the batches and the valid length
//!   of the whole-file reader it replaced, kept below as the oracle.

use exspan_store::codec::{decode_tuple, decode_value, encode_tuple, encode_value, Reader};
use exspan_store::crc32::crc32;
use exspan_store::wal::{read_wal, Durability, WalOp, WalReader, WalWriter};
use exspan_types::tuple::Tuple;
use exspan_types::value::Value;
use proptest::collection;
use proptest::prelude::*;
use std::sync::Arc;

/// Maps arbitrary bytes onto a symbol-safe alphabet (including multibyte
/// UTF-8) so string round trips exercise interning with non-ASCII content.
fn symbol_from(bytes: Vec<u8>) -> String {
    const ALPHABET: [&str; 12] = ["a", "B", "0", "_", "-", ".", "$", " ", "é", "λ", "→", "中"];
    bytes
        .into_iter()
        .map(|b| ALPHABET[b as usize % ALPHABET.len()])
        .collect()
}

fn value_strategy() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        any::<u32>().prop_map(Value::Node),
        any::<i64>().prop_map(Value::Int),
        collection::vec(any::<u8>(), 0..12).prop_map(|b| Value::from(symbol_from(b).as_str())),
        any::<bool>().prop_map(Value::Bool),
        (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| {
            let mut d = [0u8; 20];
            d[..8].copy_from_slice(&hi.to_be_bytes());
            d[8..16].copy_from_slice(&lo.to_be_bytes());
            Value::Digest(d)
        }),
        any::<u32>().prop_map(Value::Payload),
    ]
    .boxed();
    leaf.prop_recursive(3, 24, 4, |inner| {
        collection::vec(inner, 0..4).prop_map(Value::list)
    })
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    (
        collection::vec(any::<u8>(), 1..10),
        any::<u32>(),
        collection::vec(value_strategy(), 0..5),
    )
        .prop_map(|(rel, location, values)| Tuple::new(symbol_from(rel).as_str(), location, values))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_roundtrips_exactly(v in value_strategy()) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_value(&mut r).expect("decode");
        prop_assert_eq!(&back, &v);
        prop_assert!(r.is_empty());
        // Re-encoding is byte-stable (canonical form).
        let mut buf2 = Vec::new();
        encode_value(&back, &mut buf2);
        prop_assert_eq!(buf, buf2);
    }

    #[test]
    fn tuple_roundtrips_exactly(t in tuple_strategy()) {
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_tuple(&mut r).expect("decode");
        prop_assert_eq!(&back, &t);
        prop_assert!(r.is_empty());
        // Persistence preserves provenance identity.
        prop_assert_eq!(back.vid(), t.vid());
    }

    #[test]
    fn truncated_tuples_error_cleanly(t in tuple_strategy(), frac in 0u32..1000) {
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let cut = (buf.len() * frac as usize) / 1000;
        if cut < buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            prop_assert!(decode_tuple(&mut r).is_err());
        }
    }
}

fn wal_path(name: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "exspan-store-proptest-{}-{name}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("wal.log")
}

fn batch_strategy() -> impl Strategy<Value = Vec<Vec<WalOp>>> {
    let op = (any::<u32>(), any::<bool>(), tuple_strategy()).prop_map(|(node, insert, tuple)| {
        WalOp::Tuple {
            node,
            insert,
            tuple: Arc::new(tuple),
        }
    });
    collection::vec(collection::vec(op, 0..5), 1..5)
}

fn assert_tuple_ops_equal(a: &[WalOp], b: &[WalOp]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        let (
            WalOp::Tuple {
                node: n1,
                insert: i1,
                tuple: t1,
            },
            WalOp::Tuple {
                node: n2,
                insert: i2,
                tuple: t2,
            },
        ) = (x, y)
        else {
            panic!("non-tuple op in tuple-only corpus");
        };
        assert_eq!((n1, i1, &**t1), (n2, i2, &**t2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wal_batches_roundtrip(batches in batch_strategy(), case: u64) {
        let path = wal_path("roundtrip", case);
        {
            let mut w = WalWriter::open(&path, 0, Durability::None).unwrap();
            for (i, ops) in batches.iter().enumerate() {
                w.append_batch(ops, i as u64 + 1, (i as f64).to_bits()).unwrap();
            }
        }
        let (back, valid) = read_wal(&path).unwrap();
        prop_assert_eq!(valid, std::fs::metadata(&path).unwrap().len());
        prop_assert_eq!(back.len(), batches.len());
        for (i, b) in back.iter().enumerate() {
            prop_assert_eq!(b.seq, i as u64 + 1);
            assert_tuple_ops_equal(&b.ops, &batches[i]);
        }
    }

    #[test]
    fn torn_tails_never_panic_and_never_invent_state(
        batches in batch_strategy(),
        frac in 0u32..1000,
        case: u64,
    ) {
        let path = wal_path("torn", case);
        {
            let mut w = WalWriter::open(&path, 0, Durability::None).unwrap();
            for (i, ops) in batches.iter().enumerate() {
                w.append_batch(ops, i as u64 + 1, (i as f64).to_bits()).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let cut = (full.len() * frac as usize) / 1000;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (back, valid) = read_wal(&path).unwrap();
        prop_assert!(valid <= cut as u64);
        prop_assert!(back.len() <= batches.len());
        // Whatever survived is an exact prefix of what was committed.
        for (i, b) in back.iter().enumerate() {
            prop_assert_eq!(b.seq, i as u64 + 1);
            assert_tuple_ops_equal(&b.ops, &batches[i]);
        }
    }
}

/// A committed batch as the oracle sees it: `(seq, time bits, ops)`, with
/// each tuple op as `(node, insert, tuple)`.
type OracleBatch = (u64, u64, Vec<(u32, bool, Tuple)>);

/// The whole-file WAL reader the streaming reader replaced: read the file,
/// walk its frames, decode every record, and keep the batches closed by a
/// commit.  The decoder covers the records of this corpus (tuple ops and
/// commits); any other tag counts as undecodable.
fn oracle_read_wal(data: &[u8]) -> (Vec<OracleBatch>, u64) {
    let mut batches = Vec::new();
    let mut pending = Vec::new();
    let mut pos = 0usize;
    let mut valid = 0u64;
    while data.len() - pos >= 8 {
        let len =
            u32::from_be_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]) as usize;
        let crc = u32::from_be_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        let body_start = pos + 8;
        let Some(body_end) = body_start.checked_add(len).filter(|&e| e <= data.len()) else {
            break;
        };
        let payload = &data[body_start..body_end];
        if crc32(payload) != crc {
            break;
        }
        let mut r = Reader::new(payload);
        let decoded = (|| match r.u8().ok()? {
            0x01 => {
                let insert = r.u8().ok()? != 0;
                let node = r.u32().ok()?;
                let tuple = decode_tuple(&mut r).ok()?;
                Some(Ok((node, insert, tuple)))
            }
            0x10 => Some(Err((r.u64().ok()?, r.u64().ok()?))),
            _ => None,
        })();
        match decoded.filter(|_| r.is_empty()) {
            Some(Ok(op)) => pending.push(op),
            Some(Err((seq, time_bits))) => {
                batches.push((seq, time_bits, std::mem::take(&mut pending)));
                valid = body_end as u64;
            }
            None => break,
        }
        pos = body_end;
    }
    (batches, valid)
}

/// What the streaming reader yields, in the oracle's shape.
fn stream_read_wal(path: &std::path::Path) -> (Vec<OracleBatch>, u64) {
    let mut reader = WalReader::open(path).unwrap();
    let mut batches = Vec::new();
    while let Some(batch) = reader.next_batch().unwrap() {
        let ops = batch
            .ops
            .iter()
            .map(|op| match op {
                WalOp::Tuple {
                    node,
                    insert,
                    tuple,
                } => (*node, *insert, (**tuple).clone()),
                _ => panic!("non-tuple op in tuple-only corpus"),
            })
            .collect();
        batches.push((batch.seq, batch.time_bits, ops));
    }
    (batches, reader.valid_len())
}

/// How a log is damaged before it is read back.
#[derive(Debug, Clone)]
enum Damage {
    Cut(u32),
    AppendGarbage(Vec<u8>),
    FlipBit(u32, u8),
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0u32..1000).prop_map(Damage::Cut),
        collection::vec(any::<u8>(), 1..40).prop_map(Damage::AppendGarbage),
        (0u32..1000, 0u8..8).prop_map(|(at, bit)| Damage::FlipBit(at, bit)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_reader_matches_the_whole_file_reader(
        batches in batch_strategy(),
        damage in damage_strategy(),
        case: u64,
    ) {
        let path = wal_path("oracle", case);
        {
            let mut w = WalWriter::open(&path, 0, Durability::None).unwrap();
            for (i, ops) in batches.iter().enumerate() {
                w.append_batch(ops, i as u64 + 1, (i as f64).to_bits()).unwrap();
            }
        }
        let mut data = std::fs::read(&path).unwrap();
        match &damage {
            Damage::Cut(frac) => data.truncate(data.len() * *frac as usize / 1000),
            Damage::AppendGarbage(bytes) => data.extend_from_slice(bytes),
            Damage::FlipBit(frac, bit) => {
                let at = data.len() * *frac as usize / 1000;
                data[at] ^= 1 << bit;
            }
        }
        std::fs::write(&path, &data).unwrap();
        let expected = oracle_read_wal(&data);
        prop_assert_eq!(stream_read_wal(&path), expected.clone());
        // `read_wal` is a collector over the streaming reader.
        let (collected, valid) = read_wal(&path).unwrap();
        prop_assert_eq!(valid, expected.1);
        prop_assert_eq!(collected.len(), expected.0.len());
    }
}

#[test]
fn an_oversized_length_prefix_ends_recovery_cleanly() {
    let path = wal_path("oversized", 0);
    {
        let mut w = WalWriter::open(&path, 0, Durability::None).unwrap();
        let op = WalOp::Tuple {
            node: 1,
            insert: true,
            tuple: Arc::new(Tuple::new("link", 1, vec![Value::Node(2), Value::Int(3)])),
        };
        w.append_batch(&[op], 1, 1.0f64.to_bits()).unwrap();
    }
    let committed = std::fs::metadata(&path).unwrap().len();
    let mut data = std::fs::read(&path).unwrap();
    // A frame claiming 4 GiB of payload, followed by a few bytes: a torn
    // tail, which must neither allocate for the claim nor fail.
    data.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3]);
    std::fs::write(&path, &data).unwrap();
    let (batches, valid) = stream_read_wal(&path);
    assert_eq!(batches.len(), 1);
    assert_eq!(valid, committed);
    assert_eq!(oracle_read_wal(&data), (batches, valid));
    // The same header alone, with nothing after it.
    std::fs::write(&path, [0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]).unwrap();
    assert_eq!(stream_read_wal(&path), (Vec::new(), 0));
}

/// A store written by an earlier build (see `crates/core/tests/persistence.rs`
/// for the workload): the format has not changed, so reading it back and
/// writing it again reproduces both files byte for byte.
#[test]
fn a_store_from_an_earlier_build_rewrites_to_identical_bytes() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("mincost-ring6");
    let dir = wal_path("fixture", 0).parent().unwrap().to_path_buf();

    let snapshot = exspan_store::snapshot::load_snapshot(&fixture.join("snapshot.bin")).unwrap();
    let len = exspan_store::snapshot::write_snapshot(&dir.join("snapshot.bin"), &snapshot).unwrap();
    let expected = std::fs::read(fixture.join("snapshot.bin")).unwrap();
    assert_eq!(len, expected.len() as u64);
    assert!(std::fs::read(dir.join("snapshot.bin")).unwrap() == expected);

    let (batches, valid) = read_wal(&fixture.join("wal.log")).unwrap();
    let expected = std::fs::read(fixture.join("wal.log")).unwrap();
    assert_eq!(batches.len(), 2);
    assert_eq!(valid, expected.len() as u64);
    let mut w = WalWriter::open(&dir.join("wal.log"), 0, Durability::None).unwrap();
    for b in &batches {
        w.append_batch(&b.ops, b.seq, b.time_bits).unwrap();
    }
    drop(w);
    assert!(std::fs::read(dir.join("wal.log")).unwrap() == expected);
}
