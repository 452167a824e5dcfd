//! Canonical snapshots and per-table spill files.
//!
//! # Snapshot format (`snapshot.bin`)
//!
//! ```text
//! magic "XSPNSNAP" | version u32 | seq u64 | time bits u64 | node_count u32
//! link_count u32   | links: (a u32, b u32, latency u64, bandwidth u64,
//!                            cost i64, class u8)*
//! table_count u32  | tables: (node u32, relation str, row_count u64,
//!                             rows: (count u64, tuple)*)*
//! agg_count u32    | entries: (node u32, relation str, group values,
//!                              prov tuple, exec tuple)*
//! crc32 of everything above: u32
//! ```
//!
//! All integers are big-endian.  The writer emits tables sorted by
//! `(node, relation name)` and rows in primary-key (`scan()`) order, and the
//! engine hands it link/aggregate sections in canonical sort order too — so
//! snapshot bytes are a pure function of logical state, independent of shard
//! count or execution interleaving.  That is what lets tests assert that a
//! 1-shard and a 4-shard run of the same workload write *identical* snapshot
//! files, and lets a state digest be defined as the SHA-1 of the encoded
//! snapshot body.
//!
//! Snapshots are streamed to a temporary file in 64 KiB chunks, fsynced,
//! and atomically renamed into place, and the directory is fsynced so the
//! rename itself is durable; the WAL is truncated only after that, so a
//! crash at any point leaves either the old snapshot + full log or the new
//! snapshot (+ a log whose stale prefix recovery filters by `seq`).
//!
//! # Spill files (`spill/n<node>_<relation>.tbl`)
//!
//! One table section (same encoding as a snapshot table entry) behind the
//! magic `"XSPNSPIL"`, with the same trailing CRC.  A spilled table is
//! byte-faithful: faulting it back in rebuilds exactly the rows (and
//! duplicate counts) that were evicted.

use crate::codec::{self, Reader};
use crate::crc32::{crc32, Crc32};
use crate::wal::{decode_link, encode_link, LinkRecord};
use crate::StoreError;
use exspan_types::symbol::RelId;
use exspan_types::tuple::Tuple;
use exspan_types::value::{encode_str_for_hash, Value};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SNAPSHOT_MAGIC: &[u8; 8] = b"XSPNSNAP";
const SPILL_MAGIC: &[u8; 8] = b"XSPNSPIL";
const VERSION: u32 = 1;

/// The full contents of one `(node, relation)` table: rows with their
/// duplicate counts, in primary-key order.
#[derive(Debug, Clone)]
pub struct TableDump {
    pub node: u32,
    pub relation: RelId,
    pub rows: Vec<(Arc<Tuple>, u64)>,
}

/// One installed aggregate-provenance entry (see
/// [`crate::WalOp::AggProv`]).
#[derive(Debug, Clone)]
pub struct AggProvEntry {
    pub node: u32,
    pub relation: RelId,
    pub group: Vec<Value>,
    pub prov: Arc<Tuple>,
    pub exec: Arc<Tuple>,
}

/// Everything a snapshot persists: the commit watermark, the link set, all
/// tables, and the aggregate-provenance map.
#[derive(Debug)]
pub struct SnapshotData {
    pub seq: u64,
    pub time_bits: u64,
    pub node_count: u32,
    pub links: Vec<LinkRecord>,
    pub tables: Vec<TableDump>,
    pub agg: Vec<AggProvEntry>,
}

fn encode_table(dump: &TableDump, out: &mut Vec<u8>) {
    out.extend_from_slice(&dump.node.to_be_bytes());
    encode_str_for_hash(dump.relation.as_str(), out);
    out.extend_from_slice(&(dump.rows.len() as u64).to_be_bytes());
    for (tuple, count) in &dump.rows {
        out.extend_from_slice(&count.to_be_bytes());
        codec::encode_tuple(tuple, out);
    }
}

fn decode_table(r: &mut Reader<'_>) -> Result<TableDump, StoreError> {
    let node = r.u32()?;
    let relation = RelId::intern(r.string()?);
    let row_count = r.u64()? as usize;
    let mut rows = Vec::new();
    for _ in 0..row_count {
        let count = r.u64()?;
        let tuple = Arc::new(codec::decode_tuple(r)?);
        rows.push((tuple, count));
    }
    Ok(TableDump {
        node,
        relation,
        rows,
    })
}

/// Encodes the snapshot *body* (everything but the trailing CRC) into
/// `out`.  Exposed so the engine can define its state digest as a hash of
/// exactly the bytes that would be persisted.
pub fn encode_snapshot(snap: &SnapshotData, out: &mut Vec<u8>) {
    encode_snapshot_chunked(snap, out, &mut |_| {});
}

/// [`encode_snapshot`], handing `out` to `drain` after each section and
/// each table, so a writer can stream the body out in pieces.
fn encode_snapshot_chunked(
    snap: &SnapshotData,
    out: &mut Vec<u8>,
    drain: &mut dyn FnMut(&mut Vec<u8>),
) {
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&VERSION.to_be_bytes());
    out.extend_from_slice(&snap.seq.to_be_bytes());
    out.extend_from_slice(&snap.time_bits.to_be_bytes());
    out.extend_from_slice(&snap.node_count.to_be_bytes());
    out.extend_from_slice(&(snap.links.len() as u32).to_be_bytes());
    for link in &snap.links {
        encode_link(link, out);
    }
    drain(out);
    out.extend_from_slice(&(snap.tables.len() as u32).to_be_bytes());
    for table in &snap.tables {
        encode_table(table, out);
        drain(out);
    }
    out.extend_from_slice(&(snap.agg.len() as u32).to_be_bytes());
    for entry in &snap.agg {
        out.extend_from_slice(&entry.node.to_be_bytes());
        encode_str_for_hash(entry.relation.as_str(), out);
        out.extend_from_slice(&(entry.group.len() as u32).to_be_bytes());
        for v in &entry.group {
            codec::encode_value(v, out);
        }
        codec::encode_tuple(&entry.prov, out);
        codec::encode_tuple(&entry.exec, out);
        drain(out);
    }
}

fn decode_snapshot(data: &[u8]) -> Result<SnapshotData, StoreError> {
    if data.len() < 4 {
        return Err(StoreError::Corrupt("snapshot shorter than its CRC".into()));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != stored {
        return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
    }
    let mut r = Reader::new(body);
    if r.bytes(8)? != SNAPSHOT_MAGIC {
        return Err(StoreError::Corrupt("bad snapshot magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let seq = r.u64()?;
    let time_bits = r.u64()?;
    let node_count = r.u32()?;
    let link_count = r.u32()? as usize;
    let mut links = Vec::new();
    for _ in 0..link_count {
        links.push(decode_link(&mut r)?);
    }
    let table_count = r.u32()? as usize;
    let mut tables = Vec::new();
    for _ in 0..table_count {
        tables.push(decode_table(&mut r)?);
    }
    let agg_count = r.u32()? as usize;
    let mut agg = Vec::new();
    for _ in 0..agg_count {
        let node = r.u32()?;
        let relation = RelId::intern(r.string()?);
        let count = r.u32()? as usize;
        let mut group = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            group.push(codec::decode_value(&mut r)?);
        }
        let prov = Arc::new(codec::decode_tuple(&mut r)?);
        let exec = Arc::new(codec::decode_tuple(&mut r)?);
        agg.push(AggProvEntry {
            node,
            relation,
            group,
            prov,
            exec,
        });
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in snapshot".into()));
    }
    Ok(SnapshotData {
        seq,
        time_bits,
        node_count,
        links,
        tables,
        agg,
    })
}

/// Encoded bytes gathered before they are checksummed and written out.  A
/// snapshot body is never held whole: on a 100-node MINCOST store (11 MB
/// snapshots) encoding the body into one buffer raised peak RSS by 9 MB.
const CHUNK: usize = 64 * 1024;

/// A checksummed file under construction at a temporary path: the body is
/// written through [`ChecksummedFile::drain`] a chunk at a time, and the
/// CRC of everything written trails it.
struct ChecksummedFile {
    file: std::fs::File,
    tmp: PathBuf,
    crc: Crc32,
    len: u64,
    /// The first write error; later writes are skipped and `commit`
    /// reports it.
    error: Option<std::io::Error>,
}

impl ChecksummedFile {
    fn create(path: &Path) -> std::io::Result<Self> {
        let tmp = path.with_extension("tmp");
        Ok(ChecksummedFile {
            file: std::fs::File::create(&tmp)?,
            tmp,
            crc: Crc32::new(),
            len: 0,
            error: None,
        })
    }

    /// Checksums and writes out `buf` once it holds a chunk.
    fn drain(&mut self, buf: &mut Vec<u8>) {
        if buf.len() >= CHUNK {
            self.write(buf);
        }
    }

    fn write(&mut self, buf: &mut Vec<u8>) {
        if self.error.is_none() {
            self.crc.update(buf);
            self.len += buf.len() as u64;
            if let Err(e) = self.file.write_all(buf) {
                self.error = Some(e);
            }
        }
        buf.clear();
    }

    /// Writes the rest of the body and the CRC, fsyncs, and renames the file
    /// to `path`.  Returns the file's length.
    fn commit(mut self, rest: &mut Vec<u8>, path: &Path) -> std::io::Result<u64> {
        self.write(rest);
        if let Some(e) = self.error {
            return Err(e);
        }
        self.file.write_all(&self.crc.finish().to_be_bytes())?;
        self.file.sync_all()?;
        std::fs::rename(&self.tmp, path)?;
        Ok(self.len + 4)
    }
}

/// Writes the snapshot atomically (temp file + fsync + rename, then an
/// fsync of the directory so the rename itself survives power loss) and
/// returns its size in bytes.
pub fn write_snapshot(path: &Path, snap: &SnapshotData) -> std::io::Result<u64> {
    let mut file = ChecksummedFile::create(path)?;
    let mut buf = Vec::with_capacity(2 * CHUNK);
    encode_snapshot_chunked(snap, &mut buf, &mut |b| file.drain(b));
    let len = file.commit(&mut buf, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    Ok(len)
}

/// Loads and validates a snapshot.
pub fn load_snapshot(path: &Path) -> Result<SnapshotData, StoreError> {
    decode_snapshot(&std::fs::read(path)?)
}

/// Writes one evicted table as a spill file (atomic, checksummed).  Spill
/// files are a cache, so the directory is not fsynced after the rename.
pub fn write_spill(path: &Path, dump: &TableDump) -> std::io::Result<()> {
    let file = ChecksummedFile::create(path)?;
    let mut body = Vec::new();
    body.extend_from_slice(SPILL_MAGIC);
    body.extend_from_slice(&VERSION.to_be_bytes());
    encode_table(dump, &mut body);
    file.commit(&mut body, path).map(drop)
}

/// Loads a spill file back into a [`TableDump`].
pub fn load_spill(path: &Path) -> Result<TableDump, StoreError> {
    let data = std::fs::read(path)?;
    if data.len() < 4 {
        return Err(StoreError::Corrupt(
            "spill file shorter than its CRC".into(),
        ));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != stored {
        return Err(StoreError::Corrupt("spill checksum mismatch".into()));
    }
    let mut r = Reader::new(body);
    if r.bytes(8)? != SPILL_MAGIC {
        return Err(StoreError::Corrupt("bad spill magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported spill version {version}"
        )));
    }
    let dump = decode_table(&mut r)?;
    if !r.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in spill file".into()));
    }
    Ok(dump)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("exspan-store-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SnapshotData {
        SnapshotData {
            seq: 42,
            time_bits: 12.5f64.to_bits(),
            node_count: 5,
            links: vec![LinkRecord {
                a: 0,
                b: 1,
                latency_bits: 0.01f64.to_bits(),
                bandwidth_bits: 1e7f64.to_bits(),
                cost: 2,
                class: 0,
            }],
            tables: vec![
                TableDump {
                    node: 0,
                    relation: RelId::intern("bestPathCost"),
                    rows: vec![
                        (
                            Arc::new(Tuple::new(
                                "bestPathCost",
                                0,
                                vec![Value::Node(1), Value::Int(2)],
                            )),
                            1,
                        ),
                        (
                            Arc::new(Tuple::new(
                                "bestPathCost",
                                0,
                                vec![Value::Node(2), Value::Int(4)],
                            )),
                            3,
                        ),
                    ],
                },
                TableDump {
                    node: 3,
                    relation: RelId::intern("link"),
                    rows: vec![],
                },
            ],
            agg: vec![AggProvEntry {
                node: 0,
                relation: RelId::intern("bestPathCost"),
                group: vec![Value::Node(0), Value::Node(1)],
                prov: Arc::new(Tuple::new(
                    "prov",
                    0,
                    vec![
                        Value::Digest([3; 20]),
                        Value::Digest([4; 20]),
                        Value::Node(0),
                    ],
                )),
                exec: Arc::new(Tuple::new(
                    "ruleExec",
                    0,
                    vec![
                        Value::Digest([4; 20]),
                        Value::from("sp3"),
                        Value::list(vec![Value::Digest([5; 20])]),
                    ],
                )),
            }],
        }
    }

    fn assert_same(a: &SnapshotData, b: &SnapshotData) {
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        encode_snapshot(a, &mut ea);
        encode_snapshot(b, &mut eb);
        assert_eq!(ea, eb);
    }

    #[test]
    fn snapshot_roundtrips() {
        let dir = tmp("roundtrip");
        let path = dir.join("snapshot.bin");
        let snap = sample();
        write_snapshot(&path, &snap).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.seq, 42);
        assert_eq!(back.time_bits, 12.5f64.to_bits());
        assert_eq!(back.node_count, 5);
        assert_same(&snap, &back);
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_snapshot(&sample(), &mut a);
        encode_snapshot(&sample(), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_snapshot_is_an_error_not_a_panic() {
        let dir = tmp("corrupt");
        let path = dir.join("snapshot.bin");
        write_snapshot(&path, &sample()).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        for i in [0usize, 9, data.len() / 2, data.len() - 1] {
            let mut flipped = data.clone();
            flipped[i] ^= 0x10;
            std::fs::write(&path, &flipped).unwrap();
            assert!(load_snapshot(&path).is_err(), "flip at {i} not caught");
        }
        // Truncation at every length is caught by the CRC.
        data.truncate(data.len() - 7);
        std::fs::write(&path, &data).unwrap();
        assert!(load_snapshot(&path).is_err());
    }

    #[test]
    fn spill_roundtrips() {
        let dir = tmp("spill");
        let path = dir.join("n0_bestPathCost.tbl");
        let dump = sample().tables.remove(0);
        write_spill(&path, &dump).unwrap();
        let back = load_spill(&path).unwrap();
        assert_eq!(back.node, dump.node);
        assert_eq!(back.relation, dump.relation);
        assert_eq!(back.rows.len(), dump.rows.len());
        for ((t1, c1), (t2, c2)) in back.rows.iter().zip(&dump.rows) {
            assert_eq!((&**t1, c1), (&**t2, c2));
        }
        // A spill file is never mistaken for a snapshot.
        assert!(load_snapshot(&path).is_err());
    }
}
