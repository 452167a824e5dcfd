//! The append-only write-ahead log.
//!
//! # Record framing
//!
//! ```text
//! [len: u32 BE] [crc32(payload): u32 BE] [payload: len bytes]
//! ```
//!
//! Payloads carry one logical operation each, identified by the first byte:
//!
//! | tag    | record                                                         |
//! |--------|----------------------------------------------------------------|
//! | `0x01` | tuple op: `insert: u8`, `node: u32`, tuple encoding            |
//! | `0x02` | link op: `add: u8`, [`LinkRecord`] body                        |
//! | `0x03` | aggregate-provenance op: `install: u8`, node, relation, group  |
//! |        | key values, and (when installing) the prov + ruleExec tuples   |
//! | `0x10` | commit: `seq: u64`, `time: f64` bit pattern as `u64`           |
//!
//! Operations are *logical intents* (the arguments of `insert_shared` /
//! `delete`, not their effects): replaying them through the identical table
//! code reproduces every effect — duplicate-count increments, keyed
//! replacement, decrement-vs-remove — deterministically.
//!
//! # Batching and durability
//!
//! The engine buffers operations per barrier window and appends them as one
//! batch closed by a commit record.  Replay applies only batches closed by
//! a commit; a crash mid-write leaves a torn tail that [`WalReader`] detects
//! (short record, a length running past the end of the file, checksum
//! mismatch, undecodable payload, or trailing operations with no commit) and
//! cleanly ignores.  Reopening truncates the file back to the last committed
//! byte.  The [`Durability`] knob decides when `fsync` runs: never, once per
//! committed batch (default), or after every record.

use crate::codec::{self, CodecError, Reader};
use crate::crc32::crc32;
use exspan_types::symbol::RelId;
use exspan_types::tuple::Tuple;
use exspan_types::value::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

const TAG_TUPLE: u8 = 0x01;
const TAG_LINK: u8 = 0x02;
const TAG_AGG_PROV: u8 = 0x03;
const TAG_COMMIT: u8 = 0x10;

/// When the WAL file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Never `fsync`; the OS page cache decides.  Fastest, survives process
    /// crashes but not power loss.
    None,
    /// `fsync` once per committed barrier batch (the default): every state
    /// the engine could resume from is stable.
    #[default]
    Barrier,
    /// `fsync` after every record.  Slowest; only for paranoia testing.
    Always,
}

/// A persisted link change, kept representation-exact: latencies and
/// bandwidths are stored as `f64` bit patterns so recovery reproduces the
/// topology bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRecord {
    pub a: u32,
    pub b: u32,
    pub latency_bits: u64,
    pub bandwidth_bits: u64,
    pub cost: i64,
    /// The runtime's `LinkClass`, mapped to a stable small integer by the
    /// caller (the store crate stays independent of the simulator).
    pub class: u8,
}

/// One logical operation in the log.
#[derive(Debug, Clone)]
pub enum WalOp {
    /// An `insert_shared` / `delete` intent against the table
    /// `(node, tuple.relation)`.
    Tuple {
        node: u32,
        insert: bool,
        tuple: Arc<Tuple>,
    },
    /// A topology link addition or removal.
    Link { add: bool, link: LinkRecord },
    /// Aggregate-provenance bookkeeping: the engine tracks, per
    /// `(node, relation, group key)`, which `prov`/`ruleExec` pair is
    /// currently installed so it can retract them when the group's output
    /// changes.  The map is not derivable from the tables alone, so its
    /// mutations are journaled.  `tuples` is present exactly when
    /// `install` is true.
    AggProv {
        install: bool,
        node: u32,
        relation: RelId,
        group: Vec<Value>,
        tuples: Option<(Arc<Tuple>, Arc<Tuple>)>,
    },
}

/// A committed barrier batch read back from the log.
#[derive(Debug)]
pub struct WalBatch {
    pub seq: u64,
    pub time_bits: u64,
    pub ops: Vec<WalOp>,
}

fn encode_op(op: &WalOp, out: &mut Vec<u8>) {
    match op {
        WalOp::Tuple {
            node,
            insert,
            tuple,
        } => {
            out.push(TAG_TUPLE);
            out.push(u8::from(*insert));
            out.extend_from_slice(&node.to_be_bytes());
            codec::encode_tuple(tuple, out);
        }
        WalOp::Link { add, link } => {
            out.push(TAG_LINK);
            out.push(u8::from(*add));
            encode_link(link, out);
        }
        WalOp::AggProv {
            install,
            node,
            relation,
            group,
            tuples,
        } => {
            out.push(TAG_AGG_PROV);
            out.push(u8::from(*install));
            out.extend_from_slice(&node.to_be_bytes());
            exspan_types::value::encode_str_for_hash(relation.as_str(), out);
            out.extend_from_slice(&(group.len() as u32).to_be_bytes());
            for v in group {
                codec::encode_value(v, out);
            }
            if let Some((prov, exec)) = tuples {
                codec::encode_tuple(prov, out);
                codec::encode_tuple(exec, out);
            }
        }
    }
}

pub(crate) fn encode_link(link: &LinkRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&link.a.to_be_bytes());
    out.extend_from_slice(&link.b.to_be_bytes());
    out.extend_from_slice(&link.latency_bits.to_be_bytes());
    out.extend_from_slice(&link.bandwidth_bits.to_be_bytes());
    out.extend_from_slice(&link.cost.to_be_bytes());
    out.push(link.class);
}

pub(crate) fn decode_link(r: &mut Reader<'_>) -> Result<LinkRecord, CodecError> {
    Ok(LinkRecord {
        a: r.u32()?,
        b: r.u32()?,
        latency_bits: r.u64()?,
        bandwidth_bits: r.u64()?,
        cost: r.i64()?,
        class: r.u8()?,
    })
}

enum Record {
    Op(WalOp),
    Commit { seq: u64, time_bits: u64 },
}

fn decode_record(payload: &[u8]) -> Result<Record, CodecError> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        TAG_TUPLE => {
            let insert = r.u8()? != 0;
            let node = r.u32()?;
            let tuple = Arc::new(codec::decode_tuple(&mut r)?);
            Record::Op(WalOp::Tuple {
                node,
                insert,
                tuple,
            })
        }
        TAG_LINK => {
            let add = r.u8()? != 0;
            let link = decode_link(&mut r)?;
            Record::Op(WalOp::Link { add, link })
        }
        TAG_AGG_PROV => {
            let install = r.u8()? != 0;
            let node = r.u32()?;
            let relation = RelId::intern(r.string()?);
            let count = r.u32()? as usize;
            if count > r.remaining() {
                return Err(CodecError::Truncated);
            }
            let mut group = Vec::with_capacity(count);
            for _ in 0..count {
                group.push(codec::decode_value(&mut r)?);
            }
            let tuples = if install {
                let prov = Arc::new(codec::decode_tuple(&mut r)?);
                let exec = Arc::new(codec::decode_tuple(&mut r)?);
                Some((prov, exec))
            } else {
                None
            };
            Record::Op(WalOp::AggProv {
                install,
                node,
                relation,
                group,
                tuples,
            })
        }
        TAG_COMMIT => Record::Commit {
            seq: r.u64()?,
            time_bits: r.u64()?,
        },
        tag => return Err(CodecError::BadTag(tag)),
    };
    if !r.is_empty() {
        // A valid record consumes its whole payload; trailing garbage means
        // the frame length lied, i.e. corruption.
        return Err(CodecError::Truncated);
    }
    Ok(record)
}

/// Appends an 8-byte placeholder for a record header and returns where the
/// record starts; [`end_frame`] backpatches it once the payload is in place.
fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    start
}

/// Fills in the length and CRC of the record opened at `start`, whose payload
/// runs to the end of `buf`.
fn end_frame(buf: &mut [u8], start: usize) {
    let (header, payload) = buf[start..].split_at_mut(8);
    let len = u32::try_from(payload.len()).expect("a WAL record is under 4 GiB");
    header[..4].copy_from_slice(&len.to_be_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_be_bytes());
}

/// Appends committed batches to the log file.
pub struct WalWriter {
    file: File,
    durability: Durability,
    /// Frame buffer reused across batches: each op is encoded straight into
    /// it behind a placeholder header, which is backpatched in place.
    buf: Vec<u8>,
    /// Bytes in the file (all of them committed/framed).
    pub len: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path`, truncating it to
    /// `valid_len` — the committed prefix a prior [`WalReader`] validated —
    /// so a torn tail from a crashed write is physically discarded.
    pub fn open(path: &Path, valid_len: u64, durability: Durability) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            durability,
            buf: Vec::new(),
            len: valid_len,
        })
    }

    /// Appends `ops` as one batch closed by a commit record carrying
    /// `(seq, time_bits)`, honoring the durability policy.  Returns the
    /// log's new length in bytes.
    pub fn append_batch(&mut self, ops: &[WalOp], seq: u64, time_bits: u64) -> io::Result<u64> {
        self.buf.clear();
        for op in ops {
            let start = begin_frame(&mut self.buf);
            encode_op(op, &mut self.buf);
            end_frame(&mut self.buf, start);
            if self.durability == Durability::Always {
                self.write_buf()?;
                self.file.sync_data()?;
            }
        }
        let start = begin_frame(&mut self.buf);
        self.buf.push(TAG_COMMIT);
        self.buf.extend_from_slice(&seq.to_be_bytes());
        self.buf.extend_from_slice(&time_bits.to_be_bytes());
        end_frame(&mut self.buf, start);
        self.write_buf()?;
        match self.durability {
            Durability::None => {}
            Durability::Barrier | Durability::Always => self.file.sync_data()?,
        }
        Ok(self.len)
    }

    fn write_buf(&mut self) -> io::Result<()> {
        self.file.write_all(&self.buf)?;
        self.len += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Truncates the log to empty (after a snapshot established a new
    /// watermark that supersedes every logged batch).
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.len = 0;
        if self.durability != Durability::None {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// Streams the *committed* batches of a log, reading one record at a time,
/// so recovery holds at most one batch in memory however long the log is.
///
/// Stops cleanly at the first torn or invalid record and never panics on
/// corrupt input: a short frame, a length prefix that runs past the end of
/// the file (checked before anything is allocated for it), a checksum
/// mismatch, an undecodable payload, or a trailing run of operations with
/// no commit record are all treated as the crash tail and dropped.
pub struct WalReader {
    /// `None` once the valid prefix has ended (or the file does not exist).
    input: Option<BufReader<File>>,
    /// Bytes of the file not yet read.
    remaining: u64,
    /// Bytes of the file read so far.
    pos: u64,
    /// End of the last commit record read.
    valid: u64,
    /// Payload buffer reused across records.
    payload: Vec<u8>,
}

impl WalReader {
    /// Opens the log at `path`; a missing file reads as an empty log.
    pub fn open(path: &Path) -> io::Result<Self> {
        let (input, remaining) = match File::open(path) {
            Ok(file) => {
                let len = file.metadata()?.len();
                (Some(BufReader::with_capacity(1 << 16, file)), len)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (None, 0),
            Err(e) => return Err(e),
        };
        Ok(WalReader {
            input,
            remaining,
            pos: 0,
            valid: 0,
            payload: Vec::new(),
        })
    }

    /// The next committed batch, or `None` once the valid prefix is
    /// exhausted.
    pub fn next_batch(&mut self) -> io::Result<Option<WalBatch>> {
        let mut ops = Vec::new();
        while let Some(record) = self.next_record()? {
            match record {
                Record::Op(op) => ops.push(op),
                Record::Commit { seq, time_bits } => {
                    self.valid = self.pos;
                    return Ok(Some(WalBatch {
                        seq,
                        time_bits,
                        ops,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// The byte length of the valid committed prefix read so far; once
    /// [`WalReader::next_batch`] has returned `None`, the length to pass to
    /// [`WalWriter::open`].
    pub fn valid_len(&self) -> u64 {
        self.valid
    }

    /// Reads and decodes one record; `None` (and the reader is finished) at
    /// the end of the file or at the first torn or invalid record.
    fn next_record(&mut self) -> io::Result<Option<Record>> {
        let Some(input) = self.input.as_mut() else {
            return Ok(None);
        };
        let mut record = None;
        if self.remaining >= 8 {
            let mut header = [0u8; 8];
            input.read_exact(&mut header)?;
            let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
            let crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
            let frame = 8 + u64::from(len);
            if frame <= self.remaining {
                self.payload.clear();
                self.payload.resize(len as usize, 0);
                input.read_exact(&mut self.payload)?;
                self.remaining -= frame;
                self.pos += frame;
                if crc32(&self.payload) == crc {
                    record = decode_record(&self.payload).ok();
                }
            }
        }
        if record.is_none() {
            self.input = None;
        }
        Ok(record)
    }
}

/// Reads every committed batch at once: a collector over [`WalReader`].
/// Returns the batches and the byte length of the valid committed prefix.
pub fn read_wal(path: &Path) -> io::Result<(Vec<WalBatch>, u64)> {
    let mut reader = WalReader::open(path)?;
    let mut batches = Vec::new();
    while let Some(batch) = reader.next_batch()? {
        batches.push(batch);
    }
    Ok((batches, reader.valid_len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("exspan-store-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn tuple_op(node: u32, insert: bool, cost: i64) -> WalOp {
        WalOp::Tuple {
            node,
            insert,
            tuple: Arc::new(Tuple::new(
                "pathCost",
                node,
                vec![Value::Node(node + 1), Value::Int(cost)],
            )),
        }
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            tuple_op(1, true, 10),
            tuple_op(2, false, 7),
            WalOp::Link {
                add: true,
                link: LinkRecord {
                    a: 1,
                    b: 2,
                    latency_bits: 0.05f64.to_bits(),
                    bandwidth_bits: 1e6f64.to_bits(),
                    cost: 3,
                    class: 1,
                },
            },
            WalOp::AggProv {
                install: true,
                node: 4,
                relation: RelId::intern("bestPathCost"),
                group: vec![Value::Node(4), Value::Node(9)],
                tuples: Some((
                    Arc::new(Tuple::new(
                        "prov",
                        4,
                        vec![
                            Value::Digest([1; 20]),
                            Value::Digest([2; 20]),
                            Value::Node(4),
                        ],
                    )),
                    Arc::new(Tuple::new(
                        "ruleExec",
                        4,
                        vec![
                            Value::Digest([2; 20]),
                            Value::from("sp3"),
                            Value::list(vec![]),
                        ],
                    )),
                )),
            },
            WalOp::AggProv {
                install: false,
                node: 4,
                relation: RelId::intern("bestPathCost"),
                group: vec![Value::Node(4), Value::Node(9)],
                tuples: None,
            },
        ]
    }

    fn assert_ops_equal(a: &[WalOp], b: &[WalOp]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (
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
                ) => {
                    assert_eq!((n1, i1, &**t1), (n2, i2, &**t2));
                }
                (WalOp::Link { add: a1, link: l1 }, WalOp::Link { add: a2, link: l2 }) => {
                    assert_eq!((a1, l1), (a2, l2));
                }
                (
                    WalOp::AggProv {
                        install: i1,
                        node: n1,
                        relation: r1,
                        group: g1,
                        tuples: t1,
                    },
                    WalOp::AggProv {
                        install: i2,
                        node: n2,
                        relation: r2,
                        group: g2,
                        tuples: t2,
                    },
                ) => {
                    assert_eq!((i1, n1, r1, g1), (i2, n2, r2, g2));
                    match (t1, t2) {
                        (None, None) => {}
                        (Some((p1, e1)), Some((p2, e2))) => {
                            assert_eq!(&**p1, &**p2);
                            assert_eq!(&**e1, &**e2);
                        }
                        _ => panic!("agg tuple presence mismatch"),
                    }
                }
                _ => panic!("op kind mismatch"),
            }
        }
    }

    #[test]
    fn batches_roundtrip() {
        let path = tmp("roundtrip");
        let ops = sample_ops();
        {
            let mut w = WalWriter::open(&path, 0, Durability::Barrier).unwrap();
            w.append_batch(&ops[..2], 1, 0.5f64.to_bits()).unwrap();
            w.append_batch(&ops[2..], 2, 1.5f64.to_bits()).unwrap();
        }
        let (batches, valid) = read_wal(&path).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(valid, std::fs::metadata(&path).unwrap().len());
        assert_eq!(batches[0].seq, 1);
        assert_eq!(batches[1].time_bits, 1.5f64.to_bits());
        assert_ops_equal(&batches[0].ops, &ops[..2]);
        assert_ops_equal(&batches[1].ops, &ops[2..]);
    }

    #[test]
    fn torn_tail_stops_cleanly_at_every_cut() {
        let path = tmp("torn");
        {
            let mut w = WalWriter::open(&path, 0, Durability::None).unwrap();
            w.append_batch(&sample_ops()[..2], 1, 1.0f64.to_bits())
                .unwrap();
            w.append_batch(&sample_ops()[2..], 2, 2.0f64.to_bits())
                .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let (all, first_batch_end) = {
            let (batches, _) = read_wal(&path).unwrap();
            assert_eq!(batches.len(), 2);
            // Find the end of batch 1 by re-reading progressively.
            let mut end = 0;
            for cut in 0..=full.len() {
                std::fs::write(&path, &full[..cut]).unwrap();
                let (b, v) = read_wal(&path).unwrap();
                if b.len() == 1 && end == 0 {
                    end = v;
                }
            }
            (batches, end)
        };
        assert_eq!(all.len(), 2);
        assert!(first_batch_end > 0);
        // Every prefix cut yields only fully-committed batches and a valid
        // watermark that never exceeds the cut.
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (batches, valid) = read_wal(&path).unwrap();
            assert!(valid <= cut as u64);
            assert!(batches.len() <= 2);
            for b in &batches {
                assert!(b.seq == 1 || b.seq == 2);
            }
            if (cut as u64) < first_batch_end {
                assert!(batches.is_empty(), "cut {cut} yielded a partial batch");
            }
        }
    }

    #[test]
    fn garbage_tail_and_bitflips_are_ignored() {
        let path = tmp("garbage");
        {
            let mut w = WalWriter::open(&path, 0, Durability::Barrier).unwrap();
            w.append_batch(&sample_ops(), 7, 3.0f64.to_bits()).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        // Appended garbage is skipped.
        let mut dirty = clean.clone();
        dirty.extend_from_slice(&[0xFF; 37]);
        std::fs::write(&path, &dirty).unwrap();
        let (batches, valid) = read_wal(&path).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(valid, clean.len() as u64);
        // A bit flip inside the committed region invalidates everything from
        // that record on (checksum catches it) without panicking.
        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let (batches, _) = read_wal(&path).unwrap();
        assert!(batches.is_empty());
    }

    #[test]
    fn reopen_truncates_to_committed_prefix() {
        let path = tmp("reopen");
        {
            let mut w = WalWriter::open(&path, 0, Durability::Barrier).unwrap();
            w.append_batch(&sample_ops()[..1], 1, 1.0f64.to_bits())
                .unwrap();
        }
        // Simulate a crash mid-append: garbage after the committed batch.
        let mut data = std::fs::read(&path).unwrap();
        let committed = data.len() as u64;
        data.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        std::fs::write(&path, &data).unwrap();
        let (batches, valid) = read_wal(&path).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(valid, committed);
        {
            let mut w = WalWriter::open(&path, valid, Durability::Barrier).unwrap();
            w.append_batch(&sample_ops()[1..2], 2, 2.0f64.to_bits())
                .unwrap();
        }
        let (batches, _) = read_wal(&path).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].seq, 2);
    }

    #[test]
    fn empty_and_missing_files_read_as_empty() {
        let path = tmp("empty");
        let (batches, valid) = read_wal(&path).unwrap();
        assert!(batches.is_empty());
        assert_eq!(valid, 0);
        std::fs::write(&path, b"").unwrap();
        let (batches, valid) = read_wal(&path).unwrap();
        assert!(batches.is_empty());
        assert_eq!(valid, 0);
    }
}
