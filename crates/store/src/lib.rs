//! # `exspan-store` — log-structured persistence for ExSPAN deployments
//!
//! Every engine table is an in-memory `BTreeMap`; this crate gives a
//! deployment a durable second copy of that state behind the narrow
//! [`StorageBackend`] seam, without the engine growing any knowledge of
//! file formats.  Three mechanisms compose:
//!
//! 1. **Append-only WAL** ([`wal`]).  During a run the engine journals
//!    every logical table operation (insert/delete intents, topology link
//!    changes, aggregate-provenance bookkeeping) and appends them once per
//!    barrier window as a checksummed, length-prefixed batch closed by a
//!    commit record.  The [`Durability`] knob controls fsync cadence:
//!    `None` (OS decides), `Barrier` (default: one fsync per committed
//!    window), or `Always` (per record).
//! 2. **Canonical snapshots** ([`snapshot`]).  Once enough log accumulates,
//!    the engine hands the backend a full dump — tables in `(node,
//!    relation)` order with rows in `scan()` order, the link set, and the
//!    aggregate-provenance map, all sorted canonically — so snapshot bytes
//!    are a pure function of logical state: a 1-shard and a 4-shard run of
//!    the same workload write *identical* files.  By default a snapshot is
//!    due once the WAL written since the last one reaches `max(256 KiB,
//!    size of the last snapshot)`, so each logged byte is written about
//!    once more as snapshot and recovery replays at most one snapshot's
//!    worth of log plus one batch; an explicit
//!    `StoreConfig::snapshot_wal_bytes` fixes the threshold instead.
//!    Snapshots are written to a temp file and atomically renamed, the
//!    directory is fsynced, and only then is the WAL truncated.
//! 3. **Cold-table spill** ([`snapshot::write_spill`]).  With a row budget
//!    configured, the largest tables are evicted to their snapshot form
//!    when the budget is exceeded and transparently faulted back in when
//!    the engine next evaluates at their node.  Spill files are an
//!    in-process cache: stale ones are deleted on open, because the
//!    snapshot + WAL are always the authoritative copy.
//!
//! ## Recovery invariants
//!
//! Opening a data directory ([`DiskBackend::open`]) loads the latest valid
//! snapshot, then streams committed WAL batches newer than the snapshot's
//! watermark one at a time (the `seq` filter makes replay idempotent when a
//! crash landed between snapshot rename and log truncation), and stops
//! cleanly at the first torn or invalid record — a short frame, a length
//! running past the end of the file, checksum mismatch, undecodable
//! payload, or trailing operations without a commit are all treated as the
//! crash tail, never a panic.  Because the journal records
//! logical intents and replay drives them through the identical table
//! code, the recovered tables are **byte-identical** to the state at the
//! last committed barrier: same rows, same duplicate counts, same keyed-
//! replacement outcomes, same secondary indexes.
//!
//! What recovery restores is the state as of the last committed barrier —
//! a quiescent point when commits happen at fixpoints.  In-flight
//! simulator events and traffic statistics are transient by design and are
//! not part of the durable state.
//!
//! ## On-disk layout
//!
//! ```text
//! <data_dir>/wal.log       committed delta batches (framed, CRC-32)
//! <data_dir>/snapshot.bin  latest canonical snapshot (atomic rename)
//! <data_dir>/spill/        evicted cold tables (cleared on open)
//! ```
//!
//! This crate depends only on `exspan-types`: the value/tuple codec
//! ([`codec`]) *reuses the canonical hash encoding* those types already
//! define (the bytes that name a tuple in a provenance VID are the bytes
//! that persist it), adding only the decoder.

pub mod backend;
pub mod codec;
pub mod crc32;
pub mod snapshot;
pub mod wal;

pub use backend::{
    DiskBackend, MemoryBackend, Recovery, StorageBackend, StorageStats, StoreConfig,
};
pub use codec::CodecError;
pub use snapshot::{AggProvEntry, SnapshotData, TableDump};
pub use wal::{Durability, LinkRecord, WalBatch, WalOp};

/// A storage failure: I/O, codec, or a corruption the checksums caught.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    Codec(CodecError),
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Codec(e) => write!(f, "storage codec error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "storage corruption: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}
