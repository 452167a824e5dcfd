//! The storage seam: [`StorageBackend`] with an in-memory no-op
//! implementation (the default — zero overhead, nothing touches disk) and
//! the log-structured [`DiskBackend`].

use crate::snapshot::{self, SnapshotData};
use crate::wal::{Durability, WalBatch, WalOp, WalReader, WalWriter};
use crate::StoreError;
use std::path::{Path, PathBuf};

/// The floor of the default snapshot cadence (see
/// [`StoreConfig::snapshot_wal_bytes`]).
const MIN_SNAPSHOT_WAL_BYTES: u64 = 256 * 1024;

/// Configuration of a persistent store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// When the WAL is fsynced (see [`Durability`]).
    pub durability: Durability,
    /// A snapshot is taken (and the log truncated) once at least this many
    /// bytes of WAL have accumulated since the last one.
    ///
    /// `None` (the default) scales the cadence with the state: the
    /// threshold is the size of the last snapshot written (or found on
    /// open), and at least 256 KiB.  Snapshot bytes
    /// written then stay below about the WAL bytes written, and recovery
    /// replays at most one snapshot's worth of log plus one batch.  Both
    /// sizes are pure functions of logical state, so the snapshot count of
    /// a workload repeats exactly.
    pub snapshot_wal_bytes: Option<u64>,
    /// In-memory row budget across all tables; when exceeded, the largest
    /// tables are spilled to disk until the budget holds.  `None` disables
    /// spill.
    pub spill_budget_rows: Option<usize>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            durability: Durability::Barrier,
            snapshot_wal_bytes: None,
            spill_budget_rows: None,
        }
    }
}

/// Counters surfaced through `Deployment::storage_stats()`.  The backend
/// fills the log/snapshot counters; the engine merges in the spill
/// counters, which live with the tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Committed barrier batches appended to the WAL.
    pub committed_batches: u64,
    /// Logical operations inside those batches.
    pub committed_ops: u64,
    /// Current WAL length in bytes.
    pub wal_bytes: u64,
    /// Snapshots written (each truncates the log).
    pub snapshots_written: u64,
    /// Batches replayed during recovery.
    pub recovered_batches: u64,
    /// Tables evicted to spill files.
    pub tables_spilled: u64,
    /// Tables faulted back into memory on access.
    pub tables_faulted: u64,
    /// Reads served directly from spill files without faulting the table
    /// back in (inspection APIs only — evaluation always faults in).
    pub cold_reads: u64,
}

/// The persistence seam the engine writes through.  All methods are no-ops
/// on the in-memory default, so the non-persistent path costs one virtual
/// call per barrier window and nothing else.
pub trait StorageBackend: Send {
    /// Whether commits actually persist (false for [`MemoryBackend`]; the
    /// engine skips journaling entirely when this is false).
    fn is_persistent(&self) -> bool {
        false
    }

    /// Appends one barrier window's operations as a committed batch.
    fn commit_batch(
        &mut self,
        _ops: &[WalOp],
        _seq: u64,
        _time_bits: u64,
    ) -> Result<(), StoreError> {
        Ok(())
    }

    /// Whether enough WAL has accumulated that the engine should hand over
    /// a snapshot.
    fn snapshot_due(&self) -> bool {
        false
    }

    /// Writes a canonical snapshot and truncates the log to its watermark.
    fn write_snapshot(&mut self, _snap: &SnapshotData) -> Result<(), StoreError> {
        Ok(())
    }

    /// Directory for spill files, when this backend supports spill.
    fn spill_dir(&self) -> Option<&Path> {
        None
    }

    /// Log/snapshot counters (spill counters are merged in by the engine).
    fn stats(&self) -> StorageStats {
        StorageStats::default()
    }
}

/// The default backend: everything stays in memory, nothing is written.
#[derive(Debug, Default)]
pub struct MemoryBackend;

impl StorageBackend for MemoryBackend {}

/// Log-structured persistence in a data directory:
///
/// ```text
/// <dir>/wal.log       append-only delta log (committed batches)
/// <dir>/snapshot.bin  latest canonical snapshot
/// <dir>/spill/        evicted cold tables (transient; cleared on open)
/// ```
pub struct DiskBackend {
    dir: PathBuf,
    spill_dir: PathBuf,
    wal: WalWriter,
    config: StoreConfig,
    wal_bytes_since_snapshot: u64,
    /// Size of the last snapshot written or found on open (0 if none).
    last_snapshot_bytes: u64,
    stats: StorageStats,
}

/// A data directory opened by [`DiskBackend::open`] whose committed state
/// is still to be read.  Take the snapshot, restore it and drop it, then
/// stream the log batch by batch with [`Recovery::next_batch`]; neither the
/// whole log nor the snapshot and the log together are ever held in
/// memory.  [`Recovery::finish`] then yields the backend.
pub struct Recovery {
    dir: PathBuf,
    spill_dir: PathBuf,
    config: StoreConfig,
    snapshot: Option<SnapshotData>,
    snapshot_bytes: u64,
    /// Commit seq of the snapshot: logged batches at or below it are
    /// already in the snapshot.
    snapshot_seq: u64,
    wal: WalReader,
    /// `(seq, time bits)` of the last committed state read so far.
    watermark: Option<(u64, u64)>,
    replayed: u64,
}

impl Recovery {
    /// The latest valid snapshot, if the directory holds one (`None` after
    /// the first call).
    pub fn take_snapshot(&mut self) -> Option<SnapshotData> {
        self.snapshot.take()
    }

    /// The next committed WAL batch newer than the snapshot's watermark, or
    /// `None` once the log's valid prefix is exhausted.  A crash between
    /// snapshot rename and log truncation can leave already-snapshotted
    /// batches in the log; they are skipped, which makes replay idempotent.
    pub fn next_batch(&mut self) -> Result<Option<WalBatch>, StoreError> {
        while let Some(batch) = self.wal.next_batch()? {
            if batch.seq > self.snapshot_seq {
                let seq = self.watermark.map_or(batch.seq, |(s, _)| s.max(batch.seq));
                self.watermark = Some((seq, batch.time_bits));
                self.replayed += 1;
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    /// Skips any batches not yet read, truncates the log back to its valid
    /// committed prefix (discarding a torn tail), and returns the backend,
    /// ready for new commits, with the commit watermark `(seq, time bits)`
    /// the engine resumes from — `None` when the directory held no
    /// committed state at all (a fresh deployment).
    pub fn finish(mut self) -> Result<(DiskBackend, Option<(u64, u64)>), StoreError> {
        while self.next_batch()?.is_some() {}
        let valid = self.wal.valid_len();
        let wal = WalWriter::open(&self.dir.join("wal.log"), valid, self.config.durability)?;
        let stats = StorageStats {
            wal_bytes: valid,
            recovered_batches: self.replayed,
            ..StorageStats::default()
        };
        let backend = DiskBackend {
            dir: self.dir,
            spill_dir: self.spill_dir,
            wal,
            config: self.config,
            // Start the snapshot clock at the recovered log length so a
            // long surviving log still triggers a snapshot promptly.
            wal_bytes_since_snapshot: valid,
            last_snapshot_bytes: self.snapshot_bytes,
            stats,
        };
        Ok((backend, self.watermark))
    }
}

impl DiskBackend {
    /// Opens (creating if needed) the store at `dir` and loads its latest
    /// valid snapshot; the committed WAL tail is then streamed through the
    /// returned [`Recovery`].
    ///
    /// Stale spill files are deleted: they are an in-process eviction
    /// cache, and the snapshot + WAL are always the authoritative copy.
    pub fn open(dir: &Path, config: StoreConfig) -> Result<Recovery, StoreError> {
        std::fs::create_dir_all(dir)?;
        let spill_dir = dir.join("spill");
        if spill_dir.exists() {
            std::fs::remove_dir_all(&spill_dir)?;
        }
        std::fs::create_dir_all(&spill_dir)?;

        let snapshot_path = dir.join("snapshot.bin");
        let (snapshot, snapshot_bytes) = if snapshot_path.exists() {
            let snap = snapshot::load_snapshot(&snapshot_path)?;
            (Some(snap), std::fs::metadata(&snapshot_path)?.len())
        } else {
            (None, 0)
        };
        let watermark = snapshot.as_ref().map(|s| (s.seq, s.time_bits));
        Ok(Recovery {
            dir: dir.to_path_buf(),
            spill_dir,
            config,
            snapshot_seq: watermark.map_or(0, |(seq, _)| seq),
            snapshot,
            snapshot_bytes,
            wal: WalReader::open(&dir.join("wal.log"))?,
            watermark,
            replayed: 0,
        })
    }

    /// The data directory this backend persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured spill row budget, if spill is enabled.
    pub fn spill_budget_rows(&self) -> Option<usize> {
        self.config.spill_budget_rows
    }

    /// WAL bytes after which the next snapshot is due (see
    /// [`StoreConfig::snapshot_wal_bytes`]).
    fn snapshot_threshold(&self) -> u64 {
        self.config
            .snapshot_wal_bytes
            .unwrap_or(self.last_snapshot_bytes.max(MIN_SNAPSHOT_WAL_BYTES))
    }
}

impl StorageBackend for DiskBackend {
    fn is_persistent(&self) -> bool {
        true
    }

    fn commit_batch(&mut self, ops: &[WalOp], seq: u64, time_bits: u64) -> Result<(), StoreError> {
        let before = self.wal.len;
        let after = self.wal.append_batch(ops, seq, time_bits)?;
        self.wal_bytes_since_snapshot += after - before;
        self.stats.committed_batches += 1;
        self.stats.committed_ops += ops.len() as u64;
        self.stats.wal_bytes = after;
        Ok(())
    }

    fn snapshot_due(&self) -> bool {
        self.wal_bytes_since_snapshot >= self.snapshot_threshold()
    }

    fn write_snapshot(&mut self, snap: &SnapshotData) -> Result<(), StoreError> {
        // The rename (and the directory entry behind it) is durable before
        // the log is truncated, so a crash in between recovers from either
        // the old snapshot and the full log or the new snapshot.
        self.last_snapshot_bytes = snapshot::write_snapshot(&self.dir.join("snapshot.bin"), snap)?;
        self.wal.truncate()?;
        self.wal_bytes_since_snapshot = 0;
        self.stats.snapshots_written += 1;
        self.stats.wal_bytes = 0;
        Ok(())
    }

    fn spill_dir(&self) -> Option<&Path> {
        Some(&self.spill_dir)
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_types::tuple::Tuple;
    use exspan_types::value::Value;
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "exspan-store-backend-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn op(node: u32, cost: i64) -> WalOp {
        WalOp::Tuple {
            node,
            insert: true,
            tuple: Arc::new(Tuple::new(
                "pathCost",
                node,
                vec![Value::Node(node + 1), Value::Int(cost)],
            )),
        }
    }

    /// What a reopen recovered, collected whole for inspection.
    struct Recovered {
        snapshot: Option<SnapshotData>,
        batches: Vec<WalBatch>,
        watermark: Option<(u64, u64)>,
    }

    fn open(dir: &Path, config: StoreConfig) -> (DiskBackend, Recovered) {
        let mut recovery = DiskBackend::open(dir, config).unwrap();
        let snapshot = recovery.take_snapshot();
        let mut batches = Vec::new();
        while let Some(batch) = recovery.next_batch().unwrap() {
            batches.push(batch);
        }
        let (backend, watermark) = recovery.finish().unwrap();
        let recovered = Recovered {
            snapshot,
            batches,
            watermark,
        };
        (backend, recovered)
    }

    fn empty_snapshot(seq: u64, time: f64) -> SnapshotData {
        SnapshotData {
            seq,
            time_bits: time.to_bits(),
            node_count: 4,
            links: vec![],
            tables: vec![],
            agg: vec![],
        }
    }

    /// A snapshot holding `rows` rows at node 0, to give it a known size.
    fn snapshot_with_rows(seq: u64, rows: usize) -> SnapshotData {
        let rows = (0..rows)
            .map(|i| {
                let tuple = Tuple::new("pathCost", 0, vec![Value::Node(1), Value::Int(i as i64)]);
                (Arc::new(tuple), 1)
            })
            .collect();
        let mut snap = empty_snapshot(seq, seq as f64);
        snap.tables.push(snapshot::TableDump {
            node: 0,
            relation: exspan_types::symbol::RelId::intern("pathCost"),
            rows,
        });
        snap
    }

    #[test]
    fn fresh_open_recovers_nothing() {
        let dir = tmp("fresh");
        let (backend, rec) = open(&dir, StoreConfig::default());
        assert!(rec.snapshot.is_none() && rec.batches.is_empty());
        assert!(rec.watermark.is_none());
        assert!(backend.is_persistent());
        assert_eq!(backend.stats(), StorageStats::default());
    }

    #[test]
    fn commits_recover_across_reopen() {
        let dir = tmp("reopen");
        {
            let (mut b, rec) = open(&dir, StoreConfig::default());
            assert!(rec.watermark.is_none());
            b.commit_batch(&[op(1, 5), op(2, 6)], 1, 1.0f64.to_bits())
                .unwrap();
            b.commit_batch(&[op(3, 7)], 2, 2.0f64.to_bits()).unwrap();
        }
        let (b, rec) = open(&dir, StoreConfig::default());
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.watermark, Some((2, 2.0f64.to_bits())));
        assert_eq!(b.stats().recovered_batches, 2);
    }

    #[test]
    fn snapshot_truncates_log_and_filters_stale_batches() {
        let dir = tmp("snapshot");
        let (mut b, _) = open(&dir, StoreConfig::default());
        b.commit_batch(&[op(1, 5)], 1, 1.0f64.to_bits()).unwrap();
        b.write_snapshot(&empty_snapshot(1, 1.0)).unwrap();
        assert_eq!(b.stats().wal_bytes, 0);
        b.commit_batch(&[op(2, 6)], 2, 2.0f64.to_bits()).unwrap();
        drop(b);

        let (b, rec) = open(&dir, StoreConfig::default());
        assert_eq!(rec.snapshot.as_ref().unwrap().seq, 1);
        // Only the post-snapshot batch replays.
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.batches[0].seq, 2);
        assert_eq!(rec.watermark, Some((2, 2.0f64.to_bits())));
        drop(b);

        // Simulate a crash between snapshot rename and log truncation: put
        // batch 1 back in front of the log — recovery must filter it out.
        let (mut b, _) = open(&dir, StoreConfig::default());
        b.commit_batch(&[op(9, 1)], 1, 0.5f64.to_bits()).unwrap();
        drop(b);
        let (_, rec) = open(&dir, StoreConfig::default());
        assert!(rec.batches.iter().all(|bt| bt.seq > 1));
    }

    #[test]
    fn a_snapshot_alone_sets_the_watermark() {
        let dir = tmp("snapshot-only");
        let (mut b, _) = open(&dir, StoreConfig::default());
        b.commit_batch(&[op(1, 5)], 3, 1.0f64.to_bits()).unwrap();
        b.write_snapshot(&empty_snapshot(3, 1.5)).unwrap();
        drop(b);
        let (_, rec) = open(&dir, StoreConfig::default());
        assert!(rec.batches.is_empty());
        assert_eq!(rec.watermark, Some((3, 1.5f64.to_bits())));
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_open() {
        let dir = tmp("torn");
        {
            let (mut b, _) = open(&dir, StoreConfig::default());
            b.commit_batch(&[op(1, 5)], 1, 1.0f64.to_bits()).unwrap();
        }
        let wal = dir.join("wal.log");
        let committed = std::fs::metadata(&wal).unwrap().len();
        let mut data = std::fs::read(&wal).unwrap();
        data.extend_from_slice(&[0xAB; 23]);
        std::fs::write(&wal, &data).unwrap();
        let (b, rec) = open(&dir, StoreConfig::default());
        assert_eq!(rec.batches.len(), 1);
        drop(b);
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), committed);
    }

    #[test]
    fn finish_skips_batches_left_unread() {
        let dir = tmp("unread");
        {
            let (mut b, _) = open(&dir, StoreConfig::default());
            b.commit_batch(&[op(1, 5)], 1, 1.0f64.to_bits()).unwrap();
            b.commit_batch(&[op(2, 6)], 2, 2.0f64.to_bits()).unwrap();
        }
        let committed = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        let recovery = DiskBackend::open(&dir, StoreConfig::default()).unwrap();
        let (b, watermark) = recovery.finish().unwrap();
        assert_eq!(watermark, Some((2, 2.0f64.to_bits())));
        assert_eq!(b.stats().wal_bytes, committed);
    }

    #[test]
    fn snapshot_due_follows_the_byte_threshold() {
        let dir = tmp("due");
        let config = StoreConfig {
            snapshot_wal_bytes: Some(1),
            ..StoreConfig::default()
        };
        let (mut b, _) = open(&dir, config);
        assert!(!b.snapshot_due());
        b.commit_batch(&[op(1, 5)], 1, 1.0f64.to_bits()).unwrap();
        assert!(b.snapshot_due());
        // A large snapshot does not move an explicit threshold.
        b.write_snapshot(&snapshot_with_rows(1, 20_000)).unwrap();
        assert!(!b.snapshot_due());
        b.commit_batch(&[op(2, 6)], 2, 2.0f64.to_bits()).unwrap();
        assert!(b.snapshot_due());

        let never = StoreConfig {
            snapshot_wal_bytes: Some(u64::MAX),
            ..StoreConfig::default()
        };
        let (mut b, _) = open(&tmp("never"), never);
        for seq in 1..=64 {
            b.commit_batch(&vec![op(1, 5); 64], seq, 1.0f64.to_bits())
                .unwrap();
        }
        assert!(!b.snapshot_due());
    }

    /// Commits batches of about 1 KiB until a snapshot is due and returns
    /// the WAL bytes that took.
    fn wal_bytes_until_due(b: &mut DiskBackend, seq: &mut u64) -> u64 {
        let start = b.stats().wal_bytes;
        let ops: Vec<WalOp> = (0..32).map(|i| op(i, 7)).collect();
        while !b.snapshot_due() {
            *seq += 1;
            b.commit_batch(&ops, *seq, 1.0f64.to_bits()).unwrap();
        }
        b.stats().wal_bytes - start
    }

    #[test]
    fn the_default_threshold_follows_the_last_snapshot_size() {
        let dir = tmp("default-cadence");
        let (mut b, _) = open(&dir, StoreConfig::default());
        let mut seq = 0;
        // No snapshot yet: the floor applies.
        let first = wal_bytes_until_due(&mut b, &mut seq);
        assert!((MIN_SNAPSHOT_WAL_BYTES..MIN_SNAPSHOT_WAL_BYTES + 2048).contains(&first));

        // A snapshot larger than the floor raises the threshold to its size.
        b.write_snapshot(&snapshot_with_rows(seq, 20_000)).unwrap();
        let big = std::fs::metadata(dir.join("snapshot.bin")).unwrap().len();
        assert!(big > 2 * MIN_SNAPSHOT_WAL_BYTES, "snapshot is {big} bytes");
        let second = wal_bytes_until_due(&mut b, &mut seq);
        assert!((big..big + 2048).contains(&second), "{second} vs {big}");

        // A small snapshot brings the floor back.
        b.write_snapshot(&snapshot_with_rows(seq, 10)).unwrap();
        let third = wal_bytes_until_due(&mut b, &mut seq);
        assert!((MIN_SNAPSHOT_WAL_BYTES..MIN_SNAPSHOT_WAL_BYTES + 2048).contains(&third));

        // After a reopen the threshold comes from the snapshot on disk, and
        // the surviving log counts towards it.
        b.write_snapshot(&snapshot_with_rows(seq, 20_000)).unwrap();
        seq += 1;
        b.commit_batch(&[op(1, 5)], seq, 1.0f64.to_bits()).unwrap();
        let logged = b.stats().wal_bytes;
        drop(b);
        let (mut b, _) = open(&dir, StoreConfig::default());
        assert_eq!(b.stats().wal_bytes, logged);
        let rest = wal_bytes_until_due(&mut b, &mut seq);
        assert!((big..big + 2048).contains(&(logged + rest)));
    }

    #[test]
    fn stale_spill_files_are_cleared_on_open() {
        let dir = tmp("spill-clear");
        std::fs::create_dir_all(dir.join("spill")).unwrap();
        std::fs::write(dir.join("spill/n0_x.tbl"), b"stale").unwrap();
        let (b, _) = open(&dir, StoreConfig::default());
        let spill = b.spill_dir().unwrap();
        assert!(std::fs::read_dir(spill).unwrap().next().is_none());
    }
}
