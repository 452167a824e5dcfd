//! Deployment-level persistence: WAL recovery, snapshots, spill, and the
//! determinism guarantees the store inherits from the runtime.
//!
//! The recovery oracle throughout is [`Deployment::state_digest`] — the SHA-1
//! of the canonical snapshot encoding, a pure function of logical state that
//! is independent of shard count, spill residency, and execution history.

use exspan_core::{Deployment, Exspan, ProvenanceMode};
use exspan_ndlog::programs;
use exspan_netsim::{LinkClass, LinkProps, Topology};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory (no `tempfile` dependency in this workspace).
/// Removed on drop; leaks only if the test panics, in which case the path
/// aids debugging.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "exspan-core-persist-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn builder(shards: usize) -> exspan_core::DeploymentBuilder {
    Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::testbed_ring(16, 7))
        .mode(ProvenanceMode::Reference)
        .shards(shards)
}

fn churn(d: &mut Deployment) {
    d.remove_link(0, 1);
    d.run_to_fixpoint();
    d.add_link(
        0,
        1,
        LinkProps {
            latency: 0.013,
            bandwidth: 80.0,
            cost: 2,
            class: LinkClass::Custom,
        },
    );
    d.run_to_fixpoint();
    d.remove_link(8, 9);
    d.run_to_fixpoint();
}

#[test]
fn reopen_recovers_identical_state_from_wal_only() {
    let scratch = Scratch::new("wal-only");
    let digest = {
        let mut d = builder(1).data_dir(scratch.path()).build().unwrap();
        assert!(!d.recovered_from_store());
        d.run_to_fixpoint();
        churn(&mut d);
        let stats = d.storage_stats();
        assert!(stats.committed_batches > 0, "runs must commit WAL batches");
        assert!(stats.wal_bytes > 0);
        d.state_digest()
        // Dropped without checkpoint: recovery must come from the log alone.
    };
    let mut d = builder(1).data_dir(scratch.path()).build().unwrap();
    assert!(d.recovered_from_store());
    assert!(d.storage_stats().recovered_batches > 0);
    assert_eq!(d.state_digest(), digest, "WAL replay diverged");
    // The recovered state is a quiescent fixpoint; running must not move it.
    d.run_to_fixpoint();
    assert_eq!(d.state_digest(), digest);
}

#[test]
fn checkpoint_makes_recovery_snapshot_only() {
    let scratch = Scratch::new("checkpoint");
    let digest = {
        let mut d = builder(2).data_dir(scratch.path()).build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
        d.checkpoint();
        assert!(d.storage_stats().snapshots_written >= 1);
        d.state_digest()
    };
    // After a checkpoint the log is truncated at the snapshot watermark, so
    // a reopen replays zero batches.
    let d = builder(2).data_dir(scratch.path()).build().unwrap();
    assert!(d.recovered_from_store());
    assert_eq!(d.storage_stats().recovered_batches, 0);
    assert_eq!(d.state_digest(), digest);
}

#[test]
fn recovered_deployment_continues_identically_to_uninterrupted_run() {
    // Oracle: one uninterrupted run.  Subject: same run split by a restart
    // in the middle.  Both must land on the same digest.
    let oracle = {
        let mut d = builder(1).build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
        d.remove_link(4, 5);
        d.run_to_fixpoint();
        d.state_digest()
    };
    let scratch = Scratch::new("resume");
    {
        let mut d = builder(1).data_dir(scratch.path()).build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
    }
    let mut d = builder(1).data_dir(scratch.path()).build().unwrap();
    assert!(d.recovered_from_store());
    d.remove_link(4, 5);
    d.run_to_fixpoint();
    assert_eq!(d.state_digest(), oracle);
}

#[test]
fn snapshot_bytes_identical_across_shard_counts() {
    // Canonical snapshots are execution-independent *bytes*: the file a
    // 4-shard deployment writes is identical to the sequential engine's.
    let mut snapshots = Vec::new();
    for shards in [1usize, 4] {
        let scratch = Scratch::new("shardbytes");
        let mut d = builder(shards).data_dir(scratch.path()).build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
        d.checkpoint();
        snapshots.push(std::fs::read(scratch.path().join("snapshot.bin")).unwrap());
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "snapshot bytes depend on shard count"
    );
}

#[test]
fn spill_budget_preserves_observable_state() {
    let oracle = {
        let mut d = builder(1).build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
        (
            d.state_digest(),
            d.tuples_everywhere_shared("bestPathCost"),
            d.derivation_count(&d.tuples_everywhere_shared("bestPathCost")[0]),
        )
    };
    let scratch = Scratch::new("spill");
    let mut d = builder(1)
        .data_dir(scratch.path())
        .memory_budget_rows(32)
        .build()
        .unwrap();
    d.run_to_fixpoint();
    churn(&mut d);
    let stats = d.storage_stats();
    assert!(
        stats.tables_spilled > 0,
        "budget of 32 rows must force spill"
    );
    // Inspection APIs read spilled tables from disk without faulting them in.
    assert_eq!(d.tuples_everywhere_shared("bestPathCost"), oracle.1);
    assert_eq!(d.derivation_count(&oracle.1[0]), oracle.2);
    assert!(d.storage_stats().cold_reads > 0);
    // The digest is spill-independent.
    assert_eq!(d.state_digest(), oracle.0);
}

#[test]
fn spilled_store_recovers_after_restart() {
    let scratch = Scratch::new("spill-restart");
    let digest = {
        let mut d = builder(2)
            .data_dir(scratch.path())
            .memory_budget_rows(24)
            .build()
            .unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
        assert!(d.storage_stats().tables_spilled > 0);
        d.state_digest()
    };
    // Spill files are a cache: recovery rebuilds from snapshot + WAL and the
    // stale spill files are discarded, budget enforcement then re-spills.
    let mut d = builder(2)
        .data_dir(scratch.path())
        .memory_budget_rows(24)
        .build()
        .unwrap();
    assert!(d.recovered_from_store());
    assert_eq!(d.state_digest(), digest);
    d.run_to_fixpoint();
    assert_eq!(d.state_digest(), digest);
}

#[test]
fn torn_wal_tail_recovers_cleanly_at_deployment_level() {
    use std::io::Write;
    let scratch = Scratch::new("torn");
    let digest = {
        let mut d = builder(1).data_dir(scratch.path()).build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
        d.state_digest()
    };
    // Simulate a crash mid-append: garbage past the last committed batch.
    let wal = scratch.path().join("wal.log");
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&[0x00, 0x00, 0x00, 0x2a, 0xde, 0xad, 0xbe])
        .unwrap();
    drop(f);
    let d = builder(1).data_dir(scratch.path()).build().unwrap();
    assert!(d.recovered_from_store());
    assert_eq!(d.state_digest(), digest, "torn tail corrupted recovery");
}

#[test]
fn node_count_mismatch_is_a_build_error() {
    let scratch = Scratch::new("mismatch");
    {
        let mut d = builder(1).data_dir(scratch.path()).build().unwrap();
        d.run_to_fixpoint();
        d.checkpoint();
    }
    let err = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::testbed_ring(8, 3))
        .mode(ProvenanceMode::Reference)
        .data_dir(scratch.path())
        .build()
        .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("topology"), "unexpected error: {msg}");
}

#[test]
fn in_memory_default_reports_zero_storage_activity() {
    let mut d = builder(1).build().unwrap();
    d.run_to_fixpoint();
    let stats = d.storage_stats();
    assert_eq!(stats.committed_batches, 0);
    assert_eq!(stats.wal_bytes, 0);
    assert_eq!(stats.snapshots_written, 0);
    assert_eq!(stats.tables_spilled, 0);
}

/// A store written by the code before streaming recovery and the size-
/// proportional snapshot cadence: the `mincost_ring6` workload below with
/// `snapshot_every_bytes(u64::MAX)`, i.e. a checkpoint snapshot at the
/// fixpoint followed by two churn batches in the log.
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../store/tests/fixtures/mincost-ring6"
);

/// The state digest of the fixture's workload, as that code computed it.
const FIXTURE_DIGEST: &str = "26123f3cce55210144c4e5d231f73b11319ebabd";

fn ring6() -> exspan_core::DeploymentBuilder {
    Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::testbed_ring(6, 7))
        .mode(ProvenanceMode::Reference)
}

#[test]
fn a_store_from_the_previous_format_writer_recovers_to_its_digest() {
    let scratch = Scratch::new("fixture");
    for file in ["snapshot.bin", "wal.log"] {
        std::fs::copy(format!("{FIXTURE}/{file}"), scratch.path().join(file)).unwrap();
    }
    for shards in [1, 4] {
        let d = ring6()
            .shards(shards)
            .data_dir(scratch.path())
            .build()
            .unwrap();
        assert!(d.recovered_from_store());
        assert_eq!(d.storage_stats().recovered_batches, 2);
        assert_eq!(d.state_digest(), FIXTURE_DIGEST, "{shards} shards");
    }
}

#[test]
fn the_same_workload_writes_the_fixture_bytes() {
    let scratch = Scratch::new("fixture-bytes");
    let mut d = ring6()
        .data_dir(scratch.path())
        .snapshot_every_bytes(u64::MAX)
        .build()
        .unwrap();
    d.run_to_fixpoint();
    d.checkpoint();
    d.remove_link(0, 1);
    d.run_to_fixpoint();
    d.add_link(0, 3, LinkProps::from_class(LinkClass::StubStub));
    d.run_to_fixpoint();
    assert_eq!(d.state_digest(), FIXTURE_DIGEST);
    drop(d);
    for file in ["snapshot.bin", "wal.log"] {
        let expected = std::fs::read(format!("{FIXTURE}/{file}")).unwrap();
        let written = std::fs::read(scratch.path().join(file)).unwrap();
        assert!(written == expected, "{file} differs from the fixture");
    }
}
