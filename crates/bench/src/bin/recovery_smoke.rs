//! Crash-recovery smoke test: kill a persistent deployment mid-run, recover,
//! finish, and prove the final state is byte-identical to an uninterrupted
//! run.
//!
//! ```text
//! cargo run -p exspan-bench --release --bin recovery_smoke
//! ```
//!
//! The harness re-executes itself as a child process (`--phase crash`) that
//! runs a MINCOST fixpoint plus a deterministic churn workload against a
//! persistent store and then calls `abort()` mid-workload.  The parent then
//! damages the log tail in controlled ways (or leaves it alone), recovers,
//! checks the recovered state digest against the per-batch oracle digests,
//! replays the remaining churn batches, and requires the final digest to
//! equal the uninterrupted run's.  Scenarios cover clean kills, torn WAL
//! tails, trailing garbage, snapshot-heavy stores, cold-table spill, the
//! default snapshot cadence (snapshot plus a replayed log tail), and
//! recovery with a different shard count than the writer.
//!
//! Exit code 0 means every scenario recovered byte-identically.

use exspan_core::{Deployment, Exspan, ProvenanceMode};
use exspan_ndlog::programs;
use exspan_netsim::{LinkClass, LinkProps, Topology};
use exspan_types::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const NODES: u32 = 16;
const RING_SEED: u64 = 7;
const BATCHES: usize = 8;
const CRASH_AFTER: usize = 5;
const WORKLOAD_SEED: u64 = 0xEC5A;

fn builder(shards: usize) -> exspan_core::DeploymentBuilder {
    Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::testbed_ring(NODES as usize, RING_SEED))
        .mode(ProvenanceMode::Reference)
        .shards(shards)
}

/// Applies churn batch `index` (1-based) and runs to fixpoint.  The batch is
/// a pure function of its index — the PRNG is reseeded per batch — so a
/// recovered deployment can resume at any batch boundary and replay exactly
/// the workload the oracle saw.
fn apply_batch(d: &mut Deployment, index: usize) {
    let mut rng = SmallRng::seed_from_u64(WORKLOAD_SEED ^ index as u64);
    for _ in 0..2 {
        let a = rng.gen_range(0..NODES) as NodeId;
        let mut b = rng.gen_range(0..NODES) as NodeId;
        if a == b {
            b = (b + 1) % NODES;
        }
        if d.topology().link(a, b).is_some() {
            d.remove_link(a, b);
        } else {
            d.add_link(a, b, LinkProps::from_class(LinkClass::StubStub));
        }
    }
    d.run_to_fixpoint();
}

/// Runs the full workload in memory and returns the state digest after the
/// fixpoint (`digests[0]`) and after each churn batch (`digests[i]`).
fn oracle_digests(shards: usize) -> Vec<String> {
    let mut d = builder(shards).build().expect("oracle deployment");
    d.run_to_fixpoint();
    let mut digests = vec![d.state_digest()];
    for i in 1..=BATCHES {
        apply_batch(&mut d, i);
        digests.push(d.state_digest());
    }
    digests
}

struct Scenario {
    name: &'static str,
    /// Shard count of the crashing writer process.
    writer_shards: usize,
    /// Shard count used for recovery (byte-identity must hold across both).
    recover_shards: usize,
    /// Snapshot cadence handed to the writer (`u64::MAX` = WAL-only, `None`
    /// = the default cadence, which follows the snapshot size).
    snapshot_bytes: Option<u64>,
    /// Cold-table spill budget for both writer and recoverer.
    budget_rows: Option<usize>,
    /// How to damage the store after the kill.
    damage: Damage,
    /// Batch index the recovered digest must land on.
    expect_batch: usize,
}

enum Damage {
    /// Clean kill: the log ends exactly at the last committed batch.
    None,
    /// A crash mid-append: garbage past the last committed record.
    AppendGarbage,
    /// A torn final record: the tail of the last append is missing, so the
    /// last committed batch must be discarded and recovery lands one earlier.
    ChopTail(u64),
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "clean kill, WAL-only, 1 shard",
            writer_shards: 1,
            recover_shards: 1,
            snapshot_bytes: Some(u64::MAX),
            budget_rows: None,
            damage: Damage::None,
            expect_batch: CRASH_AFTER,
        },
        Scenario {
            name: "trailing garbage, WAL-only, 4 shards",
            writer_shards: 4,
            recover_shards: 4,
            snapshot_bytes: Some(u64::MAX),
            budget_rows: None,
            damage: Damage::AppendGarbage,
            expect_batch: CRASH_AFTER,
        },
        Scenario {
            name: "torn tail, recovered with a different shard count",
            writer_shards: 1,
            recover_shards: 4,
            snapshot_bytes: Some(u64::MAX),
            budget_rows: None,
            damage: Damage::ChopTail(4),
            expect_batch: CRASH_AFTER - 1,
        },
        Scenario {
            name: "snapshot-per-barrier with cold-table spill",
            writer_shards: 4,
            recover_shards: 1,
            snapshot_bytes: Some(1),
            budget_rows: Some(64),
            damage: Damage::AppendGarbage,
            expect_batch: CRASH_AFTER,
        },
        // The default cadence follows the snapshot size: on this ring a
        // churn batch, not the fixpoint, triggers the last snapshot, and the
        // batches after it stay in the log (checked in `run_scenario`).
        Scenario {
            name: "default cadence, snapshot plus WAL tail",
            writer_shards: 1,
            recover_shards: 1,
            snapshot_bytes: None,
            budget_rows: None,
            damage: Damage::None,
            expect_batch: CRASH_AFTER,
        },
    ]
}

/// Child phase: run the workload persistently and die mid-run without any
/// shutdown path (no checkpoint, no flush beyond the per-barrier commits).
fn crash_phase(dir: &Path, shards: usize, snapshot_bytes: Option<u64>, budget: Option<usize>) -> ! {
    let mut b = builder(shards).data_dir(dir);
    if let Some(bytes) = snapshot_bytes {
        b = b.snapshot_every_bytes(bytes);
    }
    if let Some(rows) = budget {
        b = b.memory_budget_rows(rows);
    }
    let mut d = b.build().expect("crash-phase deployment");
    d.run_to_fixpoint();
    for i in 1..=CRASH_AFTER {
        apply_batch(&mut d, i);
    }
    eprintln!("recovery_smoke[child]: aborting after batch {CRASH_AFTER}");
    std::process::abort();
}

fn run_scenario(s: &Scenario, oracle: &[String], scratch_root: &Path) -> Result<(), String> {
    let dir = scratch_root.join(s.name.replace([' ', ','], "-"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--phase")
        .arg("crash")
        .arg("--dir")
        .arg(&dir)
        .arg("--shards")
        .arg(s.writer_shards.to_string());
    if let Some(bytes) = s.snapshot_bytes {
        cmd.arg("--snapshot-bytes").arg(bytes.to_string());
    }
    if let Some(rows) = s.budget_rows {
        cmd.arg("--budget-rows").arg(rows.to_string());
    }
    let status = cmd.status().map_err(|e| format!("spawn child: {e}"))?;
    if status.success() {
        return Err("child was supposed to abort but exited cleanly".into());
    }

    let wal = dir.join("wal.log");
    match s.damage {
        Damage::None => {}
        Damage::AppendGarbage => {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&wal)
                .map_err(|e| format!("open {}: {e}", wal.display()))?;
            f.write_all(&[0x00, 0x00, 0x01, 0x00, 0xba, 0xad, 0xf0, 0x0d])
                .map_err(|e| format!("append garbage: {e}"))?;
        }
        Damage::ChopTail(bytes) => {
            let len = std::fs::metadata(&wal)
                .map_err(|e| format!("stat {}: {e}", wal.display()))?
                .len();
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&wal)
                .map_err(|e| format!("open {}: {e}", wal.display()))?;
            f.set_len(len.saturating_sub(bytes))
                .map_err(|e| format!("truncate: {e}"))?;
        }
    }

    let mut b = builder(s.recover_shards).data_dir(&dir);
    if let Some(rows) = s.budget_rows {
        b = b.memory_budget_rows(rows);
    }
    let mut d = b
        .build()
        .map_err(|e| format!("recovery build failed: {e}"))?;
    if !d.recovered_from_store() {
        return Err("deployment did not recover from the store".into());
    }
    if s.snapshot_bytes.is_none() {
        // The fixpoint and each churn batch commit one batch apiece; fewer
        // than `CRASH_AFTER` replayed means a snapshot covers churn batches.
        let replayed = d.storage_stats().recovered_batches;
        if !dir.join("snapshot.bin").exists() || !(1..CRASH_AFTER as u64).contains(&replayed) {
            return Err(format!(
                "expected a post-fixpoint snapshot and a WAL tail, \
                 but recovery replayed {replayed} batches"
            ));
        }
    }
    let recovered = d.state_digest();
    if recovered != oracle[s.expect_batch] {
        return Err(format!(
            "recovered digest {recovered} != oracle digest after batch {} ({})",
            s.expect_batch, oracle[s.expect_batch]
        ));
    }
    for i in s.expect_batch + 1..=BATCHES {
        apply_batch(&mut d, i);
    }
    let fin = d.state_digest();
    if fin != oracle[BATCHES] {
        return Err(format!(
            "final digest {fin} != uninterrupted-run digest {}",
            oracle[BATCHES]
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--phase") {
        let mut dir = PathBuf::new();
        let mut shards = 1usize;
        let mut snapshot_bytes = None;
        let mut budget = None;
        let mut i = 2;
        while i + 1 < args.len() + 1 {
            match args.get(i).map(String::as_str) {
                Some("--dir") => dir = PathBuf::from(&args[i + 1]),
                Some("--shards") => shards = args[i + 1].parse().expect("--shards"),
                Some("--snapshot-bytes") => {
                    snapshot_bytes = Some(args[i + 1].parse().expect("--snapshot-bytes"));
                }
                Some("--budget-rows") => budget = Some(args[i + 1].parse().expect("--budget-rows")),
                _ => break,
            }
            i += 2;
        }
        crash_phase(&dir, shards, snapshot_bytes, budget);
    }

    println!("recovery_smoke: computing oracle digests (1 shard)…");
    let oracle = oracle_digests(1);
    println!("recovery_smoke: checking digest shard-independence (4 shards)…");
    let oracle4 = oracle_digests(4);
    if oracle != oracle4 {
        eprintln!("recovery_smoke: FAIL — state digests differ between 1 and 4 shards");
        return ExitCode::FAILURE;
    }

    let scratch_root =
        std::env::temp_dir().join(format!("exspan-recovery-smoke-{}", std::process::id()));
    let mut failed = false;
    for s in scenarios() {
        print!("recovery_smoke: {} … ", s.name);
        match run_scenario(&s, &oracle, &scratch_root) {
            Ok(()) => println!("ok"),
            Err(e) => {
                println!("FAIL");
                eprintln!("recovery_smoke: {}: {e}", s.name);
                failed = true;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch_root);
    if failed {
        ExitCode::FAILURE
    } else {
        println!("recovery_smoke: all scenarios recovered byte-identically");
        ExitCode::SUCCESS
    }
}
