//! `maintain-value` and `maintain-durable`: keeping provenance up to date
//! from a cold start to fixpoint and then through link churn (§7.1–7.2).

use crate::common::{self, Counts, Ctx, Outcome};
use crate::stats::{median, percentile};
use exspan_core::{Deployment, ProvenanceMode};
use exspan_ndlog::programs;
use exspan_netsim::{ChurnEvent, LinkClass, LinkProps, Topology};
use exspan_store::Durability;
use exspan_types::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which of the two maintenance workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// PATHVECTOR with value-based (BDD) provenance, in memory.
    Value,
    /// MINCOST with reference-based provenance in a durable store.
    Durable,
}

/// Transit-stub domains: 1 gives a 100-node network.  A churn sweep deletes
/// and restores each of its 156 stub-stub links once; on the paper's
/// 200-node network a sweep would take four times as long.
const DOMAINS: usize = 1;
/// Every run maintains the same network, so that `--seed` varies only the
/// churn schedule: the topology alone moves the fixpoint's cost by a third
/// from one instance to the next.
const TOPOLOGY_SEED: u64 = 42;
/// One shard: at two, three runs of one seed ranged from 10.9 to 15.8
/// changes per second on `maintain-value` and from 24.2 to 31.2 on
/// `maintain-durable` (16.5 to 18.4 and 25.6 to 26.7 at one shard), too
/// wide for any bound to hold.
const SHARDS: usize = 1;
/// The paper's churn: a batch of ten stub-stub link changes every 0.5 s.
const CHURN_INTERVAL: f64 = 0.5;
/// Links each batch deletes; it also restores those the batch before
/// deleted, so the network stays near its original shape and deletions and
/// additions are equally likely, as in the paper.
const LINKS_DOWN: usize = 5;

impl Kind {
    /// Churn sweeps per `--seconds` (at least one is run), sized so that
    /// the churn phase takes about `--seconds` wall seconds on a 2-core
    /// x86-64 host.
    fn sweeps_per_wall_s(self) -> f64 {
        match self {
            Kind::Value => 0.05,
            Kind::Durable => 0.1,
        }
    }

    fn builder(self, data_dir: &Path) -> exspan_core::DeploymentBuilder {
        let topology = Topology::transit_stub(DOMAINS, TOPOLOGY_SEED);
        match self {
            Kind::Value => common::builder(
                programs::path_vector(),
                topology,
                ProvenanceMode::ValueBdd,
                SHARDS,
            ),
            Kind::Durable => common::builder(
                programs::mincost(),
                topology,
                ProvenanceMode::Reference,
                SHARDS,
            )
            .data_dir(data_dir)
            .durability(Durability::Barrier),
        }
    }
}

/// A deployment at its first fixpoint.
pub struct State {
    kind: Kind,
    deployment: Deployment,
    data_dir: PathBuf,
    build_ms: f64,
    fixpoint_s: f64,
    fixpoint_events: u64,
}

impl State {
    pub fn counts(&self) -> Counts {
        let mut counts = common::setup_counts(&self.deployment, self.fixpoint_events);
        if self.kind == Kind::Durable {
            let store = self.deployment.storage_stats();
            counts.push(("setup.store_snapshots", store.snapshots_written));
            counts.push(("setup.store_committed_ops", store.committed_ops));
        }
        counts
    }
}

pub fn setup(kind: Kind, ctx: &mut Ctx) -> Result<State, String> {
    let data_dir = ctx.work_dir.join("store");
    let _ = std::fs::remove_dir_all(&data_dir);
    let t0 = Instant::now();
    let mut deployment = common::build(&mut ctx.tracer, kind.builder(&data_dir))?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let stats = ctx.tracer.span("runtime.run_to_fixpoint", 0, || {
        deployment.run_to_fixpoint()
    });
    Ok(State {
        kind,
        deployment,
        data_dir,
        build_ms,
        fixpoint_s: t1.elapsed().as_secs_f64(),
        fixpoint_events: stats.steps,
    })
}

pub fn measure(state: State, ctx: &mut Ctx) -> Outcome {
    let State {
        kind,
        mut deployment,
        data_dir,
        build_ms,
        fixpoint_s,
        fixpoint_events,
    } = state;
    let mut out = Outcome::default();
    out.metrics.set("build.ms", build_ms);
    out.metrics.set("fixpoint.s", fixpoint_s);
    out.metrics.set("fixpoint.events", fixpoint_events as f64);
    out.counts = common::setup_counts(&deployment, fixpoint_events);

    let sweeps = ((ctx.seconds as f64 * kind.sweeps_per_wall_s()).round() as usize).max(1);
    let schedule = churn_schedule(deployment.topology(), ctx.seed, sweeps);
    let changes: u64 = schedule.iter().map(|batch| batch.len() as u64).sum();
    let start = deployment.now();

    let phase = ctx.tracer.open("bench.churn", 0);
    let t0 = Instant::now();
    let mut window_ms = Vec::with_capacity(schedule.len());
    let mut churn_events = 0u64;
    for (k, batch) in schedule.iter().enumerate() {
        let at = start + (k + 1) as f64 * CHURN_INTERVAL;
        ctx.tracer.span("runtime.schedule_churn_event", 0, || {
            for event in batch {
                deployment.schedule_churn_event(event, at);
            }
        });
        let w0 = Instant::now();
        let stats = ctx.tracer.span("runtime.run_until", 0, || {
            deployment.run_until(at + CHURN_INTERVAL * 0.99)
        });
        window_ms.push(w0.elapsed().as_secs_f64() * 1e3);
        churn_events += stats.steps;
    }
    let settle = ctx.tracer.span("runtime.run_to_fixpoint", 0, || {
        deployment.run_to_fixpoint()
    });
    churn_events += settle.steps;
    let churn_s = t0.elapsed().as_secs_f64();
    ctx.tracer.close(phase);

    out.attempted = changes;
    let changes_per_s = changes as f64 / churn_s;
    let m = &mut out.metrics;
    m.set("ops_per_s", changes_per_s);
    m.set("churn_changes_per_s", changes_per_s);
    m.set("op_ms_p50", median(&window_ms));
    m.set("runtime.window_ms_p50", median(&window_ms));
    m.set("runtime.window_ms_max", percentile(&window_ms, 100.0));
    m.set("runtime.churn_events", churn_events as f64);
    m.set("runtime.events_per_s", churn_events as f64 / churn_s);
    common::record_deployment(&deployment, &mut out);
    out.check(!schedule.is_empty(), || {
        "the churn schedule is empty".into()
    });

    let net = deployment.engine().stats();
    out.counts.extend([
        ("churn.changes", changes),
        ("churn.events", churn_events),
        ("net.bytes", net.total_bytes()),
        ("net.messages", net.total_messages()),
        ("runtime.tuples", deployment.engine().total_tuples() as u64),
    ]);
    if kind == Kind::Durable {
        check_store(deployment, &data_dir, ctx, &mut out);
    }
    out
}

/// `sweeps` sweeps of churn batches.  A sweep deletes every stub-stub link
/// once, [`LINKS_DOWN`] at a time in a random order; each batch first
/// restores the links the batch before deleted, and a last batch restores
/// the final ones, so every seed deletes and restores the same links and
/// ends with the network it started from.
fn churn_schedule(topology: &Topology, seed: u64, sweeps: usize) -> Vec<Vec<ChurnEvent>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
    let links = topology.links_of_class(LinkClass::StubStub);
    let props = LinkProps::from_class(LinkClass::StubStub);
    let event = |add: bool, (a, b): (NodeId, NodeId)| ChurnEvent {
        time: 0.0,
        add,
        a,
        b,
        props,
    };
    let mut batches = Vec::new();
    let mut down: Vec<(NodeId, NodeId)> = Vec::new();
    for _ in 0..sweeps {
        let mut order = links.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        // Links still down from the previous sweep are deleted last, so no
        // batch adds and deletes the same link.
        order.sort_by_key(|l| down.contains(l));
        for group in order.chunks(LINKS_DOWN) {
            let mut batch: Vec<ChurnEvent> = down.iter().map(|&l| event(true, l)).collect();
            batch.extend(group.iter().map(|&l| event(false, l)));
            down = group.to_vec();
            batches.push(batch);
        }
    }
    batches.push(down.iter().map(|&l| event(true, l)).collect());
    batches
}

/// Records the store's counters, then reopens its directory as a restarted
/// process would and checks that recovery reproduces the live state.
fn check_store(deployment: Deployment, data_dir: &Path, ctx: &mut Ctx, out: &mut Outcome) {
    let store = deployment.storage_stats();
    let snapshot_bytes = std::fs::metadata(data_dir.join("snapshot.bin")).map_or(0, |m| m.len());
    let live = ctx
        .tracer
        .span("store.state_digest", 0, || deployment.state_digest());
    out.counts.extend([
        ("store.snapshots", store.snapshots_written),
        ("store.committed_ops", store.committed_ops),
    ]);
    let m = &mut out.metrics;
    m.set("store.snapshots", store.snapshots_written as f64);
    m.set("store.snapshot_bytes", snapshot_bytes as f64);
    m.set("store.wal_bytes", store.wal_bytes as f64);
    m.set("store.committed_ops", store.committed_ops as f64);
    let written = store.snapshots_written * snapshot_bytes + store.wal_bytes;
    m.set(
        "store.bytes_per_op",
        written as f64 / store.committed_ops.max(1) as f64,
    );
    // Drop without a checkpoint: every barrier is already committed, so
    // recovery must replay to the same state.
    ctx.tracer.span("store.close", 0, || drop(deployment));

    // Building over an existing directory is the recovery: snapshot load
    // plus WAL replay, without re-running the protocol.
    let builder = Kind::Durable.builder(data_dir);
    let t0 = Instant::now();
    let reopened = ctx.tracer.span("store.recover", 0, || builder.build());
    let recover_s = t0.elapsed().as_secs_f64();
    let mut recovered = match reopened {
        Ok(d) => d,
        Err(e) => {
            out.problems.push(format!("store recovery failed: {e}"));
            return;
        }
    };
    out.metrics.set("store.recover_s", recover_s);
    out.check(recovered.recovered_from_store(), || {
        "reopening the data directory did not recover from the store".into()
    });
    let digest = ctx
        .tracer
        .span("store.state_digest", 0, || recovered.state_digest());
    out.check(digest == live, || {
        format!("recovered state digest {digest} differs from the live digest {live}")
    });
    let t1 = Instant::now();
    ctx.tracer
        .span("store.checkpoint", 0, || recovered.checkpoint());
    out.metrics
        .set("store.checkpoint_ms", t1.elapsed().as_secs_f64() * 1e3);
}
