//! What every workload shares: the run context, its outcome, and the
//! counters read through the deployment's public API.

use crate::report::Metrics;
use crate::stats::Ratio;
use crate::trace::Tracer;
use exspan_core::Deployment;
use exspan_ndlog::ast::Program;
use exspan_types::{NodeId, Tuple};
use std::path::PathBuf;
use std::sync::Arc;

/// One run's inputs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub tracer: Tracer,
    /// A directory of this process's own, removed when the run ends.
    pub work_dir: PathBuf,
}

/// Counts of simulated work that must repeat exactly for a given seed.
pub type Counts = Vec<(&'static str, u64)>;

/// What a measured phase produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Builds a deployment inside a `build.deployment` span.
pub fn build(
    tracer: &mut Tracer,
    builder: exspan_core::DeploymentBuilder,
) -> Result<Deployment, String> {
    tracer
        .span("build.deployment", 0, || builder.build())
        .map_err(|e| format!("cannot build the deployment: {e}"))
}

/// The query population of the paper's §7.3 workload: the routes of a small
/// set of hot destinations (the `bestPathCost` tuples of the first twelve
/// nodes), at most 64 of them.
pub fn hot_targets(deployment: &Deployment) -> Vec<Arc<Tuple>> {
    let nodes = deployment.topology().num_nodes().min(12) as NodeId;
    let mut targets: Vec<Arc<Tuple>> = (0..nodes)
        .flat_map(|n| deployment.tuples_shared(n, "bestPathCost"))
        .collect();
    targets.truncate(64);
    targets
}

/// Counters of the setup fixpoint, which must repeat exactly per seed.
pub fn setup_counts(deployment: &Deployment, events: u64) -> Counts {
    let net = deployment.engine().stats();
    vec![
        ("setup.fixpoint_events", events),
        ("setup.net_bytes", net.total_bytes()),
        ("setup.net_messages", net.total_messages()),
        ("setup.tuples", deployment.engine().total_tuples() as u64),
    ]
}

/// Records the runtime, netsim, bdd, value-policy and query counters that
/// the deployment exposes, and checks `eval_errors == 0`.
pub fn record_deployment(deployment: &Deployment, out: &mut Outcome) {
    let engine = deployment.engine();
    let net = engine.stats();
    let m = &mut out.metrics;
    m.set("runtime.tuples", engine.total_tuples() as f64);
    m.set("runtime.eval_errors", engine.eval_errors() as f64);
    m.set("net.messages", net.total_messages() as f64);
    m.set("net.bytes", net.total_bytes() as f64);
    m.set("net.dropped", net.dropped as f64);
    m.set("comm_mb_per_node", deployment.avg_comm_mb());
    let value = deployment.with_value_provenance(|policy| {
        let memo = policy.manager().memo_stats();
        (
            policy.manager().node_count(),
            Ratio::of_hits(memo.hits, memo.misses),
            memo.clears,
            policy.total_annotation_bytes(),
        )
    });
    if let Some((nodes, memo, clears, annotation_bytes)) = value {
        m.set("bdd.nodes", nodes as f64);
        m.set("bdd.memo_hit_ratio", memo.value());
        m.set("bdd.memo_lookups", memo.base as f64);
        m.set("bdd.memo_clears", clears as f64);
        m.set("value.annotation_bytes", annotation_bytes as f64);
    }
    let q = deployment.query_traffic_stats();
    let cache = Ratio::of_hits(q.cache_hits, q.cache_misses);
    m.set("query.messages", q.messages as f64);
    m.set("query.bytes", q.bytes as f64);
    m.set("query.cache_hit_ratio", cache.value());
    m.set("query.cache_lookups", cache.base as f64);
    m.set("query.invalidations", q.invalidations as f64);
    let sim_ms: Vec<f64> = deployment
        .outcomes()
        .iter()
        .filter_map(|o| o.latency())
        .map(|s| s * 1e3)
        .collect();
    m.set("query.sim_latency_ms_p50", crate::stats::median(&sim_ms));
    let errors = engine.eval_errors();
    out.check(errors == 0, || {
        format!("runtime.eval_errors is {errors}, not 0")
    });
}

/// A deployment builder for `program` on `topology` in `mode`.
pub fn builder(
    program: Program,
    topology: exspan_netsim::Topology,
    mode: exspan_core::ProvenanceMode,
    shards: usize,
) -> exspan_core::DeploymentBuilder {
    exspan_core::Exspan::builder()
        .program(program)
        .topology(topology)
        .mode(mode)
        .shards(shards)
}
