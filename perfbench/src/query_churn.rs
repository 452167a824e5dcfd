//! `query-churn`: the §7.3 query workload answered while links churn, so
//! reads run beside writes and cached results get invalidated.

use crate::common::{self, Counts, Ctx, Outcome};
use crate::stats::{median, percentile};
use exspan_core::{Annotation, Deployment, ProvenanceMode, QueryHandle, Repr, Traversal};
use exspan_ndlog::programs;
use exspan_netsim::{ChurnModel, Topology};
use exspan_types::{NodeId, Tuple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
/// Queries each node issues per simulated second (§7.3).
const QUERIES_PER_NODE_PER_S: f64 = 5.0;
/// Link changes per churn batch, one batch every 0.5 simulated seconds.
const CHANGES_PER_BATCH: usize = 3;
const CHURN_INTERVAL: f64 = 0.5;
/// Simulated time advanced per `run_until` slice.
const SLICE_S: f64 = 0.5;
/// Simulated seconds of queries per `--seconds`, sized so that the query
/// phase takes about `--seconds` wall seconds on a 2-core x86-64 host.
const QUERY_SIM_PER_WALL_S: f64 = 1.4;

/// The four query kinds issued in rotation.
fn kinds() -> [(Repr, Traversal, bool); 4] {
    [
        (Repr::Polynomial, Traversal::Bfs, true),
        (Repr::DerivationCount, Traversal::DfsThreshold(3), false),
        (Repr::Bdd, Traversal::Bfs, false),
        (Repr::Polynomial, Traversal::Bfs, false),
    ]
}

pub struct State {
    deployment: Deployment,
    targets: Vec<Arc<Tuple>>,
    build_ms: f64,
    fixpoint_s: f64,
    fixpoint_events: u64,
}

impl State {
    pub fn counts(&self) -> Counts {
        common::setup_counts(&self.deployment, self.fixpoint_events)
    }
}

pub fn setup(ctx: &mut Ctx) -> Result<State, String> {
    let t0 = Instant::now();
    let builder = common::builder(
        programs::mincost(),
        Topology::transit_stub(1, ctx.seed),
        ProvenanceMode::Reference,
        SHARDS,
    );
    let mut deployment = common::build(&mut ctx.tracer, builder)?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let stats = ctx.tracer.span("runtime.run_to_fixpoint", 0, || {
        deployment.run_to_fixpoint()
    });
    let fixpoint_s = t1.elapsed().as_secs_f64();
    let targets = common::hot_targets(&deployment);
    if targets.is_empty() {
        return Err("the fixpoint produced no bestPathCost tuples to query".into());
    }
    Ok(State {
        deployment,
        targets,
        build_ms,
        fixpoint_s,
        fixpoint_events: stats.steps,
    })
}

/// Whether each target tuple currently exists at its node.
fn presence(deployment: &Deployment, targets: &[Arc<Tuple>]) -> Vec<bool> {
    let mut by_node: HashMap<NodeId, Vec<Arc<Tuple>>> = HashMap::new();
    targets
        .iter()
        .map(|t| {
            by_node
                .entry(t.location)
                .or_insert_with(|| deployment.tuples_shared(t.location, "bestPathCost"))
                .contains(t)
        })
        .collect()
}

/// Whether a completed query's annotation says something: at least one
/// derivation, node, domain or satisfying assignment.
fn non_empty(annotation: Option<&Annotation>) -> bool {
    match annotation {
        None => false,
        Some(Annotation::Expr(e)) => e.num_derivations() > 0,
        Some(Annotation::Nodes(n)) => !n.is_empty(),
        Some(Annotation::Domains(d)) => !d.is_empty(),
        Some(Annotation::Count(c)) => *c > 0,
        Some(Annotation::Bool(b)) => *b,
        Some(Annotation::Bdd(b)) => *b != exspan_bdd::Bdd::FALSE,
    }
}

pub fn measure(state: State, ctx: &mut Ctx) -> Outcome {
    let State {
        mut deployment,
        targets,
        build_ms,
        fixpoint_s,
        fixpoint_events,
    } = state;
    let mut out = Outcome::default();
    out.metrics.set("build.ms", build_ms);
    out.metrics.set("fixpoint.s", fixpoint_s);
    out.metrics.set("fixpoint.events", fixpoint_events as f64);
    out.counts = common::setup_counts(&deployment, fixpoint_events);

    let duration = ctx.seconds as f64 * QUERY_SIM_PER_WALL_S;
    let churn = ChurnModel {
        interval: CHURN_INTERVAL,
        changes_per_batch: CHANGES_PER_BATCH,
        seed: ctx.seed ^ 0xC0FFEE,
    };
    let schedule = churn.schedule(deployment.topology(), duration);

    // Arrivals: every node queries at a fixed rate from a random phase.
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0xABCD);
    let nodes = deployment.topology().num_nodes() as NodeId;
    let interval = 1.0 / QUERIES_PER_NODE_PER_S;
    let mut arrivals: Vec<(f64, NodeId, usize)> = Vec::new();
    for issuer in 0..nodes {
        let mut t = rng.gen_range(0.0..interval);
        while t < duration {
            arrivals.push((t, issuer, rng.gen_range(0..targets.len())));
            t += interval;
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let kinds = kinds();
    let start = deployment.now();
    let phase = ctx.tracer.open("bench.queries", 0);
    let t0 = Instant::now();
    let mut handles: Vec<(QueryHandle, usize)> = Vec::with_capacity(arrivals.len());
    // Which targets exist at the start and after every slice: the oracle
    // for empty answers.
    let mut present = vec![presence(&deployment, &targets)];
    let mut slice_ms = Vec::new();
    let mut events = 0u64;
    let (mut next_arrival, mut next_change) = (0, 0);
    let slices = (duration / SLICE_S).ceil() as usize;
    for slice in 0..slices {
        let end = (slice + 1) as f64 * SLICE_S;
        while next_change < schedule.len() && schedule[next_change].time < end {
            let event = &schedule[next_change];
            ctx.tracer.span("runtime.schedule_churn_event", 0, || {
                deployment.schedule_churn_event(event, start + event.time);
            });
            next_change += 1;
        }
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 < end {
            let (t, issuer, target) = arrivals[next_arrival];
            let (repr, traversal, cached) = kinds[next_arrival % kinds.len()].clone();
            let request = next_arrival as u64 + 1;
            let handle = ctx.tracer.span("query.submit", request, || {
                deployment
                    .query(&targets[target])
                    .issuer(issuer)
                    .repr(repr)
                    .traversal(traversal)
                    .cached(cached)
                    .at(start + t)
                    .submit()
            });
            handles.push((handle, target));
            next_arrival += 1;
        }
        let s0 = Instant::now();
        let stats = ctx
            .tracer
            .span("query.slice", 0, || deployment.run_until(start + end));
        slice_ms.push(s0.elapsed().as_secs_f64() * 1e3);
        events += stats.steps;
        present.push(
            ctx.tracer
                .span("bench.oracle", 0, || presence(&deployment, &targets)),
        );
    }
    let drain = ctx.tracer.span("runtime.run_to_fixpoint", 0, || {
        deployment.run_to_fixpoint()
    });
    events += drain.steps;
    let phase_s = t0.elapsed().as_secs_f64();
    ctx.tracer.close(phase);
    present.push(presence(&deployment, &targets));

    let mut completed = 0u64;
    let mut empty = 0u64;
    let mut wrongly_empty = [0u64; 4];
    let slice_of = |t: f64| ((t / SLICE_S).floor().max(0.0) as usize).min(slices);
    for (i, &(handle, target)) in handles.iter().enumerate() {
        let kind = i % kinds.len();
        match deployment.outcome(handle) {
            Some(o) if o.is_complete() => {
                completed += 1;
                if !non_empty(o.annotation.as_ref()) {
                    empty += 1;
                    // Provenance of a tuple churn deleted is empty; an empty
                    // answer is wrong only if the target stayed present from
                    // before the query was issued until it completed.
                    let first = slice_of(o.issued_at - start);
                    let last = slice_of(o.completed_at.unwrap_or(o.issued_at) - start) + 1;
                    let ever_absent = present[first..=last.min(present.len() - 1)]
                        .iter()
                        .any(|p| !p[target]);
                    if !ever_absent {
                        wrongly_empty[kind] += 1;
                    }
                }
            }
            _ => {}
        }
    }
    let issued = handles.len() as u64;
    out.attempted = issued;
    let stale: u64 = wrongly_empty.iter().sum();
    out.failed = issued - completed + stale;
    out.check(issued > 0, || "no queries were issued".into());
    out.check(completed == issued, || {
        format!("{} of {issued} queries never completed", issued - completed)
    });
    for (k, &n) in wrongly_empty.iter().enumerate() {
        let (repr, traversal, cached) = &kinds[k];
        out.check(n == 0, || {
            format!(
                "{n} answers of the {repr:?}/{traversal:?} (cached: {cached}) queries are \
                 empty although their target tuple existed from issue to completion"
            )
        });
    }

    common::record_deployment(&deployment, &mut out);
    let q = deployment.query_traffic_stats();
    let m = &mut out.metrics;
    let qps = completed as f64 / phase_s;
    m.set("ops_per_s", qps);
    m.set("queries_per_s", qps);
    m.set("op_ms_p50", median(&slice_ms));
    m.set("query.slice_ms_p50", median(&slice_ms));
    m.set("query.slice_ms_max", percentile(&slice_ms, 100.0));
    m.set(
        "query_kb_per_query",
        q.bytes as f64 / 1024.0 / completed.max(1) as f64,
    );
    m.set("runtime.churn_events", events as f64);
    m.set("runtime.events_per_s", events as f64 / phase_s);
    m.set("query.empty_answers", empty as f64);
    m.set("query.stale_answers", stale as f64);
    m.set("failed_ratio", out.failed as f64 / issued.max(1) as f64);

    let net = deployment.engine().stats();
    out.counts.extend([
        ("queries.issued", issued),
        ("queries.completed", completed),
        ("queries.empty", empty),
        ("churn.changes", schedule.len() as u64),
        ("churn.events", events),
        ("query.messages", q.messages),
        ("query.bytes", q.bytes),
        ("net.bytes", net.total_bytes()),
        ("net.messages", net.total_messages()),
    ]);
    out
}
