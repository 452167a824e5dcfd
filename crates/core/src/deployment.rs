//! The first-class ExSPAN deployment API.
//!
//! ExSPAN's pitch (paper §1) is that provenance *maintenance* and on-demand
//! distributed *querying* are one system sharing one network.  This module is
//! the public surface that matches that claim, decomposed by user-visible
//! capability rather than by internal layer:
//!
//! * **Deploy** — [`Exspan::builder`] validates a program / topology /
//!   provenance-mode combination up front (returning a [`BuildError`] instead
//!   of panicking later) and produces a [`Deployment`].
//! * **Mutate** — base tuples and topology churn are injected through typed
//!   methods ([`Deployment::insert_base`], [`Deployment::schedule_churn_event`],
//!   …); cached query results that depend on a changed base tuple are
//!   invalidated transitively and automatically (§6.1).
//! * **Query** — [`Deployment::query`] starts a builder-style query
//!   (`.issuer(n).repr(Repr::Polynomial).traversal(Traversal::Bfs)
//!   .cached(true).submit()`) returning a lightweight [`QueryHandle`].
//!   Queries with equal configuration share a typed *session* (one result
//!   cache, one representation instance) inspectable through
//!   [`Deployment::session`].
//! * **Measure / advance** — [`Deployment::run_until`] and
//!   [`Deployment::run_to_fixpoint`] advance protocol maintenance, churn
//!   deltas *and* in-flight queries on one simulated clock (the engine's
//!   [`exspan_runtime::ExternalSink`] path), so query traffic overlaps
//!   ongoing maintenance exactly as Figures 9–12 of the paper intend.
//!
//! ```
//! use exspan_core::{Exspan, ProvenanceMode, Repr, Traversal};
//! use exspan_ndlog::programs;
//! use exspan_netsim::Topology;
//! use exspan_types::{Tuple, Value};
//!
//! let mut deployment = Exspan::builder()
//!     .program(programs::mincost())
//!     .topology(Topology::paper_example())
//!     .mode(ProvenanceMode::Reference)
//!     .shards(1)
//!     .build()
//!     .expect("valid deployment");
//! deployment.run_to_fixpoint();
//!
//! let target = Tuple::new("bestPathCost", 0, vec![Value::Node(2), Value::Int(5)]);
//! let outcome = deployment
//!     .query(&target)
//!     .issuer(3)
//!     .repr(Repr::Polynomial)
//!     .traversal(Traversal::Bfs)
//!     .execute();
//! assert_eq!(outcome.annotation.unwrap().as_expr().unwrap().num_derivations(), 2);
//! ```

use crate::mode::ProvenanceMode;
use crate::query::{
    CacheMaintenance, Ctx, QueryError, QueryOutcome, QueryTrafficStats, SessionCore, TraversalOrder,
};
use crate::repr::{Annotation, Repr};
use crate::rewrite::{provenance_rewrite, RewriteOptions};
use crate::value_policy::ValueBddPolicy;
use exspan_ndlog::ast::Program;
use exspan_ndlog::diag::{Diagnostic, Diagnostics, Severity};
use exspan_netsim::{ChurnEvent, LinkProps, Topology};
use exspan_runtime::{
    Engine, EngineConfig, Executor, ExternalSink, FixpointStats, ShardConfig, SharedPolicy,
    SimClock,
};
use exspan_store::{DiskBackend, Durability, StorageBackend, StorageStats, StoreConfig};
use exspan_types::{Digest, NodeId, Tuple, Value, Vid};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Entry point for building a [`Deployment`].
///
/// `Exspan::builder()` is the canonical spelling; [`Deployment::builder`] is
/// an alias.
#[derive(Debug, Clone, Copy)]
pub struct Exspan;

impl Exspan {
    /// Starts a [`DeploymentBuilder`] with default configuration
    /// (reference-based provenance, one shard, links auto-seeded).
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }
}

/// Why a [`DeploymentBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// No NDlog program was supplied.
    MissingProgram,
    /// No topology was supplied.
    MissingTopology,
    /// The topology has no nodes.
    EmptyTopology,
    /// The program failed static validation; the payload lists every problem.
    InvalidProgram(Vec<String>),
    /// `shards(0)` was requested.
    ZeroShards,
    /// [`ProvenanceMode::Centralized`] names a server outside the topology.
    CentralizedServerOutOfRange {
        /// The requested server node.
        server: NodeId,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// A multi-shard deployment needs strictly positive link latencies (the
    /// parallel runtime's lookahead would otherwise be zero).
    NonPositiveLinkLatency,
    /// Opening or recovering the persistent store failed (I/O error,
    /// corruption past the committed prefix, or a store whose topology does
    /// not fit the configured one).
    Storage(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingProgram => write!(f, "no NDlog program supplied"),
            BuildError::MissingTopology => write!(f, "no topology supplied"),
            BuildError::EmptyTopology => write!(f, "the topology has no nodes"),
            BuildError::InvalidProgram(errors) => {
                write!(f, "invalid NDlog program: {}", errors.join("; "))
            }
            BuildError::ZeroShards => write!(f, "a deployment needs at least one shard"),
            BuildError::CentralizedServerOutOfRange { server, nodes } => write!(
                f,
                "centralized provenance server n{server} is outside the {nodes}-node topology"
            ),
            BuildError::NonPositiveLinkLatency => write!(
                f,
                "multi-shard deployments need strictly positive link latencies"
            ),
            BuildError::Storage(msg) => write!(f, "persistent store: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Non-fatal findings (warnings and notes) produced by the static analysis
/// a successful [`DeploymentBuilder::build`] ran over the program.  Errors
/// never appear here — they fail the build as
/// [`BuildError::InvalidProgram`].
#[derive(Debug, Clone, Default)]
pub struct BuildWarnings {
    diagnostics: Diagnostics,
}

impl BuildWarnings {
    /// Whether the analysis produced no warnings or notes at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of retained diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Iterates over the diagnostics, warnings before notes (the stable
    /// order of [`Diagnostics::sort`]).
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }

    /// Warning-severity diagnostics only (the ones `ndlog-lint
    /// --deny-warnings` would reject).
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.of_severity(Severity::Warning)
    }

    /// Renders every diagnostic, one block per finding.
    pub fn render(&self) -> String {
        self.diagnostics.render(None)
    }
}

/// Builder for a [`Deployment`]; obtained from [`Exspan::builder`].
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    program: Option<Program>,
    topology: Option<Topology>,
    mode: ProvenanceMode,
    shards: usize,
    max_steps: u64,
    seed_links: bool,
    data_dir: Option<PathBuf>,
    durability: Durability,
    snapshot_every_bytes: Option<u64>,
    memory_budget_rows: Option<usize>,
    track_compressed: bool,
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        let store_defaults = StoreConfig::default();
        DeploymentBuilder {
            program: None,
            topology: None,
            mode: ProvenanceMode::Reference,
            shards: 1,
            max_steps: 200_000_000,
            seed_links: true,
            data_dir: None,
            durability: store_defaults.durability,
            snapshot_every_bytes: store_defaults.snapshot_wal_bytes,
            memory_budget_rows: None,
            track_compressed: false,
        }
    }
}

impl DeploymentBuilder {
    /// The NDlog protocol to execute (required).
    pub fn program(mut self, program: Program) -> Self {
        self.program = Some(program);
        self
    }

    /// The network topology to deploy on (required).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Provenance mode (default: [`ProvenanceMode::Reference`]).
    pub fn mode(mut self, mode: ProvenanceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Number of worker shards executing the protocol (default 1).  Results
    /// are bit-identical for every shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Safety cap on processed events per `run_*` call.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Whether `build` seeds both directions of every topology link as `link`
    /// base tuples (default `true` — the paper gives every node a priori
    /// knowledge of its local links).
    pub fn seed_links(mut self, seed: bool) -> Self {
        self.seed_links = seed;
        self
    }

    /// Enables log-structured persistence in `path`.  A fresh directory
    /// starts an empty durable store; an existing one is **recovered**: the
    /// latest snapshot is loaded, the committed WAL tail replayed, and the
    /// deployment resumes from the last committed barrier (link seeding is
    /// skipped — the recovered state already contains the links).  Check
    /// [`Deployment::recovered_from_store`] to distinguish the two.
    pub fn data_dir(mut self, path: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(path.into());
        self
    }

    /// WAL fsync cadence (default [`Durability::Barrier`]; only meaningful
    /// with [`DeploymentBuilder::data_dir`]).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// How many WAL bytes may accumulate before a snapshot is taken and the
    /// log truncated (only meaningful with [`DeploymentBuilder::data_dir`]).
    ///
    /// Unset, the threshold follows the state: a snapshot is due once the
    /// log written since the last one reaches `max(256 KiB, size of the
    /// last snapshot)`, so snapshots cost about as many bytes as the log
    /// and recovery replays at most one snapshot's worth of log plus one
    /// barrier batch.  `1` snapshots at every barrier; `u64::MAX` keeps
    /// only the log (until [`Deployment::checkpoint`]).
    pub fn snapshot_every_bytes(mut self, bytes: u64) -> Self {
        self.snapshot_every_bytes = Some(bytes);
        self
    }

    /// Additionally account every transmitted message under the dictionary
    /// wire codec (default `false`).  The flat byte model behind the
    /// existing figures is untouched; compressed totals surface through
    /// [`Deployment::avg_comm_mb_compressed`].
    pub fn track_compressed(mut self, on: bool) -> Self {
        self.track_compressed = on;
        self
    }

    /// In-memory row budget: when the stored rows exceed it at a barrier
    /// boundary, the largest tables are spilled to disk in snapshot form
    /// and transparently faulted back on access (requires
    /// [`DeploymentBuilder::data_dir`]).
    pub fn memory_budget_rows(mut self, rows: usize) -> Self {
        self.memory_budget_rows = Some(rows);
        self
    }

    /// Validates the configuration and builds the [`Deployment`].
    pub fn build(self) -> Result<Deployment, BuildError> {
        let program = self.program.ok_or(BuildError::MissingProgram)?;
        let topology = self.topology.ok_or(BuildError::MissingTopology)?;
        if topology.num_nodes() == 0 {
            return Err(BuildError::EmptyTopology);
        }
        if self.shards == 0 {
            return Err(BuildError::ZeroShards);
        }
        if let ProvenanceMode::Centralized { server } = self.mode {
            if server as usize >= topology.num_nodes() {
                return Err(BuildError::CentralizedServerOutOfRange {
                    server,
                    nodes: topology.num_nodes(),
                });
            }
        }
        if self.shards > 1 {
            if let Some(latency) = topology.min_link_latency() {
                if latency <= 0.0 {
                    return Err(BuildError::NonPositiveLinkLatency);
                }
            }
        }
        // Full static analysis (validation, type inference, safety,
        // liveness, distribution).  Errors refuse the deployment; warnings
        // and notes are retained on the deployment for inspection via
        // [`Deployment::build_warnings`].
        let analysis = exspan_ndlog::analyze(&program);
        if analysis.has_errors() {
            return Err(BuildError::InvalidProgram(
                analysis
                    .errors()
                    .map(std::string::ToString::to_string)
                    .collect(),
            ));
        }
        let warnings = BuildWarnings {
            diagnostics: analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity < Severity::Error)
                .cloned()
                .collect(),
        };

        let mut engine_config = EngineConfig {
            aggregate_provenance: false,
            max_steps: self.max_steps,
            shards: ShardConfig::with_shards(self.shards),
            track_compressed: self.track_compressed,
            ..EngineConfig::default()
        };
        let executed = match self.mode {
            ProvenanceMode::None | ProvenanceMode::ValueBdd => program.clone(),
            ProvenanceMode::Reference => {
                engine_config.aggregate_provenance = true;
                provenance_rewrite(&program, RewriteOptions::default())
            }
            ProvenanceMode::Centralized { server } => {
                engine_config.aggregate_provenance = true;
                provenance_rewrite(
                    &program,
                    RewriteOptions {
                        centralize_at: Some(server),
                    },
                )
            }
        };
        // The provenance rewrite must preserve the analysis verdict: a
        // program accepted above must stay error-free after rewriting.  This
        // is a rewrite invariant, but it is cheap to check and a violation
        // would otherwise surface as silent derivation loss at runtime.
        let rewritten = exspan_ndlog::analyze(&executed);
        if rewritten.has_errors() {
            return Err(BuildError::InvalidProgram(
                rewritten
                    .errors()
                    .map(|e| format!("provenance rewrite: {e}"))
                    .collect(),
            ));
        }

        let mut engine = Engine::new(executed, topology, engine_config);
        let mut value_policy = None;
        if self.mode == ProvenanceMode::ValueBdd {
            let shared = Arc::new(Mutex::new(ValueBddPolicy::new()));
            value_policy = Some(Arc::clone(&shared));
            engine.set_annotation_policy(shared as SharedPolicy);
        }

        // Open the persistent store (if configured) and recover whatever
        // committed state it holds *before* journaling is attached, so the
        // replayed operations are not re-journaled.
        let mut recovered = false;
        if let Some(dir) = &self.data_dir {
            let store_config = StoreConfig {
                durability: self.durability,
                snapshot_wal_bytes: self.snapshot_every_bytes,
                spill_budget_rows: self.memory_budget_rows,
            };
            let storage = |e: exspan_store::StoreError| BuildError::Storage(e.to_string());
            let mut recovery = DiskBackend::open(dir, store_config).map_err(storage)?;
            // Restore the snapshot and drop it before streaming the log, so
            // the snapshot, the log and the engine's tables are never all in
            // memory at once.
            if let Some(snap) = recovery.take_snapshot() {
                let nodes = engine.topology().num_nodes() as u32;
                if snap.node_count != nodes {
                    return Err(BuildError::Storage(format!(
                        "store at {} was written for a {}-node topology, \
                         but the configured topology has {nodes} nodes",
                        dir.display(),
                        snap.node_count
                    )));
                }
                engine.restore_links(&snap.links);
                for dump in snap.tables {
                    for (tuple, count) in dump.rows {
                        engine.restore_table_row(dump.node, tuple, count);
                    }
                }
                for entry in &snap.agg {
                    engine.restore_agg(entry);
                }
            }
            while let Some(batch) = recovery.next_batch().map_err(storage)? {
                for op in &batch.ops {
                    engine.apply_wal_op(op);
                }
            }
            let (backend, watermark) = recovery.finish().map_err(storage)?;
            let mut start_seq = 0;
            if let Some((seq, time_bits)) = watermark {
                start_seq = seq;
                engine.restore_clock(f64::from_bits(time_bits));
                recovered = true;
            }
            let spill = self.memory_budget_rows.map(|rows| {
                (
                    backend.spill_dir().expect("disk backend").to_path_buf(),
                    rows,
                )
            });
            engine.attach_storage(Box::new(backend), start_seq, spill);
        }

        let mut deployment = Deployment {
            engine,
            mode: self.mode,
            value_policy,
            program_name: program.name.clone(),
            warnings,
            fabric: QueryFabric::new(),
            pending_invalidations: BTreeMap::new(),
            recovered,
        };
        // A recovered store already contains the link tuples (and everything
        // derived from them); re-seeding would double their derivations.
        if self.seed_links && !recovered {
            deployment.seed_links();
        }
        Ok(deployment)
    }
}

/// All query-session state of one deployment: the sessions themselves plus
/// the deployment-global outcome table, the digest→session routing map used
/// to dispatch incoming query-protocol messages, and the id counter that
/// keeps message ids unique across concurrent sessions.
struct QueryFabric {
    sessions: Vec<SessionCore>,
    specs: Vec<(Repr, TraversalOrder, bool, CacheMaintenance)>,
    outcomes: Vec<QueryOutcome>,
    /// `session_of[outcome index]` = owning session.
    session_of: Vec<usize>,
    route: HashMap<Digest, usize>,
    next_id: u64,
    /// Number of submitted queries whose outcome has not been delivered (and
    /// not been written off as orphaned by [`QueryFabric::reap_orphans`]).
    incomplete: usize,
}

impl QueryFabric {
    fn new() -> Self {
        QueryFabric {
            sessions: Vec::new(),
            specs: Vec::new(),
            outcomes: Vec::new(),
            session_of: Vec::new(),
            route: HashMap::new(),
            next_id: 0,
            incomplete: 0,
        }
    }

    /// Finds the session matching the configuration, creating it on demand.
    fn session_for(
        &mut self,
        repr: &Repr,
        traversal: TraversalOrder,
        cached: bool,
        maintenance: CacheMaintenance,
    ) -> usize {
        if let Some(i) = self.specs.iter().position(|(r, t, c, m)| {
            r == repr && *t == traversal && *c == cached && *m == maintenance
        }) {
            return i;
        }
        let id = self.sessions.len();
        self.sessions.push(SessionCore::new(
            id,
            repr.instantiate(),
            traversal,
            cached,
            maintenance,
        ));
        self.specs
            .push((repr.clone(), traversal, cached, maintenance));
        id
    }

    /// Whether any query activity is pending (incomplete outcomes, scheduled
    /// issuances, or protocol messages in flight).  When idle, the deployment
    /// can use the engine's bulk (parallelizable) run path.
    fn active(&self) -> bool {
        self.incomplete > 0
            || self
                .sessions
                .iter()
                .any(super::query::SessionCore::has_pending)
    }

    /// Whether any session caches query results (and could therefore go
    /// stale when a scheduled base-tuple delta is applied).
    fn any_caching(&self) -> bool {
        self.sessions.iter().any(super::query::SessionCore::caching)
    }

    /// Writes off query state that can no longer make progress.  Called when
    /// the engine's event queue has fully drained: at that point any still
    /// unresolved sub-query or in-flight result belongs to a message the
    /// simulator dropped (e.g. churn partitioned the issuer from the target),
    /// and keeping it would pin [`QueryFabric::active`] — and with it the
    /// slower single-stepped run path — forever.  Orphaned outcomes keep
    /// `completed_at: None`, honestly reporting that no result arrived.
    fn reap_orphans(&mut self) {
        self.incomplete = 0;
        self.route.clear();
        for session in &mut self.sessions {
            session.clear_pending();
        }
    }

    /// Routes one surfaced external tuple to the session that owns it.
    fn dispatch(&mut self, engine: &mut Engine, node: NodeId, tuple: &Tuple, time: f64) {
        let sid = match tuple.relation.as_str() {
            "eQueryIssue" => tuple
                .values
                .first()
                .and_then(|v| v.as_int().ok())
                .and_then(|i| self.session_of.get(i as usize).copied()),
            "eProvQuery" | "eRuleQuery" | "eProvResults" | "eRuleResults" => tuple
                .values
                .first()
                .and_then(|v| v.as_digest().ok())
                .and_then(|d| self.route.get(&d).copied()),
            _ => None,
        };
        let Some(sid) = sid else { return };
        let QueryFabric {
            sessions,
            outcomes,
            route,
            next_id,
            incomplete,
            ..
        } = self;
        let mut ctx = Ctx {
            engine,
            outcomes,
            route,
            next_id,
            incomplete,
        };
        sessions[sid].handle_external(&mut ctx, node, tuple, time);
    }

    fn invalidate(&mut self, vid: Vid) {
        for session in &mut self.sessions {
            if session.caching() {
                session.invalidate(vid);
            }
        }
    }

    /// Routes a base-tuple delta to every caching session, which reacts per
    /// its [`CacheMaintenance`] policy (invalidate, or maintain in place).
    fn on_base_delta(&mut self, vid: Vid, insert: bool) {
        for session in &mut self.sessions {
            if session.caching() {
                session.on_base_delta(vid, insert);
            }
        }
    }
}

/// Adapter handing the engine's surfaced externals to the query fabric.
struct FabricSink<'a> {
    fabric: &'a mut QueryFabric,
}

impl ExternalSink for FabricSink<'_> {
    fn on_external(
        &mut self,
        engine: &mut Engine,
        node: NodeId,
        tuple: Arc<Tuple>,
        time: f64,
        _insert: bool,
    ) {
        self.fabric.dispatch(engine, node, &tuple, time);
    }
}

/// A running ExSPAN deployment: a protocol, a topology, a provenance mode,
/// and the query sessions issued against it — all advancing on one simulated
/// clock.  Built with [`Exspan::builder`].
pub struct Deployment {
    engine: Engine,
    mode: ProvenanceMode,
    value_policy: Option<Arc<Mutex<ValueBddPolicy>>>,
    program_name: String,
    warnings: BuildWarnings,
    fabric: QueryFabric,
    /// Cache invalidations for base-tuple deltas scheduled in the simulated
    /// future, keyed by the delta's application time (as `f64::to_bits`, so
    /// the map orders by time).  [`Deployment::run_until`] applies each batch
    /// when the clock passes its time — invalidating at *scheduling* time
    /// would let queries completing before the delta cache results that then
    /// silently go stale.
    pending_invalidations: BTreeMap<u64, Vec<(Vid, bool)>>,
    /// True when [`DeploymentBuilder::data_dir`] pointed at an existing store
    /// and the deployment booted from its recovered state instead of seeding.
    recovered: bool,
}

/// Lightweight, copyable reference to one submitted query.  Poll the result
/// with [`Deployment::outcome`]; inspect the owning session with
/// [`Deployment::session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryHandle {
    index: usize,
    session: usize,
}

impl QueryHandle {
    /// Global issue-order index of this query within its deployment.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// Read-only view of one typed query session (a representation + traversal +
/// caching configuration and its shared result cache).
pub struct QuerySession<'a> {
    core: &'a SessionCore,
    spec: &'a (Repr, TraversalOrder, bool, CacheMaintenance),
}

impl QuerySession<'_> {
    /// The representation queries of this session use.
    pub fn repr(&self) -> &Repr {
        &self.spec.0
    }

    /// The traversal order queries of this session use.
    pub fn traversal(&self) -> TraversalOrder {
        self.spec.1
    }

    /// Whether result caching (§6.1) is enabled.
    pub fn cached(&self) -> bool {
        self.spec.2
    }

    /// How the session's cache reacts to base-tuple deltas.
    pub fn maintenance(&self) -> CacheMaintenance {
        self.spec.3
    }

    /// Traffic statistics of this session's query protocol messages.
    pub fn stats(&self) -> &QueryTrafficStats {
        self.core.stats()
    }

    /// Bandwidth time-series of this session's query traffic (bytes/second).
    pub fn bandwidth_samples(&self) -> Vec<(f64, f64)> {
        self.core.bandwidth_samples()
    }

    /// Number of cache entries currently held across all nodes.
    pub fn cache_entries(&self) -> usize {
        self.core.cache_entries()
    }
}

/// Builder for one provenance query; obtained from [`Deployment::query`].
#[must_use = "call .submit() (or .execute()) to issue the query"]
pub struct QueryBuilder<'a> {
    deployment: &'a mut Deployment,
    target: Tuple,
    issuer: NodeId,
    repr: Repr,
    traversal: TraversalOrder,
    cached: bool,
    maintenance: CacheMaintenance,
    at: Option<f64>,
}

impl<'a> QueryBuilder<'a> {
    /// Node issuing the query (default: the target tuple's own location).
    pub fn issuer(mut self, issuer: NodeId) -> Self {
        self.issuer = issuer;
        self
    }

    /// Representation of the result (default: [`Repr::Polynomial`]).
    pub fn repr(mut self, repr: Repr) -> Self {
        self.repr = repr;
        self
    }

    /// Traversal order (default: [`TraversalOrder::Bfs`]).
    pub fn traversal(mut self, traversal: TraversalOrder) -> Self {
        self.traversal = traversal;
        self
    }

    /// Enables result caching (§6.1) for this query's session.
    pub fn cached(mut self, cached: bool) -> Self {
        self.cached = cached;
        self
    }

    /// How the session's cache reacts to base-tuple deltas (default
    /// [`CacheMaintenance::Invalidate`]).  Only meaningful with
    /// [`QueryBuilder::cached`]; sessions with different maintenance
    /// policies are distinct.
    pub fn maintenance(mut self, maintenance: CacheMaintenance) -> Self {
        self.maintenance = maintenance;
        self
    }

    /// Schedules issuance at an absolute simulated time instead of now.
    pub fn at(mut self, time: f64) -> Self {
        self.at = Some(time);
        self
    }

    /// Submits the query and returns its handle.  The query *progresses*
    /// whenever the deployment's clock advances ([`Deployment::run_until`] /
    /// [`Deployment::run_to_fixpoint`]); poll [`Deployment::outcome`] for the
    /// result.
    pub fn submit(self) -> QueryHandle {
        let QueryBuilder {
            deployment,
            target,
            issuer,
            repr,
            traversal,
            cached,
            maintenance,
            at,
        } = self;
        deployment.submit_query(target, issuer, repr, traversal, cached, maintenance, at)
    }

    /// Convenience: submits the query, runs the deployment to fixpoint, and
    /// returns the completed outcome.
    pub fn execute(self) -> QueryOutcome {
        let QueryBuilder {
            deployment,
            target,
            issuer,
            repr,
            traversal,
            cached,
            maintenance,
            at,
        } = self;
        let handle =
            deployment.submit_query(target, issuer, repr, traversal, cached, maintenance, at);
        deployment.run_to_fixpoint();
        deployment
            .outcome(handle)
            .cloned()
            .expect("handle returned by submit_query is valid")
    }
}

impl Deployment {
    /// Alias for [`Exspan::builder`].
    pub fn builder() -> DeploymentBuilder {
        Exspan::builder()
    }

    /// The provenance mode in use.
    pub fn mode(&self) -> ProvenanceMode {
        self.mode
    }

    /// The name of the protocol program being executed.
    pub fn program_name(&self) -> &str {
        &self.program_name
    }

    /// Warnings and notes the build-time static analysis produced for the
    /// program (errors would have failed [`DeploymentBuilder::build`]).
    pub fn build_warnings(&self) -> &BuildWarnings {
        &self.warnings
    }

    /// Read-only access to the underlying engine (tables, traffic counters),
    /// e.g. for the typed `prov`/`ruleExec` accessors of [`crate::storage`].
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        self.engine.topology()
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.engine.now()
    }

    /// Number of shards executing this deployment.
    pub fn num_shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u16 {
        self.engine.shard_of(node)
    }

    /// Visible tuples of `relation` at `node`, as shared handles (no deep
    /// copy).
    pub fn tuples_shared(&self, node: NodeId, relation: &str) -> Vec<Arc<Tuple>> {
        self.engine.tuples_shared(node, relation)
    }

    /// Visible tuples of `relation` across all nodes in canonical order, as
    /// shared handles (no deep copy).
    pub fn tuples_everywhere_shared(&self, relation: &str) -> Vec<Arc<Tuple>> {
        self.engine.tuples_everywhere_shared(relation)
    }

    /// Derivation count of an exact tuple at its own location.
    pub fn derivation_count(&self, tuple: &Tuple) -> usize {
        self.engine.derivation_count(tuple)
    }

    // ------------------------------------------------------------------
    // Persistent storage
    // ------------------------------------------------------------------

    /// True when this deployment booted from an existing persistent store
    /// ([`DeploymentBuilder::data_dir`]) instead of seeding from scratch.
    pub fn recovered_from_store(&self) -> bool {
        self.recovered
    }

    /// Counters of the storage backend (WAL batches/bytes, snapshots, spill
    /// and fault activity).  All-zero for the in-memory default.
    pub fn storage_stats(&self) -> StorageStats {
        self.engine.storage_stats()
    }

    /// Flushes any pending journal entries and forces a snapshot (persistent
    /// deployments only; a no-op for the in-memory default).  Call before a
    /// graceful shutdown to make restart recovery snapshot-only.
    pub fn checkpoint(&mut self) {
        self.engine.checkpoint();
    }

    /// Hex digest of the canonical snapshot encoding of the current logical
    /// state.  Equal digests mean byte-identical persistent state; the digest
    /// is independent of shard count, spill state, and execution history.
    pub fn state_digest(&self) -> String {
        self.engine.state_digest().to_hex()
    }

    // ------------------------------------------------------------------
    // Topology and base-tuple management
    // ------------------------------------------------------------------

    /// Creates the `link(@a,b,cost)` tuple for one direction of a link.
    pub fn link_tuple(a: NodeId, b: NodeId, cost: i64) -> Tuple {
        Tuple::new("link", a, vec![Value::Node(b), Value::Int(cost)])
    }

    /// Base-tuple VIDs affected by a churn event (the VIDs whose cached query
    /// results the deployment invalidates when the event is applied).
    pub fn churn_event_vids(event: &ChurnEvent) -> Vec<Vid> {
        vec![
            Self::link_tuple(event.a, event.b, event.props.cost).vid(),
            Self::link_tuple(event.b, event.a, event.props.cost).vid(),
        ]
    }

    /// Inserts both directions of every topology link as `link` base tuples.
    /// Called by `build` unless [`DeploymentBuilder::seed_links`] disabled it.
    pub fn seed_links(&mut self) {
        let links: Vec<(NodeId, NodeId, i64)> = self
            .engine
            .topology()
            .links()
            .map(|(a, b, p)| (a, b, p.cost))
            .collect();
        for (a, b, cost) in links {
            self.insert_base(a, Self::link_tuple(a, b, cost));
            self.insert_base(b, Self::link_tuple(b, a, cost));
        }
    }

    /// Inserts a base tuple at `node` now.  Cached query results depending
    /// on it are invalidated (or incrementally maintained, per the owning
    /// session's [`CacheMaintenance`] policy).
    pub fn insert_base(&mut self, node: NodeId, tuple: Tuple) {
        self.fabric.on_base_delta(tuple.vid(), true);
        self.engine.insert_base(node, tuple);
    }

    /// Deletes a base tuple at `node` now.  Cached query results depending
    /// on it are invalidated (or incrementally maintained, per the owning
    /// session's [`CacheMaintenance`] policy).
    pub fn delete_base(&mut self, node: NodeId, tuple: Tuple) {
        self.fabric.on_base_delta(tuple.vid(), false);
        self.engine.delete_base(node, tuple);
    }

    /// Schedules a base-tuple delta at an absolute simulated time (churn
    /// schedules, data-plane workloads).  Cached query results depending on
    /// the tuple are invalidated when the delta is *applied*: immediately for
    /// deltas due now, otherwise when the clock passes `time` — so a query
    /// completing before the delta does not leave a stale cache entry behind.
    pub fn schedule_delta(&mut self, time: f64, node: NodeId, tuple: Tuple, insert: bool) {
        if time <= self.engine.now() {
            self.fabric.on_base_delta(tuple.vid(), insert);
        } else {
            self.pending_invalidations
                .entry(time.to_bits())
                .or_default()
                .push((tuple.vid(), insert));
        }
        self.engine.schedule_delta(time, node, tuple, insert);
    }

    /// Adds a link to the topology and inserts its base tuples (both
    /// directions) at the current simulated time.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, props: LinkProps) {
        self.engine.topology_mut().add_link(a, b, props);
        self.engine.journal_link(true, a, b, &props);
        self.insert_base(a, Self::link_tuple(a, b, props.cost));
        self.insert_base(b, Self::link_tuple(b, a, props.cost));
    }

    /// Removes a link from the topology and deletes its base tuples.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        let props = self.engine.topology().link(a, b).copied();
        let cost = props.map_or(1, |p| p.cost);
        if let Some(props) = props {
            self.engine.journal_link(false, a, b, &props);
        }
        self.engine.topology_mut().remove_link(a, b);
        self.delete_base(a, Self::link_tuple(a, b, cost));
        self.delete_base(b, Self::link_tuple(b, a, cost));
    }

    /// Applies one churn event (link addition or deletion) now.
    pub fn apply_churn_event(&mut self, event: &ChurnEvent) {
        let now = self.engine.now();
        self.schedule_churn_event(event, now);
    }

    /// Schedules one churn event's base-tuple deltas at absolute simulated
    /// time `at`, so that maintenance traffic shows up at the schedule's
    /// time in the bandwidth time-series (Figures 9 and 10).  The topology
    /// change itself takes effect immediately — the simulator routes by
    /// current topology — which is at most one churn interval early.  For
    /// immediate application use [`Self::apply_churn_event`].
    pub fn schedule_churn_event(&mut self, event: &ChurnEvent, at: f64) {
        if event.add {
            self.engine
                .topology_mut()
                .add_link(event.a, event.b, event.props);
            self.engine
                .journal_link(true, event.a, event.b, &event.props);
            let cost = event.props.cost;
            self.schedule_delta(at, event.a, Self::link_tuple(event.a, event.b, cost), true);
            self.schedule_delta(at, event.b, Self::link_tuple(event.b, event.a, cost), true);
        } else {
            let props = self
                .engine
                .topology()
                .link(event.a, event.b)
                .copied()
                .unwrap_or(event.props);
            self.engine.journal_link(false, event.a, event.b, &props);
            self.engine.topology_mut().remove_link(event.a, event.b);
            let cost = props.cost;
            self.schedule_delta(at, event.a, Self::link_tuple(event.a, event.b, cost), false);
            self.schedule_delta(at, event.b, Self::link_tuple(event.b, event.a, cost), false);
        }
    }

    /// Invalidates every cached query result that (transitively) depends on
    /// the base tuple `vid`, across all sessions.  The deployment does this
    /// automatically for its own mutation methods; this entry point is for
    /// base-tuple changes injected through other channels.
    pub fn invalidate(&mut self, vid: Vid) {
        self.fabric.invalidate(vid);
    }

    // ------------------------------------------------------------------
    // The unified clock
    // ------------------------------------------------------------------

    /// Runs the deployment to a global fixpoint: protocol maintenance, churn
    /// deltas and in-flight queries all advance on one simulated clock until
    /// the event queue drains.
    pub fn run_to_fixpoint(&mut self) -> FixpointStats {
        self.run_until(f64::INFINITY)
    }

    /// Runs until the next event would occur after `time`, under the
    /// deterministic [`SimClock`] executor — the clock of every figure
    /// experiment and test.  Equivalent to
    /// `run_with(&mut SimClock, time)`.
    ///
    /// While queries are in flight, events are processed one at a time in
    /// global deterministic order and query-protocol messages are dispatched
    /// to their sessions between maintenance deltas; with no query activity,
    /// the engine's bulk (parallelizable) path is used.
    ///
    /// Pending cache invalidations of future-scheduled base-tuple deltas are
    /// applied exactly when the clock passes the delta's time, so results
    /// cached before a scheduled change never survive it.
    pub fn run_until(&mut self, time: f64) -> FixpointStats {
        self.run_with(&mut SimClock, time)
    }

    /// Runs toward simulated time `target` under an explicit [`Executor`].
    ///
    /// The executor only decides how far each pump may advance ([`SimClock`]
    /// pays for the whole target at once and this collapses to the exact
    /// historical `run_until` path; [`WallClock`](exspan_runtime::WallClock)
    /// caps each pump at the simulated time real time has accrued and
    /// sleeps between pumps).  Event processing below the horizon is the
    /// engine's deterministic order either way, so *what* is computed is
    /// executor-independent — only *when* it is computed changes.
    pub fn run_with(&mut self, executor: &mut dyn Executor, target: f64) -> FixpointStats {
        let mut total = FixpointStats {
            fixpoint_time: self.engine.last_activity(),
            steps: 0,
            external: 0,
        };
        loop {
            let horizon = executor.horizon(target);
            let stats = self.run_clock_segment(horizon);
            total.steps += stats.steps;
            total.external += stats.external;
            total.fixpoint_time = stats.fixpoint_time;
            if horizon >= target || !executor.is_realtime() {
                break;
            }
            executor.wait(target);
        }
        total
    }

    /// One executor pump: runs the unified clock (maintenance, churn,
    /// queries, pending cache invalidations) up to the simulated `time`.
    fn run_clock_segment(&mut self, time: f64) -> FixpointStats {
        let mut total = FixpointStats {
            fixpoint_time: self.engine.last_activity(),
            steps: 0,
            external: 0,
        };
        let merge = |total: &mut FixpointStats, stats: FixpointStats| {
            total.steps += stats.steps;
            total.external += stats.external;
            total.fixpoint_time = stats.fixpoint_time;
        };
        loop {
            let next_due = self
                .pending_invalidations
                .keys()
                .next()
                .copied()
                .filter(|bits| f64::from_bits(*bits) <= time);
            let Some(bits) = next_due else {
                merge(&mut total, self.advance(time));
                break;
            };
            // Advance to the delta's application time before invalidating;
            // with no caching session nothing can go stale, so the entry is
            // simply retired without splitting the run.
            if self.fabric.any_caching() {
                merge(&mut total, self.advance(f64::from_bits(bits)));
            }
            let vids = self
                .pending_invalidations
                .remove(&bits)
                .expect("key observed above");
            for (vid, insert) in vids {
                self.fabric.on_base_delta(vid, insert);
            }
        }
        // A fully drained event queue means any still-unresolved query state
        // belongs to messages the simulator dropped; write it off so future
        // runs regain the bulk (parallel) path.
        if self.fabric.active() && self.engine.peek_time().is_none() {
            self.fabric.reap_orphans();
        }
        total
    }

    /// One segment of [`Deployment::run_until`]: interactive while query
    /// activity is pending, bulk otherwise.
    fn advance(&mut self, time: f64) -> FixpointStats {
        if self.fabric.active() {
            let mut sink = FabricSink {
                fabric: &mut self.fabric,
            };
            self.engine.run_until_interactive(time, &mut sink)
        } else {
            self.engine.run_until(time)
        }
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// Total bytes transmitted so far across all nodes (protocol maintenance
    /// plus query traffic — everything shares the one network).
    pub fn total_bytes(&self) -> u64 {
        self.engine.stats().total_bytes()
    }

    /// Average bytes transmitted per node, in megabytes (the metric of
    /// Figures 6 and 7).
    pub fn avg_comm_mb(&self) -> f64 {
        self.engine.stats().avg_bytes_per_node() / 1e6
    }

    /// Total bytes the transmitted messages would have cost under the
    /// dictionary wire codec.  Zero unless the deployment was built with
    /// [`DeploymentBuilder::track_compressed`].
    pub fn compressed_bytes(&self) -> u64 {
        self.engine.compressed_bytes()
    }

    /// Average *compressed* bytes transmitted per node, in megabytes — the
    /// compressed counterpart of [`Deployment::avg_comm_mb`] charted by
    /// Figure 18.  Zero unless built with
    /// [`DeploymentBuilder::track_compressed`].
    pub fn avg_comm_mb_compressed(&self) -> f64 {
        let nodes = self.engine.topology().num_nodes().max(1) as f64;
        self.engine.compressed_bytes() as f64 / nodes / 1e6
    }

    /// Per-node average bandwidth samples in megabytes per second (the metric
    /// of Figures 8–10 and 16).
    pub fn avg_bandwidth_mbps(&self) -> Vec<(f64, f64)> {
        self.engine
            .stats()
            .avg_bandwidth_samples()
            .into_iter()
            .map(|(t, bps)| (t, bps / 1e6))
            .collect()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Starts a builder-style provenance query for `target`.
    pub fn query(&mut self, target: &Tuple) -> QueryBuilder<'_> {
        let issuer = target.location;
        QueryBuilder {
            deployment: self,
            target: target.clone(),
            issuer,
            repr: Repr::Polynomial,
            traversal: TraversalOrder::Bfs,
            cached: false,
            maintenance: CacheMaintenance::default(),
            at: None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_query(
        &mut self,
        target: Tuple,
        issuer: NodeId,
        repr: Repr,
        traversal: TraversalOrder,
        cached: bool,
        maintenance: CacheMaintenance,
        at: Option<f64>,
    ) -> QueryHandle {
        let sid = self
            .fabric
            .session_for(&repr, traversal, cached, maintenance);
        let QueryFabric {
            sessions,
            outcomes,
            session_of,
            route,
            next_id,
            incomplete,
            ..
        } = &mut self.fabric;
        *incomplete += 1;
        let mut ctx = Ctx {
            engine: &mut self.engine,
            outcomes: &mut *outcomes,
            route: &mut *route,
            next_id: &mut *next_id,
            incomplete: &mut *incomplete,
        };
        let index = match at {
            Some(time) => sessions[sid].issue_at(&mut ctx, time, issuer, &target),
            None => sessions[sid].issue_now(&mut ctx, issuer, &target),
        };
        session_of.push(sid);
        debug_assert_eq!(session_of.len(), outcomes.len());
        QueryHandle {
            index,
            session: sid,
        }
    }

    /// The outcome of a submitted query (poll after advancing the clock).
    pub fn outcome(&self, handle: QueryHandle) -> Option<&QueryOutcome> {
        self.fabric.outcomes.get(handle.index)
    }

    /// The outcome of a submitted query, *only* once it has completed.
    ///
    /// The fallible counterpart of [`Deployment::outcome`] for callers that
    /// need to distinguish "no such query" from "still in flight" —
    /// `exspan-serve` maps the two [`QueryError`] variants onto distinct
    /// protocol error codes.
    pub fn completed_outcome(&self, handle: QueryHandle) -> Result<&QueryOutcome, QueryError> {
        let outcome = self
            .fabric
            .outcomes
            .get(handle.index)
            .ok_or(QueryError::UnknownHandle {
                index: handle.index,
            })?;
        if outcome.completed_at.is_none() {
            return Err(QueryError::NotComplete {
                index: handle.index,
            });
        }
        Ok(outcome)
    }

    /// Outcomes of all queries submitted so far, in issue order.
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.fabric.outcomes
    }

    /// Number of submitted queries still in flight (not completed, not
    /// written off as orphaned).  Service front-ends use this for admission
    /// control.
    pub fn incomplete_queries(&self) -> usize {
        self.fabric.incomplete
    }

    /// The typed session a query belongs to.
    pub fn session(&self, handle: QueryHandle) -> QuerySession<'_> {
        QuerySession {
            core: &self.fabric.sessions[handle.session],
            spec: &self.fabric.specs[handle.session],
        }
    }

    /// Number of distinct query sessions created so far.
    pub fn session_count(&self) -> usize {
        self.fabric.sessions.len()
    }

    /// Query-traffic statistics summed over every session.
    pub fn query_traffic_stats(&self) -> QueryTrafficStats {
        let mut total = QueryTrafficStats::zero();
        for s in &self.fabric.sessions {
            total.merge_from(s.stats());
        }
        total
    }

    /// Bandwidth time-series of query traffic (bytes per second), merged
    /// across every session by sample bucket.
    pub fn query_bandwidth_samples(&self) -> Vec<(f64, f64)> {
        let mut merged: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.fabric.sessions {
            for (t, v) in s.bandwidth_samples() {
                *merged.entry(t.to_bits()).or_insert(0.0) += v;
            }
        }
        merged
            .into_iter()
            .map(|(bits, v)| (f64::from_bits(bits), v))
            .collect()
    }

    /// Runs `f` against the concrete representation of the query's session,
    /// if it is of type `R` — e.g. to evaluate a [`crate::repr::BddRepr`]
    /// result under a trust assignment without re-querying.
    pub fn with_session_repr<R: 'static, T>(
        &self,
        handle: QueryHandle,
        f: impl FnOnce(&R) -> T,
    ) -> Option<T> {
        self.fabric
            .sessions
            .get(handle.session)
            .and_then(|s| s.repr().as_any().downcast_ref::<R>())
            .map(f)
    }

    /// For a [`Repr::Bdd`] query: evaluates the completed result under a
    /// trust assignment over base tuples (§6.3).  Returns `None` if the
    /// query has not completed or its session is not BDD-backed.
    pub fn derivable_under(
        &self,
        handle: QueryHandle,
        trusted: impl Fn(Vid) -> bool,
    ) -> Option<bool> {
        let annotation = self.outcome(handle)?.annotation.clone()?;
        self.with_session_repr(handle, |repr: &crate::repr::BddRepr| {
            repr.derivable_under(&annotation, trusted)
        })
    }

    // ------------------------------------------------------------------
    // Value-based provenance
    // ------------------------------------------------------------------

    /// Runs `f` against the value-based provenance policy (only in
    /// [`ProvenanceMode::ValueBdd`]).  The policy lock is held exactly for
    /// the duration of the closure — nothing leaks a `MutexGuard`.
    pub fn with_value_provenance<T>(&self, f: impl FnOnce(&ValueBddPolicy) -> T) -> Option<T> {
        self.value_policy
            .as_ref()
            .map(|p| f(&p.lock().expect("value policy poisoned")))
    }

    /// For value-based provenance: returns the locally available annotation
    /// of a tuple without any distributed traversal.
    pub fn local_value_annotation(&self, tuple: &Tuple) -> Option<Annotation> {
        self.with_value_provenance(|p| p.annotation_of(tuple))
            .flatten()
            .map(Annotation::Bdd)
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("program", &self.program_name)
            .field("mode", &self.mode)
            .field("nodes", &self.engine.topology().num_nodes())
            .field("shards", &self.engine.num_shards())
            .field("queries", &self.fabric.outcomes.len())
            .field("sessions", &self.fabric.sessions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_ndlog::programs;

    fn mincost_deployment(mode: ProvenanceMode) -> Deployment {
        let mut d = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::paper_example())
            .mode(mode)
            .build()
            .expect("valid deployment");
        d.run_to_fixpoint();
        d
    }

    #[test]
    fn builder_validates_missing_pieces() {
        assert_eq!(
            Exspan::builder().build().unwrap_err(),
            BuildError::MissingProgram
        );
        assert_eq!(
            Exspan::builder()
                .program(programs::mincost())
                .build()
                .unwrap_err(),
            BuildError::MissingTopology
        );
        assert_eq!(
            Exspan::builder()
                .program(programs::mincost())
                .topology(Topology::empty(0))
                .build()
                .unwrap_err(),
            BuildError::EmptyTopology
        );
        assert_eq!(
            Exspan::builder()
                .program(programs::mincost())
                .topology(Topology::paper_example())
                .shards(0)
                .build()
                .unwrap_err(),
            BuildError::ZeroShards
        );
        let err = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::paper_example())
            .mode(ProvenanceMode::Centralized { server: 9 })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::CentralizedServerOutOfRange {
                server: 9,
                nodes: 4
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn builder_rejects_invalid_programs() {
        // Duplicate rule labels fail static validation.
        let mut program = programs::mincost();
        let dup = program.rules[0].clone();
        program.rules.push(dup);
        match Exspan::builder()
            .program(program)
            .topology(Topology::paper_example())
            .build()
        {
            Err(BuildError::InvalidProgram(errors)) => {
                assert!(errors.iter().any(|e| e.contains("duplicate")));
            }
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
    }

    #[test]
    fn builder_seeds_links_by_default() {
        let d = mincost_deployment(ProvenanceMode::Reference);
        assert!(!d.tuples_shared(0, "link").is_empty());
        assert!(!d.tuples_shared(0, "bestPathCost").is_empty());

        let mut unseeded = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::paper_example())
            .seed_links(false)
            .build()
            .unwrap();
        unseeded.run_to_fixpoint();
        assert!(unseeded.tuples_shared(0, "link").is_empty());
    }

    #[test]
    fn equal_query_configs_share_a_session() {
        let mut d = mincost_deployment(ProvenanceMode::Reference);
        let target = (*d.tuples_shared(0, "bestPathCost").remove(0)).clone();
        let h1 = d.query(&target).repr(Repr::DerivationCount).submit();
        let h2 = d.query(&target).repr(Repr::DerivationCount).submit();
        let h3 = d.query(&target).repr(Repr::Polynomial).submit();
        d.run_to_fixpoint();
        assert_eq!(d.session_count(), 2);
        assert_eq!(h1.session, h2.session);
        assert_ne!(h1.session, h3.session);
        for h in [h1, h2, h3] {
            assert!(d.outcome(h).unwrap().is_complete());
        }
        assert_eq!(
            d.query_traffic_stats().bytes,
            d.session(h1).stats().bytes + d.session(h3).stats().bytes
        );
    }

    #[test]
    fn scheduled_queries_progress_with_run_until() {
        let mut d = mincost_deployment(ProvenanceMode::Reference);
        let target = (*d.tuples_shared(0, "bestPathCost").remove(0)).clone();
        let start = d.now();
        let h = d
            .query(&target)
            .issuer(3)
            .repr(Repr::NodeSet)
            .at(start + 0.5)
            .submit();
        // Before the issue time the query is untouched.
        d.run_until(start + 0.25);
        assert!(!d.outcome(h).unwrap().is_complete());
        // Advancing past it completes the query on the same clock.
        d.run_until(start + 5.0);
        let outcome = d.outcome(h).unwrap();
        assert!(outcome.is_complete());
        assert!(outcome.issued_at >= start + 0.5);
        assert!(!outcome
            .annotation
            .as_ref()
            .unwrap()
            .as_nodes()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scheduled_delta_invalidates_cache_at_application_time() {
        use exspan_netsim::{ChurnEvent, LinkClass, LinkProps};

        let mut d = mincost_deployment(ProvenanceMode::Reference);
        let target = Tuple::new(
            "bestPathCost",
            0,
            vec![exspan_types::Value::Node(2), exspan_types::Value::Int(5)],
        );

        // Schedule deletion of the direct a-c link half a simulated second
        // ahead — *before* anything is cached, so an invalidation performed
        // at scheduling time would be a no-op.
        let event = ChurnEvent {
            time: 0.0,
            add: false,
            a: 0,
            b: 2,
            props: LinkProps::from_class(LinkClass::Custom),
        };
        let at = d.now() + 0.5;
        d.schedule_churn_event(&event, at);

        // A cached query issued now completes (and populates the cache) well
        // before the delta applies: two derivations, direct link and via b.
        let before = d
            .query(&target)
            .issuer(3)
            .repr(Repr::DerivationCount)
            .cached(true)
            .execute();
        assert_eq!(before.annotation.unwrap().as_count(), Some(2));
        assert!(
            before.completed_at.unwrap() < at,
            "query completed pre-churn"
        );

        // The cached result must have been invalidated when the delta was
        // *applied*, so the re-query sees the single surviving derivation
        // instead of the stale cached 2.
        let after = d
            .query(&target)
            .issuer(3)
            .repr(Repr::DerivationCount)
            .cached(true)
            .execute();
        assert_eq!(after.annotation.unwrap().as_count(), Some(1));
    }

    #[test]
    fn dropped_query_messages_leave_an_incomplete_outcome_and_a_working_deployment() {
        // Partition the issuer from the target before a scheduled query
        // issues: the simulator drops the unroutable query message, the
        // outcome honestly stays incomplete, and the deployment keeps
        // serving later queries (orphaned protocol state is reaped once the
        // event queue drains).
        let mut d = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::line(2))
            .build()
            .unwrap();
        d.run_to_fixpoint();
        let target = (*d.tuples_shared(0, "bestPathCost").remove(0)).clone();
        let start = d.now();
        let orphan = d
            .query(&target)
            .issuer(1)
            .repr(Repr::DerivationCount)
            .at(start + 0.5)
            .submit();
        d.remove_link(0, 1);
        d.run_to_fixpoint();
        assert!(
            !d.outcome(orphan).unwrap().is_complete(),
            "a query whose message was dropped must not claim completion"
        );

        // A later local query (issuer == target node) still completes.
        let gone = Tuple::new(
            "bestPathCost",
            1,
            vec![exspan_types::Value::Node(0), exspan_types::Value::Int(1)],
        );
        let local = d
            .query(&gone)
            .issuer(1)
            .repr(Repr::DerivationCount)
            .execute();
        assert!(local.is_complete());
        assert_eq!(local.annotation.unwrap().as_count(), Some(0));
    }

    #[test]
    fn value_provenance_closure_accessor() {
        let d = mincost_deployment(ProvenanceMode::ValueBdd);
        let target = (*d.tuples_shared(0, "bestPathCost").remove(0)).clone();
        let derivable = d
            .with_value_provenance(|p| p.derivable_under(&target, |_| true))
            .expect("value mode exposes the policy");
        assert!(derivable);
        assert!(d.local_value_annotation(&target).is_some());
        // Reference mode has no value policy.
        let r = mincost_deployment(ProvenanceMode::Reference);
        assert!(r.with_value_provenance(|_| ()).is_none());
    }
}
