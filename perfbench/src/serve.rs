//! `serve`: the `exspan-serve` deployment bound in-process on loopback and
//! driven over wire protocol v2 by the benchmark's own load generator.
//!
//! The generator is one thread with two nonblocking connections.  It waits
//! in `poll(2)` until the next arrival or poll is due (there is no fixed
//! tick); a submitted query is polled every [`POLL_PERIOD`] until its status
//! is complete and its result stream has been reassembled.
//!
//! * Phase A is an open loop: arrivals every 1/[`OPEN_LOOP_QPS`] s whatever
//!   the server does, each query timed from its due time.
//! * Phase B is a closed loop: [`WINDOW`] queries are kept in flight, a
//!   completion releases the next submit, and completions per second over
//!   the phase give the saturation throughput.

use crate::common::{self, Counts, Ctx, Outcome};
use crate::stats::{median, tail};
use crate::trace::{SpanId, Tracer};
use exspan_core::{Deployment, ProvenanceMode, Repr, Traversal};
use exspan_ndlog::programs;
use exspan_netsim::Topology;
use exspan_serve::proto::{self, FrameRead, PROTOCOL_VERSION};
use exspan_serve::{
    ErrorCode, Frame, FrameBuffer, QuerySpec, QueryState, ResultAssembler, ServeConfig, Server,
    ServerHandle,
};
use exspan_types::Tuple;
use pollshim::{PollFd, POLLIN, POLLOUT};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated seconds per wall second, as `exspan-serve` is run.
const CLOCK_RATE: f64 = 200.0;
const CONNECTIONS: usize = 2;
/// Phase A arrival rate, and its least number of queries (enough for a p99
/// with ten samples beyond it).
const OPEN_LOOP_QPS: f64 = 100.0;
const MIN_OPEN_LOOP_QUERIES: usize = 1000;
/// Phase B: queries kept in flight across both connections.
const WINDOW: usize = 32;
/// Time between two polls of one pending query.
const POLL_PERIOD: Duration = Duration::from_millis(2);
/// How long outstanding queries may take to finish after a phase ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

pub struct State {
    server: ServerHandle,
    conns: Vec<Conn>,
    targets: Vec<Arc<Tuple>>,
    nodes: u32,
    counts: Counts,
    setup_comm_mb: f64,
    build_ms: f64,
    fixpoint_s: f64,
    fixpoint_events: u64,
}

impl State {
    pub fn counts(&self) -> Counts {
        self.counts.clone()
    }

    /// Closes the connections and stops the server.
    pub fn close(self) -> Deployment {
        drop(self.conns);
        self.server.shutdown()
    }
}

pub fn setup(ctx: &mut Ctx) -> Result<State, String> {
    let t0 = Instant::now();
    let builder = common::builder(
        programs::mincost(),
        Topology::transit_stub(1, ctx.seed),
        ProvenanceMode::Reference,
        1,
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
    let counts = common::setup_counts(&deployment, stats.steps);
    let setup_comm_mb = deployment.avg_comm_mb();
    let nodes = deployment.topology().num_nodes() as u32;

    // Admission limits far above this load, so they never fire.
    let config = ServeConfig::default()
        .clock_rate(CLOCK_RATE)
        .max_sessions(16)
        .max_inflight(1 << 20)
        .rate_limit(1e9, 1 << 30)
        .pipeline_depth(1 << 16)
        .write_queue_bytes(256 << 20);
    let server = ctx
        .tracer
        .span("serve.bind", 0, || Server::bind(deployment, config))
        .map_err(|e| format!("cannot bind the server: {e}"))?;
    let addr = server.addr();
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let conn = ctx
            .tracer
            .span("serve.handshake", 0, || Conn::connect(addr))
            .map_err(|e| format!("cannot open a session: {e}"))?;
        conns.push(conn);
    }
    Ok(State {
        server,
        conns,
        targets,
        nodes,
        counts,
        setup_comm_mb,
        build_ms,
        fixpoint_s,
        fixpoint_events: stats.steps,
    })
}

/// One nonblocking client connection.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    out: Vec<u8>,
}

impl Conn {
    /// Connects and completes the v2 handshake (blocking), then switches
    /// the socket to nonblocking.
    fn connect(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        proto::write_frame(
            &mut stream,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                codec: false,
            },
        )?;
        let reply = match proto::read_frame(&mut stream)? {
            Some(FrameRead::Body(body)) => proto::decode_frame(&body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("no handshake reply: {other:?}"),
                ))
            }
        };
        match reply {
            Frame::HelloAckV2 { version: 2, .. } => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected handshake reply {}", other.name()),
                ))
            }
        }
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            frames: FrameBuffer::new(),
            out: Vec::new(),
        })
    }

    fn send(&mut self, frame: &Frame) {
        let bytes = proto::encode_frame(frame).expect("client frames always encode");
        self.out.extend_from_slice(&bytes);
    }

    /// Writes what the socket accepts.
    fn flush(&mut self) -> io::Result<()> {
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..written);
        Ok(())
    }

    /// Reads what the socket has into the frame buffer.
    fn fill(&mut self, read_buf: &mut [u8]) -> io::Result<()> {
        loop {
            match self.stream.read(read_buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.frames.feed(&read_buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One query's life at the client.
struct Query {
    open_loop: bool,
    due: Instant,
    server_id: u64,
    /// When the next poll may go out; `None` while one is in flight or the
    /// query is past polling.
    next_poll: Option<Instant>,
    pending_polls: u64,
    status_at: Option<Instant>,
    sim_latency_s: f64,
    assembler: Option<ResultAssembler>,
    result_bytes: u64,
    done: Option<Instant>,
    /// A check on this query failed.
    failed: bool,
}

enum Request {
    Submit(usize),
    Poll(usize),
}

/// The load generator and what it measured.
struct Gen {
    conns: Vec<Conn>,
    targets: Vec<Arc<Tuple>>,
    nodes: u32,
    rng: SmallRng,
    queries: Vec<Query>,
    /// Queries submitted and not yet done or failed.
    active: Vec<usize>,
    requests: HashMap<u64, (Request, Instant)>,
    /// Result streams in progress, by the poll request that announced them.
    streams: HashMap<u64, usize>,
    next_request: u64,
    read_buf: Vec<u8>,
    /// Client-side timings of the open-loop phase, where the server is not
    /// saturated.
    ack_ms: Vec<f64>,
    poll_rtt_ms: Vec<f64>,
    late_ms_max: f64,
    rejected: u64,
    problems: Vec<String>,
}

impl Gen {
    fn submit(&mut self, open_loop: bool, due: Instant, now: Instant) {
        let q = self.queries.len();
        let target = &self.targets[self.rng.gen_range(0..self.targets.len())];
        let spec = QuerySpec {
            issuer: self.rng.gen_range(0..self.nodes),
            repr: Repr::Polynomial,
            traversal: Traversal::Bfs,
            cached: false,
            relation: target.relation_name().to_string(),
            location: target.location,
            values: target.values.clone(),
        };
        let request = self.next_request;
        self.next_request += 1;
        self.conns[q % CONNECTIONS].send(&Frame::SubmitQuery { request, spec });
        self.requests.insert(request, (Request::Submit(q), now));
        if open_loop {
            self.late_ms_max = self.late_ms_max.max(ms(now - due));
        }
        self.queries.push(Query {
            open_loop,
            due,
            server_id: 0,
            next_poll: None,
            pending_polls: 0,
            status_at: None,
            sim_latency_s: 0.0,
            assembler: None,
            result_bytes: 0,
            done: None,
            failed: false,
        });
        self.active.push(q);
    }

    /// Sends every poll that is due; returns when the next one will be.
    fn send_due_polls(&mut self, now: Instant) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        for &q in &self.active {
            let Some(at) = self.queries[q].next_poll else {
                continue;
            };
            if at <= now {
                let request = self.next_request;
                self.next_request += 1;
                let query = self.queries[q].server_id;
                self.conns[q % CONNECTIONS].send(&Frame::Poll { request, query });
                self.requests.insert(request, (Request::Poll(q), now));
                self.queries[q].next_poll = None;
            } else {
                next = Some(next.map_or(at, |n: Instant| n.min(at)));
            }
        }
        next
    }

    fn finish(&mut self, q: usize) {
        self.active.retain(|&a| a != q);
    }

    fn fail(&mut self, q: usize, problem: String) {
        self.queries[q].failed = true;
        self.finish(q);
        self.problems.push(problem);
    }

    fn handle(&mut self, frame: Frame, now: Instant, tracer: &mut Tracer, parent: SpanId) {
        match frame {
            Frame::SubmitAck { request, query } => {
                let Some((Request::Submit(q), sent)) = self.requests.remove(&request) else {
                    self.problems
                        .push(format!("SubmitAck for unknown request {request}"));
                    return;
                };
                tracer.record("serve.submit", sent, now, parent, q as u64 + 1);
                let entry = &mut self.queries[q];
                if entry.open_loop {
                    self.ack_ms.push(ms(now - sent));
                }
                entry.server_id = query;
                entry.next_poll = Some(now + POLL_PERIOD);
            }
            Frame::QueryStatusV2 {
                request,
                state,
                latency,
                result_total,
                ..
            } => {
                let Some((Request::Poll(q), sent)) = self.requests.remove(&request) else {
                    self.problems
                        .push(format!("QueryStatus for unknown request {request}"));
                    return;
                };
                tracer.record("serve.poll", sent, now, parent, q as u64 + 1);
                let entry = &mut self.queries[q];
                if entry.open_loop {
                    self.poll_rtt_ms.push(ms(now - sent));
                }
                match state {
                    QueryState::Pending => {
                        entry.pending_polls += 1;
                        entry.next_poll = Some((sent + POLL_PERIOD).max(now));
                    }
                    QueryState::Complete if result_total == 0 => {
                        self.fail(q, format!("query {q} completed with an empty result"));
                    }
                    QueryState::Complete => {
                        entry.sim_latency_s = latency;
                        entry.status_at = Some(now);
                        entry.assembler = Some(ResultAssembler::new(result_total));
                        self.streams.insert(request, q);
                    }
                }
            }
            Frame::ResultChunk {
                request,
                offset,
                total,
                bytes,
            } => {
                let Some(&q) = self.streams.get(&request) else {
                    self.problems
                        .push(format!("ResultChunk for unknown request {request}"));
                    return;
                };
                let entry = &mut self.queries[q];
                let assembler = entry.assembler.as_mut().expect("streams hold assemblers");
                match assembler.accept(offset, total, &bytes) {
                    Ok(None) => {}
                    Ok(Some(body)) => {
                        self.streams.remove(&request);
                        entry.assembler = None;
                        entry.result_bytes = body.len() as u64;
                        entry.done = Some(now);
                        let status_at = entry.status_at.unwrap_or(now);
                        tracer.record("serve.result", status_at, now, parent, q as u64 + 1);
                        if std::str::from_utf8(&body).map_or(true, str::is_empty) {
                            self.fail(q, format!("query {q}: result body is not a polynomial"));
                        } else {
                            self.finish(q);
                        }
                    }
                    Err(e) => {
                        self.streams.remove(&request);
                        self.fail(q, format!("query {q}: result stream broken: {e}"));
                    }
                }
            }
            Frame::Error {
                code,
                request,
                message,
            } => {
                if matches!(code, ErrorCode::Admission | ErrorCode::RateLimited) {
                    self.rejected += 1;
                }
                let problem = format!("server error {code} on request {request}: {message}");
                match self.requests.remove(&request) {
                    Some((Request::Submit(q) | Request::Poll(q), _)) => self.fail(q, problem),
                    None => self.problems.push(problem),
                }
            }
            other => self
                .problems
                .push(format!("unexpected frame {} from the server", other.name())),
        }
    }

    /// Flushes output, waits in `poll(2)` until a socket is ready or
    /// `deadline` passes, then handles every complete frame.
    fn pump(&mut self, deadline: Option<Instant>, tracer: &mut Tracer, parent: SpanId) {
        for conn in &mut self.conns {
            if let Err(e) = conn.flush() {
                self.problems.push(format!("write failed: {e}"));
            }
        }
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| {
                let events = if c.out.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                };
                PollFd::new(c.stream.as_raw_fd(), events)
            })
            .collect();
        let timeout_ms = deadline.map_or(50, |d| {
            let wait = d.saturating_duration_since(Instant::now());
            (wait.as_micros().div_ceil(1000) as i32).min(50)
        });
        if let Err(e) = pollshim::poll(&mut fds, timeout_ms) {
            self.problems.push(format!("poll failed: {e}"));
            return;
        }
        for (i, fd) in fds.iter().enumerate() {
            if fd.revents() == 0 {
                continue;
            }
            if let Err(e) = self.conns[i].fill(&mut self.read_buf) {
                self.problems.push(format!("read failed: {e}"));
            }
        }
        let now = Instant::now();
        for i in 0..self.conns.len() {
            while let Some(read) = self.conns[i].frames.next_frame() {
                let frame = match read {
                    FrameRead::Body(body) => proto::decode_frame(&body),
                    FrameRead::Oversized { declared } => {
                        self.problems
                            .push(format!("oversized frame of {declared} bytes"));
                        continue;
                    }
                };
                match frame {
                    Ok(frame) => self.handle(frame, now, tracer, parent),
                    Err(e) => self.problems.push(format!("undecodable frame: {e}")),
                }
            }
        }
    }

    /// Gives up on whatever is still outstanding.
    fn abandon_active(&mut self, phase: &str) {
        for q in std::mem::take(&mut self.active) {
            self.queries[q].failed = true;
            self.problems.push(format!(
                "{phase}: query {q} did not finish within the drain timeout"
            ));
        }
    }

    /// Phase A: `count` open-loop arrivals at [`OPEN_LOOP_QPS`].
    fn open_loop(&mut self, count: usize, tracer: &mut Tracer) {
        let span = tracer.open("bench.open_loop", 0);
        let gap = Duration::from_secs_f64(1.0 / OPEN_LOOP_QPS);
        let start = Instant::now();
        let due = |i: usize| start + gap * i as u32;
        let give_up = due(count) + DRAIN_TIMEOUT;
        let mut next = 0;
        loop {
            let now = Instant::now();
            while next < count && due(next) <= now {
                self.submit(true, due(next), now);
                next += 1;
            }
            let next_poll = self.send_due_polls(now);
            if next == count && self.active.is_empty() {
                break;
            }
            if now > give_up {
                self.abandon_active("open loop");
                break;
            }
            let next_arrival = (next < count).then(|| due(next));
            let deadline = match (next_arrival, next_poll) {
                (Some(a), Some(p)) => Some(a.min(p)),
                (a, p) => a.or(p),
            };
            self.pump(deadline, tracer, span);
        }
        tracer.close(span);
    }

    /// Phase B: a closed loop of [`WINDOW`] queries for `length`.  Returns
    /// the queries completed within it.
    fn closed_loop(&mut self, length: Duration, tracer: &mut Tracer) -> usize {
        let span = tracer.open("bench.closed_loop", 0);
        let first = self.queries.len();
        let start = Instant::now();
        let end = start + length;
        loop {
            let now = Instant::now();
            if now < end {
                while self.active.len() < WINDOW {
                    self.submit(false, now, now);
                }
            }
            let next_poll = self.send_due_polls(now);
            if now >= end && self.active.is_empty() {
                break;
            }
            if now > end + DRAIN_TIMEOUT {
                self.abandon_active("closed loop");
                break;
            }
            let deadline = if now < end {
                Some(next_poll.map_or(end, |p| p.min(end)))
            } else {
                next_poll
            };
            self.pump(deadline, tracer, span);
        }
        tracer.close(span);
        self.queries[first..]
            .iter()
            .filter(|q| !q.failed && q.done.is_some_and(|d| d <= end))
            .count()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn measure(state: State, ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.metrics.set("build.ms", state.build_ms);
    out.metrics.set("fixpoint.s", state.fixpoint_s);
    out.metrics
        .set("fixpoint.events", state.fixpoint_events as f64);
    out.counts = state.counts.clone();
    let State {
        server,
        conns,
        targets,
        nodes,
        setup_comm_mb,
        ..
    } = state;

    let mut gen = Gen {
        conns,
        targets,
        nodes,
        rng: SmallRng::seed_from_u64(ctx.seed ^ 0x5E7E),
        queries: Vec::new(),
        active: Vec::new(),
        requests: HashMap::new(),
        streams: HashMap::new(),
        next_request: 1,
        read_buf: vec![0; 64 * 1024],
        ack_ms: Vec::new(),
        poll_rtt_ms: Vec::new(),
        late_ms_max: 0.0,
        rejected: 0,
        problems: Vec::new(),
    };
    // Half of `--seconds` for each phase, and never fewer open-loop queries
    // than a p99 needs.
    let half = ctx.seconds as f64 / 2.0;
    let open_count = MIN_OPEN_LOOP_QUERIES.max((OPEN_LOOP_QPS * half) as usize);
    gen.open_loop(open_count, &mut ctx.tracer);
    let length = Duration::from_secs_f64(half);
    let in_window = gen.closed_loop(length, &mut ctx.tracer);
    let sat_qps = in_window as f64 / length.as_secs_f64();

    drop(std::mem::take(&mut gen.conns));
    let deployment = ctx.tracer.span("serve.shutdown", 0, || server.shutdown());

    let open_ms: Vec<f64> = gen
        .queries
        .iter()
        .filter(|q| q.open_loop && !q.failed)
        .filter_map(|q| q.done.map(|d| ms(d - q.due)))
        .collect();
    let done: Vec<&Query> = gen
        .queries
        .iter()
        .filter(|q| q.done.is_some() && !q.failed)
        .collect();
    let completed = done.len() as u64;
    let sim_ms: Vec<f64> = done.iter().map(|q| q.sim_latency_s * 1e3).collect();
    let result_bytes: u64 = done.iter().map(|q| q.result_bytes).sum();
    let open_done = done.iter().filter(|q| q.open_loop).count();
    let wasted_polls: u64 = done
        .iter()
        .filter(|q| q.open_loop)
        .map(|q| q.pending_polls)
        .sum();
    let attempted = gen.queries.len() as u64;
    out.attempted = attempted;
    out.failed = attempted - completed;
    let failed = out.failed;
    out.problems.append(&mut gen.problems);

    common::record_deployment(&deployment, &mut out);
    let per_query = |x: f64| x / completed.max(1) as f64;
    let m = &mut out.metrics;
    // Maintenance traffic of the served deployment's fixpoint: the query
    // traffic grows with the throughput reached and is reported per query.
    m.set("comm_mb_per_node", setup_comm_mb);
    m.set("ops_per_s", sat_qps);
    m.set("op_ms_p50", median(&open_ms));
    m.set("serve_p50_ms", median(&open_ms));
    m.set("serve_p99_ms", tail(&open_ms, 99.0));
    m.set("serve_sat_qps", sat_qps);
    m.set("serve.ack_ms_p50", median(&gen.ack_ms));
    m.set("serve.ack_ms_p99", tail(&gen.ack_ms, 99.0));
    m.set("serve.poll_rtt_ms_p50", median(&gen.poll_rtt_ms));
    m.set("serve.poll_rtt_ms_p99", tail(&gen.poll_rtt_ms, 99.0));
    m.set(
        "serve.polls_per_query",
        wasted_polls as f64 / open_done.max(1) as f64,
    );
    let mean_sim_ms = sim_ms.iter().sum::<f64>() / sim_ms.len().max(1) as f64;
    m.set("serve.sim_floor_ms", mean_sim_ms / CLOCK_RATE);
    m.set(
        "serve.result_bytes_per_query",
        per_query(result_bytes as f64),
    );
    m.set("serve.rejected", gen.rejected as f64);
    m.set("gen.late_ms_max", gen.late_ms_max);
    m.set("gen.poll_period_ms", ms(POLL_PERIOD));
    m.set("failed_ratio", failed as f64 / attempted.max(1) as f64);
    out.check(open_ms.len() >= MIN_OPEN_LOOP_QUERIES, || {
        format!(
            "only {} of {open_count} open-loop queries completed",
            open_ms.len()
        )
    });
    out
}
