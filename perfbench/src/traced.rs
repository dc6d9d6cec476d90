//! The traced run: attributes each request's client-observed time to
//! layers, from the outside in.
//!
//! For a seeded sample of each caller's stream, every request is sent
//! over the wire with one request in flight (its round trip, RTT), then
//! replayed in-process through the layers' public functions, each call
//! wrapped in a span:
//!
//! * decode: `proto::read_frame` + `Request::from_json` (framed), or
//!   `http::read_request` + the body parse (HTTP);
//! * execute: `QueryEngine::execute_ctx` (v1) or `v2::dispatch_envelope`
//!   (v2) on an engine with the daemon's default config;
//! * encode: the reply encoders into a buffer;
//! * stages, replayed separately on the same input: `ingest::parse`,
//!   `graph_fingerprint` / `canonical_key`, `CotreeCache::lookup_graph` /
//!   `lookup_key` on a mirror cache of the daemon's default shape,
//!   `try_recognize` / `IncrementalCotree::try_add_vertex`,
//!   `path_cover` (`pool_path_cover` from 65536 vertices),
//!   `hamiltonian_path`, `Cotree::to_graph`, `verify_path_cover`.
//!
//! `engine.overhead_us` is execute minus the stage spans and
//! `<transport>.residual_us` is RTT minus decode, execute and encode, so
//! the parts add up to the RTT by construction. A short open-loop Poisson
//! probe measures queueing, and one request through each of the
//! repository's clients (`proto::Client`, `http::Client`) is timed. A
//! declared layer time the sample never reaches is taken from an
//! in-process replay of the workload that does reach it.

use crate::bench::{self, Config, Metric};
use crate::daemon::Daemon;
use crate::gen::{Kind, Plan, Req, Transport, Workload};
use crate::load::{Caller, ReplyStore};
use crate::stamp::{self, CpuTimes};
use crate::stats;
use crate::wire::{Conn, Endpoints};
use cograph::IncrementalCotree;
use pcgraph::{Graph, PathCover};
use pcservice::cache::{canonical_key, graph_fingerprint, CotreeCache, SolveEntry, DEFAULT_SHARDS};
use pcservice::http::{self, HttpBody, HttpResponse};
use pcservice::ingest::{self, GraphFormat, Ingested};
use pcservice::{proto, v2, EngineConfig, Json, QueryEngine, QueryRequest, RequestCtx};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Cursor;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-layer metrics in the result line, in `BENCHMARK.json` order:
/// `(name, unit)`. Times are the median over the calls made in the
/// sample. A layer the workload's sample does not reach is timed on a
/// probe instead (see [`probe_source`]).
const REPORTED: &[(&str, &str)] = &[
    ("proto.decode_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.residual_us", "us"),
    ("http.decode_us", "us"),
    ("http.encode_us", "us"),
    ("http.residual_us", "us"),
    ("daemon.connect_us", "us"),
    ("ingest.parse_us", "us"),
    ("ingest.mb_per_s", "MB/s"),
    ("cache.lookup_us", "us"),
    ("recognize.accept_us", "us"),
    ("recognize.reject_us", "us"),
    ("recognize.insert_us", "us"),
    ("solve.cover_us", "us"),
    ("solve.hamiltonian_us", "us"),
    ("solve.scalar_us", "us"),
    ("verify.to_graph_us", "us"),
    ("verify.check_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.overhead_us", "us"),
    ("session.create_us", "us"),
    ("session.add_vertex_us", "us"),
    ("session.query_us", "us"),
    ("session.drop_us", "us"),
    ("client.framed_rtt_us", "us"),
    ("client.http_rtt_us", "us"),
    ("queue.wait_p99_ms", "ms"),
    ("queue.achieved_rps", "req/s"),
];

/// Rows of the per-layer table, per transport.
const TABLE: &[&str] = &[
    "rtt_us",
    "decode_us",
    "engine.execute_us",
    "encode_us",
    "residual_us",
    "engine.overhead_us",
    "ingest.parse_us",
    "cache.fingerprint_us",
    "cache.key_us",
    "cache.lookup_us",
    "recognize.accept_us",
    "recognize.reject_us",
    "recognize.insert_us",
    "solve.cover_us",
    "solve.hamiltonian_us",
    "solve.scalar_us",
    "verify.to_graph_us",
    "verify.check_us",
    "session.to_cotree_us",
    "session.create_us",
    "session.add_vertex_us",
    "session.query_us",
    "session.drop_us",
];

/// Requests in the traced sample: the head of caller 0's stream, which
/// alternates transports.
fn sample_len(plan: &Plan) -> usize {
    match plan.workload {
        Workload::HotSmall => 500,
        // Holds the n = 65536 request (position 25).
        Workload::BigCover => 52,
        Workload::SessionChurn => (0..5).map(|s| plan.script_reqs(s).len()).sum(),
    }
}

/// The workload whose sample a layer metric is taken from when the
/// sampled workload does not reach that layer: the cotree cache only
/// serves `solve`, while recognition refusals, insertion, `to_graph`
/// verification and the session verbs are reached by `session-churn`.
fn probe_source(metric: &str) -> Workload {
    match metric {
        "cache.lookup_us" => Workload::HotSmall,
        _ => Workload::SessionChurn,
    }
}

/// The session verb metric of a request, if it is one.
fn session_op(req: Req) -> Option<&'static str> {
    match req {
        Req::Create { .. } => Some("session.create_us"),
        Req::AddVertex { .. } => Some("session.add_vertex_us"),
        Req::Query { .. } => Some("session.query_us"),
        Req::Drop { .. } => Some("session.drop_us"),
        Req::Solve { .. } => None,
    }
}

/// Stage and session-verb times of the head of `source`'s sample (same
/// seed), replayed in-process on a fresh engine; no daemon is involved.
fn layer_probe(source: Workload, seed: u64, callers: usize) -> Result<Layers, String> {
    let plan = Plan::new(source, seed, callers);
    let mut replay = Replay::new();
    let mut layers = Layers::default();
    let mut buf = Vec::new();
    for (req, _, transport) in plan.stream(0).take(sample_len(&plan)) {
        plan.encode(req, transport, &replay.handle(req), &mut buf);
        let cost = replay.run(&plan, req, transport, &buf)?;
        if let Some(op) = session_op(req) {
            layers.add(op, cost.execute);
        }
        for &(metric, value) in &cost.stages {
            layers.add(metric, value);
        }
    }
    Ok(layers)
}

/// One span of the Chrome trace.
struct Span {
    name: String,
    ts: f64,
    dur: f64,
    tid: u64,
    req: usize,
}

/// What one replayed request cost, by layer.
#[derive(Default)]
struct Cost {
    decode: f64,
    execute: f64,
    encode: f64,
    /// Stage spans in call order: `(metric, microseconds)`.
    stages: Vec<(&'static str, f64)>,
    /// Counts attached to the request (edges materialised, ...).
    counts: Vec<(&'static str, f64)>,
}

impl Cost {
    fn stage<T>(&mut self, metric: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.stages.push((metric, us(started)));
        out
    }
}

/// A float sum that is `0.0` (not `-0.0`) for an empty slice.
fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// The in-process session a replayed script runs against.
struct LocalSession {
    handle: String,
    mirror: IncrementalCotree,
    edges: Vec<(u32, u32)>,
    n: usize,
    memo: Option<(Arc<SolveEntry>, Arc<Graph>)>,
}

/// The in-process side: an engine with the daemon's defaults, a mirror of
/// its cotree cache and the state the stage replay needs.
struct Replay {
    engine: QueryEngine,
    cache: CotreeCache,
    pool: Option<parpool::Pool>,
    sessions: HashMap<u32, LocalSession>,
    lookups: u64,
    hits: u64,
    recognitions: u64,
    refusals: u64,
}

impl Replay {
    fn new() -> Replay {
        let config = EngineConfig::default();
        Replay {
            cache: CotreeCache::with_shards(config.cache_capacity, DEFAULT_SHARDS),
            engine: QueryEngine::new(config),
            pool: None,
            sessions: HashMap::new(),
            lookups: 0,
            hits: 0,
            recognitions: 0,
            refusals: 0,
        }
    }

    /// Decodes, executes and encodes `bytes` as the daemon would, then
    /// replays the engine's stages; returns the costs.
    fn run(
        &mut self,
        plan: &Plan,
        req: Req,
        transport: Transport,
        bytes: &[u8],
    ) -> Result<Cost, String> {
        let mut cost = Cost::default();
        let ctx = RequestCtx::generate();
        let v2 = !matches!(req, Req::Solve { .. });
        let started = Instant::now();
        let decoded = decode(transport, v2, bytes)?;
        cost.decode = us(started);
        let reply = match decoded {
            Decoded::V1(query) => {
                let started = Instant::now();
                let response = self.engine.execute_ctx(&query, &ctx);
                cost.execute = us(started);
                let started = Instant::now();
                let reply = proto::attach_trace(proto::response_reply(&response), &ctx);
                encode(transport, reply, 1);
                cost.encode = us(started);
                self.solve_stages(&query, &mut cost)?;
                None
            }
            Decoded::V2(envelope) => {
                let started = Instant::now();
                let (reply, _) = v2::dispatch_envelope(&self.engine, &envelope, &ctx);
                cost.execute = us(started);
                let started = Instant::now();
                let reply = encode(transport, reply, 2);
                cost.encode = us(started);
                self.session_stages(plan, req, &envelope, &mut cost)?;
                Some(reply)
            }
        };
        if let (Req::Create { script }, Some(reply)) = (req, reply) {
            if let Some(handle) = reply
                .get("result")
                .and_then(|r| r.get("handle"))
                .and_then(Json::as_str)
            {
                if let Some(session) = self.sessions.get_mut(&script) {
                    session.handle = handle.to_string();
                }
            }
        }
        Ok(cost)
    }

    /// The handle the in-process engine gave `script`'s session.
    fn handle(&self, req: Req) -> String {
        let script = match req {
            Req::AddVertex { script, .. } | Req::Query { script, .. } | Req::Drop { script } => {
                script
            }
            _ => return String::new(),
        };
        self.sessions
            .get(&script)
            .map(|s| s.handle.clone())
            .unwrap_or_default()
    }

    fn solve_stages(&mut self, query: &QueryRequest, cost: &mut Cost) -> Result<(), String> {
        let (text, format) = match &query.graph {
            pcservice::GraphSpec::EdgeList(t) => (t.as_str(), GraphFormat::EdgeList),
            pcservice::GraphSpec::CotreeTerm(t) => (t.as_str(), GraphFormat::CotreeTerm),
            other => return Err(format!("unexpected graph spec {other:?}")),
        };
        cost.counts.push(("ingest.bytes", text.len() as f64));
        let ingested = cost
            .stage("ingest.parse_us", || ingest::parse(text, format))
            .map_err(|e| format!("replay ingest: {e}"))?;
        self.lookups += 1;
        let (entry, graph) = match ingested {
            Ingested::Graph(g) => {
                let g = Arc::new(g);
                let fp = cost.stage("cache.fingerprint_us", || graph_fingerprint(&g));
                let started = Instant::now();
                let hit = self.cache.lookup_graph(fp, &g);
                let entry = match hit {
                    Some(entry) => {
                        self.hits += 1;
                        cost.stages.push(("cache.lookup_us", us(started)));
                        entry
                    }
                    None => {
                        cost.stages.push(("cache.lookup_us", us(started)));
                        self.recognitions += 1;
                        let tree = cost
                            .stage("recognize.accept_us", || cograph::try_recognize(&g))
                            .map_err(|e| format!("replay recognition: {e}"))?;
                        let g2 = g.clone();
                        cost.stage("cache.lookup_us", || {
                            self.cache.insert(Some((fp, g2)), tree)
                        })
                    }
                };
                (entry, Some(g))
            }
            Ingested::Cotree(tree) => {
                let key = cost.stage("cache.key_us", || canonical_key(&tree));
                let started = Instant::now();
                let entry = match self.cache.lookup_key(key, &tree) {
                    Some(entry) => {
                        self.hits += 1;
                        entry
                    }
                    None => self.cache.insert(None, tree),
                };
                cost.stages.push(("cache.lookup_us", us(started)));
                (entry, None)
            }
        };
        let kind = match query.kind.as_str() {
            "min_cover_size" => Kind::MinCoverSize,
            "full_cover" => Kind::FullCover,
            "hamiltonian_path" => Kind::HamiltonianPath,
            "hamiltonian_cycle" => Kind::HamiltonianCycle,
            _ => Kind::Recognize,
        };
        self.kind_stages(kind, &entry, graph, cost);
        Ok(())
    }

    /// The solve and verify stages of one query on a resolved entry.
    fn kind_stages(
        &mut self,
        kind: Kind,
        entry: &SolveEntry,
        graph: Option<Arc<Graph>>,
        cost: &mut Cost,
    ) {
        let graph_of = |cost: &mut Cost| match &graph {
            Some(g) => g.clone(),
            None => {
                let g = cost.stage("verify.to_graph_us", || entry.cotree.to_graph());
                cost.counts.push(("verify.edges", g.num_edges() as f64));
                Arc::new(g)
            }
        };
        match kind {
            Kind::MinCoverSize => {
                cost.stage("solve.scalar_us", || entry.min_cover_size());
            }
            Kind::HamiltonianCycle => {
                cost.stage("solve.scalar_us", || entry.has_hamiltonian_cycle());
            }
            Kind::FullCover => {
                let n = entry.cotree.num_vertices();
                let engine = self.engine.config();
                let threads = parpool::resolve_threads(None);
                let pooled = engine.parallel_min_vertices > 0
                    && n >= engine.parallel_min_vertices
                    && threads >= 2;
                let pool = &mut self.pool;
                let cover = cost.stage("solve.cover_us", || {
                    if pooled {
                        let pool = pool.get_or_insert_with(|| parpool::Pool::new(threads));
                        pathcover::pool_path_cover(&entry.cotree, pool)
                    } else {
                        pathcover::path_cover(&entry.cotree)
                    }
                });
                let g = graph_of(cost);
                cost.stage("verify.check_us", || pcgraph::verify_path_cover(&g, &cover));
            }
            Kind::HamiltonianPath => {
                let path = cost.stage("solve.hamiltonian_us", || {
                    entry
                        .has_hamiltonian_path()
                        .then(|| pathcover::hamiltonian_path(&entry.cotree))
                        .flatten()
                });
                if let Some(path) = path {
                    let g = graph_of(cost);
                    let cover = PathCover::from_paths(vec![path]);
                    cost.stage("verify.check_us", || pcgraph::verify_path_cover(&g, &cover));
                }
            }
            Kind::Recognize => {
                graph_of(cost);
            }
        }
    }

    fn session_stages(
        &mut self,
        plan: &Plan,
        req: Req,
        envelope: &Json,
        cost: &mut Cost,
    ) -> Result<(), String> {
        match req {
            Req::Create { script } => {
                let text = envelope
                    .get("target")
                    .and_then(|t| t.get("edge_list"))
                    .and_then(Json::as_str)
                    .ok_or("create without edge list")?;
                cost.counts.push(("ingest.bytes", text.len() as f64));
                let Ingested::Graph(g) = cost
                    .stage("ingest.parse_us", || {
                        ingest::parse(text, GraphFormat::EdgeList)
                    })
                    .map_err(|e| format!("replay ingest: {e}"))?
                else {
                    return Err("edge list parsed to a cotree".to_string());
                };
                self.recognitions += 1;
                let started = Instant::now();
                match IncrementalCotree::from_graph(&g) {
                    Ok(mirror) => {
                        cost.stages.push(("recognize.accept_us", us(started)));
                        self.sessions.insert(
                            script,
                            LocalSession {
                                handle: String::new(),
                                mirror,
                                edges: g.edges().collect(),
                                n: g.num_vertices(),
                                memo: None,
                            },
                        );
                    }
                    Err(_) => {
                        self.refusals += 1;
                        cost.stages.push(("recognize.reject_us", us(started)));
                    }
                }
            }
            Req::AddVertex { script, step } => {
                let neighbors = &plan.scripts[script as usize].steps[step as usize].neighbors;
                let session = self
                    .sessions
                    .get_mut(&script)
                    .ok_or("add_vertex without session")?;
                self.recognitions += 1;
                let accepted = cost.stage("recognize.insert_us", || {
                    session.mirror.try_add_vertex(neighbors)
                });
                if accepted.is_ok() {
                    let x = session.n as u32;
                    session.edges.extend(neighbors.iter().map(|&u| (u, x)));
                    session.n += 1;
                    session.memo = None;
                } else {
                    self.refusals += 1;
                    let x = session.n as u32;
                    let mut edges = session.edges.clone();
                    edges.extend(neighbors.iter().map(|&u| (u, x)));
                    let n = session.n + 1;
                    cost.stage("recognize.reject_us", || {
                        let candidate = Graph::from_edges(n, &edges).expect("valid candidate");
                        cograph::try_recognize(&candidate).is_err()
                    });
                }
            }
            Req::Query { script, step } => {
                let kind = plan.scripts[script as usize].steps[step as usize].query;
                let session = self
                    .sessions
                    .get_mut(&script)
                    .ok_or("query without session")?;
                if session.memo.is_none() {
                    let tree = cost.stage("session.to_cotree_us", || session.mirror.to_cotree());
                    let entry = Arc::new(cost.stage("cache.key_us", || SolveEntry::new(tree)));
                    let g = cost.stage("verify.to_graph_us", || entry.cotree.to_graph());
                    cost.counts.push(("verify.edges", g.num_edges() as f64));
                    session.memo = Some((entry, Arc::new(g)));
                }
                let (entry, g) = session.memo.clone().expect("memo built above");
                self.kind_stages(kind, &entry, Some(g), cost);
            }
            Req::Drop { script } => {
                self.sessions.remove(&script);
            }
            Req::Solve { .. } => unreachable!("solve requests are v1"),
        }
        Ok(())
    }
}

enum Decoded {
    V1(QueryRequest),
    V2(Json),
}

/// The transport decode, exactly the daemon's calls.
fn decode(transport: Transport, v2: bool, bytes: &[u8]) -> Result<Decoded, String> {
    let mut reader = Cursor::new(bytes);
    let json = match transport {
        Transport::Framed if !v2 => {
            let payload = proto::read_frame(&mut reader).map_err(|e| e.to_string())?;
            return match proto::Request::from_json(&payload).map_err(|e| e.to_string())? {
                proto::Request::Solve(query) => Ok(Decoded::V1(query)),
                other => Err(format!("unexpected request {other:?}")),
            };
        }
        Transport::Framed => {
            let (_, body) = proto::read_frame_raw(&mut reader).map_err(|e| e.to_string())?;
            Json::parse(&body).map_err(|e| e.to_string())?
        }
        Transport::Http => {
            let request = http::read_request(&mut reader, &mut Vec::new())
                .map_err(|e| e.to_string())?
                .ok_or("empty HTTP request")?;
            let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            Json::parse(text).map_err(|e| e.to_string())?
        }
    };
    if v2 {
        Ok(Decoded::V2(json))
    } else {
        QueryRequest::from_json(&json)
            .map(Decoded::V1)
            .map_err(|e| e.to_string())
    }
}

/// The reply encoders: a frame, or an HTTP response (v1 bodies carry the
/// deprecation marker the daemon adds). Returns the reply value.
fn encode(transport: Transport, mut reply: Json, version: u64) -> Json {
    let mut out = Vec::with_capacity(4096);
    match transport {
        Transport::Framed => {
            proto::write_frame_v(&mut out, &reply, version).expect("in-memory write")
        }
        Transport::Http => {
            if version == 1 {
                if let Json::Obj(fields) = &mut reply {
                    fields.push((
                        "meta".to_string(),
                        Json::obj(vec![("api_version", Json::num(1u64))]),
                    ));
                }
            }
            let response = HttpResponse {
                status: 200,
                reason: "OK",
                allow: None,
                deprecated: version == 1,
                retry_after_ms: None,
                body: HttpBody::Json(reply),
            };
            http::write_response(&mut out, &response, true).expect("in-memory write");
            let HttpBody::Json(json) = response.body else {
                unreachable!("built as JSON")
            };
            return json;
        }
    }
    reply
}

/// Per-transport samples of every layer metric.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    fn add(&mut self, metric: &'static str, value: f64) {
        self.values.entry(metric).or_default().push(value);
    }

    fn busy(&self, metric: &str) -> f64 {
        self.values.get(metric).map_or(0.0, |v| sum(v))
    }

    /// Nearest-rank median; residuals keep their sign.
    fn p50(&self, metric: &str) -> Option<f64> {
        let mut sorted = self.values.get(metric)?.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(sorted[stats::rank(sorted.len(), 50.0)])
    }
}

/// Runs the traced replay of one workload and prints its report.
pub fn run(cfg: &Config) -> Result<bool, String> {
    let plan = Plan::new(cfg.workload, cfg.seed, cfg.callers);
    let mut warm_store = ReplyStore::default();
    let daemon = Daemon::spawn(&cfg.cli, &cfg.run_dir, "trace")
        .map_err(|e| format!("starting daemon: {e}"))?;
    let ep = daemon.endpoints.clone();
    let mut replay = Replay::new();
    let mut buf = Vec::new();
    let mut outcomes: Vec<(Req, Option<u32>)> = Vec::new();

    // Warm-up on both sides, so cache and pool state agree.
    {
        let mut caller = Caller::new(&plan, &ep);
        for req in plan.warmup() {
            caller
                .send(req, Transport::Framed, false)
                .1
                .map_err(|e| format!("warm-up: {e}"))?;
            warm_store.put(req, &caller.reply);
            plan.encode(req, Transport::Framed, &replay.handle(req), &mut buf);
            replay.run(&plan, req, Transport::Framed, &buf)?;
        }
    }

    // Ratios count the sample only.
    replay.lookups = 0;
    replay.hits = 0;
    replay.recognitions = 0;
    replay.refusals = 0;
    let cpu_before = CpuTimes::now();
    let mut layers: Vec<(Transport, Layers)> = vec![
        (Transport::Framed, Layers::default()),
        (Transport::Http, Layers::default()),
    ];
    let mut lanes = [0.0f64; 2];
    let mut spans: Vec<Span> = Vec::new();
    let mut idle_rtt: Vec<(Req, Transport, f64)> = Vec::new();
    let mut store = ReplyStore::default();
    let mut caller = Caller::new(&plan, &ep);
    let count = sample_len(&plan);
    for (req_id, (req, fresh, transport)) in plan.stream(0).take(count).enumerate() {
        let tid = transport.index() as u64 + 1;
        let acc = &mut layers[transport.index()].1;
        let lane = &mut lanes[transport.index()];
        let (latency, result) = caller.send(req, transport, fresh);
        let rtt = latency.as_nanos() as f64 / 1e3;
        let stored = match result {
            Ok(()) => Some(store.put(req, &caller.reply)),
            Err(_) => None,
        };
        outcomes.push((req, stored));
        plan.encode(req, transport, &replay.handle(req), &mut buf);
        let cost = replay.run(&plan, req, transport, &buf)?;
        let stage_sum: f64 = cost.stages.iter().map(|s| s.1).sum();
        let residual = rtt - cost.decode - cost.execute - cost.encode;
        acc.add("rtt_us", rtt);
        acc.add("decode_us", cost.decode);
        acc.add("engine.execute_us", cost.execute);
        acc.add("encode_us", cost.encode);
        acc.add("residual_us", residual);
        acc.add("engine.overhead_us", cost.execute - stage_sum);
        if caller.reply.len() > 8192 {
            acc.add("residual_over_8k_us", residual);
        }
        if let Req::Solve { graph, .. } = req {
            if plan.cases[graph as usize].n < 65536 {
                idle_rtt.push((req, transport, rtt));
            }
        }
        if let Some(op) = session_op(req) {
            acc.add(op, cost.execute);
        }
        for &(metric, value) in cost.stages.iter().chain(&cost.counts) {
            acc.add(metric, value);
        }
        // Chrome trace: the RTT as root, decode / execute / encode /
        // residual as children, stages inside execute.
        let name = format!("{req:?}");
        spans.push(Span {
            name: format!("rtt {name}"),
            ts: *lane,
            dur: rtt,
            tid,
            req: req_id,
        });
        let mut t = *lane;
        for (part, dur) in [("decode", cost.decode), ("execute", cost.execute)] {
            spans.push(Span {
                name: format!("{}.{part}", transport.name()),
                ts: t,
                dur,
                tid,
                req: req_id,
            });
            if part == "execute" {
                let mut s = t;
                for &(metric, d) in &cost.stages {
                    spans.push(Span {
                        name: metric.trim_end_matches("_us").to_string(),
                        ts: s,
                        dur: d,
                        tid,
                        req: req_id,
                    });
                    s += d;
                }
            }
            t += dur;
        }
        spans.push(Span {
            name: format!("{}.encode", transport.name()),
            ts: t,
            dur: cost.encode,
            tid,
            req: req_id,
        });
        t += cost.encode;
        spans.push(Span {
            name: format!("{}.residual", transport.name()),
            ts: t,
            dur: residual.max(0.0),
            tid,
            req: req_id,
        });
        *lane += rtt.max(t - *lane) + 10.0;
    }
    // Connection set-up cost of each listener.
    let mut connects: Vec<f64> = Vec::new();
    for transport in [Transport::Framed, Transport::Http] {
        for _ in 0..20 {
            let started = Instant::now();
            Conn::connect(transport, &ep).map_err(|e| format!("connect: {e}"))?;
            connects.push(us(started));
        }
    }

    let (client_framed, client_http) = client_probe(&plan, &ep)?;
    let probe = open_loop_probe(&plan, &ep, &idle_rtt, cfg.seed)?;
    let steal_pct = CpuTimes::now().steal_pct_since(&cpu_before);
    daemon.stop().map_err(|e| format!("stopping daemon: {e}"))?;

    // Oracle on every wire reply.
    let mut shown = 0;
    let warm_ok = bench::verdicts(&plan, &warm_store, &mut shown)
        .iter()
        .all(|&ok| ok);
    let verdicts = bench::verdicts(&plan, &store, &mut shown);
    let attempted = outcomes.len() as u64;
    let failed = outcomes
        .iter()
        .filter(|(_, stored)| !stored.is_some_and(|i| verdicts[i as usize]))
        .count() as u64;

    // Result metrics.
    let all = |metric: &str| -> Vec<f64> {
        layers
            .iter()
            .flat_map(|(_, l)| l.values.get(metric).cloned().unwrap_or_default())
            .collect()
    };
    let median = |v: Vec<f64>| stats::median_f64(&v);
    let of = |t: Transport| layers.iter().find(|(tr, _)| *tr == t).map(|(_, l)| l);
    let parsed_bytes = sum(&all("ingest.bytes"));
    let parse_us = sum(&all("ingest.parse_us"));
    let mut probes: Vec<(Workload, Layers)> = Vec::new();
    let mut probed: Vec<(&str, Workload, usize, f64)> = Vec::new();
    let mut metrics = Vec::new();
    for &(name, unit) in REPORTED {
        let value = match name {
            "proto.decode_us" | "proto.encode_us" | "proto.residual_us" | "http.decode_us"
            | "http.encode_us" | "http.residual_us" => {
                let (t, part) = name.split_once('.').expect("dotted");
                let transport = if t == "proto" {
                    Transport::Framed
                } else {
                    Transport::Http
                };
                of(transport).and_then(|l| l.p50(part)).unwrap_or(0.0)
            }
            "daemon.connect_us" => median(connects.clone()),
            "ingest.mb_per_s" => {
                if parse_us > 0.0 {
                    parsed_bytes / parse_us
                } else {
                    0.0
                }
            }
            "client.framed_rtt_us" => client_framed,
            "client.http_rtt_us" => client_http,
            "queue.wait_p99_ms" => probe.wait_p99_ms,
            "queue.achieved_rps" => probe.achieved_rps,
            other => {
                let values = all(other);
                if values.is_empty() {
                    let source = probe_source(other);
                    if !probes.iter().any(|(w, _)| *w == source) {
                        probes.push((source, layer_probe(source, cfg.seed, cfg.callers)?));
                    }
                    let (_, layers) = probes
                        .iter()
                        .find(|(w, _)| *w == source)
                        .expect("run above");
                    let values = layers.values.get(other).cloned().unwrap_or_default();
                    probed.push((other, source, values.len(), median(values.clone())));
                    median(values)
                } else {
                    median(values)
                }
            }
        };
        metrics.push(Metric::new(name, value, unit));
    }

    // Per-layer table.
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# perfbench traced run: {} seed {}\n",
        cfg.workload.name(),
        cfg.seed
    );
    for (transport, l) in &layers {
        let _ = writeln!(
            table,
            "## {} ({} requests, RTT total {:.1} ms)\n\n| layer metric | count | p50 us | busy us | share of RTT |\n|---|---:|---:|---:|---:|",
            transport.name(),
            l.values.get("rtt_us").map_or(0, Vec::len),
            l.busy("rtt_us") / 1e3
        );
        for &row in TABLE {
            let count = l.values.get(row).map_or(0, Vec::len);
            let name = match row {
                "decode_us" | "encode_us" | "residual_us" => format!("{}.{row}", transport.name()),
                other => other.to_string(),
            };
            let _ = writeln!(
                table,
                "| {name} | {count} | {:.1} | {:.1} | {:.1}% |",
                l.p50(row).unwrap_or(0.0),
                l.busy(row),
                100.0 * l.busy(row) / l.busy("rtt_us").max(1e-9)
            );
        }
        let _ = writeln!(
            table,
            "| verify.edges (sum) | {} | | {:.0} | |\n| {}.residual_us, replies > 8 KB | {} | {:.1} | {:.1} | |\n",
            l.values.get("verify.edges").map_or(0, Vec::len),
            l.busy("verify.edges"),
            transport.name(),
            l.values.get("residual_over_8k_us").map_or(0, Vec::len),
            l.p50("residual_over_8k_us").unwrap_or(0.0),
            l.busy("residual_over_8k_us"),
        );
    }
    let _ = writeln!(
        table,
        "## whole sample\n\n| metric | value |\n|---|---:|\n| daemon.connect_us p50 | {:.1} |\n| ingest.mb_per_s | {:.2} |\n| recognize.reject_ratio | {:.3} |\n| cache.hit_ratio | {:.3} |\n| client.framed_rtt_us | {:.1} |\n| client.http_rtt_us | {:.1} |\n| queue.wait_p99_ms | {:.3} |\n| queue.achieved_rps | {:.1} (offered {:.1}) |\n",
        median(connects.clone()),
        if parse_us > 0.0 { parsed_bytes / parse_us } else { 0.0 },
        if replay.recognitions > 0 { replay.refusals as f64 / replay.recognitions as f64 } else { 0.0 },
        if replay.lookups > 0 { replay.hits as f64 / replay.lookups as f64 } else { 0.0 },
        client_framed,
        client_http,
        probe.wait_p99_ms,
        probe.achieved_rps,
        probe.offered_rps,
    );
    if !probed.is_empty() {
        let _ = writeln!(
            table,
            "## layers this sample does not reach, timed on a probe\n\n| layer metric | probe | count | p50 us |\n|---|---|---:|---:|"
        );
        for (name, source, count, p50) in &probed {
            let _ = writeln!(
                table,
                "| {name} | {} head, in-process | {count} | {p50:.1} |",
                source.name()
            );
        }
        let _ = writeln!(table);
    }
    let _ = writeln!(table, "## workload checks\n");
    for line in checks(cfg.workload, &layers) {
        let _ = writeln!(table, "- {line}");
    }

    let stamp = stamp::render(
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        plan.callers,
        &[
            ("mode", stamp::quoted("traced replay")),
            ("sample_requests", count.to_string()),
            ("steal_pct", format!("{steal_pct:.3}")),
            (
                "generator_lateness_p99_us",
                format!("{:.3}", probe.lateness_p99_us),
            ),
        ],
    );
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let base = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
    let chrome = cfg.out_dir.join(format!("trace-{base}.chrome.json"));
    std::fs::write(&chrome, chrome_json(&spans)).map_err(|e| format!("writing trace: {e}"))?;
    let table_path = cfg.out_dir.join(format!("layers-{base}.md"));
    std::fs::write(&table_path, format!("{table}\n```\n{stamp}\n```\n"))
        .map_err(|e| format!("writing table: {e}"))?;
    print!("{table}");
    println!(
        "trace: {}\ntable: {}",
        chrome.display(),
        table_path.display()
    );
    println!("{stamp}");
    let correct = failed == 0 && warm_ok;
    println!(
        "{}",
        bench::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// The acceptance checks of each workload: it stresses the layers it was
/// chosen for.
fn checks(workload: Workload, layers: &[(Transport, Layers)]) -> Vec<String> {
    let busy = |metrics: &[&str]| -> f64 {
        layers
            .iter()
            .map(|(_, l)| metrics.iter().map(|m| l.busy(m)).sum::<f64>())
            .sum()
    };
    let verdict = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
    let codecs = busy(&["decode_us", "encode_us"]);
    let solve_verify = busy(&[
        "solve.cover_us",
        "solve.hamiltonian_us",
        "solve.scalar_us",
        "verify.to_graph_us",
        "verify.check_us",
    ]);
    match workload {
        Workload::HotSmall => {
            let fixed = codecs + busy(&["ingest.parse_us", "engine.overhead_us"]);
            vec![format!(
                "ingest + codecs + engine.overhead ({:.0} us) > solve + verify ({:.0} us): {}",
                fixed,
                solve_verify,
                verdict(fixed > solve_verify)
            )]
        }
        Workload::BigCover => {
            let framed = layers.iter().find(|(t, _)| *t == Transport::Framed);
            let (sv, rtt) = framed.map_or((0.0, 0.0), |(_, l)| {
                let sv: f64 = [
                    "solve.cover_us",
                    "solve.hamiltonian_us",
                    "solve.scalar_us",
                    "verify.to_graph_us",
                    "verify.check_us",
                ]
                .iter()
                .map(|m| l.busy(m))
                .sum();
                (sv, l.busy("rtt_us"))
            });
            let http_stall = layers
                .iter()
                .find(|(t, _)| *t == Transport::Http)
                .and_then(|(_, l)| l.p50("residual_over_8k_us"))
                .unwrap_or(0.0);
            vec![
                format!(
                    "solve + verify ({:.0} us) > half the framed RTT ({:.0} us): {}",
                    sv,
                    rtt / 2.0,
                    verdict(sv > rtt / 2.0)
                ),
                format!(
                    "http.residual_us on replies over 8 KB, p50 {:.0} us >= 40 ms: {}",
                    http_stall,
                    verdict(http_stall >= 40_000.0)
                ),
            ]
        }
        Workload::SessionChurn => {
            let lookups = layers
                .iter()
                .map(|(_, l)| l.values.get("cache.lookup_us").map_or(0, Vec::len))
                .sum::<usize>();
            let heavy = busy(&[
                "recognize.accept_us",
                "recognize.reject_us",
                "recognize.insert_us",
                "verify.to_graph_us",
                "verify.check_us",
                "session.to_cotree_us",
            ]);
            vec![
                format!(
                    "cache.lookup_us runs {lookups} times (expected 0): {}",
                    verdict(lookups == 0)
                ),
                format!(
                    "recognize + verify + session stages ({:.0} us) > codecs ({:.0} us): {}",
                    heavy,
                    codecs,
                    verdict(heavy > codecs)
                ),
            ]
        }
    }
}

/// Chrome trace-event JSON, the shape `/v1/trace?format=chrome` emits.
fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"name\":{},\"pid\":1,\"tid\":{},\"args\":{{\"req\":{}}}}}",
                s.ts,
                s.dur.max(0.0),
                stamp::quoted(&s.name),
                s.tid,
                s.req
            )
        })
        .collect();
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

/// One request through each of the repository's clients (median of five),
/// in microseconds. These clients are not on the load generator's path.
fn client_probe(plan: &Plan, ep: &Endpoints) -> Result<(f64, f64), String> {
    let query = match plan.workload {
        Workload::HotSmall => QueryRequest::new(
            pcservice::QueryKind::FullCover,
            pcservice::GraphSpec::EdgeList(pcgraph_edge_list(&plan.cases[0].tree)),
        ),
        Workload::BigCover => QueryRequest::new(
            pcservice::QueryKind::FullCover,
            pcservice::GraphSpec::CotreeTerm(
                crate::gen::term_of(&plan.cases[plan.small[0] as usize].tree).0,
            ),
        ),
        Workload::SessionChurn => {
            let s = plan
                .scripts
                .iter()
                .find(|s| !s.near)
                .ok_or("no accepted script")?;
            QueryRequest::new(
                pcservice::QueryKind::FullCover,
                pcservice::GraphSpec::EdgeList(crate::gen::edge_list_text(s.seed_n, &s.seed_edges)),
            )
        }
    };
    let mut framed = Vec::new();
    let mut http_times = Vec::new();
    let addr = ep.http.to_string();
    for _ in 0..5 {
        let started = Instant::now();
        let mut client =
            pcservice::daemon::connect(&ep.socket).map_err(|e| format!("proto::Client: {e}"))?;
        client
            .solve(&query)
            .map_err(|e| format!("proto::Client: {e}"))?;
        framed.push(us(started));
        let started = Instant::now();
        let mut client = http::Client::connect(&addr).map_err(|e| format!("http::Client: {e}"))?;
        client
            .solve(&query)
            .map_err(|e| format!("http::Client: {e}"))?;
        http_times.push(us(started));
    }
    Ok((stats::median_f64(&framed), stats::median_f64(&http_times)))
}

fn pcgraph_edge_list(tree: &cograph::Cotree) -> String {
    let edges: Vec<(u32, u32)> = tree.to_graph().edges().collect();
    crate::gen::edge_list_text(tree.num_vertices(), &edges)
}

struct Probe {
    wait_p99_ms: f64,
    achieved_rps: f64,
    offered_rps: f64,
    lateness_p99_us: f64,
}

/// A short open-loop probe: Poisson arrivals at half the capacity the
/// sample's idle round trips imply, over `2 x callers` connections.
/// Latency counts from each request's intended send time; a request's
/// queueing wait is that latency minus its own idle RTT. Session
/// workloads probe with solves of their seed graphs.
fn open_loop_probe(
    plan: &Plan,
    ep: &Endpoints,
    idle: &[(Req, Transport, f64)],
    seed: u64,
) -> Result<Probe, String> {
    // (request bytes per transport, idle RTT in us)
    let mut items: Vec<([Vec<u8>; 2], f64)> = Vec::new();
    for &(req, _, rtt) in idle {
        let mut framed = Vec::new();
        let mut httpb = Vec::new();
        plan.encode(req, Transport::Framed, "", &mut framed);
        plan.encode(req, Transport::Http, "", &mut httpb);
        items.push(([framed, httpb], rtt));
    }
    if items.is_empty() {
        // Session workloads: min_cover_size solves of the seed graphs,
        // idle RTT measured here first.
        let mut conn = Conn::connect(Transport::Framed, ep).map_err(|e| e.to_string())?;
        for s in plan.scripts.iter().filter(|s| !s.near).take(8) {
            let mut body =
                b"{\"type\":\"solve\",\"kind\":\"min_cover_size\",\"edge_list\":\"".to_vec();
            body.extend_from_slice(&s.seed_body);
            body.extend_from_slice(b"\"}");
            let mut framed = format!("pcp1 {}\n", body.len()).into_bytes();
            framed.extend_from_slice(&body);
            framed.push(b'\n');
            // `POST /v1/solve` ignores the frame's `type` field.
            let mut httpb = format!(
                "POST /v1/solve HTTP/1.1\r\nHost: pcservice\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            httpb.extend_from_slice(&body);
            let started = Instant::now();
            conn.roundtrip(&framed, &mut Vec::new())
                .map_err(|e| e.to_string())?;
            items.push(([framed, httpb], us(started)));
        }
    }
    let mean_rtt = items.iter().map(|i| i.1).sum::<f64>() / items.len().max(1) as f64;
    let offered_rps = 0.5 * plan.callers as f64 * 1e6 / mean_rtt.max(1.0);
    let duration = Duration::from_secs(2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0B5E_55ED);
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u = (rng.gen_range(1..=1_000_000u32) as f64) / 1e6;
        t += -u.ln() / offered_rps;
        if t >= duration.as_secs_f64() {
            break;
        }
        arrivals.push((t, arrivals.len() % items.len()));
    }
    let workers = 2 * plan.callers;
    let (tx, rx) = mpsc::channel::<(Instant, usize)>();
    let rx = Mutex::new(rx);
    let items = &items;
    let started = Instant::now();
    let (results, lateness) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let rx = &rx;
                scope.spawn(move || {
                    let transport = Transport::of(w, 0);
                    let mut conn = Conn::connect(transport, ep).ok();
                    let mut reply = Vec::new();
                    let mut out = Vec::new();
                    loop {
                        let job = rx.lock().expect("probe queue").recv();
                        let Ok((intended, idx)) = job else { break };
                        let (bytes, idle_rtt) = &items[idx];
                        let bytes = &bytes[usize::from(transport == Transport::Http)];
                        let ok = conn
                            .as_mut()
                            .map(|c| c.roundtrip(bytes, &mut reply).is_ok())
                            .unwrap_or(false);
                        if !ok {
                            conn = Conn::connect(transport, ep).ok();
                        }
                        let done = Instant::now();
                        out.push((
                            ok,
                            (done - intended).as_nanos() as f64 / 1e3 - idle_rtt,
                            done,
                        ));
                    }
                    out
                })
            })
            .collect();
        let mut lateness = Vec::new();
        for &(at, idx) in &arrivals {
            let due = started + Duration::from_secs_f64(at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lateness.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            let _ = tx.send((due, idx));
        }
        drop(tx);
        let results: Vec<(bool, f64, Instant)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe worker panicked"))
            .collect();
        (results, lateness)
    });
    let done: Vec<&(bool, f64, Instant)> = results.iter().filter(|r| r.0).collect();
    let last = done.iter().map(|r| r.2).max().unwrap_or(started);
    let mut waits: Vec<f64> = done.iter().map(|r| r.1).collect();
    waits.sort_by(|a, b| a.total_cmp(b));
    let wait_p99 = waits
        .get(stats::rank(waits.len().max(1), 99.0))
        .copied()
        .unwrap_or(0.0);
    Ok(Probe {
        wait_p99_ms: wait_p99 / 1e3,
        achieved_rps: done.len() as f64 / (last - started).as_secs_f64().max(1e-9),
        offered_rps,
        lateness_p99_us: stats::percentile(&lateness, 99.0).unwrap_or(0) as f64 / 1e3,
    })
}
