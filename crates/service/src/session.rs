//! Daemon-resident graph sessions: handles whose cotree grows in place.
//!
//! A one-shot request ships a whole graph and pays O(m) ingestion plus
//! recognition every time. A *session* keeps the graph — and, crucially,
//! its cotree — resident in the daemon, so steady-state traffic is O(1)
//! per request:
//!
//! * `session_add_vertex` runs `recognition::fast`'s incremental
//!   insertion pass ([`cograph::IncrementalCotree::try_add_vertex`]) — one
//!   O(d) marking pass, no re-recognition of the existing graph. An
//!   illegal insertion is rejected with the certified induced-`P_4`
//!   witness and leaves the session at its last-good state.
//! * `session_add_edges` / `session_remove_edge` mutate edges between
//!   existing vertices, which the insertion pass cannot absorb; they fall
//!   back to rebuild-from-scratch and are tagged as such
//!   ([`Maintenance::Rebuild`]). A rebuild that finds an induced `P_4`
//!   also leaves the session untouched.
//! * `session_query` answers every [`QueryKind`] against the resident
//!   cotree with the engine's verify-before-return discipline intact —
//!   covers are checked on the cotree, so no graph is materialised. It
//!   never re-recognises: only memoised scalars invalidated by a mutation
//!   are recomputed.
//!
//! Handles live in a [`SessionRegistry`] owned by the engine: per-handle
//! locking (mutations on distinct handles run in parallel), an admission
//! cap ([`crate::EngineConfig::max_sessions`]), and an idle-TTL sweep run
//! opportunistically on registry traffic
//! ([`crate::EngineConfig::session_idle_ttl`]). Sessions are surfaced in
//! stats and telemetry but are deliberately *not* persisted into cache
//! snapshots ([`crate::snapshot`]).

use crate::cache::SolveEntry;
use crate::engine::{trace_end, QueryEngine, Resolved, Solved};
use crate::error::ServiceError;
use crate::ingest::{self, GraphFormat, Ingested};
use crate::model::{CacheStatus, GraphSpec, QueryKind, QueryResponse};
use crate::telemetry::{Metric, RequestCtx, Telemetry, Timeline};
use cograph::IncrementalCotree;
use pcgraph::{Graph, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// How a session operation maintained the resident cotree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Maintenance {
    /// Absorbed by the incremental O(d) insertion pass.
    Incremental,
    /// Rebuilt from scratch (edge mutations; tagged so clients can see
    /// which operations paid the O(n + m) fallback).
    Rebuild,
    /// Nothing to do (e.g. adding edges that were all already present).
    Noop,
}

impl Maintenance {
    /// Stable wire tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            Maintenance::Incremental => "incremental",
            Maintenance::Rebuild => "rebuild",
            Maintenance::Noop => "noop",
        }
    }
}

/// State of a session handle after a successful create or mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    /// The handle naming the session on the wire.
    pub handle: String,
    /// Vertices currently in the session graph.
    pub vertices: usize,
    /// Edges currently in the session graph.
    pub edges: usize,
    /// Successful mutations absorbed since creation.
    pub mutations: u64,
    /// How this operation maintained the cotree.
    pub maintenance: Maintenance,
    /// Id assigned to the vertex inserted by `session_add_vertex`.
    pub new_vertex: Option<VertexId>,
}

/// Point-in-time description of one live session, for the stats surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The handle.
    pub handle: String,
    /// Vertices in the session graph.
    pub vertices: usize,
    /// Edges in the session graph.
    pub edges: usize,
    /// Successful mutations since creation.
    pub mutations: u64,
    /// Seconds since the handle was last touched.
    pub idle_secs: u64,
}

/// One resident graph: sorted adjacency (the source of truth for edge
/// queries and rebuilds), the incrementally maintained cotree, and the
/// lazily built solve entry whose memoised scalars a mutation invalidates.
struct Session {
    adjacency: Vec<Vec<VertexId>>,
    num_edges: usize,
    tree: IncrementalCotree,
    /// Memoised answers for the current graph; `None` right after a
    /// mutation (the only state a mutation invalidates).
    entry: Option<Arc<SolveEntry>>,
    mutations: u64,
    last_used: Instant,
}

impl Session {
    fn empty() -> Session {
        Session {
            adjacency: Vec::new(),
            num_edges: 0,
            tree: IncrementalCotree::new(),
            entry: None,
            mutations: 0,
            last_used: Instant::now(),
        }
    }

    fn from_graph(g: &Graph) -> Result<Session, ServiceError> {
        let tree = IncrementalCotree::from_graph(g)
            .map_err(|e| ServiceError::from_recognition(e, g.num_vertices()))?;
        let mut adjacency = vec![Vec::new(); g.num_vertices()];
        for (u, v) in g.edges() {
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }
        Ok(Session {
            adjacency,
            num_edges: g.num_edges(),
            tree,
            entry: None,
            mutations: 0,
            last_used: Instant::now(),
        })
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adjacency[u as usize].binary_search(&v).is_ok()
    }

    /// The current edge set as `(u, v)` pairs with `u < v`.
    fn edge_list(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges = Vec::with_capacity(self.num_edges);
        for (u, nbrs) in self.adjacency.iter().enumerate() {
            let u = u as VertexId;
            for &v in nbrs {
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        edges
    }

    /// Marks the graph changed: the memoised scalars are exactly the state
    /// a mutation invalidates.
    fn invalidate(&mut self) {
        self.entry = None;
        self.mutations += 1;
    }
}

/// The engine's registry of live session handles.
///
/// The outer mutex only guards the handle map; each session has its own
/// lock, so mutations on distinct handles proceed in parallel. The idle
/// sweep uses `try_lock` — a locked session is in use and by definition
/// not idle.
pub struct SessionRegistry {
    inner: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    seed: u64,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> SessionRegistry {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ (std::process::id() as u64) << 32;
        SessionRegistry {
            inner: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            seed,
        }
    }

    /// Live handle count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no handles are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Mutex<Session>>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A fresh process-unique handle. The counter is mixed through an odd
    /// multiplier, so handles within one process never collide but are
    /// not trivially guessable across restarts.
    fn new_handle(&self) -> String {
        let seq = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mixed = (self.seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0x0100_0000_01b3)
            | 1 << 63;
        format!("sess-{mixed:016x}")
    }

    fn get(&self, handle: &str) -> Result<Arc<Mutex<Session>>, ServiceError> {
        self.lock()
            .get(handle)
            .cloned()
            .ok_or_else(|| ServiceError::SessionNotFound(handle.to_string()))
    }

    /// Reclaims handles idle for at least `ttl`. Sessions currently locked
    /// by another thread are in use, hence skipped.
    fn sweep(&self, ttl: Duration, telemetry: &Telemetry) {
        let mut map = self.lock();
        map.retain(|_, slot| match slot.try_lock() {
            Ok(session) => {
                if session.last_used.elapsed() >= ttl {
                    telemetry.add(Metric::SessionsExpired, 0, 1);
                    false
                } else {
                    true
                }
            }
            Err(_) => true,
        });
    }
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

/// Lowers a [`GraphSpec`] to a concrete graph for session seeding; cotree
/// inputs are materialised.
fn graph_from_spec(spec: &GraphSpec) -> Result<Graph, ServiceError> {
    let ingested = match spec {
        GraphSpec::Shared => {
            return Err(ServiceError::BadRequest(
                "session_create cannot use the shared batch graph".to_string(),
            ))
        }
        GraphSpec::EdgeList(text) => ingest::parse(text, GraphFormat::EdgeList)?,
        GraphSpec::Dimacs(text) => ingest::parse(text, GraphFormat::Dimacs)?,
        GraphSpec::CotreeTerm(text) => ingest::parse(text, GraphFormat::CotreeTerm)?,
        GraphSpec::Graph(g) => return Ok(g.clone()),
        GraphSpec::Cotree(t) => return Ok(t.to_graph()),
    };
    Ok(match ingested {
        Ingested::Graph(g) => g,
        Ingested::Cotree(t) => t.to_graph(),
    })
}

impl QueryEngine {
    /// Runs the opportunistic idle sweep, then hands back the registry.
    fn swept_sessions(&self) -> &SessionRegistry {
        self.sessions
            .sweep(self.config().session_idle_ttl, self.telemetry());
        &self.sessions
    }

    /// Creates a session, optionally seeded with an inline graph (which
    /// pays one full recognition, tagged as a rebuild). An empty session
    /// grows from zero vertices via `session_add_vertex`.
    pub fn session_create(
        &self,
        initial: Option<&GraphSpec>,
    ) -> Result<SessionState, ServiceError> {
        let registry = self.swept_sessions();
        let session = match initial {
            None => Session::empty(),
            Some(spec) => {
                let graph = graph_from_spec(spec)?;
                let session = Session::from_graph(&graph)?;
                self.telemetry().add(Metric::SessionRecognizeRebuild, 0, 1);
                session
            }
        };
        let maintenance = if initial.is_some() {
            Maintenance::Rebuild
        } else {
            Maintenance::Noop
        };
        let state = SessionState {
            handle: registry.new_handle(),
            vertices: session.adjacency.len(),
            edges: session.num_edges,
            mutations: 0,
            maintenance,
            new_vertex: None,
        };
        {
            let mut map = registry.lock();
            if map.len() >= self.config().max_sessions {
                return Err(ServiceError::TooManySessions {
                    max: self.config().max_sessions,
                });
            }
            map.insert(state.handle.clone(), Arc::new(Mutex::new(session)));
        }
        self.telemetry().add(Metric::SessionsCreated, 0, 1);
        Ok(state)
    }

    /// Inserts a new vertex adjacent to exactly `neighbors`, maintaining
    /// the cotree via the incremental O(d) insertion pass. On an illegal
    /// insertion the session is untouched and the error carries the
    /// certified induced-`P_4` of the would-be graph.
    pub fn session_add_vertex(
        &self,
        handle: &str,
        neighbors: &[VertexId],
    ) -> Result<SessionState, ServiceError> {
        let slot = self.swept_sessions().get(handle)?;
        let mut session = slot.lock().unwrap_or_else(|e| e.into_inner());
        session.last_used = Instant::now();
        let n = session.adjacency.len();
        validate_neighbors(neighbors, n)?;
        match session.tree.try_add_vertex(neighbors) {
            Ok(id) => {
                let mut sorted = neighbors.to_vec();
                sorted.sort_unstable();
                for &u in &sorted {
                    session.adjacency[u as usize].push(id);
                }
                session.adjacency.push(sorted);
                session.num_edges += neighbors.len();
                session.invalidate();
                self.telemetry().add(Metric::SessionMutations, 0, 1);
                self.telemetry()
                    .add(Metric::SessionRecognizeIncremental, 0, 1);
                Ok(SessionState {
                    handle: handle.to_string(),
                    vertices: session.adjacency.len(),
                    edges: session.num_edges,
                    mutations: session.mutations,
                    maintenance: Maintenance::Incremental,
                    new_vertex: Some(id),
                })
            }
            Err(_) => {
                // Re-run batch recognition on the candidate graph purely to
                // extract the certificate; the session itself is untouched.
                let mut edges = session.edge_list();
                edges.extend(neighbors.iter().map(|&u| (u, n as VertexId)));
                let candidate =
                    Graph::from_edges(n + 1, &edges).expect("validated edges build a graph");
                Err(certified_rejection(&candidate))
            }
        }
    }

    /// Adds edges between existing vertices. Already-present edges are
    /// skipped (idempotent); if any edge is new the cotree is rebuilt from
    /// scratch. A rebuild that finds an induced `P_4` leaves the session
    /// at its last-good state.
    pub fn session_add_edges(
        &self,
        handle: &str,
        edges: &[(VertexId, VertexId)],
    ) -> Result<SessionState, ServiceError> {
        let slot = self.swept_sessions().get(handle)?;
        let mut session = slot.lock().unwrap_or_else(|e| e.into_inner());
        session.last_used = Instant::now();
        let n = session.adjacency.len();
        for &(u, v) in edges {
            validate_edge(u, v, n)?;
        }
        let mut fresh: Vec<(VertexId, VertexId)> = Vec::new();
        for &(u, v) in edges {
            let (u, v) = (u.min(v), u.max(v));
            if !session.has_edge(u, v) && !fresh.contains(&(u, v)) {
                fresh.push((u, v));
            }
        }
        if fresh.is_empty() {
            return Ok(SessionState {
                handle: handle.to_string(),
                vertices: n,
                edges: session.num_edges,
                mutations: session.mutations,
                maintenance: Maintenance::Noop,
                new_vertex: None,
            });
        }
        let mut all = session.edge_list();
        all.extend(fresh.iter().copied());
        self.session_rebuild(&mut session, handle, n, all)
    }

    /// Removes one edge; a missing edge is a recoverable `invalid` error.
    /// Edge removal is outside the insertion pass, so the cotree rebuilds
    /// from scratch. Removing an edge can *introduce* an induced `P_4`
    /// (cographs are not closed under edge deletion), in which case the
    /// removal is rejected and the session stays at its last-good state.
    pub fn session_remove_edge(
        &self,
        handle: &str,
        u: VertexId,
        v: VertexId,
    ) -> Result<SessionState, ServiceError> {
        let slot = self.swept_sessions().get(handle)?;
        let mut session = slot.lock().unwrap_or_else(|e| e.into_inner());
        session.last_used = Instant::now();
        let n = session.adjacency.len();
        validate_edge(u, v, n)?;
        if !session.has_edge(u, v) {
            return Err(ServiceError::InvalidVertex(format!(
                "edge {u}-{v} is not in the session graph"
            )));
        }
        let (u, v) = (u.min(v), u.max(v));
        let all: Vec<(VertexId, VertexId)> = session
            .edge_list()
            .into_iter()
            .filter(|&e| e != (u, v))
            .collect();
        self.session_rebuild(&mut session, handle, n, all)
    }

    /// Swaps the session to the graph described by `edges` iff it is still
    /// a cograph; the last-good state survives a rejection.
    fn session_rebuild(
        &self,
        session: &mut Session,
        handle: &str,
        n: usize,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Result<SessionState, ServiceError> {
        let candidate = Graph::from_edges(n, &edges).expect("validated edges build a graph");
        let rebuilt = Session::from_graph(&candidate)?;
        self.telemetry().add(Metric::SessionRecognizeRebuild, 0, 1);
        let mutations = session.mutations + 1;
        *session = Session {
            mutations,
            ..rebuilt
        };
        self.telemetry().add(Metric::SessionMutations, 0, 1);
        Ok(SessionState {
            handle: handle.to_string(),
            vertices: n,
            edges: session.num_edges,
            mutations,
            maintenance: Maintenance::Rebuild,
            new_vertex: None,
        })
    }

    /// Answers `kind` against the resident cotree with a synthesized trace
    /// ID; see [`QueryEngine::session_query_ctx`].
    pub fn session_query(&self, handle: &str, kind: QueryKind) -> QueryResponse {
        self.session_query_ctx(handle, kind, &RequestCtx::generate())
    }

    /// Answers `kind` against the session's resident cotree — without
    /// re-recognition — keeping the verify-before-return discipline: the
    /// solve path is the engine's own, including cover verification on the
    /// cotree.
    ///
    /// Cache metadata reports `hit` when the memoised entry was resident
    /// and `miss` when this query rebuilt it after a mutation.
    pub fn session_query_ctx(
        &self,
        handle: &str,
        kind: QueryKind,
        ctx: &RequestCtx,
    ) -> QueryResponse {
        self.traced(ctx, |ctx| {
            let mut timeline = Timeline::new(self.telemetry(), ctx);
            let resolved = self.session_resolve(handle, ctx, &mut timeline);
            let job = resolved.map(|(resolved, vertices)| {
                let (outcome, solve_us) = self.solve(kind, &resolved, &mut timeline);
                Solved {
                    resolved,
                    vertices,
                    outcome,
                    solve_us,
                }
            });
            let response = self.respond(None, kind, job, &timeline, ctx);
            let end = trace_end(&response);
            (response, Some(end))
        })
    }

    /// Locks the session and lifts its resident cotree into the engine's
    /// solve-side [`Resolved`], building the memoised entry only when a
    /// mutation invalidated it. The lock wait is a `session:lock_wait`
    /// span; neither it nor the entry build lands in a stage.
    ///
    /// With a deadline on `ctx` the lock wait itself is bounded: the lock
    /// is polled until it is free or the deadline passes, so a query
    /// queued behind a long mutation fails `deadline_exceeded` instead of
    /// blocking past its budget.
    fn session_resolve(
        &self,
        handle: &str,
        ctx: &RequestCtx,
        timeline: &mut Timeline<'_>,
    ) -> Result<(Resolved, usize), ServiceError> {
        let slot = self.swept_sessions().get(handle)?;
        timeline.skip();
        let mut session = match ctx.deadline {
            None => slot.lock().unwrap_or_else(|e| e.into_inner()),
            Some(_) => loop {
                match slot.try_lock() {
                    Ok(session) => break session,
                    Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                        break poisoned.into_inner()
                    }
                    Err(std::sync::TryLockError::WouldBlock) => {
                        if ctx.deadline_expired() {
                            timeline.span("session:lock_wait");
                            return Err(ServiceError::DeadlineExceeded);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            },
        };
        timeline.span("session:lock_wait");
        session.last_used = Instant::now();
        if session.adjacency.is_empty() {
            return Err(ServiceError::EmptyGraph);
        }
        let cache = if session.entry.is_some() {
            CacheStatus::Hit
        } else {
            session.entry = Some(Arc::new(SolveEntry::new(session.tree.to_cotree())));
            CacheStatus::Miss
        };
        let entry = session.entry.as_ref().expect("entry just ensured").clone();
        let vertices = session.adjacency.len();
        timeline.skip();
        Ok((
            Resolved {
                entry,
                graph: None,
                cache,
            },
            vertices,
        ))
    }

    /// Drops a session handle explicitly.
    pub fn session_drop(&self, handle: &str) -> Result<(), ServiceError> {
        let removed = self.swept_sessions().lock().remove(handle);
        match removed {
            Some(_) => {
                self.telemetry().add(Metric::SessionsDropped, 0, 1);
                Ok(())
            }
            None => Err(ServiceError::SessionNotFound(handle.to_string())),
        }
    }

    /// Point-in-time descriptions of every live session, sorted by handle
    /// (stats surface; in-use sessions report their last known shape).
    pub fn session_stats(&self) -> Vec<SessionInfo> {
        let registry = self.swept_sessions();
        let slots: Vec<(String, Arc<Mutex<Session>>)> = registry
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut infos: Vec<SessionInfo> = slots
            .into_iter()
            .map(|(handle, slot)| {
                let session = slot.lock().unwrap_or_else(|e| e.into_inner());
                SessionInfo {
                    handle,
                    vertices: session.adjacency.len(),
                    edges: session.num_edges,
                    mutations: session.mutations,
                    idle_secs: session.last_used.elapsed().as_secs(),
                }
            })
            .collect();
        infos.sort_by(|a, b| a.handle.cmp(&b.handle));
        infos
    }
}

/// `session_add_vertex` boundary validation: neighbours must name existing
/// vertices, each at most once.
fn validate_neighbors(neighbors: &[VertexId], n: usize) -> Result<(), ServiceError> {
    for (i, &u) in neighbors.iter().enumerate() {
        if (u as usize) >= n {
            return Err(ServiceError::InvalidVertex(format!(
                "neighbor {u} out of range (session has {n} vertices)"
            )));
        }
        if neighbors[..i].contains(&u) {
            return Err(ServiceError::InvalidVertex(format!(
                "neighbor {u} listed more than once"
            )));
        }
    }
    Ok(())
}

/// Edge-endpoint boundary validation: in range and no self-loop.
fn validate_edge(u: VertexId, v: VertexId, n: usize) -> Result<(), ServiceError> {
    if (u as usize) >= n || (v as usize) >= n {
        let bad = if (u as usize) >= n { u } else { v };
        return Err(ServiceError::InvalidVertex(format!(
            "vertex {bad} out of range (session has {n} vertices)"
        )));
    }
    if u == v {
        return Err(ServiceError::InvalidVertex(format!("self-loop {u}-{v}")));
    }
    Ok(())
}

/// Extracts the certified rejection for a graph the incremental pass
/// refused. The batch recogniser inserts vertices in the same id order the
/// session grew in, so it must fail on the same insertion and yield an
/// induced-`P_4` witness.
fn certified_rejection(candidate: &Graph) -> ServiceError {
    match cograph::try_recognize(candidate) {
        Err(e) => ServiceError::from_recognition(e, candidate.num_vertices()),
        Ok(_) => ServiceError::JobPanicked(
            "incremental insertion rejected a graph batch recognition accepts".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::model::Answer;
    use crate::Json;

    fn engine() -> QueryEngine {
        QueryEngine::default()
    }

    #[test]
    fn empty_session_grows_vertex_by_vertex() {
        let e = engine();
        let created = e.session_create(None).expect("create");
        let h = created.handle.clone();
        assert_eq!(created.vertices, 0);
        assert_eq!(created.maintenance, Maintenance::Noop);

        // Build K3 one vertex at a time: every insertion is incremental.
        assert_eq!(e.session_add_vertex(&h, &[]).unwrap().new_vertex, Some(0));
        assert_eq!(e.session_add_vertex(&h, &[0]).unwrap().new_vertex, Some(1));
        let s = e.session_add_vertex(&h, &[0, 1]).unwrap();
        assert_eq!(s.new_vertex, Some(2));
        assert_eq!(s.vertices, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.maintenance, Maintenance::Incremental);

        let resp = e.session_query(&h, QueryKind::MinCoverSize);
        assert_eq!(resp.outcome, Ok(Answer::MinCoverSize { size: 1 }));
        assert_eq!(resp.meta.cache, CacheStatus::Miss);
        assert_eq!(resp.meta.vertices, 3);
        // Second query on the untouched session hits the resident entry.
        let again = e.session_query(&h, QueryKind::HamiltonianCycle);
        assert_eq!(again.outcome, Ok(Answer::HamiltonianCycle { exists: true }));
        assert_eq!(again.meta.cache, CacheStatus::Hit);
        e.session_drop(&h).expect("drop");
        assert!(matches!(
            e.session_query(&h, QueryKind::MinCoverSize).outcome,
            Err(ServiceError::SessionNotFound(_))
        ));
    }

    #[test]
    fn illegal_insertion_certifies_and_preserves_state() {
        let e = engine();
        // Path 0-1-2 (a cograph); adding vertex 3 adjacent only to 2 would
        // complete the P4 0-1-2-3.
        let h = e
            .session_create(Some(&GraphSpec::EdgeList("0 1\n1 2\n".to_string())))
            .expect("P3 is a cograph")
            .handle;
        let Err(ServiceError::NotACograph { vertices, witness }) = e.session_add_vertex(&h, &[2])
        else {
            panic!("P4 completion must be rejected");
        };
        assert_eq!(vertices, 4);
        let p4 = pcgraph::generators::path_graph(4);
        assert!(
            cograph::InducedP4 { path: witness }.verify(&p4),
            "witness {witness:?} is not an induced P4 of the candidate"
        );
        // Last-good state: the session still answers for P3.
        let resp = e.session_query(&h, QueryKind::Recognize);
        match resp.outcome.expect("session survived the rejection") {
            Answer::Recognized {
                vertices, edges, ..
            } => {
                assert_eq!(vertices, 3);
                assert_eq!(edges, 2);
            }
            other => panic!("wrong answer: {other:?}"),
        }
        // And it still accepts a legal insertion afterwards.
        let s = e.session_add_vertex(&h, &[0, 1, 2]).expect("join vertex");
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 5);
    }

    #[test]
    fn edge_mutations_rebuild_and_validate() {
        let e = engine();
        let h = e
            .session_create(Some(&GraphSpec::EdgeList("0 1\n2 3\n".to_string())))
            .expect("2K2 is a cograph")
            .handle;
        // Out-of-range and self-loop ids never reach the recogniser.
        assert!(matches!(
            e.session_add_edges(&h, &[(0, 9)]),
            Err(ServiceError::InvalidVertex(_))
        ));
        assert!(matches!(
            e.session_remove_edge(&h, 1, 1),
            Err(ServiceError::InvalidVertex(_))
        ));
        assert!(matches!(
            e.session_remove_edge(&h, 0, 2),
            Err(ServiceError::InvalidVertex(_))
        ));
        // Adding 1-2 alone would create the P4 0-1-2-3: rejected, state kept.
        assert!(matches!(
            e.session_add_edges(&h, &[(1, 2)]),
            Err(ServiceError::NotACograph { .. })
        ));
        let kept = e.session_query(&h, QueryKind::MinCoverSize);
        assert_eq!(kept.outcome, Ok(Answer::MinCoverSize { size: 2 }));
        // Adding both 1-2 and 0-3 (and a duplicate) forms C4 = K_{2,2}.
        let s = e
            .session_add_edges(&h, &[(1, 2), (0, 3), (0, 1)])
            .expect("C4 is a cograph");
        assert_eq!(s.maintenance, Maintenance::Rebuild);
        assert_eq!(s.edges, 4);
        // All-duplicate adds are a no-op.
        let noop = e.session_add_edges(&h, &[(0, 1)]).unwrap();
        assert_eq!(noop.maintenance, Maintenance::Noop);
        assert_eq!(noop.mutations, s.mutations);
        // Removing 1-2 from C4 leaves the path 1-0-3-2, an induced P4:
        // the removal is rejected and the last-good state kept.
        assert!(matches!(
            e.session_remove_edge(&h, 1, 2),
            Err(ServiceError::NotACograph { .. })
        ));
        let c4 = e.session_query(&h, QueryKind::HamiltonianCycle);
        assert_eq!(c4.outcome, Ok(Answer::HamiltonianCycle { exists: true }));
        // A fresh K3 session exercises the successful-removal path.
        let h2 = e
            .session_create(Some(&GraphSpec::EdgeList("0 1\n0 2\n1 2\n".to_string())))
            .expect("K3")
            .handle;
        let removed = e.session_remove_edge(&h2, 0, 1).expect("P3 is a cograph");
        assert_eq!(removed.maintenance, Maintenance::Rebuild);
        assert_eq!(removed.edges, 2);
        let resp = e.session_query(&h2, QueryKind::MinCoverSize);
        assert_eq!(resp.outcome, Ok(Answer::MinCoverSize { size: 1 }));
    }

    #[test]
    fn admission_cap_and_idle_ttl() {
        let e = QueryEngine::new(EngineConfig {
            max_sessions: 2,
            session_idle_ttl: Duration::from_millis(0),
            ..EngineConfig::default()
        });
        // TTL 0 means every registry touch reclaims idle handles; verify
        // expiry is observed via the gauges.
        let h1 = e.session_create(None).unwrap().handle;
        let _ = h1;
        let report = e.metrics_report();
        assert_eq!(report.values(Metric::SessionsCreated), [1]);
        // The next registry op sweeps the (instantly idle) handle away.
        let h2 = e.session_create(None).unwrap().handle;
        let report = e.metrics_report();
        assert_eq!(report.values(Metric::SessionsExpired), [1]);
        assert!(matches!(
            e.session_drop(&h2),
            Err(ServiceError::SessionNotFound(_))
        ));

        // With a long TTL the cap holds.
        let e = QueryEngine::new(EngineConfig {
            max_sessions: 2,
            ..EngineConfig::default()
        });
        e.session_create(None).unwrap();
        e.session_create(None).unwrap();
        assert!(matches!(
            e.session_create(None),
            Err(ServiceError::TooManySessions { max: 2 })
        ));
        assert_eq!(e.session_stats().len(), 2);
        let live = e.metrics_report().values(Metric::SessionsLive)[0];
        assert_eq!(live, 2);
    }

    #[test]
    fn ttl_sweep_never_drops_a_handle_whose_lock_is_held() {
        let e = engine();
        let h = e
            .session_create(Some(&GraphSpec::EdgeList("0 1\n".to_string())))
            .expect("K2")
            .handle;
        // Simulate an in-flight session_query: hold the session's own lock
        // (exactly what session_resolve does while solving) and run the
        // sweep with an expired TTL. try_lock fails on a held lock, so the
        // handle must survive even though it looks idle by timestamp.
        let slot = e.sessions.get(&h).expect("handle is live");
        let guard = slot.lock().unwrap();
        e.sessions.sweep(Duration::from_millis(0), e.telemetry());
        assert!(
            e.sessions.lock().contains_key(&h),
            "sweep reclaimed a session whose lock was held by an in-flight query"
        );
        assert_eq!(e.metrics_report().values(Metric::SessionsExpired), [0]);
        drop(guard);
        // Released and instantly idle: the next sweep reclaims it.
        e.sessions.sweep(Duration::from_millis(0), e.telemetry());
        assert!(!e.sessions.lock().contains_key(&h));
        assert_eq!(e.metrics_report().values(Metric::SessionsExpired), [1]);
        assert!(matches!(
            e.session_query(&h, QueryKind::MinCoverSize).outcome,
            Err(ServiceError::SessionNotFound(_))
        ));
    }

    #[test]
    fn session_query_lock_wait_honors_the_deadline() {
        let e = engine();
        let h = e
            .session_create(Some(&GraphSpec::EdgeList("0 1\n".to_string())))
            .expect("K2")
            .handle;
        // A long mutation holds the session lock; a deadlined query queued
        // behind it must give up with deadline_exceeded instead of blocking
        // past its budget (try_lock + bounded poll, never a blocking lock).
        let slot = e.sessions.get(&h).expect("handle is live");
        let guard = slot.lock().unwrap();
        let ctx = RequestCtx::generate().with_deadline_ms(Some(30));
        let resp = e.session_query_ctx(&h, QueryKind::MinCoverSize, &ctx);
        assert_eq!(resp.outcome, Err(ServiceError::DeadlineExceeded));
        assert_eq!(e.metrics_report().values(Metric::DeadlineExceeded), [1]);
        drop(guard);
        // Lock free again: the same query (fresh deadline) succeeds.
        let ctx = RequestCtx::generate().with_deadline_ms(Some(60_000));
        let resp = e.session_query_ctx(&h, QueryKind::MinCoverSize, &ctx);
        assert_eq!(resp.outcome, Ok(Answer::MinCoverSize { size: 1 }));
    }

    #[test]
    fn session_cap_rejections_are_recoverable_and_retryable() {
        let e = QueryEngine::new(EngineConfig {
            max_sessions: 1,
            ..EngineConfig::default()
        });
        let h = e.session_create(None).unwrap().handle;
        let error = e.session_create(None).expect_err("cap reached");
        assert_eq!(error, ServiceError::TooManySessions { max: 1 });
        // The rejection is typed for machine handling...
        assert_eq!(error.code(), "too_many_sessions");
        let body = error.wire_body();
        assert_eq!(
            body.get("code").and_then(Json::as_str),
            Some("too_many_sessions")
        );
        // ...and recoverable: the registry and the existing handle are
        // untouched, so the client can retry after dropping a handle.
        assert_eq!(e.session_stats().len(), 1);
        let resp = e.session_query(&h, QueryKind::Recognize);
        assert!(matches!(resp.outcome, Err(ServiceError::EmptyGraph)));
        e.session_drop(&h).expect("drop");
        e.session_create(None)
            .expect("retry succeeds once a slot frees up");
    }

    #[test]
    fn session_queries_never_rerecognize() {
        let e = engine();
        let h = e.session_create(None).unwrap().handle;
        // Grow a 12-vertex threshold graph; every insertion is absorbed
        // incrementally.
        for i in 0..12u32 {
            let neighbors: Vec<VertexId> = if i % 2 == 0 {
                Vec::new()
            } else {
                (0..i).collect()
            };
            e.session_add_vertex(&h, &neighbors)
                .expect("legal insertion");
            let resp = e.session_query(&h, QueryKind::MinCoverSize);
            assert!(resp.outcome.is_ok());
        }
        let report = e.metrics_report();
        assert_eq!(report.values(Metric::SessionRecognizeIncremental), [12]);
        assert_eq!(report.values(Metric::SessionRecognizeRebuild), [0]);
        assert_eq!(report.values(Metric::SessionMutations), [12]);
        // The pipeline's recognize stage never ran for any of this.
        let stages = report.histograms(Metric::StageLatency);
        let recognize_stage = &stages[crate::telemetry::Stage::Recognize as usize];
        assert_eq!(
            recognize_stage.count, 0,
            "session path must not re-recognize"
        );
        // Cross-check against one-shot answers on the same graph.
        let mut edges = Vec::new();
        for i in (1..12u32).step_by(2) {
            for j in 0..i {
                edges.push((j, i));
            }
        }
        let text = edges
            .iter()
            .map(|(u, v)| format!("{u} {v}"))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n11\n";
        let oneshot = e.execute(&crate::model::QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::EdgeList(text),
        ));
        assert_eq!(
            e.session_query(&h, QueryKind::MinCoverSize).outcome,
            oneshot.outcome
        );
    }
}
