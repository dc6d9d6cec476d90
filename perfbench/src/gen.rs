//! Seeded workloads: the graphs, the per-caller request streams and the
//! facts the reply oracle checks them against.
//!
//! Everything here is a pure function of `(workload, seed, callers)`; the
//! daemon only ever sees the bytes [`Plan::encode`] produces.

use cograph::{random_cotree, Cotree, CotreeKind, CotreeShape, IncrementalCotree};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The benchmark's traffic mixes; see the package README for why each
/// exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Small inline edge lists, Zipf-repeated against the cotree cache.
    HotSmall,
    /// Large cotree terms whose cost is solve and verify.
    BigCover,
    /// Session create / grow / query / drop loops.
    SessionChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotSmall,
        Workload::BigCover,
        Workload::SessionChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSmall => "hot-small",
            Workload::BigCover => "big-cover",
            Workload::SessionChurn => "session-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency limit a reply must meet to count towards goodput.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::HotSmall => 10.0,
            Workload::BigCover => 5000.0,
            Workload::SessionChurn => 50.0,
        }
    }

    /// The generator parameters, as printed in the run stamp.
    pub fn params(self) -> &'static str {
        match self {
            Workload::HotSmall => {
                "edge lists of mixed cotrees, n=16..64 fixed per Zipf rank, density 0.2..0.8 \
                 (+-0.04) fixed per warmed rank; 4096 graphs; per caller a block of 1000 \
                 (rank, kind) draws, Zipf(1) ranks stratified and 200 of each of the 5 kinds, \
                 shuffled, replayed block after block with ranks beyond the warm-up moved to \
                 other cold graphs each block; v1 solve; fresh connection every 50th request; \
                 warm-up = 1024 hottest graphs"
            }
            Workload::BigCover => {
                "cotree terms = unions of mixed cotrees of 100..220 vertices and density 0.5 \
                 (+-0.04) from a fixed pool of 363; 49 graphs at fixed log-uniform \
                 n=2048..16384, each with a fixed kind (35 full_cover, 5 min_cover_size, 5 \
                 hamiltonian_path, 4 recognize, spread over the sizes), + one n=65536 graph; \
                 every block of 50 requests = the 49 in a fixed order + the n=65536 \
                 full_cover at position 25; warm-up = one n=65536 full_cover + one \
                 min_cover_size per small graph"
            }
            Workload::SessionChurn => {
                "per caller 40 scripts cycled: session_create from an edge-list cograph \
                 n=48..95 and density 0.2..0.8 (+-0.04) stratified (every 5th a near-cograph \
                 refused with a P4), 16 x (session_add_vertex twin, every 4th one illegal + \
                 session_query random kind), session_drop; v2 envelope; warm-up = 32 scripts"
            }
        }
    }
}

/// The five query kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    MinCoverSize,
    FullCover,
    HamiltonianPath,
    HamiltonianCycle,
    Recognize,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::MinCoverSize,
        Kind::FullCover,
        Kind::HamiltonianPath,
        Kind::HamiltonianCycle,
        Kind::Recognize,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MinCoverSize => "min_cover_size",
            Kind::FullCover => "full_cover",
            Kind::HamiltonianPath => "hamiltonian_path",
            Kind::HamiltonianCycle => "hamiltonian_cycle",
            Kind::Recognize => "recognize",
        }
    }
}

/// The two wire transports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transport {
    /// `pcp1`/`pcp2` frames on the unix socket.
    Framed,
    /// HTTP/1.1 keep-alive on TCP.
    Http,
}

impl Transport {
    /// The transport of the request at position `j` of a block of caller
    /// `i`: callers alternate request by request, and the phase flips every
    /// 50 requests so that a class sent at a fixed position of every 50
    /// uses both transports within a block.
    pub fn of(i: usize, j: u64) -> Transport {
        if (i as u64 + j + j / 50).is_multiple_of(2) {
            Transport::Framed
        } else {
            Transport::Http
        }
    }

    /// Index for per-transport arrays.
    pub fn index(self) -> usize {
        match self {
            Transport::Framed => 0,
            Transport::Http => 1,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Transport::Framed => "proto",
            Transport::Http => "http",
        }
    }
}

/// One request of a stream. Session requests name a script step; the
/// session handle is substituted when the bytes are encoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Req {
    Solve { graph: u32, kind: Kind },
    Create { script: u32 },
    AddVertex { script: u32, step: u16 },
    Query { script: u32, step: u16 },
    Drop { script: u32 },
}

/// What the oracle knows about one graph: its cotree and the answers.
#[derive(Debug)]
pub struct Case {
    pub tree: Cotree,
    /// Cotree leaf node of each vertex id as the daemon numbers vertices.
    pub leaf_of: Vec<usize>,
    /// Depth of every cotree node (root = 0), for LCA walks.
    pub depth: Vec<u32>,
    pub n: usize,
    pub m: u64,
    pub min_cover: usize,
    pub ham_cycle: bool,
}

impl Case {
    /// `leaf_of` maps daemon vertex ids to leaves; `None` means the ids are
    /// the cotree's own leaf labels.
    pub fn new(tree: Cotree, leaf_of: Option<Vec<usize>>) -> Case {
        let leaf_of = leaf_of.unwrap_or_else(|| {
            let mut by_label = vec![usize::MAX; tree.num_vertices()];
            for u in 0..tree.num_nodes() {
                if let CotreeKind::Leaf(v) = tree.kind(u) {
                    by_label[v as usize] = u;
                }
            }
            by_label
        });
        let mut depth = vec![0u32; tree.num_nodes()];
        let mut stack = vec![tree.root()];
        while let Some(u) = stack.pop() {
            for &c in tree.children(u) {
                depth[c] = depth[u] + 1;
                stack.push(c);
            }
        }
        Case {
            n: tree.num_vertices(),
            m: edge_count(&tree),
            min_cover: pathcover::sequential_path_cover(&tree).len(),
            ham_cycle: pathcover::has_hamiltonian_cycle(&tree),
            tree,
            leaf_of,
            depth,
        }
    }

    /// `true` when vertices `u` and `v` are adjacent: their lowest common
    /// ancestor is a join node. O(height), no graph materialised.
    pub fn adjacent(&self, u: u32, v: u32) -> bool {
        let (mut a, mut b) = (self.leaf_of[u as usize], self.leaf_of[v as usize]);
        if a == b {
            return false;
        }
        while self.depth[a] > self.depth[b] {
            a = self.tree.parent(a);
        }
        while self.depth[b] > self.depth[a] {
            b = self.tree.parent(b);
        }
        while a != b {
            a = self.tree.parent(a);
            b = self.tree.parent(b);
        }
        self.tree.kind(a) == CotreeKind::Join
    }
}

/// Edge count of a cotree's graph: at each join node, the sum over child
/// pairs of the products of their leaf counts.
pub fn edge_count(tree: &Cotree) -> u64 {
    let mut size = vec![0u64; tree.num_nodes()];
    let mut m = 0u64;
    for u in tree.postorder() {
        match tree.kind(u) {
            CotreeKind::Leaf(_) => size[u] = 1,
            kind => {
                let kids = tree.children(u);
                let total: u64 = kids.iter().map(|&c| size[c]).sum();
                if kind == CotreeKind::Join {
                    let squares: u64 = kids.iter().map(|&c| size[c] * size[c]).sum();
                    m += (total * total - squares) / 2;
                }
                size[u] = total;
            }
        }
    }
    m
}

/// Term notation with leaves named `0, 1, 2, ...` in order of appearance
/// (the daemon numbers term leaves that way), plus the leaf node of each
/// such id.
pub fn term_of(tree: &Cotree) -> (String, Vec<usize>) {
    enum Step {
        Node(usize),
        Space,
        Close,
    }
    let mut out = String::new();
    let mut leaves = Vec::with_capacity(tree.num_vertices());
    let mut stack = vec![Step::Node(tree.root())];
    while let Some(step) = stack.pop() {
        match step {
            Step::Space => out.push(' '),
            Step::Close => out.push(')'),
            Step::Node(u) => match tree.kind(u) {
                CotreeKind::Leaf(_) => {
                    out.push_str(&leaves.len().to_string());
                    leaves.push(u);
                }
                kind => {
                    out.push_str(if kind == CotreeKind::Join { "(j" } else { "(u" });
                    stack.push(Step::Close);
                    for &c in tree.children(u).iter().rev() {
                        stack.push(Step::Node(c));
                        stack.push(Step::Space);
                    }
                }
            },
        }
    }
    (out, leaves)
}

/// Edge-list text of a graph on vertices `0..n` (the last line names
/// vertex `n - 1` so trailing isolated vertices survive).
pub fn edge_list_text(n: usize, edges: &[(u32, u32)]) -> String {
    let mut out = String::with_capacity(edges.len() * 8 + 8);
    for &(u, v) in edges {
        out.push_str(&format!("{u} {v}\n"));
    }
    out.push_str(&format!("{}\n", n - 1));
    out
}

fn graph_edges(tree: &Cotree) -> Vec<(u32, u32)> {
    tree.to_graph().edges().collect()
}

/// One session loop of the `session-churn` workload.
#[derive(Debug)]
pub struct Script {
    /// The seed graph's edges (kept to check refusal witnesses).
    pub seed_n: usize,
    pub seed_edges: Vec<(u32, u32)>,
    /// The escaped edge-list text `session_create` sends.
    pub seed_body: Vec<u8>,
    /// `true` for a near-cograph seed the daemon must refuse.
    pub near: bool,
    /// The state right after `session_create` (absent when refused).
    pub created: Option<Arc<Case>>,
    pub steps: Vec<Step>,
}

/// One `session_add_vertex` + `session_query` round.
#[derive(Debug)]
pub struct Step {
    pub neighbors: Vec<u32>,
    /// The neighbor list as JSON array items, e.g. `3,7,9`.
    pub neighbors_text: Vec<u8>,
    /// Whether the benchmark's own incremental-cotree mirror accepted it.
    pub legal: bool,
    /// The vertex count before this insertion (the new vertex's id).
    pub before_n: usize,
    pub query: Kind,
    /// The session state after this step, which the query is answered on.
    pub after: Arc<Case>,
}

/// A whole workload: graphs, scripts and stream parameters.
#[derive(Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub callers: usize,
    /// Graphs of the solve workloads, indexed by `Req::Solve::graph`.
    pub cases: Vec<Case>,
    /// Escaped inline graph text per graph, sent as the field `field`.
    pub bodies: Vec<Vec<u8>>,
    pub field: &'static str,
    /// Zipf(1) cumulative weights over `cases` (`hot-small`).
    zipf: Vec<f64>,
    /// Graph ids of the 2048..16384 graphs and of the n = 65536 one
    /// (`big-cover`).
    pub small: Vec<u32>,
    pub big: u32,
    pub scripts: Vec<Script>,
    /// Scripts per caller (`session-churn`); caller `c` cycles scripts
    /// `c * per_caller ..`, the warm-up uses the scripts after those.
    pub per_caller: usize,
}

const HOT_GRAPHS: usize = 4096;
const HOT_WARM: usize = 1024;
/// Requests per `hot-small` block, and how far its cold ranks move from one
/// block to the next (coprime to the 3072 cold graphs).
const HOT_BLOCK: usize = 1000;
const COLD_SHIFT: u64 = 1031;
const BIG_SMALL: usize = 49;
const BIG_N: usize = 65536;
/// Requests per `big-cover` block: each small graph once, and the
/// n = 65536 graph at position [`BIG_AT`].
const BIG_BLOCK: usize = BIG_SMALL + 1;
const BIG_AT: usize = 25;
/// Component sizes of the `big-cover` graphs, and the pool's cotrees per
/// size.
const PART_MIN: usize = 100;
const PART_MAX: usize = 220;
const PART_VARIANTS: usize = 3;
/// Seed of the component pool, the same for every workload seed.
const POOL_SEED: u64 = 0x706f_6f6c;
const SCRIPTS_PER_CALLER: usize = 40;
const WARM_SCRIPTS: usize = 32;
const ROUNDS: usize = 16;

fn rng_for(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn escaped(text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(text.len() + text.len() / 4);
    crate::json::escape_into(text, &mut out);
    out
}

/// A mixed random cotree on `n` vertices whose edge density (edges over
/// vertex pairs) is within 0.04 of `density`, or the closest of 2000 draws.
/// The densities of such cotrees spread over all of 0..1; fixing them per
/// graph keeps what a seed's graphs cost close to every other seed's.
fn cotree_with_density(n: usize, density: f64, rng: &mut ChaCha8Rng) -> Cotree {
    let pairs = (n * (n - 1) / 2).max(1) as f64;
    let mut best: Option<(f64, Cotree)> = None;
    for _ in 0..2000 {
        let tree = random_cotree(n, CotreeShape::Mixed, rng);
        let off = (edge_count(&tree) as f64 / pairs - density).abs();
        if off <= 0.04 {
            return tree;
        }
        if best.as_ref().is_none_or(|(b, _)| off < *b) {
            best = Some((off, tree));
        }
    }
    best.expect("drawn above").1
}

/// Density `0.2..0.8` of the `k`-th of `count` stratified graphs, the
/// strata visited in a fixed order given by the multiplier `step`.
fn stratified_density(k: usize, count: usize, step: usize) -> f64 {
    0.2 + 0.6 * ((k * step % count) as f64 + 0.5) / count as f64
}

/// The components `big-cover` graphs are made of: [`PART_VARIANTS`] mixed
/// cotrees of every size `PART_MIN..=PART_MAX` and edge density 0.5,
/// indexed by size minus `PART_MIN`. They are drawn from a fixed seed, so
/// every workload seed builds its graphs from the same components; the
/// self-tests check that the paper pipeline completes on each. Freshly
/// drawn mixed cotrees of these sizes make it panic about once in 20000
/// ("legalisation did not converge"), which would fail about one
/// n = 65536 graph in ten.
pub fn component_pool() -> Vec<Vec<Cotree>> {
    let mut rng = rng_for(POOL_SEED, 0);
    (PART_MIN..=PART_MAX)
        .map(|size| {
            (0..PART_VARIANTS)
                .map(|_| cotree_with_density(size, 0.5, &mut rng))
                .collect()
        })
        .collect()
}

/// A union of pool components with `n >= PART_MIN` vertices in all: about
/// 40 edges per vertex (0.5 of a component's vertex pairs), however large
/// `n` is.
fn union_of_components(n: usize, pool: &[Vec<Cotree>], rng: &mut ChaCha8Rng) -> Cotree {
    let mut parts = Vec::new();
    let mut left = n;
    while left > 0 {
        // Leave nothing, or a remainder that one component fills.
        let size = if left <= PART_MAX {
            left
        } else {
            rng.gen_range(PART_MIN..=PART_MAX.min(left - PART_MIN))
        };
        let variants = &pool[size - PART_MIN];
        parts.push(variants[rng.gen_range(0..variants.len())].clone());
        left -= size;
    }
    Cotree::union_of(parts)
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, callers: usize) -> Plan {
        let mut plan = Plan {
            workload,
            seed,
            callers: callers.max(1),
            cases: Vec::new(),
            bodies: Vec::new(),
            field: "edge_list",
            zipf: Vec::new(),
            small: Vec::new(),
            big: 0,
            scripts: Vec::new(),
            per_caller: 0,
        };
        let mut rng = rng_for(seed, 0);
        match workload {
            Workload::HotSmall => {
                for rank in 0..HOT_GRAPHS {
                    // Sizes 16..=64 and densities scattered over the Zipf
                    // ranks by fixed permutations, so the hottest graphs have
                    // the same sizes and densities for every seed. The cold
                    // ranks, each drawn rarely, keep whatever density comes.
                    let n = 16 + rank * 29 % 49;
                    let tree = if rank < HOT_WARM {
                        cotree_with_density(n, stratified_density(rank, 61, 37), &mut rng)
                    } else {
                        random_cotree(n, CotreeShape::Mixed, &mut rng)
                    };
                    let text = edge_list_text(n, &graph_edges(&tree));
                    plan.bodies.push(escaped(&text));
                    plan.cases.push(Case::new(tree, None));
                }
                let mut total = 0.0;
                for rank in 0..HOT_GRAPHS {
                    total += 1.0 / (rank + 1) as f64;
                    plan.zipf.push(total);
                }
            }
            Workload::BigCover => {
                plan.field = "cotree";
                let pool = component_pool();
                for i in 0..=BIG_SMALL {
                    let n = if i < BIG_SMALL {
                        // Log-uniform over 2^11 ..= 2^14 at fixed points, so
                        // every seed has the same sizes (only shapes differ).
                        let exp = 11.0 + 3.0 * (i as f64 + 0.5) / BIG_SMALL as f64;
                        2f64.powf(exp).round() as usize
                    } else {
                        BIG_N
                    };
                    // The n = 65536 graph is the same for every seed: its
                    // shape alone moved set-up and the 99th percentile by
                    // a fifth from seed to seed.
                    let tree = if i < BIG_SMALL {
                        union_of_components(n, &pool, &mut rng)
                    } else {
                        union_of_components(n, &pool, &mut rng_for(POOL_SEED, 1))
                    };
                    let (term, leaves) = term_of(&tree);
                    plan.bodies.push(escaped(&term));
                    plan.cases.push(Case::new(tree, Some(leaves)));
                    if i < BIG_SMALL {
                        plan.small.push(i as u32);
                    } else {
                        plan.big = i as u32;
                    }
                }
            }
            Workload::SessionChurn => {
                plan.per_caller = SCRIPTS_PER_CALLER;
                let total = plan.callers * SCRIPTS_PER_CALLER + WARM_SCRIPTS;
                for s in 0..total {
                    // Stratified: every caller cycles the same spread of seed
                    // sizes and densities with exactly one near-cograph in
                    // five. Both are permuted along the cycle (17 and 7 are
                    // coprime to 40) so that sizes and densities cross.
                    // Warm-up scripts are always accepted, so set-up runs
                    // whole loops.
                    let i = s % SCRIPTS_PER_CALLER;
                    let near = s < plan.callers * SCRIPTS_PER_CALLER && i % 5 == 4;
                    let rank = i * 17 % SCRIPTS_PER_CALLER;
                    let n = 48 + (48 * rank + rng.gen_range(0..48usize)) / SCRIPTS_PER_CALLER;
                    let density = stratified_density(i, SCRIPTS_PER_CALLER, 7);
                    plan.scripts.push(script(&mut rng, n, density, near));
                }
            }
        }
        plan
    }

    /// The fixed warm-up prefix sent before timing starts.
    pub fn warmup(&self) -> Vec<Req> {
        match self.workload {
            Workload::HotSmall => (0..HOT_WARM as u32)
                .map(|graph| Req::Solve {
                    graph,
                    kind: Kind::MinCoverSize,
                })
                .collect(),
            Workload::BigCover => {
                let mut reqs = vec![Req::Solve {
                    graph: self.big,
                    kind: Kind::FullCover,
                }];
                reqs.extend(self.small.iter().map(|&graph| Req::Solve {
                    graph,
                    kind: Kind::MinCoverSize,
                }));
                reqs
            }
            Workload::SessionChurn => {
                let first = self.callers * self.per_caller;
                (first..first + WARM_SCRIPTS)
                    .flat_map(|s| self.script_reqs(s as u32))
                    .collect()
            }
        }
    }

    /// Every request of one session script, in order.
    pub fn script_reqs(&self, script: u32) -> Vec<Req> {
        let s = &self.scripts[script as usize];
        let mut reqs = vec![Req::Create { script }];
        if !s.near {
            for step in 0..s.steps.len() as u16 {
                reqs.push(Req::AddVertex { script, step });
                reqs.push(Req::Query { script, step });
            }
            reqs.push(Req::Drop { script });
        }
        reqs
    }

    /// The fixed kind of small `big-cover` graph `graph` (ids ascend with
    /// size): about 70% `full_cover` and 10% each of the others, spread
    /// evenly over the sizes, the same for every seed.
    pub fn small_kind(&self, graph: u32) -> Kind {
        match graph % 10 {
            3 => Kind::MinCoverSize,
            6 => Kind::HamiltonianPath,
            9 => Kind::Recognize,
            _ => Kind::FullCover,
        }
    }

    /// Requests per block of caller `caller`'s stream. Every block of a
    /// caller carries the same requests over the same transports: one pass
    /// over the caller's session scripts, each big-cover graph once, or the
    /// caller's hot-small draws (whose cold graphs change, so that they
    /// stay cache misses).
    pub fn block_len(&self, caller: usize) -> usize {
        match self.workload {
            Workload::HotSmall => HOT_BLOCK,
            Workload::BigCover => BIG_BLOCK,
            Workload::SessionChurn => (0..self.per_caller)
                .map(|s| {
                    self.script_reqs((caller * self.per_caller + s) as u32)
                        .len()
                })
                .sum(),
        }
    }

    /// The endless request stream of caller `caller`.
    pub fn stream(&self, caller: usize) -> Stream<'_> {
        let mut rng = rng_for(self.seed, 1 + caller as u64);
        let block = match self.workload {
            Workload::HotSmall => {
                // Stratified: one Zipf draw from each of HOT_BLOCK equal
                // slices of probability, and each kind equally often, so
                // that every seed's block has the same hot/cold and kind
                // mix; then shuffled.
                let mut block: Vec<(u32, Kind)> = (0..HOT_BLOCK)
                    .map(|k| {
                        let within = rng.gen_range(0..u32::MAX) as f64 / u32::MAX as f64;
                        let u = (k as f64 + within) / HOT_BLOCK as f64;
                        (self.zipf_rank(u), Kind::ALL[k % Kind::ALL.len()])
                    })
                    .collect();
                block.shuffle(&mut rng);
                block
            }
            Workload::BigCover => {
                // The same order for every seed (20 is coprime to 49, so
                // sizes alternate): which graphs follow the n = 65536 one,
                // whose memory the next few requests fault back in, would
                // otherwise move `p50_ms` from seed to seed.
                let mut block: Vec<(u32, Kind)> = (0..BIG_SMALL)
                    .map(|k| {
                        let graph = self.small[k * 20 % BIG_SMALL];
                        (graph, self.small_kind(graph))
                    })
                    .collect();
                block.insert(BIG_AT, (self.big, Kind::FullCover));
                block
            }
            Workload::SessionChurn => Vec::new(),
        };
        Stream {
            plan: self,
            caller,
            block_len: self.block_len(caller) as u64,
            count: 0,
            pending: Vec::new(),
            next_script: 0,
            block,
        }
    }

    /// The Zipf(1) rank over the `hot-small` graphs at cumulative
    /// probability `u` in `0..1`.
    fn zipf_rank(&self, u: f64) -> u32 {
        let x = u * self.zipf.last().expect("zipf weights");
        self.zipf
            .partition_point(|&w| w < x)
            .min(self.cases.len() - 1) as u32
    }

    /// Writes the wire bytes of `req` for `transport` into `out` (cleared
    /// first): one frame, or one HTTP/1.1 request with a
    /// `Content-Length` body. `handle` is the session handle for session
    /// requests.
    pub fn encode(&self, req: Req, transport: Transport, handle: &str, out: &mut Vec<u8>) {
        let mut body = Vec::with_capacity(256);
        let v2 = !matches!(req, Req::Solve { .. });
        match req {
            Req::Solve { graph, kind } => {
                if transport == Transport::Framed {
                    body.extend_from_slice(b"{\"type\":\"solve\",\"kind\":\"");
                } else {
                    body.extend_from_slice(b"{\"kind\":\"");
                }
                body.extend_from_slice(kind.name().as_bytes());
                body.extend_from_slice(b"\",\"");
                body.extend_from_slice(self.field.as_bytes());
                body.extend_from_slice(b"\":\"");
                body.extend_from_slice(&self.bodies[graph as usize]);
                body.extend_from_slice(b"\"}");
            }
            Req::Create { script } => {
                body.extend_from_slice(
                    b"{\"api_version\":2,\"op\":\"session_create\",\"target\":{\"edge_list\":\"",
                );
                body.extend_from_slice(&self.scripts[script as usize].seed_body);
                body.extend_from_slice(b"\"}}");
            }
            Req::AddVertex { script, step } => {
                session_head(&mut body, "session_add_vertex", handle);
                body.extend_from_slice(b",\"params\":{\"neighbors\":[");
                let s = &self.scripts[script as usize].steps[step as usize];
                body.extend_from_slice(&s.neighbors_text);
                body.extend_from_slice(b"]}}");
            }
            Req::Query { script, step } => {
                session_head(&mut body, "session_query", handle);
                body.extend_from_slice(b",\"params\":{\"kind\":\"");
                let kind = self.scripts[script as usize].steps[step as usize].query;
                body.extend_from_slice(kind.name().as_bytes());
                body.extend_from_slice(b"\"}}");
            }
            Req::Drop { .. } => {
                session_head(&mut body, "session_drop", handle);
                body.push(b'}');
            }
        }
        out.clear();
        match transport {
            Transport::Framed => {
                let tag = if v2 { 2 } else { 1 };
                out.extend_from_slice(format!("pcp{tag} {}\n", body.len()).as_bytes());
                out.extend_from_slice(&body);
                out.push(b'\n');
            }
            Transport::Http => {
                let path = if v2 { "/v2/query" } else { "/v1/solve" };
                out.extend_from_slice(
                    format!(
                        "POST {path} HTTP/1.1\r\nHost: pcservice\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    )
                    .as_bytes(),
                );
                out.extend_from_slice(&body);
            }
        }
    }
}

fn session_head(body: &mut Vec<u8>, op: &str, handle: &str) {
    body.extend_from_slice(b"{\"api_version\":2,\"op\":\"");
    body.extend_from_slice(op.as_bytes());
    body.extend_from_slice(b"\",\"target\":{\"session\":\"");
    body.extend_from_slice(handle.as_bytes());
    body.extend_from_slice(b"\"}");
}

/// Builds one session script: a seed cograph (or near-cograph) and, for
/// accepted seeds, [`ROUNDS`] insertions checked against an
/// [`IncrementalCotree`] mirror.
fn script(rng: &mut ChaCha8Rng, n: usize, density: f64, near: bool) -> Script {
    let tree = cotree_with_density(n, density, rng);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, v) in graph_edges(&tree) {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    if near {
        // Toggle vertex pairs until the graph stops being a cograph.
        loop {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            toggle(&mut adj, u, v);
            if cograph::try_recognize(&graph_of(&adj)).is_err() {
                break;
            }
        }
    }
    let seed_edges = edges_of(&adj);
    let seed_body = escaped(&edge_list_text(n, &seed_edges));
    if near {
        return Script {
            seed_n: n,
            seed_edges,
            seed_body,
            near,
            created: None,
            steps: Vec::new(),
        };
    }
    let mut mirror = IncrementalCotree::from_graph(&graph_of(&adj)).expect("seed is a cograph");
    let mut state = Arc::new(Case::new(mirror.to_cotree(), None));
    let created = Some(state.clone());
    let mut steps = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let before_n = adj.len();
        let v = rng.gen_range(0..before_n);
        // Every fourth insertion is illegal: a vertex adjacent only to a,
        // for an induced P3 a-b-c, closes the induced P4 x-a-b-c (a fixed,
        // small neighbourhood keeps the reject path's cost from swinging
        // with the degree of some random vertex). The others are true or
        // false twins of a random vertex, which keep the graph a cograph.
        let illegal = (round % 4 == 3).then(|| induced_p3(&adj, rng)).flatten();
        let neighbors = match illegal {
            Some((a, _, _)) => vec![a],
            None => {
                let mut twin = adj[v].clone();
                if rng.gen_bool(0.5) {
                    twin.push(v as u32);
                }
                twin.sort_unstable();
                twin
            }
        };
        let legal = mirror.try_add_vertex(&neighbors).is_ok();
        if legal {
            let x = before_n as u32;
            for &w in &neighbors {
                adj[w as usize].push(x);
            }
            adj.push(neighbors.clone());
            state = Arc::new(Case::new(mirror.to_cotree(), None));
        }
        let neighbors_text = neighbors
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
            .into_bytes();
        steps.push(Step {
            neighbors,
            neighbors_text,
            legal,
            before_n,
            query: Kind::ALL[rng.gen_range(0..Kind::ALL.len())],
            after: state.clone(),
        });
    }
    Script {
        seed_n: n,
        seed_edges,
        seed_body,
        near,
        created,
        steps,
    }
}

fn toggle(adj: &mut [Vec<u32>], u: u32, v: u32) {
    if let Some(i) = adj[u as usize].iter().position(|&w| w == v) {
        adj[u as usize].swap_remove(i);
        adj[v as usize].retain(|&w| w != u);
    } else {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
}

/// An induced path `a - b - c` (edges ab, bc; no edge ac), if one is found
/// within a few random probes.
fn induced_p3(adj: &[Vec<u32>], rng: &mut ChaCha8Rng) -> Option<(u32, u32, u32)> {
    for _ in 0..32 {
        let b = rng.gen_range(0..adj.len());
        let nb = &adj[b];
        if nb.len() < 2 {
            continue;
        }
        let a = nb[rng.gen_range(0..nb.len())];
        if let Some(&c) = nb
            .iter()
            .find(|&&c| c != a && !adj[a as usize].contains(&c))
        {
            return Some((a, b as u32, c));
        }
    }
    None
}

pub fn edges_of(adj: &[Vec<u32>]) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = adj
        .iter()
        .enumerate()
        .flat_map(|(u, ns)| {
            ns.iter()
                .filter(move |&&v| (u as u32) < v)
                .map(move |&v| (u as u32, v))
        })
        .collect();
    edges.sort_unstable();
    edges
}

pub fn graph_of(adj: &[Vec<u32>]) -> pcgraph::Graph {
    pcgraph::Graph::from_edges(adj.len(), &edges_of(adj)).expect("valid simple graph")
}

impl Script {
    /// The session graph right before step `step`'s insertion, plus the
    /// vertex that insertion proposes: the graph a refusal's witness must
    /// be an induced P4 of. Replays the accepted insertions.
    pub fn candidate(&self, step: usize) -> pcgraph::Graph {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.seed_n];
        for &(u, v) in &self.seed_edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        for (i, s) in self.steps.iter().enumerate().take(step + 1) {
            if s.legal || i == step {
                let x = adj.len() as u32;
                for &w in &s.neighbors {
                    adj[w as usize].push(x);
                }
                adj.push(s.neighbors.clone());
            }
        }
        graph_of(&adj)
    }

    /// The seed graph `session_create` submits.
    pub fn seed_graph(&self) -> pcgraph::Graph {
        pcgraph::Graph::from_edges(self.seed_n, &self.seed_edges).expect("valid simple graph")
    }
}

/// A caller's request stream: an iterator of `(request, fresh_connection,
/// transport)`.
pub struct Stream<'p> {
    plan: &'p Plan,
    caller: usize,
    block_len: u64,
    count: u64,
    pending: Vec<Req>,
    next_script: usize,
    /// The block every block of the caller repeats (`hot-small`: Zipf
    /// rank and kind; `big-cover`: graph and kind).
    block: Vec<(u32, Kind)>,
}

impl Iterator for Stream<'_> {
    type Item = (Req, bool, Transport);

    fn next(&mut self) -> Option<(Req, bool, Transport)> {
        let plan = self.plan;
        let j = self.count;
        self.count += 1;
        // Position in the block: transports and fresh connections follow
        // it, so every block uses them alike.
        let at = j % self.block_len;
        let every_50th = at % 50 == 49;
        let item = match plan.workload {
            Workload::HotSmall => {
                // Every block replays the caller's draws. A rank beyond the
                // warm-up moves to another cold graph each block, so it
                // misses the cache as a fresh Zipf draw would.
                let (rank, kind) = self.block[at as usize];
                let graph = match (rank as usize).checked_sub(HOT_WARM) {
                    None => rank,
                    Some(cold) => {
                        let moved = cold as u64 + j / self.block_len * COLD_SHIFT;
                        (HOT_WARM as u64 + moved % (HOT_GRAPHS - HOT_WARM) as u64) as u32
                    }
                };
                (Req::Solve { graph, kind }, every_50th)
            }
            Workload::BigCover => {
                // Each small graph once, in the order drawn for the caller,
                // and the n = 65536 graph at position 25.
                let (graph, kind) = self.block[at as usize];
                (Req::Solve { graph, kind }, false)
            }
            Workload::SessionChurn => {
                if self.pending.is_empty() {
                    let script = self.caller * plan.per_caller + self.next_script;
                    self.next_script = (self.next_script + 1) % plan.per_caller;
                    self.pending = plan.script_reqs(script as u32);
                    self.pending.reverse();
                }
                (self.pending.pop().expect("scripts are never empty"), false)
            }
        };
        Some((item.0, item.1, Transport::of(self.caller, at)))
    }
}
