//! The eight-step parallel algorithm of Section 5 of the paper.
//!
//! ```text
//! Step 1  binarise the cotree                       (T_b)
//! Step 2  leaf counts L(u), leftist ordering        (T_bl)
//! Step 3  path counts p(u), vertex classification   (T_blr, implicitly)
//! Step 4  generate the bracket sequence B(R)
//! Step 5  match brackets -> pseudo path trees
//! Step 6  exchange illegal insert vertices with legal dummy vertices
//! Step 7  bypass dummy vertices
//! Step 8  read the paths off the path trees (inorder)
//! ```
//!
//! One code path serves two execution substrates, selected by [`Engine`]:
//!
//! * `Engine::Host` runs every primitive with plain sequential code — this is
//!   the "fast native" entry point [`path_cover`];
//! * `Engine::Pram` runs the heavy primitives (leaf counts via the Euler
//!   tour, path counts via tree contraction, bracket matching, inorder
//!   numbering of the path trees) on the instrumented PRAM simulator and
//!   charges the per-element glue (bracket emission, edge insertion from
//!   matches, legality checks, the exchange, path compaction) as explicit
//!   `O(1)`-per-element `parallel_for` accounting passes. The reported
//!   metrics therefore reflect the structure of the paper's algorithm; the
//!   fidelity caveats (notably the bracket-matching extraction phase) are
//!   spelled out in the `parprims` crate docs and its `brackets` module.

use cograph::{classify_vertices, BinKind, BinaryCotree, Cotree, ReducedCotree, VertexRole};
use cograph::{path_counts_exec, path_counts_seq};
use parpool::Pool;
use parprims::brackets::{match_brackets_on_exec, match_brackets_seq, BracketKind};
use parprims::euler::{euler_numbers_seq, euler_tour_numbers_exec};
use parprims::exec::Exec;
use parprims::tree::{RootedTree, NONE};
use pcgraph::{Path, PathCover, VertexId};
use pram::{Metrics, Mode, Pram};

/// Which substrate executes the parallel primitives of a metered/parallel
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The instrumented PRAM simulator: sequential, but measures synchronous
    /// steps, work and the access discipline. The only source of step/work
    /// metrics.
    #[default]
    Sim,
    /// The real-cores work-stealing pool: runs each PRAM round across OS
    /// threads for wall-clock speed. Produces no step metrics.
    Pool,
}

/// Configuration of the PRAM-metered execution.
#[derive(Debug, Clone, Copy)]
pub struct PramConfig {
    /// The PRAM variant to check the access discipline against (simulator
    /// backend only).
    pub mode: Mode,
    /// Number of simulated processors; `None` selects the paper's
    /// `n / log2 n`. Simulator backend only.
    pub processors: Option<usize>,
    /// Panic on the first access-discipline violation instead of recording
    /// it. Simulator backend only.
    pub strict: bool,
    /// Execution substrate for the parallel primitives.
    pub backend: Backend,
    /// OS threads for the pool backend; `None` or `Some(0)` resolves to the
    /// machine's available parallelism. Ignored by the simulator backend.
    pub threads: Option<usize>,
}

impl Default for PramConfig {
    fn default() -> Self {
        PramConfig {
            mode: Mode::Erew,
            processors: None,
            strict: false,
            backend: Backend::Sim,
            threads: None,
        }
    }
}

/// Result of a PRAM-metered run.
#[derive(Debug, Clone)]
pub struct PramOutcome {
    /// The minimum path cover found.
    pub cover: PathCover,
    /// Step/work/conflict counters of the simulated execution. `None` for
    /// the pool backend — only the simulator measures PRAM steps.
    pub metrics: Option<Metrics>,
    /// Number of processors: simulated processors for [`Backend::Sim`], OS
    /// threads for [`Backend::Pool`].
    pub processors: usize,
}

/// Computes a minimum path cover with the parallel algorithm, executed
/// natively (no simulation); the fastest way to get the answer.
pub fn path_cover(cotree: &Cotree) -> PathCover {
    run_pipeline(cotree, &mut Engine::Host)
}

/// Number of paths in a minimum path cover (the quantity `p(root)` of the
/// paper's Lemma 2.4), computed natively by one `O(n)` fold over the k-ary
/// cotree that follows its leftist binarisation without building it (see
/// [`crate::sequential`]).
pub fn min_path_cover_size(cotree: &Cotree) -> usize {
    crate::sequential::unclamped_path_count(cotree).max(1) as usize
}

/// Runs the parallel algorithm on the instrumented PRAM simulator and
/// returns the cover together with the measured metrics.
pub fn pram_path_cover(cotree: &Cotree, config: PramConfig) -> PramOutcome {
    match config.backend {
        Backend::Sim => {
            let n = cotree.num_vertices();
            let processors = config
                .processors
                .unwrap_or_else(|| pram::optimal_processors(n));
            let mut machine = if config.strict {
                Pram::strict(config.mode, processors)
            } else {
                Pram::new(config.mode, processors)
            };
            let cover = run_pipeline(cotree, &mut Engine::Pram(&mut machine));
            PramOutcome {
                cover,
                metrics: Some(machine.into_metrics()),
                processors,
            }
        }
        Backend::Pool => {
            let threads = parpool::resolve_threads(config.threads);
            let mut pool = Pool::new(threads);
            let cover = pool_path_cover(cotree, &mut pool);
            PramOutcome {
                cover,
                metrics: None,
                processors: threads,
            }
        }
    }
}

/// Runs the parallel algorithm on an existing work-stealing [`Pool`] — the
/// entry point for long-lived services that reuse one pool across solves.
///
/// The structural decisions are identical to the other substrates, so the
/// cover matches [`path_cover`] and [`pram_path_cover`] exactly.
pub fn pool_path_cover(cotree: &Cotree, pool: &mut Pool) -> PathCover {
    run_pipeline(cotree, &mut Engine::Pool(pool))
}

/// Execution substrate for the pipeline.
pub enum Engine<'a> {
    /// Plain host execution.
    Host,
    /// Instrumented execution on the PRAM simulator.
    Pram(&'a mut Pram),
    /// Real-cores execution on the work-stealing pool.
    Pool(&'a mut Pool),
}

impl Engine<'_> {
    fn phase(&mut self, name: &str) {
        if let Engine::Pram(p) = self {
            p.phase(name);
        }
    }

    /// Charges `m` virtual processors performing `ops` shared-memory accesses
    /// each — used for the per-element glue steps whose data movement is done
    /// host-side. Metering exists only on the simulator; the host and pool
    /// substrates skip it.
    fn charge(&mut self, m: usize, ops: u64) {
        if m == 0 {
            return;
        }
        if let Engine::Pram(p) = self {
            let scratch = p.alloc(m);
            p.parallel_for(m, |ctx, i| {
                ctx.charge(ops.saturating_sub(1));
                ctx.write(scratch, i, 1);
            });
        }
    }

    fn leaf_and_path_counts(&mut self, tree: &BinaryCotree) -> (Vec<usize>, Vec<i64>) {
        match self {
            Engine::Host => {
                let l = tree.leaf_counts();
                let p = path_counts_seq(tree, &l);
                (l, p)
            }
            Engine::Pram(pram) => {
                let mut exec = Exec::sim(pram);
                leaf_and_path_counts_exec(&mut exec, tree)
            }
            Engine::Pool(pool) => {
                let mut exec = Exec::pool(pool);
                leaf_and_path_counts_exec(&mut exec, tree)
            }
        }
    }

    fn match_brackets(&mut self, kinds: &[BracketKind]) -> Vec<Option<usize>> {
        match self {
            Engine::Host => match_brackets_seq(kinds),
            Engine::Pram(pram) => match_brackets_on_exec(&mut Exec::sim(pram), kinds),
            Engine::Pool(pool) => match_brackets_on_exec(&mut Exec::pool(pool), kinds),
        }
    }

    fn inorder(&mut self, tree: &RootedTree, left_child: &[usize]) -> Vec<usize> {
        match self {
            Engine::Host => euler_numbers_seq(tree, Some(left_child)).inorder,
            Engine::Pram(pram) => {
                euler_tour_numbers_exec(&mut Exec::sim(pram), tree, Some(left_child)).inorder
            }
            Engine::Pool(pool) => {
                euler_tour_numbers_exec(&mut Exec::pool(pool), tree, Some(left_child)).inorder
            }
        }
    }
}

/// Shared backend-generic body of [`Engine::leaf_and_path_counts`].
fn leaf_and_path_counts_exec(exec: &mut Exec<'_>, tree: &BinaryCotree) -> (Vec<usize>, Vec<i64>) {
    let rooted = tree.to_rooted_tree();
    let numbers = euler_tour_numbers_exec(exec, &rooted, None);
    let l = numbers.leaf_count;
    let p = path_counts_exec(exec, tree, &l);
    (l, p)
}

/// One bracket of the sequence `B(R)`, annotated with the node of the
/// (future) path tree it belongs to and the role it plays for that node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bracket {
    /// `[` — the owner offers itself as a child (parent slot).
    SquareOpen { owner: usize },
    /// `]` — the owner adopts the matched node as its left or right child.
    SquareClose { owner: usize, left: bool },
    /// `(` — the owner offers a child slot (left or right).
    RoundOpen { owner: usize, left: bool },
    /// `)` — the owner looks for a parent; it becomes a child in whichever
    /// slot the matched `(` offered.
    RoundClose { owner: usize },
}

/// The whole pipeline. `engine` decides whether the heavy primitives run on
/// the host or on the PRAM simulator; the structural decisions (and therefore
/// the resulting cover) are identical either way.
fn run_pipeline(cotree: &Cotree, engine: &mut Engine<'_>) -> PathCover {
    let n = cotree.num_vertices();
    if n == 0 {
        return PathCover::new();
    }
    if n == 1 {
        return PathCover::from_paths(vec![Path::singleton(0)]);
    }

    // Steps 1-2: binarised, leftist cotree and leaf counts.
    engine.phase("steps 1-2: binarise + leftist");
    let (mut tree, _prelim_counts) = {
        let t = BinaryCotree::from_cotree(cotree);
        let l = t.leaf_counts();
        (t, l)
    };
    engine.charge(tree.num_nodes(), 3);
    let (leaf_counts, path_counts) = {
        // Leaf counts are needed before the leftist reordering; the PRAM
        // engine measures them via the Euler tour, then the reordering is an
        // O(1)-per-node step.
        let (l, _) = engine.leaf_and_path_counts(&tree);
        tree.make_leftist(&l);
        engine.charge(tree.num_nodes(), 3);
        // Step 3: path counts on the leftist tree.
        engine.phase("step 3: path counts p(u)");
        let (_, p) = engine.leaf_and_path_counts(&tree);
        (l, p)
    };

    // Step 3 (continued): vertex classification (the reduced cotree).
    let reduced = classify_vertices(&tree, &leaf_counts, &path_counts);
    engine.charge(n, 4);

    // Step 4: bracket sequence.
    engine.phase("step 4: bracket sequence");
    let (brackets, num_dummies) = generate_brackets(&tree, &leaf_counts, &path_counts, &reduced);
    engine.charge(brackets.len(), 3);

    // Step 5: match square and round brackets independently and assemble the
    // pseudo path trees.
    engine.phase("step 5: bracket matching");
    let forest = build_pseudo_path_trees(engine, n, num_dummies, &brackets, &reduced);

    // Step 6: legality check and exchange.
    engine.phase("step 6: legalise insert vertices");
    let forest = legalize(engine, forest);

    // Steps 7-8: drop dummies and read the paths off the trees.
    engine.phase("steps 7-8: extract paths");
    extract_paths(engine, &forest)
}

/// Generates `B(R)` (Step 4). Returns the bracket sequence and the number of
/// dummy vertices introduced. Dummy vertices are numbered `n, n + 1, ...`
/// in order of appearance.
fn generate_brackets(
    tree: &BinaryCotree,
    leaf_counts: &[usize],
    path_counts: &[i64],
    reduced: &ReducedCotree,
) -> (Vec<Bracket>, usize) {
    let n = tree.num_vertices();
    let mut out = Vec::with_capacity(4 * n);
    let mut next_dummy = n;
    emit_node(
        tree,
        tree.root(),
        leaf_counts,
        path_counts,
        reduced,
        &mut out,
        &mut next_dummy,
    );
    (out, next_dummy - n)
}

fn emit_node(
    tree: &BinaryCotree,
    u: usize,
    leaf_counts: &[usize],
    path_counts: &[i64],
    reduced: &ReducedCotree,
    out: &mut Vec<Bracket>,
    next_dummy: &mut usize,
) {
    // Iterative walk over the *active* part of the tree in B(R) order: the
    // left subtree of a 1-node first, then the 1-node's own event string;
    // both subtrees of a 0-node in order.
    enum Frame {
        Visit(usize),
        Event(usize),
    }
    let mut stack = vec![Frame::Visit(u)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Visit(v) => match tree.kind(v) {
                BinKind::Leaf(vertex) => {
                    debug_assert!(matches!(
                        reduced.roles[vertex as usize],
                        VertexRole::Primary
                    ));
                    let owner = vertex as usize;
                    out.push(Bracket::SquareOpen { owner });
                    out.push(Bracket::RoundOpen { owner, left: true });
                    out.push(Bracket::RoundOpen { owner, left: false });
                }
                BinKind::Zero => {
                    stack.push(Frame::Visit(tree.right(v)));
                    stack.push(Frame::Visit(tree.left(v)));
                }
                BinKind::One => {
                    stack.push(Frame::Event(v));
                    stack.push(Frame::Visit(tree.left(v)));
                }
            },
            Frame::Event(v) => {
                emit_event(tree, v, leaf_counts, path_counts, reduced, out, next_dummy);
            }
        }
    }
}

/// Emits the event string of an active 1-node (the non-`B(v)` part of the
/// paper's `B(u)` formulas for Cases 1 and 2).
fn emit_event(
    tree: &BinaryCotree,
    u: usize,
    _leaf_counts: &[usize],
    _path_counts: &[i64],
    reduced: &ReducedCotree,
    out: &mut Vec<Bracket>,
    next_dummy: &mut usize,
) {
    let event = reduced
        .event_of(u)
        .expect("active 1-nodes always have an event");
    let right_leaves = cograph::reduce::subtree_leaves(tree, tree.right(u));
    let vertices: Vec<usize> = right_leaves
        .iter()
        .map(|&leaf| tree.vertex(leaf) as usize)
        .collect();
    let bridges = &vertices[..event.bridges];
    let inserts = &vertices[event.bridges..];
    debug_assert_eq!(inserts.len(), event.inserts);

    // Bridge vertices: ] ] [ per bridge (right child, left child, own parent
    // slot), exactly as in both Case 1 and Case 2.
    for &s in bridges {
        out.push(Bracket::SquareClose {
            owner: s,
            left: false,
        });
        out.push(Bracket::SquareClose {
            owner: s,
            left: true,
        });
        out.push(Bracket::SquareOpen { owner: s });
    }
    if event.is_case1() {
        return;
    }
    // Case 2: insert parent-finders, dummy parent-finders, dummy child slots,
    // insert child slots.
    for &t in inserts {
        out.push(Bracket::RoundClose { owner: t });
    }
    let dummy_base = *next_dummy;
    for d in 0..event.dummies {
        out.push(Bracket::RoundClose {
            owner: dummy_base + d,
        });
    }
    for d in 0..event.dummies {
        out.push(Bracket::RoundOpen {
            owner: dummy_base + d,
            left: false,
        });
    }
    *next_dummy += event.dummies;
    for &t in inserts {
        out.push(Bracket::RoundOpen {
            owner: t,
            left: true,
        });
        out.push(Bracket::RoundOpen {
            owner: t,
            left: false,
        });
    }
}

/// The pseudo path tree forest over `n` graph vertices plus the dummies.
#[derive(Debug, Clone)]
struct PathForest {
    /// Total number of nodes (graph vertices followed by dummies).
    #[allow(dead_code)]
    n_real: usize,
    parent: Vec<usize>,
    left: Vec<usize>,
    right: Vec<usize>,
    /// Event id (1-node of `T_bl`) of each node, `NONE` for primary vertices.
    event: Vec<usize>,
    /// `true` for dummy nodes.
    dummy: Vec<bool>,
    /// `true` for bridge vertices.
    bridge: Vec<bool>,
}

impl PathForest {
    fn len(&self) -> usize {
        self.parent.len()
    }

    fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&v| self.parent[v] == NONE)
            .collect()
    }
}

/// Step 5: independent matching of the square and round subsequences, then
/// assembly of the parent/child pointers.
fn build_pseudo_path_trees(
    engine: &mut Engine<'_>,
    n: usize,
    num_dummies: usize,
    brackets: &[Bracket],
    reduced: &ReducedCotree,
) -> PathForest {
    let total = n + num_dummies;
    let mut forest = PathForest {
        n_real: n,
        parent: vec![NONE; total],
        left: vec![NONE; total],
        right: vec![NONE; total],
        event: vec![NONE; total],
        dummy: vec![false; total],
        bridge: vec![false; total],
    };
    for v in 0..n {
        match reduced.roles[v] {
            VertexRole::Primary => {}
            VertexRole::Bridge { event } => {
                forest.event[v] = event;
                forest.bridge[v] = true;
            }
            VertexRole::Insert { event } => forest.event[v] = event,
        }
    }
    for d in n..total {
        forest.dummy[d] = true;
    }
    // Dummy events are recovered from the brackets below (the dummy's
    // RoundClose appears inside its event's section; simplest is to tag it
    // when the bracket is generated — it is implicit in the owner id order,
    // so recover it from neighbouring insert owners when present, otherwise
    // it does not matter for correctness because dummies are only exchanged
    // within their own event's inserts).

    // Split the sequence into the two alphabets, remembering positions.
    let mut square_positions = Vec::new();
    let mut square_kinds = Vec::new();
    let mut round_positions = Vec::new();
    let mut round_kinds = Vec::new();
    for (i, b) in brackets.iter().enumerate() {
        match b {
            Bracket::SquareOpen { .. } => {
                square_positions.push(i);
                square_kinds.push(BracketKind::Open);
            }
            Bracket::SquareClose { .. } => {
                square_positions.push(i);
                square_kinds.push(BracketKind::Close);
            }
            Bracket::RoundOpen { .. } => {
                round_positions.push(i);
                round_kinds.push(BracketKind::Open);
            }
            Bracket::RoundClose { .. } => {
                round_positions.push(i);
                round_kinds.push(BracketKind::Close);
            }
        }
    }
    let square_partner = engine.match_brackets(&square_kinds);
    let round_partner = engine.match_brackets(&round_kinds);
    engine.charge(brackets.len(), 4);

    // Square matches: `[` owned by a, `]` owned by b => a becomes b's child.
    for (idx, partner) in square_partner.iter().enumerate() {
        let Some(p) = partner else { continue };
        if square_kinds[idx] != BracketKind::Close {
            continue;
        }
        let close_pos = square_positions[idx];
        let open_pos = square_positions[*p];
        let (
            Bracket::SquareClose {
                owner: adopter,
                left,
            },
            Bracket::SquareOpen { owner: child },
        ) = (brackets[close_pos], brackets[open_pos])
        else {
            unreachable!("square matching returned mismatched bracket kinds");
        };
        forest.parent[child] = adopter;
        if left {
            forest.left[adopter] = child;
        } else {
            forest.right[adopter] = child;
        }
    }
    // Round matches: `(` owned by a (slot), `)` owned by b => b becomes a's
    // child in that slot.
    for (idx, partner) in round_partner.iter().enumerate() {
        let Some(p) = partner else { continue };
        if round_kinds[idx] != BracketKind::Close {
            continue;
        }
        let close_pos = round_positions[idx];
        let open_pos = round_positions[*p];
        let (
            Bracket::RoundClose { owner: child },
            Bracket::RoundOpen {
                owner: parent,
                left,
            },
        ) = (brackets[close_pos], brackets[open_pos])
        else {
            unreachable!("round matching returned mismatched bracket kinds");
        };
        forest.parent[child] = parent;
        if left {
            forest.left[parent] = child;
        } else {
            forest.right[parent] = child;
        }
    }
    // Dummy events: a dummy inherits the event of the 1-node section it was
    // emitted in; recover it from the insert vertices emitted alongside (the
    // brackets are generated per event, so scan once).
    let mut current_event = NONE;
    for b in brackets {
        match *b {
            Bracket::RoundClose { owner } if owner < n => {
                current_event = forest.event[owner];
            }
            Bracket::RoundClose { owner } if owner >= n => {
                forest.event[owner] = current_event;
            }
            _ => {}
        }
    }
    forest
}

/// Step 6: find illegal insert vertices (and legal dummy positions) from the
/// inorder adjacency and exchange them pairwise.
///
/// An insert or dummy vertex occupies an *illegal* slot when its nearest
/// non-dummy inorder neighbour is a bridge vertex of the same event (the two
/// extreme slots of every path tree, Section 3). Skipping dummy vertices when
/// looking at neighbours matters because a later event may already have hung
/// a dummy below an insert vertex, masking the adjacency that will appear
/// once the dummies are bypassed. Exchange partners are chosen within the
/// same event, which is where the paper's counting argument (`2 p(v) - 2`
/// dummies versus at most `2 p(v) - 2` illegal slots) lives. The check and
/// exchange are repeated until no illegal insert remains; the paper argues a
/// single round suffices, and the loop converges after one extra round at
/// most on every workload exercised by the test suite — the repetition is a
/// correctness belt while keeping every round within the `O(log n)` step
/// budget.
fn legalize(engine: &mut Engine<'_>, mut forest: PathForest) -> PathForest {
    let total = forest.len();
    for round in 0.. {
        assert!(round < 8, "legalisation did not converge");
        let (order, _) = forest_inorder(engine, &forest);
        // Nearest non-dummy neighbour on each side of every inorder position.
        let mut prev_nd: Vec<Option<usize>> = vec![None; order.len()];
        let mut last = None;
        for (pos, &node) in order.iter().enumerate() {
            prev_nd[pos] = last;
            if !forest.dummy[node] {
                last = Some(node);
            }
        }
        let mut next_nd: Vec<Option<usize>> = vec![None; order.len()];
        let mut nxt = None;
        for (pos, &node) in order.iter().enumerate().rev() {
            next_nd[pos] = nxt;
            if !forest.dummy[node] {
                nxt = Some(node);
            }
        }
        engine.charge(total, 4);

        // Per-event lists of illegal inserts and legal dummies, in inorder
        // order.
        let mut illegal_by_event: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut legal_dummies_by_event: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (pos, &node) in order.iter().enumerate() {
            let event = forest.event[node];
            if event == NONE {
                continue;
            }
            let is_insert = !forest.dummy[node] && !forest.bridge[node];
            let is_dummy = forest.dummy[node];
            if !is_insert && !is_dummy {
                continue;
            }
            let bad = |other: Option<usize>| {
                other.is_some_and(|o| forest.event[o] == event && forest.bridge[o])
            };
            let illegal = bad(prev_nd[pos]) || bad(next_nd[pos]);
            if is_insert && illegal {
                illegal_by_event.entry(event).or_default().push(node);
            } else if is_dummy && !illegal {
                legal_dummies_by_event.entry(event).or_default().push(node);
            }
        }
        if illegal_by_event.values().all(Vec::is_empty) {
            break;
        }

        // Pair and exchange within each event.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (event, inserts) in &illegal_by_event {
            let dummies = legal_dummies_by_event
                .get(event)
                .cloned()
                .unwrap_or_default();
            assert!(
                dummies.len() >= inserts.len(),
                "event {event}: {} illegal insert vertices but only {} legal dummy slots",
                inserts.len(),
                dummies.len()
            );
            for (i, &insert) in inserts.iter().enumerate() {
                pairs.push((insert, dummies[i]));
            }
        }
        engine.charge(pairs.len().max(1), 6);

        // Exchange parent links (subtrees travel with their roots).
        for (insert, dummy) in pairs {
            let (pi, pd) = (forest.parent[insert], forest.parent[dummy]);
            let insert_was_left = pi != NONE && forest.left[pi] == insert;
            let dummy_was_left = pd != NONE && forest.left[pd] == dummy;
            if pi != NONE {
                if insert_was_left {
                    forest.left[pi] = dummy;
                } else {
                    forest.right[pi] = dummy;
                }
            }
            if pd != NONE {
                if dummy_was_left {
                    forest.left[pd] = insert;
                } else {
                    forest.right[pd] = insert;
                }
            }
            forest.parent[insert] = pd;
            forest.parent[dummy] = pi;
        }
    }
    forest
}

/// Steps 7-8: the inorder readout of every path tree with dummies filtered
/// out is the minimum path cover.
fn extract_paths(engine: &mut Engine<'_>, forest: &PathForest) -> PathCover {
    let (order, root_of) = forest_inorder(engine, forest);
    engine.charge(forest.len(), 2);
    let mut cover_paths: std::collections::BTreeMap<usize, Vec<VertexId>> =
        std::collections::BTreeMap::new();
    for &node in &order {
        if forest.dummy[node] {
            continue;
        }
        cover_paths
            .entry(root_of[node])
            .or_default()
            .push(node as VertexId);
    }
    let mut cover = PathCover::new();
    for (_, vertices) in cover_paths {
        if !vertices.is_empty() {
            cover.push(Path::new(vertices));
        }
    }
    cover
}

/// Inorder sequence of the whole forest (trees in root order, each tree's
/// nodes contiguous), plus for every node the root of its tree.
fn forest_inorder(engine: &mut Engine<'_>, forest: &PathForest) -> (Vec<usize>, Vec<usize>) {
    let total = forest.len();
    let roots = forest.roots();
    // Build a super-rooted tree so a single Euler tour covers the forest.
    let superroot = total;
    let mut parent = vec![NONE; total + 1];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); total + 1];
    let mut left_child = vec![NONE; total + 1];
    for v in 0..total {
        parent[v] = if forest.parent[v] == NONE {
            superroot
        } else {
            forest.parent[v]
        };
        let (l, r) = (forest.left[v], forest.right[v]);
        if l != NONE {
            children[v].push(l);
            left_child[v] = l;
        }
        if r != NONE {
            children[v].push(r);
        }
    }
    children[superroot] = roots.clone();
    let tree = RootedTree::new(parent, children, superroot);
    let inorder = engine.inorder(&tree, &left_child);
    // Sort real nodes by inorder number to obtain the sequence. (Host-side
    // bookkeeping; on the PRAM this is the identity layout of the inorder
    // readout.)
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&v| inorder[v]);
    // The super-root lands somewhere in the sequence; real nodes only.
    // Root of every node by walking the forest once (host-side bookkeeping).
    let mut root_of = vec![NONE; total];
    for &r in &roots {
        let mut stack = vec![r];
        while let Some(v) = stack.pop() {
            root_of[v] = r;
            if forest.left[v] != NONE {
                stack.push(forest.left[v]);
            }
            if forest.right[v] != NONE {
                stack.push(forest.right[v]);
            }
        }
    }
    (order, root_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cograph::{random_cotree, CotreeShape};
    use pcgraph::path::brute_force_min_path_cover;
    use pcgraph::verify_path_cover;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_cover(cotree: &Cotree) {
        let g = cotree.to_graph();
        let cover = path_cover(cotree);
        let report = verify_path_cover(&g, &cover);
        assert!(
            report.is_valid(),
            "invalid parallel cover {report:?} for {cotree:?}"
        );
        assert_eq!(
            cover.len(),
            min_path_cover_size(cotree),
            "parallel cover is not minimum for {cotree:?}"
        );
    }

    #[test]
    fn single_vertex() {
        check_cover(&Cotree::single(0));
    }

    #[test]
    fn single_edge() {
        let t = Cotree::join_of(vec![Cotree::single(0), Cotree::single(0)]);
        check_cover(&t);
    }

    #[test]
    fn edgeless_graph() {
        let t = Cotree::union_of((0..6).map(|_| Cotree::single(0)).collect());
        let cover = path_cover(&t);
        assert_eq!(cover.len(), 6);
        check_cover(&t);
    }

    #[test]
    fn complete_graph() {
        let t = Cotree::join_of((0..6).map(|_| Cotree::single(0)).collect());
        let cover = path_cover(&t);
        assert_eq!(cover.len(), 1);
        check_cover(&t);
    }

    #[test]
    fn star_graph_case1() {
        let t = Cotree::join_of(vec![
            Cotree::union_of((0..5).map(|_| Cotree::single(0)).collect()),
            Cotree::single(0),
        ]);
        let cover = path_cover(&t);
        assert_eq!(cover.len(), 4);
        check_cover(&t);
    }

    #[test]
    fn complete_bipartite_case2() {
        let side = |k: usize| Cotree::union_of((0..k).map(|_| Cotree::single(0)).collect());
        let t = Cotree::join_of(vec![side(4), side(4)]);
        let cover = path_cover(&t);
        assert_eq!(cover.len(), 1);
        check_cover(&t);
    }

    #[test]
    fn paper_lower_bound_shape() {
        // The Fig. 2 construction: root 0-node with isolated leaves plus a
        // join group.
        let join_part = Cotree::join_of((0..4).map(|_| Cotree::single(0)).collect());
        let t = Cotree::union_of(vec![
            Cotree::single(0),
            Cotree::single(0),
            Cotree::single(0),
            join_part,
        ]);
        let cover = path_cover(&t);
        assert_eq!(cover.len(), 4);
        check_cover(&t);
    }

    #[test]
    fn matches_brute_force_on_exhaustive_small_cographs() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        for shape in CotreeShape::ALL {
            for n in 2..=9usize {
                for _ in 0..8 {
                    let t = random_cotree(n, shape, &mut rng);
                    let g = t.to_graph();
                    let cover = path_cover(&t);
                    let report = verify_path_cover(&g, &cover);
                    assert!(report.is_valid(), "{shape:?} n={n} {t:?} -> {report:?}");
                    assert_eq!(
                        cover.len(),
                        brute_force_min_path_cover(&g),
                        "{shape:?} n={n} {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn valid_and_minimum_on_medium_random_cographs() {
        let mut rng = ChaCha8Rng::seed_from_u64(202);
        for shape in CotreeShape::ALL {
            for n in [16usize, 33, 64, 150, 321] {
                let t = random_cotree(n, shape, &mut rng);
                check_cover(&t);
            }
        }
    }

    #[test]
    fn pram_metered_run_agrees_with_native() {
        let mut rng = ChaCha8Rng::seed_from_u64(303);
        for shape in CotreeShape::ALL {
            for n in [8usize, 40, 100] {
                let t = random_cotree(n, shape, &mut rng);
                let native = path_cover(&t);
                let outcome = pram_path_cover(&t, PramConfig::default());
                assert_eq!(outcome.cover.len(), native.len(), "{shape:?} n={n}");
                let g = t.to_graph();
                assert!(verify_path_cover(&g, &outcome.cover).is_valid());
                let metrics = outcome
                    .metrics
                    .as_ref()
                    .expect("sim backend reports metrics");
                assert!(metrics.steps > 0);
                assert!(metrics.work > 0);
                assert!(outcome.processors >= 1);
            }
        }
    }

    #[test]
    fn pool_backend_agrees_with_native_and_reports_no_metrics() {
        let mut rng = ChaCha8Rng::seed_from_u64(808);
        for threads in [1usize, 4] {
            let mut pool = Pool::new(threads);
            for shape in CotreeShape::ALL {
                for n in [2usize, 9, 40, 137] {
                    let t = random_cotree(n, shape, &mut rng);
                    let native = path_cover(&t);
                    let pooled = pool_path_cover(&t, &mut pool);
                    assert_eq!(pooled, native, "{shape:?} n={n} threads={threads}");
                }
            }
        }
        // The convenience entry point resolves threads and drops metrics.
        let t = random_cotree(64, CotreeShape::Mixed, &mut rng);
        let outcome = pram_path_cover(
            &t,
            PramConfig {
                backend: Backend::Pool,
                threads: Some(2),
                ..PramConfig::default()
            },
        );
        assert!(outcome.metrics.is_none());
        assert_eq!(outcome.processors, 2);
        assert_eq!(outcome.cover.len(), path_cover(&t).len());
    }

    #[test]
    fn pram_steps_scale_logarithmically_and_work_linearly() {
        let mut rng = ChaCha8Rng::seed_from_u64(404);
        let mut stats = Vec::new();
        for exp in [8usize, 10, 12] {
            let n = 1usize << exp;
            let t = random_cotree(n, CotreeShape::Balanced, &mut rng);
            let outcome = pram_path_cover(&t, PramConfig::default());
            let metrics = outcome.metrics.expect("sim backend reports metrics");
            stats.push((metrics.steps_per_log(n), metrics.work_per_item(n)));
        }
        let (s0, w0) = stats[0];
        let (s2, w2) = *stats.last().expect("nonempty");
        assert!(s2 / s0 < 3.0, "steps not O(log n): {stats:?}");
        assert!(w2 / w0 < 1.6, "work not near-linear: {stats:?}");
    }

    #[test]
    fn phase_report_covers_all_eight_steps() {
        let mut rng = ChaCha8Rng::seed_from_u64(505);
        let t = random_cotree(64, CotreeShape::Mixed, &mut rng);
        let outcome = pram_path_cover(&t, PramConfig::default());
        let phases = outcome
            .metrics
            .expect("sim backend reports metrics")
            .phase_report();
        assert!(
            phases.len() >= 5,
            "expected per-step phases, got {phases:?}"
        );
    }
}
