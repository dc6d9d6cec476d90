//! Incremental cograph recognition in `O(n + m)`.
//!
//! Corneil–Perl–Stewart-style insertion: vertices are added one at a time
//! (in id order) to a mutable cotree of the prefix graph. For each new
//! vertex `x` with `d = |N(x) ∩ inserted|`, a *marking pass* walks only the
//! part of the tree reachable from the `d` neighbour leaves:
//!
//! 1. **MARK** — the neighbour leaves are marked; a node whose children all
//!    became *fully marked* is itself fully marked and propagates upward.
//!    A node ends the pass *fully marked* iff every leaf below it is a
//!    neighbour of `x`, and *marked* iff some but not all of its children
//!    are fully marked. Both sets have size `O(d)`.
//! 2. **Legality** — `G + x` is a cograph iff the marked nodes form a chain
//!    `u = m_0 < m_1 < … < m_k` of ancestors where every `m_i` (`i ≥ 1`) is
//!    a join node missing exactly one fully marked child, every join node on
//!    the path from `u` to the root is one of the `m_i`, and no other node
//!    is marked. Because cotree labels alternate, consecutive chain members
//!    are at distance ≤ 2, so the check costs `O(d)` with no parent-pointer
//!    walk longer than the chain itself.
//! 3. **Insert** — `x` is attached at the lowest marked node `u`. At a
//!    union `u` the fully marked children are grouped under a new join with
//!    `x`; at a join `u` the dual happens: `x` unions with the non-full
//!    children (descending beside them when there is only one). Only the
//!    `O(d)` fully marked side is ever respliced. The trivial cases `d = 0`
//!    / `d = |inserted|` attach at the root.
//!
//! Summed over all insertions the marking work is `O(n + m)`. Three layout
//! decisions keep the pass near its memory-traffic floor:
//!
//! * node state is split hot/cold — the fields every hop reads (parent,
//!   `md`, child count, tag) share one 16-byte `Hot` record, while
//!   child-list links and leaf labels, needed only while splicing or
//!   exporting, stay in cold arrays;
//! * the leaf of vertex `v` *is* slab node `v` (leaves are pre-allocated),
//!   so the neighbour scan indexes the slab directly instead of going
//!   through a translation table;
//! * marks are epoch-versioned (`mark[u] = epoch << 2 | state`): bumping
//!   the epoch invalidates every mark at once, so an insertion never walks
//!   its `O(d)` touched set a second time just to clean up.
//!
//! Splicing children during an insertion is `O(1)` per child moved.
//!
//! On a failed insertion the prefix graph is a cograph but `G[0..=x]` is
//! not, so an induced `P_4` through `x` exists. `find_p4` reads one off the
//! prefix's cotree in one `O(n)` sweep of its post-order arena whatever the
//! edge count, no more than recognising the prefix cost.

use super::{InducedP4, RecognitionError};
use crate::cotree::{Cotree, CotreeBuilder, CotreeKind, NO_NODE};
use pcgraph::{Graph, VertexId};

/// Sentinel for "no slab node" (`u32` indices; `Slab::new` rejects graphs
/// whose `2n - 1` node budget would not fit).
const NONE: u32 = u32::MAX;

/// Node label tags (`label` carries the vertex id for leaves).
const LEAF: u8 = 0;
const UNION: u8 = 1;
const JOIN: u8 = 2;

/// Marking states of one pass (low two bits of the versioned mark word).
const CLEAN: u32 = 0;
const MARKED: u32 = 1;
const FULL: u32 = 2;

/// Epochs live in the upper 30 bits of the mark word; past this value the
/// mark array is rewound to avoid overflow (once per ~10^9 insertions).
const EPOCH_LIMIT: u32 = u32::MAX >> 2;

/// The per-node state the marking pass touches on every hop, packed so one
/// cache line serves a whole node visit.
#[derive(Debug, Clone, Copy)]
struct Hot {
    parent: u32,
    /// `md(u)`: fully marked children seen by the current pass. Valid only
    /// while the node's mark word carries the current epoch.
    md: u32,
    /// `d(u)`: number of children.
    child_count: u32,
    /// Node label tag: [`LEAF`] / [`UNION`] / [`JOIN`].
    tag: u32,
}

/// The growing mutable cotree plus reusable per-insertion scratch buffers.
///
/// Slab node `v < n` is the leaf of vertex `v` (pre-allocated, attached on
/// insertion); internal nodes are allocated from index `n` upward.
struct Slab {
    hot: Vec<Hot>,
    /// Versioned mark word per node: `epoch << 2 | state`. A word from an
    /// older epoch reads as [`CLEAN`].
    mark: Vec<u32>,
    /// The current insertion's epoch.
    epoch: u32,
    // Cold state: child list links (insert/export only) and leaf labels.
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    prev_sibling: Vec<u32>,
    /// Leaf vertex id (unused for internal nodes).
    label: Vec<VertexId>,
    root: u32,
    /// BFS queue of the marking pass (internal nodes only; drained by
    /// index, reused).
    queue: Vec<u32>,
    /// The current pass's marked (not fully marked) internal nodes.
    touched: Vec<u32>,
    /// `(parent, child)` pairs recorded when `child` became fully marked.
    full_pairs: Vec<(u32, u32)>,
    /// Chain-successor targets collected by the legality check (reused).
    targets: Vec<u32>,
}

impl Slab {
    fn new(n: usize) -> Slab {
        // n leaves plus at most n internal nodes, addressed by u32: make
        // the documented bound true instead of silently wrapping for
        // graphs beyond half the VertexId range.
        assert!(
            n <= (u32::MAX / 2) as usize,
            "incremental recognition supports at most 2^31 vertices"
        );
        let cap = 2 * n;
        let mut hot = Vec::with_capacity(cap);
        let mut label = Vec::with_capacity(cap);
        // Pre-allocate every leaf at its vertex id.
        for v in 0..n {
            hot.push(Hot {
                parent: NONE,
                md: 0,
                child_count: 0,
                tag: LEAF as u32,
            });
            label.push(v as VertexId);
        }
        let mut first_child = Vec::with_capacity(cap);
        let mut next_sibling = Vec::with_capacity(cap);
        let mut prev_sibling = Vec::with_capacity(cap);
        first_child.resize(n, NONE);
        next_sibling.resize(n, NONE);
        prev_sibling.resize(n, NONE);
        let mut mark = Vec::with_capacity(cap);
        mark.resize(n, 0);
        Slab {
            hot,
            mark,
            epoch: 1,
            first_child,
            next_sibling,
            prev_sibling,
            label,
            root: NONE,
            queue: Vec::new(),
            touched: Vec::new(),
            full_pairs: Vec::new(),
            targets: Vec::new(),
        }
    }

    fn alloc(&mut self, tag: u8, label: VertexId) -> u32 {
        let idx = self.hot.len() as u32;
        self.hot.push(Hot {
            parent: NONE,
            md: 0,
            child_count: 0,
            tag: tag as u32,
        });
        self.mark.push(0);
        self.first_child.push(NONE);
        self.next_sibling.push(NONE);
        self.prev_sibling.push(NONE);
        self.label.push(label);
        idx
    }

    fn tag(&self, u: u32) -> u8 {
        self.hot[u as usize].tag as u8
    }

    /// The node's marking state in the current epoch.
    #[inline]
    fn state(&self, u: u32) -> u32 {
        let word = self.mark[u as usize];
        if word >> 2 == self.epoch {
            word & 3
        } else {
            CLEAN
        }
    }

    /// Sets the node's marking state in the current epoch.
    #[inline]
    fn set_state(&mut self, u: u32, state: u32) {
        self.mark[u as usize] = (self.epoch << 2) | state;
    }

    /// Links `child` under `parent` (position in the child list is
    /// irrelevant: cotree children are unordered).
    fn attach(&mut self, child: u32, parent: u32) {
        let (c, p) = (child as usize, parent as usize);
        debug_assert_eq!(self.hot[c].parent, NONE);
        let old_first = self.first_child[p];
        self.hot[c].parent = parent;
        self.prev_sibling[c] = NONE;
        self.next_sibling[c] = old_first;
        if old_first != NONE {
            self.prev_sibling[old_first as usize] = child;
        }
        self.first_child[p] = child;
        self.hot[p].child_count += 1;
    }

    /// Unlinks `child` from its parent in `O(1)`.
    fn detach(&mut self, child: u32) {
        let c = child as usize;
        let parent = self.hot[c].parent;
        debug_assert_ne!(parent, NONE);
        let prev = self.prev_sibling[c];
        let next = self.next_sibling[c];
        if prev != NONE {
            self.next_sibling[prev as usize] = next;
        } else {
            self.first_child[parent as usize] = next;
        }
        if next != NONE {
            self.prev_sibling[next as usize] = prev;
        }
        self.hot[c].parent = NONE;
        self.prev_sibling[c] = NONE;
        self.next_sibling[c] = NONE;
        self.hot[parent as usize].child_count -= 1;
    }

    /// Inserts the pre-allocated leaf node `leaf` into the cotree of the
    /// `num_existing` already-inserted vertices. `neighbor_leaves` holds the
    /// slab leaf nodes of exactly the new vertex's already-inserted
    /// neighbours. Returns `false` when the grown graph is not a cograph
    /// (the tree is left unchanged and clean in that case).
    ///
    /// In the batch path ([`run`]) the leaf of vertex `v` *is* slab node
    /// `v`, so vertex ids double as leaf indices; the growable
    /// [`IncrementalCotree`] front allocates leaves on demand and maps ids
    /// through `leaf_of` instead.
    fn insert(&mut self, leaf: u32, neighbor_leaves: &[u32], num_existing: usize) -> bool {
        if num_existing == 0 {
            self.root = leaf;
            return true;
        }
        let d = neighbor_leaves.len();
        if d == 0 {
            self.insert_at_root(leaf, UNION);
            return true;
        }
        if d == num_existing {
            self.insert_at_root(leaf, JOIN);
            return true;
        }
        self.mark(neighbor_leaves);
        let lowest = self.find_lowest();
        if let Some(u) = lowest {
            self.insert_at(leaf, u);
        }
        self.touched.clear();
        self.full_pairs.clear();
        lowest.is_some()
    }

    /// Attaches the leaf node at the root under the given label, merging
    /// with the root when the labels agree.
    fn insert_at_root(&mut self, leaf: u32, tag: u8) {
        if self.tag(self.root) == tag {
            self.attach(leaf, self.root);
        } else {
            let new_root = self.alloc(tag, 0);
            let old_root = self.root;
            self.attach(old_root, new_root);
            self.attach(leaf, new_root);
            self.root = new_root;
        }
    }

    /// Advances the mark epoch, instantly invalidating every mark of the
    /// previous pass.
    fn next_epoch(&mut self) {
        self.epoch += 1;
        if self.epoch > EPOCH_LIMIT {
            self.mark.iter_mut().for_each(|w| *w = 0);
            self.epoch = 1;
        }
    }

    /// The MARK pass: propagates "fully marked" upward from the neighbour
    /// leaves, leaving partially covered nodes marked. Touches `O(d)` nodes.
    ///
    /// A leaf has no children, so a marked leaf is fully marked by
    /// definition: leaves are handled inline (mark, bump parent) and only
    /// internal nodes travel through the queue. A parent's `md` is reset
    /// lazily on its clean→marked transition, so stale counters from older
    /// epochs are never read.
    fn mark(&mut self, neighbor_leaves: &[u32]) {
        debug_assert!(self.queue.is_empty());
        self.next_epoch();
        for &y in neighbor_leaves {
            self.set_state(y, FULL);
            let w = self.hot[y as usize].parent;
            self.bump(w, y);
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            // Everything below u is in N(x): u is fully marked.
            self.set_state(u, FULL);
            if u == self.root {
                continue;
            }
            let w = self.hot[u as usize].parent;
            self.bump(w, u);
        }
        self.queue.clear();
    }

    /// Records that child `u` of `w` became fully marked: marks `w`, bumps
    /// `md(w)`, and enqueues `w` once all children are fully marked.
    #[inline]
    fn bump(&mut self, w: u32, u: u32) {
        let ws = w as usize;
        if self.state(w) == CLEAN {
            self.set_state(w, MARKED);
            self.hot[ws].md = 1;
            self.touched.push(w);
        } else {
            self.hot[ws].md += 1;
        }
        self.full_pairs.push((w, u));
        if self.hot[ws].md == self.hot[ws].child_count {
            self.queue.push(w);
        }
    }

    /// Checks the legality chain and returns the lowest marked node (the
    /// insertion point), or `None` when `G + x` is not a cograph.
    ///
    /// Chain walk: by label alternation, consecutive marked chain members
    /// are a parent or a grandparent (across one clean union node) apart, so
    /// each marked node finds its successor in `O(1)` and the whole check is
    /// `O(d)`.
    fn find_lowest(&mut self) -> Option<u32> {
        self.targets.clear();
        let mut top = NONE;
        // The marked (not fully marked) node set, read off the touch list.
        let mut marked_count = 0usize;
        for i in 0..self.touched.len() {
            let w = self.touched[i];
            if self.state(w) != MARKED {
                continue;
            }
            marked_count += 1;
            if w == self.root {
                if top != NONE {
                    return None; // two chain tops
                }
                top = w;
                continue;
            }
            let p = self.hot[w as usize].parent;
            match self.state(p) {
                // A fully marked parent of a partially marked child is
                // impossible: Full propagates only through Full children.
                FULL => unreachable!("partially marked child of a fully marked node"),
                MARKED => {
                    // Chain members above the lowest must be join nodes.
                    if self.hot[p as usize].tag != JOIN as u32 {
                        return None;
                    }
                    self.targets.push(p);
                }
                _ => {
                    // An unmarked join node on the path to the root means
                    // x misses leaves it would have to be joined to.
                    if self.hot[p as usize].tag == JOIN as u32 {
                        return None;
                    }
                    if p == self.root {
                        if top != NONE {
                            return None;
                        }
                        top = w;
                        continue;
                    }
                    // p is a clean union node; by alternation its parent is
                    // a join node, which must be marked.
                    let gp = self.hot[p as usize].parent;
                    if self.state(gp) != MARKED || self.hot[gp as usize].tag != JOIN as u32 {
                        return None;
                    }
                    self.targets.push(gp);
                }
            }
        }
        // 0 < d < inserted always leaves at least one marked node (the full
        // propagation from any neighbour leaf stops strictly below the
        // root); an empty marked set here would be a recogniser bug.
        debug_assert!(marked_count > 0, "no marked nodes for a proper subset N(x)");
        if top == NONE || self.targets.len() + 1 != marked_count {
            return None;
        }
        // Each chain member above the lowest must be the successor of
        // exactly one marked node; a duplicate target means the marked set
        // branches instead of forming a path.
        self.targets.sort_unstable();
        if self.targets.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        // The unique marked node that is nobody's successor is the lowest
        // (distinct targets + one top make the marked set a single path).
        let mut lowest = NONE;
        for i in 0..self.touched.len() {
            let w = self.touched[i];
            if self.state(w) == MARKED && self.targets.binary_search(&w).is_err() {
                lowest = w;
                break;
            }
        }
        debug_assert_ne!(lowest, NONE);
        // Every chain member above the lowest is a join node (checked while
        // collecting targets) missing exactly one fully marked child — the
        // one leading down to the insertion point.
        for &t in &self.targets {
            if self.hot[t as usize].md + 1 != self.hot[t as usize].child_count {
                return None;
            }
        }
        // The lowest node itself is locally unconstrained: any non-empty
        // proper subset of fully marked children can be grouped with x
        // (union lowest) or separated from x (join lowest) — see
        // [`Slab::insert_at`]. Its unmarked children are clean because no
        // marked node sits below the chain bottom.
        Some(lowest)
    }

    /// Splices the new leaf node into the tree at the lowest marked node
    /// `u`, preserving label alternation and arity ≥ 2.
    fn insert_at(&mut self, leaf: u32, u: u32) {
        let uu = u as usize;
        match self.hot[uu].tag as u8 {
            JOIN => {
                // x is adjacent to exactly the leaves of the fully marked
                // children of u (within u's subtree): x unions with the
                // non-full rest.
                if self.hot[uu].md + 1 == self.hot[uu].child_count {
                    // One non-full child c: x descends beside it. The scan
                    // over u's children is O(md + 1).
                    let mut c = self.first_child[uu];
                    while self.state(c) == FULL {
                        c = self.next_sibling[c as usize];
                    }
                    debug_assert_ne!(c, NONE);
                    debug_assert_eq!(self.state(c), CLEAN);
                    if self.tag(c) == UNION {
                        self.attach(leaf, c);
                    } else {
                        // c is a leaf (a join child of a join is impossible).
                        debug_assert_eq!(self.tag(c), LEAF);
                        self.detach(c);
                        let z = self.alloc(UNION, 0);
                        self.attach(z, u);
                        self.attach(c, z);
                        self.attach(leaf, z);
                    }
                } else {
                    // Two or more non-full children stay joined to each
                    // other: u keeps them, and a replacement join u' takes
                    // the O(md) fully marked children plus union(u, x) — the
                    // small side moves, keeping the insertion O(d).
                    let parent = self.hot[uu].parent;
                    if parent != NONE {
                        self.detach(u);
                    }
                    let replacement = self.alloc(JOIN, 0);
                    for i in 0..self.full_pairs.len() {
                        let (p, b) = self.full_pairs[i];
                        if p != u {
                            continue;
                        }
                        self.detach(b);
                        self.attach(b, replacement);
                    }
                    let z = self.alloc(UNION, 0);
                    self.attach(u, z);
                    self.attach(leaf, z);
                    self.attach(z, replacement);
                    if parent != NONE {
                        self.attach(replacement, parent);
                    } else {
                        self.root = replacement;
                    }
                }
            }
            UNION => {
                // x is adjacent to exactly the leaves of the fully marked
                // children B of u: join x with B, keep B mutually disjoint.
                let first = self
                    .full_pairs
                    .iter()
                    .position(|&(p, _)| p == u)
                    .expect("a marked union node has a fully marked child");
                if self.hot[uu].md == 1 {
                    let b = self.full_pairs[first].1;
                    if self.tag(b) == JOIN {
                        self.attach(leaf, b);
                    } else {
                        debug_assert_eq!(self.tag(b), LEAF);
                        self.detach(b);
                        let j = self.alloc(JOIN, 0);
                        self.attach(j, u);
                        self.attach(b, j);
                        self.attach(leaf, j);
                    }
                } else {
                    // join(x, union(B)) replaces B among u's children.
                    let z = self.alloc(UNION, 0);
                    let j = self.alloc(JOIN, 0);
                    for i in first..self.full_pairs.len() {
                        let (p, b) = self.full_pairs[i];
                        if p != u {
                            continue;
                        }
                        self.detach(b);
                        self.attach(b, z);
                    }
                    debug_assert_eq!(self.hot[z as usize].child_count, self.hot[uu].md);
                    self.attach(z, j);
                    self.attach(leaf, j);
                    self.attach(j, u);
                }
            }
            _ => unreachable!("leaves cannot stay marked"),
        }
    }

    /// Converts the slab into the crate's arena [`Cotree`] in one DFS.
    ///
    /// A node's children are listed last slab sibling first: the stack
    /// pops them in that order, and each child's subtree is built before
    /// the next child is popped.
    fn to_cotree(&self) -> Cotree {
        let mut tree = CotreeBuilder::new();
        let mut stack = vec![(self.root, false)];
        while let Some((node, built_children)) = stack.pop() {
            let nu = node as usize;
            match self.hot[nu].tag as u8 {
                LEAF => tree.leaf(self.label[nu]),
                tag if built_children => {
                    let kind = if tag == UNION {
                        CotreeKind::Union
                    } else {
                        CotreeKind::Join
                    };
                    tree.node(kind, self.hot[nu].child_count as usize);
                }
                _ => {
                    stack.push((node, true));
                    let mut c = self.first_child[nu];
                    while c != NONE {
                        stack.push((c, false));
                        c = self.next_sibling[c as usize];
                    }
                }
            }
        }
        tree.finish()
    }

    /// Removes the most recently allocated slab node, which must be
    /// detached. Used to undo the speculative leaf allocation of a rejected
    /// [`IncrementalCotree`] insertion.
    fn pop_last(&mut self) {
        let last = self.hot.len() - 1;
        debug_assert_eq!(self.hot[last].parent, NONE);
        debug_assert_ne!(self.root, last as u32);
        self.hot.pop();
        self.mark.pop();
        self.first_child.pop();
        self.next_sibling.pop();
        self.prev_sibling.pop();
        self.label.pop();
    }

    /// The induced `P_4` that refused inserting vertex `x` next to
    /// `neighbors`, read off the cotree of the prefix this slab holds.
    fn refusal(&self, x: VertexId, neighbors: impl IntoIterator<Item = VertexId>) -> InducedP4 {
        let mut adjacent = vec![false; x as usize];
        neighbors
            .into_iter()
            .for_each(|v| adjacent[v as usize] = true);
        find_p4(&self.to_cotree(), x, &adjacent)
            .expect("a refused insertion has an induced P4 through the new vertex")
    }
}

/// The induced `P_4` through a new vertex `x` that the cotree `tree` cannot
/// absorb, or `None` when `x` inserts legally; `adjacent[v]` says whether
/// the vertex labelled `v` is a neighbour of `x`.
///
/// Call a node *mixed* when some but not all of its leaves are neighbours
/// of `x`. The insertion fails exactly when an internal node `u` has a
/// mixed child `m` and another child `c` that is not all neighbours (`u` a
/// join) or holds a neighbour (`u` a union). Otherwise the mixed nodes form
/// one root path and `x` attaches at its lowest node: the legality the
/// marking pass checks. Two different children of `m` hold a neighbour `p`
/// and a non-neighbour `q`, and `c` gives `r`: a non-neighbour under a join
/// `u`, a neighbour under a union `u`. Labels alternate, so `m` is a union
/// under a join `u`, which yields `x – p – r – q`, and a join under a union
/// `u`, which yields `r – x – p – q`.
///
/// One sweep counts each node's leaves off and on `N(x)`, and the vertices
/// are picked from their subtrees' contiguous id ranges: `O(n)`, no graph.
fn find_p4(tree: &Cotree, x: VertexId, adjacent: &[bool]) -> Option<InducedP4> {
    let nodes = tree.num_nodes();
    // Per node: the first id of its subtree and its leaves off and on N(x).
    let (mut first, mut count) = (vec![0; nodes], vec![[0usize; 2]; nodes]);
    for u in 0..nodes {
        let kids = tree.children(u);
        first[u] = kids.first().map_or(u, |&k| first[k]);
        count[u] = match tree.kind(u) {
            CotreeKind::Leaf(v) => [!adjacent[v as usize], adjacent[v as usize]].map(usize::from),
            _ => [0, 1].map(|side| kids.iter().map(|&k| count[k][side]).sum()),
        };
    }
    // A child of `w` other than `skip` holding a vertex on `side` of N(x).
    let child = |w: usize, skip: usize, side: bool| {
        let mut kids = tree.children(w).iter().copied();
        kids.find(|&k| k != skip && count[k][usize::from(side)] > 0)
    };
    let (join, m, c) = (0..nodes).find_map(|u| {
        let join = tree.kind(u) == CotreeKind::Join;
        let mut kids = tree.children(u).iter().copied();
        let m = kids.find(|&k| count[k][0] > 0 && count[k][1] > 0)?;
        Some((join, m, child(u, m, !join)?))
    })?;
    // `a` holds a neighbour and `b` a non-neighbour. When only `b` holds a
    // neighbour, every other child of `m` holds non-neighbours only.
    let b = child(m, NO_NODE, false)?;
    let (a, b) = match child(m, b, true) {
        Some(a) => (a, b),
        None => (b, child(m, b, false)?),
    };
    // The first vertex on `side` of N(x) in the id range of `w`'s subtree.
    let pick = |w: usize, side: bool| {
        (first[w]..=w).find_map(|y| match tree.kind(y) {
            CotreeKind::Leaf(v) if adjacent[v as usize] == side => Some(v),
            _ => None,
        })
    };
    let (p, q, r) = (pick(a, true)?, pick(b, false)?, pick(c, !join)?);
    let path = if join { [x, p, r, q] } else { [r, x, p, q] };
    Some(InducedP4 { path })
}

/// A growable cotree maintained by incremental insertion: the serving-layer
/// face of the recogniser's slab.
///
/// Unlike the batch path (where the leaf of vertex `v` is slab node `v`,
/// pre-allocated for the whole graph up front), this front allocates leaves
/// on demand, so internal nodes and leaves interleave in the slab and vertex
/// ids are mapped through a `leaf_of` table. Each [`try_add_vertex`]
/// insertion costs one `O(d)` marking pass; a rejected insertion leaves the
/// tree exactly as it was (last-good state), so a long-lived handle can
/// survive illegal updates.
///
/// [`try_add_vertex`]: IncrementalCotree::try_add_vertex
pub struct IncrementalCotree {
    slab: Slab,
    /// Slab leaf node of each vertex, indexed by vertex id.
    leaf_of: Vec<u32>,
    /// Reused per-insertion buffer of neighbour leaf indices.
    scratch: Vec<u32>,
}

impl IncrementalCotree {
    /// An empty tree with no vertices.
    pub fn new() -> IncrementalCotree {
        IncrementalCotree {
            slab: Slab::new(0),
            leaf_of: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Builds the tree of an existing cograph by running the batch
    /// insertion, or returns the typed rejection (with an induced-`P_4`
    /// certificate) when `g` is not a cograph. This is the rebuild path for
    /// mutations the insertion pass cannot absorb (edge updates).
    pub fn from_graph(g: &Graph) -> Result<IncrementalCotree, RecognitionError> {
        Ok(IncrementalCotree {
            slab: build(g)?,
            // Batch leaves sit at their vertex ids.
            leaf_of: (0..g.num_vertices() as u32).collect(),
            scratch: Vec::new(),
        })
    }

    /// Builds the tree of the cograph `tree` describes straight from its
    /// post-order arena in `O(n)`: no graph is materialised or recognised.
    /// `None` unless the leaves carry each label of `0..n` once.
    pub fn from_cotree(tree: &Cotree) -> Option<IncrementalCotree> {
        let n = tree.num_vertices();
        let (mut slab, mut seen) = (Slab::new(n), vec![false; n]);
        // Leaf `v` is slab node `v` as in the batch layout, internal nodes
        // follow in post-order; `attach` prepends and `to_cotree` reverses,
        // so the arena's child order survives the round trip.
        let mut node = Vec::with_capacity(tree.num_nodes());
        for u in 0..tree.num_nodes() {
            let s = match tree.kind(u) {
                CotreeKind::Leaf(v) if !std::mem::replace(seen.get_mut(v as usize)?, true) => v,
                CotreeKind::Leaf(_) => return None,
                CotreeKind::Union => slab.alloc(UNION, 0),
                CotreeKind::Join => slab.alloc(JOIN, 0),
            };
            for &c in tree.children(u) {
                slab.attach(node[c], s);
            }
            node.push(s);
        }
        slab.root = node[tree.root()];
        Some(IncrementalCotree {
            slab,
            leaf_of: (0..n as u32).collect(),
            scratch: Vec::new(),
        })
    }

    /// Number of vertices inserted so far.
    pub fn num_vertices(&self) -> usize {
        self.leaf_of.len()
    }

    /// Inserts a new vertex adjacent to exactly `neighbors` and returns its
    /// id (vertex ids are dense: the new id is [`num_vertices`] before the
    /// call). One `O(d)` marking pass on acceptance. On rejection the tree
    /// is left unchanged, the handle remains usable, and the error is an
    /// induced `P_4` through the new vertex, read off the tree in `O(n)`.
    ///
    /// # Panics
    ///
    /// `neighbors` must name distinct existing vertices — out-of-range or
    /// duplicate ids panic. Callers at trust boundaries validate first.
    ///
    /// [`num_vertices`]: IncrementalCotree::num_vertices
    pub fn try_add_vertex(&mut self, neighbors: &[VertexId]) -> Result<VertexId, InducedP4> {
        let id = self.leaf_of.len();
        assert!(
            id < (u32::MAX / 2) as usize,
            "incremental recognition supports at most 2^31 vertices"
        );
        self.scratch.clear();
        for &v in neighbors {
            assert!(
                (v as usize) < id,
                "neighbor {v} out of range for new vertex {id}"
            );
            self.scratch.push(self.leaf_of[v as usize]);
        }
        debug_assert!(
            {
                let mut seen = self.scratch.clone();
                seen.sort_unstable();
                seen.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate neighbor ids"
        );
        let leaf = self.slab.alloc(LEAF, id as VertexId);
        // The reject path allocates nothing further, so on failure the leaf
        // is still the newest slab node and pops cleanly.
        let neighbor_leaves = std::mem::take(&mut self.scratch);
        let ok = self.slab.insert(leaf, &neighbor_leaves, id);
        self.scratch = neighbor_leaves;
        if ok {
            self.leaf_of.push(leaf);
            Ok(id as VertexId)
        } else {
            self.slab.pop_last();
            Err(self.slab.refusal(id as VertexId, neighbors.iter().copied()))
        }
    }

    /// Exports the current tree as the crate's arena [`Cotree`]; leaf
    /// labels are the vertex ids.
    ///
    /// # Panics
    ///
    /// Panics on an empty tree (a cotree needs at least one leaf).
    pub fn to_cotree(&self) -> Cotree {
        assert!(!self.leaf_of.is_empty(), "the empty graph has no cotree");
        self.slab.to_cotree()
    }
}

impl Default for IncrementalCotree {
    fn default() -> IncrementalCotree {
        IncrementalCotree::new()
    }
}

impl std::fmt::Debug for IncrementalCotree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalCotree")
            .field("vertices", &self.leaf_of.len())
            .field("slab_nodes", &self.slab.hot.len())
            .finish()
    }
}

/// Inserts the vertices of `g` in id order: the slab of the whole graph,
/// or the typed rejection whose witness [`Slab::refusal`] reads off the
/// prefix before the first vertex whose insertion fails.
fn build(g: &Graph) -> Result<Slab, RecognitionError> {
    let (slab, x) = run(g);
    match g.num_vertices() {
        0 => Err(RecognitionError::EmptyGraph),
        n if x == n => Ok(slab),
        _ => {
            let x = x as VertexId;
            let witness = slab.refusal(x, g.neighbors(x).iter().copied().filter(|&y| y < x));
            debug_assert!(witness.verify(g));
            Err(RecognitionError::InducedP4(witness))
        }
    }
}

/// Runs the incremental insertion over `g` until a vertex fails: returns
/// the slab and the number of vertices it holds, all `n` or the failing
/// `x` (the prefix `0..x` is a cograph, `0..=x` is not).
fn run(g: &Graph) -> (Slab, usize) {
    // Vertices are inserted in id order, so with sorted adjacency lists the
    // already-inserted neighbours of x are exactly a list prefix, found by
    // one binary search instead of a scan over the whole list.
    let owned;
    let g = if g.is_finalized() {
        g
    } else {
        owned = {
            let mut sorted = g.clone();
            sorted.finalize();
            sorted
        };
        &owned
    };
    let n = g.num_vertices();
    let adjacency = g.adjacency();
    let mut slab = Slab::new(n);
    for x in 0..n {
        let list = &adjacency[x];
        let prefix = &list[..list.partition_point(|&y| (y as usize) < x)];
        // Leaves are pre-allocated at their vertex ids, so the neighbour ids
        // are already the neighbour leaf indices.
        if !slab.insert(x as u32, prefix, x) {
            return (slab, x);
        }
    }
    (slab, n)
}

/// Builds the cotree of `g` with the incremental recogniser, or returns the
/// typed rejection carrying an induced-`P_4` certificate.
pub fn recognize(g: &Graph) -> Result<Cotree, RecognitionError> {
    build(g).map(|slab| slab.to_cotree())
}

/// Decision-only version of [`recognize`]: same insertion loop, but neither
/// the final [`Cotree`] arena nor a witness is materialised.
pub fn is_cograph(g: &Graph) -> bool {
    g.num_vertices() > 0 && run(g).1 == g.num_vertices()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_cotree, CotreeShape};
    use crate::recognition::reference;
    use pcgraph::generators;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn builds_stars_paths_and_bipartite_cores() {
        // P3 = K_{1,2}.
        let p3 = generators::path_graph(3);
        let t = recognize(&p3).expect("P3 is a cograph");
        assert_eq!(t.to_graph(), p3);
        // C4 = K_{2,2}.
        let c4 = generators::cycle_graph(4);
        let t = recognize(&c4).expect("C4 is a cograph");
        assert_eq!(t.to_graph(), c4);
        // Star K_{1,5}.
        let star = generators::star_graph(5);
        let t = recognize(&star).expect("stars are cographs");
        assert_eq!(t.to_graph(), star);
    }

    #[test]
    fn paw_needs_the_join_regrouping_case() {
        // Triangle 0-1-2 plus the pendant 0-3: the lowest marked node is a
        // join with two non-full children, exercising the resplice that
        // moves only the fully marked side.
        let paw = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3)]).unwrap();
        let t = recognize(&paw).expect("the paw is a cograph");
        assert_eq!(t.to_graph(), paw);
    }

    #[test]
    fn rejects_p4_with_a_verified_witness() {
        let p4 = generators::p4();
        let Err(RecognitionError::InducedP4(w)) = recognize(&p4) else {
            panic!("P4 must be rejected");
        };
        assert!(w.verify(&p4));
        assert!(!is_cograph(&p4));
    }

    #[test]
    fn every_generator_shape_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for shape in CotreeShape::ALL {
            for n in [1usize, 2, 3, 4, 9, 17, 40, 96] {
                let g = random_cotree(n, shape, &mut rng).to_graph();
                let t = recognize(&g).unwrap_or_else(|e| panic!("{shape:?} n={n}: {e}"));
                assert!(t.validate().is_ok(), "{shape:?} n={n}");
                assert_eq!(t.to_graph(), g, "{shape:?} n={n}");
            }
        }
    }

    #[test]
    fn rejection_point_is_order_insensitive_for_the_verdict() {
        // A P4 buried inside a larger graph must be found no matter where
        // the four vertices sit in the insertion order.
        let mut edges = vec![(4u32, 5u32), (5, 6), (6, 7)]; // P4 on 4..8
        edges.extend([(0, 1), (2, 3), (0, 2), (1, 3), (1, 2), (0, 3)]); // K4 on 0..4
        let g = Graph::from_edges(8, &edges).unwrap();
        let Err(RecognitionError::InducedP4(w)) = recognize(&g) else {
            panic!("graph contains an induced P4");
        };
        assert!(w.verify(&g));
    }

    #[test]
    fn disjoint_p4_tail_is_rejected_late() {
        // Cograph prefix, P4 appended as the last four vertices: the reject
        // happens on the final insertions.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let prefix = random_cotree(20, CotreeShape::Mixed, &mut rng).to_graph();
        let mut edges: Vec<(u32, u32)> = prefix.edges().collect();
        let base = 20u32;
        edges.extend([(base, base + 1), (base + 1, base + 2), (base + 2, base + 3)]);
        let g = Graph::from_edges(24, &edges).unwrap();
        let Err(RecognitionError::InducedP4(w)) = recognize(&g) else {
            panic!("P4 tail must reject");
        };
        assert!(w.verify(&g));
        assert!(w.path.iter().all(|&v| v >= base), "witness is the tail P4");
    }

    #[test]
    fn incremental_growth_matches_batch_recognition() {
        // Grow every generator shape vertex-by-vertex through the public
        // growable front and check the exported tree matches the graph at
        // every step.
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for shape in CotreeShape::ALL {
            for n in [1usize, 2, 3, 5, 17, 48] {
                let g = random_cotree(n, shape, &mut rng).to_graph();
                let mut tree = IncrementalCotree::new();
                for x in 0..n {
                    let prefix: Vec<u32> = g
                        .neighbors(x as u32)
                        .iter()
                        .copied()
                        .filter(|&y| (y as usize) < x)
                        .collect();
                    let id = tree.try_add_vertex(&prefix).expect("cograph prefix");
                    assert_eq!(id as usize, x);
                    assert_eq!(tree.num_vertices(), x + 1);
                }
                let exported = tree.to_cotree();
                assert!(exported.validate().is_ok(), "{shape:?} n={n}");
                assert_eq!(exported.to_graph(), g, "{shape:?} n={n}");
            }
        }
    }

    #[test]
    fn rejected_insertion_preserves_last_good_state() {
        // Grow a P3, attempt the insertion that would complete a P4, and
        // check the refusal names that P4 while the handle still answers
        // for the P3 and accepts a later legal vertex.
        let mut tree = IncrementalCotree::new();
        tree.try_add_vertex(&[]).unwrap();
        tree.try_add_vertex(&[0]).unwrap();
        tree.try_add_vertex(&[1]).unwrap();
        let refused = tree.try_add_vertex(&[2]);
        assert_eq!(refused, Err(InducedP4 { path: [3, 2, 1, 0] }));
        assert_eq!(tree.num_vertices(), 3);
        assert_eq!(tree.to_cotree().to_graph(), generators::path_graph(3));
        // A dominating vertex is always legal.
        let id = tree.try_add_vertex(&[0, 1, 2]).expect("join-all is legal");
        assert_eq!(id, 3);
        let grown = tree.to_cotree().to_graph();
        let expected = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)]).unwrap();
        assert_eq!(grown, expected);
    }

    #[test]
    fn refusals_match_the_reference_and_certify_themselves() {
        // Random cographs of every shape, grown by one vertex with a random
        // neighbourhood of every density: the insertion is refused exactly
        // when the reference recogniser rejects the candidate graph, every
        // refusal's witness is an induced P4 of the candidate, and a refusal
        // leaves the tree as it was. Trees built from the graph and straight
        // from the cotree take turns.
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let (mut accepted, mut refused) = (0, 0);
        for shape in CotreeShape::ALL {
            for n in 1..=40usize {
                for density in [0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0] {
                    let cotree = random_cotree(n, shape, &mut rng);
                    let g = cotree.to_graph();
                    let mut tree = if rng.gen_bool(0.5) {
                        IncrementalCotree::from_graph(&g).expect("a cograph")
                    } else {
                        IncrementalCotree::from_cotree(&cotree).expect("labels 0..n")
                    };
                    let before = tree.to_cotree().to_term();
                    let x = n as VertexId;
                    let neighbors: Vec<VertexId> =
                        (0..x).filter(|_| rng.gen_bool(density)).collect();
                    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
                    edges.extend(neighbors.iter().map(|&v| (v, x)));
                    let candidate = Graph::from_edges(n + 1, &edges).unwrap();
                    let verdict = reference::recognize(&candidate).is_some();
                    let context = format!("{shape:?} n={n} N(x)={neighbors:?}");
                    match tree.try_add_vertex(&neighbors) {
                        Ok(id) => {
                            assert!(verdict, "{context}: accepted, reference rejects");
                            assert_eq!(id, x, "{context}");
                            assert_eq!(tree.to_cotree().to_graph(), candidate, "{context}");
                            accepted += 1;
                        }
                        Err(witness) => {
                            assert!(!verdict, "{context}: refused, reference accepts");
                            assert!(witness.verify(&candidate), "{context}: {witness}");
                            assert_eq!(tree.to_cotree().to_term(), before, "{context}");
                            refused += 1;
                        }
                    }
                }
            }
        }
        assert!(
            accepted > 200 && refused > 200,
            "{accepted} accepted, {refused} refused"
        );
    }

    #[test]
    fn from_cotree_keeps_the_arena_and_refuses_other_labels() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        for shape in CotreeShape::ALL {
            for n in [1usize, 2, 7, 40] {
                let cotree = random_cotree(n, shape, &mut rng);
                let tree = IncrementalCotree::from_cotree(&cotree).expect("labels 0..n");
                assert_eq!(tree.num_vertices(), n);
                assert_eq!(tree.to_cotree(), cotree, "{shape:?} n={n}");
            }
        }
        let labelled = |a, b| Cotree::union_of_labelled(vec![Cotree::single(a), Cotree::single(b)]);
        assert!(IncrementalCotree::from_cotree(&labelled(0, 2)).is_none());
        assert!(IncrementalCotree::from_cotree(&labelled(1, 1)).is_none());
        assert!(IncrementalCotree::from_cotree(&labelled(1, 0)).is_some());
    }

    #[test]
    fn from_graph_rebuild_matches_grown_tree() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let g = random_cotree(33, CotreeShape::Mixed, &mut rng).to_graph();
        let rebuilt = IncrementalCotree::from_graph(&g).expect("cograph");
        assert_eq!(rebuilt.num_vertices(), 33);
        assert_eq!(rebuilt.to_cotree().to_graph(), g);
        // Non-cographs reject with a verified witness.
        let p4 = generators::p4();
        let Err(RecognitionError::InducedP4(w)) = IncrementalCotree::from_graph(&p4) else {
            panic!("P4 must be rejected");
        };
        assert!(w.verify(&p4));
        assert_eq!(
            IncrementalCotree::from_graph(&Graph::new(0)).err(),
            Some(RecognitionError::EmptyGraph)
        );
    }

    #[test]
    fn dense_graphs_recognize_without_witness_cost() {
        for n in [1usize, 2, 7, 33] {
            let g = generators::complete_graph(n);
            let t = recognize(&g).expect("complete graphs");
            assert_eq!(t.to_graph(), g);
            let e = Graph::new(n);
            let t = recognize(&e).expect("edgeless graphs");
            assert_eq!(t.to_graph(), e);
        }
    }
}
