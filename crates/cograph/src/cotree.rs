//! The k-ary labelled cotree.

use pcgraph::{Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Sentinel for "no node".
pub const NO_NODE: usize = usize::MAX;

/// Kind of a cotree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CotreeKind {
    /// A leaf carrying a graph vertex.
    Leaf(VertexId),
    /// A 0-node: the subgraphs of the children are disjoint-unioned.
    Union,
    /// A 1-node: the subgraphs of the children are joined (all cross edges).
    Join,
}

impl CotreeKind {
    /// `true` for [`CotreeKind::Leaf`].
    pub fn is_leaf(&self) -> bool {
        matches!(self, CotreeKind::Leaf(_))
    }
}

/// A rooted k-ary cotree.
///
/// Nodes are stored in an arena numbered in post-order: every subtree is
/// the id range that ends at its root, each node lists its children in
/// increasing id order, and the root is the last node. Every constructor
/// ([`Cotree::single`], the combining constructors, [`CotreeBuilder`] and
/// so the term parsers and the recognisers) produces this layout and
/// [`Cotree::validate`] checks it, so a bottom-up pass is a loop over
/// `0..num_nodes()` and a top-down pass a loop over its reverse. Leaves
/// carry explicit vertex ids so that a cotree produced by
/// [`crate::recognition::recognize`] refers to the original graph's
/// vertices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cotree {
    kinds: Vec<CotreeKind>,
    children: Vec<Vec<usize>>,
    parent: Vec<usize>,
}

impl Cotree {
    /// The cotree of the one-vertex graph, with the leaf labelled `v`.
    pub fn single(v: VertexId) -> Self {
        Cotree {
            kinds: vec![CotreeKind::Leaf(v)],
            children: vec![Vec::new()],
            parent: vec![NO_NODE],
        }
    }

    /// Combines cotrees under a 0-node (disjoint union), relabelling the
    /// vertices of each part by consecutive offsets so the result's vertices
    /// are `0..n`.
    pub fn union_of(parts: Vec<Cotree>) -> Self {
        Self::combine(parts, CotreeKind::Union, true)
    }

    /// Combines cotrees under a 1-node (join), relabelling vertices by
    /// consecutive offsets.
    pub fn join_of(parts: Vec<Cotree>) -> Self {
        Self::combine(parts, CotreeKind::Join, true)
    }

    /// Combines cotrees under a 0-node keeping the existing vertex labels.
    pub fn union_of_labelled(parts: Vec<Cotree>) -> Self {
        Self::combine(parts, CotreeKind::Union, false)
    }

    /// Combines cotrees under a 1-node keeping the existing vertex labels.
    pub fn join_of_labelled(parts: Vec<Cotree>) -> Self {
        Self::combine(parts, CotreeKind::Join, false)
    }

    /// Replays every part's post-order arena through one builder, then
    /// adds the new root over the parts' roots.
    fn combine(parts: Vec<Cotree>, kind: CotreeKind, relabel: bool) -> Self {
        assert!(!parts.is_empty(), "cannot combine an empty list of cotrees");
        if parts.len() == 1 {
            return parts.into_iter().next().expect("one part");
        }
        let mut tree = CotreeBuilder::new();
        let mut arity = 0;
        let mut vertex_offset: VertexId = 0;
        for part in &parts {
            // Normalisation: a Union child of a Union (or Join child of a
            // Join) is absorbed so labels alternate along every root path,
            // which is property (5) of the paper's cotree definition. Its
            // children stay pending and become the new root's.
            let root = part.root();
            let absorbed = part.kinds[root] == kind;
            let copied = if absorbed { root } else { root + 1 };
            for u in 0..copied {
                match part.kinds[u] {
                    CotreeKind::Leaf(v) => tree.leaf(if relabel { v + vertex_offset } else { v }),
                    inner => tree.node(inner, part.children[u].len()),
                }
            }
            arity += if absorbed {
                part.children[root].len()
            } else {
                1
            };
            vertex_offset += part.num_vertices() as VertexId;
        }
        tree.node(kind, arity);
        tree.build()
    }

    /// Number of edges of the cograph, counted on the cotree without
    /// materialising it: a 1-node joins every pair of its children, so it
    /// contributes `L(a) · L(b)` edges for each such pair `a`, `b`, where
    /// `L` is the leaf count.
    pub fn num_edges(&self) -> usize {
        let mut leaves = vec![0usize; self.num_nodes()];
        let mut edges = 0usize;
        for u in 0..self.num_nodes() {
            leaves[u] = match self.kinds[u] {
                CotreeKind::Leaf(_) => 1,
                kind => {
                    let mut seen = 0usize;
                    for &c in &self.children[u] {
                        if kind == CotreeKind::Join {
                            edges += seen * leaves[c];
                        }
                        seen += leaves[c];
                    }
                    seen
                }
            };
        }
        edges
    }

    /// Number of cotree nodes (leaves plus internal nodes).
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of graph vertices (leaves).
    pub fn num_vertices(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_leaf()).count()
    }

    /// The root node index: the last node of the post-order arena.
    pub fn root(&self) -> usize {
        self.num_nodes() - 1
    }

    /// Kind of node `u`.
    pub fn kind(&self, u: usize) -> CotreeKind {
        self.kinds[u]
    }

    /// Ordered children of node `u`.
    pub fn children(&self, u: usize) -> &[usize] {
        &self.children[u]
    }

    /// Parent of node `u`, or [`NO_NODE`] for the root.
    pub fn parent(&self, u: usize) -> usize {
        self.parent[u]
    }

    /// The vertex ids carried by the leaves, in left-to-right order (the
    /// order of their ids).
    pub fn vertices(&self) -> Vec<VertexId> {
        self.kinds
            .iter()
            .filter_map(|&kind| match kind {
                CotreeKind::Leaf(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    /// Checks the structural invariants of a cotree: the arena is numbered
    /// in post-order (read from the last, each node's children are the
    /// subtrees ending just below it and just below each other, each names
    /// it as its parent, and the last node is a parentless root over every
    /// node), every internal node has at least two children, labels
    /// alternate along root paths, and leaf labels are distinct.
    pub fn validate(&self) -> Result<(), String> {
        let nodes = self.num_nodes();
        let mut seen = std::collections::BTreeSet::new();
        // The first id of each node's subtree.
        let mut first = Vec::with_capacity(nodes);
        for u in 0..nodes {
            let kids = &self.children[u];
            match self.kinds[u] {
                CotreeKind::Leaf(v) => {
                    if !kids.is_empty() {
                        return Err(format!("leaf {u} has children"));
                    }
                    if !seen.insert(v) {
                        return Err(format!("duplicate vertex label {v}"));
                    }
                }
                kind => {
                    if kids.len() < 2 {
                        return Err(format!("internal node {u} has fewer than two children"));
                    }
                    if let Some(&c) = kids.iter().find(|&&c| self.kinds.get(c) == Some(&kind)) {
                        return Err(format!("labels do not alternate at node {c}"));
                    }
                }
            }
            let mut end = u;
            for &c in kids.iter().rev() {
                if c.checked_add(1) != Some(end) || self.parent[c] != u {
                    return Err(format!("node {u} is not numbered in post-order"));
                }
                end = first[c];
            }
            first.push(end);
        }
        match first.last() {
            Some(0) if self.parent[nodes - 1] == NO_NODE => Ok(()),
            _ => Err("the last node is not the root of every node".to_string()),
        }
    }

    /// Materialises the cograph: vertex labels must be exactly `0..n`.
    ///
    /// Two vertices are adjacent iff their lowest common ancestor in the
    /// cotree is a 1-node; equivalently the graph is built bottom-up by
    /// unioning at 0-nodes and joining at 1-nodes, which is what this method
    /// does.
    pub fn to_graph(&self) -> Graph {
        let n = self.num_vertices();
        let mut g = Graph::new(n);
        // Bottom-up: collect the vertex set of every subtree and add the
        // cross edges at 1-nodes.
        let mut vertex_sets: Vec<Vec<VertexId>> = vec![Vec::new(); self.num_nodes()];
        for u in 0..self.num_nodes() {
            match self.kinds[u] {
                CotreeKind::Leaf(v) => {
                    assert!(
                        (v as usize) < n,
                        "to_graph requires vertex labels 0..n, found {v} with n = {n}"
                    );
                    vertex_sets[u] = vec![v];
                }
                CotreeKind::Union | CotreeKind::Join => {
                    let kids = &self.children[u];
                    if self.kinds[u] == CotreeKind::Join {
                        for (i, &a) in kids.iter().enumerate() {
                            for &b in kids.iter().skip(i + 1) {
                                for &x in &vertex_sets[a] {
                                    for &y in &vertex_sets[b] {
                                        g.add_edge(x, y).expect("join edges are fresh");
                                    }
                                }
                            }
                        }
                    }
                    let mut combined = Vec::new();
                    for &c in kids {
                        combined.extend_from_slice(&vertex_sets[c]);
                    }
                    vertex_sets[u] = combined;
                }
            }
        }
        g.finalize();
        g
    }

    /// Renders the cotree in term notation — `(u ...)` for a 0-node,
    /// `(j ...)` for a 1-node — with every leaf written as its numeric
    /// vertex label, e.g. `(u (j 0 1) 2)`.
    ///
    /// This is the serialisation form of a *labelled* cotree: children keep
    /// their order and leaves keep their exact labels, so a label-aware
    /// parser (the service's `parse_cotree_term_labelled`) reconstructs a
    /// structurally identical tree describing the same labelled graph. (The
    /// service's default term parser assigns leaf ids by order of first
    /// appearance instead, which round-trips only when the labels already
    /// appear in order.)
    pub fn to_term(&self) -> String {
        // Explicit stack instead of recursion: cotrees of skewed shape can
        // be `O(n)` deep. `Close` emits the ')' after a node's children,
        // `Space` the separator before each child.
        enum Step {
            Node(usize),
            Space,
            Close,
        }
        let mut out = String::new();
        let mut stack = vec![Step::Node(self.root())];
        while let Some(step) = stack.pop() {
            match step {
                Step::Space => out.push(' '),
                Step::Close => out.push(')'),
                Step::Node(u) => match self.kinds[u] {
                    CotreeKind::Leaf(v) => out.push_str(&v.to_string()),
                    kind => {
                        out.push('(');
                        out.push(if kind == CotreeKind::Join { 'j' } else { 'u' });
                        stack.push(Step::Close);
                        for &c in self.children[u].iter().rev() {
                            stack.push(Step::Node(c));
                            stack.push(Step::Space);
                        }
                    }
                },
            }
        }
        out
    }

    /// Post-order listing of all nodes: `0..num_nodes()`, the arena's own
    /// order.
    pub fn postorder(&self) -> Vec<usize> {
        (0..self.num_nodes()).collect()
    }

    /// Height of the cotree (a single leaf has height 0).
    pub fn height(&self) -> usize {
        let mut h = vec![0usize; self.num_nodes()];
        for u in 0..self.num_nodes() {
            h[u] = self.children[u]
                .iter()
                .map(|&c| h[c] + 1)
                .max()
                .unwrap_or(0);
        }
        h[self.root()]
    }
}

/// Builds a [`Cotree`] arena in one pass, children before parents.
///
/// Nodes are added in post-order, the arena layout every [`Cotree`] has.
/// Each finished subtree waits on a pending stack until a node adopts it:
/// [`CotreeBuilder::node`] with `arity` adopts the last `arity` pending
/// subtrees as its children, in the order they were built, so a node's
/// arity is all it needs. [`CotreeBuilder::finish`] wants exactly one
/// pending subtree, the last node added, which becomes the root. The caller
/// upholds the other invariants of [`Cotree::validate`] (no label equal to
/// its parent's, at least two children per internal node, distinct leaf
/// labels); they are checked in debug builds.
#[derive(Debug, Default)]
pub struct CotreeBuilder {
    kinds: Vec<CotreeKind>,
    children: Vec<Vec<usize>>,
    parent: Vec<usize>,
    /// Roots of the finished subtrees no node has adopted yet, oldest first.
    pending: Vec<usize>,
}

impl CotreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        CotreeBuilder::default()
    }

    /// Adds a leaf carrying vertex `v`.
    pub fn leaf(&mut self, v: VertexId) {
        self.push(CotreeKind::Leaf(v), Vec::new());
    }

    /// Adds an internal node of `kind` whose children are the last `arity`
    /// pending subtrees.
    ///
    /// # Panics
    /// Panics when fewer than `arity` subtrees are pending.
    pub fn node(&mut self, kind: CotreeKind, arity: usize) {
        debug_assert!(!kind.is_leaf(), "internal nodes are unions or joins");
        let first = self
            .pending
            .len()
            .checked_sub(arity)
            .expect("a node adopts only pending subtrees");
        let children = self.pending.split_off(first);
        let id = self.kinds.len();
        for &c in &children {
            self.parent[c] = id;
        }
        self.push(kind, children);
    }

    fn push(&mut self, kind: CotreeKind, children: Vec<usize>) {
        self.pending.push(self.kinds.len());
        self.kinds.push(kind);
        self.children.push(children);
        self.parent.push(NO_NODE);
    }

    /// The finished cotree, rooted at the last node added. The arena drops
    /// the slack its growth left, since a finished tree may be kept for
    /// long (the service's cache holds parsed trees as they are).
    ///
    /// # Panics
    /// Panics unless exactly one subtree is pending: no node was added, or
    /// some subtree was never adopted.
    pub fn finish(self) -> Cotree {
        let tree = self.build();
        debug_assert_eq!(tree.validate(), Ok(()), "builder invariants");
        tree
    }

    /// [`CotreeBuilder::finish`] without the debug check, for the labelled
    /// combining constructors: their parts' labels may clash, which
    /// [`Cotree::validate`] reports afterwards.
    fn build(mut self) -> Cotree {
        assert_eq!(self.pending.len(), 1, "a cotree is one finished subtree");
        self.kinds.shrink_to_fit();
        self.children.shrink_to_fit();
        self.parent.shrink_to_fit();
        Cotree {
            kinds: self.kinds,
            children: self.children,
            parent: self.parent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcgraph::verify_path_cover;
    use pcgraph::{Path, PathCover};

    #[test]
    fn single_vertex_cotree() {
        let t = Cotree::single(0);
        assert_eq!(t.num_vertices(), 1);
        assert_eq!(t.num_nodes(), 1);
        assert!(t.validate().is_ok());
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn join_of_two_singles_is_an_edge() {
        let t = Cotree::join_of(vec![Cotree::single(0), Cotree::single(0)]);
        assert!(t.validate().is_ok());
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 2);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn union_of_two_singles_is_edgeless() {
        let t = Cotree::union_of(vec![Cotree::single(0), Cotree::single(0)]);
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn normalisation_flattens_nested_unions() {
        let inner = Cotree::union_of(vec![Cotree::single(0), Cotree::single(0)]);
        let outer = Cotree::union_of(vec![inner, Cotree::single(0)]);
        assert!(outer.validate().is_ok());
        // one union node with three leaf children
        assert_eq!(outer.num_nodes(), 4);
        assert_eq!(outer.children(outer.root()).len(), 3);
    }

    #[test]
    fn complete_graph_from_joins() {
        let t = Cotree::join_of(vec![
            Cotree::single(0),
            Cotree::single(0),
            Cotree::single(0),
            Cotree::single(0),
        ]);
        let g = t.to_graph();
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn complete_bipartite_structure() {
        let side = |k: usize| Cotree::union_of((0..k).map(|_| Cotree::single(0)).collect());
        let t = Cotree::join_of(vec![side(2), side(3)]);
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 6);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn fig1_style_cograph_cover_sanity() {
        // A join of (union of two edges) with a single vertex: every vertex
        // of the right side sees all of the left side, so a Hamiltonian path
        // exists; sanity-check with a hand-built cover.
        let edge = || Cotree::join_of(vec![Cotree::single(0), Cotree::single(0)]);
        let left = Cotree::union_of(vec![edge(), edge()]);
        let t = Cotree::join_of(vec![left, Cotree::single(0)]);
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 5);
        let cover = PathCover::from_paths(vec![Path::new(vec![0, 1, 4, 2, 3])]);
        assert!(verify_path_cover(&g, &cover).is_valid());
    }

    #[test]
    fn vertices_listing_and_height() {
        let t = Cotree::join_of(vec![
            Cotree::union_of(vec![Cotree::single(0), Cotree::single(0)]),
            Cotree::single(0),
        ]);
        assert_eq!(t.vertices().len(), 3);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn term_export_renders_labels_and_structure() {
        let t = Cotree::union_of_labelled(vec![
            Cotree::join_of_labelled(vec![Cotree::single(2), Cotree::single(0)]),
            Cotree::single(1),
        ]);
        // Child order and the exact (non-appearance-order) labels survive.
        assert_eq!(t.to_term(), "(u (j 2 0) 1)");
        assert_eq!(Cotree::single(7).to_term(), "7");
    }

    #[test]
    fn term_export_handles_skewed_trees() {
        // A maximally skewed cotree (alternating join/union spine): the
        // export must stay iterative, not recurse per level.
        let mut t = Cotree::single(0);
        for v in 1..2_000u32 {
            let parts = vec![t, Cotree::single(v)];
            t = if v % 2 == 0 {
                Cotree::union_of_labelled(parts)
            } else {
                Cotree::join_of_labelled(parts)
            };
        }
        let term = t.to_term();
        assert_eq!(term.matches('(').count(), 1_999);
        assert_eq!(term.matches('(').count(), term.matches(')').count());
    }

    #[test]
    fn builder_reproduces_the_combining_constructors_arena() {
        let combined = Cotree::union_of_labelled(vec![
            Cotree::join_of_labelled(vec![Cotree::single(2), Cotree::single(0)]),
            Cotree::single(1),
        ]);
        let mut b = CotreeBuilder::new();
        b.leaf(2);
        b.leaf(0);
        b.node(CotreeKind::Join, 2);
        b.leaf(1);
        b.node(CotreeKind::Union, 2);
        assert_eq!(b.finish(), combined);
    }

    #[test]
    fn validate_rejects_duplicate_labels() {
        let t = Cotree::join_of_labelled(vec![Cotree::single(3), Cotree::single(3)]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_arenas_out_of_post_order() {
        use CotreeKind::{Join, Leaf, Union};
        let arena =
            |kinds: Vec<CotreeKind>, children: Vec<Vec<usize>>, parent: Vec<usize>| Cotree {
                kinds,
                children,
                parent,
            };
        // (j 0 (u 1 2)) in post-order passes.
        let good = arena(
            vec![Leaf(0), Leaf(1), Leaf(2), Union, Join],
            vec![vec![], vec![], vec![], vec![1, 2], vec![0, 3]],
            vec![4, 3, 3, 4, NO_NODE],
        );
        assert_eq!(good.validate(), Ok(()));
        assert_eq!(good.to_term(), "(j 0 (u 1 2))");
        let rejected = [
            // The same tree in preorder: the root first.
            arena(
                vec![Join, Leaf(0), Union, Leaf(1), Leaf(2)],
                vec![vec![1, 2], vec![], vec![3, 4], vec![], vec![]],
                vec![NO_NODE, 0, 0, 2, 2],
            ),
            // Children listed against id order.
            arena(
                vec![Leaf(0), Leaf(1), Leaf(2), Union, Join],
                vec![vec![], vec![], vec![], vec![2, 1], vec![0, 3]],
                vec![4, 3, 3, 4, NO_NODE],
            ),
            // A subtree that is not an id range: the union's leaves are
            // split by the join's other child.
            arena(
                vec![Leaf(1), Leaf(0), Leaf(2), Union, Join],
                vec![vec![], vec![], vec![], vec![0, 2], vec![1, 3]],
                vec![3, 4, 3, 4, NO_NODE],
            ),
            // A parent pointer that disagrees with the children lists.
            arena(
                vec![Leaf(0), Leaf(1), Leaf(2), Union, Join],
                vec![vec![], vec![], vec![], vec![1, 2], vec![0, 3]],
                vec![4, 4, 3, 4, NO_NODE],
            ),
            // A node no one adopts, below a root over the rest.
            arena(
                vec![Leaf(0), Leaf(1), Leaf(2), Join],
                vec![vec![], vec![], vec![], vec![1, 2]],
                vec![NO_NODE, 3, 3, NO_NODE],
            ),
        ];
        for tree in rejected {
            assert!(tree.validate().is_err(), "{tree:?}");
        }
    }

    #[test]
    fn builder_adopts_the_last_pending_subtrees() {
        // (u 0 (j 1 2) 3): the join adopts the two leaves built last, the
        // union everything still pending.
        let mut b = CotreeBuilder::new();
        b.leaf(0);
        b.leaf(1);
        b.leaf(2);
        b.node(CotreeKind::Join, 2);
        b.leaf(3);
        b.node(CotreeKind::Union, 3);
        let t = b.finish();
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.to_term(), "(u 0 (j 1 2) 3)");
        assert_eq!(t.children(t.root()), &[0, 3, 4]);
        assert_eq!(t.postorder(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "one finished subtree")]
    fn builder_refuses_unadopted_subtrees() {
        let mut b = CotreeBuilder::new();
        b.leaf(0);
        b.leaf(1);
        b.finish();
    }

    #[test]
    fn labelled_combination_keeps_labels() {
        let t = Cotree::union_of_labelled(vec![Cotree::single(5), Cotree::single(9)]);
        let mut vs = t.vertices();
        vs.sort_unstable();
        assert_eq!(vs, vec![5, 9]);
    }

    #[test]
    fn single_part_combination_is_identity() {
        let t = Cotree::union_of(vec![Cotree::single(0)]);
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn empty_combination_panics() {
        Cotree::union_of(vec![]);
    }
}
