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
/// Nodes are stored in an arena; the root is the last-created node of the
/// top-level constructor used. Leaves carry explicit vertex ids so that a
/// cotree produced by [`crate::recognition::recognize`] refers to the
/// original graph's vertices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cotree {
    kinds: Vec<CotreeKind>,
    children: Vec<Vec<usize>>,
    parent: Vec<usize>,
    root: usize,
}

impl Cotree {
    /// The cotree of the one-vertex graph, with the leaf labelled `v`.
    pub fn single(v: VertexId) -> Self {
        Cotree {
            kinds: vec![CotreeKind::Leaf(v)],
            children: vec![Vec::new()],
            parent: vec![NO_NODE],
            root: 0,
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

    fn combine(parts: Vec<Cotree>, kind: CotreeKind, relabel: bool) -> Self {
        assert!(!parts.is_empty(), "cannot combine an empty list of cotrees");
        if parts.len() == 1 {
            return parts.into_iter().next().expect("one part");
        }
        let mut kinds = Vec::new();
        let mut children: Vec<Vec<usize>> = Vec::new();
        let mut parent = Vec::new();
        let mut top_children = Vec::new();
        let mut vertex_offset: VertexId = 0;
        for part in parts {
            let node_offset = kinds.len();
            let part_vertices = part.num_vertices() as VertexId;
            for (i, k) in part.kinds.iter().enumerate() {
                kinds.push(match k {
                    CotreeKind::Leaf(v) => {
                        CotreeKind::Leaf(if relabel { v + vertex_offset } else { *v })
                    }
                    other => *other,
                });
                children.push(part.children[i].iter().map(|c| c + node_offset).collect());
                parent.push(if part.parent[i] == NO_NODE {
                    NO_NODE
                } else {
                    part.parent[i] + node_offset
                });
            }
            let part_root = part.root + node_offset;
            // Normalisation: a Union child of a Union (or Join child of a
            // Join) is absorbed so labels alternate along every root path,
            // which is property (5) of the paper's cotree definition.
            if kinds[part_root] == kind {
                top_children.extend(children[part_root].clone());
            } else {
                top_children.push(part_root);
            }
            vertex_offset += part_vertices;
        }
        let new_root = kinds.len();
        kinds.push(kind);
        children.push(top_children.clone());
        parent.push(NO_NODE);
        for &c in &top_children {
            parent[c] = new_root;
        }
        let tree = Cotree {
            kinds,
            children,
            parent,
            root: new_root,
        };
        tree.compact()
    }

    /// Assembles a cotree directly from arena parts.
    ///
    /// Crate-internal: the incremental recogniser builds its result in one
    /// pass through this instead of the combining constructors, whose
    /// copy-on-combine behaviour would cost `O(n · height)`. The caller must
    /// uphold the structural invariants ([`Cotree::validate`]); they are
    /// checked in debug builds.
    pub(crate) fn from_raw_parts(
        kinds: Vec<CotreeKind>,
        children: Vec<Vec<usize>>,
        parent: Vec<usize>,
        root: usize,
    ) -> Self {
        let tree = Cotree {
            kinds,
            children,
            parent,
            root,
        };
        debug_assert_eq!(tree.validate(), Ok(()), "from_raw_parts invariants");
        tree
    }

    /// Number of edges of the cograph, counted on the cotree without
    /// materialising it: a 1-node joins every pair of its children, so it
    /// contributes `L(a) · L(b)` edges for each such pair `a`, `b`, where
    /// `L` is the leaf count.
    pub fn num_edges(&self) -> usize {
        let mut leaves = vec![0usize; self.num_nodes()];
        let mut edges = 0usize;
        for u in self.postorder() {
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

    /// Drops nodes that became unreachable during normalisation.
    fn compact(self) -> Self {
        let n = self.kinds.len();
        let mut keep = vec![false; n];
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            keep[v] = true;
            stack.extend(self.children[v].iter().copied());
        }
        if keep.iter().all(|&k| k) {
            return self;
        }
        let mut remap = vec![NO_NODE; n];
        let mut next = 0usize;
        for v in 0..n {
            if keep[v] {
                remap[v] = next;
                next += 1;
            }
        }
        let mut kinds = Vec::with_capacity(next);
        let mut children = Vec::with_capacity(next);
        let mut parent = Vec::with_capacity(next);
        for v in 0..n {
            if !keep[v] {
                continue;
            }
            kinds.push(self.kinds[v]);
            children.push(self.children[v].iter().map(|&c| remap[c]).collect());
            parent.push(if self.parent[v] == NO_NODE || !keep[self.parent[v]] {
                NO_NODE
            } else {
                remap[self.parent[v]]
            });
        }
        Cotree {
            kinds,
            children,
            parent,
            root: remap[self.root],
        }
    }

    /// Number of cotree nodes (leaves plus internal nodes).
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of graph vertices (leaves).
    pub fn num_vertices(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_leaf()).count()
    }

    /// The root node index.
    pub fn root(&self) -> usize {
        self.root
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

    /// The vertex ids carried by the leaves, in left-to-right order.
    pub fn vertices(&self) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            if let CotreeKind::Leaf(x) = self.kinds[v] {
                out.push(x);
            }
            for &c in self.children[v].iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Checks the structural invariants of a cotree: every internal node has
    /// at least two children, labels alternate along root paths, and leaf
    /// labels are distinct.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for u in 0..self.num_nodes() {
            match self.kinds[u] {
                CotreeKind::Leaf(v) => {
                    if !self.children[u].is_empty() {
                        return Err(format!("leaf {u} has children"));
                    }
                    if !seen.insert(v) {
                        return Err(format!("duplicate vertex label {v}"));
                    }
                }
                kind => {
                    if self.children[u].len() < 2 {
                        return Err(format!("internal node {u} has fewer than two children"));
                    }
                    let p = self.parent[u];
                    if p != NO_NODE && self.kinds[p] == kind {
                        return Err(format!("labels do not alternate at node {u}"));
                    }
                }
            }
        }
        Ok(())
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
        // Iterative post-order: collect the vertex set of every subtree and
        // add the cross edges at 1-nodes.
        let order = self.postorder();
        let mut vertex_sets: Vec<Vec<VertexId>> = vec![Vec::new(); self.num_nodes()];
        for &u in &order {
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
        let mut stack = vec![Step::Node(self.root)];
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

    /// Post-order listing of all nodes.
    pub fn postorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.num_nodes());
        let mut stack = vec![(self.root, false)];
        while let Some((u, expanded)) = stack.pop() {
            if expanded {
                order.push(u);
            } else {
                stack.push((u, true));
                for &c in self.children[u].iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Height of the cotree (a single leaf has height 0).
    pub fn height(&self) -> usize {
        let order = self.postorder();
        let mut h = vec![0usize; self.num_nodes()];
        for &u in &order {
            h[u] = self.children[u]
                .iter()
                .map(|&c| h[c] + 1)
                .max()
                .unwrap_or(0);
        }
        h[self.root]
    }
}

/// Builds a [`Cotree`] arena in one pass, children before parents.
///
/// This is the post-order layout the combining constructors
/// ([`Cotree::union_of`] and friends) produce, without their
/// copy-on-combine cost of `O(n · height)`. [`CotreeBuilder::leaf`] and
/// [`CotreeBuilder::node`] return the index of the node they add; `node`
/// adopts already-built subtrees as its ordered children, and the last node
/// added is the root. The caller upholds the invariants of
/// [`Cotree::validate`] (no label equal to its parent's, at least two
/// children per internal node, distinct leaf labels); they are checked in
/// debug builds.
#[derive(Debug, Default)]
pub struct CotreeBuilder {
    kinds: Vec<CotreeKind>,
    children: Vec<Vec<usize>>,
    parent: Vec<usize>,
}

impl CotreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        CotreeBuilder::default()
    }

    /// Adds a leaf carrying vertex `v`.
    pub fn leaf(&mut self, v: VertexId) -> usize {
        self.push(CotreeKind::Leaf(v), Vec::new())
    }

    /// Adds an internal node of `kind` over `children`, each the root of a
    /// subtree built earlier and not yet adopted.
    pub fn node(&mut self, kind: CotreeKind, children: Vec<usize>) -> usize {
        debug_assert!(!kind.is_leaf(), "internal nodes are unions or joins");
        let id = self.kinds.len();
        for &c in &children {
            debug_assert_eq!(self.parent[c], NO_NODE, "node {c} adopted twice");
            self.parent[c] = id;
        }
        self.push(kind, children)
    }

    fn push(&mut self, kind: CotreeKind, children: Vec<usize>) -> usize {
        self.kinds.push(kind);
        self.children.push(children);
        self.parent.push(NO_NODE);
        self.kinds.len() - 1
    }

    /// The finished cotree, rooted at the last node added.
    ///
    /// # Panics
    /// Panics when no node was added.
    pub fn finish(self) -> Cotree {
        let root = self
            .kinds
            .len()
            .checked_sub(1)
            .expect("a cotree has a node");
        debug_assert!(
            self.parent[..root].iter().all(|&p| p != NO_NODE),
            "every node but the root has a parent"
        );
        Cotree::from_raw_parts(self.kinds, self.children, self.parent, root)
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
        let (x, y) = (b.leaf(2), b.leaf(0));
        let join = b.node(CotreeKind::Join, vec![x, y]);
        let z = b.leaf(1);
        b.node(CotreeKind::Union, vec![join, z]);
        assert_eq!(b.finish(), combined);
    }

    #[test]
    fn validate_rejects_duplicate_labels() {
        let t = Cotree::join_of_labelled(vec![Cotree::single(3), Cotree::single(3)]);
        assert!(t.validate().is_err());
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
