//! The binarised cotree `T_b(G)` and its leftist reordering `T_bl(G)`
//! (Section 2 of the paper, Fig. 3).

use crate::cotree::{Cotree, CotreeKind};
use parprims::RootedTree;
use pcgraph::VertexId;

/// Sentinel for "no node" in the child/parent arrays.
pub const NONE: usize = usize::MAX;

/// Kind of a binarised cotree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// A leaf carrying a graph vertex.
    Leaf(VertexId),
    /// A 0-node (union).
    Zero,
    /// A 1-node (join).
    One,
}

impl BinKind {
    /// `true` for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self, BinKind::Leaf(_))
    }
}

/// A binarised cotree: every internal node has exactly two children.
///
/// Binarisation replaces a k-ary internal node `u` with children
/// `v1, ..., vk` by a left-deep chain `u1, ..., u_{k-1}` of nodes carrying
/// `u`'s label, where `u1` has children `(v1, v2)` and `u_i` has children
/// `(u_{i-1}, v_{i+1})`. Properties (4) and (6) of the cotree are preserved;
/// label alternation (5) is deliberately given up, exactly as in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryCotree {
    kinds: Vec<BinKind>,
    left: Vec<usize>,
    right: Vec<usize>,
    parent: Vec<usize>,
    root: usize,
}

impl BinaryCotree {
    /// Binarises a cotree (Step 1 of the paper's algorithm).
    ///
    /// Nodes are numbered in the cotree's post-order, each k-ary node's
    /// chain right after its children's subtrees. The walk is iterative, so
    /// cotrees of any height binarise on a small stack.
    pub fn from_cotree(t: &Cotree) -> Self {
        let mut b = BinaryCotree {
            kinds: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            parent: Vec::new(),
            root: NONE,
        };
        // The binary node standing for each cotree node: its leaf, or the
        // top of its chain.
        let mut top = vec![NONE; t.num_nodes()];
        for u in t.postorder() {
            top[u] = match t.kind(u) {
                CotreeKind::Leaf(v) => b.new_node(BinKind::Leaf(v)),
                kind => {
                    let label = if kind == CotreeKind::Union {
                        BinKind::Zero
                    } else {
                        BinKind::One
                    };
                    let kids = t.children(u);
                    assert!(kids.len() >= 2, "cotree internal nodes have >= 2 children");
                    let mut acc = top[kids[0]];
                    for &extra in &kids[1..] {
                        let node = b.new_node(label);
                        b.attach(node, acc, top[extra]);
                        acc = node;
                    }
                    acc
                }
            };
        }
        b.root = top[t.root()];
        b
    }

    fn new_node(&mut self, kind: BinKind) -> usize {
        self.kinds.push(kind);
        self.left.push(NONE);
        self.right.push(NONE);
        self.parent.push(NONE);
        self.kinds.len() - 1
    }

    fn attach(&mut self, parent: usize, left: usize, right: usize) {
        self.left[parent] = left;
        self.right[parent] = right;
        self.parent[left] = parent;
        self.parent[right] = parent;
    }

    /// Number of cotree nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of graph vertices (leaves).
    pub fn num_vertices(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_leaf()).count()
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Kind of node `u`.
    pub fn kind(&self, u: usize) -> BinKind {
        self.kinds[u]
    }

    /// Left child of `u` ([`NONE`] for leaves).
    pub fn left(&self, u: usize) -> usize {
        self.left[u]
    }

    /// Right child of `u` ([`NONE`] for leaves).
    pub fn right(&self, u: usize) -> usize {
        self.right[u]
    }

    /// Parent of `u` ([`NONE`] for the root).
    pub fn parent(&self, u: usize) -> usize {
        self.parent[u]
    }

    /// `true` for leaf nodes.
    pub fn is_leaf(&self, u: usize) -> bool {
        self.kinds[u].is_leaf()
    }

    /// The graph vertex carried by leaf node `u`.
    ///
    /// # Panics
    /// Panics when `u` is not a leaf.
    pub fn vertex(&self, u: usize) -> VertexId {
        match self.kinds[u] {
            BinKind::Leaf(v) => v,
            other => panic!("node {u} is not a leaf (it is {other:?})"),
        }
    }

    /// Node ids of all leaves.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.num_nodes()).filter(|&u| self.is_leaf(u)).collect()
    }

    /// Post-order listing of all nodes (children before parents).
    pub fn postorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.num_nodes());
        let mut stack = vec![(self.root, false)];
        while let Some((u, expanded)) = stack.pop() {
            if expanded {
                order.push(u);
                continue;
            }
            stack.push((u, true));
            if !self.is_leaf(u) {
                stack.push((self.right[u], false));
                stack.push((self.left[u], false));
            }
        }
        order
    }

    /// Height of the tree (a single leaf has height 0).
    pub fn height(&self) -> usize {
        let mut h = vec![0usize; self.num_nodes()];
        for u in self.postorder() {
            if !self.is_leaf(u) {
                h[u] = 1 + h[self.left[u]].max(h[self.right[u]]);
            }
        }
        h[self.root]
    }

    /// Number of leaf descendants `L(u)` of every node (a leaf counts itself),
    /// computed sequentially (Step 2 of the algorithm; the PRAM-metered
    /// version goes through `parprims::euler`).
    pub fn leaf_counts(&self) -> Vec<usize> {
        let mut l = vec![0usize; self.num_nodes()];
        for u in self.postorder() {
            l[u] = if self.is_leaf(u) {
                1
            } else {
                l[self.left[u]] + l[self.right[u]]
            };
        }
        l
    }

    /// Reorders children so that `L(left) >= L(right)` at every internal node
    /// (the *leftist* property, Step 2). `leaf_counts` must come from
    /// [`BinaryCotree::leaf_counts`].
    pub fn make_leftist(&mut self, leaf_counts: &[usize]) {
        for u in 0..self.num_nodes() {
            if self.is_leaf(u) {
                continue;
            }
            let (l, r) = (self.left[u], self.right[u]);
            if leaf_counts[l] < leaf_counts[r] {
                self.left[u] = r;
                self.right[u] = l;
            }
        }
    }

    /// `true` when every internal node satisfies the leftist property.
    pub fn is_leftist(&self, leaf_counts: &[usize]) -> bool {
        (0..self.num_nodes())
            .all(|u| self.is_leaf(u) || leaf_counts[self.left[u]] >= leaf_counts[self.right[u]])
    }

    /// Convenience constructor: binarise, compute `L(u)`, make leftist.
    /// Returns the leftist binarised cotree `T_bl(G)` together with `L`.
    pub fn leftist_from_cotree(t: &Cotree) -> (Self, Vec<usize>) {
        let mut b = BinaryCotree::from_cotree(t);
        let l = b.leaf_counts();
        b.make_leftist(&l);
        (b, l)
    }

    /// Converts to the generic rooted-tree representation used by the PRAM
    /// primitives; children are ordered `[left, right]`.
    pub fn to_rooted_tree(&self) -> RootedTree {
        let n = self.num_nodes();
        let mut parent = vec![parprims::tree::NONE; n];
        let mut children = vec![Vec::new(); n];
        for u in 0..n {
            if self.parent[u] != NONE {
                parent[u] = self.parent[u];
            }
            if !self.is_leaf(u) {
                children[u] = vec![self.left[u], self.right[u]];
            }
        }
        RootedTree::new(parent, children, self.root)
    }

    /// Map from graph vertex id to its leaf node id.
    pub fn vertex_to_leaf(&self) -> Vec<usize> {
        let mut map = vec![NONE; self.num_vertices()];
        for u in 0..self.num_nodes() {
            if let BinKind::Leaf(v) = self.kinds[u] {
                map[v as usize] = u;
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_cotree, CotreeShape};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn wide_cotree() -> Cotree {
        // A join node with four leaf children.
        Cotree::join_of(vec![
            Cotree::single(0),
            Cotree::single(0),
            Cotree::single(0),
            Cotree::single(0),
        ])
    }

    #[test]
    fn binarisation_makes_every_internal_node_binary() {
        let b = BinaryCotree::from_cotree(&wide_cotree());
        assert_eq!(b.num_vertices(), 4);
        // 4 leaves need 3 binary internal nodes.
        assert_eq!(b.num_nodes(), 7);
        for u in 0..b.num_nodes() {
            if !b.is_leaf(u) {
                assert_ne!(b.left(u), NONE);
                assert_ne!(b.right(u), NONE);
            }
        }
        assert!(matches!(b.kind(b.root()), BinKind::One));
    }

    #[test]
    fn single_leaf_cotree() {
        let b = BinaryCotree::from_cotree(&Cotree::single(0));
        assert_eq!(b.num_nodes(), 1);
        assert!(b.is_leaf(b.root()));
        assert_eq!(b.leaf_counts(), vec![1]);
        assert_eq!(b.height(), 0);
    }

    #[test]
    fn leaf_counts_and_leftist() {
        // union(join(a,b,c), d): left subtree has 3 leaves, right has 1.
        let t = Cotree::union_of(vec![
            Cotree::join_of(vec![
                Cotree::single(0),
                Cotree::single(0),
                Cotree::single(0),
            ]),
            Cotree::single(0),
        ]);
        let (b, l) = BinaryCotree::leftist_from_cotree(&t);
        assert_eq!(l[b.root()], 4);
        assert!(b.is_leftist(&l));
        // The heavy (3-leaf) side must be the left child of the root.
        assert_eq!(l[b.left(b.root())], 3);
        assert_eq!(l[b.right(b.root())], 1);
    }

    #[test]
    fn leftist_holds_on_random_cotrees() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for shape in CotreeShape::ALL {
            for n in [2usize, 3, 9, 40, 120] {
                let t = random_cotree(n, shape, &mut rng);
                let (b, l) = BinaryCotree::leftist_from_cotree(&t);
                assert!(b.is_leftist(&l), "{shape:?} n={n}");
                assert_eq!(b.num_vertices(), n);
                assert_eq!(l[b.root()], n);
                // Binarised cotrees of n-vertex cographs have at most 2n - 1 nodes.
                assert!(b.num_nodes() <= 2 * n);
            }
        }
    }

    #[test]
    fn vertex_mapping_round_trip() {
        let t = wide_cotree();
        let b = BinaryCotree::from_cotree(&t);
        let map = b.vertex_to_leaf();
        for (v, &leaf) in map.iter().enumerate() {
            assert_eq!(b.vertex(leaf) as usize, v);
        }
    }

    #[test]
    fn rooted_tree_conversion_is_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let t = random_cotree(25, CotreeShape::Mixed, &mut rng);
        let (b, _) = BinaryCotree::leftist_from_cotree(&t);
        let rt = b.to_rooted_tree();
        assert_eq!(rt.len(), b.num_nodes());
        assert_eq!(rt.root(), b.root());
        for u in 0..b.num_nodes() {
            if b.is_leaf(u) {
                assert!(rt.is_leaf(u));
            } else {
                assert_eq!(rt.children(u), &[b.left(u), b.right(u)]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn vertex_of_internal_node_panics() {
        let b = BinaryCotree::from_cotree(&wide_cotree());
        b.vertex(b.root());
    }

    #[test]
    fn postorder_visits_children_first() {
        let b = BinaryCotree::from_cotree(&wide_cotree());
        let order = b.postorder();
        let mut position = vec![0usize; b.num_nodes()];
        for (i, &u) in order.iter().enumerate() {
            position[u] = i;
        }
        for u in 0..b.num_nodes() {
            if !b.is_leaf(u) {
                assert!(position[b.left(u)] < position[u]);
                assert!(position[b.right(u)] < position[u]);
            }
        }
    }

    #[test]
    fn skewed_cotrees_have_linear_height() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let t = random_cotree(64, CotreeShape::Skewed, &mut rng);
        let (b, _) = BinaryCotree::leftist_from_cotree(&t);
        assert!(b.height() >= 32);
    }
}
