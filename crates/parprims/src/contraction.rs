//! Rake-based parallel tree contraction (Abrahamson et al., the paper's
//! reference \[1\]) specialised to the expression algebra needed for the path
//! counts `p(u)` of the cotree.
//!
//! The algebra: every internal node of a binarised cotree computes either
//!
//! * `value = left + right` (a 0-node: covers of the two sides are unioned), or
//! * `value = max(left + a, b)` (a 1-node: `a = -L(w)`, `b = 1`), a function of
//!   the *left* child only because `L(w)` is known in advance.
//!
//! Both node operations, partially applied to known child values, live in the
//! closed class of *max-plus affine* functions `x -> max(x + a, b)`, which is
//! closed under composition — exactly the property tree contraction needs.
//!
//! The algorithm follows the classical rake-only scheme: leaves are numbered
//! left to right; each round rakes the odd-indexed leaves (first those that
//! are left children, then those that are right children) and compacts the
//! survivors by keeping the even-indexed half. A rake removes the leaf and
//! its parent and composes the parent's edge function onto the sibling. After
//! `O(log n)` rounds only the (artificial) super-root and one leaf remain;
//! replaying the recorded rake events in reverse then yields the value of
//! every internal node. Total: `O(log n)` steps, `O(n)` work, EREW.

use crate::euler::euler_tour_numbers;
use crate::tree::{RootedTree, NONE};
use pram::Pram;

/// A function of the form `x -> max(x + add, floor)`, with `add = MIN_INF`
/// encoding the constant function `x -> floor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxPlusAffine {
    /// Additive part; [`MaxPlusAffine::NEG_INF`] encodes "ignore x".
    pub add: i64,
    /// Lower clamp.
    pub floor: i64,
}

impl MaxPlusAffine {
    /// Sentinel standing in for minus infinity in the additive slot.
    pub const NEG_INF: i64 = i64::MIN / 4;

    /// The identity function.
    pub fn identity() -> Self {
        MaxPlusAffine {
            add: 0,
            floor: Self::NEG_INF,
        }
    }

    /// The constant function `x -> c`.
    pub fn constant(c: i64) -> Self {
        MaxPlusAffine {
            add: Self::NEG_INF,
            floor: c,
        }
    }

    /// Applies the function to `x`.
    pub fn apply(&self, x: i64) -> i64 {
        let shifted = if self.add <= Self::NEG_INF {
            Self::NEG_INF
        } else {
            x + self.add
        };
        shifted.max(self.floor)
    }

    /// Returns `self ∘ other`, i.e. the function `x -> self(other(x))`.
    pub fn compose(&self, other: &MaxPlusAffine) -> MaxPlusAffine {
        // self(max(x + a2, b2)) = max(max(x + a2, b2) + a1, b1)
        //                       = max(x + a1 + a2, max(b2 + a1, b1))
        let add = if self.add <= Self::NEG_INF || other.add <= Self::NEG_INF {
            Self::NEG_INF
        } else {
            self.add + other.add
        };
        let lifted_floor = if self.add <= Self::NEG_INF || other.floor <= Self::NEG_INF {
            Self::NEG_INF
        } else {
            other.floor + self.add
        };
        MaxPlusAffine {
            add,
            floor: lifted_floor.max(self.floor),
        }
    }
}

/// The operation performed by an internal node of the expression tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOp {
    /// `value = left + right` (cotree 0-node).
    Add,
    /// `value = max(left + add, floor)`, ignoring the right child
    /// (cotree 1-node with `add = -L(w)`, `floor = 1`).
    LeftAffine {
        /// Additive constant applied to the left child's value.
        add: i64,
        /// Lower clamp.
        floor: i64,
    },
}

impl NodeOp {
    fn eval(&self, left: i64, right: i64) -> i64 {
        match *self {
            NodeOp::Add => left + right,
            NodeOp::LeftAffine { add, floor } => {
                let _ = right;
                (left + add).max(floor)
            }
        }
    }
}

/// Sequential oracle: evaluates every node of the expression tree by an
/// explicit post-order traversal (no recursion, so skewed trees are fine).
///
/// `ops[v]` is ignored for leaves; `leaf_values[v]` is ignored for internal
/// nodes. Children order matters: `children(v)[0]` is the left child.
pub fn evaluate_tree_seq(tree: &RootedTree, ops: &[NodeOp], leaf_values: &[i64]) -> Vec<i64> {
    let n = tree.len();
    let mut value = vec![0i64; n];
    let mut state = vec![0u8; n];
    let mut stack = vec![tree.root()];
    while let Some(&v) = stack.last() {
        if tree.is_leaf(v) {
            value[v] = leaf_values[v];
            stack.pop();
            continue;
        }
        if state[v] == 0 {
            state[v] = 1;
            for &c in tree.children(v).iter().rev() {
                stack.push(c);
            }
        } else {
            let kids = tree.children(v);
            assert_eq!(kids.len(), 2, "expression trees must be strictly binary");
            value[v] = ops[v].eval(value[kids[0]], value[kids[1]]);
            stack.pop();
        }
    }
    value
}

/// One recorded rake, kept for the expansion phase.
#[derive(Debug, Clone, Copy)]
struct RakeEvent {
    /// The raked leaf.
    #[allow(dead_code)]
    leaf: usize,
    /// Its (removed) parent.
    parent: usize,
    /// The sibling that survived.
    sibling: usize,
    /// `true` when the raked leaf was the left child of `parent`.
    leaf_was_left: bool,
    /// The contracted value contributed by the leaf, `F_leaf(val_leaf)`.
    leaf_contrib: i64,
    /// The sibling's edge function *before* the rake.
    sibling_fn: MaxPlusAffine,
}

/// Evaluates every node of a strictly binary expression tree on the PRAM via
/// rake contraction followed by expansion.
///
/// Returns the value of every node. The contraction schedule (leaf
/// numbering) is obtained with the Euler-tour primitive, so the whole
/// routine stays within `O(log n)` steps and `O(n)` work; the bookkeeping of
/// edge functions and rake events is held in host vectors indexed by node,
/// mirroring what a PRAM implementation would keep in per-node shared cells,
/// while every structural quantity that needs parallel computation (the leaf
/// numbering) is obtained through the simulator. Each round is additionally
/// charged to the simulator via an explicit accounting step so the reported
/// steps/work reflect the rakes themselves.
pub fn evaluate_tree_pram(
    pram: &mut Pram,
    tree: &RootedTree,
    ops: &[NodeOp],
    leaf_values: &[i64],
) -> Vec<i64> {
    let n = tree.len();
    if n == 1 {
        return vec![leaf_values[tree.root()]];
    }
    for v in 0..n {
        if !tree.is_leaf(v) {
            assert_eq!(
                tree.children(v).len(),
                2,
                "expression trees must be strictly binary"
            );
        }
    }

    // Leaf numbering left-to-right from the Euler tour (simulator-metered).
    let numbers = euler_tour_numbers(pram, tree, None);
    let mut leaves: Vec<usize> = (0..n).filter(|&v| tree.is_leaf(v)).collect();
    leaves.sort_by_key(|&v| numbers.inorder[v]);

    // Mutable contracted-tree state. SUPER is a virtual parent of the root.
    const SUPER: usize = usize::MAX - 1;
    let mut parent: Vec<usize> = (0..n)
        .map(|v| {
            if v == tree.root() {
                SUPER
            } else {
                tree.parent(v)
            }
        })
        .collect();
    let mut child: Vec<[usize; 2]> = (0..n)
        .map(|v| {
            let kids = tree.children(v);
            if kids.is_empty() {
                [NONE, NONE]
            } else {
                [kids[0], kids[1]]
            }
        })
        .collect();
    let mut func: Vec<MaxPlusAffine> = vec![MaxPlusAffine::identity(); n];
    let mut events: Vec<Vec<RakeEvent>> = Vec::new();

    let mut active = leaves;
    while active.len() > 1 {
        let mut round_events = Vec::new();
        // Two half-rounds: odd-indexed leaves that are left children, then
        // odd-indexed leaves that are right children. Indices are 1-based in
        // the classical description; here odd 0-based positions are kept, so
        // positions 1, 3, 5, ... are raked and 0, 2, 4, ... survive.
        for want_left in [true, false] {
            let mut rakes = Vec::new();
            for (idx, &leaf) in active.iter().enumerate() {
                if idx % 2 == 0 {
                    continue;
                }
                let p = parent[leaf];
                if p == SUPER {
                    continue;
                }
                let leaf_is_left = child[p][0] == leaf;
                if leaf_is_left == want_left {
                    rakes.push(leaf);
                }
            }
            // Each rake is O(1) shared-memory traffic on a real PRAM; charge
            // the simulator accordingly (reads of parent/sibling state plus
            // writes of the recomposed function and relinked pointers).
            pram.charge_round(rakes.len(), 9);
            for leaf in rakes {
                let p = parent[leaf];
                let sibling = if child[p][0] == leaf {
                    child[p][1]
                } else {
                    child[p][0]
                };
                let grand = parent[p];
                let leaf_was_left = child[p][0] == leaf;
                let leaf_contrib = func[leaf].apply(leaf_values[leaf]);
                let sibling_fn = func[sibling];
                round_events.push(RakeEvent {
                    leaf,
                    parent: p,
                    sibling,
                    leaf_was_left,
                    leaf_contrib,
                    sibling_fn,
                });
                // Compose: the value the grandparent sees from this side is
                // F_p(op_p(...)) with the raked side fixed to leaf_contrib.
                let partial = match ops[p] {
                    NodeOp::Add => MaxPlusAffine {
                        add: leaf_contrib,
                        floor: MaxPlusAffine::NEG_INF,
                    },
                    NodeOp::LeftAffine { add, floor } => {
                        if leaf_was_left {
                            // value = max(leaf_contrib + add, floor): constant.
                            MaxPlusAffine::constant((leaf_contrib + add).max(floor))
                        } else {
                            // value = max(F_s(x) + add, floor)
                            MaxPlusAffine { add, floor }
                        }
                    }
                };
                func[sibling] = func[p].compose(&partial.compose(&sibling_fn));
                // Splice the sibling into the grandparent.
                parent[sibling] = grand;
                if grand != SUPER {
                    if child[grand][0] == p {
                        child[grand][0] = sibling;
                    } else {
                        child[grand][1] = sibling;
                    }
                }
            }
        }
        events.push(round_events);
        // Compact: even-indexed leaves survive (odd ones were raked, except
        // those skipped because their parent was the super-root; those can
        // only appear once fewer than two leaves remain).
        let survivors: Vec<usize> = active
            .iter()
            .enumerate()
            .filter(|(idx, leaf)| idx % 2 == 0 || parent[**leaf] == SUPER)
            .map(|(_, &leaf)| leaf)
            .collect();
        assert!(
            survivors.len() < active.len(),
            "contraction failed to make progress"
        );
        active = survivors;
    }

    // Terminal state: a single leaf whose edge function maps its value to the
    // value of the original root.
    let last = active[0];
    let mut value = vec![i64::MIN; n];
    for v in 0..n {
        if tree.is_leaf(v) {
            value[v] = leaf_values[v];
        }
    }
    value[tree.root()] = func[last].apply(leaf_values[last]);
    if tree.is_leaf(tree.root()) {
        value[tree.root()] = leaf_values[tree.root()];
    }

    // Expansion: replay rounds in reverse; every removed parent's value
    // becomes computable from its (still known) surviving child.
    for round in events.iter().rev() {
        pram.charge_round(round.len(), 7);
        for ev in round.iter().rev() {
            let sib_value = ev.sibling_fn.apply(value[ev.sibling]);
            let (left, right) = if ev.leaf_was_left {
                (ev.leaf_contrib, sib_value)
            } else {
                (sib_value, ev.leaf_contrib)
            };
            value[ev.parent] = ops[ev.parent].eval(left, right);
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram::{Mode, Pram};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn max_plus_affine_algebra() {
        let f = MaxPlusAffine { add: 3, floor: 10 }; // max(x+3, 10)
        assert_eq!(f.apply(2), 10);
        assert_eq!(f.apply(20), 23);
        let g = MaxPlusAffine { add: -5, floor: 1 }; // max(x-5, 1)
        let fg = f.compose(&g); // f(g(x)) = max(max(x-5,1)+3, 10) = max(x-2, 10)
        for x in [-10i64, 0, 5, 11, 12, 100] {
            assert_eq!(fg.apply(x), f.apply(g.apply(x)), "x={x}");
        }
        let c = MaxPlusAffine::constant(7);
        assert_eq!(c.apply(1000), 7);
        let fc = f.compose(&c);
        assert_eq!(fc.apply(-999), 10);
        let id = MaxPlusAffine::identity();
        assert_eq!(id.compose(&f), f);
        assert_eq!(f.compose(&id), f);
    }

    /// Builds a random strictly binary expression tree with `leaves` leaves.
    fn random_expression(leaves: usize, seed: u64) -> (RootedTree, Vec<NodeOp>, Vec<i64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Build by repeatedly combining two random roots of a forest.
        let total = 2 * leaves - 1;
        let mut parent = vec![NONE; total];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut ops = vec![NodeOp::Add; total];
        let mut values = vec![0i64; total];
        let mut roots: Vec<usize> = (0..leaves).collect();
        for value in values.iter_mut().take(leaves) {
            *value = rng.gen_range(1..6);
        }
        let mut next = leaves;
        while roots.len() > 1 {
            let i = rng.gen_range(0..roots.len());
            let a = roots.swap_remove(i);
            let j = rng.gen_range(0..roots.len());
            let b = roots.swap_remove(j);
            parent[a] = next;
            parent[b] = next;
            children[next] = vec![a, b];
            ops[next] = if rng.gen_bool(0.5) {
                NodeOp::Add
            } else {
                NodeOp::LeftAffine {
                    add: -rng.gen_range(0..5),
                    floor: 1,
                }
            };
            roots.push(next);
            next += 1;
        }
        let tree = RootedTree::new(parent, children, roots[0]);
        (tree, ops, values)
    }

    #[test]
    fn seq_evaluation_on_tiny_tree() {
        // (1 + 2) at root
        let tree = RootedTree::new(vec![NONE, 0, 0], vec![vec![1, 2], vec![], vec![]], 0);
        let ops = vec![NodeOp::Add, NodeOp::Add, NodeOp::Add];
        let values = vec![0, 1, 2];
        assert_eq!(evaluate_tree_seq(&tree, &ops, &values), vec![3, 1, 2]);
    }

    #[test]
    fn seq_evaluation_left_affine() {
        // root = max(left - 2, 1) with left = 5, right irrelevant.
        let tree = RootedTree::new(vec![NONE, 0, 0], vec![vec![1, 2], vec![], vec![]], 0);
        let ops = vec![
            NodeOp::LeftAffine { add: -2, floor: 1 },
            NodeOp::Add,
            NodeOp::Add,
        ];
        assert_eq!(evaluate_tree_seq(&tree, &ops, &[0, 5, 9])[0], 3);
        assert_eq!(evaluate_tree_seq(&tree, &ops, &[0, 2, 9])[0], 1);
    }

    #[test]
    fn pram_matches_seq_on_small_trees() {
        for leaves in [1usize, 2, 3, 4, 5, 8, 13] {
            for seed in 0..5 {
                let (tree, ops, values) = random_expression(leaves, seed);
                let want = evaluate_tree_seq(&tree, &ops, &values);
                let mut pram = Pram::strict(Mode::Erew, pram::optimal_processors(tree.len()));
                let got = evaluate_tree_pram(&mut pram, &tree, &ops, &values);
                assert_eq!(got, want, "leaves={leaves} seed={seed}");
                assert!(pram.metrics().is_clean());
            }
        }
    }

    #[test]
    fn pram_matches_seq_on_large_random_tree() {
        let (tree, ops, values) = random_expression(300, 77);
        let want = evaluate_tree_seq(&tree, &ops, &values);
        let mut pram = Pram::strict(Mode::Erew, pram::optimal_processors(tree.len()));
        let got = evaluate_tree_pram(&mut pram, &tree, &ops, &values);
        assert_eq!(got, want);
    }

    #[test]
    fn pram_matches_seq_on_skewed_tree() {
        // A left-leaning caterpillar: worst case for naive level-by-level
        // evaluation, handled in O(log n) rounds by contraction.
        let leaves = 64usize;
        let total = 2 * leaves - 1;
        let mut parent = vec![NONE; total];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); total];
        // internal nodes leaves..total-1; internal i has children (i-1 internal or leaf) chain
        // Build: internal node k (k = leaves..total-1) has left child = previous root, right child = leaf (k - leaves).
        let mut prev_root = 0usize; // leaf 0
        for (offset, internal) in (leaves..total).enumerate() {
            let leaf = offset + 1;
            children[internal] = vec![prev_root, leaf];
            parent[prev_root] = internal;
            parent[leaf] = internal;
            prev_root = internal;
        }
        let tree = RootedTree::new(parent, children, prev_root);
        let ops: Vec<NodeOp> = (0..total)
            .map(|v| {
                if v % 2 == 0 {
                    NodeOp::Add
                } else {
                    NodeOp::LeftAffine { add: -1, floor: 1 }
                }
            })
            .collect();
        let values: Vec<i64> = (0..total as i64).map(|v| v % 4 + 1).collect();
        let want = evaluate_tree_seq(&tree, &ops, &values);
        let mut pram = Pram::strict(Mode::Erew, pram::optimal_processors(total));
        let got = evaluate_tree_pram(&mut pram, &tree, &ops, &values);
        assert_eq!(got, want);
    }

    #[test]
    fn single_leaf_tree() {
        let tree = RootedTree::from_parents(vec![NONE]);
        let mut pram = Pram::strict(Mode::Erew, 1);
        let got = evaluate_tree_pram(&mut pram, &tree, &[NodeOp::Add], &[42]);
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn contraction_work_is_linear() {
        let mut per_item = Vec::new();
        for exp in [9usize, 11] {
            let (tree, ops, values) = random_expression(1 << exp, 3);
            let n = tree.len();
            let mut pram = Pram::new(Mode::Erew, pram::optimal_processors(n));
            evaluate_tree_pram(&mut pram, &tree, &ops, &values);
            per_item.push(pram.metrics().work_per_item(n));
        }
        // Work per node stays flat across a 4x size range (O(n) work) and
        // within a sane absolute constant.
        assert!(per_item[1] / per_item[0] < 1.3, "{per_item:?}");
        assert!(per_item[1] < 400.0, "{per_item:?}");
    }
}
