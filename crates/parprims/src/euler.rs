//! The Euler tour technique — Lemma 5.2 of the paper.
//!
//! Given a rooted ordered tree, the Euler tour walks every edge twice (once
//! downwards, once upwards). Linking the directed edges into a list and
//! ranking that list yields the position of every edge in the tour; weighted
//! prefix sums over the tour then deliver, in `O(log n)` steps and `O(n)`
//! work on an EREW PRAM:
//!
//! * preorder, postorder and inorder numbers,
//! * the depth of every node,
//! * the number of descendants (subtree size) of every node, and
//! * the number of descendant leaves of every node.
//!
//! Edge identifiers: for every non-root node `v`, the *advance* edge
//! `parent(v) -> v` has id `v` and the *retreat* edge `v -> parent(v)` has id
//! `n + v`. The root contributes no edges; its two slots stay unused.

use crate::ranking::{list_rank_blocked, NONE_WORD};
use crate::scan::{prefix_sums_pram, ScanOp};
use crate::tree::{RootedTree, NONE};
use pram::Pram;

/// Node numberings produced by [`euler_tour_numbers`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EulerNumbers {
    /// Preorder number of every node (root = 0).
    pub preorder: Vec<usize>,
    /// Postorder number of every node (root = n - 1).
    pub postorder: Vec<usize>,
    /// Inorder number of every node. For nodes with a left child the inorder
    /// moment is the return from that child; otherwise it is the node's first
    /// visit. For strictly binary trees this is the classical inorder.
    pub inorder: Vec<usize>,
    /// Depth of every node (root = 0).
    pub depth: Vec<usize>,
    /// Number of nodes in the subtree rooted at every node (including itself).
    pub subtree_size: Vec<usize>,
    /// Number of leaf descendants of every node (a leaf counts itself).
    pub leaf_count: Vec<usize>,
    /// Position of every node's advance edge in the tour (`usize::MAX` for
    /// the root), exposed because the path-cover pipeline lays out bracket
    /// sequences along the tour.
    pub advance_pos: Vec<usize>,
    /// Position of every node's retreat edge in the tour (`usize::MAX` for
    /// the root).
    pub retreat_pos: Vec<usize>,
}

/// Computes the Euler-tour numberings of `tree` on the given PRAM.
///
/// `left_child[v]` designates whether the *first* child of `v` counts as its
/// left child for the inorder numbering: it must be either [`NONE`] (all
/// children of `v` are right children, so `v`'s inorder moment is its first
/// visit) or equal to `tree.children(v)[0]`. When `left_child` is `None` the
/// first child of every node is used. This convention matches how the
/// path-cover pipeline stores its binary path trees (children ordered left,
/// right).
pub fn euler_tour_numbers(
    pram: &mut Pram,
    tree: &RootedTree,
    left_child: Option<&[usize]>,
) -> EulerNumbers {
    let n = tree.len();
    if n == 1 {
        return EulerNumbers {
            preorder: vec![0],
            postorder: vec![0],
            inorder: vec![0],
            depth: vec![0],
            subtree_size: vec![1],
            leaf_count: vec![1],
            advance_pos: vec![usize::MAX],
            retreat_pos: vec![usize::MAX],
        };
    }
    let root = tree.root();

    // Host-side encodings of the tree shape loaded into PRAM memory. The
    // per-node arrays use NONE_WORD (-1) for "absent".
    let mut parent_w = vec![NONE_WORD; n];
    let mut first_child_w = vec![NONE_WORD; n];
    let mut next_sibling_w = vec![NONE_WORD; n];
    let mut is_leaf_w = vec![0i64; n];
    let mut left_child_w = vec![NONE_WORD; n];
    let mut is_left_w = vec![0i64; n];
    for v in 0..n {
        if tree.parent(v) != NONE {
            parent_w[v] = tree.parent(v) as i64;
        }
        let kids = tree.children(v);
        if kids.is_empty() {
            is_leaf_w[v] = 1;
        } else {
            first_child_w[v] = kids[0] as i64;
            for w in kids.windows(2) {
                next_sibling_w[w[0]] = w[1] as i64;
            }
        }
        let lc = match left_child {
            Some(lc) => lc[v],
            None => *kids.first().unwrap_or(&NONE),
        };
        if lc != NONE {
            assert_eq!(
                Some(&lc),
                kids.first(),
                "the designated left child of node {v} must be its first child"
            );
            left_child_w[v] = lc as i64;
            is_left_w[lc] = 1;
        }
    }
    let parent_h = pram.alloc_from(&parent_w);
    let first_child_h = pram.alloc_from(&first_child_w);
    let next_sibling_h = pram.alloc_from(&next_sibling_w);
    let is_leaf_h = pram.alloc_from(&is_leaf_w);
    let left_child_h = pram.alloc_from(&left_child_w);
    let is_left_h = pram.alloc_from(&is_left_w);

    // Successor array over edge ids. Advance edge of v: id v; retreat edge:
    // id n + v. The root's two ids stay isolated.
    let succ = pram.alloc_from(&vec![NONE_WORD; 2 * n]);
    pram.parallel_for(n, |ctx, v| {
        if v == root {
            return;
        }
        // successor of the advance edge (parent -> v)
        let fc = ctx.read(first_child_h, v);
        let adv_succ = if fc != NONE_WORD { fc } else { (n + v) as i64 };
        ctx.write(succ, v, adv_succ);
        // successor of the retreat edge (v -> parent)
        let ns = ctx.read(next_sibling_h, v);
        let ret_succ = if ns != NONE_WORD {
            ns
        } else {
            let p = ctx.read(parent_h, v);
            if p as usize == root {
                NONE_WORD
            } else {
                (n as i64) + p
            }
        };
        ctx.write(succ, n + v, ret_succ);
    });

    // Rank the tour list; position = tour_len - 1 - rank for edges on the
    // tour. Isolated (root) ids keep meaningless ranks and are ignored.
    let tour_len = 2 * (n - 1);
    let rank = list_rank_blocked(pram, succ, 0);
    let pos = pram.alloc(2 * n);
    pram.parallel_for(n, |ctx, v| {
        if v == root {
            return;
        }
        let ra = ctx.read(rank, v);
        let rr = ctx.read(rank, n + v);
        ctx.write(pos, v, tour_len as i64 - 1 - ra);
        ctx.write(pos, n + v, tour_len as i64 - 1 - rr);
    });

    // Weight arrays over tour positions. Each edge writes its own cell.
    let w_pre = pram.alloc(tour_len);
    let w_post = pram.alloc(tour_len);
    let w_in = pram.alloc(tour_len);
    let w_depth = pram.alloc(tour_len);
    let w_leaf = pram.alloc(tour_len);
    pram.parallel_for(n, |ctx, v| {
        if v == root {
            return;
        }
        let pa = ctx.read(pos, v) as usize;
        let pr = ctx.read(pos, n + v) as usize;
        let leaf = ctx.read(is_leaf_h, v) == 1;
        let is_left_of_parent = ctx.read(is_left_h, v) == 1;
        let own_left = ctx.read(left_child_h, v);
        // preorder: 1 on advance edges.
        ctx.write(w_pre, pa, 1);
        // postorder: 1 on retreat edges.
        ctx.write(w_post, pr, 1);
        // depth: +1 on advance, -1 on retreat.
        ctx.write(w_depth, pa, 1);
        ctx.write(w_depth, pr, -1);
        // leaves: 1 on the advance edge of a leaf.
        if leaf {
            ctx.write(w_leaf, pa, 1);
        }
        // inorder: a node without a left child is visited on its advance
        // edge; a node with a left child is visited on the retreat edge of
        // that child. The retreat edge of v carries weight for v's parent
        // exactly when v is the designated left child of its parent.
        if own_left == NONE_WORD {
            ctx.write(w_in, pa, 1);
        }
        if is_left_of_parent {
            ctx.write(w_in, pr, 1);
        }
    });

    let s_pre = prefix_sums_pram(pram, w_pre, ScanOp::Sum, 0);
    let s_post = prefix_sums_pram(pram, w_post, ScanOp::Sum, 0);
    let s_in = prefix_sums_pram(pram, w_in, ScanOp::Sum, 0);
    let s_depth = prefix_sums_pram(pram, w_depth, ScanOp::Sum, 0);
    let s_leaf = prefix_sums_pram(pram, w_leaf, ScanOp::Sum, 0);

    // Per-node readouts. Each node reads only cells at its own edges'
    // positions, which are distinct across nodes.
    let out_pre = pram.alloc(n);
    let out_post = pram.alloc(n);
    let out_depth = pram.alloc(n);
    let out_size = pram.alloc(n);
    let out_leaf = pram.alloc(n);
    pram.parallel_for(n, |ctx, v| {
        if v == root {
            // Root values follow directly from totals.
            ctx.write(out_pre, v, 0);
            ctx.write(out_post, v, n as i64 - 1);
            ctx.write(out_depth, v, 0);
            ctx.write(out_size, v, n as i64);
            return;
        }
        let pa = ctx.read(pos, v) as usize;
        let pr = ctx.read(pos, n + v) as usize;
        let pre = ctx.read(s_pre, pa); // 1-based among non-root nodes
        ctx.write(out_pre, v, pre);
        let post = ctx.read(s_post, pr) - 1;
        ctx.write(out_post, v, post);
        let depth = ctx.read(s_depth, pa);
        ctx.write(out_depth, v, depth);
        // subtree size: advance edges strictly inside (pa, pr] plus self.
        let pre_at_end = ctx.read(s_pre, pr);
        ctx.write(out_size, v, pre_at_end - pre + 1);
        // leaf count: leaf-advance edges in (pa, pr], plus self when a leaf.
        let leaves_in = ctx.read(s_leaf, pr) - ctx.read(s_leaf, pa);
        let own = ctx.read(is_leaf_h, v);
        ctx.write(out_leaf, v, leaves_in + own);
    });
    // Root leaf count and inorder need the totals / root's own weights.
    let total_leaves = pram.peek(s_leaf, tour_len - 1) + if tree.is_leaf(root) { 1 } else { 0 };
    pram.poke(out_leaf, root, total_leaves);

    // Inorder: every non-root node reads the inorder prefix at its moment.
    // The root's moment is either the retreat edge of its designated left
    // child (if any) or position "before the whole tour" (only possible when
    // the root has no left child, i.e. all children are right-ish), in which
    // case it precedes everything and gets inorder 0 after shifting.
    let out_in_nonroot = pram.alloc(n);
    pram.parallel_for(n, |ctx, v| {
        if v == root {
            return;
        }
        let own_left = ctx.read(left_child_h, v);
        let moment = if own_left == NONE_WORD {
            ctx.read(pos, v)
        } else {
            ctx.read(pos, n + own_left as usize)
        };
        let val = ctx.read(s_in, moment as usize);
        ctx.write(out_in_nonroot, v, val);
    });
    let root_in = {
        let root_left = left_child_w[root];
        if root_left == NONE_WORD {
            0
        } else {
            pram.peek(s_in, pram.peek(pos, n + root_left as usize) as usize)
        }
    };

    // Host-side assembly of the result (pure readback).
    let pre = pram.snapshot(out_pre);
    let post = pram.snapshot(out_post);
    let depth = pram.snapshot(out_depth);
    let size = pram.snapshot(out_size);
    let leaf = pram.snapshot(out_leaf);
    let mut inorder_raw = pram.snapshot(out_in_nonroot);
    inorder_raw[root] = root_in;
    let pos_snapshot = pram.snapshot(pos);

    // Every node's inorder moment carries weight 1 at a distinct tour
    // position, so the raw values are a permutation of 1..=n — except when
    // the root has no designated left child, in which case its moment
    // precedes the tour and the raw values are already 0..n-1.
    let shift = if left_child_w[root] == NONE_WORD {
        0
    } else {
        1
    };
    let inorder: Vec<usize> = inorder_raw.iter().map(|&x| (x - shift) as usize).collect();

    EulerNumbers {
        preorder: pre.iter().map(|&x| x as usize).collect(),
        postorder: post.iter().map(|&x| x as usize).collect(),
        inorder,
        depth: depth.iter().map(|&x| x as usize).collect(),
        subtree_size: size.iter().map(|&x| x as usize).collect(),
        leaf_count: leaf.iter().map(|&x| x as usize).collect(),
        advance_pos: (0..n)
            .map(|v| {
                if v == root {
                    usize::MAX
                } else {
                    pos_snapshot[v] as usize
                }
            })
            .collect(),
        retreat_pos: (0..n)
            .map(|v| {
                if v == root {
                    usize::MAX
                } else {
                    pos_snapshot[n + v] as usize
                }
            })
            .collect(),
    }
}

/// Sequential oracle used by the tests: the same numberings computed by a
/// plain recursive traversal.
pub fn euler_numbers_seq(tree: &RootedTree, left_child: Option<&[usize]>) -> EulerNumbers {
    let n = tree.len();
    let mut pre = vec![0usize; n];
    let mut post = vec![0usize; n];
    let mut inord = vec![0usize; n];
    let mut depth = vec![0usize; n];
    let mut size = vec![1usize; n];
    let mut leaves = vec![0usize; n];
    let mut pre_counter = 0usize;
    let mut post_counter = 0usize;
    let mut in_counter = 0usize;

    // Iterative DFS carrying an explicit phase per node so deep (skewed)
    // trees cannot overflow the call stack.
    enum Frame {
        Enter(usize, usize),
        Exit(usize),
    }
    let mut stack = vec![Frame::Enter(tree.root(), 0)];
    // For the inorder we need to emit a node's number once its designated
    // left child has been fully processed (or on entry when it has none).
    let designated_left = |v: usize| -> usize {
        match left_child {
            Some(lc) => lc[v],
            None => *tree.children(v).first().unwrap_or(&NONE),
        }
    };
    // We emulate inorder by a separate pass below; enter/exit handles the rest.
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(v, d) => {
                pre[v] = pre_counter;
                pre_counter += 1;
                depth[v] = d;
                stack.push(Frame::Exit(v));
                for &c in tree.children(v).iter().rev() {
                    stack.push(Frame::Enter(c, d + 1));
                }
            }
            Frame::Exit(v) => {
                post[v] = post_counter;
                post_counter += 1;
                let mut s = 1;
                let mut l = if tree.is_leaf(v) { 1 } else { 0 };
                for &c in tree.children(v) {
                    s += size[c];
                    l += leaves[c];
                }
                size[v] = s;
                leaves[v] = l;
            }
        }
    }
    // Inorder: explicit stack walk emitting each node after its designated
    // left child's subtree.
    enum InFrame {
        Visit(usize),
        Emit(usize, Vec<usize>),
    }
    let mut stack = vec![InFrame::Visit(tree.root())];
    while let Some(frame) = stack.pop() {
        match frame {
            InFrame::Visit(v) => {
                let lc = designated_left(v);
                let rest: Vec<usize> = tree
                    .children(v)
                    .iter()
                    .copied()
                    .filter(|&c| c != lc)
                    .collect();
                stack.push(InFrame::Emit(v, rest));
                if lc != NONE {
                    stack.push(InFrame::Visit(lc));
                }
            }
            InFrame::Emit(v, rest) => {
                inord[v] = in_counter;
                in_counter += 1;
                for &c in rest.iter().rev() {
                    stack.push(InFrame::Visit(c));
                }
            }
        }
    }
    EulerNumbers {
        preorder: pre,
        postorder: post,
        inorder: inord,
        depth,
        subtree_size: size,
        leaf_count: leaves,
        advance_pos: vec![usize::MAX; n],
        retreat_pos: vec![usize::MAX; n],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram::Mode;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_tree() -> RootedTree {
        RootedTree::new(
            vec![NONE, 0, 0, 1, 1, 2],
            vec![vec![1, 2], vec![3, 4], vec![5], vec![], vec![], vec![]],
            0,
        )
    }

    fn random_tree(n: usize, seed: u64, max_children: usize) -> RootedTree {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut parent = vec![NONE; n];
        let mut child_count = vec![0usize; n];
        for (v, slot) in parent.iter_mut().enumerate().skip(1) {
            // attach to a random earlier node with spare arity
            loop {
                let p = rng.gen_range(0..v);
                if child_count[p] < max_children {
                    *slot = p;
                    child_count[p] += 1;
                    break;
                }
            }
        }
        RootedTree::from_parents(parent)
    }

    fn check_against_seq(tree: &RootedTree) {
        let mut pram = pram::Pram::strict(Mode::Erew, pram::optimal_processors(tree.len()));
        let got = euler_tour_numbers(&mut pram, tree, None);
        let want = euler_numbers_seq(tree, None);
        assert_eq!(got.preorder, want.preorder, "preorder");
        assert_eq!(got.postorder, want.postorder, "postorder");
        assert_eq!(got.inorder, want.inorder, "inorder");
        assert_eq!(got.depth, want.depth, "depth");
        assert_eq!(got.subtree_size, want.subtree_size, "subtree size");
        assert_eq!(got.leaf_count, want.leaf_count, "leaf count");
        assert!(pram.metrics().is_clean());
    }

    #[test]
    fn sequential_numbers_on_sample() {
        let t = sample_tree();
        let nums = euler_numbers_seq(&t, None);
        assert_eq!(nums.preorder, vec![0, 1, 4, 2, 3, 5]);
        assert_eq!(nums.postorder, vec![5, 2, 4, 0, 1, 3]);
        assert_eq!(nums.depth, vec![0, 1, 1, 2, 2, 2]);
        assert_eq!(nums.subtree_size, vec![6, 3, 2, 1, 1, 1]);
        assert_eq!(nums.leaf_count, vec![3, 2, 1, 1, 1, 1]);
        // inorder of the binary-ish shape: 3,1,4,0,5,2 reading by position
        assert_eq!(nums.inorder, vec![3, 1, 5, 0, 2, 4]);
    }

    #[test]
    fn pram_matches_seq_on_sample() {
        check_against_seq(&sample_tree());
    }

    #[test]
    fn pram_matches_seq_on_single_node() {
        check_against_seq(&RootedTree::from_parents(vec![NONE]));
    }

    #[test]
    fn pram_matches_seq_on_path_tree() {
        // A degenerate chain (worst case height).
        let n = 40;
        let mut parent = vec![NONE; n];
        for (v, slot) in parent.iter_mut().enumerate().skip(1) {
            *slot = v - 1;
        }
        check_against_seq(&RootedTree::from_parents(parent));
    }

    #[test]
    fn pram_matches_seq_on_random_binary_trees() {
        for seed in 0..6 {
            check_against_seq(&random_tree(60, seed, 2));
        }
    }

    #[test]
    fn pram_matches_seq_on_random_general_trees() {
        for seed in 0..4 {
            check_against_seq(&random_tree(80, 100 + seed, 4));
        }
    }

    #[test]
    fn explicit_left_children_change_inorder() {
        // Node 0 with a single child 1 that is a *right* child, and node 1
        // with a single child 2 that is a *left* child:
        // inorder must read 0, 2, 1.
        let t = RootedTree::new(vec![NONE, 0, 1], vec![vec![1], vec![2], vec![]], 0);
        let lc = vec![NONE, 2usize, NONE];
        let seq = euler_numbers_seq(&t, Some(&lc));
        assert_eq!(seq.inorder, vec![0, 2, 1]);
        let mut pram = pram::Pram::strict(Mode::Erew, 2);
        let par = euler_tour_numbers(&mut pram, &t, Some(&lc));
        assert_eq!(par.inorder, seq.inorder);
    }

    #[test]
    #[should_panic(expected = "must be its first child")]
    fn rejects_left_child_that_is_not_first() {
        let t = RootedTree::new(vec![NONE, 0, 0], vec![vec![1, 2], vec![], vec![]], 0);
        let lc = vec![2usize, NONE, NONE];
        let mut pram = pram::Pram::strict(Mode::Erew, 2);
        euler_tour_numbers(&mut pram, &t, Some(&lc));
    }

    #[test]
    fn work_is_linear_and_steps_logarithmic() {
        let mut results = Vec::new();
        for exp in [9usize, 11, 13] {
            let n = 1 << exp;
            let t = random_tree(n, 7, 2);
            let mut pram = pram::Pram::new(Mode::Erew, pram::optimal_processors(n));
            euler_tour_numbers(&mut pram, &t, None);
            results.push((
                pram.metrics().work_per_item(n),
                pram.metrics().steps_per_log(n),
            ));
        }
        // Work per node must stay essentially flat across a 16x size range
        // (constant factor is implementation-dependent, the trend is what
        // certifies O(n) work), and normalised steps must not grow.
        let (w_first, s_first) = results[0];
        let (w_last, s_last) = *results.last().expect("nonempty");
        assert!(
            w_last / w_first < 1.3,
            "work is not O(n): {w_first} -> {w_last}"
        );
        assert!(w_last < 400.0, "work constant unexpectedly large: {w_last}");
        assert!(
            s_last / s_first < 2.5,
            "steps not O(log n): {s_first} -> {s_last}"
        );
    }
}
