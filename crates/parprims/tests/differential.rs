//! Differential suite: every parprims kernel on the simulator against its
//! sequential reference.
//!
//! Each workload is generated from a fixed seed, evaluated by the sequential
//! reference, then executed on a permissive EREW [`Pram`]; the two must agree
//! bit for bit.
//!
//! The suite runs well over 200 seeded workloads in total (the final test
//! asserts the count).

use parprims::brackets::{match_brackets_pram, match_brackets_seq, BracketKind};
use parprims::contraction::{evaluate_tree_pram, evaluate_tree_seq, NodeOp};
use parprims::euler::{euler_numbers_seq, euler_tour_numbers, EulerNumbers};
use parprims::ranking::{list_rank_blocked, list_rank_seq, list_rank_wyllie, NONE_WORD};
use parprims::scan::{
    exclusive_scan_pram, prefix_sums_pram, prefix_sums_seq, tree_scan_pram, ScanOp,
};
use parprims::tree::{RootedTree, NONE};
use pram::{Mode, Pram};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Debug;

/// Counts the workloads a test ran.
#[derive(Default)]
struct Suite {
    workloads: usize,
}

impl Suite {
    /// Runs `f` on a fresh simulator; it must reproduce `expected` exactly.
    fn check<T, F>(&mut self, label: &str, expected: &T, f: F)
    where
        T: PartialEq + Debug,
        F: Fn(&mut Pram) -> T,
    {
        let mut pram = Pram::new(Mode::Erew, 16);
        let got = f(&mut pram);
        assert_eq!(&got, expected, "simulator diverges on {label}");
        self.workloads += 1;
    }
}

/// Random tree on `n` nodes given by parent pointers (node 0 is the root).
fn random_tree(n: usize, rng: &mut ChaCha8Rng) -> RootedTree {
    let mut parent = vec![NONE; n];
    for (v, slot) in parent.iter_mut().enumerate().skip(1) {
        *slot = rng.gen_range(0..v);
    }
    RootedTree::from_parents(parent)
}

/// Sequential oracle for the tour positions the sequential numberings do
/// not define: a depth-first walk in child order numbers each non-root
/// node's advance edge on entry and its retreat edge on exit.
fn tour_positions_seq(tree: &RootedTree) -> (Vec<usize>, Vec<usize>) {
    let n = tree.len();
    let root = tree.root();
    let (mut advance, mut retreat) = (vec![usize::MAX; n], vec![usize::MAX; n]);
    let mut next = 0;
    let mut stack = vec![(root, false)];
    while let Some((v, done)) = stack.pop() {
        let slot = if done { &mut retreat } else { &mut advance };
        if v != root {
            slot[v] = next;
            next += 1;
        }
        if !done {
            stack.push((v, true));
            stack.extend(tree.children(v).iter().rev().map(|&c| (c, false)));
        }
    }
    (advance, retreat)
}

/// Random balanced bracket sequence with `pairs` matched pairs.
fn random_brackets(pairs: usize, rng: &mut ChaCha8Rng) -> Vec<BracketKind> {
    let mut kinds = Vec::with_capacity(2 * pairs);
    let (mut open_left, mut depth) = (pairs, 0usize);
    while kinds.len() < 2 * pairs {
        let must_open = depth == 0;
        let must_close = open_left == 0;
        if must_close || (!must_open && rng.gen_range(0..2) == 0) {
            kinds.push(BracketKind::Close);
            depth -= 1;
        } else {
            kinds.push(BracketKind::Open);
            open_left -= 1;
            depth += 1;
        }
    }
    kinds
}

const SCAN_WORKLOADS: usize = 80;
const RANK_WORKLOADS: usize = 40;
const EULER_WORKLOADS: usize = 42;
const BRACKET_WORKLOADS: usize = 40;
const CONTRACTION_WORKLOADS: usize = 40;

#[test]
fn scans_agree_across_backends() {
    let mut suite = Suite::default();
    // Inclusive scans: 6 sizes x 5 seeds x 2 ops.
    for (i, &n) in [1usize, 2, 3, 17, 64, 257].iter().enumerate() {
        for seed in 0..5u64 {
            for &op in &[ScanOp::Sum, ScanOp::Max] {
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + 10 * seed + i as u64);
                let input: Vec<i64> = (0..n).map(|_| rng.gen_range(-50..50)).collect();
                let block = [1, 3, 8][seed as usize % 3];
                let expected = prefix_sums_seq(&input, op);
                suite.check(&format!("prefix_sums n={n} {op:?}"), &expected, |pram| {
                    let xs = pram.alloc_from(&input);
                    let out = prefix_sums_pram(pram, xs, op, block);
                    pram.snapshot(out)
                });
            }
        }
    }
    // Tree scans and exclusive scans: 5 sizes x 2 seeds each.
    for &n in &[1usize, 5, 33, 100, 256] {
        for seed in 0..2u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(2000 + 7 * seed + n as u64);
            let input: Vec<i64> = (0..n).map(|_| rng.gen_range(-9..9)).collect();
            let inclusive = prefix_sums_seq(&input, ScanOp::Sum);
            suite.check(&format!("tree_scan n={n}"), &inclusive, |pram| {
                let xs = pram.alloc_from(&input);
                let out = tree_scan_pram(pram, xs, ScanOp::Sum);
                pram.snapshot(out)
            });
            let mut exclusive = vec![0i64; n];
            exclusive[1..].copy_from_slice(&inclusive[..n - 1]);
            suite.check(&format!("exclusive_scan n={n}"), &exclusive, |pram| {
                let xs = pram.alloc_from(&input);
                let out = exclusive_scan_pram(pram, xs, ScanOp::Sum, 4);
                pram.snapshot(out)
            });
        }
    }
    assert_eq!(suite.workloads, SCAN_WORKLOADS);
}

#[test]
fn list_ranking_agrees_across_backends() {
    let mut suite = Suite::default();
    // 5 sizes x 4 seeds x 2 algorithms.
    for &n in &[1usize, 2, 9, 33, 120] {
        for seed in 0..4u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(3000 + 13 * seed + n as u64);
            // Random permutation chopped into a few independent lists.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut succ = vec![NONE_WORD; n];
            for w in order.windows(2) {
                if rng.gen_range(0..5) > 0 {
                    succ[w[0]] = w[1] as i64;
                }
            }
            let expected = list_rank_seq(&succ);
            let stride = [2usize, 8][seed as usize % 2];
            suite.check(&format!("list_rank n={n} seed={seed}"), &expected, |pram| {
                let xs = pram.alloc_from(&succ);
                let rank = list_rank_blocked(pram, xs, stride);
                pram.snapshot(rank)
            });
            suite.check(&format!("wyllie n={n} seed={seed}"), &expected, |pram| {
                let xs = pram.alloc_from(&succ);
                let rank = list_rank_wyllie(pram, xs);
                pram.snapshot(rank)
            });
        }
    }
    assert_eq!(suite.workloads, RANK_WORKLOADS);
}

#[test]
fn euler_tours_agree_across_backends() {
    let mut suite = Suite::default();
    // 6 sizes x 7 seeds.
    for &n in &[1usize, 2, 3, 10, 40, 150] {
        for seed in 0..7u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(4000 + 17 * seed + n as u64);
            let tree = random_tree(n, &mut rng);
            let (advance_pos, retreat_pos) = tour_positions_seq(&tree);
            let expected = EulerNumbers {
                advance_pos,
                retreat_pos,
                ..euler_numbers_seq(&tree, None)
            };
            suite.check(&format!("euler n={n} seed={seed}"), &expected, |pram| {
                euler_tour_numbers(pram, &tree, None)
            });
        }
    }
    assert_eq!(suite.workloads, EULER_WORKLOADS);
}

#[test]
fn bracket_matching_agrees_across_backends() {
    let mut suite = Suite::default();
    // 5 sizes x 8 seeds.
    for &pairs in &[1usize, 2, 5, 20, 80] {
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(5000 + 19 * seed + pairs as u64);
            let kinds = random_brackets(pairs, &mut rng);
            let expected = match_brackets_seq(&kinds);
            suite.check(
                &format!("brackets pairs={pairs} seed={seed}"),
                &expected,
                |pram| match_brackets_pram(pram, &kinds),
            );
        }
    }
    assert_eq!(suite.workloads, BRACKET_WORKLOADS);
}

/// Random strictly binary expression tree with `leaves` leaves, built by
/// repeatedly joining two random roots of a forest.
fn random_expression(leaves: usize, rng: &mut ChaCha8Rng) -> (RootedTree, Vec<NodeOp>, Vec<i64>) {
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
        ops[next] = if rng.gen_range(0..2) == 0 {
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
    (RootedTree::new(parent, children, roots[0]), ops, values)
}

#[test]
fn tree_contraction_agrees_across_backends() {
    let mut suite = Suite::default();
    // 5 sizes x 8 seeds.
    for &leaves in &[1usize, 3, 11, 47, 160] {
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(6000 + 23 * seed + leaves as u64);
            let (tree, ops, leaf_values) = random_expression(leaves, &mut rng);
            let expected = evaluate_tree_seq(&tree, &ops, &leaf_values);
            suite.check(
                &format!("contraction leaves={leaves} seed={seed}"),
                &expected,
                |pram| evaluate_tree_pram(pram, &tree, &ops, &leaf_values),
            );
        }
    }
    assert_eq!(suite.workloads, CONTRACTION_WORKLOADS);
}

#[test]
fn suite_covers_at_least_200_workloads() {
    let total = SCAN_WORKLOADS
        + RANK_WORKLOADS
        + EULER_WORKLOADS
        + BRACKET_WORKLOADS
        + CONTRACTION_WORKLOADS;
    assert!(
        total >= 200,
        "differential suite shrank to {total} workloads"
    );
}
