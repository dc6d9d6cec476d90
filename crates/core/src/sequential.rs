//! The sequential minimum path cover algorithm of Lin, Olariu and Pruesse
//! (the paper's Lemma 2.3) and the path counts of Lemma 2.4, as one
//! bottom-up fold over the k-ary cotree.
//!
//! Both lemmas are stated on the leftist binarised cotree `T_bl`, which
//! replaces every k-ary node by a left-deep chain of binary nodes with its
//! label, the side with more leaves on the left. The fold follows that
//! chain without building it: walking the cotree in post-order, it merges
//! each node's children in order into an accumulator, and at every merge
//! the operand with more leaves plays `T_bl`'s left child (the accumulator,
//! on a tie). These are the merges `BinaryCotree::leftist_from_cotree` lays
//! out, in the same roles, so the fold yields the binarised tree's cover.
//!
//! A path is a chain of successor links over the vertices, and a partial
//! cover is a linked list of paths. A 0-node merge concatenates two lists in
//! `O(1)`; a 1-node merge walks only the lighter side and the heavier-side
//! paths and vertices it places, in `O(L(light))`. A vertex is on the
//! lighter side of at most `log2 n` merges, so a cover takes `O(n log n)`
//! time in the worst case (the original paper achieves `O(n)` with a more
//! careful list representation), in flat arrays with no allocation per node.

use cograph::{Cotree, CotreeKind};
use pcgraph::{Path, PathCover, VertexId};

/// The end of a successor chain or of a list of paths.
const NIL: u32 = u32::MAX;

/// Computes a minimum path cover of the cograph described by `cotree` with
/// the sequential bottom-up algorithm.
pub fn sequential_path_cover(cotree: &Cotree) -> PathCover {
    let mut paths = Paths::new(cotree.num_vertices());
    let root = fold(cotree, List::one, |kind, heavy, light, _| match kind {
        CotreeKind::Join => paths.join(heavy, light),
        _ => paths.union(heavy, light),
    });
    paths.into_cover(root)
}

/// Lemma 2.4 by the same fold, before its last clamp: `p(u) = max(r(u), 1)`
/// where `r` is 1 at a leaf, `p(heavy) + p(light)` at a 0-node merge and
/// `p(heavy) - L(light)` at a 1-node merge. `r(root) <= 1` says the graph
/// has a Hamiltonian path, and `r(root) <= 0` that the root's last merge
/// joins at least as many lighter-side vertices as there are heavier-side
/// paths: enough to close them into a Hamiltonian cycle, given at least
/// three vertices.
pub(crate) fn unclamped_path_count(cotree: &Cotree) -> i64 {
    fold(
        cotree,
        |_| 1,
        |kind, heavy: i64, light, leaves| match kind {
            CotreeKind::Join => heavy.max(1) - leaves as i64,
            _ => heavy.max(1) + light.max(1),
        },
    )
}

/// Folds `cotree` bottom-up along its leftist binarised chains: a leaf is
/// `leaf(v)`, and an internal node merges its children in order into an
/// accumulator by `merge(kind, heavy, light, L(light))`, where `heavy` is
/// the operand with more leaves, the accumulator on a tie. Iterative, so a
/// cotree of any height folds on a small stack.
fn fold<S>(
    cotree: &Cotree,
    mut leaf: impl FnMut(VertexId) -> S,
    mut merge: impl FnMut(CotreeKind, S, S, usize) -> S,
) -> S {
    // Open nodes: a node, its next child, and its children merged so far
    // with their leaf count.
    let mut open = vec![(cotree.root(), 0, None)];
    loop {
        let (node, next, _) = open.last_mut().expect("an open node");
        if let Some(&child) = cotree.children(*node).get(*next) {
            *next += 1;
            open.push((child, 0, None));
            continue;
        }
        let (node, _, merged) = open.pop().expect("an open node");
        let (leaves, value) = match cotree.kind(node) {
            CotreeKind::Leaf(v) => (1, leaf(v)),
            _ => merged.expect("internal nodes have children"),
        };
        let Some((parent, _, acc)) = open.last_mut() else {
            return value;
        };
        let kind = cotree.kind(*parent);
        *acc = Some(match acc.take() {
            None => (leaves, value),
            Some((seen, acc)) if leaves > seen => (seen + leaves, merge(kind, value, acc, seen)),
            Some((seen, acc)) => (seen + leaves, merge(kind, acc, value, leaves)),
        });
    }
}

/// A partial cover: the list of `len` paths from path `first` to `last`.
#[derive(Debug, Clone, Copy)]
struct List {
    first: u32,
    last: u32,
    len: u32,
}

impl List {
    /// The list of the one path `h`.
    fn one(h: u32) -> Self {
        List {
            first: h,
            last: h,
            len: 1,
        }
    }
}

/// Where a path ends, and the path after it in its list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    tail: u32,
    link: u32,
}

/// Every path under construction, named by its first vertex: `next[v]` is
/// the vertex after `v` on its path, and `ends[h]` holds path `h`'s ends.
struct Paths {
    next: Vec<u32>,
    ends: Vec<Ends>,
    /// The lighter (in `T_bl`, right) side's vertices at a 1-node merge.
    right: Vec<u32>,
}

impl Paths {
    fn new(n: usize) -> Self {
        Paths {
            next: vec![NIL; n],
            ends: (0..n as u32).map(|tail| Ends { tail, link: NIL }).collect(),
            right: Vec::new(),
        }
    }

    /// The 0-node merge: the list with more paths first (`heavy` on a tie).
    fn union(&mut self, heavy: List, light: List) -> List {
        let (a, b) = if light.len > heavy.len {
            (light, heavy)
        } else {
            (heavy, light)
        };
        self.ends[a.last as usize].link = b.first;
        List {
            first: a.first,
            last: b.last,
            len: a.len + b.len,
        }
    }

    /// The 1-node merge. The lighter side's vertices, path by path, bridge
    /// consecutive heavier-side paths. Case 1, `p(heavy) > L(light)`: all
    /// of them bridge, so `L(light) + 1` paths become one and the rest stay.
    /// Case 2: `p(heavy) - 1` of them merge every path into one, the next
    /// goes before its head, and the rest go in order between consecutive
    /// heavier-side vertices and then after its tail; the leftist property
    /// guarantees the slots.
    fn join(&mut self, mut heavy: List, light: List) -> List {
        let Paths { next, ends, right } = self;
        right.clear();
        let mut h = light.first;
        while h != NIL {
            let mut v = h;
            while v != NIL {
                right.push(v);
                v = next[v as usize];
            }
            h = ends[h as usize].link;
        }
        let mut path = ends[heavy.first as usize];
        if heavy.len as usize > right.len() {
            for &bridge in right.iter() {
                next[path.tail as usize] = bridge;
                next[bridge as usize] = path.link;
                path = ends[path.link as usize];
            }
            ends[heavy.first as usize] = path;
            if path.link == NIL {
                heavy.last = heavy.first;
            }
            heavy.len -= right.len() as u32;
            return heavy;
        }
        let (bridges, rest) = right.split_at(heavy.len as usize - 1);
        let (mut bridges, mut rest) = (bridges.iter(), rest.iter());
        let front = *rest.next().expect("Case 2 leaves a vertex for the front");
        next[front as usize] = heavy.first;
        let mut v = heavy.first;
        let tail = loop {
            while v != path.tail {
                let Some(&x) = rest.next() else { break };
                let after = next[v as usize];
                next[v as usize] = x;
                next[x as usize] = after;
                v = after;
            }
            let Some(&bridge) = bridges.next() else {
                let Some(&x) = rest.next() else {
                    break path.tail;
                };
                next[path.tail as usize] = x;
                next[x as usize] = NIL;
                break x;
            };
            next[path.tail as usize] = bridge;
            next[bridge as usize] = path.link;
            v = path.link;
            path = ends[v as usize];
        };
        assert!(rest.len() == 0, "the leftist property guarantees the slots");
        ends[front as usize] = Ends { tail, link: NIL };
        List::one(front)
    }

    /// The cover a finished list describes, its paths in list order.
    fn into_cover(self, list: List) -> PathCover {
        let mut cover = Vec::with_capacity(list.len as usize);
        let mut h = list.first;
        while h != NIL {
            let (mut path, mut v) = (Vec::new(), h);
            while v != NIL {
                path.push(v);
                v = self.next[v as usize];
            }
            cover.push(Path::new(path));
            h = self.ends[h as usize].link;
        }
        PathCover::from_paths(cover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::{has_hamiltonian_cycle, has_hamiltonian_path};
    use crate::pipeline::min_path_cover_size;
    use cograph::generators::random_connected_cotree;
    use cograph::{path_counts_seq, random_cotree};
    use cograph::{BinKind, BinaryCotree, CotreeShape};
    use pcgraph::path::brute_force_min_path_cover;
    use pcgraph::verify_path_cover;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn check(cotree: &Cotree) {
        let g = cotree.to_graph();
        let cover = sequential_path_cover(cotree);
        let report = verify_path_cover(&g, &cover);
        assert!(
            report.is_valid(),
            "invalid cover: {report:?} for {cotree:?}"
        );
        let (b, l) = BinaryCotree::leftist_from_cotree(cotree);
        let p = path_counts_seq(&b, &l);
        assert_eq!(
            cover.len() as i64,
            p[b.root()],
            "cover size != p(root) for {cotree:?}"
        );
    }

    #[test]
    fn single_vertex() {
        let t = Cotree::single(0);
        let cover = sequential_path_cover(&t);
        assert_eq!(cover.len(), 1);
        check(&t);
    }

    #[test]
    fn edgeless_graph() {
        let t = Cotree::union_of((0..5).map(|_| Cotree::single(0)).collect());
        let cover = sequential_path_cover(&t);
        assert_eq!(cover.len(), 5);
        check(&t);
    }

    #[test]
    fn complete_graph_gets_hamiltonian_path() {
        let t = Cotree::join_of((0..7).map(|_| Cotree::single(0)).collect());
        let cover = sequential_path_cover(&t);
        assert_eq!(cover.len(), 1);
        check(&t);
    }

    #[test]
    fn star_graph() {
        let t = Cotree::join_of(vec![
            Cotree::union_of((0..4).map(|_| Cotree::single(0)).collect()),
            Cotree::single(0),
        ]);
        let cover = sequential_path_cover(&t);
        assert_eq!(cover.len(), 3);
        check(&t);
    }

    #[test]
    fn complete_bipartite_unbalanced() {
        // K_{3,5}: minimum cover needs 5 - 3 = 2 paths... actually
        // p = max(5 - 3, 1) = 2 with the left (heavier) side being the 5
        // independent vertices.
        let side = |k: usize| Cotree::union_of((0..k).map(|_| Cotree::single(0)).collect());
        let t = Cotree::join_of(vec![side(3), side(5)]);
        let cover = sequential_path_cover(&t);
        assert_eq!(cover.len(), 2);
        check(&t);
    }

    #[test]
    fn matches_brute_force_on_small_random_cographs() {
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        for shape in CotreeShape::ALL {
            for n in 2..=9usize {
                for _ in 0..6 {
                    let t = random_cotree(n, shape, &mut rng);
                    check(&t);
                    let cover = sequential_path_cover(&t);
                    assert_eq!(
                        cover.len(),
                        brute_force_min_path_cover(&t.to_graph()),
                        "{shape:?} n={n} {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn valid_on_medium_random_cographs() {
        let mut rng = ChaCha8Rng::seed_from_u64(66);
        for shape in CotreeShape::ALL {
            for n in [20usize, 57, 130, 400] {
                let t = random_cotree(n, shape, &mut rng);
                check(&t);
            }
        }
    }

    #[test]
    fn fold_counts_match_the_binarised_recurrence() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        for shape in CotreeShape::ALL {
            for n in [1usize, 2, 3, 4, 5, 6, 9, 17, 40, 130, 700, 3000] {
                let draws = if n > 100 { 1 } else { 4 };
                for draw in 0..2 * draws {
                    let t = if draw % 2 == 0 {
                        random_cotree(n, shape, &mut rng)
                    } else {
                        random_connected_cotree(n, shape, &mut rng)
                    };
                    let (b, l) = BinaryCotree::leftist_from_cotree(&t);
                    let p = path_counts_seq(&b, &l);
                    let root = b.root();
                    let closes = n >= 3
                        && b.kind(root) == BinKind::One
                        && p[b.left(root)] <= l[b.right(root)] as i64;
                    assert_eq!(min_path_cover_size(&t) as i64, p[root], "{shape:?} n={n}");
                    assert_eq!(has_hamiltonian_path(&t), p[root] == 1, "{shape:?} n={n}");
                    assert_eq!(has_hamiltonian_cycle(&t), closes, "{shape:?} n={n}");
                }
            }
        }
    }

    /// FNV-1a over a cover: its path count, then every path's length and
    /// vertices, so moving one vertex or one path boundary changes it.
    fn digest(hash: &mut u64, cover: &PathCover) {
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        feed(&(cover.len() as u64).to_le_bytes());
        for path in cover.paths() {
            feed(&(path.len() as u64).to_le_bytes());
            for &v in path.vertices() {
                feed(&v.to_le_bytes());
            }
        }
    }

    #[test]
    fn covers_are_pinned_byte_for_byte() {
        let mut rng = ChaCha8Rng::seed_from_u64(2012);
        let mut digests = Vec::new();
        for shape in CotreeShape::ALL {
            let mut hash = 0xcbf2_9ce4_8422_2325;
            for n in [1usize, 2, 3, 9, 40, 300, 5000] {
                digest(
                    &mut hash,
                    &sequential_path_cover(&random_cotree(n, shape, &mut rng)),
                );
            }
            digests.push(hash);
        }
        // The shape of the service benchmark's large graphs: a union of
        // mixed components of 100 to 220 vertices.
        let parts: Vec<Cotree> = (0..40)
            .map(|_| random_cotree(rng.gen_range(100..=220usize), CotreeShape::Mixed, &mut rng))
            .collect();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        digest(&mut hash, &sequential_path_cover(&Cotree::union_of(parts)));
        digests.push(hash);
        let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
        assert_eq!(
            hex,
            [
                "0x02119f5721597aab",
                "0x52dd6d86da106a91",
                "0xa6d2ce932c0b6db1",
                "0x48e352707feb405f"
            ],
            "balanced, skewed, mixed, union of components"
        );
    }

    #[test]
    fn recognised_trees_are_pinned_byte_for_byte() {
        // The recogniser's export fixes each node's child order, and so the
        // term and the cover; graphs with shuffled vertex ids make it insert
        // in an order unrelated to the generating tree.
        use rand::seq::SliceRandom;
        let mut rng = ChaCha8Rng::seed_from_u64(1808);
        let mut digests = Vec::new();
        for shape in CotreeShape::ALL {
            let mut hash = 0xcbf2_9ce4_8422_2325;
            for n in [1usize, 2, 3, 9, 40, 300, 700] {
                let mut ids: Vec<u32> = (0..n as u32).collect();
                ids.shuffle(&mut rng);
                let edges: Vec<(u32, u32)> = random_cotree(n, shape, &mut rng)
                    .to_graph()
                    .edges()
                    .map(|(u, v)| (ids[u as usize], ids[v as usize]))
                    .collect();
                let graph = pcgraph::Graph::from_edges(n, &edges).expect("a simple graph");
                let tree = cograph::try_recognize(&graph).expect("a cograph");
                for byte in tree.to_term().bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
                digest(&mut hash, &sequential_path_cover(&tree));
            }
            digests.push(format!("{hash:#018x}"));
        }
        assert_eq!(
            digests,
            [
                "0xd81f5cc5bdd4312e",
                "0xeee63bd76ab7a5ca",
                "0xc10a1b4b9763305c"
            ],
            "balanced, skewed, mixed"
        );
    }
}
