//! Every way to obtain a `Cotree` yields a post-order arena: each subtree
//! is the id range ending at its root, children in id order, the root last.
//! The flat sweeps of `Cotree::verify_cover` and the cache's canonical pass
//! rely on it, so each source is checked by `validate()` and by an
//! independent depth-first walk.

use cograph::generators::random_connected_cotree;
use cograph::{random_cotree, try_recognize, Cotree, CotreeShape, IncrementalCotree};
use pcgraph::Graph;
use pcservice::cache::{graph_fingerprint, CotreeCache};
use pcservice::ingest::{parse_cotree_term, parse_cotree_term_labelled};
use pcservice::snapshot;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// `tree` passes `validate()`, and a depth-first post-order walk from its
/// root visits the nodes as `0, 1, 2, ...`.
fn assert_postorder(tree: &Cotree, what: &str) {
    assert_eq!(tree.validate(), Ok(()), "{what}");
    assert_eq!(tree.root(), tree.num_nodes() - 1, "{what}");
    let mut next = 0;
    let mut stack = vec![(tree.root(), false)];
    while let Some((u, children_done)) = stack.pop() {
        if children_done || tree.kind(u).is_leaf() {
            assert_eq!(u, next, "{what}: node out of post-order");
            next += 1;
        } else {
            stack.push((u, true));
            stack.extend(tree.children(u).iter().rev().map(|&c| (c, false)));
        }
    }
    assert_eq!(next, tree.num_nodes(), "{what}: unreachable nodes");
}

/// The graph of `tree` with its vertex ids shuffled, so recognition inserts
/// vertices in an order unrelated to the tree's leaf order.
fn shuffled_graph(tree: &Cotree, rng: &mut ChaCha8Rng) -> Graph {
    let n = tree.num_vertices();
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(rng);
    let edges: Vec<(u32, u32)> = tree
        .to_graph()
        .edges()
        .map(|(u, v)| (ids[u as usize], ids[v as usize]))
        .collect();
    Graph::from_edges(n, &edges).expect("a simple graph")
}

const SIZES: [usize; 6] = [1, 2, 3, 8, 40, 250];

#[test]
fn generators_and_combining_constructors_build_post_order_arenas() {
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    for shape in CotreeShape::ALL {
        for n in SIZES {
            assert_postorder(
                &random_cotree(n, shape, &mut rng),
                &format!("{shape:?} n={n}"),
            );
            let connected = random_connected_cotree(n, shape, &mut rng);
            assert_postorder(&connected, &format!("connected {shape:?} n={n}"));
        }
    }
    // Same-kind parts are absorbed, different kinds nest; both relabelling
    // and label-keeping forms.
    let part = |rng: &mut ChaCha8Rng| random_cotree(rng.gen_range(1..30), CotreeShape::Mixed, rng);
    for round in 0..20 {
        let parts: Vec<Cotree> = (0..rng.gen_range(2..5)).map(|_| part(&mut rng)).collect();
        assert_postorder(&Cotree::union_of(parts.clone()), &format!("union {round}"));
        assert_postorder(&Cotree::join_of(parts), &format!("join {round}"));
    }
    let labelled = Cotree::join_of_labelled(vec![
        Cotree::union_of_labelled(vec![Cotree::single(4), Cotree::single(1)]),
        Cotree::join_of_labelled(vec![Cotree::single(0), Cotree::single(3)]),
        Cotree::single(2),
    ]);
    assert_postorder(&labelled, "labelled");
    assert_eq!(labelled.to_term(), "(j (u 4 1) 0 3 2)");
}

#[test]
fn both_term_parsers_build_post_order_arenas() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    for shape in CotreeShape::ALL {
        for n in SIZES {
            let term = random_cotree(n, shape, &mut rng).to_term();
            let tree = parse_cotree_term(&term).expect("an exported term parses");
            assert_postorder(&tree, &format!("{shape:?} n={n}"));
            let labelled = parse_cotree_term_labelled(&term).expect("labelled parse");
            assert_postorder(&labelled, &format!("labelled {shape:?} n={n}"));
        }
    }
    // Same-label nesting is flattened into the parent, names are arbitrary.
    for term in [
        "(u (u a b) (j c (j d e)) f)",
        "(j (j (j x y) z) (u (u p q) r))",
        "(1 (0 a (0 b c)) d)",
        "leaf",
    ] {
        assert_postorder(&parse_cotree_term(term).expect("valid term"), term);
    }
}

#[test]
fn recognition_builds_post_order_arenas() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    for shape in CotreeShape::ALL {
        for n in SIZES {
            let graph = shuffled_graph(&random_cotree(n, shape, &mut rng), &mut rng);
            let tree = try_recognize(&graph).expect("a cograph");
            assert_postorder(&tree, &format!("{shape:?} n={n}"));
            assert_eq!(tree.to_graph(), graph, "{shape:?} n={n}");
        }
    }
}

#[test]
fn incremental_exports_stay_post_order_after_every_insertion() {
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    for shape in CotreeShape::ALL {
        let graph = shuffled_graph(&random_cotree(60, shape, &mut rng), &mut rng);
        let mut tree = IncrementalCotree::new();
        for v in 0..graph.num_vertices() as u32 {
            let earlier: Vec<u32> = graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| u < v)
                .collect();
            tree.try_add_vertex(&earlier)
                .expect("an induced subgraph of a cograph");
            assert_postorder(&tree.to_cotree(), &format!("{shape:?} after vertex {v}"));
        }
    }
}

#[test]
fn snapshot_round_trips_keep_post_order_arenas() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let cache = CotreeCache::new(64);
    for shape in CotreeShape::ALL {
        for n in [3usize, 40, 250] {
            let tree = random_cotree(n, shape, &mut rng);
            let term = parse_cotree_term(&tree.to_term()).expect("an exported term parses");
            cache.insert(None, term);
            let graph = Arc::new(shuffled_graph(&tree, &mut rng));
            let recognised = try_recognize(&graph).expect("a cograph");
            cache.insert(Some((graph_fingerprint(&graph), graph)), recognised);
        }
    }
    let path =
        std::env::temp_dir().join(format!("pc-postorder-arenas-{}.pcsnap", std::process::id()));
    snapshot::save(&cache, &path).expect("save");
    let restored = CotreeCache::new(64);
    let loaded = snapshot::load(&restored, &path);
    let _ = std::fs::remove_file(&path);
    loaded.expect("load");
    let exported = restored.export();
    assert_eq!(exported.len(), cache.export().len());
    for (i, e) in exported.iter().enumerate() {
        assert_postorder(&e.entry.cotree, &format!("restored entry {i}"));
    }
}
