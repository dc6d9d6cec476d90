//! Path-cover verification on the cotree itself.
//!
//! Two vertices of a cograph are adjacent exactly when the lowest common
//! ancestor of their leaves is a 1-node, so a cover can be checked without
//! materialising the graph, whose edge set is `Θ(n²)` for dense cographs.
//! [`Cotree::verify_cover`] answers the adjacency of every consecutive pair
//! of every path in one offline pass over the post-order arena (Tarjan's
//! LCA algorithm with the depth-first walk replaced by the arena's own
//! order, and a union-find with path halving over the cotree nodes), in
//! time near-linear in the tree plus the cover.

use crate::cotree::{Cotree, CotreeKind, NO_NODE};
use pcgraph::{CoverReport, PathCover, VertexId};

/// "No node" in the `u32` arrays of the sweep.
const NIL: u32 = u32::MAX;

impl Cotree {
    /// Verifies that `cover` is a path cover of the cograph and reports
    /// every defect, exactly as [`pcgraph::verify_path_cover`] reports it
    /// against [`Cotree::to_graph`].
    ///
    /// # Panics
    /// Panics, like [`Cotree::to_graph`], when the vertex labels are not
    /// exactly `0..n`.
    pub fn verify_cover(&self, cover: &PathCover) -> CoverReport {
        let n = self.num_vertices();
        let mut leaf_of = vec![NIL; n];
        for u in 0..self.num_nodes() {
            if let CotreeKind::Leaf(v) = self.kind(u) {
                assert!(
                    (v as usize) < n,
                    "verify_cover requires vertex labels 0..n, found {v} with n = {n}"
                );
                leaf_of[v as usize] = u as u32;
            }
        }
        let mut times_covered = vec![0usize; n];
        let mut out_of_range = Vec::new();
        let mut pairs = Vec::new();
        for path in cover.paths() {
            for &v in path.vertices() {
                match times_covered.get_mut(v as usize) {
                    Some(count) => *count += 1,
                    None => out_of_range.push(v),
                }
            }
            pairs.extend(path.vertices().windows(2).map(|w| (w[0], w[1])));
        }
        let adjacent = self.adjacent_pairs(&leaf_of, &pairs);
        let non_edges = pairs
            .iter()
            .zip(adjacent)
            .filter(|&(_, adjacent)| !adjacent)
            .map(|(&pair, _)| pair)
            .collect();
        let vertices_where = |keep: fn(usize) -> bool| -> Vec<VertexId> {
            (0..n as VertexId)
                .filter(|&v| keep(times_covered[v as usize]))
                .collect()
        };
        CoverReport {
            num_paths: cover.len(),
            covered: times_covered.iter().filter(|&&c| c > 0).count(),
            missing: vertices_where(|c| c == 0),
            duplicated: vertices_where(|c| c > 1),
            non_edges,
            out_of_range,
        }
    }

    /// Whether each pair is an edge: two distinct vertices of the tree
    /// whose leaves' lowest common ancestor is a 1-node.
    ///
    /// One sweep over the nodes in id order. Each pair is filed under its
    /// later leaf `y`. When the sweep reaches `y`, every earlier node is
    /// linked to its parent and no later one is, so the first unlinked
    /// ancestor of the pair's earlier leaf is its first ancestor whose id
    /// range reaches `y`: the lowest common ancestor.
    fn adjacent_pairs(&self, leaf_of: &[u32], pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        let nodes = self.num_nodes();
        assert!(
            nodes < NIL as usize && pairs.len() < NIL as usize,
            "node ids and pair indices fit in u32"
        );
        let leaf = |v: VertexId| leaf_of.get(v as usize).copied().unwrap_or(NIL);
        // The pairs of two distinct leaves, as (earlier, later) leaf.
        let ends = |&(a, b): &(VertexId, VertexId)| {
            let (x, y) = (leaf(a), leaf(b));
            (x != NIL && y != NIL && x != y).then(|| (x.min(y), x.max(y)))
        };
        let mut start = vec![0u32; nodes + 1];
        for (_, later) in pairs.iter().filter_map(ends) {
            start[later as usize + 1] += 1;
        }
        for u in 0..nodes {
            start[u + 1] += start[u];
        }
        let mut fill = start.clone();
        // (pair index, earlier leaf), grouped by later leaf.
        let mut filed = vec![(0u32, 0u32); start[nodes] as usize];
        for (i, pair) in pairs.iter().enumerate() {
            if let Some((earlier, later)) = ends(pair) {
                let slot = &mut fill[later as usize];
                filed[*slot as usize] = (i as u32, earlier);
                *slot += 1;
            }
        }

        let mut adjacent = vec![false; pairs.len()];
        let mut link: Vec<u32> = (0..nodes as u32).collect();
        for u in 0..nodes {
            for &(i, earlier) in &filed[start[u] as usize..start[u + 1] as usize] {
                let mut x = earlier as usize;
                while link[x] as usize != x {
                    link[x] = link[link[x] as usize];
                    x = link[x] as usize;
                }
                adjacent[i as usize] = self.kind(x) == CotreeKind::Join;
            }
            let parent = self.parent(u);
            if parent != NO_NODE {
                link[u] = parent as u32;
            }
        }
        adjacent
    }
}

#[cfg(test)]
mod tests {
    use crate::Cotree;
    use pcgraph::{verify_path_cover, Path, PathCover};

    fn cover(paths: &[&[u32]]) -> PathCover {
        PathCover::from_paths(paths.iter().map(|p| Path::new(p.to_vec())).collect())
    }

    #[test]
    fn reports_match_the_graph_verifier_on_a_small_cograph() {
        // (u (j 0 1 (u 2 3)) 4): 0-1, 0-2, 0-3, 1-2, 1-3; 4 isolated.
        let t = Cotree::union_of(vec![
            Cotree::join_of(vec![
                Cotree::single(0),
                Cotree::single(0),
                Cotree::union_of(vec![Cotree::single(0), Cotree::single(0)]),
            ]),
            Cotree::single(0),
        ]);
        let g = t.to_graph();
        for c in [
            cover(&[&[2, 0, 3, 1], &[4]]),
            cover(&[&[2, 3], &[0, 1], &[4]]),
            cover(&[&[0, 1, 0], &[4, 7]]),
            cover(&[&[2, 2], &[1, 4]]),
            cover(&[]),
        ] {
            assert_eq!(t.verify_cover(&c), verify_path_cover(&g, &c), "{c:?}");
        }
        assert!(t.verify_cover(&cover(&[&[2, 0, 3, 1], &[4]])).is_valid());
    }

    #[test]
    fn single_vertex_tree() {
        let t = Cotree::single(0);
        assert!(t.verify_cover(&cover(&[&[0]])).is_valid());
        assert_eq!(t.verify_cover(&cover(&[])).missing, vec![0]);
    }
}
