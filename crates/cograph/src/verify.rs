//! Path-cover verification on the cotree itself.
//!
//! Two vertices of a cograph are adjacent exactly when the lowest common
//! ancestor of their leaves is a 1-node, so a cover can be checked without
//! materialising the graph, whose edge set is `Θ(n²)` for dense cographs.
//! [`Cotree::verify_cover`] answers the adjacency of every consecutive pair
//! of every path in one offline pass (Tarjan's LCA algorithm over an
//! explicit stack, with a union-find over the cotree nodes), in time
//! near-linear in the tree plus the cover.

use crate::cotree::{Cotree, CotreeKind, NO_NODE};
use pcgraph::{CoverReport, PathCover, VertexId};

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
        let mut leaf_of = vec![NO_NODE; n];
        for u in 0..self.num_nodes() {
            if let CotreeKind::Leaf(v) = self.kind(u) {
                assert!(
                    (v as usize) < n,
                    "verify_cover requires vertex labels 0..n, found {v} with n = {n}"
                );
                leaf_of[v as usize] = u;
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
    fn adjacent_pairs(&self, leaf_of: &[usize], pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        let nodes = self.num_nodes();
        let leaf = |v: VertexId| leaf_of.get(v as usize).copied().unwrap_or(NO_NODE);
        let query = |&(a, b): &(VertexId, VertexId)| {
            let (x, y) = (leaf(a), leaf(b));
            (x != NO_NODE && y != NO_NODE && x != y).then_some((x, y))
        };
        // Each pair is filed under both of its leaves (CSR layout).
        let mut start = vec![0usize; nodes + 1];
        for (x, y) in pairs.iter().filter_map(query) {
            start[x + 1] += 1;
            start[y + 1] += 1;
        }
        for u in 0..nodes {
            start[u + 1] += start[u];
        }
        let mut fill = start.clone();
        let mut filed = vec![0usize; start[nodes]];
        for (i, (x, y)) in pairs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((i, query(p)?)))
        {
            for end in [x, y] {
                filed[fill[end]] = i;
                fill[end] += 1;
            }
        }

        // Tarjan's offline LCA: when a leaf finishes, every pair whose other
        // leaf finished earlier has its LCA at the `ancestor` of that
        // leaf's set.
        let mut adjacent = vec![false; pairs.len()];
        let mut sets = DisjointSets::new(nodes);
        let mut ancestor: Vec<usize> = (0..nodes).collect();
        let mut finished = vec![false; nodes];
        let mut stack = vec![(self.root(), 0usize)];
        while let Some(top) = stack.last_mut() {
            let (u, next) = *top;
            if let Some(&child) = self.children(u).get(next) {
                top.1 += 1;
                stack.push((child, 0));
                continue;
            }
            stack.pop();
            if self.kind(u).is_leaf() {
                finished[u] = true;
                for &i in &filed[start[u]..start[u + 1]] {
                    let (x, y) = query(&pairs[i]).expect("only valid pairs are filed");
                    let other = if x == u { y } else { x };
                    if finished[other] {
                        let lca = ancestor[sets.find(other)];
                        adjacent[i] = self.kind(lca) == CotreeKind::Join;
                    }
                }
            }
            if let Some(&(parent, _)) = stack.last() {
                let root = sets.union(parent, u);
                ancestor[root] = parent;
            }
        }
        adjacent
    }
}

/// Union-find with union by rank and path halving.
struct DisjointSets {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl DisjointSets {
    fn new(len: usize) -> Self {
        DisjointSets {
            parent: (0..len).collect(),
            rank: vec![0; len],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns the merged set's root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return a;
        }
        let (hi, lo) = if self.rank[a] >= self.rank[b] {
            (a, b)
        } else {
            (b, a)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        hi
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
