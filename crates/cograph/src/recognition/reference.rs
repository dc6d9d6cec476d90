//! Reference cograph recognition: component / co-component decomposition.
//!
//! The textbook characterisation — a graph is a cograph iff every induced
//! subgraph on two or more vertices is disconnected or has a disconnected
//! complement — executed directly: recurse on the connected components
//! (union nodes) and on the co-components (join nodes) until single
//! vertices remain, or fail when some subset is connected with a connected
//! complement.
//!
//! This is the recogniser the reproduction shipped first; it survives as
//! the *differential-testing oracle* for [`super::fast`], so it stays
//! simple — but not allocator-bound. Compared to the original version,
//! which rebuilt a `Vec<VertexId>` membership list per component and an
//! induced subgraph at *every* recursion step, the scratch state is hoisted
//! into a `Workspace`:
//!
//! * the vertex set lives in one shared buffer, recursion works on slices
//!   of it, and components are split by an in-place counting sort;
//! * connected components are found by a stamped BFS over the *original*
//!   graph restricted to the slice — union levels allocate nothing;
//! * only join levels materialise the induced subgraph (to complement it),
//!   built in `O(k + edges)` via the stamped local-id map.
//!
//! The complement step keeps the decomposition at `O(n^2 log n)`-ish
//! overall — asymptotically inferior to [`super::fast`] by design; the
//! `recognition_scaling` bench group records the gap.

use crate::cotree::Cotree;
use pcgraph::{ops, Graph, VertexId};

/// Reusable scratch for one recognition run: stamped membership and visit
/// arrays (no clearing between levels), component ids, BFS stack, and the
/// counting-sort buffers for in-place slice partitioning.
struct Workspace {
    /// `member[v] == stamp` ⇔ `v` is in the slice of the current level.
    member: Vec<u32>,
    /// BFS visit stamps.
    visited: Vec<u32>,
    /// Component id of `v` at the current level (union case), or local id
    /// of `v` within the slice (join case).
    comp: Vec<u32>,
    /// BFS stack.
    stack: Vec<VertexId>,
    /// Counting-sort staging buffer for partitioning a slice by component.
    scratch: Vec<VertexId>,
    /// Per-component counts / prefix offsets.
    counts: Vec<usize>,
    stamp: u32,
}

impl Workspace {
    fn new(n: usize) -> Workspace {
        Workspace {
            member: vec![0; n],
            visited: vec![0; n],
            comp: vec![0; n],
            stack: Vec::new(),
            scratch: Vec::new(),
            counts: Vec::new(),
            stamp: 0,
        }
    }

    /// Connected components of `g` restricted to `slice`: fills
    /// `self.comp[v]` for every `v` in the slice and returns the count.
    fn components(&mut self, g: &Graph, slice: &[VertexId]) -> usize {
        self.stamp += 1;
        let s = self.stamp;
        for &v in slice {
            self.member[v as usize] = s;
        }
        let mut count = 0u32;
        for &v in slice {
            if self.visited[v as usize] == s {
                continue;
            }
            self.visited[v as usize] = s;
            self.comp[v as usize] = count;
            self.stack.push(v);
            while let Some(u) = self.stack.pop() {
                for &w in g.neighbors(u) {
                    let w_us = w as usize;
                    if self.member[w_us] == s && self.visited[w_us] != s {
                        self.visited[w_us] = s;
                        self.comp[w_us] = count;
                        self.stack.push(w);
                    }
                }
            }
            count += 1;
        }
        count as usize
    }

    /// Induced subgraph of `g` on `slice`, local ids = positions in the
    /// slice, built in `O(k + internal edges)` without copying a map.
    fn induced(&mut self, g: &Graph, slice: &[VertexId]) -> Graph {
        self.stamp += 1;
        let s = self.stamp;
        for (i, &v) in slice.iter().enumerate() {
            self.member[v as usize] = s;
            self.comp[v as usize] = i as u32;
        }
        let mut sub = Graph::new(slice.len());
        for (i, &v) in slice.iter().enumerate() {
            for &w in g.neighbors(v) {
                let w_us = w as usize;
                if self.member[w_us] == s && (self.comp[w_us] as usize) > i {
                    sub.add_edge(i as VertexId, self.comp[w_us])
                        .expect("induced edges are fresh");
                }
            }
        }
        sub.finalize();
        sub
    }
}

/// Reorders `slice` so vertices of component `0` come first, then `1`, …,
/// by counting sort into the reused `scratch` buffer, with `key(i, v)` as
/// the component id of position `i` / vertex `v`. Returns the segment end
/// offsets. A free function over the individual scratch buffers so callers
/// can keep `Workspace::comp` borrowed inside the key closure.
fn partition(
    counts: &mut Vec<usize>,
    scratch: &mut Vec<VertexId>,
    slice: &mut [VertexId],
    count: usize,
    key: impl Fn(usize, VertexId) -> usize,
) -> Vec<usize> {
    counts.clear();
    counts.resize(count, 0);
    for (i, &v) in slice.iter().enumerate() {
        counts[key(i, v)] += 1;
    }
    // Prefix sums -> start offset of each segment.
    let mut offsets: Vec<usize> = Vec::with_capacity(count);
    let mut acc = 0usize;
    for &c in counts.iter() {
        offsets.push(acc);
        acc += c;
    }
    scratch.clear();
    scratch.resize(slice.len(), 0);
    for (i, &v) in slice.iter().enumerate() {
        let k = key(i, v);
        scratch[offsets[k]] = v;
        offsets[k] += 1;
    }
    slice.copy_from_slice(scratch);
    // `offsets` now holds each segment's end position.
    offsets
}

/// Attempts to build the cotree of `g` by decomposition. Returns `None`
/// when `g` is not a cograph (or has no vertices). Leaf labels are the
/// vertex ids of `g`.
pub fn recognize(g: &Graph) -> Option<Cotree> {
    if g.num_vertices() == 0 {
        return None;
    }
    let mut ws = Workspace::new(g.num_vertices());
    let mut order: Vec<VertexId> = g.vertices().collect();
    recognize_slice(g, &mut order, &mut ws)
}

/// Decision-only mirror of [`recognize`]: identical decomposition, zero
/// cotree construction, early exit on the first non-cograph part.
pub fn is_cograph(g: &Graph) -> bool {
    if g.num_vertices() == 0 {
        return false;
    }
    let mut ws = Workspace::new(g.num_vertices());
    let mut order: Vec<VertexId> = g.vertices().collect();
    is_cograph_slice(g, &mut order, &mut ws)
}

/// Splits `slice` into component segments and recurses, combining the part
/// cotrees under a node of the level's kind.
fn recognize_slice(g: &Graph, slice: &mut [VertexId], ws: &mut Workspace) -> Option<Cotree> {
    if slice.len() == 1 {
        return Some(Cotree::single(slice[0]));
    }
    // Union level: connected components of the induced subgraph, computed
    // on the original graph through the stamped membership array.
    let count = ws.components(g, slice);
    if count > 1 {
        let (counts, scratch, comp) = (&mut ws.counts, &mut ws.scratch, &ws.comp);
        let ends = partition(counts, scratch, slice, count, |_, v| {
            comp[v as usize] as usize
        });
        let parts = recurse_segments(g, slice, &ends, ws, recognize_slice)?;
        return Some(Cotree::union_of_labelled(parts));
    }
    // Join level: co-components = components of the complement of the
    // induced subgraph. Only this case materialises a subgraph.
    let sub = ws.induced(g, slice);
    let co = ops::complement(&sub);
    let (co_comp, co_count) = co.connected_components();
    if co_count > 1 {
        let ends = partition(&mut ws.counts, &mut ws.scratch, slice, co_count, |i, _| {
            co_comp[i]
        });
        let parts = recurse_segments(g, slice, &ends, ws, recognize_slice)?;
        return Some(Cotree::join_of_labelled(parts));
    }
    // Both the graph and its complement are connected on >= 2 vertices:
    // not a cograph.
    None
}

/// Runs `rec` on each `[start, end)` segment of the partitioned slice.
fn recurse_segments<T>(
    g: &Graph,
    slice: &mut [VertexId],
    ends: &[usize],
    ws: &mut Workspace,
    rec: fn(&Graph, &mut [VertexId], &mut Workspace) -> Option<T>,
) -> Option<Vec<T>> {
    let mut parts = Vec::with_capacity(ends.len());
    let mut start = 0usize;
    for &end in ends {
        parts.push(rec(g, &mut slice[start..end], ws)?);
        start = end;
    }
    Some(parts)
}

/// Decision-only companion of [`recognize_slice`].
fn is_cograph_slice(g: &Graph, slice: &mut [VertexId], ws: &mut Workspace) -> bool {
    if slice.len() == 1 {
        return true;
    }
    let count = ws.components(g, slice);
    if count > 1 {
        let (counts, scratch, comp) = (&mut ws.counts, &mut ws.scratch, &ws.comp);
        let ends = partition(counts, scratch, slice, count, |_, v| {
            comp[v as usize] as usize
        });
        return all_segments(g, slice, &ends, ws);
    }
    let sub = ws.induced(g, slice);
    let co = ops::complement(&sub);
    let (co_comp, co_count) = co.connected_components();
    if co_count > 1 {
        let ends = partition(&mut ws.counts, &mut ws.scratch, slice, co_count, |i, _| {
            co_comp[i]
        });
        return all_segments(g, slice, &ends, ws);
    }
    false
}

/// `true` when every segment recursively passes the decision check.
fn all_segments(g: &Graph, slice: &mut [VertexId], ends: &[usize], ws: &mut Workspace) -> bool {
    let mut start = 0usize;
    for &end in ends {
        if !is_cograph_slice(g, &mut slice[start..end], ws) {
            return false;
        }
        start = end;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_cotree, CotreeShape};
    use pcgraph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn decomposition_round_trips_every_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for shape in CotreeShape::ALL {
            for n in [1usize, 2, 5, 12, 30, 64] {
                let g = random_cotree(n, shape, &mut rng).to_graph();
                let t =
                    recognize(&g).unwrap_or_else(|| panic!("{shape:?} n={n}: cograph rejected"));
                assert!(t.validate().is_ok(), "{shape:?} n={n}");
                assert_eq!(t.to_graph(), g, "{shape:?} n={n}");
                assert!(is_cograph(&g), "{shape:?} n={n}");
            }
        }
    }

    #[test]
    fn rejects_the_p4_family() {
        assert!(recognize(&generators::p4()).is_none());
        assert!(!is_cograph(&generators::path_graph(5)));
        assert!(!is_cograph(&generators::cycle_graph(5)));
        assert!(is_cograph(&generators::cycle_graph(4)));
        assert!(recognize(&Graph::new(0)).is_none());
        assert!(!is_cograph(&Graph::new(0)));
    }

    #[test]
    fn deep_skewed_trees_do_not_overflow_or_drift() {
        // The skewed family maximises recursion depth for the decomposition.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = random_cotree(300, CotreeShape::Skewed, &mut rng).to_graph();
        let t = recognize(&g).expect("skewed cotree graphs are cographs");
        assert_eq!(t.to_graph(), g);
    }

    #[test]
    fn disconnected_mixtures_partition_correctly() {
        // Two cliques and two isolated vertices: a union of four parts.
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (0, 2), (3, 4)]).unwrap();
        let t = recognize(&g).expect("cluster graph");
        assert_eq!(t.to_graph(), g);
    }
}
