//! Graph operators used by the recursive cograph construction.
//!
//! Cographs are exactly the graphs obtainable from single vertices by
//! repeatedly taking disjoint unions and complements — equivalently, disjoint
//! unions and *joins* (the complement of a union of complements). The
//! operators here mirror that algebra on concrete [`Graph`]s so that cotree
//! materialisation and the test oracles can be expressed directly.

use crate::graph::{Graph, VertexId};

/// Complement of a simple graph: `{u, v}` is an edge of the result iff it is
/// not an edge of `g` (self loops excluded).
pub fn complement(g: &Graph) -> Graph {
    let n = g.num_vertices();
    let mut out = Graph::new(n);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if !g.has_edge(u, v) {
                out.add_edge(u, v)
                    .expect("complement edge insertion cannot fail");
            }
        }
    }
    out.finalize();
    out
}

/// Disjoint union of two graphs. Vertices of `b` are shifted by
/// `a.num_vertices()`.
pub fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let na = a.num_vertices();
    let nb = b.num_vertices();
    let mut out = Graph::new(na + nb);
    for (u, v) in a.edges() {
        out.add_edge(u, v).expect("union copies valid edges");
    }
    for (u, v) in b.edges() {
        out.add_edge(u + na as VertexId, v + na as VertexId)
            .expect("union copies valid edges");
    }
    out.finalize();
    out
}

/// Join of two graphs: the disjoint union plus every edge between the two
/// vertex sets. Vertices of `b` are shifted by `a.num_vertices()`.
pub fn join(a: &Graph, b: &Graph) -> Graph {
    let na = a.num_vertices();
    let nb = b.num_vertices();
    let mut out = disjoint_union(a, b);
    for u in 0..na as VertexId {
        for v in 0..nb as VertexId {
            out.add_edge(u, v + na as VertexId)
                .expect("join edges are fresh");
        }
    }
    out.finalize();
    out
}

/// Relabels the vertices of `g` according to `perm`, where `perm[old] = new`.
/// `perm` must be a permutation of `0..n`.
pub fn relabel(g: &Graph, perm: &[VertexId]) -> Graph {
    assert_eq!(perm.len(), g.num_vertices(), "permutation length mismatch");
    let mut out = Graph::new(g.num_vertices());
    for (u, v) in g.edges() {
        out.add_edge(perm[u as usize], perm[v as usize])
            .expect("relabelled edges are fresh for a permutation");
    }
    out.finalize();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn complement_of_empty_is_complete() {
        let g = Graph::new(4);
        let c = complement(&g);
        assert_eq!(c.num_edges(), 6);
        assert_eq!(complement(&c).num_edges(), 0);
    }

    #[test]
    fn complement_is_involutive() {
        let g = generators::path_graph(7);
        assert_eq!(complement(&complement(&g)), g);
    }

    #[test]
    fn disjoint_union_counts() {
        let a = generators::path_graph(3);
        let b = generators::complete_graph(3);
        let u = disjoint_union(&a, &b);
        assert_eq!(u.num_vertices(), 6);
        assert_eq!(u.num_edges(), a.num_edges() + b.num_edges());
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(2, 3));
    }

    #[test]
    fn join_adds_all_cross_edges() {
        let a = Graph::new(2);
        let b = Graph::new(3);
        let j = join(&a, &b);
        assert_eq!(j.num_vertices(), 5);
        // no internal edges, 2*3 cross edges
        assert_eq!(j.num_edges(), 6);
        for u in 0..2u32 {
            for v in 2..5u32 {
                assert!(j.has_edge(u, v));
            }
        }
        assert!(!j.has_edge(0, 1));
        assert!(!j.has_edge(2, 3));
    }

    #[test]
    fn join_is_complement_of_union_of_complements() {
        let a = generators::path_graph(3);
        let b = generators::star_graph(3);
        let lhs = join(&a, &b);
        let rhs = complement(&disjoint_union(&complement(&a), &complement(&b)));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = generators::path_graph(4);
        let perm = vec![3, 2, 1, 0];
        let r = relabel(&g, &perm);
        assert_eq!(r.num_edges(), g.num_edges());
        assert!(r.has_edge(3, 2));
        assert!(r.has_edge(1, 0));
        assert!(!r.has_edge(3, 0));
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn relabel_rejects_wrong_length() {
        let g = generators::path_graph(4);
        relabel(&g, &[0, 1, 2]);
    }
}
