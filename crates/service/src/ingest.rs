//! Graph ingestion: edge-list text, DIMACS text and cotree term notation.
//!
//! Three input formats cover the service's entry points:
//!
//! * **edge list** — one `u v` pair per line (0-based vertex ids); a line
//!   with a single id declares an isolated vertex; `#` starts a comment.
//!   The vertex count is `max id + 1`.
//! * **DIMACS** — the classic `p edge <n> <m>` / `e <u> <v>` format with
//!   1-based ids and `c` comment lines.
//! * **cotree term** — the paper's own representation, written as nested
//!   s-expressions: `(u ...)` for a 0-node (union), `(j ...)` for a 1-node
//!   (join), and bare identifiers for leaves, e.g. `(u (j a b) c)`. Leaf
//!   names are assigned dense vertex ids in order of first appearance, so a
//!   term materialises to a graph on `0..n` directly.
//!
//! All parsers return typed [`IngestError`]s carrying the line (or byte
//! position) of the defect so batch jobs can report precisely what was wrong
//! with *their* input without touching the rest of the batch.
//!
//! Parsing is only the first gate: text graphs (`edge list` / `DIMACS`)
//! still pass through linear-time cograph recognition downstream, and a
//! non-cograph fails its job with [`crate::ServiceError::NotACograph`]
//! carrying an induced-`P_4` certificate. Cotree terms skip recognition
//! entirely — the term *is* the cotree.

use cograph::{Cotree, CotreeBuilder, CotreeKind};
use pcgraph::{Graph, GraphError, VertexId};
use std::collections::HashSet;
use std::fmt;

/// Input format of a graph payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// `u v` pairs, 0-based.
    EdgeList,
    /// DIMACS `p edge` / `e` lines, 1-based.
    Dimacs,
    /// Cotree term notation `(u (j a b) c)`.
    CotreeTerm,
}

impl GraphFormat {
    /// Guesses the format from file content: terms start with `(`, DIMACS
    /// files have `p`/`c` header lines, everything else is an edge list.
    pub fn sniff(text: &str) -> GraphFormat {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('(') {
                return GraphFormat::CotreeTerm;
            }
            if line.starts_with("p ") || line.starts_with("c ") || line.starts_with("e ") {
                return GraphFormat::Dimacs;
            }
            return GraphFormat::EdgeList;
        }
        GraphFormat::EdgeList
    }

    /// Parses a format name as used by the CLI's `--format` flag.
    pub fn parse_name(name: &str) -> Option<GraphFormat> {
        match name {
            "edge-list" | "edgelist" | "edges" => Some(GraphFormat::EdgeList),
            "dimacs" | "col" => Some(GraphFormat::Dimacs),
            "cotree" | "term" => Some(GraphFormat::CotreeTerm),
            _ => None,
        }
    }
}

/// Typed parse errors, each carrying enough location detail to be actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The input contained no vertices at all.
    Empty,
    /// A token that should have been a vertex id was not one.
    BadToken {
        /// 1-based input line.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A line had the wrong shape (e.g. three ids on an edge-list line).
    BadLine {
        /// 1-based input line.
        line: usize,
        /// What was expected.
        message: String,
    },
    /// A DIMACS header problem (`p edge n m` missing or malformed).
    BadHeader {
        /// 1-based input line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Graph construction rejected an edge (self loop, duplicate, range).
    Graph {
        /// 1-based input line.
        line: usize,
        /// The underlying graph error.
        source: GraphError,
    },
    /// A cotree term had unbalanced parentheses.
    UnbalancedTerm {
        /// Byte position in the term text.
        pos: usize,
    },
    /// A cotree term contained an unexpected character or token.
    BadTerm {
        /// Byte position in the term text.
        pos: usize,
        /// What was wrong.
        message: String,
    },
    /// A cotree term used the same leaf name twice.
    DuplicateLeaf {
        /// The repeated leaf name.
        name: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Empty => write!(f, "input describes no vertices"),
            IngestError::BadToken { line, token } => {
                write!(f, "line {line}: '{token}' is not a vertex id")
            }
            IngestError::BadLine { line, message } => write!(f, "line {line}: {message}"),
            IngestError::BadHeader { line, message } => {
                write!(f, "line {line}: bad DIMACS header: {message}")
            }
            IngestError::Graph { line, source } => write!(f, "line {line}: {source}"),
            IngestError::UnbalancedTerm { pos } => {
                write!(f, "unbalanced parentheses at byte {pos}")
            }
            IngestError::BadTerm { pos, message } => write!(f, "byte {pos}: {message}"),
            IngestError::DuplicateLeaf { name } => {
                write!(f, "leaf name '{name}' appears twice")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Parses text in the given (or sniffed) format into a graph-or-cotree.
///
/// Cotree terms return `Ingested::Cotree` so the engine can skip
/// recognition; the text formats return `Ingested::Graph`.
#[derive(Debug, Clone)]
pub enum Ingested {
    /// A plain graph that still needs cograph recognition.
    Graph(Graph),
    /// A ready cotree (recognition not needed).
    Cotree(Cotree),
}

/// Parses `text` according to `format`.
pub fn parse(text: &str, format: GraphFormat) -> Result<Ingested, IngestError> {
    match format {
        GraphFormat::EdgeList => parse_edge_list(text).map(Ingested::Graph),
        GraphFormat::Dimacs => parse_dimacs(text).map(Ingested::Graph),
        GraphFormat::CotreeTerm => parse_cotree_term(text).map(Ingested::Cotree),
    }
}

fn parse_vertex(token: &str, line: usize) -> Result<VertexId, IngestError> {
    token
        .parse::<VertexId>()
        .map_err(|_| IngestError::BadToken {
            line,
            token: token.to_string(),
        })
}

/// Parses the edge-list format (see module docs).
pub fn parse_edge_list(text: &str) -> Result<Graph, IngestError> {
    let mut edges: Vec<(VertexId, VertexId, usize)> = Vec::new();
    let mut max_vertex: Option<VertexId> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            [single] => {
                let v = parse_vertex(single, line_no)?;
                max_vertex = Some(max_vertex.map_or(v, |m| m.max(v)));
            }
            [a, b] => {
                let u = parse_vertex(a, line_no)?;
                let v = parse_vertex(b, line_no)?;
                max_vertex = Some(max_vertex.map_or(u.max(v), |m| m.max(u).max(v)));
                edges.push((u, v, line_no));
            }
            _ => {
                return Err(IngestError::BadLine {
                    line: line_no,
                    message: format!(
                        "expected 'u v' or a single vertex id, got {} tokens",
                        tokens.len()
                    ),
                })
            }
        }
    }
    let Some(max_vertex) = max_vertex else {
        return Err(IngestError::Empty);
    };
    let mut g = Graph::new(max_vertex as usize + 1);
    for (u, v, line) in edges {
        g.add_edge(u, v)
            .map_err(|source| IngestError::Graph { line, source })?;
    }
    g.finalize();
    Ok(g)
}

/// Parses the DIMACS `p edge` format (see module docs).
pub fn parse_dimacs(text: &str) -> Result<Graph, IngestError> {
    let mut graph: Option<Graph> = None;
    let mut declared_edges = 0usize;
    let mut seen_edges = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.first().copied() {
            Some("p") => {
                if graph.is_some() {
                    return Err(IngestError::BadHeader {
                        line: line_no,
                        message: "second 'p' line".to_string(),
                    });
                }
                let [_, format, n, m] = tokens.as_slice() else {
                    return Err(IngestError::BadHeader {
                        line: line_no,
                        message: "expected 'p edge <n> <m>'".to_string(),
                    });
                };
                if *format != "edge" && *format != "col" {
                    return Err(IngestError::BadHeader {
                        line: line_no,
                        message: format!("unsupported format '{format}'"),
                    });
                }
                let n: usize = n.parse().map_err(|_| IngestError::BadHeader {
                    line: line_no,
                    message: format!("'{n}' is not a vertex count"),
                })?;
                declared_edges = m.parse().map_err(|_| IngestError::BadHeader {
                    line: line_no,
                    message: format!("'{m}' is not an edge count"),
                })?;
                graph = Some(Graph::new(n));
            }
            Some("e") => {
                let g = graph.as_mut().ok_or(IngestError::BadHeader {
                    line: line_no,
                    message: "'e' line before 'p' header".to_string(),
                })?;
                let [_, a, b] = tokens.as_slice() else {
                    return Err(IngestError::BadLine {
                        line: line_no,
                        message: "expected 'e <u> <v>'".to_string(),
                    });
                };
                let u = parse_vertex(a, line_no)?;
                let v = parse_vertex(b, line_no)?;
                if u == 0 || v == 0 {
                    return Err(IngestError::BadToken {
                        line: line_no,
                        token: "0 (DIMACS ids are 1-based)".to_string(),
                    });
                }
                g.add_edge(u - 1, v - 1)
                    .map_err(|source| IngestError::Graph {
                        line: line_no,
                        source,
                    })?;
                seen_edges += 1;
            }
            _ => {
                return Err(IngestError::BadLine {
                    line: line_no,
                    message: format!("unknown DIMACS line '{line}'"),
                })
            }
        }
    }
    let mut g = graph.ok_or(IngestError::Empty)?;
    if g.num_vertices() == 0 {
        return Err(IngestError::Empty);
    }
    if declared_edges != seen_edges {
        return Err(IngestError::BadHeader {
            line: 0,
            message: format!("header declared {declared_edges} edges, found {seen_edges}"),
        });
    }
    g.finalize();
    Ok(g)
}

/// How a term's leaf tokens map onto vertex ids.
enum LeafMode<'a> {
    /// Leaf names are arbitrary identifiers assigned dense ids in order of
    /// first appearance (the public ingestion format).
    Appearance(HashSet<&'a str>),
    /// Leaf names *are* numeric vertex labels, used verbatim — the inverse
    /// of [`cograph::Cotree::to_term`], used by the snapshot loader where
    /// the exact labelling must survive the round trip.
    Labelled(HashSet<VertexId>),
}

impl<'a> LeafMode<'a> {
    fn resolve(&mut self, name: &'a str, pos: usize) -> Result<VertexId, IngestError> {
        match self {
            LeafMode::Appearance(names) => {
                let id = names.len() as VertexId;
                if !names.insert(name) {
                    return Err(IngestError::DuplicateLeaf {
                        name: name.to_string(),
                    });
                }
                Ok(id)
            }
            LeafMode::Labelled(seen) => {
                let id: VertexId = name.parse().map_err(|_| IngestError::BadTerm {
                    pos,
                    message: format!("leaf '{name}' is not a numeric vertex label"),
                })?;
                if !seen.insert(id) {
                    return Err(IngestError::DuplicateLeaf {
                        name: name.to_string(),
                    });
                }
                Ok(id)
            }
        }
    }
}

/// Parses the cotree term notation (see module docs).
pub fn parse_cotree_term(text: &str) -> Result<Cotree, IngestError> {
    parse_cotree_with(text, LeafMode::Appearance(HashSet::new()))
}

/// Parses a term whose leaves are numeric vertex labels, used verbatim.
///
/// This is the exact inverse of [`cograph::Cotree::to_term`]: child order
/// and leaf labels survive unchanged, so re-parsing an exported term yields
/// a cotree with the same canonical key describing the same labelled graph.
/// The default [`parse_cotree_term`] cannot do this — it assigns ids by
/// order of first appearance, silently relabelling any term whose labels
/// are not already in appearance order.
pub fn parse_cotree_term_labelled(text: &str) -> Result<Cotree, IngestError> {
    parse_cotree_with(text, LeafMode::Labelled(HashSet::new()))
}

/// An open `(` whose children are still being read.
struct Frame {
    /// Byte position of the `(`.
    open_pos: usize,
    kind: CotreeKind,
    /// Where this node's children start on the shared child stack.
    base: usize,
    /// Children as written, before same-label nesting is flattened.
    written: usize,
}

/// Parses a term in one left-to-right pass over an explicit stack, building
/// the arena directly in the post-order layout of the combining
/// constructors: a node is added when its `)` closes, after its children.
/// A node with the same label as its parent is never added — its children
/// stay on the shared child stack and so become the parent's (the
/// normalisation [`Cotree::union_of`] performs by copying). Linear in the
/// text, whatever the nesting depth.
fn parse_cotree_with<'a>(text: &'a str, mut mode: LeafMode<'a>) -> Result<Cotree, IngestError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let mut tree = CotreeBuilder::new();
    let mut open: Vec<Frame> = Vec::new();
    let mut kids: Vec<usize> = Vec::new();
    loop {
        skip_ws(bytes, &mut pos);
        let done = match bytes.get(pos) {
            None => {
                return Err(match open.last() {
                    Some(frame) => IngestError::UnbalancedTerm {
                        pos: frame.open_pos,
                    },
                    None => IngestError::Empty,
                })
            }
            Some(b'(') => {
                let open_pos = pos;
                pos += 1;
                skip_ws(bytes, &mut pos);
                let kind = match bytes.get(pos) {
                    Some(b'u') | Some(b'0') => CotreeKind::Union,
                    Some(b'j') | Some(b'1') => CotreeKind::Join,
                    _ => {
                        return Err(IngestError::BadTerm {
                            pos,
                            message: "expected operator 'u'/'0' (union) or 'j'/'1' (join)"
                                .to_string(),
                        })
                    }
                };
                pos += 1;
                open.push(Frame {
                    open_pos,
                    kind,
                    base: kids.len(),
                    written: 0,
                });
                false
            }
            Some(b')') => {
                let Some(frame) = open.pop() else {
                    return Err(IngestError::UnbalancedTerm { pos });
                };
                pos += 1;
                if frame.written < 2 {
                    return Err(IngestError::BadTerm {
                        pos: frame.open_pos,
                        message: format!(
                            "internal node needs at least two children, found {}",
                            frame.written
                        ),
                    });
                }
                match open.last_mut() {
                    Some(parent) if parent.kind == frame.kind => {
                        parent.written += 1;
                        false
                    }
                    _ => {
                        let children = kids.split_off(frame.base);
                        let node = tree.node(frame.kind, children);
                        adopt(&mut open, &mut kids, node)
                    }
                }
            }
            Some(_) => {
                let start = pos;
                while matches!(bytes.get(pos), Some(c) if !matches!(c, b'(' | b')' | b' ' | b'\t' | b'\n' | b'\r'))
                {
                    pos += 1;
                }
                // The token ends at an ASCII byte or the end of the text, so
                // it is a whole UTF-8 sequence of `text`.
                let name = &text[start..pos];
                let node = tree.leaf(mode.resolve(name, start)?);
                adopt(&mut open, &mut kids, node)
            }
        };
        if done {
            break;
        }
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(IngestError::BadTerm {
            pos,
            message: "trailing characters after term".to_string(),
        });
    }
    Ok(tree.finish())
}

/// Hands a finished subtree to the innermost open node; `true` when there
/// is none, i.e. the subtree is the whole term.
fn adopt(open: &mut [Frame], kids: &mut Vec<usize>, node: usize) -> bool {
    match open.last_mut() {
        Some(parent) => {
            parent.written += 1;
            kids.push(node);
            false
        }
        None => true,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

/// Renders a cotree back into term notation with numeric leaf names; the
/// `Recognize` answer uses this as its canonical output form and the
/// snapshot format stores cotrees this way (see [`Cotree::to_term`]).
pub fn cotree_to_term(tree: &Cotree) -> String {
    tree.to_term()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_basic() {
        let g = parse_edge_list("0 1\n1 2\n# comment\n\n3\n").unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edge_list_typed_errors() {
        assert_eq!(parse_edge_list("").unwrap_err(), IngestError::Empty);
        assert_eq!(
            parse_edge_list("0 x"),
            Err(IngestError::BadToken {
                line: 1,
                token: "x".to_string()
            })
        );
        assert!(matches!(
            parse_edge_list("0 1 2"),
            Err(IngestError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_edge_list("0 1\n1 0"),
            Err(IngestError::Graph {
                line: 2,
                source: GraphError::DuplicateEdge { .. }
            })
        ));
        assert!(matches!(
            parse_edge_list("2 2"),
            Err(IngestError::Graph {
                line: 1,
                source: GraphError::SelfLoop { .. }
            })
        ));
    }

    #[test]
    fn dimacs_basic() {
        let text = "c a triangle plus isolate\np edge 4 3\ne 1 2\ne 2 3\ne 1 3\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn dimacs_typed_errors() {
        assert!(matches!(
            parse_dimacs("e 1 2\n"),
            Err(IngestError::BadHeader { line: 1, .. })
        ));
        assert!(matches!(
            parse_dimacs("p edge 3 1\ne 0 1\n"),
            Err(IngestError::BadToken { line: 2, .. })
        ));
        assert!(matches!(
            parse_dimacs("p edge 3 2\ne 1 2\n"),
            Err(IngestError::BadHeader { line: 0, .. })
        ));
        assert_eq!(parse_dimacs("c nothing\n").unwrap_err(), IngestError::Empty);
    }

    #[test]
    fn cotree_term_round_trip() {
        let tree = parse_cotree_term("(u (j a b) c)").unwrap();
        assert_eq!(tree.num_vertices(), 3);
        let g = tree.to_graph();
        // a-b joined, c isolated.
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        let term = cotree_to_term(&tree);
        let reparsed = parse_cotree_term(&term).unwrap();
        assert_eq!(reparsed.to_graph(), g);
    }

    #[test]
    fn cotree_term_digit_operators() {
        let tree = parse_cotree_term("(1 x (0 y z))").unwrap();
        let g = tree.to_graph();
        assert_eq!(g.num_vertices(), 3);
        // x joined to both y and z, y-z not adjacent.
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn cotree_term_typed_errors() {
        assert!(matches!(
            parse_cotree_term("(u a"),
            Err(IngestError::UnbalancedTerm { .. })
        ));
        assert!(matches!(
            parse_cotree_term("(x a b)"),
            Err(IngestError::BadTerm { .. })
        ));
        assert!(matches!(
            parse_cotree_term("(u a)"),
            Err(IngestError::BadTerm { .. })
        ));
        assert_eq!(
            parse_cotree_term("(u a a)").unwrap_err(),
            IngestError::DuplicateLeaf {
                name: "a".to_string()
            }
        );
        assert!(matches!(
            parse_cotree_term("(u a b) junk"),
            Err(IngestError::BadTerm { .. })
        ));
        assert_eq!(parse_cotree_term("").unwrap_err(), IngestError::Empty);
    }

    #[test]
    fn labelled_term_round_trips_exact_labels() {
        // Labels deliberately out of appearance order: the appearance-order
        // parser would relabel them, the labelled parser must not.
        let tree = Cotree::union_of_labelled(vec![
            Cotree::join_of_labelled(vec![Cotree::single(2), Cotree::single(0)]),
            Cotree::single(1),
        ]);
        let term = tree.to_term();
        let reparsed = parse_cotree_term_labelled(&term).unwrap();
        assert_eq!(reparsed, tree, "labelled round trip must be exact");
        let relabelled = parse_cotree_term(&term).unwrap();
        assert_ne!(
            relabelled, tree,
            "the appearance-order parser relabels this term — if this ever \
             starts passing, the labelled parser has lost its reason to exist"
        );
    }

    #[test]
    fn parsed_arenas_match_the_combining_constructors() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        for shape in cograph::CotreeShape::ALL {
            for n in [1usize, 2, 5, 17, 90] {
                let tree = cograph::random_cotree(n, shape, &mut rng);
                let term = tree.to_term();
                assert_eq!(parse_cotree_term_labelled(&term).unwrap(), tree, "{term}");
                // Generated labels appear in order, so first-appearance ids
                // coincide with them.
                assert_eq!(parse_cotree_term(&term).unwrap(), tree, "{term}");
            }
        }
        // Nested same-label nodes flatten exactly as `union_of` does.
        let flat = Cotree::union_of_labelled(vec![
            Cotree::union_of_labelled(vec![Cotree::single(0), Cotree::single(1)]),
            Cotree::join_of_labelled(vec![
                Cotree::single(2),
                Cotree::join_of_labelled(vec![Cotree::single(3), Cotree::single(4)]),
            ]),
        ]);
        let parsed = parse_cotree_term_labelled("(u (u 0 1) (j 2 (j 3 4)))").unwrap();
        assert_eq!(parsed, flat);
        assert_eq!(parsed.num_nodes(), 7);
    }

    #[test]
    fn labelled_term_typed_errors() {
        assert!(matches!(
            parse_cotree_term_labelled("(u a b)"),
            Err(IngestError::BadTerm { .. })
        ));
        assert_eq!(
            parse_cotree_term_labelled("(u 3 3)").unwrap_err(),
            IngestError::DuplicateLeaf {
                name: "3".to_string()
            }
        );
        assert_eq!(
            parse_cotree_term_labelled("").unwrap_err(),
            IngestError::Empty
        );
    }

    #[test]
    fn format_sniffing() {
        assert_eq!(GraphFormat::sniff("0 1\n"), GraphFormat::EdgeList);
        assert_eq!(
            GraphFormat::sniff("c hi\np edge 2 1\n"),
            GraphFormat::Dimacs
        );
        assert_eq!(GraphFormat::sniff("  (u a b)"), GraphFormat::CotreeTerm);
        assert_eq!(GraphFormat::sniff(""), GraphFormat::EdgeList);
    }
}
