//! Error types shared by the graph substrate.

use std::fmt;

/// Errors produced by graph construction and validation routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id referenced an index outside of the graph.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A self loop was supplied; simple graphs do not allow them.
    SelfLoop {
        /// The vertex carrying the loop.
        vertex: u32,
    },
    /// The same undirected edge was supplied twice.
    DuplicateEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => write!(f, "self loop on vertex {vertex}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::VertexOutOfRange { vertex: 7, n: 3 };
        assert!(e.to_string().contains("7"));
        assert!(e.to_string().contains("3"));
        let e = GraphError::SelfLoop { vertex: 2 };
        assert!(e.to_string().contains("self loop"));
        let e = GraphError::DuplicateEdge { u: 1, v: 2 };
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&GraphError::SelfLoop { vertex: 0 });
    }
}
