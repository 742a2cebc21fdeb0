//! Edges and nodes of the decision diagrams, generic over the arity `K`:
//! a matrix node has `K = 4` children, a vector node `K = 2`.

use crate::complex_table::Cx;

/// Index of a node in the package arena; [`NodeId::TERMINAL`] is the shared
/// terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The terminal node (no successors; the single sink of every DD).
    pub const TERMINAL: NodeId = NodeId(u32::MAX);

    /// Returns `true` if this is the terminal node.
    #[inline]
    #[must_use]
    pub fn is_terminal(self) -> bool {
        self == NodeId::TERMINAL
    }
}

/// A weighted edge into a DD node with `K` children.
///
/// The matrix (`K = 4`) or vector (`K = 2`) an edge represents is
/// `weight ·` (the node's matrix or vector). Canonicity: after
/// normalization and unique-table lookup, two edges represent the same
/// matrix or vector iff they are `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge<const K: usize> {
    /// Target node.
    pub node: NodeId,
    /// Interned weight.
    pub weight: Cx,
}

impl<const K: usize> Edge<K> {
    /// The zero matrix or vector (terminal with weight 0) — valid at any
    /// level.
    pub const ZERO: Self = Edge {
        node: NodeId::TERMINAL,
        weight: Cx::ZERO,
    };

    /// A terminal edge with the given weight (a scalar).
    #[inline]
    #[must_use]
    pub fn terminal(weight: Cx) -> Self {
        Edge {
            node: NodeId::TERMINAL,
            weight,
        }
    }

    /// Returns `true` if this edge denotes the zero matrix or vector.
    #[inline]
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.weight == Cx::ZERO
    }
}

/// A DD node: the variable level it decides and its `K` child edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node<const K: usize> {
    /// The qubit level this node decides (qubit 0 is the bottom level).
    pub var: u16,
    /// Child edges, indexed by the qubit's bits: `[e00, e01, e10, e11]`
    /// for a matrix (block `e_rc` is rows with bit `r`, columns with bit
    /// `c`), `[e0, e1]` for a vector.
    pub children: [Edge<K>; K],
}

/// A weighted edge into a matrix DD node.
pub type MEdge = Edge<4>;

/// A weighted edge into a vector DD node.
pub type VEdge = Edge<2>;

/// A matrix DD node: four sub-block edges.
pub type MNode = Node<4>;

/// A vector DD node: two sub-vector edges.
pub type VNode = Node<2>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_identification() {
        assert!(NodeId::TERMINAL.is_terminal());
        assert!(!NodeId(0).is_terminal());
    }

    #[test]
    fn zero_edges() {
        assert!(MEdge::ZERO.is_zero());
        assert!(VEdge::ZERO.is_zero());
        assert!(!MEdge::terminal(Cx::ONE).is_zero());
        assert_eq!(MEdge::terminal(Cx::ZERO), MEdge::ZERO);
    }
}
