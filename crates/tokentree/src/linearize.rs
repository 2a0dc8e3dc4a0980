//! Depth-first linearization and the topology-aware causal mask (§4.2).
//!
//! To verify a whole token tree in one decoding pass, SpecInfer lays the
//! tree's tokens out linearly in the shared KV cache following a
//! depth-first traversal, and replaces the ordinary causal mask with a
//! *topology-aware* mask: token `i` may attend to tree token `j` iff `j`
//! is an ancestor of `i` in the tree (or `i` itself). Attention to the
//! already-verified prefix is always allowed and handled by the model.
//!
//! The mask is defined over any layout that puts parents before their
//! children. The verifier lays a tree out in DFS order; a drafter appends
//! nodes in the order it creates them (the tree's arena order) and
//! attends through the same mask, built by the same [`TopologyMask::push`].

use crate::tree::{NodeId, TokenId, TokenTree};

/// The ancestor mask over tree positions laid out parents first.
///
/// `allowed(i, j)` is `true` iff the node at position `j` lies on the
/// root-path of the node at position `i` (inclusive). Combined with full
/// visibility of the verified prefix, this reproduces exactly the
/// attention pattern each candidate sequence would see under ordinary
/// causal decoding.
///
/// An ancestor precedes its descendants, so row `i` is stored for
/// columns `0..=i` only and a new row never touches the others.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopologyMask {
    n: usize,
    /// Row `i` occupies `i·(i+1)/2 ..= i·(i+1)/2 + i`.
    bits: Vec<bool>,
}

impl TopologyMask {
    /// Appends a position whose parent is position `parent` (`None` for
    /// the root): its row is its parent's row plus itself. Returns the
    /// new position.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not an earlier position.
    pub fn push(&mut self, parent: Option<usize>) -> usize {
        let (i, row) = (self.n, self.bits.len());
        if let Some(p) = parent {
            assert!(p < i, "a parent precedes its child");
            let start = p * (p + 1) / 2;
            self.bits.extend_from_within(start..start + p + 1);
        }
        self.bits.resize(row + i, false);
        self.bits.push(true);
        self.n += 1;
        i
    }

    /// Number of linearized positions covered by the mask.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the mask covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether position `i` may attend to position `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn allowed(&self, i: usize, j: usize) -> bool {
        match self.try_allowed(i, j) {
            Some(b) => b,
            None => unreachable!("mask index ({i},{j}) out of range for {} positions", self.n),
        }
    }

    /// Non-panicking [`TopologyMask::allowed`]: `None` when either index
    /// is out of range, for callers handling untrusted positions.
    pub fn try_allowed(&self, i: usize, j: usize) -> Option<bool> {
        if i >= self.n || j >= self.n {
            return None;
        }
        // A later position is never an ancestor.
        if j > i {
            return Some(false);
        }
        self.bits.get(i * (i + 1) / 2 + j).copied()
    }
}

/// A token tree flattened into KV-cache layout order.
///
/// Index 0 is always the tree root (the last verified token, which is fed
/// through the model together with the speculated tokens, as in Figure 4
/// of the paper); speculated nodes follow in pre-order DFS.
#[derive(Debug, Clone)]
pub struct LinearizedTree {
    tokens: Vec<TokenId>,
    nodes: Vec<NodeId>,
    index_of: Vec<usize>,
    depths: Vec<usize>,
    mask: TopologyMask,
}

impl LinearizedTree {
    /// Linearizes `tree` in DFS order and builds its topology mask.
    pub fn new(tree: &TokenTree) -> Self {
        let order = tree.dfs_order();
        let n = order.len();
        let mut index_of = vec![usize::MAX; n];
        for (i, u) in order.iter().enumerate() {
            match index_of.get_mut(u.index()) {
                Some(slot) => *slot = i,
                None => unreachable!("DFS node id {} outside arena of {n} nodes", u.index()),
            }
        }
        let tokens: Vec<TokenId> = order.iter().map(|&u| tree.token(u)).collect();
        let depths: Vec<usize> = order.iter().map(|&u| tree.depth(u)).collect();
        let mut mask = TopologyMask::default();
        for &u in &order {
            mask.push(tree.parent(u).map(|p| match index_of.get(p.index()) {
                Some(&i) if i != usize::MAX => i,
                _ => unreachable!("parent of a DFS-visited node must be indexed"),
            }));
        }
        LinearizedTree {
            tokens,
            nodes: order,
            index_of,
            depths,
            mask,
        }
    }

    /// Number of linearized positions (root + speculated nodes).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether only the root is present.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() <= 1
    }

    /// Tokens in linear (DFS) order; index 0 is the verified root token.
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Tree node ids in linear order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The linear index of tree node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` does not belong to the linearized tree.
    pub fn index_of(&self, u: NodeId) -> usize {
        match self.try_index_of(u) {
            Some(i) => i,
            None => unreachable!("node {} not present in linearization", u.index()),
        }
    }

    /// Non-panicking [`LinearizedTree::index_of`]: `None` when `u` does
    /// not belong to the linearized tree (including ids from another,
    /// larger tree, which the panicking accessor would reject by bounds).
    pub fn try_index_of(&self, u: NodeId) -> Option<usize> {
        match self.index_of.get(u.index()) {
            Some(&i) if i != usize::MAX => Some(i),
            _ => None,
        }
    }

    /// Depth (relative to the root) of each linear position. Added to the
    /// verified-prefix length, this gives each token's absolute sequence
    /// position for positional encodings.
    pub fn depths(&self) -> &[usize] {
        &self.depths
    }

    /// The topology-aware causal mask over linear positions.
    pub fn mask(&self) -> &TopologyMask {
        &self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenTree;

    fn figure_4_tree() -> TokenTree {
        // Verified t2 with speculated t3..t9 laid out as in Figure 4:
        // t2 → t3 → {t4 → {t5, t6 → t7}, t8 → t9}
        let mut t = TokenTree::new(2);
        let t3 = t.add_child(TokenTree::ROOT, 3, 0, 0.5);
        let t4 = t.add_child(t3, 4, 0, 0.5);
        let _t5 = t.add_child(t4, 5, 0, 0.5);
        let t6 = t.add_child(t4, 6, 0, 0.5);
        let _t7 = t.add_child(t6, 7, 0, 0.5);
        let t8 = t.add_child(t3, 8, 0, 0.5);
        let _t9 = t.add_child(t8, 9, 0, 0.5);
        t
    }

    #[test]
    fn linearization_starts_at_root_and_is_dfs() {
        let tree = figure_4_tree();
        let lin = LinearizedTree::new(&tree);
        assert_eq!(lin.tokens(), &[2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(lin.depths(), &[0, 1, 2, 3, 3, 4, 2, 3]);
    }

    #[test]
    fn mask_matches_ancestor_relation() {
        let tree = figure_4_tree();
        let lin = LinearizedTree::new(&tree);
        let mask = lin.mask();
        for (i, &u) in lin.nodes().iter().enumerate() {
            for (j, &v) in lin.nodes().iter().enumerate() {
                assert_eq!(
                    mask.allowed(i, j),
                    tree.is_ancestor(v, u),
                    "mask({i},{j}) must equal ancestor({j}→{i})"
                );
            }
        }
    }

    #[test]
    fn figure_4_mask_excludes_cross_branch() {
        let tree = figure_4_tree();
        let lin = LinearizedTree::new(&tree);
        let mask = lin.mask();
        // Token 7's sequence is (2,3,4,6,7): it must NOT attend to 5,
        // which precedes it in the cache but is on a sibling branch.
        let i7 = lin.tokens().iter().position(|&t| t == 7).unwrap();
        let i5 = lin.tokens().iter().position(|&t| t == 5).unwrap();
        let i6 = lin.tokens().iter().position(|&t| t == 6).unwrap();
        assert!(i5 < i7, "DFS places 5 before 7");
        assert!(
            !mask.allowed(i7, i5),
            "cross-branch attention must be masked"
        );
        assert!(mask.allowed(i7, i6));
        assert!(
            mask.allowed(i7, 0),
            "everything attends to the verified root"
        );
    }

    #[test]
    fn mask_diagonal_always_allowed() {
        let tree = figure_4_tree();
        let lin = LinearizedTree::new(&tree);
        for i in 0..lin.len() {
            assert!(lin.mask().allowed(i, i));
        }
    }

    #[test]
    fn index_of_round_trips() {
        let tree = figure_4_tree();
        let lin = LinearizedTree::new(&tree);
        for (i, &u) in lin.nodes().iter().enumerate() {
            assert_eq!(lin.index_of(u), i);
            assert_eq!(lin.try_index_of(u), Some(i));
        }
    }

    #[test]
    fn try_accessors_reject_out_of_range_without_panicking() {
        let tree = figure_4_tree();
        let lin = LinearizedTree::new(&tree);
        let n = lin.len();
        // A node id from a larger tree is out of bounds for this one.
        let mut big = figure_4_tree();
        let extra = big.add_child(TokenTree::ROOT, 99, 0, 0.5);
        assert_eq!(lin.try_index_of(extra), None);
        assert_eq!(lin.mask().try_allowed(0, n), None);
        assert_eq!(lin.mask().try_allowed(n, 0), None);
        assert_eq!(lin.mask().try_allowed(0, 0), Some(true));
    }
}
