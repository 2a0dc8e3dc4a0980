//! The token tree of Definition 3.1 and the merge of Definition 3.2.

/// A vocabulary token identifier.
pub type TokenId = u32;

/// Handle to a node within a [`TokenTree`].
///
/// Node ids are indices into the owning tree's arena; they are only
/// meaningful for the tree that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The arena index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct Node {
    token: TokenId,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    depth: usize,
    ssm_id: usize,
    ssm_prob: f32,
}

/// A speculated token tree (Definition 3.1).
///
/// The **root** holds the last *verified* token `t₀`; every other node is a
/// speculated token whose candidate sequence `S_u` is the concatenation of
/// the tokens on the path from the root to `u`.
///
/// Each speculated node records which SSM proposed it (`ssm_id`) and that
/// SSM's conditional probability for the token given its parent's sequence
/// (`ssm_prob`) — both are consumed by the stochastic verifier's multi-step
/// speculative sampling.
#[derive(Debug, Clone)]
pub struct TokenTree {
    nodes: Vec<Node>,
}

impl TokenTree {
    /// The root node id (always present).
    pub const ROOT: NodeId = NodeId(0);

    /// Creates a tree whose root carries the verified token `root_token`.
    pub fn new(root_token: TokenId) -> Self {
        TokenTree {
            nodes: vec![Node {
                token: root_token,
                parent: None,
                children: Vec::new(),
                depth: 0,
                ssm_id: usize::MAX,
                ssm_prob: 1.0,
            }],
        }
    }

    /// Number of nodes, including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of *speculated* nodes (everything but the root).
    pub fn speculated_len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Resolves a node id against the arena. Ids are only mintable by
    /// the owning tree (the inner index is `pub(crate)`), so a miss
    /// means a handle crossed trees — a caller bug worth stopping
    /// loudly rather than an anonymous bounds panic.
    fn node(&self, u: NodeId) -> &Node {
        match self.nodes.get(u.0) {
            Some(n) => n,
            None => unreachable!(
                "NodeId {} used against a tree with {} nodes",
                u.0,
                self.nodes.len()
            ),
        }
    }

    fn node_mut(&mut self, u: NodeId) -> &mut Node {
        let n = self.nodes.len();
        match self.nodes.get_mut(u.0) {
            Some(node) => node,
            None => unreachable!("NodeId {} used against a tree with {n} nodes", u.0),
        }
    }

    /// Adds a speculated child of `parent` and returns its id.
    ///
    /// `ssm_id` identifies the proposing SSM, `ssm_prob` is that SSM's
    /// conditional probability for `token` given the parent's sequence.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of this tree.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        token: TokenId,
        ssm_id: usize,
        ssm_prob: f32,
    ) -> NodeId {
        assert!(parent.0 < self.nodes.len(), "parent node out of range");
        let id = NodeId(self.nodes.len());
        let depth = self.node(parent).depth + 1;
        self.nodes.push(Node {
            token,
            parent: Some(parent),
            children: Vec::new(),
            depth,
            ssm_id,
            ssm_prob,
        });
        self.node_mut(parent).children.push(id);
        id
    }

    /// The token at `u`.
    pub fn token(&self, u: NodeId) -> TokenId {
        self.node(u).token
    }

    /// The parent of `u`, or `None` for the root.
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        self.node(u).parent
    }

    /// The children of `u`, in insertion order.
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        &self.node(u).children
    }

    /// Depth of `u` (root has depth 0).
    pub fn depth(&self, u: NodeId) -> usize {
        self.node(u).depth
    }

    /// The id of the SSM that proposed `u` (`usize::MAX` for the root).
    pub fn ssm_id(&self, u: NodeId) -> usize {
        self.node(u).ssm_id
    }

    /// The proposing SSM's conditional probability for `u`'s token.
    pub fn ssm_prob(&self, u: NodeId) -> f32 {
        self.node(u).ssm_prob
    }

    /// The candidate sequence `S_u`: tokens on the root→`u` path, root
    /// first.
    pub fn sequence(&self, u: NodeId) -> Vec<TokenId> {
        let mut rev = Vec::with_capacity(self.node(u).depth + 1);
        let mut cur = Some(u);
        while let Some(c) = cur {
            rev.push(self.node(c).token);
            cur = self.node(c).parent;
        }
        rev.reverse();
        rev
    }

    /// Whether `a` is an ancestor of `b` (a node is its own ancestor).
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = Some(b);
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            // Depth check lets us stop early on long chains.
            if self.node(c).depth < self.node(a).depth {
                return false;
            }
            cur = self.node(c).parent;
        }
        false
    }

    /// Looks up the child of `parent` carrying `token`, if any.
    pub fn child_with_token(&self, parent: NodeId, token: TokenId) -> Option<NodeId> {
        self.node(parent)
            .children
            .iter()
            .copied()
            .find(|&c| self.node(c).token == token)
    }

    /// Iterates over all node ids in arena order (root first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// All leaf nodes (nodes without children).
    pub fn leaves(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&u| self.node(u).children.is_empty())
            .collect()
    }

    /// Maximum node depth in the tree.
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Pre-order depth-first traversal starting at the root.
    ///
    /// This is the order in which speculated tokens are laid out in the
    /// shared KV cache (§4.2, "depth-first search to update key-value
    /// cache"). Parents always precede their children.
    pub fn dfs_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![Self::ROOT];
        while let Some(u) = stack.pop() {
            order.push(u);
            // Push children reversed so the first child is visited first.
            for &c in self.node(u).children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// The set of candidate sequences represented by the tree — one per
    /// node, per Definition 3.1 (the root's singleton sequence included).
    pub fn all_sequences(&self) -> Vec<Vec<TokenId>> {
        self.node_ids().map(|u| self.sequence(u)).collect()
    }

    /// Grafts `part` onto this tree — the merge of Definition 3.2, one
    /// input tree at a time: afterwards the tree holds a node `v` with
    /// `S_v = S_u` for every node `u` of `part`. Returns, per node of
    /// `part` in arena order, the node it became here.
    ///
    /// With `dedup` (top-k drafts) a sequence already present is matched
    /// and keeps the metadata (`ssm_id`, `ssm_prob`) of its first
    /// contributor, so grafting trees one by one builds the trie union of
    /// their candidate sets and nothing else. Without it (sampled drafts)
    /// every node of `part` is appended: i.i.d. drafts stay distinct
    /// candidates even when they collide.
    ///
    /// # Panics
    ///
    /// Panics if the root tokens disagree (both trees must speculate from
    /// the same verified token).
    pub fn graft(&mut self, part: &TokenTree, dedup: bool) -> Vec<NodeId> {
        assert_eq!(
            part.token(Self::ROOT),
            self.token(Self::ROOT),
            "a grafted tree must share the verified root token"
        );
        let mut map: Vec<NodeId> = Vec::with_capacity(part.len());
        for node in &part.nodes {
            let merged = match node.parent {
                None => Self::ROOT,
                Some(p) => {
                    let parent = match map.get(p.0) {
                        Some(&m) => m,
                        None => unreachable!("arena order grafts a parent before its child"),
                    };
                    let existing = dedup.then(|| self.child_with_token(parent, node.token));
                    match existing.flatten() {
                        Some(v) => v,
                        None => self.add_child(parent, node.token, node.ssm_id, node.ssm_prob),
                    }
                }
            };
            map.push(merged);
        }
        map
    }
}

impl std::fmt::Display for TokenTree {
    /// Indented one-node-per-line rendering, DFS order:
    ///
    /// ```text
    /// 0
    ///   1 (p=0.90)
    ///     3 (p=0.70)
    ///   2 (p=0.10)
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for u in self.dfs_order() {
            let indent = "  ".repeat(self.depth(u));
            if u == Self::ROOT {
                writeln!(f, "{}", self.token(u))?;
            } else {
                writeln!(f, "{indent}{} (p={:.2})", self.token(u), self.ssm_prob(u))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(tokens: &[TokenId]) -> TokenTree {
        let mut t = TokenTree::new(tokens[0]);
        let mut cur = TokenTree::ROOT;
        for &tok in &tokens[1..] {
            cur = t.add_child(cur, tok, 0, 0.5);
        }
        t
    }

    #[test]
    fn sequences_follow_paths() {
        let mut t = TokenTree::new(10);
        let a = t.add_child(TokenTree::ROOT, 1, 0, 0.9);
        let b = t.add_child(TokenTree::ROOT, 2, 0, 0.1);
        let c = t.add_child(a, 3, 0, 0.7);
        assert_eq!(t.sequence(TokenTree::ROOT), vec![10]);
        assert_eq!(t.sequence(a), vec![10, 1]);
        assert_eq!(t.sequence(b), vec![10, 2]);
        assert_eq!(t.sequence(c), vec![10, 1, 3]);
    }

    #[test]
    fn depths_and_leaves() {
        let mut t = TokenTree::new(0);
        let a = t.add_child(TokenTree::ROOT, 1, 0, 0.5);
        let b = t.add_child(a, 2, 0, 0.5);
        let c = t.add_child(TokenTree::ROOT, 3, 0, 0.5);
        assert_eq!(t.depth(TokenTree::ROOT), 0);
        assert_eq!(t.depth(b), 2);
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.leaves(), vec![b, c]);
    }

    #[test]
    fn ancestor_relation() {
        let mut t = TokenTree::new(0);
        let a = t.add_child(TokenTree::ROOT, 1, 0, 0.5);
        let b = t.add_child(a, 2, 0, 0.5);
        let c = t.add_child(TokenTree::ROOT, 3, 0, 0.5);
        assert!(t.is_ancestor(TokenTree::ROOT, b));
        assert!(t.is_ancestor(a, b));
        assert!(t.is_ancestor(b, b));
        assert!(!t.is_ancestor(b, a));
        assert!(!t.is_ancestor(c, b));
    }

    #[test]
    fn dfs_parents_precede_children() {
        let mut t = TokenTree::new(0);
        let a = t.add_child(TokenTree::ROOT, 1, 0, 0.5);
        let _b = t.add_child(a, 2, 0, 0.5);
        let c = t.add_child(TokenTree::ROOT, 3, 0, 0.5);
        let _d = t.add_child(c, 4, 0, 0.5);
        let order = t.dfs_order();
        assert_eq!(order.len(), t.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; t.len()];
            for (i, u) in order.iter().enumerate() {
                p[u.0] = i;
            }
            p
        };
        for u in t.node_ids() {
            if let Some(p) = t.parent(u) {
                assert!(
                    pos[p.0] < pos[u.0],
                    "parent must precede child in DFS order"
                );
            }
        }
    }

    #[test]
    fn dfs_is_preorder_first_child_first() {
        let mut t = TokenTree::new(0);
        let a = t.add_child(TokenTree::ROOT, 1, 0, 0.5);
        let b = t.add_child(a, 2, 0, 0.5);
        let c = t.add_child(TokenTree::ROOT, 3, 0, 0.5);
        assert_eq!(t.dfs_order(), vec![TokenTree::ROOT, a, b, c]);
    }

    /// Definition 3.2 over `trees`: each grafted in turn, deduplicating.
    fn merge(trees: &[TokenTree]) -> TokenTree {
        let mut merged = TokenTree::new(trees[0].token(TokenTree::ROOT));
        for t in trees {
            merged.graft(t, true);
        }
        merged
    }

    #[test]
    fn merge_of_chains_matches_figure_3() {
        // The four sequences from Figure 3 of the paper (tokens renamed to
        // small integers): machine=0 learning=1 algorithm=2 system=3
        // design=4 translation=5 models=6 is=7 are=8
        let s1 = chain(&[0, 1, 2, 7]);
        let s2 = chain(&[0, 1, 3, 4]);
        let s3 = chain(&[0, 5, 6, 8]);
        let s4 = chain(&[0, 5, 3, 4]);
        let m = merge(&[s1.clone(), s2.clone(), s3.clone(), s4.clone()]);

        // Every input sequence must be present…
        let merged_seqs = m.all_sequences();
        for t in [&s1, &s2, &s3, &s4] {
            for s in t.all_sequences() {
                assert!(merged_seqs.contains(&s), "missing sequence {s:?}");
            }
        }
        // …and nothing else (vice versa direction of Definition 3.2).
        let mut union: Vec<Vec<TokenId>> = Vec::new();
        for t in [&s1, &s2, &s3, &s4] {
            for s in t.all_sequences() {
                if !union.contains(&s) {
                    union.push(s);
                }
            }
        }
        assert_eq!(merged_seqs.len(), union.len());
        // Distinct prefixes: root; {01,05}; {012,013,056,053}; four leaves.
        assert_eq!(m.len(), 1 + 2 + 4 + 4);
        // Without dedup every grafted node is appended.
        let mut appended = TokenTree::new(0);
        for t in [&s1, &s2, &s3, &s4] {
            appended.graft(t, false);
        }
        assert_eq!(appended.len(), 1 + 4 * 3);
    }

    #[test]
    fn merge_keeps_first_contributor_metadata() {
        let mut t1 = TokenTree::new(0);
        t1.add_child(TokenTree::ROOT, 1, 0, 0.9);
        let mut t2 = TokenTree::new(0);
        t2.add_child(TokenTree::ROOT, 1, 1, 0.4);
        let m = merge(&[t1, t2]);
        assert_eq!(m.len(), 2);
        let child = m.children(TokenTree::ROOT)[0];
        assert_eq!(m.ssm_id(child), 0);
        assert!((m.ssm_prob(child) - 0.9).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "share the verified root token")]
    fn merge_rejects_mismatched_roots() {
        let t1 = TokenTree::new(0);
        let t2 = TokenTree::new(1);
        let _ = merge(&[t1, t2]);
    }

    #[test]
    fn display_renders_one_line_per_node() {
        let mut t = TokenTree::new(0);
        let a = t.add_child(TokenTree::ROOT, 1, 0, 0.9);
        let _ = t.add_child(a, 3, 0, 0.7);
        let s = t.to_string();
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("(p=0.90)"));
        assert!(s.lines().nth(2).unwrap().starts_with("    "));
    }

    #[test]
    fn child_with_token_finds_existing() {
        let mut t = TokenTree::new(0);
        let a = t.add_child(TokenTree::ROOT, 5, 0, 0.5);
        assert_eq!(t.child_with_token(TokenTree::ROOT, 5), Some(a));
        assert_eq!(t.child_with_token(TokenTree::ROOT, 6), None);
    }
}
