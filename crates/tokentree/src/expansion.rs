//! Static expansion schedules for expansion-based tree construction (§3).

/// The preset expansion configuration ⟨k₁, k₂, …, k_m⟩ of the paper:
/// `m` is the number of speculative decoding steps and `kᵢ` is how many
/// top-k tokens each frontier node expands to at step `i`.
///
/// The paper's evaluation uses ⟨1,1,3,1,1,1,1,1⟩ ([`ExpansionConfig::paper_default`]);
/// the tree-width sweeps use ⟨1,1,k,1,1,1,1,1⟩ ([`ExpansionConfig::width_at_third`]).
///
/// # Example
///
/// ```
/// use specinfer_tokentree::ExpansionConfig;
///
/// let cfg = ExpansionConfig::new(vec![2, 2, 1]);
/// assert_eq!(cfg.depth(), 3);
/// assert_eq!(cfg.leaf_count(), 4); // Figure 3: four candidate sequences
/// assert_eq!(cfg.node_count(), 2 + 4 + 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExpansionConfig {
    widths: Vec<usize>,
}

impl ExpansionConfig {
    /// Creates a schedule from per-step widths.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty or any width is zero.
    pub fn new(widths: Vec<usize>) -> Self {
        assert!(
            !widths.is_empty(),
            "expansion config must have at least one step"
        );
        assert!(
            widths.iter().all(|&k| k > 0),
            "expansion widths must be positive"
        );
        ExpansionConfig { widths }
    }

    /// The configuration used throughout the paper's end-to-end
    /// evaluation: ⟨1,1,3,1,1,1,1,1⟩.
    pub fn paper_default() -> Self {
        ExpansionConfig::new(vec![1, 1, 3, 1, 1, 1, 1, 1])
    }

    /// The tree-width sweep configuration ⟨1,1,k,1,1,1,1,1⟩ used by
    /// Table 2 / Figures 9–10 ("expanding at the third token").
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn width_at_third(k: usize) -> Self {
        let mut widths = vec![1usize; 8];
        widths[2] = k;
        ExpansionConfig::new(widths)
    }

    /// A pure sequence of `m` steps (⟨1,1,…,1⟩) — sequence-based
    /// speculation, the paper's ablation baseline.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn sequence(m: usize) -> Self {
        ExpansionConfig::new(vec![1; m])
    }

    /// Number of speculative decoding steps `m` (the tree depth below the
    /// root).
    pub fn depth(&self) -> usize {
        self.widths.len()
    }

    /// Width `kᵢ` at step `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `step >= self.depth()`.
    pub fn width(&self, step: usize) -> usize {
        match self.widths.get(step) {
            Some(&k) => k,
            None => unreachable!(
                "expansion step {step} beyond schedule depth {}",
                self.depth()
            ),
        }
    }

    /// Per-step widths as a slice.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Number of leaves (candidate full-length sequences): ∏ kᵢ.
    pub fn leaf_count(&self) -> usize {
        self.widths.iter().product()
    }

    /// Total number of speculated nodes produced by the schedule
    /// (Σ over steps of the cumulative product up to that step).
    pub fn node_count(&self) -> usize {
        let mut frontier = 1usize;
        let mut total = 0usize;
        for &k in &self.widths {
            frontier *= k;
            total += frontier;
        }
        total
    }
}

impl std::fmt::Display for ExpansionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, k) in self.widths.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_3_example_counts() {
        // ⟨2,2,1⟩ from Figure 3: 2 + 4 + 4 = 10 speculated nodes? The
        // figure shows 2 then 4 then 4 nodes below the root.
        let cfg = ExpansionConfig::new(vec![2, 2, 1]);
        assert_eq!(cfg.leaf_count(), 4);
        assert_eq!(cfg.node_count(), 10);
    }

    #[test]
    fn paper_default_shape() {
        let cfg = ExpansionConfig::paper_default();
        assert_eq!(cfg.depth(), 8);
        assert_eq!(cfg.widths()[2], 3);
        assert_eq!(cfg.leaf_count(), 3);
        // 1 + 1 + 3 + 3*5 more steps of width 1 = 2 + 3*6 = 20
        assert_eq!(cfg.node_count(), 20);
    }

    #[test]
    fn sequence_config_is_linear() {
        let cfg = ExpansionConfig::sequence(5);
        assert_eq!(cfg.leaf_count(), 1);
        assert_eq!(cfg.node_count(), 5);
    }

    #[test]
    fn width_at_third_matches_paper_sweep() {
        let cfg = ExpansionConfig::width_at_third(4);
        assert_eq!(cfg.widths(), &[1, 1, 4, 1, 1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = ExpansionConfig::new(vec![1, 0, 2]);
    }

    #[test]
    fn display_renders_angle_brackets() {
        let cfg = ExpansionConfig::new(vec![1, 2, 3]);
        assert_eq!(cfg.to_string(), "⟨1,2,3⟩");
    }
}
