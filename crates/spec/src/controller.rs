//! The draft shapes a session can plan, and SPIN-style SSM routing for
//! [`InferenceMode::Adaptive`](crate::InferenceMode::Adaptive).
//!
//! SpecInfer's evaluation fixes one expansion configuration per run, and
//! so does every mode here: each lowers to one constant [`DraftShape`]
//! (`engine.rs`). `Adaptive` drafts [`ADAPTIVE_DEPTH`]-long sequences
//! with *one* SSM of a heterogeneous pool per step, and this module picks
//! which: [`SpecController`] keeps a per-SSM EWMA of accepted tokens per
//! unit of draft FLOP and routes to the current best, with a
//! deterministic round-robin probe every twelfth draft so a
//! temporarily-unlucky SSM can win its slot back (PAPERS.md: *SPIN*).
//! The router only routes: like every plan, an adaptive session drafts
//! each step its shape fits, and verification rejects what the LLM
//! disagrees with. Everything here is a pure function of observed step
//! statistics — no clocks, no unseeded entropy — so runs replay
//! bit-for-bit (the determinism lint rule enforces exactly this; see the
//! `adaptive_spec_bad` fixture).

use std::borrow::Cow;

use specinfer_model::ModelConfig;
use specinfer_tokentree::ExpansionConfig;

use crate::dynamic::DynamicExpansionConfig;

/// Depth of the sequence an adaptive session drafts every step: the
/// shape `InferenceMode::Adaptive` lowers to, and the speculation depth
/// the serving layer's simulated clock charges for it.
pub const ADAPTIVE_DEPTH: usize = 4;

/// What one iteration drafts: the constant an `InferenceMode` lowers to.
#[derive(Debug, Clone, PartialEq)]
pub enum DraftShape {
    /// No speculation: one ordinary decode step.
    Incremental,
    /// Best-first dynamic expansion under a node/depth budget (greedy
    /// decode only).
    Dynamic(DynamicExpansionConfig),
    /// A fixed ⟨k₁…k_m⟩ expansion.
    Tree(ExpansionConfig),
}

impl DraftShape {
    /// Worst-case number of speculated nodes this shape can draft
    /// (excluding the re-fed root).
    pub fn node_count(&self) -> usize {
        match self {
            DraftShape::Incremental => 0,
            DraftShape::Dynamic(c) => c.max_nodes,
            DraftShape::Tree(e) => e.node_count(),
        }
    }

    /// KV rows one iteration with this shape appends before compaction
    /// (root + speculated nodes; 1 for incremental).
    pub fn speculation_rows(&self) -> usize {
        self.node_count() + 1
    }

    /// The static ⟨k₁…k_m⟩ schedule of this shape: the tree's own, and
    /// for a best-first budget the chain no deeper than it — what a
    /// garbage-logits draft of it degenerates to. `None` for incremental,
    /// which drafts nothing.
    pub(crate) fn static_expansion(&self) -> Option<Cow<'_, ExpansionConfig>> {
        match self {
            DraftShape::Incremental => None,
            DraftShape::Dynamic(c) => {
                let depth = c.max_depth.clamp(1, c.max_nodes.max(1));
                Some(Cow::Owned(ExpansionConfig::sequence(depth)))
            }
            DraftShape::Tree(e) => Some(Cow::Borrowed(e)),
        }
    }
}

/// EWMA smoothing factor of the per-SSM score (weight of the newest
/// observation).
const EWMA_ALPHA: f32 = 0.4;

/// Every `PROBE_PERIOD`-th draft cycles the pool, even when another SSM
/// scores better.
const PROBE_PERIOD: usize = 12;

/// The payload of [`InferenceMode::Adaptive`](crate::InferenceMode::Adaptive).
/// The router has no settable knob (its constants are private), so this
/// holds nothing; it stays because the frozen benchmark crate
/// (`specbench/`) names `AdaptiveConfig::default()` and
/// [`AdaptiveConfig::admission_rows`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdaptiveConfig {}

impl AdaptiveConfig {
    /// KV rows per iteration an admission controller should charge an
    /// adaptive request: the root plus one [`ADAPTIVE_DEPTH`]-long draft,
    /// whatever the decode rule.
    pub fn admission_rows(&self, _greedy: bool) -> usize {
        ADAPTIVE_DEPTH + 1
    }
}

/// One routing decision: the SSM a session's next draft runs on.
/// Returned by [`SpecController::decide`] and fed back via
/// [`SpecController::observe`] once the step's acceptance is known.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveDecision {
    /// SSM pool index to draft with.
    pub ssm: usize,
    /// Whether this was a periodic probe rather than the best SSM.
    pub probe: bool,
}

/// Aggregated controller telemetry for `ServeReport` histograms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControllerSnapshot {
    /// `[root-only steps, drafted steps]`: a root-only step decoded
    /// incrementally (a fault, a draft that no longer fit).
    pub rung_decisions: Vec<usize>,
    /// Drafts routed per SSM pool index.
    pub ssm_routes: Vec<usize>,
    /// How many drafts were periodic probes.
    pub probes: usize,
}

impl ControllerSnapshot {
    /// Merges another snapshot's counters into this one: histograms are
    /// element-wise sums.
    pub fn absorb(&mut self, other: &ControllerSnapshot) {
        add(&mut self.rung_decisions, &other.rung_decisions);
        add(&mut self.ssm_routes, &other.ssm_routes);
        self.probes += other.probes;
    }
}

/// Element-wise `acc += other`, growing `acc` to `other`'s length.
fn add(acc: &mut Vec<usize>, other: &[usize]) {
    if acc.len() < other.len() {
        acc.resize(other.len(), 0);
    }
    for (a, v) in acc.iter_mut().zip(other) {
        *a += v;
    }
}

/// Relative cost of one draft step on an SSM with config `cfg`, in
/// (approximate) FLOPs: attention/MLP projections per layer plus the
/// unembedding. Used to normalize acceptance into accepted-per-draft-FLOP
/// so a small cheap SSM can beat a slightly-more-accurate expensive one.
pub fn draft_flop_weight(cfg: &ModelConfig) -> f32 {
    let d = cfg.d_model as f32;
    let per_layer = 4.0 * d * d + 3.0 * d * cfg.d_ff as f32;
    cfg.n_layers as f32 * per_layer + d * cfg.vocab_size as f32
}

/// The per-session SSM router.
#[derive(Debug, Clone)]
pub struct SpecController {
    /// Per SSM, the cheapest SSM's draft FLOPs over its own: the factor
    /// that turns accepted tokens into its score.
    ssm_weight: Vec<f32>,
    ssm_score: Vec<f32>,
    counts: ControllerSnapshot,
}

impl SpecController {
    /// Builds a router over one draft-FLOP weight per pool SSM (see
    /// [`draft_flop_weight`]).
    ///
    /// # Panics
    ///
    /// Panics if the SSM pool is empty.
    pub fn new(ssm_flops: Vec<f32>) -> Self {
        assert!(!ssm_flops.is_empty(), "controller needs at least one SSM");
        let n_ssms = ssm_flops.len();
        let min_flop = ssm_flops.iter().fold(f32::INFINITY, |m, &f| m.min(f));
        SpecController {
            ssm_weight: ssm_flops
                .iter()
                .map(|f| min_flop.max(1.0) / f.max(1.0))
                .collect(),
            // Start every SSM at an identical neutral score so the first
            // routing decisions are probe-driven, not init-driven.
            ssm_score: vec![0.0; n_ssms],
            counts: ControllerSnapshot {
                rung_decisions: vec![0; 2],
                ssm_routes: vec![0; n_ssms],
                probes: 0,
            },
        }
    }

    /// Picks the SSM for the next draft: the best scorer, except that
    /// every twelfth draft cycles the pool deterministically.
    pub fn decide(&self) -> AdaptiveDecision {
        let (n, best) = (self.ssm_weight.len(), self.best_ssm());
        // The ordinal of this draft among the session's drafts.
        let draft = self.counts.rung_decisions.get(1).map_or(0, |d| d + 1);
        let ssm = match draft.is_multiple_of(PROBE_PERIOD) {
            true => (draft / PROBE_PERIOD) % n,
            false => best,
        };
        AdaptiveDecision {
            ssm,
            probe: ssm != best,
        }
    }

    /// Feeds back a committed step: the decision its draft ran on, or
    /// `None` for a root-only step, and the speculated tokens that
    /// survived verification.
    pub fn observe(&mut self, decision: Option<&AdaptiveDecision>, accepted: usize) {
        let Some(d) = decision else {
            if let Some(root_only) = self.counts.rung_decisions.first_mut() {
                *root_only += 1;
            }
            return;
        };
        if let Some(drafted) = self.counts.rung_decisions.get_mut(1) {
            *drafted += 1;
        }
        if let Some(routes) = self.counts.ssm_routes.get_mut(d.ssm) {
            *routes += 1;
        }
        self.counts.probes += usize::from(d.probe);
        let score = accepted as f32 * self.ssm_weight.get(d.ssm).copied().unwrap_or(1.0);
        if let Some(slot) = self.ssm_score.get_mut(d.ssm) {
            *slot = EWMA_ALPHA * score + (1.0 - EWMA_ALPHA) * *slot;
        }
    }

    /// Index of the SSM with the best accepted-per-draft-FLOP EWMA
    /// (lowest index wins ties, deterministically).
    fn best_ssm(&self) -> usize {
        let scores = self.ssm_score.iter().enumerate();
        let best = scores.fold(
            (0, f32::NEG_INFINITY),
            |b, (i, &v)| if v > b.1 { (i, v) } else { b },
        );
        best.0
    }

    /// Telemetry snapshot for `ServeReport`.
    pub fn snapshot(&self) -> ControllerSnapshot {
        self.counts.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decides and observes one drafted step accepting `accepted(ssm)`.
    fn draft(c: &mut SpecController, accepted: impl Fn(usize) -> usize) -> AdaptiveDecision {
        let d = c.decide();
        c.observe(Some(&d), accepted(d.ssm));
        d
    }

    #[test]
    fn routes_to_highest_scoring_ssm() {
        let mut c = SpecController::new(vec![1.0e6, 1.0e6, 1.0e6]);
        // Teach it that SSM 2 accepts best. Probe slots cycle the pool
        // every `PROBE_PERIOD` drafts, so each of the 3 SSMs is sampled
        // every 36 drafts — give the EWMA two full probe cycles of SSM 2
        // to overtake the incumbent.
        for _ in 0..150 {
            draft(&mut c, |ssm| if ssm == 2 { 2 } else { 1 });
        }
        let d = c.decide();
        if !d.probe {
            assert_eq!(d.ssm, 2, "non-probe decisions must route to the best SSM");
        }
        let snap = c.snapshot();
        assert!(snap.probes > 0, "multi-SSM pools must be probed");
        assert!(
            snap.ssm_routes[2] > snap.ssm_routes[0],
            "best SSM must win most slots: {:?}",
            snap.ssm_routes
        );
    }

    #[test]
    fn flop_normalization_prefers_cheap_equally_good_ssm() {
        // SSM 0 is 4x cheaper and accepts identically — it must win.
        let mut c = SpecController::new(vec![1.0e6, 4.0e6]);
        for _ in 0..32 {
            draft(&mut c, |_| 1);
        }
        let d = c.decide();
        if !d.probe {
            assert_eq!(d.ssm, 0, "equal acceptance must route to the cheaper SSM");
        }
    }

    #[test]
    fn the_probe_cycles_the_pool_every_twelfth_draft() {
        // SSM 0 accepts something and SSM 1 nothing, so SSM 0 leads; the
        // probe still hands SSM 1 every second twelfth draft.
        let mut c = SpecController::new(vec![1.0e6; 2]);
        for ordinal in 1..=48 {
            let d = draft(&mut c, |ssm| usize::from(ssm == 0));
            let want = match ordinal % PROBE_PERIOD {
                0 => (ordinal / PROBE_PERIOD) % 2,
                _ => 0,
            };
            assert_eq!(d.ssm, want, "draft {ordinal}");
            assert_eq!(d.probe, want != 0, "draft {ordinal}");
        }
        assert_eq!(c.snapshot().ssm_routes, vec![46, 2]);
    }

    #[test]
    fn counts_root_only_and_drafted_steps() {
        let mut c = SpecController::new(vec![1.0e6; 2]);
        for step in 0..30 {
            if step % 3 == 0 {
                c.observe(None, 0);
            } else {
                draft(&mut c, |_| 1);
            }
        }
        let snap = c.snapshot();
        assert_eq!(snap.rung_decisions, vec![10, 20]);
        assert_eq!(snap.ssm_routes.iter().sum::<usize>(), 20);
    }

    #[test]
    fn snapshot_absorb_sums_histograms() {
        let mut a = ControllerSnapshot {
            rung_decisions: vec![1, 2],
            ssm_routes: vec![3],
            probes: 1,
        };
        let b = ControllerSnapshot {
            rung_decisions: vec![0, 1],
            ssm_routes: vec![2, 2],
            probes: 2,
        };
        a.absorb(&b);
        assert_eq!(a.rung_decisions, vec![1, 3]);
        assert_eq!(a.ssm_routes, vec![5, 2]);
        assert_eq!(a.probes, 3);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut c = SpecController::new(vec![1.0e6; 3]);
            let trace: Vec<_> = (0..40usize).map(|i| draft(&mut c, |_| i % 3)).collect();
            (trace, c.snapshot())
        };
        assert_eq!(run(), run(), "controller must be a pure function of inputs");
    }
}
