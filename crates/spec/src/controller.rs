//! Online per-request speculation controller (ROADMAP item 3).
//!
//! SpecInfer's evaluation fixes one expansion config for a whole run, and
//! its future-work section names learned/adaptive tree expansion as an
//! open problem: a shape that pays off on an easy, predictable stretch of
//! a request wastes verify rows on a hard one, and vice versa. This
//! module closes the loop per request: each session tracks an EWMA of its
//! accepted-prefix length and of chosen-branch *survival* (accepted
//! tokens relative to the depth the draft offered), and every iteration
//! picks the next draft shape from a ladder
//!
//! ```text
//! incremental ⇄ sequence(2) ⇄ sequence(4) ⇄ dynamic(small) ⇄ dynamic(paper) ⇄ paper_default
//! ```
//!
//! climbing only after `hysteresis` consecutive high-survival steps and
//! descending after the same number of low-survival ones, so a single
//! lucky (or unlucky) step never flips the shape. On the stochastic
//! ladder the best-first dynamic rungs are replaced by sampled static
//! trees: multi-step speculative sampling's exactness guarantee
//! (Theorem 4.2) requires draft tokens *sampled* from the SSM
//! distribution, which deterministic best-first expansion does not do.
//!
//! The controller also routes each draft to one SSM from the
//! heterogeneous pool, SPIN-style: it keeps a per-SSM EWMA of accepted
//! tokens per unit of draft FLOP and picks the current best, with a
//! deterministic round-robin probe every `probe_period`-th speculative
//! step so a temporarily-unlucky SSM can win its slot back. Everything
//! here is a pure function of observed step statistics — no clocks, no
//! unseeded entropy — so runs replay bit-for-bit (the determinism lint
//! rule enforces exactly this; see the `adaptive_spec_bad` fixture).
//!
//! [`DraftShape`] is also what the *static* inference modes lower to
//! (`engine.rs`): a session's plan is either one constant shape or this
//! controller, and the same drafter and row count serve both — the
//! controller is simply the only plan whose answer changes.

use std::borrow::Cow;

use specinfer_model::ModelConfig;
use specinfer_tokentree::ExpansionConfig;

use crate::dynamic::DynamicExpansionConfig;

/// What one iteration drafts: a rung of the speculation ladder, or the
/// constant a static `InferenceMode` lowers to.
#[derive(Debug, Clone, PartialEq)]
pub enum DraftShape {
    /// No speculation: one ordinary decode step.
    Incremental,
    /// A single sampled/greedy chain of `m` tokens (`ExpansionConfig::sequence`).
    Sequence(usize),
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
            DraftShape::Sequence(m) => *m,
            DraftShape::Dynamic(c) => c.max_nodes,
            DraftShape::Tree(e) => e.node_count(),
        }
    }

    /// Deepest accepted prefix this shape can offer — the denominator of
    /// the survival statistic.
    pub fn offered_depth(&self) -> usize {
        match self {
            DraftShape::Incremental => 0,
            DraftShape::Sequence(m) => *m,
            DraftShape::Dynamic(c) => c.max_depth,
            DraftShape::Tree(e) => e.depth(),
        }
    }

    /// KV rows one iteration with this shape appends before compaction
    /// (root + speculated nodes; 1 for incremental).
    pub fn speculation_rows(&self) -> usize {
        self.node_count() + 1
    }

    /// The static ⟨k₁…k_m⟩ schedule of this shape: the tree's own, a
    /// chain for a sequence, and for a best-first budget the chain no
    /// deeper than it — what a garbage-logits draft of it degenerates to.
    /// `None` for incremental, which drafts nothing.
    pub(crate) fn static_expansion(&self) -> Option<Cow<'_, ExpansionConfig>> {
        let chain = |m| Some(Cow::Owned(ExpansionConfig::sequence(m)));
        match self {
            DraftShape::Incremental => None,
            DraftShape::Sequence(m) => chain(*m),
            DraftShape::Dynamic(c) => chain(c.max_depth.clamp(1, c.max_nodes.max(1))),
            DraftShape::Tree(e) => Some(Cow::Borrowed(e)),
        }
    }
}

/// Tuning constants for the adaptive controller. All fields are plain
/// data so configs replay deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// EWMA smoothing factor for accepted-length / survival / SSM-score
    /// statistics (weight of the newest observation).
    pub ewma_alpha: f32,
    /// Survival fraction at or above which a step counts toward climbing.
    pub up_threshold: f32,
    /// Survival fraction at or below which a step counts toward descending.
    pub down_threshold: f32,
    /// Consecutive qualifying steps required before the rung moves.
    pub hysteresis: usize,
    /// Every `probe_period`-th speculative step round-robins the SSM pool
    /// (and, parked at incremental, retries the first speculative rung).
    pub probe_period: usize,
    /// Ladder rung a fresh session starts on.
    pub initial_rung: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            ewma_alpha: 0.4,
            up_threshold: 0.65,
            down_threshold: 0.2,
            hysteresis: 2,
            probe_period: 12,
            initial_rung: 2,
        }
    }
}

impl AdaptiveConfig {
    /// KV rows per iteration an admission controller should charge a
    /// *fresh* adaptive request: the initial rung's shape cost, before
    /// any acceptance feedback exists. Live requests are charged their
    /// controller's current rung instead
    /// ([`SpecController::current_rows`]).
    pub fn admission_rows(&self, greedy: bool) -> usize {
        // A fresh controller sits on the initial rung whatever its pool.
        SpecController::new(self.clone(), greedy, vec![1.0]).current_rows()
    }
}

/// One controller decision: the shape and SSM a session's next iteration
/// will draft with. Returned by [`SpecController::decide`] and fed back
/// via [`SpecController::observe`] once the step's acceptance is known.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveDecision {
    /// Ladder rung the shape came from.
    pub rung: usize,
    /// The draft shape to use this iteration.
    pub shape: DraftShape,
    /// SSM pool index to draft with (0 when the shape is incremental).
    pub ssm: usize,
    /// Whether this was a periodic probe rather than the greedy choice.
    pub probe: bool,
}

/// Aggregated controller telemetry for `ServeReport` histograms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControllerSnapshot {
    /// Decisions made per ladder rung (index = rung).
    pub rung_decisions: Vec<usize>,
    /// Drafts routed per SSM pool index.
    pub ssm_routes: Vec<usize>,
    /// How many decisions were periodic probes.
    pub probes: usize,
    /// Rung the controller ended on.
    pub final_rung: usize,
    /// Final EWMA of accepted speculated tokens per step.
    pub accept_ewma: f32,
    /// Final EWMA of chosen-branch survival.
    pub survival_ewma: f32,
}

impl ControllerSnapshot {
    /// Merges another snapshot's counters into this one: histograms are
    /// element-wise sums, and the final rung and EWMAs are those of the
    /// side with more decisions (`self` on a tie).
    pub fn absorb(&mut self, other: &ControllerSnapshot) {
        let decisions = |s: &ControllerSnapshot| s.rung_decisions.iter().sum::<usize>();
        if decisions(other) > decisions(self) {
            self.final_rung = other.final_rung;
            self.accept_ewma = other.accept_ewma;
            self.survival_ewma = other.survival_ewma;
        }
        if self.rung_decisions.len() < other.rung_decisions.len() {
            self.rung_decisions.resize(other.rung_decisions.len(), 0);
        }
        for (acc, v) in self.rung_decisions.iter_mut().zip(&other.rung_decisions) {
            *acc += v;
        }
        if self.ssm_routes.len() < other.ssm_routes.len() {
            self.ssm_routes.resize(other.ssm_routes.len(), 0);
        }
        for (acc, v) in self.ssm_routes.iter_mut().zip(&other.ssm_routes) {
            *acc += v;
        }
        self.probes += other.probes;
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

/// The speculation ladder, rung 0 (incremental) to the paper's default
/// schedule. The greedy ladder includes best-first dynamic rungs; the
/// stochastic ladder swaps them for sampled static trees of comparable
/// budget, because MSS exactness (Theorem 4.2) requires draft tokens
/// *sampled* from the SSM distribution, which deterministic best-first
/// expansion does not do.
fn ladder_for(greedy: bool) -> Vec<DraftShape> {
    if greedy {
        vec![
            DraftShape::Incremental,
            DraftShape::Sequence(2),
            DraftShape::Sequence(4),
            DraftShape::Dynamic(DynamicExpansionConfig {
                max_nodes: 10,
                max_depth: 5,
                prob_threshold: 1e-3,
                max_children: 3,
            }),
            DraftShape::Dynamic(DynamicExpansionConfig::default()),
            DraftShape::Tree(ExpansionConfig::paper_default()),
        ]
    } else {
        vec![
            DraftShape::Incremental,
            DraftShape::Sequence(2),
            DraftShape::Sequence(4),
            DraftShape::Tree(ExpansionConfig::new(vec![2, 1, 1, 1])),
            DraftShape::Tree(ExpansionConfig::new(vec![2, 2, 1, 1])),
            DraftShape::Tree(ExpansionConfig::paper_default()),
        ]
    }
}

/// The per-session adaptive speculation controller.
#[derive(Debug, Clone)]
pub struct SpecController {
    cfg: AdaptiveConfig,
    ladder: Vec<DraftShape>,
    rung: usize,
    accept_ewma: f32,
    survival_ewma: f32,
    up_streak: usize,
    down_streak: usize,
    /// Speculative (non-incremental) decisions made so far — drives the
    /// round-robin probe schedule.
    spec_decisions: usize,
    /// Decisions made while parked on the incremental rung — drives the
    /// periodic retry of the first speculative rung.
    parked_decisions: usize,
    ssm_flop: Vec<f32>,
    ssm_score: Vec<f32>,
    rung_decisions: Vec<usize>,
    ssm_routes: Vec<usize>,
    probes: usize,
}

impl SpecController {
    /// Builds a controller for a session decoding greedily or not, with
    /// one draft-FLOP weight per pool SSM (see [`draft_flop_weight`]).
    ///
    /// # Panics
    ///
    /// Panics if the SSM pool is empty.
    pub fn new(cfg: AdaptiveConfig, greedy: bool, ssm_flops: Vec<f32>) -> Self {
        assert!(!ssm_flops.is_empty(), "controller needs at least one SSM");
        let ladder = ladder_for(greedy);
        let rung = cfg.initial_rung.min(ladder.len() - 1);
        let n_ssms = ssm_flops.len();
        let rungs = ladder.len();
        SpecController {
            cfg,
            ladder,
            rung,
            accept_ewma: 0.0,
            survival_ewma: 0.0,
            up_streak: 0,
            down_streak: 0,
            spec_decisions: 0,
            parked_decisions: 0,
            ssm_flop: ssm_flops,
            // Start every SSM at an identical neutral score so the first
            // routing decisions are probe-driven, not init-driven.
            ssm_score: vec![0.0; n_ssms],
            rung_decisions: vec![0; rungs],
            ssm_routes: vec![0; n_ssms],
            probes: 0,
        }
    }

    /// Worst-case speculation rows over the whole ladder — what a
    /// budgeted session must reserve so adaptive shape changes can never
    /// overflow a right-sized KV slab.
    pub fn worst_case_rows(&self) -> usize {
        let mut worst = 1;
        for shape in &self.ladder {
            worst = worst.max(shape.speculation_rows());
        }
        worst
    }

    /// KV rows the *current* rung's shape appends per iteration — the
    /// occupancy cost `admit_budgeted` should charge this request now.
    pub fn current_rows(&self) -> usize {
        self.shape_at(self.rung).speculation_rows()
    }

    fn shape_at(&self, rung: usize) -> &DraftShape {
        match self.ladder.get(rung) {
            Some(s) => s,
            None => unreachable!("rung {rung} outside ladder of {}", self.ladder.len()),
        }
    }

    /// Picks the draft shape and SSM for the next iteration.
    pub fn decide(&mut self) -> AdaptiveDecision {
        let (rung, mut probe) = if self.rung == 0 {
            // Parked at incremental: periodically retry the first
            // speculative rung so a request that turned predictable can
            // climb back out.
            self.parked_decisions += 1;
            if self.parked_decisions.is_multiple_of(self.cfg.probe_period) && self.ladder.len() > 1
            {
                (1, true)
            } else {
                (0, false)
            }
        } else {
            (self.rung, false)
        };
        let shape = self.shape_at(rung).clone();
        let ssm = if matches!(shape, DraftShape::Incremental) {
            0
        } else {
            self.spec_decisions += 1;
            if self.ssm_flop.len() > 1 && self.spec_decisions.is_multiple_of(self.cfg.probe_period)
            {
                // Round-robin probe slot: cycle the pool deterministically.
                let pick = (self.spec_decisions / self.cfg.probe_period) % self.ssm_flop.len();
                probe = probe || pick != self.best_ssm();
                pick
            } else {
                self.best_ssm()
            }
        };
        if probe {
            self.probes += 1;
        }
        if let Some(count) = self.rung_decisions.get_mut(rung) {
            *count += 1;
        }
        if !matches!(shape, DraftShape::Incremental) {
            if let Some(count) = self.ssm_routes.get_mut(ssm) {
                *count += 1;
            }
        }
        AdaptiveDecision {
            rung,
            shape,
            ssm,
            probe,
        }
    }

    /// Feeds back a completed step: `accepted` speculated tokens survived
    /// verification out of the decision's offered depth.
    pub fn observe(&mut self, decision: &AdaptiveDecision, accepted: usize) {
        let offered = decision.shape.offered_depth();
        if offered == 0 {
            // Incremental step: nothing to learn about speculation.
            return;
        }
        let a = self.cfg.ewma_alpha;
        let survival = accepted as f32 / offered as f32;
        self.accept_ewma = a * accepted as f32 + (1.0 - a) * self.accept_ewma;
        self.survival_ewma = a * survival + (1.0 - a) * self.survival_ewma;

        // SPIN-style routing signal: accepted tokens per draft FLOP,
        // normalized so the cheapest SSM's weight is 1.0-ish regardless
        // of absolute scale.
        let flop = self
            .ssm_flop
            .get(decision.ssm)
            .copied()
            .unwrap_or(1.0)
            .max(1.0);
        let min_flop = self
            .ssm_flop
            .iter()
            .fold(f32::INFINITY, |m, &f| m.min(f))
            .max(1.0);
        let score = accepted as f32 * (min_flop / flop);
        if let Some(slot) = self.ssm_score.get_mut(decision.ssm) {
            *slot = a * score + (1.0 - a) * *slot;
        }

        // Rung movement with hysteresis; probe steps still teach the
        // EWMAs (above) but only a probe that *succeeds* moves the rung —
        // a failed probe must not shove a parked controller further down.
        if survival >= self.cfg.up_threshold {
            self.up_streak += 1;
            self.down_streak = 0;
            let at_probe_success = decision.rung > self.rung;
            if at_probe_success || self.up_streak >= self.cfg.hysteresis {
                if self.rung + 1 < self.ladder.len() {
                    self.rung += 1;
                }
                self.up_streak = 0;
            }
        } else if survival <= self.cfg.down_threshold {
            self.up_streak = 0;
            if decision.rung > self.rung {
                // Failed probe from the parked rung: stay parked.
                return;
            }
            self.down_streak += 1;
            if self.down_streak >= self.cfg.hysteresis {
                self.rung = self.rung.saturating_sub(1);
                self.down_streak = 0;
            }
        } else {
            self.up_streak = 0;
            self.down_streak = 0;
        }
    }

    /// Index of the SSM with the best accepted-per-draft-FLOP EWMA
    /// (lowest index wins ties, deterministically).
    fn best_ssm(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.ssm_score.iter().enumerate() {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }

    /// Current ladder rung (for tests and reporting).
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Telemetry snapshot for `ServeReport`.
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            rung_decisions: self.rung_decisions.clone(),
            ssm_routes: self.ssm_routes.clone(),
            probes: self.probes,
            final_rung: self.rung,
            accept_ewma: self.accept_ewma,
            survival_ewma: self.survival_ewma,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(greedy: bool, n_ssms: usize) -> SpecController {
        SpecController::new(AdaptiveConfig::default(), greedy, vec![1.0e6; n_ssms])
    }

    #[test]
    fn climbs_to_top_on_sustained_acceptance() {
        let mut c = controller(true, 1);
        for _ in 0..32 {
            let d = c.decide();
            c.observe(&d, d.shape.offered_depth());
        }
        assert_eq!(c.rung(), 5, "full survival must reach paper_default");
        let d = c.decide();
        assert_eq!(d.shape, DraftShape::Tree(ExpansionConfig::paper_default()));
    }

    #[test]
    fn descends_to_incremental_on_sustained_rejection() {
        let mut c = controller(true, 1);
        for _ in 0..32 {
            let d = c.decide();
            c.observe(&d, 0);
        }
        assert_eq!(c.rung(), 0, "zero survival must park at incremental");
    }

    #[test]
    fn parked_controller_probes_and_recovers() {
        let mut c = controller(true, 1);
        // Park it.
        for _ in 0..16 {
            let d = c.decide();
            c.observe(&d, 0);
        }
        assert_eq!(c.rung(), 0);
        // Now acceptance turns perfect: probes must pull it back up.
        let mut probed = false;
        for _ in 0..64 {
            let d = c.decide();
            probed |= d.probe;
            c.observe(&d, d.shape.offered_depth());
        }
        assert!(probed, "parked controller must issue probes");
        assert!(c.rung() > 0, "successful probes must un-park the rung");
    }

    #[test]
    fn hysteresis_blocks_single_step_flips() {
        let mut c = controller(true, 1);
        let start = c.rung();
        let d = c.decide();
        c.observe(&d, d.shape.offered_depth());
        assert_eq!(c.rung(), start, "one good step must not climb");
        let d = c.decide();
        c.observe(&d, 0);
        let d = c.decide();
        c.observe(&d, d.shape.offered_depth());
        assert_eq!(c.rung(), start, "alternating steps must not move");
    }

    #[test]
    fn routes_to_highest_scoring_ssm() {
        let mut c = SpecController::new(AdaptiveConfig::default(), true, vec![1.0e6, 1.0e6, 1.0e6]);
        // Teach it that SSM 2 accepts best. Probe slots cycle the pool
        // every `probe_period` speculative decisions, so each of the 3
        // SSMs is sampled every 36 steps — give the EWMA two full probe
        // cycles of SSM 2 to overtake the incumbent.
        for _ in 0..150 {
            let d = c.decide();
            let accepted = if d.ssm == 2 { 2 } else { 1 };
            c.observe(&d, accepted);
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
        let mut c = SpecController::new(AdaptiveConfig::default(), true, vec![1.0e6, 4.0e6]);
        for _ in 0..32 {
            let d = c.decide();
            c.observe(&d, 1);
        }
        let d = c.decide();
        if !d.probe {
            assert_eq!(d.ssm, 0, "equal acceptance must route to the cheaper SSM");
        }
    }

    #[test]
    fn stochastic_ladder_has_no_dynamic_rungs() {
        let c = controller(false, 1);
        for shape in &c.ladder {
            assert!(
                !matches!(shape, DraftShape::Dynamic(_)),
                "MSS exactness requires sampled drafts; dynamic rung found"
            );
        }
    }

    #[test]
    fn worst_case_rows_covers_every_rung() {
        for greedy in [true, false] {
            let c = controller(greedy, 1);
            let worst = c.worst_case_rows();
            for shape in &c.ladder {
                assert!(shape.speculation_rows() <= worst);
            }
            assert_eq!(
                worst,
                ExpansionConfig::paper_default().node_count() + 1,
                "ladder tops out at paper_default"
            );
        }
    }

    #[test]
    fn snapshot_absorb_sums_histograms() {
        let mut a = ControllerSnapshot {
            rung_decisions: vec![1, 2],
            ssm_routes: vec![3],
            probes: 1,
            ..ControllerSnapshot::default()
        };
        let b = ControllerSnapshot {
            rung_decisions: vec![0, 1, 5],
            ssm_routes: vec![2, 2],
            probes: 2,
            ..ControllerSnapshot::default()
        };
        a.absorb(&b);
        assert_eq!(a.rung_decisions, vec![1, 3, 5]);
        assert_eq!(a.ssm_routes, vec![5, 2]);
        assert_eq!(a.probes, 3);

        // The final rung and EWMAs come from the side with more
        // decisions: a run's report starts from an empty snapshot.
        let session = ControllerSnapshot {
            rung_decisions: vec![0, 2, 1],
            final_rung: 2,
            accept_ewma: 1.5,
            survival_ewma: 0.75,
            ..ControllerSnapshot::default()
        };
        let mut report = ControllerSnapshot::default();
        report.absorb(&session);
        let last = |s: &ControllerSnapshot| (s.final_rung, s.accept_ewma, s.survival_ewma);
        assert_eq!(last(&report), (2, 1.5, 0.75));
        // A shorter session does not overwrite the longer history.
        report.absorb(&ControllerSnapshot {
            rung_decisions: vec![1],
            ..ControllerSnapshot::default()
        });
        assert_eq!(last(&report), (2, 1.5, 0.75));
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut c = controller(true, 3);
            let mut trace = Vec::new();
            for i in 0..40usize {
                let d = c.decide();
                trace.push((d.rung, d.ssm, d.probe));
                c.observe(&d, i % 3);
            }
            (trace, c.snapshot())
        };
        assert_eq!(run(), run(), "controller must be a pure function of inputs");
    }
}
