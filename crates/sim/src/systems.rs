//! Baseline serving-system profiles.
//!
//! The paper compares against vLLM, HuggingFace TGI, FasterTransformer
//! and FlexGen, and observes that "SpecInfer with incremental decoding
//! achieves on-par performance as existing systems" because all share
//! the same parallelization and kernel libraries. The profiles below
//! therefore differ only in small constant factors (scheduler overhead
//! per iteration and a kernel-efficiency derate) — calibration constants,
//! documented here, not fitted to the paper's outputs.

/// A serving system's constant overheads on top of the roofline model.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemProfile {
    /// System name as used in the paper's legends.
    pub name: String,
    /// Fixed scheduler/runtime overhead per decoding iteration, seconds.
    pub step_overhead_s: f64,
    /// Multiplier on the modelled step time (kernel-stack efficiency;
    /// 1.0 = exactly the roofline model).
    pub step_multiplier: f64,
}

impl SystemProfile {
    /// vLLM (PagedAttention serving engine).
    pub fn vllm() -> Self {
        SystemProfile {
            name: "vLLM".into(),
            step_overhead_s: 0.7e-3,
            step_multiplier: 1.00,
        }
    }

    /// HuggingFace Text Generation Inference — Python-side scheduling
    /// adds a bit more per-iteration overhead.
    pub fn tgi() -> Self {
        SystemProfile {
            name: "HuggingFace TGI".into(),
            step_overhead_s: 1.8e-3,
            step_multiplier: 1.06,
        }
    }

    /// NVIDIA FasterTransformer — the leanest kernel stack.
    pub fn faster_transformer() -> Self {
        SystemProfile {
            name: "FasterTransformer".into(),
            step_overhead_s: 0.4e-3,
            step_multiplier: 0.98,
        }
    }

    /// SpecInfer's own runtime (FlexFlow-based).
    pub fn specinfer() -> Self {
        SystemProfile {
            name: "SpecInfer".into(),
            step_overhead_s: 0.5e-3,
            step_multiplier: 1.00,
        }
    }

    /// FlexGen (offloading baseline).
    pub fn flexgen() -> Self {
        SystemProfile {
            name: "FlexGen".into(),
            step_overhead_s: 2.0e-3,
            step_multiplier: 1.05,
        }
    }

    /// Applies the profile to a modelled step latency.
    pub fn apply(&self, modelled_step_s: f64) -> f64 {
        modelled_step_s * self.step_multiplier + self.step_overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_stay_on_par() {
        // All incremental-decoding baselines must land within ~15% of each
        // other on a 25 ms step — the paper's "on-par" observation.
        let step = 0.025;
        let times: Vec<f64> = [
            SystemProfile::vllm(),
            SystemProfile::tgi(),
            SystemProfile::faster_transformer(),
            SystemProfile::specinfer(),
        ]
        .iter()
        .map(|p| p.apply(step))
        .collect();
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.15, "{times:?}");
    }

    #[test]
    fn overhead_is_additive() {
        let p = SystemProfile::vllm();
        assert!((p.apply(0.0) - 0.7e-3).abs() < 1e-9);
    }
}
