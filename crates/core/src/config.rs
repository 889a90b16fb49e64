//! Shared mechanism configuration.

use privmdr_grid::consistency::PostProcessConfig;
use privmdr_grid::guideline::{Granularities, GuidelineParams};
use privmdr_oracles::{OraclePolicy, SimMode};

/// Which grid-based estimation approach builds and answers the model —
/// the serving-side counterpart of picking [`crate::Tdg`] vs [`crate::Hdg`]
/// (paper §4): TDG keeps only the `(d choose 2)` 2-D grids and assumes
/// uniformity inside cells; HDG adds the `d` finer 1-D grids and fuses
/// them through Algorithm 1. The discriminant travels with snapshots and
/// wire frames so one serving engine can host either approach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApproachKind {
    /// Hybrid-Dimensional Grids — 1-D + 2-D grids (the paper's headline).
    #[default]
    Hdg,
    /// Two-Dimensional Grids — 2-D grids only.
    Tdg,
    /// Multi-dimensional Square Wave (§3.5 baseline) — `d` full-resolution
    /// 1-D marginals, multi-dimensional answers as products of 1-D range
    /// masses (attribute independence assumed).
    Msw,
}

impl ApproachKind {
    /// Short lowercase name (CLI/JSON/wire-facing).
    pub fn name(self) -> &'static str {
        match self {
            ApproachKind::Hdg => "hdg",
            ApproachKind::Tdg => "tdg",
            ApproachKind::Msw => "msw",
        }
    }

    /// Parses a CLI-style name (`hdg`, `tdg`, `msw`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "hdg" => Ok(ApproachKind::Hdg),
            "tdg" => Ok(ApproachKind::Tdg),
            "msw" => Ok(ApproachKind::Msw),
            other => Err(format!("unknown approach '{other}' (expected hdg|tdg|msw)")),
        }
    }
}

impl std::fmt::Display for ApproachKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which λ>2 estimator to use (paper §4.4 vs Appendix A.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// Algorithm 2: Weighted Update — the paper's choice (faster, equally
    /// accurate).
    #[default]
    WeightedUpdate,
    /// Maximum-entropy iterative scaling over all 2^λ cells with the four
    /// per-pair constraints (Appendix A.8).
    MaxEntropy,
}

/// Configuration shared by all mechanisms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechanismConfig {
    /// Exact per-user protocol vs fast aggregate sampling (see
    /// `privmdr-oracles`). HIO always runs exact.
    pub sim_mode: SimMode,
    /// Phase-2 post-processing; disable for the ITDG/IHDG ablations.
    pub post_process: PostProcessConfig,
    /// Granularity guideline constants (α1, α2, σ).
    pub guideline: GuidelineParams,
    /// Overrides the guideline with fixed `(g1, g2)` (Figs. 7 and 16 sweep
    /// all combinations).
    pub granularity_override: Option<Granularities>,
    /// Hierarchy branching factor for HIO/LHIO (the paper sets `b = 4`).
    pub branching: usize,
    /// Convergence threshold of Algorithm 1 (response matrix); the paper
    /// uses any value below `1/n`.
    pub rm_threshold: f64,
    /// Sweep cap for Algorithm 1 (the paper's Appendix A.1 uses 100). It
    /// binds on real collections whether or not post-processing is on:
    /// Phase-2 output is consistent only up to its own residual, so the
    /// per-sweep change settles well above `rm_threshold` and every pair
    /// runs all `rm_max_iters` sweeps. The cap has a floor of one sweep:
    /// `0`, which snapshot validation accepts, runs one sweep like `1`.
    pub rm_max_iters: usize,
    /// Convergence threshold of Algorithm 2 (λ-D estimation).
    pub est_threshold: f64,
    /// Iteration cap for Algorithm 2.
    pub est_max_iters: usize,
    /// λ>2 estimator selection.
    pub estimator: EstimatorKind,
    /// EMS smoothing for the Square Wave EM reconstruction (MSW).
    pub sw_smoothing: bool,
    /// Which grid approach the collection finalizes into (TDG vs HDG).
    pub approach: ApproachKind,
    /// Frequency-oracle policy applied per report group (the paper's grids
    /// pin OLH; `Auto` applies the §2.2 variance rule per group domain).
    pub oracle: OraclePolicy,
}

impl Default for MechanismConfig {
    fn default() -> Self {
        MechanismConfig {
            sim_mode: SimMode::Fast,
            post_process: PostProcessConfig::default(),
            guideline: GuidelineParams::default(),
            granularity_override: None,
            branching: 4,
            rm_threshold: 1e-7,
            rm_max_iters: 100,
            est_threshold: 1e-7,
            est_max_iters: 100,
            estimator: EstimatorKind::WeightedUpdate,
            sw_smoothing: false,
            approach: ApproachKind::Hdg,
            oracle: OraclePolicy::Olh,
        }
    }
}

impl MechanismConfig {
    /// Exact per-user protocol variant (tests, small-scale validation).
    pub fn exact() -> Self {
        MechanismConfig {
            sim_mode: SimMode::Exact,
            ..Default::default()
        }
    }

    /// The ITDG/IHDG ablation: Phase 2 disabled (Appendix A.1). Algorithm
    /// 1/2 then run on possibly-negative inputs, capped at 100 iterations
    /// exactly as the appendix prescribes.
    pub fn without_post_process(mut self) -> Self {
        self.post_process.enabled = false;
        self
    }

    /// Fixes the grid granularities instead of using the guideline.
    pub fn with_granularities(mut self, g1: usize, g2: usize) -> Self {
        self.granularity_override = Some(Granularities { g1, g2 });
        self
    }

    /// Overrides the 1-D user fraction σ = n1/n (Fig. 15).
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.guideline.sigma = Some(sigma);
        self
    }

    /// Selects the estimation approach the collection finalizes into.
    pub fn with_approach(mut self, approach: ApproachKind) -> Self {
        self.approach = approach;
        self
    }

    /// Selects the per-group frequency-oracle policy.
    pub fn with_oracle(mut self, oracle: OraclePolicy) -> Self {
        self.oracle = oracle;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = MechanismConfig::default();
        assert_eq!(cfg.branching, 4);
        assert_eq!(cfg.guideline.alpha1, 0.7);
        assert_eq!(cfg.guideline.alpha2, 0.03);
        assert!(cfg.post_process.enabled);
        assert_eq!(cfg.estimator, EstimatorKind::WeightedUpdate);
    }

    #[test]
    fn builders_compose() {
        let cfg = MechanismConfig::default()
            .without_post_process()
            .with_granularities(16, 4)
            .with_sigma(0.3);
        assert!(!cfg.post_process.enabled);
        assert_eq!(
            cfg.granularity_override,
            Some(Granularities { g1: 16, g2: 4 })
        );
        assert_eq!(cfg.guideline.sigma, Some(0.3));
    }
}
