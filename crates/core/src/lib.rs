//! Mechanisms for answering multi-dimensional range queries under LDP.
//!
//! This crate assembles the substrates (`privmdr-oracles`, `privmdr-grid`,
//! `privmdr-hierarchy`) into the seven mechanisms the paper evaluates:
//!
//! | Mechanism | Paper | Module |
//! |-----------|-------|--------|
//! | [`Uni`] — uniform guess benchmark | §5.1 | [`uni`] |
//! | [`Msw`] — Multiplied Square Wave | §3.5 | [`msw`] |
//! | [`Calm`] — 2-D marginals baseline | §3.2 | [`calm`] |
//! | [`HioMechanism`] — d-dim hierarchy | §3.3 | [`hio`] |
//! | [`Lhio`] — low-dimensional HIO | §3.4 | [`lhio`] |
//! | [`Tdg`] — Two-Dimensional Grids | §4 | [`tdg`] |
//! | [`Hdg`] — Hybrid-Dimensional Grids | §4 | [`hdg`] |
//!
//! All mechanisms implement [`Mechanism`]: `fit` consumes a dataset and a
//! privacy budget and returns a [`Model`] that answers [`RangeQuery`]s.
//! Higher-dimensional queries (λ > 2) are estimated from the associated
//! 2-D answers with Algorithm 2 ([`estimation`]).
//!
//! A finalized HDG fit can additionally be captured as a serializable
//! [`ModelSnapshot`] ([`snapshot`]) and rebuilt into a bit-identical
//! answerer without re-running the protocol — the artifact query-serving
//! deployments ship around (see `privmdr-protocol`).

pub mod calm;
pub mod config;
pub mod estimation;
pub mod hdg;
pub mod hio;
pub mod lhio;
pub mod msw;
pub mod pair_model;
pub mod snapshot;
pub mod tdg;
pub mod uni;

pub use calm::Calm;
pub use config::{ApproachKind, EstimatorKind, MechanismConfig};
pub use hdg::Hdg;
pub use hio::HioMechanism;
pub use lhio::Lhio;
pub use msw::Msw;
pub use snapshot::ModelSnapshot;
pub use tdg::Tdg;
pub use uni::Uni;

use privmdr_data::Dataset;
use privmdr_query::RangeQuery;

/// Errors surfaced when fitting a mechanism.
#[derive(Debug)]
pub enum MechanismError {
    /// Grid construction failed (bad granularity/domain).
    Grid(privmdr_grid::GridError),
    /// Oracle construction failed (bad epsilon/domain).
    Oracle(privmdr_oracles::OracleError),
    /// Hierarchy construction failed.
    Hierarchy(privmdr_hierarchy::HierarchyError),
    /// Dataset/parameter combination is unusable for this mechanism.
    Invalid(String),
}

impl std::fmt::Display for MechanismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismError::Grid(e) => write!(f, "grid: {e}"),
            MechanismError::Oracle(e) => write!(f, "oracle: {e}"),
            MechanismError::Hierarchy(e) => write!(f, "hierarchy: {e}"),
            MechanismError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for MechanismError {}

impl From<privmdr_grid::GridError> for MechanismError {
    fn from(e: privmdr_grid::GridError) -> Self {
        MechanismError::Grid(e)
    }
}

impl From<privmdr_oracles::OracleError> for MechanismError {
    fn from(e: privmdr_oracles::OracleError) -> Self {
        MechanismError::Oracle(e)
    }
}

impl From<privmdr_hierarchy::HierarchyError> for MechanismError {
    fn from(e: privmdr_hierarchy::HierarchyError) -> Self {
        MechanismError::Hierarchy(e)
    }
}

/// A snapshot of a model's estimator counters: how many queries were
/// answered per λ, how many Weighted-Update sweeps (Algorithm 2
/// iterations) they cost in total, and how many of those runs stopped on
/// the sweep cap instead of converging. Serving benchmarks record this
/// next to queries/sec so throughput figures are comparable across
/// workload mixes — a λ=3-heavy workload legitimately runs orders of
/// magnitude more estimator work per query than a 1-D one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EstimatorTelemetry {
    /// `(lambda, queries answered)` pairs, ascending λ, zero counts
    /// omitted.
    pub lambda_counts: Vec<(usize, u64)>,
    /// Total Weighted-Update sweeps executed across all λ ≥ 3 answers.
    pub wu_sweeps: u64,
    /// Weighted-Update runs that stopped on `est_max_iters` while the last
    /// sweep's change was still `>= est_threshold`: answers that had not
    /// converged.
    pub wu_cap_hits: u64,
}

/// A fitted mechanism: answers arbitrary range queries without further
/// access to raw data (everything private happened during `fit`).
pub trait Model: Send + Sync {
    /// Estimated fraction of users matching the query.
    fn answer(&self, query: &RangeQuery) -> f64;

    /// Answers a whole workload (hook for batch optimizations).
    fn answer_all(&self, queries: &[RangeQuery]) -> Vec<f64> {
        queries.iter().map(|q| self.answer(q)).collect()
    }

    /// Cumulative estimator telemetry since the model was built; `None`
    /// for models without a λ-estimation stage (e.g. MSW's closed-form
    /// product answers).
    fn estimator_telemetry(&self) -> Option<EstimatorTelemetry> {
        None
    }
}

/// An LDP mechanism for multi-dimensional range queries.
pub trait Mechanism {
    /// Short name matching the paper's figure legends.
    fn name(&self) -> &'static str;

    /// Runs the private collection protocol on `ds` at privacy budget
    /// `epsilon` and returns the fitted model. All randomness (grouping,
    /// perturbation) derives from `seed`.
    fn fit(&self, ds: &Dataset, epsilon: f64, seed: u64) -> Result<Box<dyn Model>, MechanismError>;
}
