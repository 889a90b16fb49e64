//! End-to-end benchmark of the privmdr production path.
//!
//! One run drives one named workload from a seed through the public
//! functions of every layer — plan → client → wire → cursor/server →
//! stream → snapshot → registry → served — checks the answers against
//! references and ground truth, and reports the end-to-end metrics
//! (untraced) or the per-layer metrics and self times (traced). See
//! `README.md` next to this crate for the workloads and the metric map.

pub mod pipeline;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

/// The end-to-end metrics the result line carries on an untraced run,
/// with their units (the `end_to_end` list of `BENCHMARK.json`). The
/// report lines before it also print `epoch_lag_ms_p90`,
/// `backlog_ms_end` and `failed_ratio`, which are too noisy or too often
/// zero to gate on.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("client_reports_per_s", "1/s"),
    ("ingest_reports_per_s", "1/s"),
    ("epoch_lag_ms_p50", "ms"),
    ("queries_per_s", "1/s"),
    ("frame_latency_ms_p50", "ms"),
    ("frame_latency_ms_p99", "ms"),
    ("answer_mae", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// The layers spans are recorded for: the repository module each call
/// enters, plus `bench` for the harness itself.
pub const LAYERS: &[&str] = &[
    "bench",
    "protocol.client",
    "protocol.wire",
    "protocol.server",
    "protocol.stream",
    "core.snapshot",
    "protocol.registry",
    "protocol.served",
    "protocol.serve",
    "core.pair_model",
    "util.par",
];

/// Named metric values with units.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Facts about the host every result must carry, so figures from
/// different machines or kernel backends are never compared.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs available to this process.
    pub nproc: usize,
    /// The runtime-selected SIMD backend of the hash and estimator kernels.
    pub kernel_backend: &'static str,
}

impl Host {
    /// Reads the facts of this host.
    pub fn detect() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            kernel_backend: privmdr_util::hash::kernel_backend().name(),
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed, with reasons.
    pub checks: pipeline::Checks,
    /// End-to-end metrics (every one the workload measured; the result
    /// line picks [`END_TO_END`]).
    pub e2e: Metrics,
    /// On a traced run: the end-to-end metrics of its untraced half.
    pub e2e_untraced: Metrics,
    /// Per-layer metrics of a traced run, self times included.
    pub layers: Metrics,
    /// Counts that must repeat exactly for a given seed.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer self-time table of a traced run, one line per layer.
    pub self_table: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }
}
