//! HDG: Hybrid-Dimensional Grids — the paper's headline contribution (§4).
//!
//! HDG extends TDG with `d` finer-grained 1-D grids (granularity `g1`)
//! alongside the `(d choose 2)` 2-D grids (granularity `g2`), dividing
//! users into `d + (d choose 2)` groups. After Phase-2 post-processing,
//! each pair's three grids `{G(j), G(k), G(j,k)}` are fused into a `c × c`
//! response matrix by Algorithm 1; a 2-D query then takes fully-covered
//! cells from the (lower-variance) 2-D grid and the partially-covered
//! boundary from the response matrix — replacing TDG's uniformity
//! assumption with the 1-D grids' finer distribution information.
//!
//! Response matrices for all `(d choose 2)` pairs are built **eagerly**
//! when the model is constructed (fit or snapshot restore) and stored in
//! an immutable indexed `Vec`, so the answer path is lock-free: a query
//! thread indexes straight into its pair's cache with no mutex, no
//! `Arc` bump, and no cold-pair hiccup. The Algorithm-1 cost lands at
//! publish/restore time — where ingestion already pays milliseconds and a
//! hostile snapshot fails fast before it can serve — instead of on the
//! first unlucky query. Snapshot caps (`crate::snapshot`) bound the total
//! at the same ceiling the lazy cache eventually reached anyway under
//! mixed workloads, which touch every pair.
//!
//! That cost is `(d choose 2) · rm_max_iters` sweeps over `3c²` entries:
//! Phase-2 output is consistent only up to its own residual, so real pairs
//! run every one of the `rm_max_iters` sweeps rather than converging. It is
//! paid once per publish by the grouped kernel
//! (`privmdr_grid::response_matrix::fit_group`), which fits up to four
//! same-shape pairs per pass, one SIMD lane each, over block-compressed
//! matrices. Each sweep replays the exact mass chains over all `3c²`
//! entries; the change chain is replayed only on the last sweep, since a
//! per-block sum certifies "continue" on every earlier one (a pair that
//! converges early instead reruns its pass exactly). The pairs are split into balanced passes of at most four (3
//! pairs make one pass, 10 make passes of 4, 3 and 3), and the passes are
//! fanned out over up to `available_parallelism` threads, one pass per
//! thread at a time; a lone pass (d ≤ 3) runs on the caller. The matrices
//! are allocated on the calling thread and only filled by the workers, so
//! publishes do not grow the workers' per-thread malloc arenas; each
//! participant keeps one kernel scratch for its life, allocated on its
//! first pass. The result is bit-identical to building the pairs one after
//! another.

use crate::config::MechanismConfig;
use crate::pair_model::{PairAnswerer, Rect2d, SplitModel};
use crate::{Mechanism, MechanismError, Model};
use privmdr_data::Dataset;
use privmdr_grid::consistency::post_process;
use privmdr_grid::guideline::{choose_granularities, default_sigma, Granularities};
use privmdr_grid::pairs::{pair_index, pair_list};
use privmdr_grid::response_matrix::{fit_group, PairFit, ResponseMatrix, GROUP_LANES};
use privmdr_grid::{Grid1d, Grid2d, PrefixSum2d};
use privmdr_oracles::partition::{partition_users, proportional_sizes};
use privmdr_util::par::par_for_each_mut;
use privmdr_util::rng::derive_rng;

/// The HDG mechanism.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hdg {
    /// Shared configuration (guideline constants, σ, overrides, mode).
    pub config: MechanismConfig,
}

impl Hdg {
    /// HDG with the given configuration.
    pub fn new(config: MechanismConfig) -> Self {
        Hdg { config }
    }

    /// The granularities HDG would pick for `(n, d, ε, c)`.
    pub fn granularities(&self, n: usize, d: usize, epsilon: f64, c: usize) -> Granularities {
        self.config
            .granularity_override
            .unwrap_or_else(|| choose_granularities(n, d, epsilon, c, &self.config.guideline))
    }
}

/// Per-pair answering state, built eagerly at model construction.
struct PairCache {
    /// Prefix sums over the pair's `g2 × g2` grid frequencies.
    grid_prefix: PrefixSum2d,
    /// Algorithm-1 response matrix with its own prefix table.
    matrix: ResponseMatrix,
}

struct HdgAnswerer {
    d: usize,
    c: usize,
    one_d: Vec<Grid1d>,
    two_d: Vec<Grid2d>,
    /// One [`PairCache`] per pair, indexed by `pair_index` — immutable
    /// after construction, so answering never takes a lock.
    caches: Vec<PairCache>,
}

impl HdgAnswerer {
    /// Runs Algorithm 1 for every pair, in grouped passes fanned out over
    /// up to `available_parallelism` threads, and assembles the lock-free
    /// answerer. Shared by the fit and snapshot-restore paths.
    fn build(
        d: usize,
        c: usize,
        one_d: Vec<Grid1d>,
        two_d: Vec<Grid2d>,
        rm_threshold: f64,
        rm_max_iters: usize,
    ) -> Self {
        // Every buffer the answerer keeps is allocated here, on the
        // calling thread; the workers only fill the matrices in place.
        let mut caches: Vec<PairCache> = two_d
            .iter()
            .map(|grid| {
                let g2 = grid.granularity();
                PairCache {
                    grid_prefix: PrefixSum2d::build(&grid.freqs, g2, g2),
                    matrix: ResponseMatrix::unfitted(c),
                }
            })
            .collect();
        let mut fits: Vec<PairFit<'_>> = caches
            .iter_mut()
            .zip(&two_d)
            .map(|(cache, g_jk)| {
                let (j, k) = g_jk.attrs();
                PairFit {
                    matrix: &mut cache.matrix,
                    g_j: &one_d[j],
                    g_k: &one_d[k],
                    g_jk,
                }
            })
            .collect();
        // Same-shape pairs share passes of up to GROUP_LANES pairs, split
        // as evenly as the pass count allows: 3 pairs make one pass, 10
        // make passes of 4, 3 and 3.
        fits.sort_by_key(PairFit::shape);
        let mut passes: Vec<&mut [PairFit<'_>]> = Vec::new();
        for mut run in fits.chunk_by_mut(|a, b| a.shape() == b.shape()) {
            let count = run.len().div_ceil(GROUP_LANES);
            for left in (1..=count).rev() {
                let (pass, rest) = run.split_at_mut(run.len().div_ceil(left));
                passes.push(pass);
                run = rest;
            }
        }
        // One pass per thread at a time. A lone pass (d ≤ 3) runs on the
        // caller and touches no pool: a first fan-out starts the worker
        // pool, whose threads outlive the call (see `par`), and would make
        // an otherwise single-threaded process multi-threaded for good.
        par_for_each_mut(&mut passes, 1, |_, pass| {
            fit_group(pass, rm_threshold, rm_max_iters);
        });
        HdgAnswerer {
            d,
            c,
            one_d,
            two_d,
            caches,
        }
    }

    /// Phase 3 for one rectangle against an already-fetched pair cache.
    fn answer_2d_cached(
        cache: &PairCache,
        w: usize,
        rect @ ((lo_j, hi_j), (lo_k, hi_k)): Rect2d,
    ) -> f64 {
        // Fully-covered cell block [a0, a1] × [b0, b1] (possibly empty).
        let a0 = lo_j.div_ceil(w);
        let a1 = (hi_j + 1) / w; // exclusive cell end
        let b0 = lo_k.div_ceil(w);
        let b1 = (hi_k + 1) / w;
        if a0 >= a1 || b0 >= b1 {
            // No fully-covered cells: everything comes from the matrix.
            return cache.matrix.rect_sum(rect);
        }
        let grid_part = cache.grid_prefix.rect(a0, a1, b0, b1);
        // Boundary frame = query rect minus the inner value rectangle.
        let inner = ((a0 * w, a1 * w - 1), (b0 * w, b1 * w - 1));
        grid_part + cache.matrix.rect_sum(rect) - cache.matrix.rect_sum(inner)
    }
}

impl PairAnswerer for HdgAnswerer {
    fn domain(&self) -> usize {
        self.c
    }

    /// Phase 3 for a 2-D query: fully-covered cells from the grid,
    /// partially-covered boundary from the response matrix.
    fn answer_2d(&self, (j, k): (usize, usize), rect: Rect2d) -> f64 {
        let pair_idx = pair_index(j, k, self.d);
        let w = self.two_d[pair_idx].cell_width();
        Self::answer_2d_cached(&self.caches[pair_idx], w, rect)
    }

    /// Batch form: the pair's cache and cell width are fetched once for
    /// the whole rectangle group instead of once per rectangle.
    fn answer_2d_batch(&self, (j, k): (usize, usize), rects: &[Rect2d], out: &mut Vec<f64>) {
        let pair_idx = pair_index(j, k, self.d);
        let cache = &self.caches[pair_idx];
        let w = self.two_d[pair_idx].cell_width();
        out.extend(
            rects
                .iter()
                .map(|&rect| Self::answer_2d_cached(cache, w, rect)),
        );
    }

    fn answer_1d(&self, attr: usize, (lo, hi): (usize, usize)) -> f64 {
        // The finer-grained 1-D grid answers single-attribute ranges.
        self.one_d[attr].answer_uniform(lo, hi)
    }
}

/// Checks that `one_d`/`two_d` form a complete grid set: one 1-D grid per
/// attribute in order, one 2-D grid per pair in `pair_list` order, all over
/// one domain. Returns `(d, c)`.
pub(crate) fn validate_grid_set(
    one_d: &[Grid1d],
    two_d: &[Grid2d],
) -> Result<(usize, usize), MechanismError> {
    let d = one_d.len();
    if d < 2 {
        return Err(MechanismError::Invalid(
            "HDG needs at least 2 attributes".into(),
        ));
    }
    let c = one_d[0].domain();
    if one_d
        .iter()
        .enumerate()
        .any(|(t, g)| g.attr() != t || g.domain() != c)
    {
        return Err(MechanismError::Invalid(
            "1-D grids must cover attributes 0..d in order over one domain".into(),
        ));
    }
    let expected = pair_list(d);
    if two_d.len() != expected.len()
        || two_d
            .iter()
            .zip(&expected)
            .any(|(g, &p)| g.attrs() != p || g.domain() != c)
    {
        return Err(MechanismError::Invalid(
            "2-D grids must cover all pairs in pair_list order over one domain".into(),
        ));
    }
    Ok((d, c))
}

impl Hdg {
    /// Builds an HDG model from externally collected raw grids (e.g. a real
    /// client/server deployment feeding reports through
    /// `privmdr-protocol`). Applies Phase-2 post-processing per the
    /// configuration, then wraps the answering machinery.
    ///
    /// Requires one 1-D grid per attribute (in attribute order) and one 2-D
    /// grid per pair in `pair_list` order, all over the same domain.
    pub fn model_from_grids(
        &self,
        one_d: Vec<Grid1d>,
        two_d: Vec<Grid2d>,
    ) -> Result<Box<dyn Model>, MechanismError> {
        let (one_d, two_d) = self.post_process_grids(one_d, two_d)?;
        self.model_from_processed_grids(one_d, two_d)
    }

    /// Validates a raw grid set and runs Phase-2 post-processing on it.
    pub(crate) fn post_process_grids(
        &self,
        one_d: Vec<Grid1d>,
        mut two_d: Vec<Grid2d>,
    ) -> Result<(Vec<Grid1d>, Vec<Grid2d>), MechanismError> {
        let (d, _) = validate_grid_set(&one_d, &two_d)?;
        let mut one_d_opt: Vec<Option<Grid1d>> = one_d.into_iter().map(Some).collect();
        post_process(d, &mut one_d_opt, &mut two_d, &self.config.post_process);
        let one_d: Vec<Grid1d> = one_d_opt
            .into_iter()
            .map(|g| g.expect("all present"))
            .collect();
        Ok((one_d, two_d))
    }

    /// Builds an HDG model from grids that are **already** post-processed —
    /// the snapshot-restore path (`crate::snapshot`). Phase 2 is not
    /// idempotent, so restoring a finalized fit must skip it; this
    /// constructor wraps the answering machinery around the grids verbatim.
    pub fn model_from_processed_grids(
        &self,
        one_d: Vec<Grid1d>,
        two_d: Vec<Grid2d>,
    ) -> Result<Box<dyn Model>, MechanismError> {
        let (d, c) = validate_grid_set(&one_d, &two_d)?;
        Ok(Box::new(SplitModel::new(
            HdgAnswerer::build(
                d,
                c,
                one_d,
                two_d,
                self.config.rm_threshold,
                self.config.rm_max_iters,
            ),
            &self.config,
        )))
    }
}

impl Mechanism for Hdg {
    fn name(&self) -> &'static str {
        "HDG"
    }

    fn fit(&self, ds: &Dataset, epsilon: f64, seed: u64) -> Result<Box<dyn Model>, MechanismError> {
        let (d, c) = (ds.dims(), ds.domain());
        let (one_d, two_d) = fit_hdg_grids(ds, epsilon, seed, &self.config)?;
        Ok(Box::new(SplitModel::new(
            HdgAnswerer::build(
                d,
                c,
                one_d,
                two_d,
                self.config.rm_threshold,
                self.config.rm_max_iters,
            ),
            &self.config,
        )))
    }
}

/// Runs HDG Phases 1–2 and returns the post-processed grids.
///
/// Exposed separately so the Fig. 17 convergence experiment (and any other
/// diagnostic) can inspect the exact grids HDG feeds into Algorithm 1.
pub fn fit_hdg_grids(
    ds: &Dataset,
    epsilon: f64,
    seed: u64,
    config: &MechanismConfig,
) -> Result<(Vec<Grid1d>, Vec<Grid2d>), MechanismError> {
    let (n, d, c) = (ds.len(), ds.dims(), ds.domain());
    if d < 2 {
        return Err(MechanismError::Invalid(
            "HDG needs at least 2 attributes".into(),
        ));
    }
    let hdg = Hdg::new(*config);
    let Granularities { g1, g2 } = hdg.granularities(n, d, epsilon, c);
    let pairs = pair_list(d);
    let m2 = pairs.len();

    // Split users: fraction σ to the d 1-D groups, the rest to the
    // (d choose 2) 2-D groups, equal populations within each class.
    let sigma = config
        .guideline
        .sigma
        .unwrap_or_else(|| default_sigma(d))
        .clamp(0.0, 1.0);
    let mut weights = vec![sigma / d as f64; d];
    weights.extend(std::iter::repeat_n((1.0 - sigma) / m2 as f64, m2));
    let mut rng = derive_rng(seed, &[0x48_4447]); // "HDG"
    let groups = partition_users(n, &proportional_sizes(n, &weights), &mut rng);

    let mut one_d: Vec<Grid1d> = Vec::with_capacity(d);
    for (t, users) in groups[..d].iter().enumerate() {
        let values = ds.gather_attr(t, users);
        one_d.push(Grid1d::collect_with(
            t,
            g1,
            c,
            &values,
            epsilon,
            config.oracle,
            config.sim_mode,
            &mut rng,
        )?);
    }
    let mut two_d: Vec<Grid2d> = Vec::with_capacity(m2);
    for (&pair, users) in pairs.iter().zip(&groups[d..]) {
        let values = ds.gather_pair(pair, users);
        two_d.push(Grid2d::collect_with(
            pair,
            g2,
            c,
            &values,
            epsilon,
            config.oracle,
            config.sim_mode,
            &mut rng,
        )?);
    }

    // Phase 2.
    let mut one_d_opt: Vec<Option<Grid1d>> = one_d.into_iter().map(Some).collect();
    post_process(d, &mut one_d_opt, &mut two_d, &config.post_process);
    let one_d: Vec<Grid1d> = one_d_opt
        .into_iter()
        .map(|g| g.expect("all 1-D grids present"))
        .collect();
    Ok((one_d, two_d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmdr_data::DatasetSpec;
    use privmdr_query::workload::{true_answers, WorkloadBuilder};
    use privmdr_query::RangeQuery;

    #[test]
    fn hdg_answers_2d_queries_well() {
        let ds = DatasetSpec::Normal { rho: 0.8 }.generate(100_000, 4, 64, 23);
        let model = Hdg::default().fit(&ds, 1.0, 21).unwrap();
        let wl = WorkloadBuilder::new(4, 64, 22);
        let queries = wl.random(2, 0.5, 40);
        let truths = true_answers(&ds, &queries);
        let estimates = model.answer_all(&queries);
        let mae = privmdr_query::mae(&estimates, &truths);
        assert!(mae < 0.06, "MAE {mae}");
    }

    #[test]
    fn hdg_beats_tdg_on_skewed_data() {
        // The headline claim: 1-D grids correct the uniformity assumption.
        // Averaged over repeats to make the comparison stable.
        use crate::tdg::Tdg;
        let ds = DatasetSpec::Ipums.generate(150_000, 4, 64, 24);
        let wl = WorkloadBuilder::new(4, 64, 23);
        let queries = wl.random(2, 0.5, 50);
        let truths = true_answers(&ds, &queries);
        let (mut hdg_mae, mut tdg_mae) = (0.0, 0.0);
        for seed in 0..4 {
            let hdg = Hdg::default().fit(&ds, 1.0, seed).unwrap();
            hdg_mae += privmdr_query::mae(&hdg.answer_all(&queries), &truths);
            let tdg = Tdg::default().fit(&ds, 1.0, seed).unwrap();
            tdg_mae += privmdr_query::mae(&tdg.answer_all(&queries), &truths);
        }
        assert!(
            hdg_mae < tdg_mae,
            "HDG {hdg_mae} should beat TDG {tdg_mae} on skewed data"
        );
    }

    #[test]
    fn full_domain_query_is_near_one() {
        let ds = DatasetSpec::Laplace { rho: 0.8 }.generate(50_000, 3, 32, 25);
        let model = Hdg::default().fit(&ds, 1.0, 22).unwrap();
        let q = RangeQuery::from_triples(&[(0, 0, 31), (1, 0, 31)], 32).unwrap();
        let est = model.answer(&q);
        assert!((est - 1.0).abs() < 0.05, "est {est}");
    }

    #[test]
    fn lambda4_estimation_is_sane() {
        let ds = DatasetSpec::Normal { rho: 0.8 }.generate(100_000, 5, 64, 26);
        let model = Hdg::default().fit(&ds, 1.0, 23).unwrap();
        let wl = WorkloadBuilder::new(5, 64, 24);
        let queries = wl.random(4, 0.5, 20);
        let truths = true_answers(&ds, &queries);
        let estimates = model.answer_all(&queries);
        let mae = privmdr_query::mae(&estimates, &truths);
        // Estimation error dominates lambda = 4 on strongly correlated data
        // (the paper's own Fig. 1f sits near 0.2-0.3 at eps = 1).
        assert!(mae < 0.3, "MAE {mae}");
    }

    #[test]
    fn sigma_override_changes_split() {
        let cfg = MechanismConfig::default().with_sigma(0.6);
        let ds = DatasetSpec::Bfive.generate(20_000, 3, 32, 27);
        // Just exercises the weighted partition path.
        let model = Hdg::new(cfg).fit(&ds, 1.0, 24).unwrap();
        let q = RangeQuery::from_triples(&[(0, 0, 15)], 32).unwrap();
        assert!(model.answer(&q).is_finite());
    }

    #[test]
    fn fanned_out_build_matches_serial_build_bit_for_bit() {
        use privmdr_grid::response_matrix::{
            build_response_matrix, build_response_matrix_reference,
        };
        let c = 64usize;
        let bits =
            |m: &ResponseMatrix| -> Vec<u64> { m.entries().iter().map(|v| v.to_bits()).collect() };
        // 1, 3, 6, 10, 15 and 21 pairs: a lone pair (1-lane pass), one
        // partial pass, and full and partial 4-pair passes. d ≤ 3 is one
        // pass on the caller; d ≥ 4 fans its passes out wherever more than
        // one CPU is available. The last case skips post-processing
        // (IHDG), so raw negative estimates reach Algorithm 1.
        let post_processed = MechanismConfig::default();
        let cases = (2..=7usize)
            .map(|d| (d, post_processed))
            .chain([(4, post_processed.without_post_process())]);
        for (d, cfg) in cases {
            let ds = DatasetSpec::Normal { rho: 0.7 }.generate(60_000, d, c, 40 + d as u64);
            let (one_d, two_d) = fit_hdg_grids(&ds, 1.0, 41, &cfg).unwrap();
            let built = HdgAnswerer::build(
                d,
                c,
                one_d.clone(),
                two_d.clone(),
                cfg.rm_threshold,
                cfg.rm_max_iters,
            );
            assert_eq!(built.caches.len(), two_d.len());
            let label = format!("d={d} post-process {}", cfg.post_process.enabled);
            for (grid, cache) in two_d.iter().zip(&built.caches) {
                let (j, k) = grid.attrs();
                let serial = build_response_matrix(
                    &one_d[j],
                    &one_d[k],
                    grid,
                    cfg.rm_threshold,
                    cfg.rm_max_iters,
                );
                // The rectangle-at-a-time reference is independent of the
                // kernel: these real Phase-2 pairs are cap-bound, so every
                // sweep but the last runs fast and certified.
                let reference = build_response_matrix_reference(
                    &one_d[j],
                    &one_d[k],
                    grid,
                    cfg.rm_threshold,
                    cfg.rm_max_iters,
                    None,
                );
                let fanned = &cache.matrix;
                for (want, name) in [(&serial, "serial"), (&reference, "reference")] {
                    let label = format!("{label} pair ({j},{k}) vs {name}");
                    assert_eq!(bits(fanned), bits(want), "{label}");
                    assert_eq!(fanned.iterations, want.iterations, "{label}");
                    assert_eq!(
                        fanned.final_change.to_bits(),
                        want.final_change.to_bits(),
                        "{label}"
                    );
                }
                for lo in [0, 5, 31] {
                    for hi in [lo, 40, c - 1] {
                        let rect = ((lo, hi), (c - 1 - hi, c - 1 - lo));
                        assert_eq!(
                            fanned.rect_sum(rect).to_bits(),
                            serial.rect_sum(rect).to_bits(),
                            "{label} pair ({j},{k}) rect {rect:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ihdg_ablation_runs_without_post_processing() {
        let cfg = MechanismConfig::default().without_post_process();
        let ds = DatasetSpec::Normal { rho: 0.8 }.generate(30_000, 3, 32, 28);
        let model = Hdg::new(cfg).fit(&ds, 1.0, 25).unwrap();
        let q = RangeQuery::from_triples(&[(0, 0, 15), (1, 0, 15)], 32).unwrap();
        assert!(model.answer(&q).is_finite());
    }
}
