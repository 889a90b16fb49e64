//! Shared query-answering shell for pairwise mechanisms.
//!
//! CALM, LHIO, TDG and HDG all expose the same interface after fitting:
//! they can answer any 1-D or 2-D range query directly, and λ > 2 queries
//! are estimated from the `(λ choose 2)` associated 2-D answers (paper
//! §4.4). [`SplitModel`] implements that protocol once over anything that
//! provides the two primitive answers.

use crate::config::{EstimatorKind, MechanismConfig};
use crate::estimation::{max_entropy, weighted_update_batch, weighted_update_observed, PairAnswer};
use crate::{EstimatorTelemetry, Model};
use privmdr_query::RangeQuery;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// λ values above this collapse into the last telemetry bucket (queries
/// can in principle carry as many predicates as the model has attributes,
/// but the estimator itself caps at 20 — see `estimation`).
const TELEMETRY_LAMBDA_CAP: usize = 64;

/// A 2-D range rectangle: the two attributes' inclusive index intervals,
/// `((lo_j, hi_j), (lo_k, hi_k))`.
pub type Rect2d = ((usize, usize), (usize, usize));

/// The two primitive answers a pairwise mechanism provides.
pub trait PairAnswerer: Send + Sync {
    /// Attribute domain size `c`.
    fn domain(&self) -> usize;

    /// Answer of the 2-D range query `rect` over the ordered pair `(j, k)`.
    fn answer_2d(&self, pair: (usize, usize), rect: Rect2d) -> f64;

    /// Answers many rectangles over the same attribute pair at once (the
    /// batch planner groups requests per pair exactly so implementations
    /// can hoist the per-pair lookup — response matrix, prefix sums — out
    /// of the loop). Must equal mapping [`PairAnswerer::answer_2d`], which
    /// is the default.
    fn answer_2d_batch(&self, pair: (usize, usize), rects: &[Rect2d], out: &mut Vec<f64>) {
        out.extend(rects.iter().map(|&rect| self.answer_2d(pair, rect)));
    }

    /// Answer of a 1-D range query on `attr`.
    fn answer_1d(&self, attr: usize, interval: (usize, usize)) -> f64;
}

/// [`Model`] implementation over any [`PairAnswerer`].
pub struct SplitModel<A> {
    answerer: A,
    estimator: EstimatorKind,
    est_threshold: f64,
    est_max_iters: usize,
    /// Per-λ answered-query counters (relaxed atomics: counters only, no
    /// ordering dependencies) plus total Weighted-Update sweeps and cap
    /// hits. Batches count locally and add once per batch, so concurrent
    /// shards touch the shared counters a few times per batch, not once
    /// per query.
    lambda_counts: Vec<AtomicU64>,
    wu_sweeps: AtomicU64,
    wu_cap_hits: AtomicU64,
}

impl<A: PairAnswerer> SplitModel<A> {
    /// Wraps a fitted pairwise answerer with the λ>2 estimation settings.
    pub fn new(answerer: A, cfg: &MechanismConfig) -> Self {
        SplitModel {
            answerer,
            estimator: cfg.estimator,
            est_threshold: cfg.est_threshold,
            est_max_iters: cfg.est_max_iters,
            lambda_counts: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(TELEMETRY_LAMBDA_CAP + 1)
                .collect(),
            wu_sweeps: AtomicU64::new(0),
            wu_cap_hits: AtomicU64::new(0),
        }
    }

    /// Records one answered query of the given λ.
    fn count_lambda(&self, lambda: usize) {
        self.lambda_counts[lambda.min(TELEMETRY_LAMBDA_CAP)].fetch_add(1, Ordering::Relaxed);
    }

    /// Access to the wrapped answerer (tests, diagnostics).
    pub fn inner(&self) -> &A {
        &self.answerer
    }

    /// Collects the `(λ choose 2)` associated 2-D answers of `query`,
    /// clamped to `[0, 1]` as Weighted Update requires non-negative
    /// constraint targets.
    fn pair_answers(&self, query: &RangeQuery) -> Vec<PairAnswer> {
        let preds = query.predicates();
        let mut out = Vec::with_capacity(preds.len() * (preds.len() - 1) / 2);
        for i in 0..preds.len() {
            for j in (i + 1)..preds.len() {
                let (pi, pj) = (preds[i], preds[j]);
                let f = self
                    .answerer
                    .answer_2d((pi.attr, pj.attr), ((pi.lo, pi.hi), (pj.lo, pj.hi)))
                    .clamp(0.0, 1.0);
                out.push(PairAnswer { i, j, f });
            }
        }
        out
    }
}

impl<A: PairAnswerer> Model for SplitModel<A> {
    fn answer(&self, query: &RangeQuery) -> f64 {
        let preds = query.predicates();
        self.count_lambda(preds.len());
        match preds.len() {
            1 => self
                .answerer
                .answer_1d(preds[0].attr, (preds[0].lo, preds[0].hi)),
            2 => self.answerer.answer_2d(
                (preds[0].attr, preds[1].attr),
                ((preds[0].lo, preds[0].hi), (preds[1].lo, preds[1].hi)),
            ),
            lambda => {
                let pairs = self.pair_answers(query);
                match self.estimator {
                    EstimatorKind::WeightedUpdate => {
                        let (mut sweeps, mut change) = (0usize, f64::INFINITY);
                        let mut obs = |s: usize, ch: f64| (sweeps, change) = (s, ch);
                        let z = weighted_update_observed(
                            lambda,
                            &pairs,
                            self.est_threshold,
                            self.est_max_iters,
                            Some(&mut obs),
                        );
                        self.wu_sweeps.fetch_add(sweeps as u64, Ordering::Relaxed);
                        if sweeps == self.est_max_iters.max(1) && change >= self.est_threshold {
                            self.wu_cap_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        z[(1usize << lambda) - 1]
                    }
                    EstimatorKind::MaxEntropy => {
                        let one_d: Vec<f64> = preds
                            .iter()
                            .map(|p| {
                                self.answerer
                                    .answer_1d(p.attr, (p.lo, p.hi))
                                    .clamp(0.0, 1.0)
                            })
                            .collect();
                        let z = max_entropy(
                            lambda,
                            &pairs,
                            &one_d,
                            self.est_threshold,
                            self.est_max_iters,
                        );
                        z[(1usize << lambda) - 1]
                    }
                }
            }
        }
    }

    /// The batch query planner (ISSUE 10 tentpole): answers a whole batch
    /// with the work regrouped by shape instead of query-by-query.
    ///
    /// 1. Every needed 2-D rectangle — the λ=2 query itself, or the
    ///    `(λ choose 2)` associated rectangles of a λ≥3 query — is bucketed
    ///    by attribute pair and answered through
    ///    [`PairAnswerer::answer_2d_batch`], so per-pair state (response
    ///    matrix, prefix sums) is fetched once per pair instead of once
    ///    per rectangle.
    /// 2. λ≥3 Weighted-Update queries are grouped by λ and each group is
    ///    streamed through the lanes of [`weighted_update_batch`].
    /// 3. Answers scatter back to their original batch positions.
    ///
    /// Every rectangle gets the same arguments and every estimator run
    /// the same clamped inputs as the per-query path, and the batch
    /// kernel is bit-identical to the scalar estimator, so this returns
    /// exactly what mapping [`Model::answer`] would — pinned down by
    /// `serving_prop.rs` (plan invariance) and the golden suites.
    fn answer_all(&self, queries: &[RangeQuery]) -> Vec<f64> {
        if queries.len() < 2 {
            return queries.iter().map(|q| self.answer(q)).collect();
        }
        let mut answers = vec![0.0f64; queries.len()];
        // Phase 1: bucket every needed rectangle by attribute pair.
        // `pair_f[qi]` collects the query's raw 2-D answers in pair-slot
        // order (the i<j lexicographic order `pair_answers` uses).
        #[allow(clippy::type_complexity)]
        let mut by_pair: HashMap<(usize, usize), (Vec<Rect2d>, Vec<(usize, usize)>)> =
            HashMap::new();
        let mut pair_f: Vec<Vec<f64>> = Vec::with_capacity(queries.len());
        let mut lambda_counts = [0u64; TELEMETRY_LAMBDA_CAP + 1];
        for (qi, query) in queries.iter().enumerate() {
            let preds = query.predicates();
            lambda_counts[preds.len().min(TELEMETRY_LAMBDA_CAP)] += 1;
            if preds.len() == 1 {
                answers[qi] = self
                    .answerer
                    .answer_1d(preds[0].attr, (preds[0].lo, preds[0].hi));
                pair_f.push(Vec::new());
                continue;
            }
            let mut slot = 0usize;
            for i in 0..preds.len() {
                for j in (i + 1)..preds.len() {
                    let (pi, pj) = (preds[i], preds[j]);
                    let bucket = by_pair.entry((pi.attr, pj.attr)).or_default();
                    bucket.0.push(((pi.lo, pi.hi), (pj.lo, pj.hi)));
                    bucket.1.push((qi, slot));
                    slot += 1;
                }
            }
            pair_f.push(vec![0.0; slot]);
        }
        for (counter, &n) in self.lambda_counts.iter().zip(&lambda_counts) {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
        // Phase 2: answer the rectangles pair-grouped and scatter them
        // into each query's slot vector. Bucket order does not matter:
        // answering is pure and every value lands at its (qi, slot).
        let mut buf = Vec::new();
        for (&pair, (rects, targets)) in &by_pair {
            buf.clear();
            self.answerer.answer_2d_batch(pair, rects, &mut buf);
            debug_assert_eq!(buf.len(), rects.len());
            for (&(qi, slot), &f) in targets.iter().zip(&buf) {
                pair_f[qi][slot] = f;
            }
        }
        // Phase 3: λ=2 queries pass their rectangle through raw; λ≥3
        // queries group by λ for the lane-parallel estimator.
        let mut wu_groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (qi, query) in queries.iter().enumerate() {
            let lambda = query.predicates().len();
            match lambda {
                1 => {}
                2 => answers[qi] = pair_f[qi][0],
                _ => match self.estimator {
                    EstimatorKind::WeightedUpdate => {
                        wu_groups.entry(lambda).or_default().push(qi);
                    }
                    EstimatorKind::MaxEntropy => {
                        let preds = query.predicates();
                        let pairs: Vec<PairAnswer> = (0..lambda)
                            .flat_map(|i| ((i + 1)..lambda).map(move |j| (i, j)))
                            .zip(&pair_f[qi])
                            .map(|((i, j), &f)| PairAnswer {
                                i,
                                j,
                                f: f.clamp(0.0, 1.0),
                            })
                            .collect();
                        let one_d: Vec<f64> = preds
                            .iter()
                            .map(|p| {
                                self.answerer
                                    .answer_1d(p.attr, (p.lo, p.hi))
                                    .clamp(0.0, 1.0)
                            })
                            .collect();
                        let z = max_entropy(
                            lambda,
                            &pairs,
                            &one_d,
                            self.est_threshold,
                            self.est_max_iters,
                        );
                        answers[qi] = z[(1usize << lambda) - 1];
                    }
                },
            }
        }
        for (&lambda, qis) in &wu_groups {
            let pairs: Vec<(usize, usize)> = (0..lambda)
                .flat_map(|i| ((i + 1)..lambda).map(move |j| (i, j)))
                .collect();
            let mut fs = Vec::with_capacity(qis.len() * pairs.len());
            for &qi in qis {
                fs.extend(pair_f[qi].iter().map(|f| f.clamp(0.0, 1.0)));
            }
            let batch =
                weighted_update_batch(lambda, &pairs, &fs, self.est_threshold, self.est_max_iters);
            for (k, &qi) in qis.iter().enumerate() {
                answers[qi] = batch.answers[k];
            }
            self.wu_sweeps
                .fetch_add(batch.sweeps.iter().sum::<u64>(), Ordering::Relaxed);
            if batch.cap_hits > 0 {
                self.wu_cap_hits
                    .fetch_add(batch.cap_hits, Ordering::Relaxed);
            }
        }
        answers
    }

    fn estimator_telemetry(&self) -> Option<EstimatorTelemetry> {
        Some(EstimatorTelemetry {
            lambda_counts: self
                .lambda_counts
                .iter()
                .enumerate()
                .map(|(l, n)| (l, n.load(Ordering::Relaxed)))
                .filter(|&(_, n)| n > 0)
                .collect(),
            wu_sweeps: self.wu_sweeps.load(Ordering::Relaxed),
            wu_cap_hits: self.wu_cap_hits.load(Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MechanismConfig;

    /// A noiseless answerer backed by an explicit product distribution.
    struct ProductAnswerer {
        c: usize,
        marginals: Vec<Vec<f64>>,
    }

    impl PairAnswerer for ProductAnswerer {
        fn domain(&self) -> usize {
            self.c
        }
        fn answer_2d(&self, (j, k): (usize, usize), ((lo_j, hi_j), (lo_k, hi_k)): Rect2d) -> f64 {
            let a: f64 = self.marginals[j][lo_j..=hi_j].iter().sum();
            let b: f64 = self.marginals[k][lo_k..=hi_k].iter().sum();
            a * b
        }
        fn answer_1d(&self, attr: usize, (lo, hi): (usize, usize)) -> f64 {
            self.marginals[attr][lo..=hi].iter().sum()
        }
    }

    fn model() -> SplitModel<ProductAnswerer> {
        let c = 8;
        let marginals = vec![vec![1.0 / 8.0; 8]; 4];
        SplitModel::new(
            ProductAnswerer { c, marginals },
            &MechanismConfig::default(),
        )
    }

    #[test]
    fn one_and_two_d_pass_through() {
        let m = model();
        let q = RangeQuery::from_triples(&[(0, 0, 3)], 8).unwrap();
        assert!((m.answer(&q) - 0.5).abs() < 1e-12);
        let q = RangeQuery::from_triples(&[(0, 0, 3), (2, 0, 1)], 8).unwrap();
        assert!((m.answer(&q) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn lambda_3_estimates_product() {
        let m = model();
        let q = RangeQuery::from_triples(&[(0, 0, 3), (1, 0, 3), (2, 0, 3)], 8).unwrap();
        let est = m.answer(&q);
        assert!((est - 0.125).abs() < 0.02, "est {est}");
    }

    #[test]
    fn max_entropy_estimator_also_works() {
        let cfg = MechanismConfig {
            estimator: EstimatorKind::MaxEntropy,
            ..MechanismConfig::default()
        };
        let c = 8;
        let marginals = vec![vec![1.0 / 8.0; 8]; 4];
        let m = SplitModel::new(ProductAnswerer { c, marginals }, &cfg);
        let q = RangeQuery::from_triples(&[(0, 0, 3), (1, 0, 3), (3, 0, 3)], 8).unwrap();
        let est = m.answer(&q);
        assert!((est - 0.125).abs() < 0.01, "est {est}");
    }

    #[test]
    fn cap_hits_count_unconverged_weighted_update_runs() {
        // A two-sweep cap with a near-zero threshold: half-domain
        // intervals meet the uniform start at once (one sweep, no cap
        // hit); the uneven ones are still moving when the cap stops them.
        let cfg = MechanismConfig {
            est_threshold: 1e-12,
            est_max_iters: 2,
            ..MechanismConfig::default()
        };
        let answerer = || ProductAnswerer {
            c: 8,
            marginals: vec![vec![1.0 / 8.0; 8]; 4],
        };
        let qs: Vec<RangeQuery> = [
            &[(0, 0, 3), (1, 4, 7), (2, 0, 3)][..],
            &[(0, 0, 3), (1, 0, 3), (2, 4, 7), (3, 0, 3)],
            &[(0, 0, 0), (1, 0, 1), (2, 0, 6)],
            &[(0, 1, 2), (2, 0, 4), (3, 5, 7)],
            &[(0, 0, 1), (1, 2, 6), (2, 3, 3), (3, 0, 5)],
            &[(0, 0, 0)],
        ]
        .iter()
        .map(|t| RangeQuery::from_triples(t, 8).unwrap())
        .collect();
        let batched = SplitModel::new(answerer(), &cfg);
        let _ = batched.answer_all(&qs);
        let one_by_one = SplitModel::new(answerer(), &cfg);
        for q in &qs {
            let _ = one_by_one.answer(q);
        }
        let t = batched.estimator_telemetry().unwrap();
        assert_eq!(t.wu_cap_hits, 3);
        assert_eq!(t.wu_sweeps, 1 + 1 + 3 * 2);
        assert_eq!(one_by_one.estimator_telemetry().unwrap(), t);
    }

    #[test]
    fn answer_all_matches_answer() {
        let m = model();
        let qs = vec![
            RangeQuery::from_triples(&[(0, 0, 3)], 8).unwrap(),
            RangeQuery::from_triples(&[(0, 0, 3), (1, 4, 7)], 8).unwrap(),
        ];
        let batch = m.answer_all(&qs);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], m.answer(&qs[0]));
        assert_eq!(batch[1], m.answer(&qs[1]));
    }
}
