//! λ-dimensional estimation from 2-D answers (paper §4.4, Algorithm 2;
//! Appendix A.8).
//!
//! A λ-D query `q` splits into `(λ choose 2)` associated 2-D queries. The
//! estimated answer vector `z` has `2^λ` entries, one per combination of
//! "interval or complement" across the λ predicates (entry `mask` uses the
//! query interval for attribute positions whose bit is set). Weighted
//! Update repeatedly rescales, for each pair `(i, j)`, the `2^{λ−2}` entries
//! whose bits `i` and `j` are both set so they sum to the measured 2-D
//! answer, until the total change per sweep falls below a threshold. The
//! final answer is `z[11…1]`.
//!
//! # The subcube enumeration
//!
//! The entries a pair `(i, j)` touches — masks with `mask & both == both`
//! where `both = 2^i | 2^j` — form a subcube: `{both | s}` for every subset
//! `s` of `free = (2^λ − 1) ^ both`. Instead of scanning all `2^λ` entries
//! with a branch (the textbook form, kept as
//! [`weighted_update_reference`]), the production path enumerates the
//! `2^{λ−2}` members directly with the standard increasing-subset stepper
//! `s ← (s − free) & free`. `both` and `s` are disjoint, so `both | s`
//! increases with `s` and the subcube is visited in exactly the order the
//! filtered scan visits it — the f64 accumulation order is unchanged and
//! the result is **bit-identical**, 4× less work and branch-free.
//!
//! # The streaming-lane batch kernel
//!
//! [`weighted_update_batch`] runs Algorithm 2 for a group of same-shape
//! queries over [`EST_VECTORS`] vectors of [`EST_LANES`] f64 lanes, one
//! query per lane. Each vector holds its lanes' z-vectors transposed into
//! SoA layout (`z[mask · EST_LANES + lane]`), and every sweep updates all
//! lanes with element-wise f64 vector arithmetic — explicit AVX-512 /
//! AVX2 sweep bodies with a portable fallback, dispatched once per
//! process through the same feature detection as the OLH support kernel
//! (`privmdr_util::hash::kernel_backend`). The vectors in flight are
//! interleaved inside one sweep, so their subcube sums, divides and
//! rescales form independent dependency chains.
//!
//! The lanes **stream**: each carries its own query and sweep count, and a
//! lane that converges or reaches `max_iters.max(1)` writes its answer
//! and sweep count, then takes the next query of the group (its z column
//! reset to `1/2^λ`, its targets loaded) at the end of the same sweep. A
//! lane goes idle only when the group is exhausted, and a vector with no
//! live lane is skipped. Update masks keep idle lanes and the `y == 0`
//! skip from writing, so each lane performs exactly the f64 operation
//! sequence the scalar path would for its current query: IEEE-754 lane
//! arithmetic is identical to scalar arithmetic, hence the answers and
//! per-query sweep counts are bit-identical to [`weighted_update`]'s.
//! `crates/core/tests/estimator_prop.rs` pins this down against the
//! reference across lane remainders, refills and every backend.
//!
//! The appendix's Maximum-Entropy alternative constrains all four
//! sign-combinations per pair (deriving the complements from 1-D answers)
//! plus global normalization; it converges to the max-entropy distribution
//! but more slowly — the reason the paper prefers Weighted Update.

/// Observer invoked with `(sweep, total_change)` after each sweep (Fig. 18).
pub type SweepObserver<'a> = &'a mut dyn FnMut(usize, f64);

/// One measured 2-D answer for positions `(i, j)` within the query's
/// attribute list (`i < j < λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairAnswer {
    /// First attribute position within the query (not the global index).
    pub i: usize,
    /// Second attribute position within the query.
    pub j: usize,
    /// Measured 2-D answer `f_{q(i,j)}`, clamped to `[0, 1]` by callers.
    pub f: f64,
}

/// Algorithm 2: estimates the full answer vector `z` (length `2^λ`) from
/// the associated 2-D answers.
pub fn weighted_update(
    lambda: usize,
    pair_answers: &[PairAnswer],
    threshold: f64,
    max_iters: usize,
) -> Vec<f64> {
    weighted_update_observed(lambda, pair_answers, threshold, max_iters, None)
}

/// [`weighted_update`] with a per-sweep convergence observer.
///
/// This is the production scalar path: per pair it walks the `2^{λ−2}`
/// subcube directly (see the module docs) instead of branching over all
/// `2^λ` entries. Same accumulation order, bit-identical results.
pub fn weighted_update_observed(
    lambda: usize,
    pair_answers: &[PairAnswer],
    threshold: f64,
    max_iters: usize,
    mut observer: Option<SweepObserver<'_>>,
) -> Vec<f64> {
    assert!((2..=20).contains(&lambda), "lambda out of range");
    let size = 1usize << lambda;
    let full = size - 1;
    for pa in pair_answers {
        assert!(pa.i < lambda && pa.j < lambda, "pair position out of range");
    }
    let mut z = vec![1.0 / size as f64; size];
    let mut change = f64::INFINITY;
    let mut sweep = 0usize;
    while sweep < max_iters.max(1) && change >= threshold {
        change = 0.0;
        for pa in pair_answers {
            let both = (1usize << pa.i) | (1usize << pa.j);
            let free = full ^ both;
            // y = sum over the subcube, in increasing-mask order.
            let mut y = 0.0;
            let mut s = 0usize;
            loop {
                y += z[both | s];
                s = s.wrapping_sub(free) & free;
                if s == 0 {
                    break;
                }
            }
            if y == 0.0 {
                continue; // Algorithm 2 line 6
            }
            let factor = pa.f / y;
            let mut s = 0usize;
            loop {
                let v = &mut z[both | s];
                let new = *v * factor;
                change += (new - *v).abs();
                *v = new;
                s = s.wrapping_sub(free) & free;
                if s == 0 {
                    break;
                }
            }
        }
        sweep += 1;
        if let Some(obs) = observer.as_mut() {
            obs(sweep, change);
        }
    }
    z
}

/// The textbook form of Algorithm 2: a filtered scan over all `2^λ`
/// entries per pair. Kept as the reference implementation the optimized
/// subcube / lane-parallel paths are proven bit-identical to
/// (`tests/estimator_prop.rs`) — hot paths should call
/// [`weighted_update`] or [`weighted_update_batch`] instead.
pub fn weighted_update_reference(
    lambda: usize,
    pair_answers: &[PairAnswer],
    threshold: f64,
    max_iters: usize,
) -> Vec<f64> {
    assert!((2..=20).contains(&lambda), "lambda out of range");
    let size = 1usize << lambda;
    let mut z = vec![1.0 / size as f64; size];
    let mut change = f64::INFINITY;
    let mut sweep = 0usize;
    while sweep < max_iters.max(1) && change >= threshold {
        change = 0.0;
        for pa in pair_answers {
            let both = (1usize << pa.i) | (1usize << pa.j);
            let mut y = 0.0;
            for (mask, &v) in z.iter().enumerate() {
                if mask & both == both {
                    y += v;
                }
            }
            if y == 0.0 {
                continue;
            }
            let factor = pa.f / y;
            for (mask, v) in z.iter_mut().enumerate() {
                if mask & both == both {
                    let new = *v * factor;
                    change += (new - *v).abs();
                    *v = new;
                }
            }
        }
        sweep += 1;
    }
    z
}

/// Convenience: the λ-D query answer `z[11…1]` from Algorithm 2.
pub fn estimate_lambda_answer(
    lambda: usize,
    pair_answers: &[PairAnswer],
    threshold: f64,
    max_iters: usize,
) -> f64 {
    let z = weighted_update(lambda, pair_answers, threshold, max_iters);
    z[(1usize << lambda) - 1]
}

/// Lane width of one estimator vector: 8 queries, one f64 lane each — one
/// AVX-512 vector, or two AVX2 vectors, per element-wise step.
pub const EST_LANES: usize = 8;

/// Vectors of [`EST_LANES`] lanes the batch estimator keeps in flight.
/// Two vectors give every pair step two independent dependency chains
/// (subcube sum, divide, rescale), so one vector's divide overlaps the
/// other's adds. A fixed property of the kernel, not a setting: the
/// driver matches on `[u8; EST_VECTORS]` with two-element patterns.
pub const EST_VECTORS: usize = 2;

/// The result of a [`weighted_update_batch`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEstimate {
    /// Per query, the λ-D answer `z[11…1]` — bit-identical to
    /// [`estimate_lambda_answer`] on the query's own pair answers.
    pub answers: Vec<f64>,
    /// Per query, the number of Weighted-Update sweeps it ran before
    /// converging (or hitting `max_iters`) — identical to the scalar
    /// path's sweep count, for estimator telemetry.
    pub sweeps: Vec<u64>,
    /// Queries that stopped on the sweep cap `max_iters.max(1)` while
    /// their last sweep's change was still `>= threshold`: the runs that
    /// had not converged.
    pub cap_hits: u64,
}

/// Lane-parallel Weighted Update over a batch of same-shape queries.
///
/// All queries share `lambda` and the pair-position list `pairs` (the
/// planner groups by λ, and `SplitModel` always emits pairs in the same
/// `i < j` lexicographic order); `fs` holds each query's measured 2-D
/// answers row-major (`fs[q · pairs.len() + p]`). Queries stream through
/// [`EST_VECTORS`] `×` [`EST_LANES`] lanes: a lane that finishes takes
/// the next query at once (see the module docs). The per-pair subcube
/// index lists are materialized once per call (they depend only on the
/// `(λ, pair-set)` shape) and reused by every sweep.
///
/// Dispatches to AVX-512/AVX2/portable once per process via
/// `privmdr_util::hash::kernel_backend()`. Every backend performs the
/// same per-lane f64 operation sequence, so the answers and sweep counts
/// are **bit-identical** to running [`weighted_update`] per query.
pub fn weighted_update_batch(
    lambda: usize,
    pairs: &[(usize, usize)],
    fs: &[f64],
    threshold: f64,
    max_iters: usize,
) -> BatchEstimate {
    #[cfg(target_arch = "x86_64")]
    match privmdr_util::hash::kernel_backend() {
        // SAFETY: each SIMD backend is only ever selected after
        // `is_x86_feature_detected!` confirmed its features on this CPU.
        privmdr_util::hash::KernelBackend::Avx512 => {
            return unsafe { avx512::run(lambda, pairs, fs, threshold, max_iters) }
        }
        privmdr_util::hash::KernelBackend::Avx2 => {
            return unsafe { avx2::run(lambda, pairs, fs, threshold, max_iters) }
        }
        privmdr_util::hash::KernelBackend::Portable => {}
    }
    weighted_update_batch_portable(lambda, pairs, fs, threshold, max_iters)
}

/// [`weighted_update_batch`] pinned to the portable sweep body, exposed
/// so the equivalence tests can exercise it even where dispatch picks a
/// SIMD backend.
pub fn weighted_update_batch_portable(
    lambda: usize,
    pairs: &[(usize, usize)],
    fs: &[f64],
    threshold: f64,
    max_iters: usize,
) -> BatchEstimate {
    // SAFETY: the portable sweep body needs no CPU feature.
    unsafe { stream::<Portable>(lambda, pairs, fs, threshold, max_iters) }
}

/// [`weighted_update_batch`] pinned to the explicit AVX2 sweep body;
/// `None` when the CPU lacks AVX2.
#[cfg(target_arch = "x86_64")]
pub fn weighted_update_batch_avx2(
    lambda: usize,
    pairs: &[(usize, usize)],
    fs: &[f64],
    threshold: f64,
    max_iters: usize,
) -> Option<BatchEstimate> {
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence was just verified.
        Some(unsafe { avx2::run(lambda, pairs, fs, threshold, max_iters) })
    } else {
        None
    }
}

/// [`weighted_update_batch`] pinned to the explicit AVX-512 sweep body;
/// `None` when the CPU lacks AVX-512F/DQ.
#[cfg(target_arch = "x86_64")]
pub fn weighted_update_batch_avx512(
    lambda: usize,
    pairs: &[(usize, usize)],
    fs: &[f64],
    threshold: f64,
    max_iters: usize,
) -> Option<BatchEstimate> {
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        // SAFETY: AVX-512F and AVX-512DQ presence was just verified.
        Some(unsafe { avx512::run(lambda, pairs, fs, threshold, max_iters) })
    } else {
        None
    }
}

/// The lane storage of the streaming driver: up to [`EST_VECTORS`]
/// vectors of [`EST_LANES`] lanes, each vector one contiguous block. Lane
/// `v · EST_LANES + l` is lane `l` of vector `v`.
///
/// Only [`stream`] builds it, and the SIMD sweep bodies index it without
/// bounds checks, so its fields keep these invariants: every `idx` entry
/// is below `2^λ`, `z.len()` is `zlen` times the vectors in flight, and
/// `f.len()` is `flen` times the same.
struct Lanes {
    /// Per pair, its `sub = 2^{λ−2}` subcube member masks in increasing
    /// order: pair `p` owns `idx[p · sub..(p + 1) · sub]`.
    idx: Vec<u32>,
    sub: usize,
    /// Transposed z: `z[v · zlen + mask · EST_LANES + l]`, with
    /// `zlen = 2^λ · EST_LANES`.
    z: Vec<f64>,
    zlen: usize,
    /// Per-pair targets: `f[v · flen + p · EST_LANES + l]`, with
    /// `flen = pairs · EST_LANES`.
    f: Vec<f64>,
    flen: usize,
    threshold: f64,
}

impl Lanes {
    /// Starts a query on `lane`: its z column back to the uniform `init`
    /// and its target column to the query's pair answers.
    fn load(&mut self, lane: usize, targets: &[f64], init: f64) {
        const L: usize = EST_LANES;
        let (v, l) = (lane / L, lane % L);
        for row in self.z[v * self.zlen..][..self.zlen].chunks_exact_mut(L) {
            row[l] = init;
        }
        for (row, &t) in self.f[v * self.flen..][..self.flen]
            .chunks_exact_mut(L)
            .zip(targets)
        {
            row[l] = t;
        }
    }
}

/// The one part of the streaming driver each backend supplies.
trait SweepBody {
    /// Runs one Weighted-Update sweep over the `NV` vectors `vecs` of
    /// `lanes`, writing only the lanes set in `active[k]`, and returns
    /// per vector the lanes of `active[k]` whose sweep change is still
    /// `>= lanes.threshold`.
    ///
    /// # Safety
    ///
    /// The running CPU supports the backend's target features, and every
    /// `vecs[k]` is a vector in flight in `lanes`.
    unsafe fn sweep<const NV: usize>(
        lanes: &mut Lanes,
        vecs: [usize; NV],
        active: [u8; NV],
    ) -> [u8; NV];
}

/// The streaming-lane driver shared by every backend: validates the
/// shape, builds the subcube index lists once, and streams the queries
/// through the lanes, one [`SweepBody::sweep`] per step over the vectors
/// that still hold a live lane.
///
/// # Safety
///
/// The running CPU supports `K`'s target features.
#[inline(always)]
unsafe fn stream<K: SweepBody>(
    lambda: usize,
    pairs: &[(usize, usize)],
    fs: &[f64],
    threshold: f64,
    max_iters: usize,
) -> BatchEstimate {
    const L: usize = EST_LANES;
    assert!((2..=20).contains(&lambda), "lambda out of range");
    assert!(!pairs.is_empty(), "batch needs at least one pair per query");
    assert!(
        fs.len().is_multiple_of(pairs.len()),
        "fs must hold pairs.len() answers per query"
    );
    let npairs = pairs.len();
    let n = fs.len() / npairs;
    let size = 1usize << lambda;
    let full = size - 1;
    let sub = 1usize << (lambda - 2);

    // Per-pair subcube index lists, increasing order — computed once per
    // (λ, pair-set) shape and reused by every sweep.
    let mut idx = Vec::with_capacity(npairs * sub);
    for &(i, j) in pairs {
        assert!(i < lambda && j < lambda, "pair position out of range");
        let both = (1usize << i) | (1usize << j);
        let free = full ^ both;
        let mut s = 0usize;
        loop {
            idx.push((both | s) as u32);
            s = s.wrapping_sub(free) & free;
            if s == 0 {
                break;
            }
        }
    }

    let init = 1.0 / size as f64;
    let mut answers = vec![init; n];
    let mut sweeps = vec![0u64; n];
    let mut cap_hits = 0u64;
    // The scalar loop runs while `change >= threshold` with the change
    // starting at infinity, so a NaN threshold runs no sweep at all and
    // every answer stays `init`: start no lane then. A group of at most
    // EST_LANES queries takes one vector.
    let nv = if f64::INFINITY >= threshold {
        n.div_ceil(L).min(EST_VECTORS)
    } else {
        0
    };
    let mut lanes = Lanes {
        idx,
        sub,
        z: vec![init; nv * size * L],
        zlen: size * L,
        f: vec![0.0; nv * npairs * L],
        flen: npairs * L,
        threshold,
    };
    // Per lane: the query it holds and the sweep count when it took it.
    let mut query = [0usize; EST_VECTORS * L];
    let mut start = [0u64; EST_VECTORS * L];
    let mut active = [0u8; EST_VECTORS];
    let mut next = n.min(nv * L);
    for (lane, q) in (0..next).enumerate() {
        lanes.load(lane, &fs[q * npairs..][..npairs], init);
        query[lane] = q;
        active[lane / L] |= 1 << (lane % L);
    }

    let cap = max_iters.max(1) as u64;
    let mut sweep = 0u64;
    // A lower bound on the sweep at which some live lane reaches the cap,
    // so the per-lane cap check runs only on sweeps that may need it.
    let mut due = cap;
    loop {
        // SAFETY: the caller vouches for K's features; vector 1 is only
        // live when two vectors are in flight.
        let keep = match active {
            [0, 0] => break,
            [a, 0] => [unsafe { K::sweep(&mut lanes, [0], [a]) }[0], 0],
            [0, a] => [0, unsafe { K::sweep(&mut lanes, [1], [a]) }[0]],
            both => unsafe { K::sweep(&mut lanes, [0, 1], both) },
        };
        sweep += 1;
        let mut done = [active[0] & !keep[0], active[1] & !keep[1]];
        if sweep >= due {
            due = u64::MAX;
            for (lane, &began) in start.iter().enumerate() {
                let (v, bit) = (lane / L, 1u8 << (lane % L));
                if active[v] & bit == 0 {
                    continue;
                }
                let deadline = began + cap;
                if deadline <= sweep {
                    done[v] |= bit;
                    if keep[v] & bit != 0 {
                        cap_hits += 1;
                    }
                } else {
                    due = due.min(deadline);
                }
            }
        }
        for v in 0..EST_VECTORS {
            let mut bits = done[v];
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let lane = v * L + l;
                let q = query[lane];
                answers[q] = lanes.z[v * lanes.zlen + full * L + l];
                sweeps[q] = sweep - start[lane];
                if next < n {
                    lanes.load(lane, &fs[next * npairs..][..npairs], init);
                    query[lane] = next;
                    start[lane] = sweep;
                    next += 1;
                    due = due.min(sweep + cap);
                } else {
                    active[v] &= !(1 << l);
                }
            }
        }
    }
    BatchEstimate {
        answers,
        sweeps,
        cap_hits,
    }
}

/// Portable sweep body: fixed [`EST_LANES`]-wide array steps written for
/// autovectorization. Each lane replays the scalar op sequence exactly
/// (same subcube order, same mul/div/add/abs), with a per-lane update
/// mask standing in for the scalar `y == 0` skip and for idle lanes.
struct Portable;

impl SweepBody for Portable {
    #[inline(always)]
    unsafe fn sweep<const NV: usize>(
        lanes: &mut Lanes,
        vecs: [usize; NV],
        active: [u8; NV],
    ) -> [u8; NV] {
        const L: usize = EST_LANES;
        let mut change = [[0.0f64; L]; NV];
        for (p, masks) in lanes.idx.chunks_exact(lanes.sub).enumerate() {
            let mut y = [[0.0f64; L]; NV];
            for &m in masks {
                for k in 0..NV {
                    let row = &lanes.z[vecs[k] * lanes.zlen + m as usize * L..][..L];
                    for l in 0..L {
                        y[k][l] += row[l];
                    }
                }
            }
            // The scalar path skips the pair when y == 0 (and an idle lane
            // must not move at all): mask the store and the change
            // accumulation per lane.
            let mut upd = [[false; L]; NV];
            let mut factor = [[0.0f64; L]; NV];
            for k in 0..NV {
                let f = &lanes.f[vecs[k] * lanes.flen + p * L..][..L];
                for l in 0..L {
                    upd[k][l] = active[k] >> l & 1 != 0 && y[k][l] != 0.0;
                    factor[k][l] = f[l] / y[k][l];
                }
            }
            for &m in masks {
                for k in 0..NV {
                    let row = &mut lanes.z[vecs[k] * lanes.zlen + m as usize * L..][..L];
                    for l in 0..L {
                        if upd[k][l] {
                            let new = row[l] * factor[k][l];
                            change[k][l] += (new - row[l]).abs();
                            row[l] = new;
                        }
                    }
                }
            }
        }
        // `>=` is false for a NaN change, which stops the lane exactly as
        // the scalar loop's `change >= threshold` test does.
        let mut keep = [0u8; NV];
        for (k, change) in change.iter().enumerate() {
            for (l, &c) in change.iter().enumerate() {
                if c >= lanes.threshold {
                    keep[k] |= 1 << l;
                }
            }
            keep[k] &= active[k];
        }
        keep
    }
}

/// Explicit AVX2 sweep body: each vector as two 256-bit halves of f64.
///
/// All arithmetic is element-wise IEEE-754 (`vaddpd`/`vmulpd`/`vdivpd`,
/// abs as a sign-bit clear), so each lane computes bit-for-bit the scalar
/// sequence. The update mask (`active && y != 0`) is carried as a full-
/// width f64 mask: stores blend through it and change accumulates
/// `and(|new−old|, mask)` — exactly `+0.0` for masked lanes, which cannot
/// move a non-negative change accumulator.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BatchEstimate, Lanes, SweepBody, EST_LANES};
    use core::arch::x86_64::*;

    /// [`super::stream`] over the AVX2 sweep body.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on the running CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run(
        lambda: usize,
        pairs: &[(usize, usize)],
        fs: &[f64],
        threshold: f64,
        max_iters: usize,
    ) -> BatchEstimate {
        super::stream::<Avx2>(lambda, pairs, fs, threshold, max_iters)
    }

    struct Avx2;

    impl SweepBody for Avx2 {
        #[inline(always)]
        unsafe fn sweep<const NV: usize>(
            lanes: &mut Lanes,
            vecs: [usize; NV],
            active: [u8; NV],
        ) -> [u8; NV] {
            const L: usize = EST_LANES;
            let zero = _mm256_setzero_pd();
            let absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
            let bits = _mm256_setr_epi64x(1, 2, 4, 8);
            let mut zp = [lanes.z.as_mut_ptr(); NV];
            let mut fp = [lanes.f.as_ptr(); NV];
            // Live-lane masks: all-ones for the lanes set in `active`.
            let mut live = [[zero; 2]; NV];
            for k in 0..NV {
                zp[k] = zp[k].add(vecs[k] * lanes.zlen);
                fp[k] = fp[k].add(vecs[k] * lanes.flen);
                for (h, live) in live[k].iter_mut().enumerate() {
                    let b = _mm256_set1_epi64x(i64::from(active[k] >> (4 * h)));
                    *live =
                        _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(b, bits), bits));
                }
            }
            let mut change = [[zero; 2]; NV];
            for (p, masks) in lanes.idx.chunks_exact(lanes.sub).enumerate() {
                let mut y = [[zero; 2]; NV];
                for &m in masks {
                    for k in 0..NV {
                        let row = zp[k].add(m as usize * L);
                        y[k][0] = _mm256_add_pd(y[k][0], _mm256_loadu_pd(row));
                        y[k][1] = _mm256_add_pd(y[k][1], _mm256_loadu_pd(row.add(4)));
                    }
                }
                let mut upd = [[zero; 2]; NV];
                let mut factor = [[zero; 2]; NV];
                for k in 0..NV {
                    for h in 0..2 {
                        // NEQ_UQ: NaN y counts as != 0, matching the
                        // scalar `y == 0.0` skip condition's negation.
                        upd[k][h] =
                            _mm256_and_pd(live[k][h], _mm256_cmp_pd::<_CMP_NEQ_UQ>(y[k][h], zero));
                        let fv = _mm256_loadu_pd(fp[k].add(p * L + 4 * h));
                        factor[k][h] = _mm256_div_pd(fv, y[k][h]);
                    }
                }
                for &m in masks {
                    for k in 0..NV {
                        let row = zp[k].add(m as usize * L);
                        for h in 0..2 {
                            let old = _mm256_loadu_pd(row.add(4 * h));
                            let new =
                                _mm256_blendv_pd(old, _mm256_mul_pd(old, factor[k][h]), upd[k][h]);
                            let diff = _mm256_and_pd(
                                _mm256_and_pd(_mm256_sub_pd(new, old), absmask),
                                upd[k][h],
                            );
                            change[k][h] = _mm256_add_pd(change[k][h], diff);
                            _mm256_storeu_pd(row.add(4 * h), new);
                        }
                    }
                }
            }
            // GE_OQ is false for a NaN change: the lane stops, as in the
            // scalar loop.
            let thr = _mm256_set1_pd(lanes.threshold);
            let mut keep = [0u8; NV];
            for k in 0..NV {
                for (h, (&live, &change)) in live[k].iter().zip(&change[k]).enumerate() {
                    let go = _mm256_and_pd(live, _mm256_cmp_pd::<_CMP_GE_OQ>(change, thr));
                    keep[k] |= (_mm256_movemask_pd(go) as u8) << (4 * h);
                }
            }
            keep
        }
    }
}

/// Explicit AVX-512 sweep body: each vector as one 512-bit vector of f64,
/// with update/convergence masks in `__mmask8` registers and masked
/// multiply/add doing the blending in one instruction.
///
/// Same bit-identity argument as the AVX2 body: element-wise IEEE-754
/// arithmetic per lane, masked lanes keep their old value and contribute
/// nothing to the change accumulator.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{BatchEstimate, Lanes, SweepBody, EST_LANES};
    use core::arch::x86_64::*;

    /// [`super::stream`] over the AVX-512 sweep body.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F and AVX-512DQ support on
    /// the running CPU.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn run(
        lambda: usize,
        pairs: &[(usize, usize)],
        fs: &[f64],
        threshold: f64,
        max_iters: usize,
    ) -> BatchEstimate {
        super::stream::<Avx512>(lambda, pairs, fs, threshold, max_iters)
    }

    struct Avx512;

    impl SweepBody for Avx512 {
        #[inline(always)]
        unsafe fn sweep<const NV: usize>(
            lanes: &mut Lanes,
            vecs: [usize; NV],
            active: [u8; NV],
        ) -> [u8; NV] {
            const L: usize = EST_LANES;
            let zero = _mm512_setzero_pd();
            let mut zp = [lanes.z.as_mut_ptr(); NV];
            let mut fp = [lanes.f.as_ptr(); NV];
            for k in 0..NV {
                zp[k] = zp[k].add(vecs[k] * lanes.zlen);
                fp[k] = fp[k].add(vecs[k] * lanes.flen);
            }
            let mut change = [zero; NV];
            for (p, masks) in lanes.idx.chunks_exact(lanes.sub).enumerate() {
                let mut y = [zero; NV];
                for &m in masks {
                    for k in 0..NV {
                        y[k] = _mm512_add_pd(y[k], _mm512_loadu_pd(zp[k].add(m as usize * L)));
                    }
                }
                let mut upd = [0u8; NV];
                let mut factor = [zero; NV];
                for k in 0..NV {
                    // NEQ_UQ: NaN y counts as != 0 (scalar skip negated).
                    upd[k] = active[k] & _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(y[k], zero);
                    factor[k] = _mm512_div_pd(_mm512_loadu_pd(fp[k].add(p * L)), y[k]);
                }
                for &m in masks {
                    for k in 0..NV {
                        let row = zp[k].add(m as usize * L);
                        let old = _mm512_loadu_pd(row);
                        // Masked multiply: idle / y==0 lanes keep `old`.
                        let new = _mm512_mask_mul_pd(old, upd[k], old, factor[k]);
                        let diff = _mm512_abs_pd(_mm512_sub_pd(new, old));
                        change[k] = _mm512_mask_add_pd(change[k], upd[k], change[k], diff);
                        _mm512_storeu_pd(row, new);
                    }
                }
            }
            // GE_OQ is false for a NaN change: the lane stops, as in the
            // scalar loop.
            let thr = _mm512_set1_pd(lanes.threshold);
            let mut keep = [0u8; NV];
            for k in 0..NV {
                keep[k] = active[k] & _mm512_cmp_pd_mask::<_CMP_GE_OQ>(change[k], thr);
            }
            keep
        }
    }
}

/// Appendix A.8: maximum-entropy estimation by iterative scaling.
///
/// Besides the `(λ choose 2)` positive-quadrant answers, this uses the 1-D
/// answers `f_i` of each queried interval to derive all four
/// sign-combination constraints per pair:
/// `f(+,+) = f_{ij}`, `f(+,−) = f_i − f_{ij}`, `f(−,+) = f_j − f_{ij}`,
/// `f(−,−) = 1 − f_i − f_j + f_{ij}` (each clamped to `[0, 1]`), plus
/// normalization of `z` to total mass 1 each sweep.
pub fn max_entropy(
    lambda: usize,
    pair_answers: &[PairAnswer],
    one_d_answers: &[f64],
    threshold: f64,
    max_iters: usize,
) -> Vec<f64> {
    assert!((2..=20).contains(&lambda), "lambda out of range");
    assert_eq!(one_d_answers.len(), lambda, "one 1-D answer per position");
    let size = 1usize << lambda;
    let mut z = vec![1.0 / size as f64; size];
    let mut change = f64::INFINITY;
    let mut sweep = 0usize;
    while sweep < max_iters.max(1) && change >= threshold {
        change = 0.0;
        for pa in pair_answers {
            let (bi, bj) = (1usize << pa.i, 1usize << pa.j);
            let fi = one_d_answers[pa.i].clamp(0.0, 1.0);
            let fj = one_d_answers[pa.j].clamp(0.0, 1.0);
            let fij = pa.f.clamp(0.0, 1.0);
            // Constraints for the four sign quadrants of the pair.
            let quadrants = [
                (bi | bj, bi | bj, fij),
                (bi | bj, bi, (fi - fij).clamp(0.0, 1.0)),
                (bi | bj, bj, (fj - fij).clamp(0.0, 1.0)),
                (bi | bj, 0, (1.0 - fi - fj + fij).clamp(0.0, 1.0)),
            ];
            for (select, want, target) in quadrants {
                let mut y = 0.0;
                for (mask, &v) in z.iter().enumerate() {
                    if mask & select == want {
                        y += v;
                    }
                }
                if y == 0.0 {
                    continue;
                }
                let factor = target / y;
                for (mask, v) in z.iter_mut().enumerate() {
                    if mask & select == want {
                        let new = *v * factor;
                        change += (new - *v).abs();
                        *v = new;
                    }
                }
            }
        }
        // Normalization constraint.
        let total: f64 = z.iter().sum();
        if total > 0.0 {
            for v in z.iter_mut() {
                *v /= total;
            }
        }
        sweep += 1;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds all pair answers for independent attributes with marginal
    /// interval masses `f`.
    fn independent_pairs(f: &[f64]) -> Vec<PairAnswer> {
        let mut out = Vec::new();
        for i in 0..f.len() {
            for j in (i + 1)..f.len() {
                out.push(PairAnswer {
                    i,
                    j,
                    f: f[i] * f[j],
                });
            }
        }
        out
    }

    #[test]
    fn exact_product_case_lambda3() {
        // Independent attributes: the constraint set is consistent and the
        // answer should approach the product (the max-entropy solution).
        let f = [0.5, 0.5, 0.5];
        let est = estimate_lambda_answer(3, &independent_pairs(&f), 1e-12, 500);
        let want = 0.125;
        assert!((est - want).abs() < 0.02, "est {est} want {want}");
    }

    #[test]
    fn symmetric_lambda4() {
        let f = [0.5; 4];
        let est = estimate_lambda_answer(4, &independent_pairs(&f), 1e-12, 500);
        assert!((est - 0.0625).abs() < 0.02, "est {est}");
    }

    #[test]
    fn perfectly_correlated_pairs() {
        // All pairwise answers 0.5 and marginals 0.5: the consistent joints
        // put mass 0.5 on "all in" and 0.5 on "all out"; Algorithm 2 should
        // estimate z[full] near 0.5, far above the product 0.125.
        let pairs: Vec<PairAnswer> = (0..3)
            .flat_map(|i| ((i + 1)..3).map(move |j| PairAnswer { i, j, f: 0.5 }))
            .collect();
        let est = estimate_lambda_answer(3, &pairs, 1e-12, 500);
        // Algorithm 2's pairwise log-linear family cannot express the exact
        // two-point joint (that needs higher-order terms), but the estimate
        // must land far above the independence product 0.125.
        assert!(est > 0.25, "correlated estimate {est}");
    }

    #[test]
    fn zero_pair_answer_forces_zero() {
        // If one 2-D answer is 0, the full conjunction must be 0.
        let mut pairs = independent_pairs(&[0.5, 0.5, 0.5]);
        pairs[0].f = 0.0;
        let est = estimate_lambda_answer(3, &pairs, 1e-12, 500);
        assert!(est.abs() < 1e-9, "est {est}");
    }

    #[test]
    fn convergence_observer_reports_decay() {
        let pairs = independent_pairs(&[0.4, 0.6, 0.3, 0.7]);
        let mut trace = Vec::new();
        let mut obs = |s: usize, ch: f64| trace.push((s, ch));
        let _ = weighted_update_observed(4, &pairs, 1e-12, 200, Some(&mut obs));
        assert!(trace.len() >= 2);
        let first = trace[0].1;
        let last = trace.last().unwrap().1;
        assert!(
            last < first,
            "change must decay: first {first}, last {last}"
        );
    }

    #[test]
    fn subcube_path_matches_reference_bits() {
        // The dedicated sweep lives in tests/estimator_prop.rs; this is
        // the quick in-crate anchor.
        for lambda in 2..=6usize {
            let f: Vec<f64> = (0..lambda).map(|i| 0.3 + 0.1 * i as f64).collect();
            let pairs = independent_pairs(&f);
            let a = weighted_update(lambda, &pairs, 1e-9, 100);
            let b = weighted_update_reference(lambda, &pairs, 1e-9, 100);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "lambda {lambda}");
            }
        }
    }

    #[test]
    fn batch_matches_scalar_bits() {
        let lambda = 4usize;
        let pair_pos: Vec<(usize, usize)> = (0..lambda)
            .flat_map(|i| ((i + 1)..lambda).map(move |j| (i, j)))
            .collect();
        // 11 queries: one full vector plus a partial second one.
        let mut fs = Vec::new();
        let mut scalar = Vec::new();
        for q in 0..11usize {
            let f: Vec<f64> = (0..lambda)
                .map(|i| 0.2 + 0.07 * ((q + i) % 9) as f64)
                .collect();
            let pairs = independent_pairs(&f);
            fs.extend(pairs.iter().map(|pa| pa.f));
            scalar.push(estimate_lambda_answer(lambda, &pairs, 1e-9, 100));
        }
        let batch = weighted_update_batch(lambda, &pair_pos, &fs, 1e-9, 100);
        assert_eq!(batch.answers.len(), 11);
        for (a, b) in batch.answers.iter().zip(&scalar) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn max_entropy_matches_weighted_update_on_consistent_inputs() {
        let f = [0.4, 0.5, 0.6];
        let pairs = independent_pairs(&f);
        let wu = estimate_lambda_answer(3, &pairs, 1e-12, 500);
        let me = max_entropy(3, &pairs, &f, 1e-12, 500);
        let me_ans = me[7];
        let want = 0.4 * 0.5 * 0.6;
        assert!((wu - want).abs() < 0.03, "wu {wu}");
        assert!((me_ans - want).abs() < 0.01, "me {me_ans}");
        // Max-entropy z is a proper distribution.
        assert!((me.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(me.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn max_entropy_handles_correlation_better_with_marginals() {
        // Correlated case: f_i = 0.5, f_ij = 0.45 (near-perfect correlation).
        let pairs: Vec<PairAnswer> = (0..3)
            .flat_map(|i| ((i + 1)..3).map(move |j| PairAnswer { i, j, f: 0.45 }))
            .collect();
        let me = max_entropy(3, &pairs, &[0.5, 0.5, 0.5], 1e-12, 1000);
        let est = me[7];
        assert!(est > 0.3, "correlated max-ent estimate {est}");
    }

    #[test]
    #[should_panic(expected = "lambda out of range")]
    fn lambda_one_is_rejected() {
        let _ = weighted_update(1, &[], 1e-9, 10);
    }
}
