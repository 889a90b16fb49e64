//! Algorithm 1: building the response matrix (paper §4.3).
//!
//! For an attribute pair `(j, k)`, HDG fuses the three grids
//! `{G(j), G(k), G(j,k)}` into a `c × c` matrix `M` whose entries estimate
//! per-value joint frequencies. The construction is Weighted Update
//! (multiplicative weights / iterative proportional fitting): start from the
//! uniform matrix and repeatedly rescale each cell's rectangle so its mass
//! matches the cell's noisy frequency, until the total change per sweep
//! drops below a threshold (the paper uses `1/n`).
//!
//! A sweep has three stages: the `g_j` row bands of `G(j)`, the `g_k`
//! column bands of `G(k)`, and the `g2²` cells of `G(j,k)`. Within one
//! stage the rectangles are disjoint and share one shape. Each rectangle
//! sums its entries in row-major order, skips itself when that mass is
//! zero, rescales its entries by `target / mass`, and adds the absolute
//! changes of its entries, in row-major order, to a change that is then
//! added to the sweep's total in rectangle order. That is
//! [`build_response_matrix_reference`], the oracle of the production
//! kernel.
//!
//! # Block compression
//!
//! Cut the matrix into blocks of `c / max(g_j, g2)` rows by
//! `c / max(g_k, g2)` columns. All granularities are powers of two
//! dividing `c`, so the block height divides both the `G(j)` band height
//! `c / g_j` and the `G(j,k)` cell side `c / g2`, the block width divides
//! `c / g_k` and `c / g2`, and the `G(k)` bands span all `c` rows. Every
//! rectangle of every stage is therefore a union of whole blocks.
//!
//! **Invariant: the entries of a block are bit-equal at every sweep.** By
//! induction over the rescales: all entries start at `1 / c²`. A rescale
//! either covers a block or misses it entirely. If it covers it, it
//! multiplies each of the block's entries by the one factor
//! `target / mass`; equal operands give the same IEEE-754 product, so the
//! entries stay equal, and so do their changes `|new − old|`. If the
//! rectangle is skipped for zero mass, nothing changes.
//!
//! The kernel therefore keeps one value per block. A rectangle's mass is
//! still a serial f64 add chain over its entries, and it decides every
//! later bit, so the kernel always replays it entry by entry, in row-major
//! order, over the block values: a per-stage walk lists the block of each
//! entry of a rectangle. The change chain is replayed the same way only on
//! exact sweeps (next section). The multiply, subtract and absolute value
//! run once per block, and the `c × c` entries are written out once, after
//! the last sweep. At `c = 64`, `g_j = g_k = 32`, `g2 = 4` a block is
//! 2 × 2 entries, so the working set shrinks 4×.
//!
//! # Certified change
//!
//! A sweep's change only decides whether the next sweep runs, and on
//! post-processed inputs (see the end of these docs) it answers "continue"
//! on every sweep but the last. So a sweep that is neither observed nor
//! the last one `max_iters` allows runs *fast*: it keeps the exact mass
//! chains and rescales, but instead of replaying the change over every
//! entry it adds each rectangle's block changes once, over the blocks in
//! row-major order, and multiplies that sum by the block's entry count
//! `bh · bw`. Call the result `A` and the reference's change `E`.
//!
//! `A` and `E` are two summation orders of the same `N = 3c²` non-negative
//! terms `|Δ|`: each entry's change is bit-equal to its block's, and
//! multiplying by the power of two `bh · bw ≥ 1` is exact (an overflow
//! makes `A` infinite). Adding two non-negative floats rounds by at most
//! `u = 2⁻⁵³` relative, with no underflow term (subnormal sums are exact),
//! so a sum in which each term passes through at most `d` additions lies
//! within `γ_d = d·u / (1 − d·u)` of the exact real sum `S` (Higham,
//! *Accuracy and Stability of Numerical Algorithms*, §4.2). In `E` a term
//! passes through its rectangle's chain (at most `c²` entries) and then
//! the sweep's chain over rectangles (`R = g_j + g_k + g2²` of them); in
//! `A`, through its rectangle's block chain (at most `B = (c/bh)·(c/bw)`
//! blocks) and the same `R`. With `d_E ≤ c² + R`, `d_A ≤ B + R` and
//! `d·u ≤ 1/3`, which holds for any matrix that fits in memory,
//!
//! ```text
//! |E − A| ≤ (γ_{d_E} + γ_{d_A}) · S ≤ (γ_{d_E} + γ_{d_A}) / (1 − γ_{d_A}) · A
//!         ≤ 4u · (c² + B + 2R) · A  ≤  EB / 2 · A,
//! EB = 8u · (3c² + 3B + R)          (`Shape::change_bound`).
//! ```
//!
//! A fast sweep continues a live lane only if `A` is finite and
//! `A · (1 − EB) ≥ threshold`. Computing that product rounds twice, by at
//! most `3u · A` together, and `EB / 2 ≥ 12u` absorbs it, so the test
//! proves `E ≥ A · (1 − EB / 2) ≥ threshold`: the reference continues too.
//! A NaN or infinite `A`, or one that cannot be certified, abandons the
//! pass, which reruns from the uniform start with every sweep exact. The
//! observed path sweeps exactly throughout, and the last sweep allowed is
//! always exact, so every `final_change` and observer call is an `E`, and
//! entries, `iterations` and `final_change` stay bit-identical to the
//! reference. Cap-bound pairs never restart; a pair that converges early
//! pays one extra, exact pass.
//!
//! The block values and their changes take `2 · L · (c / bh) · (c / bw + 1)`
//! f64s of scratch for an `L`-lane pass over blocks of `bh × bw` entries
//! (only exact sweeps write the changes). Each thread keeps one scratch
//! for its life, grown to the largest pass it has run, so repeated publishes allocate none and a process holds at most
//! one scratch per thread that has fitted a pair. That is small next to the
//! matrices when blocks are large (17 KiB per lane at `c = 64`, `g1 = 32`,
//! `g2 = 4`, against 64 KiB of entries and prefix sums per pair), but as
//! large as a pass's matrices when blocks are single entries (`g1 = c`): a
//! thread that has run a 4-lane pass at `c = 1024` holds about 64 MiB.
//!
//! # Pairs as lanes
//!
//! [`fit_group`] fits up to [`GROUP_LANES`] pairs of one shape in one
//! pass, one f64 lane per pair in structure-of-arrays layout, so one
//! 256-bit vector operation advances the same step of four pairs. Each
//! lane keeps its own convergence flag. A lane that has met the threshold,
//! a padding lane, and a lane whose rectangle has zero mass are multiplied
//! by exactly `1.0`, which leaves their entries' bits alone (entries are
//! arithmetic results, never signaling NaNs), so the rescale needs no
//! blend or branch. A zero-mass rectangle's entries are finite, so its
//! change is exactly the `0.0` the reference adds; a finished lane's
//! change is ignored. Within a live lane every f64 operation on the block
//! values, and on an exact sweep's change, is the one the reference
//! performs, in the reference's order, with no fused multiply-add. Lane
//! arithmetic is IEEE-754 scalar arithmetic, so entries,
//! `iterations`, `final_change` and the observer trace are
//! **bit-identical** to [`build_response_matrix_reference`].
//! `tests/response_matrix_prop.rs` pins this down for the portable and the
//! AVX2 body.
//!
//! Each stage also walks four rectangles side by side, so each lane
//! has that many independent add chains in flight. The body is
//! instantiated at 1 lane (lone pairs and the observed path) and at 4, and
//! runs compiled for AVX2 where `privmdr_util::hash::kernel_backend()`
//! finds it, portably otherwise.
//!
//! Inputs that went through Phase-2 post-processing are consistent only up
//! to the post-processing's own residual, so on real collections the total
//! change settles near that residual, orders of magnitude above the
//! default threshold of `1e-7`, and every pair runs the full `max_iters`
//! sweeps; the kernel's throughput, not convergence, sets the cost.

use crate::grid1d::Grid1d;
use crate::grid2d::Grid2d;
use crate::prefix::PrefixSum2d;
use privmdr_util::hash::{kernel_backend, KernelBackend};
use std::cell::Cell;

/// Pairs [`fit_group`] fits in one pass: one f64 lane each, so four fill
/// a 256-bit AVX2 register.
pub const GROUP_LANES: usize = 4;

/// Rectangles of a sweep stage walked side by side, each with its own add
/// chains: enough chains to hide the f64 add latency, few enough to keep
/// in registers. Of 2, 4, 8 and 16, 4 was fastest at both lane counts
/// (c = 64, g1 ∈ {16, 32, 64}, g2 ∈ {4, 8}; 2-CPU x86-64 host with AVX2).
const RECTS: usize = 4;

/// The fused `c × c` joint-frequency estimate for one attribute pair, with a
/// prefix table for O(1) rectangle sums.
#[derive(Debug, Clone)]
pub struct ResponseMatrix {
    c: usize,
    data: Vec<f64>,
    prefix: PrefixSum2d,
    /// Total absolute change in the final sweep (convergence diagnostic).
    pub final_change: f64,
    /// Number of sweeps executed.
    pub iterations: usize,
}

impl ResponseMatrix {
    /// An unfitted `c × c` matrix: both buffers allocated, nothing
    /// computed yet. [`fit_group`] fills them in place, so a caller can
    /// allocate on its own thread and fit on worker threads (see
    /// `privmdr_util::par::par_for_each_mut`).
    pub fn unfitted(c: usize) -> Self {
        ResponseMatrix {
            c,
            data: vec![0.0; c * c],
            prefix: PrefixSum2d::zeros(c, c),
            final_change: f64::INFINITY,
            iterations: 0,
        }
    }

    /// Domain size `c` (matrix is `c × c`).
    pub fn domain(&self) -> usize {
        self.c
    }

    /// Estimated frequency of the joint value `(v_j, v_k)`.
    #[inline]
    pub fn value(&self, vj: usize, vk: usize) -> f64 {
        self.data[vj * self.c + vk]
    }

    /// Sum over the inclusive value rectangle
    /// `[lo_j, hi_j] × [lo_k, hi_k]`.
    #[inline]
    pub fn rect_sum(&self, rect: ((usize, usize), (usize, usize))) -> f64 {
        let ((lo_j, hi_j), (lo_k, hi_k)) = rect;
        self.prefix.rect_inclusive(lo_j, hi_j, lo_k, hi_k)
    }

    /// Raw matrix entries (row-major, `v_j` major).
    pub fn entries(&self) -> &[f64] {
        &self.data
    }
}

/// Observer invoked with the total absolute change after each sweep; used by
/// the Fig. 17 convergence experiment.
pub type SweepObserver<'a> = &'a mut dyn FnMut(usize, f64);

/// Runs Algorithm 1 for one pair. `threshold` is the total-change stopping
/// criterion (paper: any value below `1/n` gives indistinguishable
/// results). `max_iters` caps the sweep count (the paper's Appendix A.1
/// uses 100), with a floor of one: `max_iters = 0` still runs one sweep, as
/// the reference does.
pub fn build_response_matrix(
    g_j: &Grid1d,
    g_k: &Grid1d,
    g_jk: &Grid2d,
    threshold: f64,
    max_iters: usize,
) -> ResponseMatrix {
    build_response_matrix_observed(g_j, g_k, g_jk, threshold, max_iters, None)
}

/// [`build_response_matrix`] with an optional per-sweep observer.
pub fn build_response_matrix_observed(
    g_j: &Grid1d,
    g_k: &Grid1d,
    g_jk: &Grid2d,
    threshold: f64,
    max_iters: usize,
    observer: Option<SweepObserver<'_>>,
) -> ResponseMatrix {
    let mut matrix = ResponseMatrix::unfitted(g_jk.domain());
    let mut fits = [PairFit {
        matrix: &mut matrix,
        g_j,
        g_k,
        g_jk,
    }];
    run_group(&mut fits, threshold, max_iters, observer, kernel_backend());
    matrix
}

/// One pair of a [`fit_group`] pass: the matrix to fill and the three grids
/// it fuses.
#[derive(Debug)]
pub struct PairFit<'a> {
    /// Output, overwritten by the fit (allocate with
    /// [`ResponseMatrix::unfitted`]).
    pub matrix: &'a mut ResponseMatrix,
    /// The 1-D grid of the pair's first attribute.
    pub g_j: &'a Grid1d,
    /// The 1-D grid of the pair's second attribute.
    pub g_k: &'a Grid1d,
    /// The pair's 2-D grid.
    pub g_jk: &'a Grid2d,
}

impl PairFit<'_> {
    /// Pairs of one shape can share a [`fit_group`] pass.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        let s = Shape::of(self);
        (s.c, s.gj, s.gk, s.g2)
    }
}

/// Runs Algorithm 1 for 1 to [`GROUP_LANES`] pairs of one
/// [`PairFit::shape`] in one pass. Each matrix ends up bit-identical to
/// [`build_response_matrix`] on its own grids, with the same one-sweep
/// floor on `max_iters`.
///
/// The pass works in the calling thread's scratch (see the module docs),
/// which it grows if the pass needs more. Dispatches once per process
/// through `privmdr_util::hash::kernel_backend()`: AVX2 code where the CPU
/// has it, the portable body otherwise.
pub fn fit_group(fits: &mut [PairFit<'_>], threshold: f64, max_iters: usize) {
    run_group(fits, threshold, max_iters, None, kernel_backend());
}

/// [`fit_group`] pinned to the portable body, so the equivalence tests
/// reach it on machines where dispatch picks AVX2.
pub fn fit_group_portable(fits: &mut [PairFit<'_>], threshold: f64, max_iters: usize) {
    run_group(fits, threshold, max_iters, None, KernelBackend::Portable);
}

/// [`fit_group`] pinned to the AVX2 body; `None` (and nothing fitted) when
/// the CPU lacks AVX2.
#[cfg(target_arch = "x86_64")]
pub fn fit_group_avx2(fits: &mut [PairFit<'_>], threshold: f64, max_iters: usize) -> Option<()> {
    std::arch::is_x86_feature_detected!("avx2")
        .then(|| run_group(fits, threshold, max_iters, None, KernelBackend::Avx2))
}

thread_local! {
    /// This thread's pass scratch. A pass takes it out and puts it back,
    /// so an observer that fits another pair on the same thread works in
    /// a scratch of its own.
    static SCRATCH: Cell<GroupScratch> = Cell::new(GroupScratch::default());
}

/// Working memory of a pass.
#[derive(Debug, Default)]
struct GroupScratch {
    /// Block values, block changes and stage targets, `[f64; L]` each.
    lanes: Vec<f64>,
    /// One walk per sweep stage.
    walks: [Walk; 3],
}

impl GroupScratch {
    /// Grows the scratch to a pass over `lanes` lanes of `shape`.
    fn reserve(&mut self, shape: Shape, lanes: usize) {
        let (nbr, stride) = (shape.blocks().0, shape.stride());
        let Shape { gj, gk, g2, .. } = shape;
        let len = lanes * (2 * nbr * stride + gj + gk + g2 * g2);
        if self.lanes.len() < len {
            self.lanes.resize(len, 0.0);
        }
        for (walk, tiles) in self.walks.iter_mut().zip(shape.stages()) {
            let ((h, w), (rh, rw)) = shape.rect(tiles);
            // `reserve` counts from the length; `fill` clears first.
            walk.entries.clear();
            walk.entries.reserve(h * w);
            walk.blocks.clear();
            walk.blocks.reserve(rh * rw);
        }
    }
}

/// How the kernel visits the rectangles of one sweep stage, as block
/// offsets from a rectangle's top-left block. Indexing through a table
/// also keeps the compiler from vectorizing across blocks, which would
/// split each block's lanes apart.
#[derive(Debug, Default)]
struct Walk {
    /// The block of each entry, row-major over the rectangle's entries:
    /// the order of the reference's add chains.
    entries: Vec<u32>,
    /// Each block once, row-major.
    blocks: Vec<u32>,
}

impl Walk {
    /// Rebuilds the walk for rectangles of `shape` in the stage `tiles`.
    fn fill(&mut self, shape: Shape, tiles: (usize, usize)) {
        let (nbr, nbc) = shape.blocks();
        let (bh, bw) = (shape.c / nbr, shape.c / nbc);
        let ((h, w), (rh, rw)) = shape.rect(tiles);
        let stride = shape.stride();
        let offset =
            |rb: usize, cb: usize| u32::try_from(rb * stride + cb).expect("block fits u32");
        self.entries.clear();
        self.entries
            .extend((0..h * w).map(|e| offset(e / w / bh, e % w / bw)));
        self.blocks.clear();
        self.blocks
            .extend((0..rh * rw).map(|b| offset(b / rw, b % rw)));
    }
}

/// The geometry of one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    c: usize,
    gj: usize,
    gk: usize,
    g2: usize,
}

impl Shape {
    fn of(fit: &PairFit<'_>) -> Self {
        let c = fit.g_jk.domain();
        assert_eq!(
            fit.g_j.domain(),
            c,
            "1-D grid domains must match the pair grid"
        );
        assert_eq!(
            fit.g_k.domain(),
            c,
            "1-D grid domains must match the pair grid"
        );
        assert_eq!(fit.matrix.c, c, "pair grid domain must match the matrix");
        Shape {
            c,
            gj: fit.g_j.granularity(),
            gk: fit.g_k.granularity(),
            g2: fit.g_jk.granularity(),
        }
    }

    /// Block rows and block columns of the matrix (see the module docs).
    fn blocks(&self) -> (usize, usize) {
        (self.gj.max(self.g2), self.gk.max(self.g2))
    }

    /// `EB` of the module docs: `|E − A| ≤ EB / 2 · A` for every sweep of
    /// a live lane whose exact change `E` is finite.
    fn change_bound(&self) -> f64 {
        let (nbr, nbc) = self.blocks();
        let rects = self.gj + self.gk + self.g2 * self.g2;
        let terms = 3 * self.c * self.c + 3 * nbr * nbc + rects;
        8.0 * terms as f64 * 2f64.powi(-53)
    }

    /// Blocks per stored block row: one more than the matrix has, so that
    /// rectangle groups a power-of-two number of rows apart do not sit a
    /// multiple of 4 KiB apart, where a load waits on an unrelated store
    /// (4K aliasing). The padding took a four-pair pass at c = 64,
    /// g1 = 32, g2 = 4 from 2.6 to 1.9 ms on a 2-CPU x86-64 host.
    fn stride(&self) -> usize {
        self.blocks().1 + 1
    }

    /// The three sweep stages, in order, as tilings of the matrix into
    /// `rows × cols` equal rectangles: `G(j)`'s row bands, `G(k)`'s column
    /// bands, `G(j,k)`'s cells.
    fn stages(&self) -> [(usize, usize); 3] {
        [(self.gj, 1), (1, self.gk), (self.g2, self.g2)]
    }

    /// The extent of one rectangle of the tiling `(rows, cols)`, in
    /// entries and in blocks.
    fn rect(&self, (rows, cols): (usize, usize)) -> ((usize, usize), (usize, usize)) {
        let (nbr, nbc) = self.blocks();
        ((self.c / rows, self.c / cols), (nbr / rows, nbc / cols))
    }
}

/// Checks the group, picks the lane count, and runs one pass in this
/// thread's scratch.
fn run_group(
    fits: &mut [PairFit<'_>],
    threshold: f64,
    max_iters: usize,
    observer: Option<SweepObserver<'_>>,
    backend: KernelBackend,
) {
    assert!(
        (1..=GROUP_LANES).contains(&fits.len()),
        "a pass fits 1 to {GROUP_LANES} pairs"
    );
    let shape = Shape::of(&fits[0]);
    assert!(
        fits.iter().all(|f| Shape::of(f) == shape),
        "pairs of one pass must share a shape"
    );
    let mut scratch = SCRATCH.take();
    if fits.len() == 1 {
        run_pass::<1>(
            fits,
            shape,
            threshold,
            max_iters,
            observer,
            &mut scratch,
            backend,
        );
    } else {
        run_pass::<GROUP_LANES>(
            fits,
            shape,
            threshold,
            max_iters,
            observer,
            &mut scratch,
            backend,
        );
    }
    SCRATCH.set(scratch);
}

/// One `L`-lane pass: transposes the targets into lanes, sweeps, and
/// writes each live lane's blocks out as its `c × c` entries.
fn run_pass<const L: usize>(
    fits: &mut [PairFit<'_>],
    shape: Shape,
    threshold: f64,
    max_iters: usize,
    observer: Option<SweepObserver<'_>>,
    scratch: &mut GroupScratch,
    backend: KernelBackend,
) {
    let pass = Pass::<L>::load(fits, shape, threshold, max_iters, scratch);
    let (iterations, final_change) = match backend {
        // SAFETY: both SIMD backends are only ever selected after
        // `is_x86_feature_detected!` confirmed AVX2 on this CPU (AVX-512
        // implies it).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 | KernelBackend::Avx2 => unsafe { sweep_avx2(pass, observer) },
        _ => sweep(pass, observer),
    };

    let (lanes, _) = scratch.lanes.as_chunks::<L>();
    let (nbr, nbc) = shape.blocks();
    let (c, bh, bw, stride) = (shape.c, shape.c / nbr, shape.c / nbc, shape.stride());
    for (l, fit) in fits.iter_mut().enumerate() {
        let m = &mut *fit.matrix;
        for (r, row) in m.data.chunks_exact_mut(c).enumerate() {
            let blocks = &lanes[(r / bh) * stride..][..nbc];
            for (entries, block) in row.chunks_exact_mut(bw).zip(blocks) {
                entries.fill(block[l]);
            }
        }
        m.prefix.refill(&m.data);
        m.iterations = iterations[l];
        m.final_change = final_change[l];
    }
}

/// The working set of one `L`-lane pass, in lane groups `[f64; L]`.
struct Pass<'a, const L: usize> {
    shape: Shape,
    /// Block values, row-major over the blocks.
    vals: &'a mut [[f64; L]],
    /// Each block's `|new − old|` from its latest exact rescale, laid out
    /// as `vals`; fast sweeps leave it alone.
    deltas: &'a mut [[f64; L]],
    /// Stage targets: `G(j)`'s cells, then `G(k)`'s, then `G(j,k)`'s.
    targets: &'a [[f64; L]],
    walks: &'a [Walk; 3],
    /// Lanes `0..live` hold pairs; the rest are padding.
    live: usize,
    threshold: f64,
    max_iters: usize,
}

impl<'a, const L: usize> Pass<'a, L> {
    /// Lays a pass over `fits` out in `scratch`: the stage walks, and the
    /// targets transposed into lanes.
    fn load(
        fits: &[PairFit<'_>],
        shape: Shape,
        threshold: f64,
        max_iters: usize,
        scratch: &'a mut GroupScratch,
    ) -> Self {
        scratch.reserve(shape, L);
        for (walk, tiles) in scratch.walks.iter_mut().zip(shape.stages()) {
            walk.fill(shape, tiles);
        }
        let (lanes, _) = scratch.lanes.as_chunks_mut::<L>();
        let blocks = shape.blocks().0 * shape.stride();
        let (vals, rest) = lanes.split_at_mut(blocks);
        let (deltas, targets) = rest.split_at_mut(blocks);
        for (l, fit) in fits.iter().enumerate() {
            let stages = [&fit.g_j.freqs, &fit.g_k.freqs, &fit.g_jk.freqs];
            for (t, &f) in targets.iter_mut().zip(stages.into_iter().flatten()) {
                t[l] = f;
            }
        }
        // Padding lanes never run a sweep; their targets only need to be
        // defined.
        for t in targets.iter_mut() {
            t[fits.len()..].fill(0.0);
        }
        Pass {
            shape,
            vals,
            deltas,
            targets,
            walks: &scratch.walks,
            live: fits.len(),
            threshold,
            max_iters,
        }
    }

    /// Runs one sweep over the `active` lanes and returns each lane's
    /// change: exact when `EXACT`, otherwise the fast sum `A` of the module
    /// docs. The block values come out the same either way.
    #[inline(always)]
    fn sweep_once<const EXACT: bool>(&mut self, active: &[bool; L]) -> [f64; L] {
        let shape = self.shape;
        let (nbr, nbc) = shape.blocks();
        let block_entries = ((shape.c / nbr) * (shape.c / nbc)) as f64;
        let mut change = [0.0f64; L];
        let mut rest = self.targets;
        for (tiles, walk) in shape.stages().into_iter().zip(self.walks) {
            let (stage_targets, later) = rest.split_at(tiles.0 * tiles.1);
            rest = later;
            let stage = Stage {
                stride: shape.stride(),
                tile_cols: tiles.1,
                rect: shape.rect(tiles).1,
                block_entries,
                entries: &walk.entries,
                blocks: &walk.blocks,
            };
            stage.scale::<L, EXACT>(self.vals, self.deltas, stage_targets, active, &mut change);
        }
        change
    }

    /// Sweeps from the uniform start until every lane has stopped or the
    /// cap is reached. With `certify`, every sweep but the last one the cap
    /// allows runs fast; `None` means a fast sweep could not certify that a
    /// live lane continues, and the pass must be rerun exactly.
    #[inline(always)]
    fn run(
        &mut self,
        certify: bool,
        mut observer: Option<SweepObserver<'_>>,
    ) -> Option<([usize; L], [f64; L])> {
        let (live, threshold) = (self.live, self.threshold);
        let cap = self.max_iters.max(1);
        let bound = 1.0 - self.shape.change_bound();
        self.vals
            .fill([1.0 / (self.shape.c * self.shape.c) as f64; L]);
        // The reference loops while `change >= threshold` with the change
        // starting at infinity, so a NaN threshold runs no sweep at all.
        let mut active: [bool; L] = std::array::from_fn(|l| l < live && f64::INFINITY >= threshold);
        let mut iterations = [0usize; L];
        let mut final_change = [f64::INFINITY; L];
        let mut sweeps = 0usize;
        while sweeps < cap && active.contains(&true) {
            let exact = !certify || sweeps + 1 == cap;
            let change = if exact {
                self.sweep_once::<true>(&active)
            } else {
                self.sweep_once::<false>(&active)
            };
            sweeps += 1;
            for l in 0..L {
                if active[l] {
                    // A fast change is overwritten: lanes stop only on
                    // exact sweeps, and the last sweep is one.
                    iterations[l] = sweeps;
                    final_change[l] = change[l];
                    // The reference continues only while `change >= threshold`;
                    // freezing on its negation keeps a NaN change exact.
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    if !exact {
                        if !(change[l].is_finite() && change[l] * bound >= threshold) {
                            return None;
                        }
                    } else if !(change[l] >= threshold) {
                        active[l] = false;
                    }
                }
            }
            if let Some(obs) = observer.as_mut() {
                obs(sweeps, change[0]);
            }
        }
        Some((iterations, final_change))
    }
}

/// [`sweep`] compiled for AVX2. FMA stays off, so no multiply and add can
/// fuse.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2<const L: usize>(
    pass: Pass<'_, L>,
    observer: Option<SweepObserver<'_>>,
) -> ([usize; L], [f64; L]) {
    sweep(pass, observer)
}

/// The sweep loop of Algorithm 1 over `L` lanes, certified where nothing
/// observes it and exact otherwise or on a failed certification. Returns
/// each lane's sweep count and final change; padding lanes report `0` and
/// infinity.
#[inline(always)]
fn sweep<const L: usize>(
    mut pass: Pass<'_, L>,
    observer: Option<SweepObserver<'_>>,
) -> ([usize; L], [f64; L]) {
    // The observed path (the Fig. 17 trace) needs every sweep's exact
    // change.
    if observer.is_none() {
        if let Some(done) = pass.run(true, None) {
            return done;
        }
    }
    pass.run(false, observer)
        .expect("a pass of exact sweeps always finishes")
}

/// One sweep stage of a pass.
#[derive(Debug, Clone, Copy)]
struct Stage<'a> {
    /// Blocks per block row of the matrix.
    stride: usize,
    /// Rectangles per row of the tiling.
    tile_cols: usize,
    /// A rectangle's extent in blocks.
    rect: (usize, usize),
    /// Entries per block, `bh · bw`: a power of two.
    block_entries: f64,
    /// [`Walk::entries`], borrowed as a slice so the compiler keeps it in
    /// registers across the stores to the blocks.
    entries: &'a [u32],
    /// [`Walk::blocks`].
    blocks: &'a [u32],
}

impl Stage<'_> {
    /// Rescales every rectangle of the stage to its target (`targets` in
    /// row-major rectangle order), [`RECTS`] at a time, adding each
    /// rectangle's change to `change` in rectangle order.
    #[inline(always)]
    fn scale<const L: usize, const EXACT: bool>(
        self,
        vals: &mut [[f64; L]],
        deltas: &mut [[f64; L]],
        targets: &[[f64; L]],
        active: &[bool; L],
        change: &mut [f64; L],
    ) {
        let (rh, rw) = self.rect;
        let origin = |i: usize| (i / self.tile_cols) * rh * self.stride + (i % self.tile_cols) * rw;
        let mut groups = targets.chunks_exact(RECTS);
        for (g, t) in (&mut groups).enumerate() {
            let origins = std::array::from_fn(|r| origin(g * RECTS + r));
            let t = t.try_into().expect("chunk of RECTS");
            self.scale_rects::<L, RECTS, EXACT>(vals, deltas, origins, t, active, change);
        }
        let tail = targets.len() - groups.remainder().len();
        for (i, t) in groups.remainder().iter().enumerate() {
            let origins = [origin(tail + i)];
            self.scale_rects::<L, 1, EXACT>(vals, deltas, origins, &[*t], active, change);
        }
    }

    /// Rescales the `R` disjoint rectangles whose top-left blocks are
    /// `origins`, as the reference's `scale_rect` would one after another.
    /// Per lane, the mass is an add chain over the rectangle's entries in
    /// row-major order, a zero mass leaves the blocks alone and contributes
    /// `0.0`, and the rectangles' changes are added to `change` in order.
    /// Inactive lanes are left alone too. With `EXACT` a rectangle's
    /// change is the reference's chain over its entries; otherwise it is
    /// the chain over its blocks times the block's entry count.
    #[inline(always)]
    fn scale_rects<const L: usize, const R: usize, const EXACT: bool>(
        self,
        vals: &mut [[f64; L]],
        deltas: &mut [[f64; L]],
        origins: [usize; R],
        targets: &[[f64; L]; R],
        active: &[bool; L],
        change: &mut [f64; L],
    ) {
        let (rh, rw) = self.rect;
        let span = (rh - 1) * self.stride + rw;

        let mut y = [[0.0f64; L]; R];
        let region: [&[[f64; L]]; R] = std::array::from_fn(|r| &vals[origins[r]..][..span]);
        for &b in self.entries {
            for r in 0..R {
                let v = region[r][b as usize];
                for l in 0..L {
                    y[r][l] += v[l];
                }
            }
        }

        // A lane that skips the rectangle (zero mass) or sits out the sweep
        // (finished or padding) is multiplied by exactly 1.0, which leaves
        // every entry's bits alone: the entries are arithmetic results, so
        // never signaling NaNs. A skipped lane's entries are finite (they
        // sum to zero), so its change is exactly the reference's `0.0`;
        // a lane that sits out has its change ignored.
        let factor: [[f64; L]; R] = std::array::from_fn(|r| {
            std::array::from_fn(|l| {
                if active[l] && y[r][l] != 0.0 {
                    targets[r][l] / y[r][l]
                } else {
                    1.0
                }
            })
        });
        let mut rect_change = [[0.0f64; L]; R];
        if EXACT {
            for r in 0..R {
                let v = &mut vals[origins[r]..][..span];
                let d = &mut deltas[origins[r]..][..span];
                for &b in self.blocks {
                    d[b as usize] = rescale(&mut v[b as usize], &factor[r]);
                }
            }
            let region: [&[[f64; L]]; R] = std::array::from_fn(|r| &deltas[origins[r]..][..span]);
            for &b in self.entries {
                for r in 0..R {
                    let d = region[r][b as usize];
                    for l in 0..L {
                        rect_change[r][l] += d[l];
                    }
                }
            }
        } else {
            for r in 0..R {
                let v = &mut vals[origins[r]..][..span];
                for &b in self.blocks {
                    let d = rescale(&mut v[b as usize], &factor[r]);
                    for l in 0..L {
                        rect_change[r][l] += d[l];
                    }
                }
            }
            for rc in &mut rect_change {
                for c in rc.iter_mut() {
                    *c *= self.block_entries;
                }
            }
        }
        for rc in rect_change {
            for l in 0..L {
                change[l] += rc[l];
            }
        }
    }
}

/// Multiplies one block by `factor` and returns its `|new − old|`.
#[inline(always)]
fn rescale<const L: usize>(v: &mut [f64; L], factor: &[f64; L]) -> [f64; L] {
    let old = *v;
    *v = std::array::from_fn(|l| old[l] * factor[l]);
    std::array::from_fn(|l| (v[l] - old[l]).abs())
}

/// The rectangle-at-a-time form of Algorithm 1, kept as the reference
/// implementation the grouped [`fit_group`] kernel is proven
/// bit-identical to (`tests/response_matrix_prop.rs`) — hot paths should
/// call [`build_response_matrix`] instead.
pub fn build_response_matrix_reference(
    g_j: &Grid1d,
    g_k: &Grid1d,
    g_jk: &Grid2d,
    threshold: f64,
    max_iters: usize,
    mut observer: Option<SweepObserver<'_>>,
) -> ResponseMatrix {
    let c = g_jk.domain();
    assert_eq!(g_j.domain(), c, "1-D grid domains must match the pair grid");
    assert_eq!(g_k.domain(), c, "1-D grid domains must match the pair grid");

    let mut m = vec![1.0 / (c * c) as f64; c * c];
    let mut change = f64::INFINITY;
    let mut iterations = 0usize;

    while iterations < max_iters.max(1) && change >= threshold {
        change = 0.0;
        let w1j = g_j.cell_width();
        for (cell, &fs) in g_j.freqs.iter().enumerate() {
            change += scale_rect(&mut m, c, cell * w1j, (cell + 1) * w1j, 0, c, fs);
        }
        let w1k = g_k.cell_width();
        for (cell, &fs) in g_k.freqs.iter().enumerate() {
            change += scale_rect(&mut m, c, 0, c, cell * w1k, (cell + 1) * w1k, fs);
        }
        let g2 = g_jk.granularity();
        let w2 = g_jk.cell_width();
        for a in 0..g2 {
            for b in 0..g2 {
                change += scale_rect(
                    &mut m,
                    c,
                    a * w2,
                    (a + 1) * w2,
                    b * w2,
                    (b + 1) * w2,
                    g_jk.cell(a, b),
                );
            }
        }
        iterations += 1;
        if let Some(obs) = observer.as_mut() {
            obs(iterations, change);
        }
    }

    let prefix = PrefixSum2d::build(&m, c, c);
    ResponseMatrix {
        c,
        data: m,
        prefix,
        final_change: change,
        iterations,
    }
}

/// One Weighted Update step: rescales `m`'s half-open rectangle so it sums to
/// `target` (skipped when the current mass is zero, per Algorithm 1 line 7).
/// Returns the total absolute change.
fn scale_rect(
    m: &mut [f64],
    c: usize,
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
    target: f64,
) -> f64 {
    let mut y = 0.0;
    for r in r0..r1 {
        for v in &m[r * c + c0..r * c + c1] {
            y += *v;
        }
    }
    if y == 0.0 {
        return 0.0;
    }
    let factor = target / y;
    let mut change = 0.0;
    for r in r0..r1 {
        for v in &mut m[r * c + c0..r * c + c1] {
            let new = *v * factor;
            change += (new - *v).abs();
            *v = new;
        }
    }
    change
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_1d(attr: usize, g: usize, c: usize) -> Grid1d {
        Grid1d::from_freqs(attr, g, c, vec![1.0 / g as f64; g]).unwrap()
    }

    #[test]
    fn uniform_inputs_give_uniform_matrix() {
        let c = 16;
        let gj = uniform_1d(0, 8, c);
        let gk = uniform_1d(1, 8, c);
        let gjk = Grid2d::from_freqs((0, 1), 4, c, vec![1.0 / 16.0; 16]).unwrap();
        let m = build_response_matrix(&gj, &gk, &gjk, 1e-9, 100);
        for vj in 0..c {
            for vk in 0..c {
                assert!((m.value(vj, vk) - 1.0 / 256.0).abs() < 1e-9);
            }
        }
        assert!(m.iterations <= 3, "uniform case must converge immediately");
    }

    #[test]
    fn matrix_satisfies_all_grid_constraints_at_convergence() {
        let c = 16;
        // A skewed but consistent set of grids derived from one underlying
        // product distribution.
        let fj: Vec<f64> = vec![0.4, 0.2, 0.2, 0.05, 0.05, 0.04, 0.03, 0.03];
        let fk: Vec<f64> = vec![0.05, 0.05, 0.1, 0.1, 0.2, 0.2, 0.2, 0.1];
        let gj = Grid1d::from_freqs(0, 8, c, fj.clone()).unwrap();
        let gk = Grid1d::from_freqs(1, 8, c, fk.clone()).unwrap();
        // 2-D grid at g2=4: aggregate the product of block sums.
        let blk = |f: &Vec<f64>, b: usize| f[2 * b] + f[2 * b + 1];
        let mut f2 = vec![0.0; 16];
        for a in 0..4 {
            for b in 0..4 {
                f2[a * 4 + b] = blk(&fj, a) * blk(&fk, b);
            }
        }
        let gjk = Grid2d::from_freqs((0, 1), 4, c, f2).unwrap();
        let m = build_response_matrix(&gj, &gk, &gjk, 1e-12, 500);

        // Row bands reproduce G(j).
        for (cell, &want) in fj.iter().enumerate() {
            let got = m.rect_sum(((cell * 2, cell * 2 + 1), (0, c - 1)));
            assert!(
                (got - want).abs() < 1e-6,
                "G(j) cell {cell}: {got} vs {want}"
            );
        }
        // Column bands reproduce G(k).
        for (cell, &want) in fk.iter().enumerate() {
            let got = m.rect_sum(((0, c - 1), (cell * 2, cell * 2 + 1)));
            assert!(
                (got - want).abs() < 1e-6,
                "G(k) cell {cell}: {got} vs {want}"
            );
        }
        // 2-D cells reproduce G(j,k).
        for a in 0..4 {
            for b in 0..4 {
                let got = m.rect_sum(((a * 4, a * 4 + 3), (b * 4, b * 4 + 3)));
                let want = gjk.cell(a, b);
                assert!((got - want).abs() < 1e-6, "G(j,k) cell ({a},{b})");
            }
        }
        // Matrix is a distribution.
        let total: f64 = m.entries().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(m.entries().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn finer_1d_information_refines_within_coarse_cells() {
        // The 2-D grid alone cannot distinguish values inside a cell; the 1-D
        // grids must reshape the within-cell distribution.
        let c = 8;
        // Attribute j: all mass on values 0..2 (cell 0 of 4, but within the
        // first half of the 2-D cell 0 which spans 0..4).
        let fj = vec![0.5, 0.5, 0.0, 0.0]; // g1 = 4, cell width 2
        let fk = vec![0.25; 4];
        let gj = Grid1d::from_freqs(0, 4, c, fj).unwrap();
        let gk = Grid1d::from_freqs(1, 4, c, fk).unwrap();
        let gjk = Grid2d::from_freqs((0, 1), 2, c, vec![0.5, 0.0, 0.0, 0.5]).unwrap();
        let m = build_response_matrix(&gj, &gk, &gjk, 1e-12, 500);
        // Values of j in 4..8 carry no mass.
        let upper = m.rect_sum(((4, 7), (0, 7)));
        assert!(upper.abs() < 1e-9, "upper half mass {upper}");
        // Mass concentrated in j∈0..4 AND the 2-D structure (k∈0..4).
        let q = m.rect_sum(((0, 3), (0, 3)));
        assert!((q - 0.5).abs() < 1e-6, "quadrant mass {q}");
    }

    #[test]
    fn zero_mass_rectangles_are_skipped_not_nan() {
        let c = 8;
        let gj = Grid1d::from_freqs(0, 4, c, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let gk = Grid1d::from_freqs(1, 4, c, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let gjk = Grid2d::from_freqs((0, 1), 4, c, {
            let mut f = vec![0.0; 16];
            f[0] = 1.0;
            f
        })
        .unwrap();
        let m = build_response_matrix(&gj, &gk, &gjk, 1e-12, 200);
        assert!(m.entries().iter().all(|v| v.is_finite()));
        assert!((m.rect_sum(((0, 1), (0, 1))) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn observer_reports_convergence_for_consistent_grids() {
        // Exactly consistent constraints: the nested band structure lets
        // iterative proportional fitting satisfy all constraints within one
        // sweep, so the change collapses to the numerical floor immediately
        // after. Real post-processed grids are consistent only up to
        // Phase 2's residual and cycle instead (next test).
        let c = 16;
        let fj: Vec<f64> = (0..8).map(|i| (i + 1) as f64 / 36.0).collect();
        let fk: Vec<f64> = (0..8).map(|i| (8 - i) as f64 / 36.0).collect();
        let blk = |f: &[f64], b: usize| f[2 * b] + f[2 * b + 1];
        let mut f2 = vec![0.0; 16];
        for a in 0..4 {
            for b in 0..4 {
                f2[a * 4 + b] = blk(&fj, a) * blk(&fk, b);
            }
        }
        // Correlation term with zero block margins keeps constraints
        // consistent while making the joint non-product.
        for (a, b, sign) in [(0, 0, 1.0), (1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0)] {
            f2[a * 4 + b] += sign * 0.02;
        }
        let gj = Grid1d::from_freqs(0, 8, c, fj.clone()).unwrap();
        let gk = Grid1d::from_freqs(1, 8, c, fk.clone()).unwrap();
        let gjk = Grid2d::from_freqs((0, 1), 4, c, f2).unwrap();
        let mut trace = Vec::new();
        let mut obs = |step: usize, change: f64| trace.push((step, change));
        let m = build_response_matrix_observed(&gj, &gk, &gjk, 1e-12, 60, Some(&mut obs));
        assert_eq!(trace.len(), m.iterations);
        let first = trace.first().unwrap().1;
        let last = trace.last().unwrap().1;
        assert!(last < first * 1e-6, "first {first}, last {last}");
        assert!(last < 1e-12, "converged change {last}");
    }

    #[test]
    fn inconsistent_grids_cycle_boundedly() {
        // With (slightly) inconsistent constraints IPF settles into a limit
        // cycle whose per-sweep change equals the residual inconsistency;
        // max_iters bounds the run and the matrix stays a finite, sensible
        // distribution. This is the situation of real post-processed grids,
        // whose residual inconsistency keeps every pair at the sweep cap.
        let c = 16;
        let fj: Vec<f64> = (0..8).map(|i| (i + 1) as f64 / 36.0).collect();
        let fk: Vec<f64> = (0..8).map(|i| (8 - i) as f64 / 36.0).collect();
        let blk = |f: &[f64], b: usize| f[2 * b] + f[2 * b + 1];
        let mut f2 = vec![0.0; 16];
        for a in 0..4 {
            for b in 0..4 {
                f2[a * 4 + b] = blk(&fj, a) * blk(&fk, b);
            }
        }
        for (i, v) in f2.iter_mut().enumerate() {
            *v += 0.004 * ((i * 7 % 5) as f64 - 2.0);
        }
        let gj = Grid1d::from_freqs(0, 8, c, fj).unwrap();
        let gk = Grid1d::from_freqs(1, 8, c, fk).unwrap();
        let gjk = Grid2d::from_freqs((0, 1), 4, c, f2).unwrap();
        let mut trace = Vec::new();
        let mut obs = |step: usize, change: f64| trace.push((step, change));
        let m = build_response_matrix_observed(&gj, &gk, &gjk, 1e-12, 40, Some(&mut obs));
        assert_eq!(m.iterations, 40, "must stop on max_iters, not threshold");
        // Change settles to a small constant below the initial transient.
        let first = trace[0].1;
        let tail: Vec<f64> = trace[5..].iter().map(|&(_, ch)| ch).collect();
        let (lo, hi) = tail
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        assert!(hi < first * 0.2, "tail change {hi} vs transient {first}");
        assert!((hi - lo) < 1e-9, "tail is a stable cycle: [{lo}, {hi}]");
        assert!(m.entries().iter().all(|v| v.is_finite() && *v >= 0.0));
        let total: f64 = m.entries().iter().sum();
        assert!((total - 1.0).abs() < 0.05, "total {total}");
    }

    #[test]
    fn observer_that_fits_on_the_same_thread_leaves_the_fit_alone() {
        // A pass takes the thread's scratch out for its duration, so a fit
        // run from inside the observer works in a scratch of its own.
        let c = 16;
        let gj = uniform_1d(0, 8, c);
        let gk = uniform_1d(1, 4, c);
        let gjk = Grid2d::from_freqs((0, 1), 2, c, vec![0.4, 0.1, 0.2, 0.3]).unwrap();
        let inner_jk = Grid2d::from_freqs((0, 1), 4, c, vec![1.0 / 16.0; 16]).unwrap();
        let plain = build_response_matrix(&gj, &gk, &gjk, 0.0, 12);
        let mut inner = Vec::new();
        let mut obs =
            |_: usize, _: f64| inner.push(build_response_matrix(&gk, &gj, &inner_jk, 0.0, 3));
        let nested = build_response_matrix_observed(&gj, &gk, &gjk, 0.0, 12, Some(&mut obs));
        let bits = |m: &ResponseMatrix| m.entries().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&nested), bits(&plain));
        assert_eq!(nested.final_change.to_bits(), plain.final_change.to_bits());
        let alone = build_response_matrix(&gk, &gj, &inner_jk, 0.0, 3);
        assert_eq!(inner.len(), 12);
        assert!(inner.iter().all(|m| bits(m) == bits(&alone)));
    }

    /// Deterministic pseudo-random f64 in [0, 1).
    fn unit(a: usize, b: usize) -> f64 {
        let x = (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (b as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let x = (x ^ (x >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The three grids of a pair at `(c, g_j, g_k, g2)`: the marginals of a
    /// skewed joint, then by `kind` noisy (cap-bound), consistent, raw and
    /// partly negative, or consistent with zero-mass rows and columns.
    fn kind_grids(
        (c, gj, gk, g2): (usize, usize, usize, usize),
        kind: usize,
        salt: usize,
    ) -> (Grid1d, Grid1d, Grid2d) {
        let zero = |i: usize| kind % 4 == 3 && i.is_multiple_of(3);
        let mut fj = vec![0.0; gj];
        let mut fk = vec![0.0; gk];
        let mut f2 = vec![0.0; g2 * g2];
        for r in 0..c {
            for col in 0..c {
                let v = if zero(r) || zero(col) {
                    0.0
                } else {
                    0.05 + unit(salt, r * c + col)
                };
                fj[r * gj / c] += v;
                fk[col * gk / c] += v;
                f2[(r * g2 / c) * g2 + col * g2 / c] += v;
            }
        }
        for (t, f) in [&mut fj, &mut fk, &mut f2].into_iter().enumerate() {
            let total: f64 = f.iter().sum();
            let spread = 2.0 / f.len() as f64;
            for (i, v) in f.iter_mut().enumerate() {
                let u = unit(salt ^ 0xA5, 16 * i + t);
                match kind % 4 {
                    0 => *v *= 0.8 + 0.4 * u,
                    2 => *v = *v / total + spread * (u - 0.6),
                    _ => *v /= total,
                }
            }
        }
        (
            Grid1d::from_freqs(0, gj, c, fj).unwrap(),
            Grid1d::from_freqs(1, gk, c, fk).unwrap(),
            Grid2d::from_freqs((0, 1), g2, c, f2).unwrap(),
        )
    }

    fn lane_bits<const L: usize>(vals: &[[f64; L]]) -> Vec<u64> {
        vals.iter().flatten().map(|v| v.to_bits()).collect()
    }

    /// From the block values of each of the first `sweeps` sweeps, runs one
    /// fast and one exact sweep of an `L`-lane pass over `group`. Returns
    /// how many live-lane sweeps there were and in how many the fast change
    /// differed from the exact one.
    fn fast_against_exact<const L: usize>(
        group: &[(Grid1d, Grid1d, Grid2d)],
        sweeps: usize,
    ) -> (usize, usize) {
        let mut matrices: Vec<ResponseMatrix> = group
            .iter()
            .map(|g| ResponseMatrix::unfitted(g.2.domain()))
            .collect();
        let fits: Vec<PairFit<'_>> = matrices
            .iter_mut()
            .zip(group)
            .map(|(matrix, (g_j, g_k, g_jk))| PairFit {
                matrix,
                g_j,
                g_k,
                g_jk,
            })
            .collect();
        let shape = Shape::of(&fits[0]);
        let bound = shape.change_bound() / 2.0;
        let mut scratch = GroupScratch::default();
        let mut pass = Pass::<L>::load(&fits, shape, 0.0, sweeps, &mut scratch);
        pass.vals.fill([1.0 / (shape.c * shape.c) as f64; L]);
        let active = std::array::from_fn(|l| l < group.len());
        let (mut checked, mut differ) = (0, 0);
        for sweep in 1..=sweeps {
            let start = pass.vals.to_vec();
            let approx = pass.sweep_once::<false>(&active);
            let fast = lane_bits(pass.vals);
            pass.vals.copy_from_slice(&start);
            let exact = pass.sweep_once::<true>(&active);
            assert_eq!(
                fast,
                lane_bits(pass.vals),
                "{shape:?} sweep {sweep}: blocks"
            );
            for l in 0..group.len() {
                let (a, e) = (approx[l], exact[l]);
                assert!(e.is_finite(), "{shape:?} sweep {sweep} lane {l}: {e}");
                assert!(
                    (a - e).abs() <= bound * a,
                    "{shape:?} sweep {sweep} lane {l}: fast {a:e}, exact {e:e}, bound {bound:e}"
                );
                checked += 1;
                differ += usize::from(a != e);
            }
        }
        (checked, differ)
    }

    #[test]
    fn fast_sweeps_keep_the_blocks_and_stay_within_the_certified_bound() {
        // A fast sweep must leave the block values bit-identical to an
        // exact one, and its change within `EB / 2` of the exact change
        // relative to itself (module docs, "Certified change").
        let (mut checked, mut differ) = (0, 0);
        let shapes = [
            (16, 8, 4, 4),
            (64, 32, 32, 4),
            (64, 64, 16, 8),
            (32, 2, 16, 32),
            (128, 128, 128, 4),
        ];
        for (i, &shape) in shapes.iter().enumerate() {
            for kind in 0..4 {
                let lone = [kind_grids(shape, kind, i)];
                let (n, d) = fast_against_exact::<1>(&lone, 6);
                let group: Vec<_> = (0..GROUP_LANES)
                    .map(|l| kind_grids(shape, kind + l, 10 * i + l))
                    .collect();
                let (m, e) = fast_against_exact::<GROUP_LANES>(&group, 6);
                checked += n + m;
                differ += d + e;
            }
        }
        // The two summation orders must actually disagree somewhere, or
        // the bound is never put to the test.
        assert!(
            differ * 10 > checked,
            "fast and exact changes differ in only {differ} of {checked} sweeps"
        );
    }

    #[test]
    fn respects_max_iters() {
        let c = 8;
        let gj = uniform_1d(0, 4, c);
        let gk = uniform_1d(1, 4, c);
        // Inconsistent (unnormalized) 2-D grid keeps the loop alive.
        let gjk = Grid2d::from_freqs((0, 1), 2, c, vec![0.9, 0.8, 0.7, 0.9]).unwrap();
        let m = build_response_matrix(&gj, &gk, &gjk, 0.0, 7);
        assert_eq!(m.iterations, 7);
    }
}
