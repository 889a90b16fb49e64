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
//! # The lane-interleaved sweep
//!
//! A sweep has three stages: the `g1` row bands of `G(j)`, the `g1` column
//! bands of `G(k)`, and the `g2²` cells of `G(j,k)`. Within one stage the
//! rectangles are disjoint and share one shape, so rescaling one never
//! touches another's entries. The kernel therefore walks `LANES` (8)
//! rectangles of a stage side by side, one accumulator per rectangle:
//! each rectangle still sums and rescales its own entries in row-major
//! order, skips itself when its mass is zero, and its change is added to
//! the running total in the original rectangle order. Every f64 operation
//! sequence is the one the rectangle-at-a-time loop performs, so entries,
//! `iterations`, `final_change` and the observer trace are **bit-identical**
//! to [`build_response_matrix_reference`]; only the serial add chains are
//! gone. `tests/response_matrix_prop.rs` pins this down.
//!
//! Inputs that went through Phase-2 post-processing are consistent only up
//! to the post-processing's own residual, so on real collections the total
//! change settles near that residual, orders of magnitude above the
//! default threshold of `1e-7`, and every pair runs the full `max_iters`
//! sweeps; the kernel's throughput, not convergence, sets the cost.

use crate::grid1d::Grid1d;
use crate::grid2d::Grid2d;
use crate::prefix::PrefixSum2d;

/// Rectangles rescaled side by side within one sweep stage: enough
/// independent f64 add chains to keep the FP units busy.
const LANES: usize = 8;

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
    /// computed yet. [`ResponseMatrix::fit`] fills them in place without
    /// allocating, so a caller can allocate on its own thread and fit on
    /// worker threads (see `privmdr_util::par::par_for_each_mut`).
    pub fn unfitted(c: usize) -> Self {
        ResponseMatrix {
            c,
            data: vec![0.0; c * c],
            prefix: PrefixSum2d::zeros(c, c),
            final_change: f64::INFINITY,
            iterations: 0,
        }
    }

    /// Runs Algorithm 1 into this matrix's buffers, with an optional
    /// per-sweep observer. `threshold` is the total-change stopping
    /// criterion (paper: any value below `1/n` gives indistinguishable
    /// results); `max_iters` bounds the sweep count (the paper's Appendix
    /// A.1 uses 100).
    pub fn fit(
        &mut self,
        g_j: &Grid1d,
        g_k: &Grid1d,
        g_jk: &Grid2d,
        threshold: f64,
        max_iters: usize,
        mut observer: Option<SweepObserver<'_>>,
    ) {
        let c = self.c;
        assert_eq!(g_jk.domain(), c, "pair grid domain must match the matrix");
        assert_eq!(g_j.domain(), c, "1-D grid domains must match the pair grid");
        assert_eq!(g_k.domain(), c, "1-D grid domains must match the pair grid");

        let m = &mut self.data;
        m.fill(1.0 / (c * c) as f64);
        let mut change = f64::INFINITY;
        let mut iterations = 0usize;

        while iterations < max_iters.max(1) && change >= threshold {
            change = 0.0;
            // G(j): each cell constrains a row band [rows] × [0, c).
            scale_tiling(m, c, g_j.freqs.len(), 1, &g_j.freqs, &mut change);
            // G(k): each cell constrains a column band [0, c) × [cols].
            scale_tiling(m, c, 1, g_k.freqs.len(), &g_k.freqs, &mut change);
            // G(j,k): each cell constrains its own rectangle.
            let g2 = g_jk.granularity();
            scale_tiling(m, c, g2, g2, &g_jk.freqs, &mut change);
            iterations += 1;
            if let Some(obs) = observer.as_mut() {
                obs(iterations, change);
            }
        }

        self.prefix.refill(m);
        self.final_change = change;
        self.iterations = iterations;
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

/// Runs Algorithm 1 (see [`ResponseMatrix::fit`]).
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
    matrix.fit(g_j, g_k, g_jk, threshold, max_iters, observer);
    matrix
}

/// One sweep stage: rescales each of the `rows × cols` equal rectangles
/// tiling the `c × c` matrix `m` to its target (`targets` in row-major
/// rectangle order), [`LANES`] rectangles at a time, adding each
/// rectangle's change to `change` in rectangle order.
fn scale_tiling(
    m: &mut [f64],
    c: usize,
    rows: usize,
    cols: usize,
    targets: &[f64],
    change: &mut f64,
) {
    assert!(rows > 0 && cols > 0 && c.is_multiple_of(rows) && c.is_multiple_of(cols));
    assert_eq!(targets.len(), rows * cols);
    assert_eq!(m.len(), c * c);
    let (h, w) = (c / rows, c / cols);
    let origin = |i: usize| (i / cols) * h * c + (i % cols) * w;
    let mut groups = targets.chunks_exact(LANES);
    let tail_start = targets.len() - groups.remainder().len();
    // SAFETY: `scale_lanes` reads and writes `origin[l] + r * c + col` for
    // `r < h`, `col < w`. Rectangle `i < rows * cols` starts at row
    // `(i / cols) * h` and column `(i % cols) * w`, and the asserts above
    // make `rows * h == c` and `cols * w == c` (for grids, `check_geometry`
    // already forces power-of-two granularities dividing `c`), so every
    // rectangle lies inside the `c × c` slice. Distinct `i` tile disjoint
    // rectangles, so no two lanes of one call touch the same entry, and
    // `origin` increases with `i`, so each call's first origin is its least.
    unsafe {
        for (g, t) in (&mut groups).enumerate() {
            let origins = std::array::from_fn(|l| origin(g * LANES + l));
            let t: &[f64; LANES] = t.try_into().expect("chunk of LANES");
            scale_lanes(m, c, h, w, origins, t, change);
        }
        for (i, &t) in targets.iter().enumerate().skip(tail_start) {
            scale_lanes(m, c, h, w, [origin(i)], &[t], change);
        }
    }
}

/// Rescales `L` disjoint `h × w` rectangles of `m` (row stride `c`, top-left
/// entries at `origins`) so each sums to its `targets` lane, exactly as
/// [`scale_rect`] would one after another: each lane sums and rescales in
/// row-major order, a zero-mass lane is left unchanged and contributes
/// `0.0`, and the lanes' changes are added to `change` in lane order.
///
/// Raw pointers rather than slice indexing: with bounds checks the kernel
/// ran 1.4× faster than the reference instead of 2.0× (c=64, g1=32, g2=4,
/// 2-CPU x86-64 host).
///
/// # Safety
///
/// Every index `origins[l] + r * c + col` with `r < h`, `col < w` must be in
/// bounds of `m`, the `L` rectangles must not overlap, and `origins` must
/// be ascending.
#[inline(always)]
unsafe fn scale_lanes<const L: usize>(
    m: &mut [f64],
    c: usize,
    h: usize,
    w: usize,
    origins: [usize; L],
    targets: &[f64; L],
    change: &mut f64,
) {
    // Lane `l` sits `offsets[l]` entries after lane 0 in every row, so one
    // moving pointer plus loop-invariant offsets addresses all lanes.
    let base = m.as_mut_ptr().add(origins[0]);
    let offsets: [usize; L] = std::array::from_fn(|l| origins[l] - origins[0]);
    let mut y = [0.0f64; L];
    for r in 0..h {
        let row = base.add(r * c);
        for col in 0..w {
            let q = row.add(col);
            for l in 0..L {
                y[l] += *q.add(offsets[l]);
            }
        }
    }
    // Algorithm 1 line 7 skips a zero-mass rectangle. A zero sum means
    // every entry is finite, and `v * 1.0 == v`, `|v - v| == 0.0` for
    // finite `v`, so a factor of 1 leaves the entries bit-for-bit alone
    // and adds exactly the `0.0` the skip returns.
    let factor: [f64; L] =
        std::array::from_fn(|l| if y[l] == 0.0 { 1.0 } else { targets[l] / y[l] });
    let mut lane_change = [0.0f64; L];
    for r in 0..h {
        let row = base.add(r * c);
        for col in 0..w {
            let q = row.add(col);
            for l in 0..L {
                let v = q.add(offsets[l]);
                let new = *v * factor[l];
                lane_change[l] += (new - *v).abs();
                *v = new;
            }
        }
    }
    for ch in lane_change {
        *change += ch;
    }
}

/// The rectangle-at-a-time form of Algorithm 1, kept as the reference
/// implementation the lane-interleaved [`ResponseMatrix::fit`] is proven
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
