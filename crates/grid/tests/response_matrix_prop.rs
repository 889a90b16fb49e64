//! Bit-identity of the lane-interleaved Algorithm 1.
//!
//! [`build_response_matrix_reference`] is the rectangle-at-a-time form of
//! Algorithm 1. The production kernel behind [`build_response_matrix`]
//! rescales up to eight disjoint rectangles of a sweep stage side by side
//! and must reproduce the reference **bit for bit** — entries, prefix-table
//! sums, `iterations`, `final_change` and every observer call — or HDG's
//! golden answers, and the serial ≡ sharded ≡ restored contract built on
//! them, silently move.
//!
//! Covered: every power-of-two domain from 2 to 256 with `g_j ≠ g_k`;
//! stages whose rectangle count is below the lane width; zero-mass
//! rectangles (the `y == 0` skip); negative, unnormalized inputs as in the
//! IHDG ablation (post-processing off); `threshold = 0` (always run to the
//! cap) and consistent inputs that converge early. Runs in debug and
//! release in CI.

use privmdr_grid::response_matrix::{
    build_response_matrix, build_response_matrix_observed, build_response_matrix_reference,
    ResponseMatrix,
};
use privmdr_grid::{Grid1d, Grid2d};
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [0, 1) from call-site coordinates.
fn noise(a: u64, b: u64, c: u64) -> f64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Granularities of one test case.
#[derive(Debug, Clone, Copy)]
struct Shape {
    c: usize,
    gj: usize,
    gk: usize,
    g2: usize,
}

/// A skewed `c × c` joint distribution; `zero_every` > 0 blanks every
/// `zero_every`-th row and column so whole rectangles carry no mass.
fn joint(c: usize, salt: u64, zero_every: usize) -> Vec<f64> {
    let mut p: Vec<f64> = (0..c * c)
        .map(|i| {
            let (r, col) = (i / c, i % c);
            let blank = zero_every > 0 && (r % zero_every == 0 || col % zero_every == 0);
            if blank {
                0.0
            } else {
                0.05 + noise(salt, r as u64, col as u64) * (1.0 + (r * col % 7) as f64)
            }
        })
        .collect();
    let total: f64 = p.iter().sum();
    if total > 0.0 {
        p.iter_mut().for_each(|v| *v /= total);
    }
    p
}

/// Grids that are exact marginals of `p`: mutually consistent, so
/// Algorithm 1 converges.
fn consistent_grids(s: Shape, p: &[f64]) -> (Grid1d, Grid1d, Grid2d) {
    let c = s.c;
    let (wj, wk, w2) = (c / s.gj, c / s.gk, c / s.g2);
    let mut fj = vec![0.0; s.gj];
    let mut fk = vec![0.0; s.gk];
    let mut f2 = vec![0.0; s.g2 * s.g2];
    for r in 0..c {
        for col in 0..c {
            let v = p[r * c + col];
            fj[r / wj] += v;
            fk[col / wk] += v;
            f2[(r / w2) * s.g2 + col / w2] += v;
        }
    }
    (
        Grid1d::from_freqs(0, s.gj, c, fj).unwrap(),
        Grid1d::from_freqs(1, s.gk, c, fk).unwrap(),
        Grid2d::from_freqs((0, 1), s.g2, c, f2).unwrap(),
    )
}

/// Consistent grids plus independent relative noise, renormalized per grid:
/// like post-processed collections, consistent only up to a residual, so
/// the sweep runs to the cap.
fn noisy_grids(s: Shape, salt: u64) -> (Grid1d, Grid1d, Grid2d) {
    let (mut gj, mut gk, mut gjk) = consistent_grids(s, &joint(s.c, salt, 0));
    for (t, freqs) in [&mut gj.freqs, &mut gk.freqs, &mut gjk.freqs]
        .into_iter()
        .enumerate()
    {
        for (i, v) in freqs.iter_mut().enumerate() {
            *v *= 0.8 + 0.4 * noise(salt ^ 0xA5, t as u64, i as u64);
        }
        let total: f64 = freqs.iter().sum();
        freqs.iter_mut().for_each(|v| *v /= total);
    }
    (gj, gk, gjk)
}

/// Raw, unnormalized estimates with negative cells: the IHDG ablation,
/// where Phase 2 is skipped and OLH noise reaches Algorithm 1 directly.
fn negative_grids(s: Shape, salt: u64) -> (Grid1d, Grid1d, Grid2d) {
    let (mut gj, mut gk, mut gjk) = consistent_grids(s, &joint(s.c, salt, 0));
    for (t, freqs) in [&mut gj.freqs, &mut gk.freqs, &mut gjk.freqs]
        .into_iter()
        .enumerate()
    {
        let spread = 2.0 / freqs.len() as f64;
        for (i, v) in freqs.iter_mut().enumerate() {
            *v += spread * (noise(salt ^ 0x5A, t as u64, i as u64) - 0.6);
        }
    }
    (gj, gk, gjk)
}

fn bits(m: &ResponseMatrix) -> Vec<u64> {
    m.entries().iter().map(|v| v.to_bits()).collect()
}

/// Runs both paths with observers and asserts every output is identical
/// bit for bit. Returns the sweep count.
fn assert_matches_reference(
    (gj, gk, gjk): &(Grid1d, Grid1d, Grid2d),
    threshold: f64,
    max_iters: usize,
    label: &str,
) -> usize {
    let mut fast_trace = Vec::new();
    let mut obs = |s: usize, ch: f64| fast_trace.push((s, ch.to_bits()));
    let fast = build_response_matrix_observed(gj, gk, gjk, threshold, max_iters, Some(&mut obs));
    let mut ref_trace = Vec::new();
    let mut obs = |s: usize, ch: f64| ref_trace.push((s, ch.to_bits()));
    let slow = build_response_matrix_reference(gj, gk, gjk, threshold, max_iters, Some(&mut obs));

    assert_eq!(bits(&fast), bits(&slow), "{label}: entries");
    assert_eq!(fast.iterations, slow.iterations, "{label}: iterations");
    assert_eq!(
        fast.final_change.to_bits(),
        slow.final_change.to_bits(),
        "{label}: final_change {} vs {}",
        fast.final_change,
        slow.final_change
    );
    assert_eq!(fast_trace, ref_trace, "{label}: observer trace");
    assert_eq!(
        fast_trace.len(),
        fast.iterations,
        "{label}: one call per sweep"
    );

    // The un-observed entry point and the prefix table agree as well.
    let plain = build_response_matrix(gj, gk, gjk, threshold, max_iters);
    assert_eq!(bits(&plain), bits(&slow), "{label}: un-observed entries");
    let c = gjk.domain();
    for lo in [0, c / 3, c / 2] {
        for hi in [lo, (lo + c) / 2, c - 1] {
            let rect = ((lo, hi), (c - 1 - hi, c - 1 - lo));
            assert_eq!(
                fast.rect_sum(rect).to_bits(),
                slow.rect_sum(rect).to_bits(),
                "{label}: rect_sum {rect:?}"
            );
        }
    }
    fast.iterations
}

fn powers_of_two(c: usize) -> Vec<usize> {
    (0..=c.trailing_zeros()).map(|e| 1usize << e).collect()
}

#[test]
fn matches_reference_at_every_power_of_two_domain() {
    for c in powers_of_two(256).into_iter().skip(1) {
        let gs = powers_of_two(c);
        // Rotate the granularity list so g_j, g_k and g2 all differ
        // wherever the domain has three granularities to offer.
        for (i, &gj) in gs.iter().enumerate() {
            let gk = gs[(i + 1) % gs.len()];
            let g2 = gs[(i + 2) % gs.len()];
            assert_ne!(gj, gk);
            let s = Shape { c, gj, gk, g2 };
            let max_iters = if c >= 128 { 12 } else { 40 };
            for salt in 0..2 {
                let label = format!("{s:?} salt {salt}");
                assert_matches_reference(&noisy_grids(s, salt), 1e-7, max_iters, &label);
            }
        }
    }
}

#[test]
fn matches_reference_when_rectangle_counts_are_below_the_lane_width() {
    // g1 = 2 bands and g2 = 2 (4 cells) never fill an 8-lane group; g = 1
    // and 4 exercise the other sub-lane counts, and 16 bands next to 2
    // mixes full groups with a lone remainder stage.
    for (c, gj, gk, g2) in [
        (16, 2, 2, 2),
        (64, 2, 2, 2),
        (64, 1, 4, 2),
        (32, 4, 1, 1),
        (64, 16, 2, 2),
    ] {
        let s = Shape { c, gj, gk, g2 };
        for salt in 0..3 {
            let label = format!("{s:?} salt {salt}");
            assert_matches_reference(&noisy_grids(s, salt), 1e-7, 60, &label);
        }
    }
}

#[test]
fn matches_reference_with_zero_mass_cells() {
    for (c, gj, gk, g2, zero_every) in [
        (16, 8, 4, 4, 2),
        (32, 16, 8, 4, 4),
        (64, 32, 16, 4, 8),
        (64, 8, 32, 2, 3),
    ] {
        let s = Shape { c, gj, gk, g2 };
        for salt in 0..2 {
            let p = joint(c, salt, zero_every);
            // Consistent zero cells: zero targets on zero-mass rectangles.
            let label = format!("{s:?} zero_every {zero_every} salt {salt}");
            assert_matches_reference(&consistent_grids(s, &p), 1e-12, 40, &label);
            // Zero cells in one grid only: other grids then drive mass
            // out of rectangles whose own targets are nonzero, so later
            // stages meet empty rectangles and must skip them.
            let (mut gj_grid, gk_grid, gjk_grid) = noisy_grids(s, salt);
            for (i, v) in gj_grid.freqs.iter_mut().enumerate() {
                if i % 2 == 1 {
                    *v = 0.0;
                }
            }
            let label = format!("{s:?} one-sided zeros salt {salt}");
            let grids = (gj_grid, gk_grid, gjk_grid);
            assert_matches_reference(&grids, 1e-12, 40, &label);
        }
    }
    // The degenerate all-in-one-corner case from the unit tests, plus an
    // entirely empty 2-D grid.
    let c = 8;
    let gj = Grid1d::from_freqs(0, 4, c, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
    let gk = Grid1d::from_freqs(1, 4, c, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
    let mut corner = vec![0.0; 16];
    corner[0] = 1.0;
    let gjk = Grid2d::from_freqs((0, 1), 4, c, corner).unwrap();
    assert_matches_reference(&(gj.clone(), gk.clone(), gjk), 1e-12, 50, "corner");
    let empty = Grid2d::from_freqs((0, 1), 4, c, vec![0.0; 16]).unwrap();
    assert_matches_reference(&(gj, gk, empty), 1e-12, 50, "empty 2-D grid");
}

#[test]
fn matches_reference_on_negative_inputs_without_post_processing() {
    for (c, gj, gk, g2) in [
        (16, 8, 4, 2),
        (64, 32, 16, 4),
        (64, 16, 32, 8),
        (128, 64, 8, 4),
    ] {
        let s = Shape { c, gj, gk, g2 };
        for salt in 0..3 {
            let grids = negative_grids(s, salt);
            let negatives = [&grids.0.freqs, &grids.1.freqs, &grids.2.freqs]
                .iter()
                .flat_map(|f| f.iter())
                .filter(|v| **v < 0.0)
                .count();
            assert!(negatives > 0, "{s:?} salt {salt}: inputs must go negative");
            let label = format!("{s:?} negative salt {salt}");
            assert_matches_reference(&grids, 1e-7, 100, &label);
        }
    }
}

#[test]
fn matches_reference_at_threshold_zero_and_on_early_convergence() {
    let s = Shape {
        c: 64,
        gj: 16,
        gk: 8,
        g2: 4,
    };
    // threshold = 0: the change never drops below it, so both run to the
    // cap (or stop exactly when the change hits 0.0, which must also
    // agree).
    for salt in 0..2 {
        let label = format!("threshold 0 salt {salt}");
        let sweeps = assert_matches_reference(&noisy_grids(s, salt), 0.0, 30, &label);
        assert_eq!(sweeps, 30, "{label}");
    }
    // Consistent inputs converge long before the cap.
    for salt in 0..3 {
        let p = joint(s.c, 100 + salt, 0);
        let label = format!("converging salt {salt}");
        let sweeps = assert_matches_reference(&consistent_grids(s, &p), 1e-9, 100, &label);
        assert!(sweeps < 100, "{label}: converged after {sweeps} sweeps");
    }
    // max_iters = 0 still runs one sweep.
    let sweeps = assert_matches_reference(&noisy_grids(s, 7), 1e-7, 0, "max_iters 0");
    assert_eq!(sweeps, 1);
}

proptest! {
    /// Random geometry and inputs, noisy or raw-negative.
    #[test]
    fn matches_reference_on_random_geometry(
        c_exp in 1u32..7,
        gj_exp in 0u32..7,
        gk_exp in 0u32..7,
        g2_exp in 0u32..7,
        salt in 0u64..1_000_000,
        negative in any::<bool>(),
    ) {
        let c = 1usize << c_exp;
        let g = |e: u32| 1usize << e.min(c_exp);
        let s = Shape { c, gj: g(gj_exp), gk: g(gk_exp), g2: g(g2_exp) };
        let grids = if negative { negative_grids(s, salt) } else { noisy_grids(s, salt) };
        assert_matches_reference(&grids, 1e-7, 25, &format!("{s:?} salt {salt}"));
    }
}
