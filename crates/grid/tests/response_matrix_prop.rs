//! Bit-identity of the block-compressed, pair-grouped Algorithm 1.
//!
//! [`build_response_matrix_reference`] is the rectangle-at-a-time form of
//! Algorithm 1. The production kernel keeps one value per block of
//! bit-equal entries, walks several rectangles of a sweep stage side by
//! side, and fits up to four pairs at once, one per SIMD lane
//! ([`fit_group`]). Every pair must still reproduce the reference **bit for
//! bit** — entries, prefix-table sums, `iterations`, `final_change` and
//! every observer call — or HDG's golden answers, and the serial ≡ sharded
//! ≡ restored contract built on them, silently move.
//!
//! Covered, for lone pairs: every power-of-two domain from 2 to 256 with
//! `g_j ≠ g_k`; stages with fewer rectangles than are walked side by side;
//! zero-mass rectangles (the `y == 0` skip); negative, unnormalized inputs
//! as in the IHDG ablation (post-processing off); `threshold = 0` (always
//! run to the cap), consistent inputs that converge early, and the
//! one-sweep floor. For groups, through the dispatched, portable and AVX2
//! bodies: 1 to 4 live lanes, lanes that converge early beside lanes that
//! run to the cap, blocks whose height comes from `g2`, single-entry
//! blocks, and inputs whose entries overflow to infinity and NaN. The
//! un-observed entry points sweep fast and certify each change; thresholds
//! set on a sweep's exact change, and one ulp either side, pin the exact
//! restart. Runs in debug and release in CI.

use privmdr_grid::response_matrix::{
    build_response_matrix, build_response_matrix_observed, build_response_matrix_reference,
    fit_group, fit_group_portable, PairFit, ResponseMatrix, GROUP_LANES,
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

    // The un-observed entry point, whose sweeps run fast (certified)
    // where the observed one runs exact, and the prefix table agree as
    // well.
    let plain = build_response_matrix(gj, gk, gjk, threshold, max_iters);
    assert_eq!(bits(&plain), bits(&slow), "{label}: un-observed entries");
    assert_eq!(
        plain.iterations, slow.iterations,
        "{label}: un-observed iterations"
    );
    assert_eq!(
        plain.final_change.to_bits(),
        slow.final_change.to_bits(),
        "{label}: un-observed final_change {} vs {}",
        plain.final_change,
        slow.final_change
    );
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
    // The kernel walks four rectangles of a stage side by side. g = 1 and
    // g1 = 2 bands never fill such a group and run as remainders alone;
    // g = 4 bands and g2 = 2 (4 cells) fill exactly one; 16 bands next to
    // 2 mix stages of full groups with remainder-only stages.
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
    // max_iters = 0 still runs one sweep: the cap has a floor of one.
    let sweeps = assert_matches_reference(&noisy_grids(s, 7), 1e-7, 0, "max_iters 0");
    assert_eq!(sweeps, 1);
}

type Grids = (Grid1d, Grid1d, Grid2d);

/// One way to run a grouped pass.
type GroupFit = fn(&mut [PairFit<'_>], f64, usize) -> Option<()>;

/// The grouped entry points: dispatched, portable, and AVX2 (which
/// returns `None` on a CPU without it).
fn group_fits() -> Vec<(&'static str, GroupFit)> {
    let mut fits: Vec<(&'static str, GroupFit)> = vec![
        ("dispatched", |f, t, m| {
            fit_group(f, t, m);
            Some(())
        }),
        ("portable", |f, t, m| {
            fit_group_portable(f, t, m);
            Some(())
        }),
    ];
    #[cfg(target_arch = "x86_64")]
    fits.push(("avx2", privmdr_grid::response_matrix::fit_group_avx2));
    fits
}

/// Fits `group` in one pass through every grouped entry point and asserts
/// that each lane matches the reference bit for bit. Returns each pair's
/// sweep count.
fn assert_group_matches_reference(
    group: &[Grids],
    threshold: f64,
    max_iters: usize,
    label: &str,
) -> Vec<usize> {
    let reference: Vec<ResponseMatrix> = group
        .iter()
        .map(|(gj, gk, gjk)| {
            build_response_matrix_reference(gj, gk, gjk, threshold, max_iters, None)
        })
        .collect();
    for (name, fit) in group_fits() {
        let mut matrices: Vec<ResponseMatrix> = group
            .iter()
            .map(|g| ResponseMatrix::unfitted(g.2.domain()))
            .collect();
        let mut fits: Vec<PairFit<'_>> = matrices
            .iter_mut()
            .zip(group)
            .map(|(matrix, (g_j, g_k, g_jk))| PairFit {
                matrix,
                g_j,
                g_k,
                g_jk,
            })
            .collect();
        if fit(&mut fits, threshold, max_iters).is_none() {
            continue;
        }
        for (lane, (got, want)) in matrices.iter().zip(&reference).enumerate() {
            let label = format!("{label} {name} lane {lane}/{}", group.len());
            assert_eq!(bits(got), bits(want), "{label}: entries");
            assert_eq!(got.iterations, want.iterations, "{label}: iterations");
            assert_eq!(
                got.final_change.to_bits(),
                want.final_change.to_bits(),
                "{label}: final_change {} vs {}",
                got.final_change,
                want.final_change
            );
            let c = got.domain();
            for lo in [0, c / 3, c / 2] {
                for hi in [lo, (lo + c) / 2, c - 1] {
                    let rect = ((lo, hi), (c - 1 - hi, c - 1 - lo));
                    assert_eq!(
                        got.rect_sum(rect).to_bits(),
                        want.rect_sum(rect).to_bits(),
                        "{label}: rect_sum {rect:?}"
                    );
                }
            }
        }
    }
    reference.iter().map(|m| m.iterations).collect()
}

/// Grids for the `lane`-th pair of a group: noisy (cap-bound), consistent
/// (converging early), raw-negative, or with zero-mass cells, by `kind`.
fn grids_of_kind(s: Shape, kind: usize, salt: u64) -> Grids {
    match kind % 4 {
        0 => noisy_grids(s, salt),
        1 => consistent_grids(s, &joint(s.c, salt, 0)),
        2 => negative_grids(s, salt),
        _ => consistent_grids(s, &joint(s.c, salt, 3)),
    }
}

#[test]
fn groups_of_one_to_four_pairs_match_the_reference() {
    for (c, gj, gk, g2) in [
        (64, 32, 32, 4),
        (64, 16, 16, 4),
        (64, 64, 64, 8),
        (32, 8, 16, 2),
        (16, 2, 4, 4),
    ] {
        let s = Shape { c, gj, gk, g2 };
        for live in 1..=GROUP_LANES {
            let group: Vec<Grids> = (0..live)
                .map(|lane| noisy_grids(s, 10 * lane as u64 + live as u64))
                .collect();
            let label = format!("{s:?} noisy");
            let sweeps = assert_group_matches_reference(&group, 1e-7, 40, &label);
            assert!(
                sweeps.iter().all(|&n| n == 40),
                "{label}: cap-bound {sweeps:?}"
            );
        }
    }
}

#[test]
fn groups_mixing_early_convergence_with_cap_bound_lanes_match_the_reference() {
    // Consistent lanes stop after a few sweeps and must not move again
    // while the noisy and raw-negative lanes of the same pass run on.
    for (c, gj, gk, g2) in [(64, 32, 32, 4), (32, 16, 8, 4), (16, 16, 16, 2)] {
        let s = Shape { c, gj, gk, g2 };
        for first in 0..4 {
            let group: Vec<Grids> = (0..GROUP_LANES)
                .map(|lane| grids_of_kind(s, first + lane, 100 + lane as u64))
                .collect();
            let label = format!("{s:?} kinds from {first}");
            let sweeps = assert_group_matches_reference(&group, 1e-9, 60, &label);
            assert!(
                sweeps.iter().any(|&n| n < 60) && sweeps.contains(&60),
                "{label}: want early and cap-bound lanes, got {sweeps:?}"
            );
        }
        // Three live lanes and one padding lane, early lane last.
        let group: Vec<Grids> = [0, 2, 1]
            .iter()
            .map(|&kind| grids_of_kind(s, kind, 7))
            .collect();
        assert_group_matches_reference(&group, 1e-9, 60, &format!("{s:?} 3 live"));
    }
}

#[test]
fn groups_whose_block_height_comes_from_g2_match_the_reference() {
    // g2 > g_j: blocks are c/g2 rows high; g2 > g_k as well in the last
    // shape, so blocks are as wide as 2-D cells.
    for (c, gj, gk, g2) in [(64, 4, 16, 16), (32, 2, 8, 4), (64, 8, 8, 32)] {
        let s = Shape { c, gj, gk, g2 };
        let group: Vec<Grids> = (0..GROUP_LANES)
            .map(|lane| grids_of_kind(s, lane, 3 + lane as u64))
            .collect();
        assert_group_matches_reference(&group, 1e-7, 50, &format!("{s:?}"));
    }
}

#[test]
fn groups_at_threshold_zero_and_the_sweep_floor_match_the_reference() {
    let s = Shape {
        c: 64,
        gj: 16,
        gk: 32,
        g2: 4,
    };
    let group: Vec<Grids> = (0..3).map(|lane| noisy_grids(s, 40 + lane)).collect();
    let sweeps = assert_group_matches_reference(&group, 0.0, 30, "threshold 0");
    assert_eq!(sweeps, vec![30; 3]);
    let sweeps = assert_group_matches_reference(&group, 1e-7, 0, "max_iters 0");
    assert_eq!(sweeps, vec![1; 3], "the cap has a floor of one sweep");
    let sweeps = assert_group_matches_reference(&group, f64::NAN, 30, "NaN threshold");
    assert_eq!(sweeps, vec![0; 3], "a NaN threshold runs no sweep");
}

#[test]
fn thresholds_on_a_sweeps_exact_change_match_the_reference() {
    // A fast sweep continues a lane only when its change certifies
    // `exact >= threshold`. A threshold equal to a converging lane's exact
    // change at sweep k, or one ulp either side, leaves the fast change
    // uncertifiable there, so the pass must restart exactly and stop the
    // lane at the reference's sweep, while cap-bound lanes beside it run on.
    for (c, gj, gk, g2) in [(64, 32, 32, 4), (32, 8, 16, 2), (16, 16, 16, 16)] {
        let s = Shape { c, gj, gk, g2 };
        let converging = consistent_grids(s, &joint(c, 21, 0));
        let mut trace = Vec::new();
        let mut obs = |_: usize, ch: f64| trace.push(ch);
        let (gj_grid, gk_grid, gjk_grid) = &converging;
        build_response_matrix_reference(gj_grid, gk_grid, gjk_grid, 0.0, 4, Some(&mut obs));
        // Consistent inputs fall to the rounding floor (about 1e-15) after
        // one sweep; noisy lanes settle near their residual (above 0.05),
        // so from sweep 2 on the edge leaves them cap-bound.
        for (k, &edge) in (1..).zip(&trace) {
            for threshold in [edge.next_down(), edge, edge.next_up()] {
                let label = format!("{s:?} sweep {k} threshold {threshold:e}");
                let sweeps = assert_matches_reference(&converging, threshold, 40, &label);
                assert!(sweeps < 40, "{label}: converging lane hit the cap");
                for live in 1..=GROUP_LANES {
                    let group: Vec<Grids> = std::iter::once(converging.clone())
                        .chain((1..live).map(|lane| noisy_grids(s, 30 + lane as u64)))
                        .collect();
                    let sweeps = assert_group_matches_reference(&group, threshold, 40, &label);
                    assert!(sweeps[0] < 40, "{label}: converging lane hit the cap");
                    assert!(
                        k == 1 || sweeps[1..].iter().all(|&n| n == 40),
                        "{label}: {sweeps:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn groups_whose_entries_go_non_finite_match_the_reference() {
    // Targets near f64::MAX overflow the first rescale to infinity; the
    // next stage's infinite mass turns entries into NaN and the change into
    // NaN, which ends that lane. The other lanes run on to the cap.
    let s = Shape {
        c: 32,
        gj: 16,
        gk: 16,
        g2: 4,
    };
    let overflowing = || {
        let (mut gj, gk, gjk) = noisy_grids(s, 9);
        gj.freqs.iter_mut().for_each(|v| *v = f64::MAX);
        (gj, gk, gjk)
    };
    let group = vec![noisy_grids(s, 1), overflowing(), negative_grids(s, 2)];
    let sweeps = assert_group_matches_reference(&group, 1e-7, 20, "overflow");
    assert_eq!(sweeps, vec![20, 1, 20]);
    let (m, ..) = {
        let (gj, gk, gjk) = overflowing();
        (build_response_matrix(&gj, &gk, &gjk, 1e-7, 20), ())
    };
    assert!(m.entries().iter().all(|v| v.is_nan()), "entries go NaN");
    assert!(m.final_change.is_nan());
}

proptest! {
    /// Random geometry and a random group of 1 to 4 pairs, each noisy,
    /// consistent, raw-negative or with zero-mass cells.
    #[test]
    fn groups_match_reference_on_random_geometry(
        c_exp in 1u32..7,
        gj_exp in 0u32..7,
        gk_exp in 0u32..7,
        g2_exp in 0u32..7,
        live in 1usize..=GROUP_LANES,
        kinds in 0usize..256,
        salt in 0u64..1_000_000,
    ) {
        let c = 1usize << c_exp;
        let g = |e: u32| 1usize << e.min(c_exp);
        let s = Shape { c, gj: g(gj_exp), gk: g(gk_exp), g2: g(g2_exp) };
        let group: Vec<Grids> = (0..live)
            .map(|lane| grids_of_kind(s, kinds >> (2 * lane), salt + lane as u64))
            .collect();
        assert_group_matches_reference(&group, 1e-7, 25, &format!("{s:?} salt {salt}"));
    }

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
