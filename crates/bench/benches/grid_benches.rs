//! Timed kernels of the grid substrate: Norm-Sub, the attribute-consistency
//! step, and Algorithm 1 (response-matrix construction) across domain sizes
//! — the per-pair cost that dominates HDG's Phase 3 setup (Fig. 3's c sweep).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use privmdr_grid::consistency::{post_process, PostProcessConfig};
use privmdr_grid::pairs::pair_list;
use privmdr_grid::response_matrix::{
    build_response_matrix, fit_group, fit_group_portable, PairFit, ResponseMatrix, GROUP_LANES,
};
use privmdr_grid::{norm_sub, Grid1d, Grid2d};
use std::hint::black_box;

fn noisy(i: usize, scale: f64) -> f64 {
    ((i as f64) * 0.7).sin() * scale + 1.0 / 64.0
}

fn bench_norm_sub(c: &mut Criterion) {
    let mut group = c.benchmark_group("norm_sub");
    for &len in &[64usize, 4096, 65_536] {
        let base: Vec<f64> = (0..len).map(|i| noisy(i, 0.01)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(len), &base, |b, base| {
            b.iter(|| {
                let mut x = base.clone();
                norm_sub(&mut x, 1.0);
                black_box(x)
            })
        });
    }
    group.finish();
}

fn bench_consistency(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase2_post_process");
    for &d in &[3usize, 6, 10] {
        let cdom = 64usize;
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            b.iter(|| {
                let mut one_d: Vec<Option<Grid1d>> = (0..d)
                    .map(|t| {
                        Some(
                            Grid1d::from_freqs(
                                t,
                                16,
                                cdom,
                                (0..16).map(|i| noisy(i + t, 0.02)).collect(),
                            )
                            .unwrap(),
                        )
                    })
                    .collect();
                let mut two_d: Vec<Grid2d> = pair_list(d)
                    .into_iter()
                    .map(|(j, k)| {
                        Grid2d::from_freqs(
                            (j, k),
                            4,
                            cdom,
                            (0..16).map(|i| noisy(i + j + 3 * k, 0.02)).collect(),
                        )
                        .unwrap()
                    })
                    .collect();
                post_process(d, &mut one_d, &mut two_d, &PostProcessConfig::default());
                black_box((one_d, two_d))
            })
        });
    }
    group.finish();
}

/// Consistent product-form grids at `(g1, g1, g2)`: the 1-D grids and the
/// 2-D cells (the products of their block sums).
fn product_grids(cdom: usize, g1: usize, g2: usize) -> (Grid1d, Grid1d, Vec<f64>) {
    let f1: Vec<f64> = {
        let raw: Vec<f64> = (0..g1)
            .map(|i| 1.0 + (i as f64 * 0.3).cos().abs())
            .collect();
        let t: f64 = raw.iter().sum();
        raw.iter().map(|x| x / t).collect()
    };
    let gj = Grid1d::from_freqs(0, g1, cdom, f1.clone()).unwrap();
    let gk = Grid1d::from_freqs(1, g1, cdom, f1.clone()).unwrap();
    let blk = |b: usize| -> f64 { f1[b * (g1 / g2)..(b + 1) * (g1 / g2)].iter().sum() };
    let mut f2 = vec![0.0; g2 * g2];
    for a in 0..g2 {
        for bcol in 0..g2 {
            f2[a * g2 + bcol] = blk(a) * blk(bcol);
        }
    }
    (gj, gk, f2)
}

/// The 2-D perturbation of the unit test `inconsistent_grids_cycle_boundedly`:
/// consistent only up to a residual, like real post-processed grids, so
/// every run hits the 100-sweep cap. This is the cost a publish actually
/// pays.
fn perturb(f2: &mut [f64]) {
    for (i, v) in f2.iter_mut().enumerate() {
        *v += 0.004 * ((i * 7 % 5) as f64 - 2.0);
    }
}

/// A grouped Algorithm 1 entry point.
type GroupFit = fn(&mut [PairFit<'_>], f64, usize);

fn bench_response_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_response_matrix");
    group.sample_size(20);
    let g2 = 4;
    for &cdom in &[64usize, 256, 1024] {
        // Consistent product-form inputs: Algorithm 1 converges within a
        // few sweeps, so this times the setup and the first sweeps.
        let (gj, gk, mut f2) = product_grids(cdom, 16.min(cdom), g2);
        let consistent = Grid2d::from_freqs((0, 1), g2, cdom, f2.clone()).unwrap();
        group.bench_with_input(BenchmarkId::new("consistent_c", cdom), &cdom, |b, _| {
            b.iter(|| black_box(build_response_matrix(&gj, &gk, &consistent, 1e-7, 100)))
        });
        perturb(&mut f2);
        let capped = Grid2d::from_freqs((0, 1), g2, cdom, f2.clone()).unwrap();
        group.bench_with_input(BenchmarkId::new("cap_bound_c", cdom), &cdom, |b, _| {
            b.iter(|| black_box(build_response_matrix(&gj, &gk, &capped, 1e-7, 100)))
        });
        // Four cap-bound pairs, each with its own rotation of the
        // perturbation, fitted side by side in one grouped pass: the
        // per-pass cost of an HDG publish with four or more pairs, through
        // the dispatched and the portable body.
        if cdom == 64 {
            let grids: Vec<Grid2d> = (0..GROUP_LANES)
                .map(|s| {
                    let mut f = f2.clone();
                    f.rotate_left(s);
                    Grid2d::from_freqs((0, 1), g2, cdom, f).unwrap()
                })
                .collect();
            let mut matrices: Vec<ResponseMatrix> = (0..GROUP_LANES)
                .map(|_| ResponseMatrix::unfitted(cdom))
                .collect();
            let mut fits: Vec<PairFit<'_>> = matrices
                .iter_mut()
                .zip(&grids)
                .map(|(matrix, g_jk)| PairFit {
                    matrix,
                    g_j: &gj,
                    g_k: &gk,
                    g_jk,
                })
                .collect();
            for (name, fit) in [
                ("cap_bound_group4", fit_group as GroupFit),
                ("cap_bound_group4_portable", fit_group_portable),
            ] {
                group.bench_with_input(BenchmarkId::new(name, cdom), &cdom, |b, _| {
                    b.iter(|| {
                        fit(&mut fits, 1e-7, 100);
                        black_box(fits[0].matrix.final_change)
                    })
                });
            }
            assert!(
                matrices.iter().all(|m| m.iterations == 100),
                "every pair of the group must run to the cap"
            );
        }
    }
    // g1 = c: single-entry blocks, the guideline's pick at n = 10⁷ and
    // ε ≥ 0.6, where the kernel's scratch is as large as the matrix.
    let cdom = 1024;
    let (gj, gk, mut f2) = product_grids(cdom, cdom, g2);
    perturb(&mut f2);
    let capped = Grid2d::from_freqs((0, 1), g2, cdom, f2).unwrap();
    group.bench_with_input(
        BenchmarkId::new("cap_bound_g1_eq_c", cdom),
        &cdom,
        |b, _| b.iter(|| black_box(build_response_matrix(&gj, &gk, &capped, 1e-7, 100))),
    );
    let m = build_response_matrix(&gj, &gk, &capped, 1e-7, 100);
    assert_eq!(m.iterations, 100, "the g1 = c pair must run to the cap");
    group.finish();
}

criterion_group!(
    benches,
    bench_norm_sub,
    bench_consistency,
    bench_response_matrix
);
criterion_main!(benches);
