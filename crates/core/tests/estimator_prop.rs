//! Bit-identity of the optimized Weighted-Update paths.
//!
//! [`weighted_update_reference`] is the textbook Algorithm 2: a filtered
//! scan over all `2^λ` z-entries per pair. Both production paths — the
//! scalar subcube enumeration behind [`weighted_update`] and the
//! streaming-lane [`weighted_update_batch`] kernel behind the batch query
//! planner — must reproduce it **bit for bit**, in answers, sweep counts
//! and cap hits, or the repo-wide determinism contract (golden suites,
//! sharded ≡ serial, replicas answering identically) silently breaks.
//!
//! The sweep here covers: λ from 2 through 8; every batch size up to one
//! past the lanes in flight (1..=2·EST_VECTORS·EST_LANES+1), so lanes
//! refill and vectors drain at every remainder; cap-bound lanes beside
//! lanes that converge in one sweep, so refills happen mid-run and
//! answers land out of order; the `y == 0` skip path; threshold 0, NaN
//! thresholds and the `max_iters = 0` floor. Each case runs through the
//! dispatched, portable, AVX2 and AVX-512 entry points (SIMD ones where
//! the CPU has them). Runs in both debug and release in CI.

use privmdr_core::estimation::{
    weighted_update, weighted_update_batch, weighted_update_batch_portable,
    weighted_update_observed, weighted_update_reference, BatchEstimate, PairAnswer, EST_LANES,
    EST_VECTORS,
};
#[cfg(target_arch = "x86_64")]
use privmdr_core::estimation::{weighted_update_batch_avx2, weighted_update_batch_avx512};

const THRESHOLD: f64 = 1e-9;
const MAX_ITERS: usize = 100;
/// Lanes the batch kernel keeps in flight.
const IN_FLIGHT: usize = EST_VECTORS * EST_LANES;

/// Deterministic pseudo-random f64 in (0, 1) without pulling in an RNG:
/// splitmix-style avalanche of the call-site coordinates.
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

/// The `i < j` lexicographic pair-position list the planner uses.
fn all_pairs(lambda: usize) -> Vec<(usize, usize)> {
    (0..lambda)
        .flat_map(|i| ((i + 1)..lambda).map(move |j| (i, j)))
        .collect()
}

/// A varied batch of per-query pair answers for `n` queries at `lambda`:
/// mixes near-independent, strongly correlated, and tiny targets so
/// different queries converge after different sweep counts.
fn batch_inputs(lambda: usize, n: usize, salt: u64) -> Vec<f64> {
    let npairs = lambda * (lambda - 1) / 2;
    let mut fs = Vec::with_capacity(n * npairs);
    for q in 0..n {
        let scale = match q % 3 {
            0 => 1.0,
            1 => 0.1,
            _ => 0.6,
        };
        for p in 0..npairs {
            fs.push(scale * noise(salt, q as u64, p as u64));
        }
    }
    fs
}

fn to_pair_answers(pairs: &[(usize, usize)], fs: &[f64]) -> Vec<PairAnswer> {
    pairs
        .iter()
        .zip(fs)
        .map(|(&(i, j), &f)| PairAnswer { i, j, f })
        .collect()
}

#[test]
fn subcube_enumeration_matches_reference_bit_for_bit() {
    for lambda in 2..=8usize {
        let pairs = all_pairs(lambda);
        for salt in 0..4u64 {
            let fs = batch_inputs(lambda, 1, 1000 + salt);
            let pa = to_pair_answers(&pairs, &fs);
            let fast = weighted_update(lambda, &pa, THRESHOLD, MAX_ITERS);
            let slow = weighted_update_reference(lambda, &pa, THRESHOLD, MAX_ITERS);
            assert_eq!(fast.len(), slow.len());
            for (m, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "lambda {lambda} salt {salt} entry {m}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn subcube_enumeration_matches_reference_on_sparse_pair_sets() {
    // Not every pair need be present: the planner always sends the full
    // set, but the API accepts any subset (and repeats).
    let lambda = 5usize;
    let subsets: [&[(usize, usize)]; 3] = [
        &[(0, 4)],
        &[(0, 1), (2, 3), (0, 1)],
        &[(1, 3), (0, 2), (2, 4), (1, 2)],
    ];
    for (k, pairs) in subsets.iter().enumerate() {
        let fs: Vec<f64> = (0..pairs.len())
            .map(|p| noise(7, k as u64, p as u64))
            .collect();
        let pa = to_pair_answers(pairs, &fs);
        let fast = weighted_update(lambda, &pa, THRESHOLD, MAX_ITERS);
        let slow = weighted_update_reference(lambda, &pa, THRESHOLD, MAX_ITERS);
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits(), "subset {k}");
        }
    }
}

/// The scalar path's outcome for one query: the answer `z[11…1]`, the
/// sweep count, and whether it stopped on the cap with its last change
/// still `>= threshold`.
fn scalar(lambda: usize, pa: &[PairAnswer], threshold: f64, max_iters: usize) -> (f64, u64, bool) {
    let (mut sweeps, mut change) = (0usize, f64::INFINITY);
    let mut obs = |s: usize, ch: f64| (sweeps, change) = (s, ch);
    let z = weighted_update_observed(lambda, pa, threshold, max_iters, Some(&mut obs));
    let capped = sweeps == max_iters.max(1) && change >= threshold;
    (z[(1usize << lambda) - 1], sweeps as u64, capped)
}

/// Every batch entry point this CPU can run, each labelled.
fn every_backend(
    lambda: usize,
    pairs: &[(usize, usize)],
    fs: &[f64],
    threshold: f64,
    max_iters: usize,
) -> Vec<(&'static str, BatchEstimate)> {
    let mut out = vec![
        (
            "dispatched",
            weighted_update_batch(lambda, pairs, fs, threshold, max_iters),
        ),
        (
            "portable",
            weighted_update_batch_portable(lambda, pairs, fs, threshold, max_iters),
        ),
    ];
    #[cfg(target_arch = "x86_64")]
    {
        if let Some(b) = weighted_update_batch_avx2(lambda, pairs, fs, threshold, max_iters) {
            out.push(("avx2", b));
        }
        if let Some(b) = weighted_update_batch_avx512(lambda, pairs, fs, threshold, max_iters) {
            out.push(("avx512", b));
        }
    }
    out
}

/// Asserts one batch result equals running the scalar path per query, bit
/// for bit: answers, sweep counts and the cap-hit count.
fn assert_batch_matches_scalar(
    lambda: usize,
    pairs: &[(usize, usize)],
    fs: &[f64],
    (threshold, max_iters): (f64, usize),
    batch: &BatchEstimate,
    label: &str,
) {
    let npairs = pairs.len();
    let n = fs.len() / npairs;
    assert_eq!(batch.answers.len(), n, "{label}: answer count");
    assert_eq!(batch.sweeps.len(), n, "{label}: sweep count");
    let mut cap_hits = 0u64;
    for q in 0..n {
        let pa = to_pair_answers(pairs, &fs[q * npairs..(q + 1) * npairs]);
        let (want, sweeps, capped) = scalar(lambda, &pa, threshold, max_iters);
        assert_eq!(
            batch.answers[q].to_bits(),
            want.to_bits(),
            "{label}: query {q}/{n} lambda {lambda}: {} vs {want}",
            batch.answers[q]
        );
        assert_eq!(batch.sweeps[q], sweeps, "{label}: query {q} sweep count");
        cap_hits += u64::from(capped);
    }
    assert_eq!(batch.cap_hits, cap_hits, "{label}: cap hits");
}

/// Runs every backend on one group and checks each against the scalar
/// path; returns the portable result for further assertions.
fn check_every_backend(
    lambda: usize,
    pairs: &[(usize, usize)],
    fs: &[f64],
    threshold: f64,
    max_iters: usize,
) -> BatchEstimate {
    let runs = every_backend(lambda, pairs, fs, threshold, max_iters);
    for (label, batch) in &runs {
        assert_batch_matches_scalar(lambda, pairs, fs, (threshold, max_iters), batch, label);
    }
    runs.into_iter()
        .find(|(label, _)| *label == "portable")
        .map(|(_, b)| b)
        .expect("the portable backend always runs")
}

#[test]
fn batch_kernel_matches_scalar_every_lane_remainder() {
    // Sizes 1..=IN_FLIGHT+1 hit every fill of the lanes in flight: a lone
    // query, one partial vector, one full vector, two vectors at every
    // occupancy, and one query more than the lanes, which must wait for
    // a refill.
    for lambda in [3usize, 4, 6] {
        let pairs = all_pairs(lambda);
        for n in 1..=(IN_FLIGHT + 1) {
            let fs = batch_inputs(lambda, n, 40 + n as u64);
            check_every_backend(lambda, &pairs, &fs, THRESHOLD, MAX_ITERS);
        }
    }
}

#[test]
fn batch_kernel_matches_scalar_lambda_sweep() {
    for lambda in 2..=8usize {
        let pairs = all_pairs(lambda);
        let n = IN_FLIGHT + 3;
        let fs = batch_inputs(lambda, n, 90 + lambda as u64);
        check_every_backend(lambda, &pairs, &fs, THRESHOLD, MAX_ITERS);
    }
}

/// Pair answers for `n` queries that mix, by `q % 3`: targets the
/// uniform start already meets (converged after one sweep), near-one
/// targets that run to a short cap, and uniform random targets.
fn mixed_convergence(lambda: usize, n: usize, salt: u64) -> Vec<f64> {
    let npairs = lambda * (lambda - 1) / 2;
    let mut fs = Vec::with_capacity(n * npairs);
    for q in 0..n {
        for p in 0..npairs {
            let u = noise(salt, q as u64, p as u64);
            fs.push(match q % 3 {
                // Every subcube holds 2^{λ-2} of the 2^λ uniform entries.
                0 => 0.25,
                1 => 0.8 + 0.2 * u,
                _ => u,
            });
        }
    }
    fs
}

#[test]
fn refills_mid_run_land_answers_out_of_order() {
    // Cap-bound lanes sit beside lanes that stop after one sweep, so
    // lanes refill at different sweeps and later queries finish before
    // earlier ones. Every answer must still land on its own query.
    let max_iters = 30;
    for lambda in [3usize, 4, 5] {
        let pairs = all_pairs(lambda);
        for n in [IN_FLIGHT - 1, IN_FLIGHT + 1, 3 * IN_FLIGHT + 5] {
            let fs = mixed_convergence(lambda, n, 500 + n as u64);
            let batch = check_every_backend(lambda, &pairs, &fs, THRESHOLD, max_iters);
            // The mix really does hold both extremes.
            assert!(batch.sweeps.contains(&1), "lambda {lambda} n {n}");
            assert!(batch.cap_hits > 0, "lambda {lambda} n {n}");
        }
    }
}

#[test]
fn lanes_converging_at_different_sweeps_stay_frozen() {
    // One vector mixing a hard (correlated, slow-converging) query with
    // near-trivial ones: the easy lanes stop early and must not drift
    // while the hard lane keeps sweeping.
    let lambda = 4usize;
    let pairs = all_pairs(lambda);
    let npairs = pairs.len();
    let mut fs = vec![0.0f64; EST_LANES * npairs];
    for (q, row) in fs.chunks_exact_mut(npairs).enumerate() {
        match q % 3 {
            // Consistent independent targets: converges almost at once.
            0 => {
                let m = [0.5, 0.5, 0.5, 0.5];
                for (p, &(i, j)) in pairs.iter().enumerate() {
                    row[p] = m[i] * m[j];
                }
            }
            // Perfectly correlated: Weighted Update grinds on.
            1 => row.fill(0.5),
            // Mildly noisy independent.
            _ => {
                for (p, &(i, j)) in pairs.iter().enumerate() {
                    row[p] = (0.3 + 0.1 * i as f64) * (0.3 + 0.1 * j as f64)
                        + 0.01 * noise(3, q as u64, p as u64);
                }
            }
        }
    }
    let batch = check_every_backend(lambda, &pairs, &fs, 1e-6, 200);
    // The mix really does exercise unequal stop points.
    let min = batch.sweeps.iter().min().unwrap();
    let max = batch.sweeps.iter().max().unwrap();
    assert!(min < max, "sweep counts should differ: {:?}", batch.sweeps);
}

#[test]
fn zero_y_rows_are_skipped_like_the_scalar_path() {
    // All-zero targets drive every z-entry to 0 after sweep 1; sweep 2
    // then hits the y == 0 skip in every pair. The batch kernel must take
    // the same masked path. Mix zero and nonzero lanes in one vector.
    let lambda = 3usize;
    let pairs = all_pairs(lambda);
    let npairs = pairs.len();
    let n = 6usize;
    let mut fs = batch_inputs(lambda, n, 77);
    for q in [0usize, 3, 5] {
        fs[q * npairs..(q + 1) * npairs].fill(0.0);
    }
    // A threshold of 0 never converges: both paths must still terminate
    // via max_iters with the zero rows skipping harmlessly.
    check_every_backend(lambda, &pairs, &fs, 0.0, 8);
}

#[test]
fn threshold_zero_runs_every_lane_to_the_cap_with_refills() {
    // With threshold 0 no lane converges, so every query is a cap hit and
    // lanes refill in lockstep cohorts; more queries than lanes in flight
    // and a partial last cohort.
    for lambda in [3usize, 5] {
        let pairs = all_pairs(lambda);
        let n = 2 * IN_FLIGHT + 5;
        let fs = batch_inputs(lambda, n, 600 + lambda as u64);
        let batch = check_every_backend(lambda, &pairs, &fs, 0.0, 7);
        assert_eq!(batch.cap_hits, n as u64);
        assert!(batch.sweeps.iter().all(|&s| s == 7));
    }
}

#[test]
fn max_iters_zero_still_runs_one_sweep() {
    // The scalar loop clamps max_iters to at least 1; the batch kernel
    // must do the same, also when lanes refill after that single sweep.
    let lambda = 3usize;
    let pairs = all_pairs(lambda);
    for n in [3usize, 2 * IN_FLIGHT + 3] {
        let fs = batch_inputs(lambda, n, 11);
        let batch = check_every_backend(lambda, &pairs, &fs, THRESHOLD, 0);
        assert!(batch.sweeps.iter().all(|&s| s == 1));
    }
}

#[test]
fn nan_threshold_runs_no_sweep_on_every_backend() {
    // The scalar loop tests `change >= threshold` with the change starting
    // at infinity, which is false for a NaN threshold: no sweep runs and
    // every answer stays at the uniform start 1/2^λ.
    for lambda in [3usize, 4] {
        let pairs = all_pairs(lambda);
        for n in [1usize, EST_LANES + 1, IN_FLIGHT + 1] {
            let fs = batch_inputs(lambda, n, 700 + n as u64);
            let batch = check_every_backend(lambda, &pairs, &fs, f64::NAN, MAX_ITERS);
            assert!(batch.sweeps.iter().all(|&s| s == 0));
            let uniform = 1.0 / (1u64 << lambda) as f64;
            assert!(batch.answers.iter().all(|&a| a == uniform));
        }
    }
}

#[test]
fn portable_kernel_matches_scalar() {
    for lambda in [3usize, 5, 7] {
        let pairs = all_pairs(lambda);
        for n in [
            1usize,
            EST_LANES - 1,
            EST_LANES,
            EST_LANES + 5,
            IN_FLIGHT + 5,
        ] {
            let fs = batch_inputs(lambda, n, 200 + n as u64);
            let batch = weighted_update_batch_portable(lambda, &pairs, &fs, THRESHOLD, MAX_ITERS);
            let settings = (THRESHOLD, MAX_ITERS);
            assert_batch_matches_scalar(lambda, &pairs, &fs, settings, &batch, "portable");
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_kernel_matches_portable_where_supported() {
    for lambda in [3usize, 5, 7] {
        let pairs = all_pairs(lambda);
        for n in [
            1usize,
            EST_LANES - 1,
            EST_LANES,
            EST_LANES + 5,
            IN_FLIGHT + 5,
        ] {
            let fs = batch_inputs(lambda, n, 300 + n as u64);
            let Some(batch) = weighted_update_batch_avx2(lambda, &pairs, &fs, THRESHOLD, MAX_ITERS)
            else {
                eprintln!("skipping: CPU lacks AVX2");
                return;
            };
            let settings = (THRESHOLD, MAX_ITERS);
            assert_batch_matches_scalar(lambda, &pairs, &fs, settings, &batch, "avx2");
            let portable =
                weighted_update_batch_portable(lambda, &pairs, &fs, THRESHOLD, MAX_ITERS);
            assert_eq!(batch, portable, "avx2 vs portable");
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx512_kernel_matches_portable_where_supported() {
    for lambda in [3usize, 5, 7] {
        let pairs = all_pairs(lambda);
        for n in [
            1usize,
            EST_LANES - 1,
            EST_LANES,
            EST_LANES + 5,
            IN_FLIGHT + 5,
        ] {
            let fs = batch_inputs(lambda, n, 400 + n as u64);
            let Some(batch) =
                weighted_update_batch_avx512(lambda, &pairs, &fs, THRESHOLD, MAX_ITERS)
            else {
                eprintln!("skipping: CPU lacks AVX-512F/DQ");
                return;
            };
            let settings = (THRESHOLD, MAX_ITERS);
            assert_batch_matches_scalar(lambda, &pairs, &fs, settings, &batch, "avx512");
            let portable =
                weighted_update_batch_portable(lambda, &pairs, &fs, THRESHOLD, MAX_ITERS);
            assert_eq!(batch, portable, "avx512 vs portable");
        }
    }
}

#[test]
fn empty_batch_is_empty() {
    let batch = weighted_update_batch(3, &all_pairs(3), &[], THRESHOLD, MAX_ITERS);
    assert!(batch.answers.is_empty());
    assert!(batch.sweeps.is_empty());
    assert_eq!(batch.cap_hits, 0);
}
