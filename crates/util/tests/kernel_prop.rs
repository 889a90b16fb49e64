//! Bit-identity property suite for the lane-parallel OLH support kernel.
//!
//! The production kernel (`support_count_lanes_soa`) dispatches at runtime
//! to an explicit AVX-512 or AVX2 body or a portable 8-chain body. Every
//! body must produce *exactly* the scalar reference's count — same
//! `mix64`, same multiply-shift reduction, outcomes folded with exact
//! `u64` adds — for any batch length (every lane/unroll remainder,
//! including the empty and single-pair batches), any domain, and any
//! value. Each body is driven directly, not only through dispatch, so a
//! host that dispatches to AVX-512 still checks the AVX2 and portable
//! bodies that AVX2-only and non-x86 hosts run in production. These
//! properties are what lets the collector swap kernels without perturbing
//! a single estimate bit.

use privmdr_util::hash::{
    kernel_backend, support_count, support_count_lanes_soa, support_count_soa_portable,
    KernelBackend, SUPPORT_LANES,
};
use privmdr_util::mix64;
use proptest::prelude::*;

/// A pair stream with realistic structure: seeds well-mixed, `y` values
/// concentrated in the hash range so matches actually occur.
fn pairs_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((any::<u64>(), 0u64..32), 0..max_len)
}

/// Splits an AoS pair slice into the kernel's SoA form.
fn soa(pairs: &[(u64, u64)]) -> (Vec<u64>, Vec<u64>) {
    pairs.iter().copied().unzip()
}

/// The count from the dispatched kernel and from every body this CPU can
/// run, each driven directly, named for failure messages.
fn every_body(seeds: &[u64], ys: &[u64], value: u64, domain: u64) -> Vec<(&'static str, u64)> {
    let mut out = vec![(
        "dispatched",
        support_count_lanes_soa(seeds, ys, value, domain),
    )];
    out.push((
        "portable",
        support_count_soa_portable(seeds, ys, value, domain),
    ));
    #[cfg(target_arch = "x86_64")]
    {
        use privmdr_util::hash::{support_count_soa_avx2, support_count_soa_avx512};
        out.extend(support_count_soa_avx2(seeds, ys, value, domain).map(|n| ("avx2", n)));
        out.extend(support_count_soa_avx512(seeds, ys, value, domain).map(|n| ("avx512", n)));
    }
    out
}

proptest! {
    /// Dispatched kernel ≡ scalar reference, whatever backend dispatch
    /// picked.
    #[test]
    fn lanes_match_scalar(
        pairs in pairs_strategy(300),
        value in any::<u64>(),
        domain in 1u64..1_000_000,
    ) {
        let (seeds, ys) = soa(&pairs);
        prop_assert_eq!(
            support_count_lanes_soa(&seeds, &ys, value, domain),
            support_count(&pairs, value, domain)
        );
    }

    /// Portable SoA body ≡ scalar reference, even on machines where
    /// dispatch would pick a SIMD body.
    #[test]
    fn portable_matches_scalar(
        pairs in pairs_strategy(300),
        value in any::<u64>(),
        domain in 1u64..1_000_000,
    ) {
        let (seeds, ys) = soa(&pairs);
        prop_assert_eq!(
            support_count_soa_portable(&seeds, &ys, value, domain),
            support_count(&pairs, value, domain)
        );
    }

    /// Explicit AVX2 SoA body ≡ scalar reference on CPUs that have it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_scalar(
        pairs in pairs_strategy(300),
        value in any::<u64>(),
        domain in 1u64..1_000_000,
    ) {
        let (seeds, ys) = soa(&pairs);
        if let Some(got) = privmdr_util::hash::support_count_soa_avx2(&seeds, &ys, value, domain) {
            prop_assert_eq!(got, support_count(&pairs, value, domain));
        }
    }

    /// Explicit AVX-512 SoA body ≡ scalar reference on CPUs that have it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_matches_scalar(
        pairs in pairs_strategy(300),
        value in any::<u64>(),
        domain in 1u64..1_000_000,
    ) {
        let (seeds, ys) = soa(&pairs);
        if let Some(got) = privmdr_util::hash::support_count_soa_avx512(&seeds, &ys, value, domain) {
            prop_assert_eq!(got, support_count(&pairs, value, domain));
        }
    }

    /// Huge domains exercise the full 64-bit multiply-shift reduction (the
    /// AVX2 body composes it from 32x32 partial products, AVX-512 uses the
    /// native lane multiply — both must stay exact out to the top bit).
    #[test]
    fn lanes_match_scalar_on_wide_domains(
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..100),
        value in any::<u64>(),
        domain in 1u64..=u64::MAX,
    ) {
        let want = support_count(&pairs, value, domain);
        let (seeds, ys) = soa(&pairs);
        for (body, got) in every_body(&seeds, &ys, value, domain) {
            prop_assert_eq!(got, want, "{}", body);
        }
    }
}

/// Every remainder class of the 8-wide lane bodies and the 4-wide AVX2
/// body, swept exhaustively: lengths 0..=3·SUPPORT_LANES cover all
/// `len % 8` and `len % 4` residues several times over, including the
/// empty and single-pair batches.
#[test]
fn every_lane_remainder_is_bit_identical() {
    let pairs: Vec<(u64, u64)> = (0..(3 * SUPPORT_LANES) as u64)
        .map(|i| (mix64(i), mix64(i ^ 0xABCD) % 4))
        .collect();
    for len in 0..=pairs.len() {
        let (seeds, ys) = soa(&pairs[..len]);
        for domain in [1u64, 2, 3, 7, 256, u64::MAX] {
            for value in 0..6u64 {
                let want = support_count(&pairs[..len], value, domain);
                for (body, got) in every_body(&seeds, &ys, value, domain) {
                    assert_eq!(got, want, "{body} len={len} domain={domain} value={value}");
                }
            }
        }
    }
}

/// Dispatch is stable (one backend per process) and self-consistent: the
/// backend the selector reports is reachable and its name round-trips.
#[test]
fn backend_selection_is_stable_and_named() {
    let first = kernel_backend();
    assert_eq!(kernel_backend(), first);
    match first {
        KernelBackend::Avx512 => assert_eq!(first.name(), "avx512"),
        KernelBackend::Avx2 => assert_eq!(first.name(), "avx2"),
        KernelBackend::Portable => assert_eq!(first.name(), "portable"),
    }
    // The portable body runs on every host.
    assert_eq!(
        support_count_soa_portable(&[1], &[0], 2, 3),
        support_count(&[(1, 0)], 2, 3)
    );
    #[cfg(target_arch = "x86_64")]
    {
        use privmdr_util::hash::{support_count_soa_avx2, support_count_soa_avx512};
        // If dispatch claims a SIMD tier, the explicit body must actually
        // run (and the tiers below it must too — AVX-512 implies AVX2).
        if first == KernelBackend::Avx512 {
            assert!(support_count_soa_avx512(&[1], &[0], 2, 3).is_some());
            assert!(support_count_soa_avx2(&[1], &[0], 2, 3).is_some());
        }
        if first == KernelBackend::Avx2 {
            assert!(support_count_soa_avx2(&[1], &[0], 2, 3).is_some());
        }
    }
}
