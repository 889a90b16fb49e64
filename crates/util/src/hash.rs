//! Seeded 64-bit mixing hash used as the OLH universal hash family.
//!
//! OLH requires a family of hash functions `H_s : [c] -> [c']` indexed by a
//! per-user seed `s`. Any well-mixing keyed integer hash works; we use the
//! SplitMix64 finalizer (Stafford's Mix13 variant), the same construction
//! used by `rand`'s seeding and by xxHash-style avalanche steps. It passes
//! avalanche tests and costs ~2 ns per evaluation, which matters because
//! exact OLH aggregation evaluates it `n_users × domain` times.

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
#[inline(always)]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Odd multiplier decorrelating `value` from `seed` before mixing, so that
/// neither argument can cancel the other.
const VALUE_MULT: u64 = 0xA24B_AED4_963E_E407;

/// The value half of the hash input: `v · K`, hoistable out of any loop
/// that holds `value` fixed while seeds vary (the batch support kernel).
#[inline(always)]
pub fn premix_value(value: u64) -> u64 {
    value.wrapping_mul(VALUE_MULT)
}

/// Multiply-shift reduction of a mixed word onto `0..domain`: unbiased
/// enough for `domain << 2^32` and far cheaper than a modulo. `domain` in
/// OLH is `c' = eᵋ + 1`, i.e. tiny.
#[inline(always)]
fn reduce_to_domain(h: u64, domain: u64) -> u64 {
    ((h >> 32).wrapping_mul(domain)) >> 32
}

/// Keyed hash of `value` under seed `seed`, mapped uniformly onto `0..domain`.
///
/// The (seed, value) pair is combined with distinct odd multipliers before
/// mixing so that neither argument can cancel the other.
#[inline(always)]
pub fn hash_to_domain(seed: u64, value: u64, domain: u64) -> u64 {
    debug_assert!(domain > 0);
    reduce_to_domain(mix64(seed ^ premix_value(value)), domain)
}

/// Batched support-count primitive — the transposed inner loop of exact OLH
/// aggregation, scalar reference form. For a fixed `value`, counts how many
/// `(seed, y)` pairs satisfy `hash_to_domain(seed, value, domain) == y`.
///
/// Compared with evaluating [`hash_to_domain`] per report, this hoists the
/// `value · K` premix out of the loop, keeps the count in register
/// accumulators instead of read-modify-writing a memory counter per report,
/// and replaces the (badly predicted, ~`1/c'`-taken) match branch with a
/// branchless `(h == y) as u64` add. The ×4 unroll runs four independent
/// mix chains so the multiply latency overlaps. Bit-identical to the scalar
/// path by construction: the same `mix64`/reduction on the same inputs,
/// folded with exact `u64` adds.
///
/// This is the *reference* kernel the lane-parallel production kernel
/// ([`support_count_lanes_soa`]) is proven bit-identical to; hot paths
/// should call that one instead.
#[inline]
pub fn support_count(pairs: &[(u64, u64)], value: u64, domain: u64) -> u64 {
    debug_assert!(domain > 0);
    let mv = premix_value(value);
    let (mut a0, mut a1, mut a2, mut a3) = (0u64, 0u64, 0u64, 0u64);
    let mut quads = pairs.chunks_exact(4);
    for q in quads.by_ref() {
        a0 += u64::from(reduce_to_domain(mix64(q[0].0 ^ mv), domain) == q[0].1);
        a1 += u64::from(reduce_to_domain(mix64(q[1].0 ^ mv), domain) == q[1].1);
        a2 += u64::from(reduce_to_domain(mix64(q[2].0 ^ mv), domain) == q[2].1);
        a3 += u64::from(reduce_to_domain(mix64(q[3].0 ^ mv), domain) == q[3].1);
    }
    for &(seed, y) in quads.remainder() {
        a0 += u64::from(reduce_to_domain(mix64(seed ^ mv), domain) == y);
    }
    (a0 + a1) + (a2 + a3)
}

/// Lane width of the portable lane-parallel kernel: 8 independent mix
/// chains per iteration, wide enough for the compiler to autovectorize to
/// two AVX2 vectors (or one AVX-512 vector) of `u64` lanes.
pub const SUPPORT_LANES: usize = 8;

/// Which implementation [`support_count_lanes_soa`] dispatches to on this
/// machine. Detected once at first use and cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Explicit `core::arch::x86_64` AVX-512 path: 8 mix chains per 512-bit
    /// vector with native 64-bit lane multiplies (`_mm512_mullo_epi64`,
    /// hence the AVX-512DQ requirement alongside AVX-512F).
    Avx512,
    /// Explicit `core::arch::x86_64` AVX2 path: 4 mix chains per 256-bit
    /// vector, 64-bit multiplies composed from `_mm256_mul_epu32` partials.
    Avx2,
    /// Portable fixed-width-lane path ([`SUPPORT_LANES`] scalar chains
    /// written for autovectorization).
    Portable,
}

impl KernelBackend {
    /// Stable lowercase name, for feature-detect log lines and benchmarks.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Portable => "portable",
        }
    }
}

/// The support-kernel backend selected for this process: AVX-512 when the
/// CPU reports F+DQ, else AVX2 when present (each checked once via
/// `is_x86_feature_detected!` and cached), the portable lane kernel
/// otherwise. Selection never changes after the first call.
pub fn kernel_backend() -> KernelBackend {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static BACKEND: OnceLock<KernelBackend> = OnceLock::new();
        *BACKEND.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                KernelBackend::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                KernelBackend::Avx2
            } else {
                KernelBackend::Portable
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        KernelBackend::Portable
    }
}

/// Lane-parallel form of [`support_count`] over parallel `seeds`/`ys`
/// slices (`seeds[i]` paired with `ys[i]`) — the production kernel.
///
/// This is the form the OLH block loop feeds: the block is transposed to
/// SoA once, then swept `cells` times, so the SIMD backends fill all
/// lanes with two straight vector loads instead of per-field gathers.
/// Dispatches once-per-process (see [`kernel_backend`]) to the explicit
/// AVX-512 or AVX2 body on x86-64 machines that have them, and to the
/// portable [`SUPPORT_LANES`]-chain body everywhere else. All bodies
/// evaluate the *same* `mix64` and multiply-shift reduction on the same
/// inputs and fold the per-pair `0/1` outcomes with exact `u64` adds —
/// addition commutes, so the result is **bit-identical** to the scalar
/// reference for every input, including every lane remainder and the
/// empty batch. Property tests in `crates/util/tests/kernel_prop.rs` pin
/// this down.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn support_count_lanes_soa(seeds: &[u64], ys: &[u64], value: u64, domain: u64) -> u64 {
    debug_assert!(domain > 0);
    assert_eq!(seeds.len(), ys.len(), "SoA slices must pair up");
    #[cfg(target_arch = "x86_64")]
    {
        let mv = premix_value(value);
        match kernel_backend() {
            // SAFETY: each SIMD backend is only ever selected after
            // `is_x86_feature_detected!` confirmed its features on this CPU.
            KernelBackend::Avx512 => {
                return unsafe { avx512::support_count_premixed_soa(seeds, ys, mv, domain) }
            }
            KernelBackend::Avx2 => {
                return unsafe { avx2::support_count_premixed_soa(seeds, ys, mv, domain) }
            }
            KernelBackend::Portable => {}
        }
    }
    support_count_soa_portable(seeds, ys, value, domain)
}

/// The portable SoA body: [`SUPPORT_LANES`] independent accumulator chains
/// over `chunks_exact(SUPPORT_LANES)`, scalar tail, written as a
/// fixed-width array sweep so LLVM autovectorizes the whole iteration
/// without target-specific code. Public so the equivalence tests can run
/// it on machines where dispatch picks a SIMD body. Bit-identical to
/// [`support_count`].
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn support_count_soa_portable(seeds: &[u64], ys: &[u64], value: u64, domain: u64) -> u64 {
    debug_assert!(domain > 0);
    assert_eq!(seeds.len(), ys.len(), "SoA slices must pair up");
    let mv = premix_value(value);
    let mut lanes = [0u64; SUPPORT_LANES];
    let mut seed_chunks = seeds.chunks_exact(SUPPORT_LANES);
    let mut y_chunks = ys.chunks_exact(SUPPORT_LANES);
    for (sc, yc) in seed_chunks.by_ref().zip(y_chunks.by_ref()) {
        for ((acc, &seed), &y) in lanes.iter_mut().zip(sc).zip(yc) {
            *acc += u64::from(reduce_to_domain(mix64(seed ^ mv), domain) == y);
        }
    }
    let mut total: u64 = lanes.iter().sum();
    for (&seed, &y) in seed_chunks.remainder().iter().zip(y_chunks.remainder()) {
        total += u64::from(reduce_to_domain(mix64(seed ^ mv), domain) == y);
    }
    total
}

/// The explicit AVX2 SoA body; `None` when the CPU lacks AVX2. Public so
/// the equivalence tests can run it on AVX-512 machines too.
/// Bit-identical to [`support_count`].
///
/// # Panics
///
/// Panics if the slices differ in length.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn support_count_soa_avx2(seeds: &[u64], ys: &[u64], value: u64, domain: u64) -> Option<u64> {
    debug_assert!(domain > 0);
    assert_eq!(seeds.len(), ys.len(), "SoA slices must pair up");
    // SAFETY: the body runs only once AVX2 presence is verified, and the
    // slices pair up.
    std::arch::is_x86_feature_detected!("avx2").then(|| unsafe {
        avx2::support_count_premixed_soa(seeds, ys, premix_value(value), domain)
    })
}

/// The explicit AVX-512 SoA body; `None` when the CPU lacks AVX-512F/DQ.
/// Bit-identical to [`support_count`].
///
/// # Panics
///
/// Panics if the slices differ in length.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn support_count_soa_avx512(seeds: &[u64], ys: &[u64], value: u64, domain: u64) -> Option<u64> {
    debug_assert!(domain > 0);
    assert_eq!(seeds.len(), ys.len(), "SoA slices must pair up");
    let present = std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq");
    // SAFETY: the body runs only once AVX-512F and AVX-512DQ presence is
    // verified, and the slices pair up.
    present.then(|| unsafe {
        avx512::support_count_premixed_soa(seeds, ys, premix_value(value), domain)
    })
}

/// Explicit AVX2 support kernel: 4 independent mix chains per 256-bit
/// vector of `u64` lanes.
///
/// AVX2 has no 64×64-bit multiply, so the `mix64` multiplies (and the
/// multiply-shift domain reduction) are composed from `_mm256_mul_epu32`
/// 32×32→64 partial products: `lo·lo + ((lo·hi + hi·lo) << 32)` — exactly
/// the low 64 bits of the full product, i.e. exactly `wrapping_mul`. Every
/// lane therefore computes bit-for-bit the scalar `mix64`/reduction, the
/// `(h == y)` outcome accumulates as a masked `u64` add
/// (`acc - cmpeq-mask`), and the final horizontal fold is a sum of exact
/// `u64` lane counts — commutative, so lane order cannot change the total.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// Low 64 bits of a 64×64-bit lane multiply (`wrapping_mul` per lane).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul64_lo(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
            _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32))
    }

    /// Four-lane `mix64` with the multiplier/increment constants already
    /// broadcast.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mix64_x4(mut x: __m256i, inc: __m256i, m1: __m256i, m2: __m256i) -> __m256i {
        x = _mm256_add_epi64(x, inc);
        x = mul64_lo(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), m1);
        x = mul64_lo(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), m2);
        _mm256_xor_si256(x, _mm256_srli_epi64(x, 31))
    }

    /// Lanes fill with straight 256-bit loads from the parallel slices.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on the running CPU, and
    /// `seeds`/`ys` must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn support_count_premixed_soa(
        seeds: &[u64],
        ys: &[u64],
        mv: u64,
        domain: u64,
    ) -> u64 {
        let vmv = _mm256_set1_epi64x(mv as i64);
        let inc = _mm256_set1_epi64x(0x9E37_79B9_7F4A_7C15_u64 as i64);
        let m1 = _mm256_set1_epi64x(0xBF58_476D_1CE4_E5B9_u64 as i64);
        let m2 = _mm256_set1_epi64x(0x94D0_49BB_1331_11EB_u64 as i64);
        let dom = _mm256_set1_epi64x(domain as i64);
        let mut acc = _mm256_setzero_si256();
        let n = seeds.len().min(ys.len());
        let quads = n / 4 * 4;
        let mut i = 0;
        while i < quads {
            // SAFETY: i + 4 <= n bounds both 32-byte loads.
            let s = unsafe { _mm256_loadu_si256(seeds.as_ptr().add(i).cast()) };
            let y = unsafe { _mm256_loadu_si256(ys.as_ptr().add(i).cast()) };
            let h = mix64_x4(_mm256_xor_si256(s, vmv), inc, m1, m2);
            let r = _mm256_srli_epi64(mul64_lo(_mm256_srli_epi64(h, 32), dom), 32);
            acc = _mm256_sub_epi64(acc, _mm256_cmpeq_epi64(r, y));
            i += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), acc);
        let mut total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for (&seed, &y) in seeds[quads..n].iter().zip(&ys[quads..n]) {
            total += u64::from(super::reduce_to_domain(super::mix64(seed ^ mv), domain) == y);
        }
        total
    }
}

/// Explicit AVX-512 support kernel: 8 independent mix chains per 512-bit
/// vector of `u64` lanes.
///
/// Unlike AVX2, AVX-512DQ has a native low-64-bit lane multiply
/// (`_mm512_mullo_epi64` = `wrapping_mul` per lane), so every `mix64`
/// multiply and the multiply-shift domain reduction are single
/// instructions — each lane computes bit-for-bit the scalar
/// `mix64`/reduction. Matches come back as a `__mmask8` whose popcount
/// adds exact match counts; the fold is commutative `u64` addition, so
/// lane order cannot change the total.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::*;

    /// Eight-lane `mix64` with the multiplier/increment constants already
    /// broadcast.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn mix64_x8(mut x: __m512i, inc: __m512i, m1: __m512i, m2: __m512i) -> __m512i {
        x = _mm512_add_epi64(x, inc);
        x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)), m1);
        x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)), m2);
        _mm512_xor_si512(x, _mm512_srli_epi64(x, 31))
    }

    /// Lanes fill with straight 512-bit loads from the parallel slices.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F and AVX-512DQ support on the
    /// running CPU, and `seeds`/`ys` must have equal lengths.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn support_count_premixed_soa(
        seeds: &[u64],
        ys: &[u64],
        mv: u64,
        domain: u64,
    ) -> u64 {
        let vmv = _mm512_set1_epi64(mv as i64);
        let inc = _mm512_set1_epi64(0x9E37_79B9_7F4A_7C15_u64 as i64);
        let m1 = _mm512_set1_epi64(0xBF58_476D_1CE4_E5B9_u64 as i64);
        let m2 = _mm512_set1_epi64(0x94D0_49BB_1331_11EB_u64 as i64);
        let dom = _mm512_set1_epi64(domain as i64);
        let mut total = 0u64;
        let n = seeds.len().min(ys.len());
        let octets = n / 8 * 8;
        let mut i = 0;
        while i < octets {
            // SAFETY: i + 8 <= n bounds both 64-byte loads.
            let s = unsafe { _mm512_loadu_si512(seeds.as_ptr().add(i).cast()) };
            let y = unsafe { _mm512_loadu_si512(ys.as_ptr().add(i).cast()) };
            let h = mix64_x8(_mm512_xor_si512(s, vmv), inc, m1, m2);
            let r = _mm512_srli_epi64(_mm512_mullo_epi64(_mm512_srli_epi64(h, 32), dom), 32);
            total += u64::from(_mm512_cmpeq_epi64_mask(r, y).count_ones());
            i += 8;
        }
        for (&seed, &y) in seeds[octets..n].iter().zip(&ys[octets..n]) {
            total += u64::from(super::reduce_to_domain(super::mix64(seed ^ mv), domain) == y);
        }
        total
    }
}

/// A member of the OLH hash family: hashes `[c] -> [c']` under a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededHash {
    seed: u64,
    domain: u64,
}

impl SeededHash {
    /// Creates the hash function with the given seed and output domain `c'`.
    #[inline]
    pub fn new(seed: u64, domain: usize) -> Self {
        assert!(
            domain >= 2,
            "hash output domain must have at least 2 values"
        );
        Self {
            seed,
            domain: domain as u64,
        }
    }

    /// The per-user seed identifying this family member.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The output domain size `c'`.
    #[inline]
    pub fn domain(&self) -> usize {
        self.domain as usize
    }

    /// Hashes `value` into `0..c'`.
    #[inline(always)]
    pub fn hash(&self, value: usize) -> usize {
        hash_to_domain(self.seed, value as u64, self.domain) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_bijective_on_sample() {
        // A bijection cannot collide; sample a few million inputs.
        let mut seen = std::collections::HashSet::with_capacity(1 << 16);
        for i in 0..(1u64 << 16) {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn hash_stays_in_domain() {
        for domain in [2u64, 3, 7, 16, 100] {
            for v in 0..1000u64 {
                let h = hash_to_domain(12345, v, domain);
                assert!(h < domain);
            }
        }
    }

    #[test]
    fn hash_is_deterministic_per_seed() {
        let h1 = SeededHash::new(42, 17);
        let h2 = SeededHash::new(42, 17);
        let h3 = SeededHash::new(43, 17);
        let mut differs = false;
        for v in 0..100 {
            assert_eq!(h1.hash(v), h2.hash(v));
            differs |= h1.hash(v) != h3.hash(v);
        }
        assert!(differs, "different seeds must give different functions");
    }

    #[test]
    fn hash_is_roughly_uniform() {
        // Chi-square style sanity check: hashing 0..n under one seed should
        // fill c' buckets roughly evenly.
        let domain = 8usize;
        let n = 80_000usize;
        let mut counts = vec![0usize; domain];
        let h = SeededHash::new(7, domain);
        for v in 0..n {
            counts[h.hash(v)] += 1;
        }
        let expected = n as f64 / domain as f64;
        for &cnt in &counts {
            let rel = (cnt as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "bucket deviates {rel} from uniform");
        }
    }

    #[test]
    fn support_count_matches_scalar_hash_exactly() {
        // Every unroll phase (remainders 0..3) against the scalar path.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 64, 65, 66, 67] {
            let pairs: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (mix64(i), mix64(i ^ 0xBEEF) % 5))
                .collect();
            for domain in [2u64, 3, 4, 8] {
                for value in 0..16u64 {
                    let manual = pairs
                        .iter()
                        .filter(|&&(s, y)| hash_to_domain(s, value, domain) == y)
                        .count() as u64;
                    assert_eq!(
                        support_count(&pairs, value, domain),
                        manual,
                        "n={n} domain={domain} value={value}"
                    );
                }
            }
        }
    }

    #[test]
    fn premix_composes_with_hash() {
        // hash_to_domain is exactly mix64(seed ^ premix) reduced; the batch
        // kernel relies on this decomposition.
        for seed in [0u64, 1, 42, u64::MAX] {
            for value in 0..32u64 {
                let direct = hash_to_domain(seed, value, 7);
                let via_premix = ((mix64(seed ^ premix_value(value)) >> 32).wrapping_mul(7)) >> 32;
                assert_eq!(direct, via_premix);
            }
        }
    }

    #[test]
    fn pairwise_collision_rate_is_near_one_over_domain() {
        // For OLH's unbiasedness the family must behave like a universal
        // family: Pr_s[H_s(v) = H_s(w)] ~ 1/c' for v != w.
        let domain = 8usize;
        let trials = 40_000u64;
        let (v, w) = (3usize, 11usize);
        let mut collisions = 0u64;
        for seed in 0..trials {
            let h = SeededHash::new(mix64(seed), domain);
            if h.hash(v) == h.hash(w) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expected = 1.0 / domain as f64;
        assert!(
            (rate - expected).abs() < 0.01,
            "collision rate {rate} far from {expected}"
        );
    }
}
