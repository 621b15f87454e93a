//! Vectorized kernel primitives and the kernel-variant selector.
//!
//! The fused randomization kernel ([`crate::fused`]) comes in two
//! variants:
//!
//! * **scalar** — the historical strict-f64 path: plain `*`/`+` in
//!   source order, no fused multiply-add, no reassociation. This is the
//!   bit-exact reference mode; its results are pinned by golden files.
//! * **simd** — the per-row arithmetic is re-expressed in a *canonical
//!   FMA association*: every dot product is a left-to-right chain of
//!   correctly-rounded fused multiply-adds over ascending columns, and
//!   the `R'`/`½S'` combine is applied as two further fused terms.
//!   Because `f64::mul_add` and the AVX2 `vfmadd` instruction are both
//!   correctly rounded, the same bits come out of the 4-wide AVX2
//!   lanes, the scalar remainder rows, and the portable
//!   manually-unrolled fallback — on every CPU, at every thread count,
//!   and on both the CSR and DIA storage layouts. Only *scalar vs simd*
//!   differ, by the usual rounding reassociation, which stays well
//!   inside the Theorem-4 truncation tolerance the verify oracle
//!   checks.
//!
//! Runtime dispatch: the AVX2+FMA code paths are compiled behind
//! `#[target_feature]` and selected once per process via
//! `is_x86_feature_detected!`. [`KernelVariant::Auto`] resolves to the
//! simd variant only when the hardware has AVX2+FMA (the portable
//! fallback is correct everywhere but `f64::mul_add` goes through libm
//! without an FMA unit, so auto never picks it for speed).

use somrm_num::sum::NeumaierSum;

/// Which fused-kernel implementation a solve should use.
///
/// Parsed from `--kernel scalar|simd|auto` on the CLI and from the
/// `SOMRM_KERNEL` environment variable (the CI kernel-matrix leg forces
/// `SOMRM_KERNEL=simd` across the whole test suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelVariant {
    /// Pick [`ResolvedKernel::Simd`] iff the CPU has AVX2+FMA.
    #[default]
    Auto,
    /// The strict-f64 reference path; bitwise-stable across releases.
    Scalar,
    /// The canonical-FMA path (AVX2 lanes or the portable unrolled
    /// fallback — same bits either way).
    Simd,
}

impl KernelVariant {
    /// All selectable variants with their command-line names.
    pub const ALL: [(&'static str, KernelVariant); 3] = [
        ("auto", KernelVariant::Auto),
        ("scalar", KernelVariant::Scalar),
        ("simd", KernelVariant::Simd),
    ];

    /// Resolves `Auto` against the detected CPU features.
    pub fn resolve(self) -> ResolvedKernel {
        match self {
            KernelVariant::Scalar => ResolvedKernel::Scalar,
            KernelVariant::Simd => ResolvedKernel::Simd,
            KernelVariant::Auto => {
                if fma_available() {
                    ResolvedKernel::Simd
                } else {
                    ResolvedKernel::Scalar
                }
            }
        }
    }

    /// The default variant, honouring the `SOMRM_KERNEL` environment
    /// variable if set (invalid values fall back to `Auto`). Cached
    /// after the first read.
    pub fn from_env() -> KernelVariant {
        use std::sync::OnceLock;
        static FROM_ENV: OnceLock<KernelVariant> = OnceLock::new();
        *FROM_ENV.get_or_init(|| match std::env::var("SOMRM_KERNEL") {
            Ok(v) => v.parse().unwrap_or(KernelVariant::Auto),
            Err(_) => KernelVariant::Auto,
        })
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            KernelVariant::Auto => "auto",
            KernelVariant::Scalar => "scalar",
            KernelVariant::Simd => "simd",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for KernelVariant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelVariant::Auto),
            "scalar" => Ok(KernelVariant::Scalar),
            "simd" => Ok(KernelVariant::Simd),
            other => Err(format!(
                "unknown kernel variant {other:?} (expected auto, scalar, or simd)"
            )),
        }
    }
}

/// A [`KernelVariant`] after `Auto` resolution: what actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedKernel {
    /// Strict-f64 reference arithmetic.
    Scalar,
    /// Canonical-FMA arithmetic (AVX2 or portable fallback).
    Simd,
}

impl ResolvedKernel {
    /// Stable lowercase name, used for gauges and report fields.
    pub fn name(self) -> &'static str {
        match self {
            ResolvedKernel::Scalar => "scalar",
            ResolvedKernel::Simd => "simd",
        }
    }
}

/// Whether the AVX2+FMA fast path is usable on this CPU. Detected once.
pub fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Detected CPU features relevant to kernel dispatch, as a
/// comma-separated list (recorded in bench metadata so baselines are
/// only compared like-for-like).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        for (name, present) in [
            ("sse2", true), // baseline on x86_64
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                feats.push(name);
            }
        }
        feats.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("portable")
    }
}

/// Hints the CPU to pull the cache line holding `p` (read intent).
/// No-op on targets without a prefetch instruction. Used by the CSR
/// gather to hide the latency of the indirect `u[col_idx[k]]` loads.
#[inline(always)]
pub fn prefetch_read(p: *const f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never faults, even on invalid
    // addresses, so any pointer value is acceptable.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

// ---------------------------------------------------------------------------
// dot_strips: out[i] = Σ_d fma(diag_d[i], x_d[i]) in strip order
// ---------------------------------------------------------------------------

/// Computes, for each row of a block, the canonical-FMA dot product over
/// a set of diagonal strips: `out[i] = fma(dN, xN, … fma(d1, x1, d0·x0))`.
///
/// Each strip is a `(coefficients, shifted input)` pair of equal-length
/// slices; strips must be supplied in ascending diagonal-offset order so
/// the chain visits columns left to right (the canonical association).
pub fn dot_strips(out: &mut [f64], strips: &[(&[f64], &[f64])]) {
    if strips.is_empty() {
        out.fill(0.0);
        return;
    }
    debug_assert!(strips.iter().all(|(d, x)| d.len() == out.len() && x.len() == out.len()));
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: gated on runtime AVX2+FMA detection.
        unsafe { dot_strips_avx2(out, strips) };
        return;
    }
    dot_strips_portable(out, strips);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_strips_avx2(out: &mut [f64], strips: &[(&[f64], &[f64])]) {
    use core::arch::x86_64::*;
    let len = out.len();
    let po = out.as_mut_ptr();
    let (d0, x0) = strips[0];
    let mut i = 0usize;
    while i + 4 <= len {
        let mut acc = _mm256_mul_pd(
            _mm256_loadu_pd(d0.as_ptr().add(i)),
            _mm256_loadu_pd(x0.as_ptr().add(i)),
        );
        for &(d, x) in &strips[1..] {
            acc = _mm256_fmadd_pd(
                _mm256_loadu_pd(d.as_ptr().add(i)),
                _mm256_loadu_pd(x.as_ptr().add(i)),
                acc,
            );
        }
        _mm256_storeu_pd(po.add(i), acc);
        i += 4;
    }
    // Remainder rows: f64::mul_add compiles to scalar vfmadd inside this
    // target_feature fn — identical bits to the vector lanes above.
    while i < len {
        let mut dot = d0[i] * x0[i];
        for &(d, x) in &strips[1..] {
            dot = d[i].mul_add(x[i], dot);
        }
        *out.get_unchecked_mut(i) = dot;
        i += 1;
    }
}

/// Portable 4-wide manually-unrolled fallback; same canonical FMA
/// association via `f64::mul_add`, so bitwise-identical to the AVX2
/// path (slower without an FMA unit — `Auto` avoids it).
fn dot_strips_portable(out: &mut [f64], strips: &[(&[f64], &[f64])]) {
    let len = out.len();
    let (d0, x0) = strips[0];
    let mut i = 0usize;
    while i + 4 <= len {
        let mut a0 = d0[i] * x0[i];
        let mut a1 = d0[i + 1] * x0[i + 1];
        let mut a2 = d0[i + 2] * x0[i + 2];
        let mut a3 = d0[i + 3] * x0[i + 3];
        for &(d, x) in &strips[1..] {
            a0 = d[i].mul_add(x[i], a0);
            a1 = d[i + 1].mul_add(x[i + 1], a1);
            a2 = d[i + 2].mul_add(x[i + 2], a2);
            a3 = d[i + 3].mul_add(x[i + 3], a3);
        }
        out[i] = a0;
        out[i + 1] = a1;
        out[i + 2] = a2;
        out[i + 3] = a3;
        i += 4;
    }
    while i < len {
        let mut dot = d0[i] * x0[i];
        for &(d, x) in &strips[1..] {
            dot = d[i].mul_add(x[i], dot);
        }
        out[i] = dot;
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// axpy_fma: out[i] = fma(a[i], x[i], out[i])
// ---------------------------------------------------------------------------

/// Applies one fused combine term in place: `out[i] ← a[i]·x[i] + out[i]`
/// (single rounding). Called once for the `R'` term and once for the
/// `½S'` term, preserving the canonical association
/// `fma(s_half, w2, fma(r_prime, w1, dot))`.
pub fn axpy_fma(out: &mut [f64], a: &[f64], x: &[f64]) {
    debug_assert!(a.len() == out.len() && x.len() == out.len());
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: gated on runtime AVX2+FMA detection.
        unsafe { axpy_fma_avx2(out, a, x) };
        return;
    }
    axpy_fma_portable(out, a, x);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_fma_avx2(out: &mut [f64], a: &[f64], x: &[f64]) {
    use core::arch::x86_64::*;
    let len = out.len();
    let po = out.as_mut_ptr();
    let pa = a.as_ptr();
    let px = x.as_ptr();
    let mut i = 0usize;
    while i + 4 <= len {
        let acc = _mm256_fmadd_pd(
            _mm256_loadu_pd(pa.add(i)),
            _mm256_loadu_pd(px.add(i)),
            _mm256_loadu_pd(po.add(i)),
        );
        _mm256_storeu_pd(po.add(i), acc);
        i += 4;
    }
    while i < len {
        *out.get_unchecked_mut(i) = a[i].mul_add(x[i], *out.get_unchecked(i));
        i += 1;
    }
}

fn axpy_fma_portable(out: &mut [f64], a: &[f64], x: &[f64]) {
    let len = out.len();
    let mut i = 0usize;
    while i + 4 <= len {
        out[i] = a[i].mul_add(x[i], out[i]);
        out[i + 1] = a[i + 1].mul_add(x[i + 1], out[i + 1]);
        out[i + 2] = a[i + 2].mul_add(x[i + 2], out[i + 2]);
        out[i + 3] = a[i + 3].mul_add(x[i + 3], out[i + 3]);
        i += 4;
    }
    while i < len {
        out[i] = a[i].mul_add(x[i], out[i]);
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// dot: Σ a[i]·x[i] over 16 interleaved lanes, plain multiply and add
// ---------------------------------------------------------------------------

/// Lanes of [`dot`]: four 4-wide accumulators, enough independent add
/// chains to hide the add latency.
const DOT_LANES: usize = 16;

/// Dot product with a fixed association: lane `l` sums `a[i]·x[i]` for
/// `i ≡ l (mod 16)` over the first `len − len mod 16` entries; lanes
/// `l, l+4, l+8, l+12` combine as `(s_l + s_{l+4}) + (s_{l+8} +
/// s_{l+12})` into `t_0..t_3`, those as `(t_0 + t_1) + (t_2 + t_3)`, and
/// the tail entries are then added in order. Plain (unfused) multiply
/// and add throughout, so the AVX2 path and the portable fallback give
/// the same bits, in either kernel variant.
pub fn dot(a: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: gated on runtime AVX2 detection.
        return unsafe { dot_avx2(a, x) };
    }
    dot_portable(a, x)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f64], x: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let len = a.len().min(x.len());
    let body = len - len % DOT_LANES;
    let (pa, px) = (a.as_ptr(), x.as_ptr());
    let mut acc = [_mm256_setzero_pd(); 4];
    let mut i = 0usize;
    while i < body {
        for (r, s) in acc.iter_mut().enumerate() {
            let prod = _mm256_mul_pd(
                _mm256_loadu_pd(pa.add(i + 4 * r)),
                _mm256_loadu_pd(px.add(i + 4 * r)),
            );
            *s = _mm256_add_pd(*s, prod);
        }
        i += DOT_LANES;
    }
    let t = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]), _mm256_add_pd(acc[2], acc[3]));
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), t);
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for k in body..len {
        sum += a[k] * x[k];
    }
    sum
}

fn dot_portable(a: &[f64], x: &[f64]) -> f64 {
    let len = a.len().min(x.len());
    let body = len - len % DOT_LANES;
    let mut s = [0.0f64; DOT_LANES];
    for (ca, cx) in a[..body]
        .chunks_exact(DOT_LANES)
        .zip(x[..body].chunks_exact(DOT_LANES))
    {
        for l in 0..DOT_LANES {
            s[l] += ca[l] * cx[l];
        }
    }
    let t: [f64; 4] = std::array::from_fn(|l| (s[l] + s[l + 4]) + (s[l + 8] + s[l + 12]));
    let mut sum = (t[0] + t[1]) + (t[2] + t[3]);
    for k in body..len {
        sum += a[k] * x[k];
    }
    sum
}

// ---------------------------------------------------------------------------
// accumulate_scaled: acc[i].add(wk * u[i]) with vectorized Neumaier
// ---------------------------------------------------------------------------

/// Folds one Poisson-weighted term into a strip of compensated
/// accumulators: `acc[i] ← acc[i] ⊕ wk·u[i]` (Neumaier update).
///
/// The vector path computes the exact same sequence of f64 operations as
/// [`NeumaierSum::add`] — the `|sum| ≥ |x|` branch becomes a branchless
/// compare/blend selecting the same operands — so the result is bitwise
/// identical to the scalar loop. The product `wk·u[i]` is a plain
/// (non-fused) multiply in both paths, matching the scalar kernel, which
/// keeps the accumulate phase bitwise identical *across variants* too.
pub fn accumulate_scaled(acc: &mut [NeumaierSum], u: &[f64], wk: f64) {
    debug_assert_eq!(acc.len(), u.len());
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: gated on runtime AVX2+FMA detection.
        unsafe { accumulate_scaled_avx2(acc, u, wk) };
        return;
    }
    for (a, &x) in acc.iter_mut().zip(u) {
        a.add(wk * x);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_scaled_avx2(acc: &mut [NeumaierSum], u: &[f64], wk: f64) {
    use core::arch::x86_64::*;
    let len = acc.len();
    let vec_len = len & !3;
    let (head, tail) = acc.split_at_mut(vec_len);
    // SAFETY: NeumaierSum is repr(C) { sum: f64, compensation: f64 }, so
    // a slice of it is exactly interleaved f64 pairs [s0 c0 s1 c1 …].
    let flat: &mut [f64] =
        core::slice::from_raw_parts_mut(head.as_mut_ptr() as *mut f64, vec_len * 2);
    let pf = flat.as_mut_ptr();
    let pu = u.as_ptr();
    let vw = _mm256_set1_pd(wk);
    let sign = _mm256_set1_pd(-0.0);
    let mut i = 0usize;
    while i < vec_len {
        let va = _mm256_loadu_pd(pf.add(2 * i)); // s0 c0 s1 c1
        let vb = _mm256_loadu_pd(pf.add(2 * i + 4)); // s2 c2 s3 c3
        let s = _mm256_unpacklo_pd(va, vb); // s0 s2 s1 s3
        let c = _mm256_unpackhi_pd(va, vb); // c0 c2 c1 c3
        // Load u and permute into the same (0 2 1 3) row order.
        let xu = _mm256_loadu_pd(pu.add(i));
        let x = _mm256_mul_pd(vw, _mm256_permute4x64_pd::<0b1101_1000>(xu));
        let t = _mm256_add_pd(s, x);
        let abs_s = _mm256_andnot_pd(sign, s);
        let abs_x = _mm256_andnot_pd(sign, x);
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(abs_s, abs_x);
        let big = _mm256_blendv_pd(x, s, ge);
        let small = _mm256_blendv_pd(s, x, ge);
        let comp = _mm256_add_pd(_mm256_sub_pd(big, t), small);
        let c = _mm256_add_pd(c, comp);
        // Re-interleave (t, c) back to [s c s c] pairs and store.
        _mm256_storeu_pd(pf.add(2 * i), _mm256_unpacklo_pd(t, c));
        _mm256_storeu_pd(pf.add(2 * i + 4), _mm256_unpackhi_pd(t, c));
        i += 4;
    }
    for (a, &x) in tail.iter_mut().zip(&u[vec_len..]) {
        a.add(wk * x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_parse_round_trip() {
        for (name, v) in KernelVariant::ALL {
            assert_eq!(name.parse::<KernelVariant>().unwrap(), v);
            assert_eq!(v.to_string(), name);
        }
        assert!("avx9000".parse::<KernelVariant>().is_err());
        assert_eq!("SIMD".parse::<KernelVariant>().unwrap(), KernelVariant::Simd);
    }

    #[test]
    fn resolve_is_deterministic() {
        assert_eq!(KernelVariant::Scalar.resolve(), ResolvedKernel::Scalar);
        assert_eq!(KernelVariant::Simd.resolve(), ResolvedKernel::Simd);
        let auto = KernelVariant::Auto.resolve();
        assert_eq!(auto, KernelVariant::Auto.resolve());
        if fma_available() {
            assert_eq!(auto, ResolvedKernel::Simd);
        } else {
            assert_eq!(auto, ResolvedKernel::Scalar);
        }
    }

    #[test]
    fn cpu_features_nonempty() {
        let feats = cpu_features();
        assert!(!feats.is_empty());
        if fma_available() {
            assert!(feats.contains("avx2") && feats.contains("fma"), "{feats}");
        }
    }

    fn ref_dot(strips: &[(&[f64], &[f64])], i: usize) -> f64 {
        let (d0, x0) = strips[0];
        let mut dot = d0[i] * x0[i];
        for &(d, x) in &strips[1..] {
            dot = d[i].mul_add(x[i], dot);
        }
        dot
    }

    #[test]
    fn dot_strips_matches_scalar_fma_chain() {
        // Awkward length (not a multiple of 4) exercises the remainder.
        let n = 11;
        let mk = |seed: u64| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let h = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64 * 1442695040888963407);
                    ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 0.5
                })
                .collect()
        };
        let d: Vec<Vec<f64>> = (0..3).map(|k| mk(k + 1)).collect();
        let x: Vec<Vec<f64>> = (0..3).map(|k| mk(k + 10)).collect();
        let strips: Vec<(&[f64], &[f64])> =
            d.iter().zip(&x).map(|(a, b)| (a.as_slice(), b.as_slice())).collect();
        let mut out = vec![f64::NAN; n];
        dot_strips(&mut out, &strips);
        let mut out_portable = vec![f64::NAN; n];
        dot_strips_portable(&mut out_portable, &strips);
        for i in 0..n {
            let want = ref_dot(&strips, i);
            assert_eq!(out[i].to_bits(), want.to_bits(), "lane {i}");
            assert_eq!(out_portable[i].to_bits(), want.to_bits(), "portable lane {i}");
        }
    }

    #[test]
    fn dot_strips_empty_zeroes() {
        let mut out = vec![1.0; 5];
        dot_strips(&mut out, &[]);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn axpy_fma_matches_mul_add() {
        let n = 9;
        let a: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 - 0.3).collect();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.5)).collect();
        let base: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut out = base.clone();
        axpy_fma(&mut out, &a, &x);
        let mut out_portable = base.clone();
        axpy_fma_portable(&mut out_portable, &a, &x);
        for i in 0..n {
            let want = a[i].mul_add(x[i], base[i]);
            assert_eq!(out[i].to_bits(), want.to_bits(), "lane {i}");
            assert_eq!(out_portable[i].to_bits(), want.to_bits(), "portable lane {i}");
        }
    }

    #[test]
    fn dot_paths_agree_bitwise_on_every_tail_length() {
        // Magnitudes spread over 30 decades so any reassociation shows.
        for len in [0usize, 1, 15, 16, 17, 33, 2048, 2051] {
            let a: Vec<f64> = (0..len)
                .map(|i| 10f64.powi((i % 31) as i32 - 15) * 1.3)
                .collect();
            let x: Vec<f64> = (0..len).map(|i| 1.0 / (i as f64 + 0.7)).collect();
            let got = dot(&a, &x);
            assert_eq!(got.to_bits(), dot_portable(&a, &x).to_bits(), "len {len}");
            let naive: f64 = a.iter().zip(&x).map(|(p, q)| p * q).sum();
            assert!(
                (got - naive).abs() <= 1e-14 * naive.abs(),
                "len {len}: {got} vs {naive}"
            );
        }
    }

    #[test]
    fn accumulate_scaled_bitwise_matches_scalar_neumaier() {
        // Mix magnitudes so the |sum| >= |x| branch goes both ways and
        // compensation terms are non-trivial.
        let n = 13;
        let wk = 0.3330000000000001;
        let mut acc: Vec<NeumaierSum> = (0..n)
            .map(|i| {
                let mut s = NeumaierSum::with_value(1.0e15 * ((i % 3) as f64 - 1.0));
                s.add(0.125 * i as f64);
                s
            })
            .collect();
        let mut reference = acc.clone();
        let u: Vec<f64> = (0..n).map(|i| 1.0e15_f64.powi((i % 2) as i32) * 0.7 + i as f64).collect();
        accumulate_scaled(&mut acc, &u, wk);
        for (a, &x) in reference.iter_mut().zip(&u) {
            a.add(wk * x);
        }
        for i in 0..n {
            assert_eq!(
                acc[i].raw_sum().to_bits(),
                reference[i].raw_sum().to_bits(),
                "sum lane {i}"
            );
            assert_eq!(
                acc[i].compensation().to_bits(),
                reference[i].compensation().to_bits(),
                "compensation lane {i}"
            );
        }
    }
}
