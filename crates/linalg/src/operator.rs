//! Matrix-free operator backend for structured iteration matrices.
//!
//! The paper's multiplexer generator is a Kronecker sum of N tiny ON-OFF
//! factors, aggregated into a birth–death chain — yet the CSR/DIA
//! backends materialize the uniformized matrix explicitly, capping the
//! state count by memory. This module computes `y = P'·x` **on the
//! fly** from the model structure: a [`UniformizedBirthDeath`] holds
//! three O(n) strips (no column indices, no row pointers), and a
//! [`KroneckerSum`] holds only the small factor blocks plus one O(n)
//! diagonal — O(1) matrix memory per state beyond the unavoidable
//! diagonal.
//!
//! ## Bit-identity with the CSR kernel
//!
//! The operator backends replicate the *exact arithmetic* of the
//! materialized pipeline (`Q.scaled(1/q).add_scaled_identity(1.0)`
//! followed by the CSR row dot in ascending-column order):
//!
//! * every stored strip/entry value is computed as `raw · (1/q)` — the
//!   same two-operation product the CSR scaling performs in place — and
//!   the diagonal as `(raw_diag · (1/q)) + 1.0`, matching the
//!   duplicate-summing triplet rebuild of `add_scaled_identity`;
//! * each row's dot accumulates terms in ascending-column order with
//!   the same left-associated `dot += v·x` chain (scalar) or canonical
//!   `mul_add` chain starting from `0.0` (fma), exactly as the fused
//!   kernel's CSR branch does;
//! * strip positions with no structural entry hold `+0.0` and
//!   contribute `+0.0·x` terms the CSR dot skips. As with DIA padding
//!   (see `crate::dia`), all solver vectors are non-negative, where
//!   `acc + 0.0·x` is bitwise the identity; the Kronecker backend skips
//!   structural zeros outright and needs no such caveat.
//!
//! Scalar-kernel operator runs are therefore bitwise-identical to CSR
//! runs of the same model; the `rnd-op` verify arm pins this.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::simd;
use crate::sparse::CsrMatrix;
use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A matrix-free `y = A·x` backend over a fixed square matrix.
///
/// `matvec_range_*` computes rows `rows` of `A·x` into
/// `out[0..rows.len()]` (`out[k]` is row `rows.start + k`), so the
/// fused kernel's disjoint row chunks drive the operator exactly like
/// the CSR/DIA branches. The `scalar` flavour must use the plain
/// left-associated `dot += v·x` chain in ascending-column order; the
/// `fma` flavour the canonical `mul_add` chain over the same terms.
pub trait MatVec: Send + Sync + fmt::Debug {
    /// Matrix dimension (operators are square).
    fn rows(&self) -> usize;

    /// Strict-f64 reference rows: plain `*`/`+`, ascending columns.
    fn matvec_range_scalar(&self, x: &[f64], out: &mut [f64], rows: Range<usize>);

    /// Canonical-FMA rows: correctly-rounded `mul_add` chain from `0.0`
    /// over the same ascending-column terms.
    fn matvec_range_fma(&self, x: &[f64], out: &mut [f64], rows: Range<usize>);

    /// Maximum `|col − row|` over structural entries.
    fn bandwidth(&self) -> usize;

    /// Structural non-zero estimate (for memory/report accounting).
    fn nnz_estimate(&self) -> usize;

    /// Exact bytes stored by the backend's owned allocations (strips,
    /// factor blocks, precomputed diagonal) — the operator's entire
    /// memory cost, since rows are recomputed on the fly. Same `len`-
    /// based contract as `crate::footprint::FootprintBytes`.
    fn footprint_bytes(&self) -> usize;

    /// Report-friendly backend name (`"birth-death"`, `"kronecker-sum"`).
    fn kind(&self) -> &'static str;

    /// Downcast support for [`MatVec::structural_eq`].
    fn as_any(&self) -> &dyn Any;

    /// `true` if `other` is the same concrete backend with equal data.
    fn structural_eq(&self, other: &dyn MatVec) -> bool;
}

/// The uniformized matrix `P' = Q/q + I` of a birth–death chain, stored
/// as three strips: `sub[i−1] = P'[i][i−1]`, `diag[i] = P'[i][i]`,
/// `sup[i] = P'[i][i+1]`. 3n−2 doubles total — no index arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformizedBirthDeath {
    sub: Vec<f64>,
    diag: Vec<f64>,
    sup: Vec<f64>,
}

fn check_rate(rate: f64) -> Result<f64, LinalgError> {
    if !(rate.is_finite() && rate > 0.0) {
        return Err(LinalgError::FormatUnsupported {
            format: "operator",
            reason: format!("uniformization rate {rate} must be finite and positive"),
        });
    }
    Ok(1.0 / rate)
}

impl UniformizedBirthDeath {
    /// Builds the strips from a **raw generator** `Q` stored as CSR,
    /// replicating `Q.scaled(1/rate).add_scaled_identity(1.0)` entry by
    /// entry: off-diagonal strip values are `v · (1/rate)`, the
    /// diagonal `v · (1/rate) + 1.0` (`1.0` exactly where `Q` stores no
    /// diagonal entry). Bitwise-identical to the materialized `P'`
    /// regardless of how the generator was assembled.
    ///
    /// Fails with a typed error if `Q` is not square, empty, or has an
    /// entry outside the tridiagonal band.
    pub fn from_tridiagonal_generator(
        q: &CsrMatrix<f64>,
        rate: f64,
    ) -> Result<UniformizedBirthDeath, LinalgError> {
        let inv = check_rate(rate)?;
        let n = q.rows();
        if q.cols() != n || n == 0 {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: format!("generator must be square and non-empty, got {}x{}", n, q.cols()),
            });
        }
        let mut sub = vec![0.0; n - 1];
        let mut diag = vec![1.0; n];
        let mut sup = vec![0.0; n - 1];
        for i in 0..n {
            for (j, v) in q.row(i) {
                if j == i {
                    diag[i] = v * inv + 1.0;
                } else if j + 1 == i {
                    sub[i - 1] = v * inv;
                } else if j == i + 1 {
                    sup[i] = v * inv;
                } else {
                    return Err(LinalgError::FormatUnsupported {
                        format: "operator",
                        reason: format!(
                            "generator entry ({i}, {j}) lies outside the tridiagonal band"
                        ),
                    });
                }
            }
        }
        Ok(UniformizedBirthDeath { sub, diag, sup })
    }

    /// Builds the strips from rate closures without any matrix at all:
    /// `birth(i)` is the rate `i → i+1`, `death(i)` the rate `i+1 → i`,
    /// for `i` in `0..n−1`. Replicates the canonical model-builder loop
    /// (`rate(i, i+1, birth); rate(i+1, i, death)` per `i`, zero rates
    /// skipped, exit sums accumulated in push order) followed by the
    /// scale-and-shift, so the strips equal
    /// [`UniformizedBirthDeath::from_tridiagonal_generator`] on a
    /// canonically built chain bit for bit.
    pub fn from_rates(
        n: usize,
        rate: f64,
        birth: impl Fn(usize) -> f64,
        death: impl Fn(usize) -> f64,
    ) -> Result<UniformizedBirthDeath, LinalgError> {
        let inv = check_rate(rate)?;
        if n == 0 {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: "birth-death chain needs at least one state".to_string(),
            });
        }
        let mut exit = vec![0.0f64; n];
        let mut sub = vec![0.0f64; n.saturating_sub(1)];
        let mut sup = vec![0.0f64; n.saturating_sub(1)];
        for i in 0..n.saturating_sub(1) {
            let b = birth(i);
            let d = death(i);
            for (what, r) in [("birth", b), ("death", d)] {
                if !(r.is_finite() && r >= 0.0) {
                    return Err(LinalgError::FormatUnsupported {
                        format: "operator",
                        reason: format!("{what} rate {r} at level {i} must be finite and >= 0"),
                    });
                }
            }
            if b > 0.0 {
                exit[i] += b;
                sup[i] = b * inv;
            }
            if d > 0.0 {
                exit[i + 1] += d;
                sub[i] = d * inv;
            }
        }
        let diag = exit.iter().map(|&e| (-e) * inv + 1.0).collect();
        Ok(UniformizedBirthDeath { sub, diag, sup })
    }

    /// Extracts the strips verbatim from an **already uniformized**
    /// tridiagonal matrix (the `P'` the CSR path iterates with).
    /// Trivially bitwise-identical to that matrix; used when a format
    /// is forced on a model that carries no structure descriptor.
    pub fn from_uniformized_csr(
        p: &CsrMatrix<f64>,
    ) -> Result<UniformizedBirthDeath, LinalgError> {
        let n = p.rows();
        if p.cols() != n || n == 0 {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: format!("matrix must be square and non-empty, got {}x{}", n, p.cols()),
            });
        }
        let mut sub = vec![0.0; n - 1];
        let mut diag = vec![0.0; n];
        let mut sup = vec![0.0; n - 1];
        for i in 0..n {
            for (j, v) in p.row(i) {
                if j == i {
                    diag[i] = v;
                } else if j + 1 == i {
                    sub[i - 1] = v;
                } else if j == i + 1 {
                    sup[i] = v;
                } else {
                    return Err(LinalgError::FormatUnsupported {
                        format: "operator",
                        reason: format!("entry ({i}, {j}) lies outside the tridiagonal band"),
                    });
                }
            }
        }
        Ok(UniformizedBirthDeath { sub, diag, sup })
    }

    /// The computational body shared by the scalar and fma flavours,
    /// monomorphized over the per-term accumulate so both keep the
    /// exact chain shape of the fused kernel's CSR branch.
    #[inline(always)]
    fn rows_with(&self, x: &[f64], out: &mut [f64], rows: Range<usize>, acc: impl Fn(f64, f64, f64) -> f64) {
        let n = self.diag.len();
        debug_assert_eq!(x.len(), n, "operator matvec: x length mismatch");
        debug_assert_eq!(out.len(), rows.len(), "operator matvec: out length mismatch");
        debug_assert!(rows.end <= n, "operator matvec: row range out of bounds");
        let lo = rows.start;
        if rows.contains(&0) {
            let mut dot = 0.0;
            dot = acc(self.diag[0], x[0], dot);
            if n > 1 {
                dot = acc(self.sup[0], x[1], dot);
            }
            out[0] = dot;
        }
        let int_lo = lo.max(1);
        let int_hi = rows.end.min(n - 1).max(int_lo);
        let (sub, diag, sup) = (&self.sub[..], &self.diag[..], &self.sup[..]);
        for i in int_lo..int_hi {
            let mut dot = 0.0;
            dot = acc(sub[i - 1], x[i - 1], dot);
            dot = acc(diag[i], x[i], dot);
            dot = acc(sup[i], x[i + 1], dot);
            out[i - lo] = dot;
        }
        if n > 1 && rows.contains(&(n - 1)) {
            let i = n - 1;
            let mut dot = 0.0;
            dot = acc(sub[i - 1], x[i - 1], dot);
            dot = acc(diag[i], x[i], dot);
            out[i - lo] = dot;
        }
    }

    #[inline(always)]
    fn fma_rows(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) {
        self.rows_with(x, out, rows, |v, x, dot| v.mul_add(x, dot));
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fma_rows_avx2(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) {
        self.fma_rows(x, out, rows);
    }
}

impl MatVec for UniformizedBirthDeath {
    fn rows(&self) -> usize {
        self.diag.len()
    }

    fn matvec_range_scalar(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) {
        self.rows_with(x, out, rows, |v, x, dot| dot + v * x);
    }

    fn matvec_range_fma(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) {
        #[cfg(target_arch = "x86_64")]
        if simd::fma_available() {
            // SAFETY: AVX2+FMA presence was just checked at runtime.
            unsafe { self.fma_rows_avx2(x, out, rows) };
            return;
        }
        self.fma_rows(x, out, rows);
    }

    fn bandwidth(&self) -> usize {
        usize::from(self.diag.len() > 1)
    }

    fn nnz_estimate(&self) -> usize {
        3 * self.diag.len() - 2
    }

    fn footprint_bytes(&self) -> usize {
        (self.sub.len() + self.diag.len() + self.sup.len()) * std::mem::size_of::<f64>()
    }

    fn kind(&self) -> &'static str {
        "birth-death"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn structural_eq(&self, other: &dyn MatVec) -> bool {
        other.as_any().downcast_ref::<Self>().is_some_and(|o| o == self)
    }
}

/// The uniformized matrix of a Kronecker-sum generator
/// `Q = A₀ ⊕ A₁ ⊕ … ⊕ A_{K−1}` (factor 0 outermost, i.e. largest index
/// stride), holding only the small factor blocks, one O(n) diagonal,
/// and the scale `1/q`. Row `i` decomposes into mixed-radix digits
/// `(j₀, …, j_{K−1})`; its off-diagonal entries are exactly the
/// off-diagonal entries of each factor's row `jₖ`, at global columns
/// `i + (c − jₖ)·sₖ` — strides are nested, so entries from different
/// factors can never collide and ascending-column order is: below the
/// diagonal factors `k = 0..K` each with `c` ascending, the diagonal,
/// then above the diagonal factors `k = K−1..0` each with `c` ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct KroneckerSum {
    factors: Vec<Mat<f64>>,
    sizes: Vec<usize>,
    /// `strides[k] = Π_{m>k} sizes[m]`; `strides[K−1] = 1`.
    strides: Vec<usize>,
    /// `P'[i][i]`, precomputed (the only O(n) state).
    diag: Vec<f64>,
    inv: f64,
    n: usize,
}

impl KroneckerSum {
    /// Builds the operator from factor generator blocks and the
    /// uniformization rate. Factor diagonals are ignored — the global
    /// diagonal is derived from the off-diagonal exit sums, replicating
    /// the canonical triplet emission order of
    /// [`KroneckerSum::generator_triplets`] so the result is
    /// bitwise-identical to materializing those triplets and
    /// uniformizing. Off-diagonal factor entries must be finite and
    /// non-negative.
    pub fn new(factors: Vec<Mat<f64>>, rate: f64) -> Result<KroneckerSum, LinalgError> {
        let inv = check_rate(rate)?;
        if factors.is_empty() {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: "Kronecker sum needs at least one factor".to_string(),
            });
        }
        let mut sizes = Vec::with_capacity(factors.len());
        let mut n = 1usize;
        for (k, f) in factors.iter().enumerate() {
            if f.rows() != f.cols() || f.rows() == 0 {
                return Err(LinalgError::FormatUnsupported {
                    format: "operator",
                    reason: format!("factor {k} must be square and non-empty, got {}x{}", f.rows(), f.cols()),
                });
            }
            for i in 0..f.rows() {
                for j in 0..f.cols() {
                    let a = f[(i, j)];
                    if i != j && !(a.is_finite() && a >= 0.0) {
                        return Err(LinalgError::FormatUnsupported {
                            format: "operator",
                            reason: format!("factor {k} entry ({i}, {j}) = {a} must be finite and >= 0"),
                        });
                    }
                }
            }
            sizes.push(f.rows());
            n = n.checked_mul(f.rows()).ok_or(LinalgError::FormatUnsupported {
                format: "operator",
                reason: "Kronecker product dimension overflows usize".to_string(),
            })?;
        }
        let mut strides = vec![1usize; sizes.len()];
        for k in (0..sizes.len().saturating_sub(1)).rev() {
            strides[k] = strides[k + 1] * sizes[k + 1];
        }
        let mut op = KroneckerSum {
            factors,
            sizes,
            strides,
            diag: Vec::new(),
            inv,
            n,
        };
        op.diag = op.derive_diagonal();
        Ok(op)
    }

    /// `P'[i][i] = (−exitᵢ)·(1/q) + 1.0`, with each row's exit sum
    /// accumulated in canonical triplet-emission order.
    fn derive_diagonal(&self) -> Vec<f64> {
        let mut diag = vec![0.0; self.n];
        let mut digits = vec![0usize; self.sizes.len()];
        for d in diag.iter_mut() {
            let mut exit = 0.0f64;
            for (k, f) in self.factors.iter().enumerate() {
                let jk = digits[k];
                for c in 0..self.sizes[k] {
                    if c != jk {
                        let a = f[(jk, c)];
                        if a > 0.0 {
                            exit += a;
                        }
                    }
                }
            }
            *d = (-exit) * self.inv + 1.0;
            incr_digits(&mut digits, &self.sizes);
        }
        diag
    }

    /// Overwrites the diagonal from the **stored** diagonal entries of
    /// the model's raw generator (`diag[i] = v·(1/q) + 1.0`, exactly
    /// `1.0` where no diagonal entry is stored), so operator runs stay
    /// bitwise-identical to the CSR path even when the model's
    /// generator was assembled in a non-canonical push order.
    pub fn align_diagonal_with(&mut self, q: &CsrMatrix<f64>) -> Result<(), LinalgError> {
        if q.rows() != self.n || q.cols() != self.n {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: format!(
                    "generator is {}x{} but the Kronecker structure describes {} states",
                    q.rows(),
                    q.cols(),
                    self.n
                ),
            });
        }
        self.diag.fill(1.0);
        for i in 0..self.n {
            for (j, v) in q.row(i) {
                if j == i {
                    self.diag[i] = v * self.inv + 1.0;
                }
            }
        }
        Ok(())
    }

    /// The raw-generator off-diagonal triplets `(row, col, rate)` in
    /// canonical emission order: row-major, factors `k = 0..K` in
    /// order, columns ascending, zero rates skipped. Feeding these to a
    /// generator builder (which appends `−exit` diagonals) materializes
    /// exactly the matrix this operator applies. Intended for tests and
    /// the verify oracle at small sizes.
    pub fn generator_triplets(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        let mut digits = vec![0usize; self.sizes.len()];
        for i in 0..self.n {
            for (k, f) in self.factors.iter().enumerate() {
                let jk = digits[k];
                let base = i - jk * self.strides[k];
                for c in 0..self.sizes[k] {
                    if c != jk {
                        let a = f[(jk, c)];
                        if a > 0.0 {
                            out.push((i, base + c * self.strides[k], a));
                        }
                    }
                }
            }
            incr_digits(&mut digits, &self.sizes);
        }
        out
    }

    /// Dense rendering of `P'` for tiny operators (tests only).
    ///
    /// # Panics
    ///
    /// Panics if the dimension exceeds 2000 (this is a debug helper).
    pub fn to_dense(&self) -> Mat<f64> {
        assert!(self.n <= 2000, "to_dense is for tiny operators");
        let mut m = Mat::zeros(self.n, self.n);
        for (i, &d) in self.diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        for (i, j, a) in self.generator_triplets() {
            m[(i, j)] = a * self.inv;
        }
        m
    }

    /// The per-factor sizes, outermost first.
    pub fn factor_sizes(&self) -> &[usize] {
        &self.sizes
    }

    #[inline(always)]
    fn rows_with(&self, x: &[f64], out: &mut [f64], rows: Range<usize>, acc: impl Fn(f64, f64, f64) -> f64) {
        debug_assert_eq!(x.len(), self.n, "operator matvec: x length mismatch");
        debug_assert_eq!(out.len(), rows.len(), "operator matvec: out length mismatch");
        debug_assert!(rows.end <= self.n, "operator matvec: row range out of bounds");
        let kk = self.factors.len();
        let mut digits = vec![0usize; kk];
        let mut rem = rows.start;
        for k in 0..kk {
            digits[k] = rem / self.strides[k];
            rem %= self.strides[k];
        }
        let inv = self.inv;
        for (row_i, i) in rows.clone().enumerate() {
            let mut dot = 0.0;
            for k in 0..kk {
                let jk = digits[k];
                if jk == 0 {
                    continue;
                }
                let s = self.strides[k];
                let f = &self.factors[k];
                let base = i - jk * s;
                for c in 0..jk {
                    let a = f[(jk, c)];
                    if a > 0.0 {
                        dot = acc(a * inv, x[base + c * s], dot);
                    }
                }
            }
            dot = acc(self.diag[i], x[i], dot);
            for k in (0..kk).rev() {
                let jk = digits[k];
                let s = self.strides[k];
                let f = &self.factors[k];
                let base = i - jk * s;
                for c in jk + 1..self.sizes[k] {
                    let a = f[(jk, c)];
                    if a > 0.0 {
                        dot = acc(a * inv, x[base + c * s], dot);
                    }
                }
            }
            out[row_i] = dot;
            incr_digits(&mut digits, &self.sizes);
        }
    }

    #[inline(always)]
    fn fma_rows(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) {
        self.rows_with(x, out, rows, |v, x, dot| v.mul_add(x, dot));
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fma_rows_avx2(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) {
        self.fma_rows(x, out, rows);
    }
}

/// Mixed-radix increment with the last digit fastest — the digit walk
/// matching `i → i + 1` under `strides[k] = Π_{m>k} sizes[m]`.
fn incr_digits(digits: &mut [usize], sizes: &[usize]) {
    for k in (0..digits.len()).rev() {
        digits[k] += 1;
        if digits[k] < sizes[k] {
            return;
        }
        digits[k] = 0;
    }
}

impl MatVec for KroneckerSum {
    fn rows(&self) -> usize {
        self.n
    }

    fn matvec_range_scalar(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) {
        self.rows_with(x, out, rows, |v, x, dot| dot + v * x);
    }

    fn matvec_range_fma(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) {
        #[cfg(target_arch = "x86_64")]
        if simd::fma_available() {
            // SAFETY: AVX2+FMA presence was just checked at runtime.
            unsafe { self.fma_rows_avx2(x, out, rows) };
            return;
        }
        self.fma_rows(x, out, rows);
    }

    fn bandwidth(&self) -> usize {
        match self.sizes.first() {
            Some(&s0) if s0 > 1 => (s0 - 1) * self.strides[0],
            _ => 0,
        }
    }

    fn nnz_estimate(&self) -> usize {
        let off: usize = self.sizes.iter().map(|&s| s - 1).sum();
        self.n * (1 + off)
    }

    fn footprint_bytes(&self) -> usize {
        let factor_bytes: usize = self
            .factors
            .iter()
            .map(|f| f.rows() * f.cols() * std::mem::size_of::<f64>())
            .sum();
        factor_bytes
            + (self.sizes.len() + self.strides.len()) * std::mem::size_of::<usize>()
            + self.diag.len() * std::mem::size_of::<f64>()
    }

    fn kind(&self) -> &'static str {
        "kronecker-sum"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn structural_eq(&self, other: &dyn MatVec) -> bool {
        other.as_any().downcast_ref::<Self>().is_some_and(|o| o == self)
    }
}

/// The structure a model advertises about its generator, letting the
/// solver build a matrix-free operator instead of materializing the
/// uniformized matrix. Carried by `SecondOrderMrm` as derived metadata
/// (it never changes the numbers a model produces, only how they can be
/// computed).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelStructure {
    /// A birth–death chain: `birth[i]` is the rate `i → i+1`,
    /// `death[i]` the rate `i+1 → i`, both of length `n − 1`.
    BirthDeath {
        /// Up-transition rates, `birth[i]: i → i+1`.
        birth: Vec<f64>,
        /// Down-transition rates, `death[i]: i+1 → i`.
        death: Vec<f64>,
    },
    /// A Kronecker sum of small factor generators, outermost first.
    KroneckerSum {
        /// Factor generator blocks (diagonals ignored).
        factors: Vec<Mat<f64>>,
    },
}

impl ModelStructure {
    /// The number of global states the structure describes.
    pub fn n_states(&self) -> usize {
        match self {
            ModelStructure::BirthDeath { birth, .. } => birth.len() + 1,
            ModelStructure::KroneckerSum { factors } => {
                factors.iter().map(Mat::rows).product()
            }
        }
    }

    /// Report-friendly structure name.
    pub fn kind(&self) -> &'static str {
        match self {
            ModelStructure::BirthDeath { .. } => "birth-death",
            ModelStructure::KroneckerSum { .. } => "kronecker-sum",
        }
    }
}

/// A cheaply clonable, comparable handle around a [`MatVec`] backend —
/// the payload of `IterationMatrix::Operator`.
#[derive(Clone)]
pub struct OperatorMatrix {
    inner: Arc<dyn MatVec>,
}

impl fmt::Debug for OperatorMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl PartialEq for OperatorMatrix {
    fn eq(&self, other: &OperatorMatrix) -> bool {
        self.inner.structural_eq(other.inner.as_ref())
    }
}

impl OperatorMatrix {
    /// Wraps an arbitrary backend.
    pub fn from_matvec(inner: Arc<dyn MatVec>) -> OperatorMatrix {
        OperatorMatrix { inner }
    }

    /// Wraps a birth–death strip operator.
    pub fn birth_death(op: UniformizedBirthDeath) -> OperatorMatrix {
        Self::from_matvec(Arc::new(op))
    }

    /// Wraps a Kronecker-sum operator.
    pub fn kronecker(op: KroneckerSum) -> OperatorMatrix {
        Self::from_matvec(Arc::new(op))
    }

    /// Builds the uniformized operator for a model from its advertised
    /// structure and raw generator. The generator supplies the stored
    /// diagonal (and, for birth–death, the off-diagonal strips), so the
    /// operator is bitwise-faithful to the materialized pipeline
    /// whatever push order assembled the generator; the structure
    /// supplies the factor blocks for the Kronecker case.
    pub fn from_structure(
        structure: &ModelStructure,
        generator: &CsrMatrix<f64>,
        rate: f64,
    ) -> Result<OperatorMatrix, LinalgError> {
        if structure.n_states() != generator.rows() {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: format!(
                    "structure describes {} states but the generator has {} rows",
                    structure.n_states(),
                    generator.rows()
                ),
            });
        }
        match structure {
            ModelStructure::BirthDeath { .. } => Ok(Self::birth_death(
                UniformizedBirthDeath::from_tridiagonal_generator(generator, rate)?,
            )),
            ModelStructure::KroneckerSum { factors } => {
                let mut op = KroneckerSum::new(factors.clone(), rate)?;
                op.align_diagonal_with(generator)?;
                Ok(Self::kronecker(op))
            }
        }
    }

    /// The wrapped backend (the fused kernel dispatches through this).
    pub fn as_matvec(&self) -> &dyn MatVec {
        self.inner.as_ref()
    }

    /// Matrix dimension.
    pub fn rows(&self) -> usize {
        self.inner.rows()
    }

    /// Maximum `|col − row|` over structural entries.
    pub fn bandwidth(&self) -> usize {
        self.inner.bandwidth()
    }

    /// Structural non-zero estimate.
    pub fn nnz_estimate(&self) -> usize {
        self.inner.nnz_estimate()
    }

    /// Backend name (`"birth-death"`, `"kronecker-sum"`).
    pub fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    /// Full `y = A·x` with the scalar (strict-f64 reference) rows.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the dimension.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows(), "matvec: x length mismatch");
        assert_eq!(y.len(), self.rows(), "matvec: y length mismatch");
        self.inner.matvec_range_scalar(x, y, 0..self.rows());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// Raw birth–death generator Q built exactly like the canonical
    /// model loop: per level, the up rate then the down rate, with the
    /// `−exit` diagonal appended afterwards (push order is irrelevant
    /// for the diagonal — no duplicates).
    fn bd_generator(n: usize, birth: impl Fn(usize) -> f64, death: impl Fn(usize) -> f64) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 3 * n);
        let mut exit = vec![0.0f64; n];
        for i in 0..n - 1 {
            let up = birth(i);
            let dn = death(i);
            if up > 0.0 {
                b.push(i, i + 1, up);
                exit[i] += up;
            }
            if dn > 0.0 {
                b.push(i + 1, i, dn);
                exit[i + 1] += dn;
            }
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                b.push(i, i, -e);
            }
        }
        b.build()
    }

    fn uniformize(q: &CsrMatrix<f64>, rate: f64) -> CsrMatrix<f64> {
        q.scaled(1.0 / rate).add_scaled_identity(1.0).unwrap()
    }

    /// Non-negative probe vector (solver iterates are non-negative —
    /// the regime the bitwise contract covers).
    fn probe(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % 17) as f64 / 16.0).collect()
    }

    fn birth(i: usize) -> f64 {
        1.5 + (i % 4) as f64 * 0.25
    }

    fn death(i: usize) -> f64 {
        0.75 + (i % 3) as f64 * 0.5
    }

    #[test]
    fn bd_from_rates_equals_from_generator() {
        for n in [1usize, 2, 3, 17, 64] {
            let q = bd_generator(n, birth, death);
            let rate = 9.0;
            let a = UniformizedBirthDeath::from_tridiagonal_generator(&q, rate).unwrap();
            let b = UniformizedBirthDeath::from_rates(n, rate, birth, death).unwrap();
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn bd_matvec_bitwise_matches_uniformized_csr() {
        for n in [1usize, 2, 5, 33, 257] {
            let q = bd_generator(n, birth, death);
            let p = uniformize(&q, 11.0);
            let op = UniformizedBirthDeath::from_tridiagonal_generator(&q, 11.0).unwrap();
            let x = probe(n);
            let mut want = vec![f64::NAN; n];
            p.matvec_into(&x, &mut want);
            // Full range, scalar.
            let mut got = vec![f64::NAN; n];
            op.matvec_range_scalar(&x, &mut got, 0..n);
            assert_eq!(got, want, "scalar n = {n}");
            // Disjoint sub-ranges reassemble the same vector.
            let mid = n / 2;
            let mut lowhalf = vec![f64::NAN; mid];
            let mut highhalf = vec![f64::NAN; n - mid];
            op.matvec_range_scalar(&x, &mut lowhalf, 0..mid);
            op.matvec_range_scalar(&x, &mut highhalf, mid..n);
            lowhalf.extend_from_slice(&highhalf);
            assert_eq!(lowhalf, want, "chunked n = {n}");
        }
    }

    #[test]
    fn bd_zero_rate_levels_keep_bitwise_contract() {
        // Levels with a zero up or down rate leave structural holes the
        // CSR stores nothing for; on non-negative inputs the padded
        // strips are bitwise-invisible (module docs).
        let birth = |i: usize| if i.is_multiple_of(3) { 0.0 } else { 2.0 };
        let death = |i: usize| if i % 4 == 1 { 0.0 } else { 1.0 };
        let n = 41;
        let q = bd_generator(n, birth, death);
        let p = uniformize(&q, 7.0);
        let op = UniformizedBirthDeath::from_rates(n, 7.0, birth, death).unwrap();
        assert_eq!(
            op,
            UniformizedBirthDeath::from_tridiagonal_generator(&q, 7.0).unwrap()
        );
        let x = probe(n);
        let mut want = vec![f64::NAN; n];
        p.matvec_into(&x, &mut want);
        let mut got = vec![f64::NAN; n];
        op.matvec_range_scalar(&x, &mut got, 0..n);
        assert_eq!(got, want);
    }

    #[test]
    fn bd_from_uniformized_csr_is_verbatim() {
        let q = bd_generator(19, birth, death);
        let p = uniformize(&q, 8.0);
        let a = UniformizedBirthDeath::from_uniformized_csr(&p).unwrap();
        let b = UniformizedBirthDeath::from_tridiagonal_generator(&q, 8.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bd_fma_agrees_with_scalar_within_rounding() {
        let n = 64;
        let q = bd_generator(n, birth, death);
        let op = UniformizedBirthDeath::from_tridiagonal_generator(&q, 9.0).unwrap();
        let x = probe(n);
        let mut s = vec![0.0; n];
        let mut f = vec![0.0; n];
        op.matvec_range_scalar(&x, &mut s, 0..n);
        op.matvec_range_fma(&x, &mut f, 0..n);
        for i in 0..n {
            assert!((s[i] - f[i]).abs() <= 1e-14 * s[i].abs().max(1.0), "row {i}");
        }
    }

    #[test]
    fn bd_rejects_bad_input() {
        assert!(UniformizedBirthDeath::from_rates(0, 1.0, |_| 1.0, |_| 1.0).is_err());
        assert!(UniformizedBirthDeath::from_rates(3, 0.0, |_| 1.0, |_| 1.0).is_err());
        assert!(UniformizedBirthDeath::from_rates(3, 1.0, |_| -1.0, |_| 1.0).is_err());
        assert!(UniformizedBirthDeath::from_rates(3, 1.0, |_| 1.0, |_| f64::NAN).is_err());
        // Entry outside the band.
        let mut b = TripletBuilder::new(4, 4);
        b.push(0, 3, 1.0);
        b.push(0, 0, -1.0);
        let err = UniformizedBirthDeath::from_tridiagonal_generator(&b.build(), 2.0);
        assert!(matches!(err, Err(LinalgError::FormatUnsupported { .. })));
        // Non-square.
        let ns = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(UniformizedBirthDeath::from_tridiagonal_generator(&ns, 2.0).is_err());
    }

    /// Two ON-OFF-like factors and one 3-level factor, rates all > 0.
    fn sample_factors() -> Vec<Mat<f64>> {
        let f0 = Mat::from_rows(&[&[0.0, 2.0][..], &[0.5, 0.0][..]]).unwrap();
        let f1 = Mat::from_rows(&[
            &[0.0, 1.0, 0.25][..],
            &[0.75, 0.0, 1.5][..],
            &[0.0, 2.0, 0.0][..],
        ])
        .unwrap();
        let f2 = Mat::from_rows(&[&[0.0, 3.0][..], &[1.25, 0.0][..]]).unwrap();
        vec![f0, f1, f2]
    }

    fn kron_generator(op: &KroneckerSum) -> CsrMatrix<f64> {
        let n = op.rows();
        let trips = op.generator_triplets();
        let mut b = TripletBuilder::with_capacity(n, n, trips.len() + n);
        let mut exit = vec![0.0f64; n];
        for &(i, j, a) in &trips {
            b.push(i, j, a);
            exit[i] += a;
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                b.push(i, i, -e);
            }
        }
        b.build()
    }

    #[test]
    fn kron_matvec_bitwise_matches_uniformized_csr() {
        let rate = 13.0;
        let op = KroneckerSum::new(sample_factors(), rate).unwrap();
        let n = op.rows();
        assert_eq!(n, 12);
        assert_eq!(op.factor_sizes(), &[2, 3, 2]);
        let p = uniformize(&kron_generator(&op), rate);
        let x = probe(n);
        let mut want = vec![f64::NAN; n];
        p.matvec_into(&x, &mut want);
        let mut got = vec![f64::NAN; n];
        op.matvec_range_scalar(&x, &mut got, 0..n);
        assert_eq!(got, want, "full range");
        // Arbitrary sub-range starts exercise the digit decomposition.
        for lo in 0..n {
            for hi in lo..=n {
                let mut part = vec![f64::NAN; hi - lo];
                op.matvec_range_scalar(&x, &mut part, lo..hi);
                assert_eq!(part, want[lo..hi], "range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn kron_matvec_matches_to_dense() {
        let op = KroneckerSum::new(sample_factors(), 10.0).unwrap();
        let n = op.rows();
        let dense = op.to_dense();
        let x = probe(n);
        let want = dense.matvec(&x);
        let mut got = vec![f64::NAN; n];
        op.matvec_range_scalar(&x, &mut got, 0..n);
        assert_eq!(got, want);
    }

    #[test]
    fn kron_align_diagonal_is_noop_on_canonical_generator() {
        let rate = 6.0;
        let mut op = KroneckerSum::new(sample_factors(), rate).unwrap();
        let before = op.clone();
        let q = kron_generator(&op);
        op.align_diagonal_with(&q).unwrap();
        assert_eq!(op, before);
        let wrong = TripletBuilder::new(3, 3).build();
        assert!(op.align_diagonal_with(&wrong).is_err());
    }

    #[test]
    fn kron_fma_agrees_with_scalar_within_rounding() {
        let op = KroneckerSum::new(sample_factors(), 10.0).unwrap();
        let n = op.rows();
        let x = probe(n);
        let mut s = vec![0.0; n];
        let mut f = vec![0.0; n];
        op.matvec_range_scalar(&x, &mut s, 0..n);
        op.matvec_range_fma(&x, &mut f, 0..n);
        for i in 0..n {
            assert!((s[i] - f[i]).abs() <= 1e-14 * s[i].abs().max(1.0), "row {i}");
        }
    }

    #[test]
    fn kron_reports_shape_metadata() {
        let op = KroneckerSum::new(sample_factors(), 10.0).unwrap();
        // Outermost factor has 2 levels over stride 6.
        assert_eq!(op.bandwidth(), 6);
        assert_eq!(MatVec::rows(&op), 12);
        assert_eq!(op.nnz_estimate(), 12 * (1 + 1 + 2 + 1));
        assert_eq!(op.kind(), "kronecker-sum");
    }

    #[test]
    fn kron_rejects_bad_input() {
        assert!(KroneckerSum::new(vec![], 1.0).is_err());
        assert!(KroneckerSum::new(sample_factors(), f64::INFINITY).is_err());
        let neg = Mat::from_rows(&[&[0.0, -1.0][..], &[1.0, 0.0][..]]).unwrap();
        assert!(KroneckerSum::new(vec![neg], 1.0).is_err());
        let nonsquare = Mat::zeros(2, 3);
        assert!(KroneckerSum::new(vec![nonsquare], 1.0).is_err());
    }

    #[test]
    fn operator_matrix_equality_and_metadata() {
        let q = bd_generator(9, birth, death);
        let bd = UniformizedBirthDeath::from_tridiagonal_generator(&q, 5.0).unwrap();
        let a = OperatorMatrix::birth_death(bd.clone());
        let b = OperatorMatrix::birth_death(bd);
        let k = OperatorMatrix::kronecker(KroneckerSum::new(sample_factors(), 5.0).unwrap());
        assert_eq!(a, b);
        assert_ne!(a, k);
        assert_eq!(a.kind(), "birth-death");
        assert_eq!(a.rows(), 9);
        assert_eq!(a.bandwidth(), 1);
        assert_eq!(a.nnz_estimate(), 25);
        let other = OperatorMatrix::birth_death(
            UniformizedBirthDeath::from_tridiagonal_generator(&q, 6.0).unwrap(),
        );
        assert_ne!(a, other, "different rate, different strips");
    }

    #[test]
    fn from_structure_builds_both_backends() {
        let n = 7;
        let q = bd_generator(n, birth, death);
        let bd = ModelStructure::BirthDeath {
            birth: (0..n - 1).map(birth).collect(),
            death: (0..n - 1).map(death).collect(),
        };
        assert_eq!(bd.n_states(), n);
        assert_eq!(bd.kind(), "birth-death");
        let op = OperatorMatrix::from_structure(&bd, &q, 5.0).unwrap();
        assert_eq!(op.kind(), "birth-death");

        let ks = KroneckerSum::new(sample_factors(), 5.0).unwrap();
        let kq = kron_generator(&ks);
        let structure = ModelStructure::KroneckerSum {
            factors: sample_factors(),
        };
        assert_eq!(structure.n_states(), 12);
        let kop = OperatorMatrix::from_structure(&structure, &kq, 5.0).unwrap();
        assert_eq!(kop.kind(), "kronecker-sum");
        let x = probe(12);
        let mut y = vec![0.0; 12];
        kop.matvec_into(&x, &mut y);
        let mut want = vec![0.0; 12];
        uniformize(&kq, 5.0).matvec_into(&x, &mut want);
        assert_eq!(y, want);

        // Mismatched dimensions fail with a typed error.
        assert!(OperatorMatrix::from_structure(&structure, &q, 5.0).is_err());
    }
}
