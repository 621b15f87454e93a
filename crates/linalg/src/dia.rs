//! Diagonal (DIA) sparse storage for banded matrices.
//!
//! The paper's headline model — the 200,001-state ON-OFF multiplexer —
//! has a birth–death generator, so the uniformized `Q'` is tridiagonal.
//! CSR spends its inner loop chasing `col_idx` through memory; for a
//! matrix whose entries live on a handful of diagonals, storing each
//! diagonal contiguously gives a branch-free, unit-stride kernel: for
//! every stored diagonal `o`, `y[i] += diag[i] · x[i + o]` over the rows
//! where the diagonal is in bounds. No index array, no per-entry branch,
//! and both streams advance by one element per step.
//!
//! ## Bit-identity with the CSR kernel
//!
//! [`DiaMatrix::matvec_into`] produces the same floating-point results
//! as [`CsrMatrix::matvec_into`] on the same matrix:
//!
//! * [`TripletBuilder`](crate::sparse::TripletBuilder) sorts entries by
//!   `(row, col)`, so the CSR row dot accumulates in ascending column
//!   order. The DIA kernel visits diagonals in ascending offset order,
//!   which for any fixed row is the *same* ascending column order, with
//!   the same left-associated `acc + v·x` chain (`y[i]` starts at `0.0`
//!   and takes one `+=` per diagonal).
//! * Positions padded with `+0.0` (rows where a stored diagonal has no
//!   structural entry) contribute `+0.0 · x` terms. All solver matrices
//!   (`Q'`, and the `U` iterates they multiply) are non-negative, where
//!   `acc + 0.0·x` is bitwise the identity; for general signed data the
//!   only possible difference is the sign of an exact zero (`-0.0` vs
//!   `+0.0`), which `==` cannot observe.
//!
//! The uniformized `P' = Q·(1/q) + I` is built straight from the raw
//! generator by [`IterationMatrix::from_generator`], with the arithmetic
//! of `Q.scaled(1/q).add_scaled_identity(1.0)`: off-diagonal entries
//! `v·(1/q)`, the diagonal `v·(1/q) + 1.0`, or exactly `1.0` where `Q`
//! stores no diagonal entry. The strips, the structural count and the
//! storage decision are bitwise those of converting the materialized
//! `P'`, so a banded model never pays for its CSR copy.
//!
//! [`IterationMatrix`] is the dispatch point the solvers iterate over,
//! auto-selecting DIA when the diagonal count makes it profitable
//! ([`MatrixFormat::Auto`]), or forced either way for benchmarks and
//! tests. Every selector applies the same storage rule.

use crate::error::LinalgError;
use crate::operator::OperatorMatrix;
use crate::sparse::CsrMatrix;

/// Hard cap on the padded storage a **forced** DIA conversion may
/// allocate (2 GiB of `f64` strips). The `Auto` profitability gate
/// normally keeps DIA within a small factor of the CSR payload, but a
/// forced `--format dia` on a scattered matrix pads every populated
/// diagonal to full length — up to `(2n−1)·n` doubles — which can dwarf
/// the machine before the allocator ever gets to refuse politely.
/// [`IterationMatrix::try_with_format`] estimates the allocation up
/// front and returns [`LinalgError::AllocationTooLarge`] instead.
pub const FORCED_DIA_MAX_BYTES: u64 = 1 << 31;

/// A sparse matrix stored by diagonals (DIA format).
///
/// Entry `A[i][j]` with `j - i = offsets[d]` lives at `data[d·n + i]`;
/// positions where a stored diagonal has no structural entry hold `+0.0`.
/// Offsets are strictly ascending.
///
/// # Example
///
/// ```
/// use somrm_linalg::{DiaMatrix, TripletBuilder};
///
/// let mut b = TripletBuilder::new(3, 3);
/// b.push(0, 0, 2.0);
/// b.push(1, 1, 2.0);
/// b.push(2, 2, 2.0);
/// b.push(0, 1, 1.0);
/// b.push(1, 2, 1.0);
/// let csr = b.build();
/// let dia = DiaMatrix::from_csr(&csr).expect("bidiagonal is DIA-friendly");
/// assert_eq!(dia.bandwidth(), 1);
/// assert_eq!(dia.offsets(), &[0, 1]);
/// let mut y = vec![0.0; 3];
/// dia.matvec_into(&[1.0, 10.0, 100.0], &mut y);
/// assert_eq!(y, vec![12.0, 120.0, 200.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix {
    n: usize,
    /// Strictly ascending diagonal offsets (`col - row`).
    offsets: Vec<isize>,
    /// Flattened diagonals: `data[d·n + i] = A[i][i + offsets[d]]`.
    data: Vec<f64>,
    /// Structural non-zeros of the CSR source (for reporting).
    nnz: usize,
}

impl DiaMatrix {
    /// Converts a square CSR matrix to DIA **if the format is profitable**
    /// under the [`MatrixFormat::Auto`] rule: the number of distinct
    /// diagonals must satisfy `ndiag · n ≤ 4 · nnz + 64`, i.e. the padded
    /// diagonal storage may exceed the CSR payload by at most a small
    /// constant factor. Returns `None` for non-square matrices or when
    /// too many diagonals are populated (a scattered matrix would
    /// explode to `O(n²)` here).
    pub fn from_csr(csr: &CsrMatrix<f64>) -> Option<DiaMatrix> {
        let shape = dia_shape(csr, MatrixFormat::Auto, false).ok()??;
        Some(Self::assemble(csr, shape, None))
    }

    /// Lays out the entries of `csr` along `shape.offsets`. With
    /// `uniformize = Some(1/q)` the raw generator becomes
    /// `P' = Q·(1/q) + I` on the way: off-diagonal entries `v·(1/q)`, the
    /// diagonal `v·(1/q) + 1.0`, and `1.0` on rows with no stored
    /// diagonal — `add_scaled_identity`'s duplicate sum, entry by entry.
    fn assemble(csr: &CsrMatrix<f64>, shape: Shape, uniformize: Option<f64>) -> DiaMatrix {
        let n = csr.rows();
        let offsets = shape.offsets;
        let mut data = vec![0.0f64; offsets.len() * n];
        if uniformize.is_some() {
            let d0 = offsets
                .binary_search(&0)
                .expect("uniformized shape holds the diagonal");
            data[d0 * n..(d0 + 1) * n].fill(1.0);
        }
        for i in 0..n {
            for (j, v) in csr.row(i) {
                let o = j as isize - i as isize;
                let d = offsets.binary_search(&o).expect("offset collected above");
                data[d * n + i] = match uniformize {
                    Some(inv) if o == 0 => v * inv + 1.0,
                    Some(inv) => v * inv,
                    None => v,
                };
            }
        }
        DiaMatrix {
            n,
            offsets,
            data,
            nnz: shape.nnz,
        }
    }

    /// Matrix dimension (the matrix is square by construction).
    pub fn rows(&self) -> usize {
        self.n
    }

    /// The stored diagonal offsets, strictly ascending.
    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// The flattened diagonal data (`data[d·n + i]`).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Structural non-zeros of the CSR matrix this was built from.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Maximum `|offset|` over the stored diagonals (0 for diagonal or
    /// empty matrices). A birth–death generator reports 1.
    pub fn bandwidth(&self) -> usize {
        self.offsets
            .iter()
            .map(|&o| o.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// The row range `lo..hi` where diagonal offset `o` is in bounds.
    #[inline]
    pub(crate) fn diag_rows(n: usize, o: isize) -> std::ops::Range<usize> {
        let hi = (n as isize - o.max(0)).max(0) as usize;
        let lo = ((-o).max(0) as usize).min(hi);
        lo..hi
    }

    /// Computes `y = A·x`: one branch-free, unit-stride pass per stored
    /// diagonal, bit-identical to the CSR kernel (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the matrix dimension.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec: x length mismatch");
        assert_eq!(y.len(), self.n, "matvec: y length mismatch");
        y.fill(0.0);
        for (d, &o) in self.offsets.iter().enumerate() {
            let diag = &self.data[d * self.n..(d + 1) * self.n];
            for i in Self::diag_rows(self.n, o) {
                y[i] += diag[i] * x[(i as isize + o) as usize];
            }
        }
    }

    /// `A·x` as a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the matrix dimension.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec_into(x, &mut y);
        y
    }
}

/// The diagonal layout of a square matrix: its distinct `col − row`
/// offsets, strictly ascending, and its structural entry count.
struct Shape {
    offsets: Vec<isize>,
    nnz: usize,
}

impl Shape {
    /// The layout of a square `csr`, or with `with_identity` the layout
    /// of `csr + a·I` (the diagonal joins the offsets and each row with
    /// no stored diagonal gains one entry); `None` if not square.
    ///
    /// Single pass over the CSR entries: a `2n − 1` occupancy bitmap
    /// indexed by `offset + (n − 1)` marks each diagonal seen, then one
    /// scan of the bitmap emits the offsets already sorted. `O(nnz + n)`
    /// time, no per-entry search or mid-vector insertion.
    fn of(csr: &CsrMatrix<f64>, with_identity: bool) -> Option<Shape> {
        if csr.rows() != csr.cols() {
            return None;
        }
        let n = csr.rows();
        let mut nnz = csr.nnz();
        if n == 0 {
            return Some(Shape {
                offsets: Vec::new(),
                nnz,
            });
        }
        let (row_ptr, col_idx, _) = csr.csr_parts();
        let mut seen = vec![false; 2 * n - 1];
        for i in 0..n {
            let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for &j in cols {
                seen[j + (n - 1) - i] = true;
            }
            if with_identity && !cols.contains(&i) {
                nnz += 1;
            }
        }
        seen[n - 1] |= with_identity;
        let offsets = seen
            .iter()
            .enumerate()
            .filter(|&(_, &present)| present)
            .map(|(slot, _)| slot as isize - (n as isize - 1))
            .collect();
        Some(Shape { offsets, nnz })
    }
}

/// The one storage rule every selector applies: `Some(layout)` when
/// `format` stores `csr` (with `with_identity`, `csr + a·I`) as DIA,
/// `None` when it stays CSR.
///
/// * `Auto` takes DIA when the padded strips stay within a small factor
///   of the CSR payload: `ndiag · n ≤ 4 · nnz + 64`.
/// * Forced `Dia` always takes it, but estimates the padded allocation
///   (`ndiag · n · 8` bytes) up front and refuses past
///   [`FORCED_DIA_MAX_BYTES`] with [`LinalgError::AllocationTooLarge`]
///   — a scattered matrix pads to `O(n²)`.
/// * `Csr` never does, and neither shape fits a non-square matrix.
/// * `Operator` is [`LinalgError::FormatUnsupported`]: the matrix-free
///   backend needs a Kronecker-sum descriptor, which a matrix does not
///   carry.
fn dia_shape(
    csr: &CsrMatrix<f64>,
    format: MatrixFormat,
    with_identity: bool,
) -> Result<Option<Shape>, LinalgError> {
    let forced = match format {
        MatrixFormat::Auto => false,
        MatrixFormat::Dia => true,
        MatrixFormat::Csr => return Ok(None),
        MatrixFormat::Operator => {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: "the matrix-free operator needs a Kronecker-sum structure descriptor"
                    .to_string(),
            })
        }
    };
    let Some(shape) = Shape::of(csr, with_identity) else {
        return Ok(None);
    };
    let (ndiag, n) = (shape.offsets.len(), csr.rows());
    if !forced {
        return Ok((ndiag.saturating_mul(n) <= 4 * shape.nnz + 64).then_some(shape));
    }
    let estimated_bytes = (ndiag as u64)
        .saturating_mul(n as u64)
        .saturating_mul(std::mem::size_of::<f64>() as u64);
    if estimated_bytes > FORCED_DIA_MAX_BYTES {
        return Err(LinalgError::AllocationTooLarge {
            what: "forced DIA storage",
            estimated_bytes,
            cap_bytes: FORCED_DIA_MAX_BYTES,
        });
    }
    Ok(Some(shape))
}

/// Which storage the solver's iteration matrix should use.
///
/// `Auto` (the default) converts to DIA when the bandwidth detector
/// accepts the matrix and stays on CSR otherwise; `Csr`/`Dia` force the
/// format (DIA on a scattered matrix stores every populated diagonal in
/// full — benchmarks only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixFormat {
    /// Pick per matrix: DIA when profitable, CSR otherwise.
    #[default]
    Auto,
    /// Always CSR.
    Csr,
    /// Always DIA (padded to every populated diagonal).
    Dia,
    /// Matrix-free Kronecker-sum operator (`crate::operator`): entries
    /// computed on the fly from the model's Kronecker descriptor, never
    /// materialized. Models without one cannot use it.
    Operator,
}

impl std::fmt::Display for MatrixFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MatrixFormat::Auto => "auto",
            MatrixFormat::Csr => "csr",
            MatrixFormat::Dia => "dia",
            MatrixFormat::Operator => "operator",
        })
    }
}

impl std::str::FromStr for MatrixFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(MatrixFormat::Auto),
            "csr" => Ok(MatrixFormat::Csr),
            "dia" => Ok(MatrixFormat::Dia),
            "operator" | "op" => Ok(MatrixFormat::Operator),
            other => Err(format!(
                "unknown matrix format '{other}' (auto|csr|dia|operator)"
            )),
        }
    }
}

/// The matrix a solver iterates with, in whichever storage was selected
/// at solve setup. [`FusedMomentKernel`](crate::fused::FusedMomentKernel)
/// and the serial solver loops dispatch over this enum once per pass;
/// both variants produce bit-identical mat-vec results (module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum IterationMatrix {
    /// Generic compressed-sparse-row storage.
    Csr(CsrMatrix<f64>),
    /// Diagonal storage for banded matrices.
    Dia(DiaMatrix),
    /// Matrix-free Kronecker-sum operator.
    Operator(OperatorMatrix),
}

impl IterationMatrix {
    /// Selects the storage for an already built matrix `csr` by the one
    /// storage rule: `Auto` takes DIA when profitable, forced `Dia`
    /// refuses past [`FORCED_DIA_MAX_BYTES`] with
    /// [`LinalgError::AllocationTooLarge`] before allocating, and
    /// `Operator` is [`LinalgError::FormatUnsupported`] (a matrix carries
    /// no Kronecker descriptor). Non-square matrices stay CSR.
    pub fn try_with_format(
        csr: CsrMatrix<f64>,
        format: MatrixFormat,
    ) -> Result<IterationMatrix, LinalgError> {
        Ok(match dia_shape(&csr, format, false)? {
            Some(shape) => IterationMatrix::Dia(DiaMatrix::assemble(&csr, shape, None)),
            None => IterationMatrix::Csr(csr),
        })
    }

    /// Builds the uniformized `P' = Q·(1/rate) + I` of the raw generator
    /// `Q` in the storage `format` selects, by the same rule as
    /// [`IterationMatrix::try_with_format`] on the materialized `P'`.
    /// DIA strips are written straight from `Q` (module docs), with the
    /// offsets, bits, `nnz` and storage decision of
    /// `DiaMatrix::from_csr` on `Q.scaled(1/rate).add_scaled_identity(1.0)`;
    /// that CSR matrix is materialized only when CSR is chosen.
    ///
    /// # Errors
    ///
    /// As [`IterationMatrix::try_with_format`], plus
    /// [`LinalgError::DimensionMismatch`] for a non-square `Q`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is finite and positive.
    pub fn from_generator(
        generator: &CsrMatrix<f64>,
        rate: f64,
        format: MatrixFormat,
    ) -> Result<IterationMatrix, LinalgError> {
        assert!(
            rate.is_finite() && rate > 0.0,
            "uniformization rate {rate} must be positive"
        );
        let inv = 1.0 / rate;
        Ok(match dia_shape(generator, format, true)? {
            Some(shape) => IterationMatrix::Dia(DiaMatrix::assemble(generator, shape, Some(inv))),
            None => IterationMatrix::Csr(generator.scaled(inv).add_scaled_identity(1.0)?),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            IterationMatrix::Csr(m) => m.rows(),
            IterationMatrix::Dia(m) => m.rows(),
            IterationMatrix::Operator(m) => m.rows(),
        }
    }

    /// Number of columns (square for the DIA and operator variants by
    /// construction).
    pub fn cols(&self) -> usize {
        match self {
            IterationMatrix::Csr(m) => m.cols(),
            IterationMatrix::Dia(m) => m.rows(),
            IterationMatrix::Operator(m) => m.rows(),
        }
    }

    /// `true` if the DIA storage was selected.
    pub fn is_dia(&self) -> bool {
        matches!(self, IterationMatrix::Dia(_))
    }

    /// The selected format as a report-friendly name.
    pub fn format_name(&self) -> &'static str {
        match self {
            IterationMatrix::Csr(_) => "csr",
            IterationMatrix::Dia(_) => "dia",
            IterationMatrix::Operator(_) => "operator",
        }
    }

    /// Maximum `|col − row|` over the stored entries (an `O(nnz)` scan
    /// for the CSR variant; precomputed for DIA).
    pub fn bandwidth(&self) -> usize {
        match self {
            IterationMatrix::Csr(m) => {
                let (row_ptr, col_idx, _) = m.csr_parts();
                let mut bw = 0usize;
                for i in 0..m.rows() {
                    for k in row_ptr[i]..row_ptr[i + 1] {
                        bw = bw.max(col_idx[k].abs_diff(i));
                    }
                }
                bw
            }
            IterationMatrix::Dia(m) => m.bandwidth(),
            IterationMatrix::Operator(m) => m.bandwidth(),
        }
    }

    /// Computes `y = A·x` with the selected kernel.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the matrix shape.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        match self {
            IterationMatrix::Csr(m) => m.matvec_into(x, y),
            IterationMatrix::Dia(m) => m.matvec_into(x, y),
            IterationMatrix::Operator(m) => m.matvec_into(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    fn tridiag(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 3 * n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.2 + (i % 5) as f64 * 0.03);
            }
            b.push(i, i, 0.4 + (i % 3) as f64 * 0.05);
            if i + 1 < n {
                b.push(i, i + 1, 0.3 - (i % 4) as f64 * 0.02);
            }
        }
        b.build()
    }

    fn ring(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 2 * n);
        for i in 0..n {
            b.push(i, i, 0.5);
            b.push(i, (i + 1) % n, 0.5);
        }
        b.build()
    }

    fn scattered(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 2 * n);
        for i in 0..n {
            b.push(i, i, 1.0);
            b.push(i, (i * 7 + 3) % n, 0.01);
        }
        b.build()
    }

    fn test_vector(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 29) % 13) as f64 / 7.0 - 0.8).collect()
    }

    fn offsets_of(csr: &CsrMatrix<f64>) -> Option<Vec<isize>> {
        Shape::of(csr, false).map(|s| s.offsets)
    }

    #[test]
    fn shape_single_pass_on_200k_banded() {
        // Paper-scale detector check: a 200,000-row matrix with a
        // 7-diagonal band (offsets ±1, ±2, ±5, 0 — deliberately
        // non-contiguous) must be detected exactly, and fast. The
        // previous per-entry binary_search + insert detector was fine
        // here but quadratic in the diagonal count on scattered
        // matrices; the single-pass bitmap is O(nnz + n) always. The
        // <100ms budget (debug build!) guards against reintroducing a
        // rescan per candidate offset.
        let n = 200_000;
        let band: [isize; 7] = [-5, -2, -1, 0, 1, 2, 5];
        let mut b = TripletBuilder::with_capacity(n, n, 7 * n);
        for i in 0..n {
            for &o in &band {
                let j = i as isize + o;
                if (0..n as isize).contains(&j) {
                    b.push(i, j as usize, 1.0 + o as f64 * 0.1);
                }
            }
        }
        let csr = b.build();
        let start = std::time::Instant::now();
        let offsets = offsets_of(&csr).expect("square matrix");
        let elapsed = start.elapsed();
        assert_eq!(offsets, band.to_vec());
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "detector took {elapsed:?} on 200k rows"
        );
    }

    #[test]
    fn shape_edge_shapes() {
        // Empty and 1×1 matrices, and a full anti-diagonal touching
        // both bitmap extremes (offsets n−1 and −(n−1)).
        let empty = TripletBuilder::with_capacity(0, 0, 0).build();
        assert_eq!(offsets_of(&empty).unwrap(), Vec::<isize>::new());
        let mut one = TripletBuilder::with_capacity(1, 1, 1);
        one.push(0, 0, 2.0);
        assert_eq!(offsets_of(&one.build()).unwrap(), vec![0]);
        let n = 5;
        let mut anti = TripletBuilder::with_capacity(n, n, n);
        for i in 0..n {
            anti.push(i, n - 1 - i, 1.0);
        }
        assert_eq!(offsets_of(&anti.build()).unwrap(), vec![-4, -2, 0, 2, 4]);
    }

    #[test]
    fn tridiagonal_is_detected_with_bandwidth_one() {
        let csr = tridiag(100);
        let dia = DiaMatrix::from_csr(&csr).expect("tridiagonal accepted");
        assert_eq!(dia.offsets(), &[-1, 0, 1]);
        assert_eq!(dia.bandwidth(), 1);
        assert_eq!(dia.nnz(), csr.nnz());
    }

    #[test]
    fn ring_matrix_is_accepted() {
        // A ring chain has offsets {-(n-1), 0, 1}: three diagonals, so
        // DIA is efficient even though the naive bandwidth is n-1.
        let n = 64;
        let dia = DiaMatrix::from_csr(&ring(n)).expect("ring accepted");
        assert_eq!(dia.offsets(), &[-(n as isize - 1), 0, 1]);
        assert_eq!(dia.bandwidth(), n - 1);
    }

    #[test]
    fn scattered_matrix_is_rejected_but_forcible() {
        let csr = scattered(257);
        assert!(DiaMatrix::from_csr(&csr).is_none(), "too many diagonals");
        let forced = IterationMatrix::try_with_format(csr.clone(), MatrixFormat::Dia).unwrap();
        assert!(forced.is_dia(), "square always forcible");
        let mut y = vec![f64::NAN; 257];
        forced.matvec_into(&test_vector(257), &mut y);
        assert_eq!(y, csr.matvec(&test_vector(257)));
    }

    #[test]
    fn non_square_is_rejected() {
        let csr = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(DiaMatrix::from_csr(&csr).is_none());
        for format in [MatrixFormat::Auto, MatrixFormat::Dia] {
            let m = IterationMatrix::try_with_format(csr.clone(), format).unwrap();
            assert!(!m.is_dia(), "{format}: non-square stays CSR");
        }
    }

    #[test]
    fn dia_matvec_bitwise_matches_csr() {
        for csr in [tridiag(101), ring(101), scattered(101)] {
            let dia = match IterationMatrix::try_with_format(csr.clone(), MatrixFormat::Dia) {
                Ok(IterationMatrix::Dia(d)) => d,
                other => panic!("forced DIA, got {other:?}"),
            };
            let x = test_vector(101);
            let mut y_csr = vec![f64::NAN; 101];
            let mut y_dia = vec![f64::NAN; 101];
            csr.matvec_into(&x, &mut y_csr);
            dia.matvec_into(&x, &mut y_dia);
            assert_eq!(y_dia, y_csr);
        }
    }

    #[test]
    fn empty_and_tiny_matrices_work() {
        let empty = TripletBuilder::new(0, 0).build();
        let dia = DiaMatrix::from_csr(&empty).unwrap();
        assert_eq!(dia.bandwidth(), 0);
        dia.matvec_into(&[], &mut []);

        let one = CsrMatrix::from_triplets(1, 1, &[(0, 0, 3.0)]);
        let dia = DiaMatrix::from_csr(&one).unwrap();
        assert_eq!(dia.matvec(&[2.0]), vec![6.0]);
    }

    #[test]
    fn diag_rows_clips_to_bounds() {
        assert_eq!(DiaMatrix::diag_rows(5, 0), 0..5);
        assert_eq!(DiaMatrix::diag_rows(5, 2), 0..3);
        assert_eq!(DiaMatrix::diag_rows(5, -2), 2..5);
        assert_eq!(DiaMatrix::diag_rows(5, 7), 0..0);
        assert_eq!(DiaMatrix::diag_rows(5, -7), 5..5);
        assert_eq!(DiaMatrix::diag_rows(0, 0), 0..0);
    }

    #[test]
    fn format_selection_and_names() {
        let select = |csr, format| IterationMatrix::try_with_format(csr, format).unwrap();
        let auto = select(tridiag(64), MatrixFormat::Auto);
        assert!(auto.is_dia());
        assert_eq!(auto.format_name(), "dia");
        assert_eq!(auto.bandwidth(), 1);

        let auto_scattered = select(scattered(257), MatrixFormat::Auto);
        assert!(!auto_scattered.is_dia());
        assert_eq!(auto_scattered.format_name(), "csr");

        let forced = select(scattered(257), MatrixFormat::Dia);
        assert!(forced.is_dia());

        let forced_csr = select(tridiag(64), MatrixFormat::Csr);
        assert!(!forced_csr.is_dia());
        assert_eq!(forced_csr.bandwidth(), 1);
    }

    #[test]
    fn iteration_matrix_matvec_dispatches() {
        let csr = tridiag(50);
        let x = test_vector(50);
        let expect = csr.matvec(&x);
        for format in [MatrixFormat::Auto, MatrixFormat::Csr, MatrixFormat::Dia] {
            let m = IterationMatrix::try_with_format(csr.clone(), format).unwrap();
            let mut y = vec![f64::NAN; 50];
            m.matvec_into(&x, &mut y);
            assert_eq!(y, expect, "format {format}");
        }
    }

    #[test]
    fn matrix_format_parses_and_displays() {
        for (s, f) in [
            ("auto", MatrixFormat::Auto),
            ("csr", MatrixFormat::Csr),
            ("dia", MatrixFormat::Dia),
            ("operator", MatrixFormat::Operator),
        ] {
            assert_eq!(s.parse::<MatrixFormat>().unwrap(), f);
            assert_eq!(f.to_string(), s);
        }
        assert_eq!(
            "op".parse::<MatrixFormat>().unwrap(),
            MatrixFormat::Operator
        );
        assert!("banded".parse::<MatrixFormat>().is_err());
        assert_eq!(MatrixFormat::default(), MatrixFormat::Auto);
    }

    #[test]
    fn forced_operator_without_a_kronecker_descriptor_is_a_typed_error() {
        // A matrix carries no Kronecker descriptor, whatever its shape:
        // forcing the operator is refused, never quietly run as CSR/DIA.
        for csr in [tridiag(50), scattered(64)] {
            let err = IterationMatrix::try_with_format(csr.clone(), MatrixFormat::Operator);
            assert!(matches!(
                err,
                Err(LinalgError::FormatUnsupported {
                    format: "operator",
                    ..
                })
            ));
            let err = IterationMatrix::from_generator(&csr, 2.0, MatrixFormat::Operator);
            assert!(matches!(
                err,
                Err(LinalgError::FormatUnsupported {
                    format: "operator",
                    ..
                })
            ));
        }
    }

    #[test]
    fn forced_dia_past_the_cap_is_refused_with_the_estimate() {
        // ~20k distinct diagonals over 20k rows pads to ≈ 3.2 GB —
        // the estimate must be rejected before anything is allocated.
        let n = 20_000;
        let csr = scattered(n);
        let ndiag = offsets_of(&csr).unwrap().len() as u64;
        assert!(ndiag * n as u64 * 8 > FORCED_DIA_MAX_BYTES, "test premise");
        let refused = |got: Result<IterationMatrix, LinalgError>| match got {
            Err(LinalgError::AllocationTooLarge {
                estimated_bytes,
                cap_bytes,
                ..
            }) => {
                assert_eq!(estimated_bytes, ndiag * n as u64 * 8);
                assert_eq!(cap_bytes, FORCED_DIA_MAX_BYTES);
            }
            other => panic!("expected AllocationTooLarge, got {other:?}"),
        };
        // `scattered` stores its whole diagonal, so the generator path
        // counts the same diagonals as the materialized matrix.
        refused(IterationMatrix::from_generator(
            &csr,
            2.0,
            MatrixFormat::Dia,
        ));
        refused(IterationMatrix::try_with_format(csr, MatrixFormat::Dia));
        // In-bounds forcing still works.
        assert!(
            IterationMatrix::try_with_format(scattered(257), MatrixFormat::Dia)
                .unwrap()
                .is_dia()
        );
    }

    /// A raw generator: the off-diagonal `rates` in push order, then the
    /// `−exit` diagonal of every row with a positive exit sum (absorbing
    /// rows store no diagonal entry).
    fn generator(n: usize, rates: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(n, n);
        let mut exit = vec![0.0f64; n];
        for &(i, j, r) in rates {
            b.push(i, j, r);
            exit[i] += r;
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                b.push(i, i, -e);
            }
        }
        b.build()
    }

    /// Birth–death rates on `n` levels; `hole(i)` zeroes level `i`'s
    /// up and down rates (the generator then stores nothing there).
    fn birth_death(n: usize, hole: impl Fn(usize) -> bool) -> Vec<(usize, usize, f64)> {
        let mut rates = Vec::new();
        for i in 0..n.saturating_sub(1) {
            if !hole(i) {
                rates.push((i, i + 1, 1.5 + (i % 4) as f64 * 0.25));
                rates.push((i + 1, i, 0.75 + (i % 3) as f64 * 0.5));
            }
        }
        rates
    }

    /// Storage, offsets, `data` bits and `nnz` of both selections.
    fn assert_same_storage(a: &IterationMatrix, b: &IterationMatrix, what: &str) {
        match (a, b) {
            (IterationMatrix::Dia(x), IterationMatrix::Dia(y)) => {
                assert_eq!(x.offsets(), y.offsets(), "{what}: offsets");
                assert_eq!(x.nnz(), y.nnz(), "{what}: nnz");
                let bits = |d: &DiaMatrix| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y), "{what}: data bits");
            }
            (IterationMatrix::Csr(x), IterationMatrix::Csr(y)) => {
                let (bits_x, bits_y) = (x.csr_parts().2, y.csr_parts().2);
                assert_eq!(x.csr_parts().1, y.csr_parts().1, "{what}: columns");
                assert!(bits_x
                    .iter()
                    .zip(bits_y)
                    .all(|(u, v)| u.to_bits() == v.to_bits()));
            }
            _ => panic!("{what}: {} vs {}", a.format_name(), b.format_name()),
        }
    }

    #[test]
    fn from_generator_matches_converting_the_uniformized_matrix() {
        // Off-diagonal offsets of a 16-state generator with one rate per
        // offset, and two more rates on offsets already used: with the
        // diagonal, 11 offsets over 16 rows against 12 + 16 entries puts
        // `ndiag·n = 176` exactly on the `4·nnz + 64 = 176` line. Moving
        // one rate onto a new offset crosses it (192 > 176).
        let line = [-15isize, -9, -5, -2, -1, 1, 2, 4, 7, 12];
        let place = |o: isize, i: usize| {
            let i = if o < 0 {
                i.max(o.unsigned_abs())
            } else {
                i.min(15 - o as usize)
            };
            (i, (i as isize + o) as usize, 0.5 + i as f64 * 0.125)
        };
        let mut on_line: Vec<_> = line.iter().map(|&o| place(o, 3)).collect();
        on_line.extend([place(1, 9), place(-1, 9)]);
        let mut past_line = on_line.clone();
        past_line[11] = place(-3, 9);

        let cases: Vec<(&str, CsrMatrix<f64>, f64)> = vec![
            ("n = 1", generator(1, &[]), 1.0),
            (
                "absorbing rows",
                generator(6, &[(0, 1, 2.0), (2, 1, 1.0), (4, 5, 0.5)]),
                3.0,
            ),
            (
                "zero-rate levels",
                generator(33, &birth_death(33, |i| i % 3 == 1)),
                9.0,
            ),
            // q equals row 1's exit rate 4.0, whose diagonal uniformizes
            // to −4·0.25 + 1 = 0.0 exactly, a stored zero.
            (
                "zero diagonal",
                generator(3, &[(0, 1, 1.0), (1, 0, 2.5), (1, 2, 1.5)]),
                4.0,
            ),
            (
                "banded",
                {
                    let mut rates = birth_death(40, |_| false);
                    rates.extend((0..37).map(|i| (i, i + 3, 0.25)));
                    generator(40, &rates)
                },
                11.0,
            ),
            ("on the line", generator(16, &on_line), 16.0),
            ("past the line", generator(16, &past_line), 16.0),
        ];
        for (what, q, rate) in &cases {
            let q_prime = q.scaled(1.0 / rate).add_scaled_identity(1.0).unwrap();
            for format in [MatrixFormat::Auto, MatrixFormat::Dia, MatrixFormat::Csr] {
                let want = IterationMatrix::try_with_format(q_prime.clone(), format).unwrap();
                let got = IterationMatrix::from_generator(q, *rate, format).unwrap();
                assert_same_storage(&want, &got, &format!("{what}, {format}"));
            }
            let auto = DiaMatrix::from_csr(&q_prime);
            let got = IterationMatrix::from_generator(q, *rate, MatrixFormat::Auto).unwrap();
            assert_eq!(auto.is_some(), got.is_dia(), "{what}: Auto decision");
        }
        let dia = |i: usize| {
            IterationMatrix::from_generator(&cases[i].1, cases[i].2, MatrixFormat::Auto).unwrap()
        };
        assert!(dia(5).is_dia(), "on the line is profitable");
        assert!(!dia(6).is_dia(), "past the line is not");
        match dia(3) {
            IterationMatrix::Dia(d) => assert_eq!(d.data()[3 + 1].to_bits(), 0.0f64.to_bits()),
            other => panic!("tridiagonal is DIA, got {other:?}"),
        }
    }
}
