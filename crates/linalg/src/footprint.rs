//! Exact owned-allocation accounting for storage-owning types.
//!
//! [`FootprintBytes`] reports the bytes a value's owned heap
//! allocations *store* — `len`-based, not `capacity`-based, so the
//! number is deterministic across allocator and growth-strategy
//! differences and matches what a freshly built (shrunk-to-fit) value
//! would occupy. Inline struct fields (lengths, scalars) are excluded:
//! the interesting quantity at scale is the O(n)/O(nnz) heap payload,
//! and that is what the memory ledger (`somrm-obs`) budgets against.
//!
//! Implementations exist for every iteration-matrix storage
//! ([`CsrMatrix`], [`DiaMatrix`], [`OperatorMatrix`] via
//! [`MatVec::footprint_bytes`], and the [`IterationMatrix`] dispatch)
//! and for the fused kernel's working set
//! ([`FusedMomentKernel`](crate::fused::FusedMomentKernel)).

use crate::dia::{DiaMatrix, IterationMatrix};
use crate::operator::OperatorMatrix;
use crate::sparse::CsrMatrix;

/// Exact stored bytes of a value's owned heap allocations.
pub trait FootprintBytes {
    /// Bytes stored by owned allocations (`len · size_of::<elem>()`,
    /// summed over every owned buffer).
    fn footprint_bytes(&self) -> usize;
}

impl<T: crate::scalar::Scalar> FootprintBytes for CsrMatrix<T> {
    /// `(rows + 1)` row pointers + one column index and one value per
    /// stored entry.
    fn footprint_bytes(&self) -> usize {
        let (row_ptr, col_idx, values) = self.csr_parts();
        size_of_val(row_ptr) + size_of_val(col_idx) + size_of_val(values)
    }
}

impl FootprintBytes for DiaMatrix {
    /// One offset per stored diagonal + `n` doubles per stored diagonal
    /// (DIA pads every kept diagonal to full length).
    fn footprint_bytes(&self) -> usize {
        size_of_val(self.offsets()) + size_of_val(self.data())
    }
}

impl FootprintBytes for OperatorMatrix {
    /// Delegates to the backend's [`MatVec::footprint_bytes`]
    /// (`crate::operator::MatVec`): O(n) strips or factor blocks, never
    /// the materialized matrix.
    fn footprint_bytes(&self) -> usize {
        self.as_matvec().footprint_bytes()
    }
}

impl FootprintBytes for IterationMatrix {
    fn footprint_bytes(&self) -> usize {
        match self {
            IterationMatrix::Csr(csr) => csr.footprint_bytes(),
            IterationMatrix::Dia(dia) => dia.footprint_bytes(),
            IterationMatrix::Operator(op) => op.footprint_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dia::MatrixFormat;
    use crate::sparse::TripletBuilder;

    /// Tridiagonal uniformized-style matrix on `n` states, the ladder
    /// shape the solvers actually iterate with.
    fn tridiag(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.25);
            }
            b.push(i, i, 0.5);
            if i + 1 < n {
                b.push(i, i + 1, 0.25);
            }
        }
        b.build()
    }

    #[test]
    fn csr_footprint_is_exact_for_ladder_sizes() {
        for n in [1_000usize, 10_000] {
            let csr = tridiag(n);
            let nnz = 3 * n - 2;
            assert_eq!(csr.nnz(), nnz);
            let expected = (n + 1) * size_of::<usize>()
                + nnz * size_of::<usize>()
                + nnz * size_of::<f64>();
            assert_eq!(csr.footprint_bytes(), expected);
        }
    }

    #[test]
    fn dia_footprint_is_exact_for_ladder_sizes() {
        for n in [1_000usize, 10_000] {
            let dia = DiaMatrix::from_csr(&tridiag(n)).expect("tridiagonal converts");
            // Three diagonals, each padded to n doubles, plus offsets.
            let expected = 3 * size_of::<isize>() + 3 * n * size_of::<f64>();
            assert_eq!(dia.footprint_bytes(), expected);
        }
    }

    #[test]
    fn iteration_matrix_dispatch_matches_inner_storage() {
        let csr = tridiag(64);
        let csr_bytes = csr.footprint_bytes();
        let m = IterationMatrix::with_format(csr.clone(), MatrixFormat::Csr);
        assert_eq!(m.footprint_bytes(), csr_bytes);
        let d = IterationMatrix::with_format(csr, MatrixFormat::Dia);
        assert!(d.is_dia());
        assert_eq!(
            d.footprint_bytes(),
            3 * size_of::<isize>() + 3 * 64 * size_of::<f64>()
        );
    }

    #[test]
    fn operator_strips_are_far_below_the_materialized_pipeline_at_2m_states() {
        // The point of the operator backend: at 2M states the CSR→DIA
        // pipeline materializes ~(n+1+2nnz) usizes/doubles of CSR plus
        // 3n doubles of DIA, while the birth-death strips hold 3n−2
        // doubles total. Compare against the *pipeline* cost (source
        // CSR + DIA coexist during conversion), not DIA alone.
        let n = 2_000_001usize;
        let op =
            crate::operator::UniformizedBirthDeath::from_rates(n, 4.0, |_| 1.0, |_| 1.5)
                .expect("valid rates");
        let op_bytes = crate::operator::MatVec::footprint_bytes(&op);
        assert_eq!(op_bytes, (3 * n - 2) * size_of::<f64>());

        let nnz = 3 * n - 2;
        let csr_bytes =
            (n + 1) * size_of::<usize>() + nnz * size_of::<usize>() + nnz * size_of::<f64>();
        let dia_bytes = 3 * size_of::<isize>() + 3 * n * size_of::<f64>();
        assert!(
            op_bytes < dia_bytes && op_bytes < csr_bytes,
            "operator {op_bytes}B should undercut DIA {dia_bytes}B and CSR {csr_bytes}B"
        );
        let pipeline_bytes = csr_bytes + dia_bytes;
        assert!(
            2 * op_bytes <= pipeline_bytes,
            "operator {op_bytes}B should be well under the {pipeline_bytes}B CSR+DIA pipeline"
        );
    }
}
