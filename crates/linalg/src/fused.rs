//! Fused iteration kernel for the randomization `U`-recursion.
//!
//! One step of the moment recursion (paper, Theorem 3)
//!
//! ```text
//! U⁽ʲ⁾(k+1) = R'·U⁽ʲ⁻¹⁾(k) + ½S'·U⁽ʲ⁻²⁾(k) + Q'·U⁽ʲ⁾(k),
//! ```
//!
//! followed by the Poisson-weighted accumulation of `U⁽ʲ⁾(k)` for every
//! requested time point, was previously executed as `(order + 1)`
//! independent parallel mat-vec calls plus a serial accumulate loop —
//! each mat-vec paying its own thread spawns and its own sweep over the
//! iteration vectors. [`FusedMomentKernel`] fuses the whole step into
//! **one** parallel pass over contiguous row chunks: each chunk streams
//! its rows once, doing the sparse dot product, the `R'`/`½S'` diagonal
//! combine, and the weighted [`NeumaierSum`] accumulation for all orders
//! and all time points while the data is hot in cache.
//!
//! The recursion reads iteration-`k` values while writing iteration
//! `k+1`, so the kernel double-buffers the `U` block (`u_cur`/`u_next`)
//! and chunks only ever *read* shared state and *write* their own row
//! range — no synchronization inside a pass beyond the pool's
//! start/finish handshake.
//!
//! # Determinism
//!
//! Results are **bit-identical** to the serial reference loop for every
//! thread count: chunk boundaries are fixed by `(n, chunks)`
//! ([`chunk_range`]), each row's dot product accumulates its terms in
//! ascending-column order (CSR storage order, or ascending diagonal
//! offsets for DIA — the same order, see `crate::dia`), the diagonal
//! combine uses the exact expression
//! `dot + r'[i]·u⁽ʲ⁻¹⁾[i] + ½s'[i]·u⁽ʲ⁻²⁾[i]` (left-associated), and
//! each accumulator cell receives its terms in ascending-`k` order from
//! a single thread. The kernel dispatches over [`IterationMatrix`] once
//! per pass, so the CSR and DIA backends share every other line of the
//! pass and inherit the same determinism contract. The matrix-free
//! Kronecker-sum operator (`crate::operator`) joins the same classes:
//! its scalar rows use the identical ascending-column `+=` chain (dots
//! are stored, then combined with the same left-associated expression —
//! stores are exact), and its fma rows the identical canonical
//! `mul_add` chain with the combine applied via [`simd::axpy_fma`].
//!
//! # Projection
//!
//! A solver that only needs `π·V⁽ʲ⁾(t)` attaches one or more `π` with
//! [`FusedMomentKernel::set_projections`] and runs with no time points:
//! each advancing pass then also records the scalars
//! `c_p⁽ʲ⁾ = π_p·U⁽ʲ⁾(k+1)` ([`FusedMomentKernel::projected`]), computed
//! from each freshly written `U_{k+1}` block while it is still in cache.
//! The recursion does not depend on `π`, so `K` initial distributions
//! share one sweep and pay only `K` extra dots per block. Each dot is
//! split into fixed, globally aligned `SIMD_BLOCK`-row partials (each a
//! [`simd::dot`]) that are reduced per `π` in ascending block order
//! after the pass, and a projecting kernel cuts its chunks on block
//! multiples, so every block partial comes from one thread and each
//! `c_p⁽ʲ⁾` is bit-identical across thread counts, storage formats, and
//! the number of projections riding along.
//!
//! # Kernel variants
//!
//! The pass body comes in two arithmetic variants
//! ([`crate::simd::KernelVariant`], selected per kernel with
//! [`FusedMomentKernel::set_variant`]):
//!
//! * **scalar** — the strict-f64 reference above, unchanged; bitwise
//!   results are pinned across releases by golden files.
//! * **simd** — the same recursion in *canonical FMA association*: each
//!   row's dot is a left-to-right chain of correctly-rounded
//!   `mul_add`s over ascending columns, the combine is
//!   `fma(½s', w₂, fma(r', w₁, dot))`, and the Poisson accumulate is
//!   unchanged (plain multiply into the Neumaier update). Everything
//!   the determinism section promises still holds *within* the
//!   variant — CSR vs DIA, any thread count, AVX2 lanes vs the
//!   portable fallback all agree bitwise — but scalar vs simd differ
//!   by rounding reassociation (bounded far below the Theorem-4
//!   truncation tolerance; the verify oracle checks this).
//!
//! The simd pass additionally tiles each chunk into row blocks with the
//! order/time loops *inside* the block (multi-order register blocking),
//! so every `U_k` block is streamed through cache once per pass while
//! all accumulator updates and all orders' advances consume it.

use crate::dia::{DiaMatrix, IterationMatrix};
use crate::operator::KroneckerSum;
use crate::pool::{chunk_range, PoolStats, SyncMutPtr, WorkerPool};
use crate::simd::{self, ResolvedKernel};
use somrm_num::sum::NeumaierSum;
use somrm_obs::RecorderHandle;
use std::ops::Range;

/// The borrowed raw storage of the iteration matrix, resolved once per
/// pass so the chunk closure dispatches without touching the enum.
#[derive(Clone, Copy)]
enum MatrixParts<'b> {
    /// `(row_ptr, col_idx, values)`.
    Csr(&'b [usize], &'b [usize], &'b [f64]),
    /// `(offsets, flattened diagonal data)`.
    Dia(&'b [isize], &'b [f64]),
    /// Matrix-free Kronecker sum; rows computed on the fly.
    Op(&'b KroneckerSum),
}

/// How a kernel reaches its worker threads: none (inline), a pool it
/// owns for the duration of one solve, or a pool borrowed from a
/// longer-lived [`SolvePlan`]-style cache so repeated executes skip the
/// thread spawns entirely.
#[derive(Debug)]
enum KernelPool<'a> {
    /// Single chunk, runs on the calling thread.
    Inline,
    /// Created by [`FusedMomentKernel::new`], dropped with the kernel.
    Owned(WorkerPool),
    /// Supplied by the caller via [`FusedMomentKernel::with_pool`];
    /// outlives the kernel, its threads stay parked between solves.
    Borrowed(&'a mut WorkerPool),
}

/// Fused recursion + accumulation kernel over a persistent worker pool.
///
/// Layout: `U` vectors are flattened as `u[j·n + i]`; accumulators as
/// `acc[(ti·(order+1) + j)·n + i]`; projection partials as
/// `partials[(b·K + p)·(order+1) + j]` for row block `b` and projection
/// `p` of `K`.
#[derive(Debug)]
pub struct FusedMomentKernel<'a> {
    matrix: &'a IterationMatrix,
    r_prime: &'a [f64],
    s_half: &'a [f64],
    order: usize,
    n: usize,
    n_times: usize,
    chunks: usize,
    pool: KernelPool<'a>,
    variant: ResolvedKernel,
    u_cur: Vec<f64>,
    u_next: Vec<f64>,
    acc: Vec<NeumaierSum>,
    /// The projection vectors `π_p` (empty when not projecting).
    projections: Vec<&'a [f64]>,
    /// Per-block dot partials; the first `K·(order + 1)` entries hold the
    /// reduced `π·U⁽ʲ⁾` of the current iterate.
    partials: Vec<f64>,
    recorder: RecorderHandle,
}

impl<'a> FusedMomentKernel<'a> {
    /// Creates the kernel with `U⁽⁰⁾(0) = u0` and `U⁽ʲ⁾(0) = 0` for
    /// `j ≥ 1`, ready to accumulate `n_times` time points.
    ///
    /// `threads` is the number of row chunks (and OS threads engaged);
    /// the worker pool is created here — once per solve — and torn down
    /// when the kernel is dropped. `threads ≤ 1` runs fully inline.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` is not square or the vector lengths disagree.
    pub fn new(
        matrix: &'a IterationMatrix,
        r_prime: &'a [f64],
        s_half: &'a [f64],
        order: usize,
        n_times: usize,
        u0: &[f64],
        threads: usize,
    ) -> Self {
        let n = matrix.rows();
        assert_eq!(matrix.cols(), n, "fused kernel needs a square matrix");
        assert_eq!(r_prime.len(), n, "r_prime length mismatch");
        assert_eq!(s_half.len(), n, "s_half length mismatch");
        assert_eq!(u0.len(), n, "u0 length mismatch");
        let chunks = threads.clamp(1, n.max(1));
        let pool = if chunks > 1 {
            KernelPool::Owned(WorkerPool::new(chunks))
        } else {
            KernelPool::Inline
        };
        Self::assemble(matrix, r_prime, s_half, order, n_times, u0, chunks, pool)
    }

    /// Like [`FusedMomentKernel::new`], but running passes on a
    /// caller-owned [`WorkerPool`] instead of spawning one. The pool's
    /// thread count decides the chunk count (`None` runs inline), so a
    /// plan that keeps one pool alive executes any number of solves
    /// without paying thread creation again — with the same fixed chunk
    /// boundaries, hence bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` is not square, the vector lengths disagree, or
    /// the pool has more threads than the matrix has rows (an owned pool
    /// is clamped at construction; a borrowed one must already fit).
    pub fn with_pool(
        matrix: &'a IterationMatrix,
        r_prime: &'a [f64],
        s_half: &'a [f64],
        order: usize,
        n_times: usize,
        u0: &[f64],
        pool: Option<&'a mut WorkerPool>,
    ) -> Self {
        let n = matrix.rows();
        let (chunks, pool) = match pool {
            Some(p) => {
                assert!(
                    p.threads() <= n.max(1),
                    "borrowed pool has {} threads for {} rows",
                    p.threads(),
                    n
                );
                (p.threads().max(1), KernelPool::Borrowed(p))
            }
            None => (1, KernelPool::Inline),
        };
        Self::assemble(matrix, r_prime, s_half, order, n_times, u0, chunks, pool)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        matrix: &'a IterationMatrix,
        r_prime: &'a [f64],
        s_half: &'a [f64],
        order: usize,
        n_times: usize,
        u0: &[f64],
        chunks: usize,
        pool: KernelPool<'a>,
    ) -> Self {
        let n = matrix.rows();
        assert_eq!(matrix.cols(), n, "fused kernel needs a square matrix");
        assert_eq!(r_prime.len(), n, "r_prime length mismatch");
        assert_eq!(s_half.len(), n, "s_half length mismatch");
        assert_eq!(u0.len(), n, "u0 length mismatch");
        let mut u_cur = vec![0.0; (order + 1) * n];
        u_cur[..n].copy_from_slice(u0);
        FusedMomentKernel {
            matrix,
            r_prime,
            s_half,
            order,
            n,
            n_times,
            chunks,
            pool,
            variant: ResolvedKernel::Scalar,
            u_cur,
            u_next: vec![0.0; (order + 1) * n],
            acc: vec![NeumaierSum::new(); n_times * (order + 1) * n],
            projections: Vec::new(),
            partials: Vec::new(),
            recorder: RecorderHandle::disabled(),
        }
    }

    /// Selects the arithmetic variant of the pass body. Defaults to
    /// [`ResolvedKernel::Scalar`] (the strict reference); solvers set
    /// this from the resolved [`crate::simd::KernelVariant`] of their
    /// config. Switching mid-recursion is allowed but pointless — set
    /// it once before the first [`FusedMomentKernel::step`].
    pub fn set_variant(&mut self, variant: ResolvedKernel) {
        self.variant = variant;
    }

    /// The arithmetic variant the pass body runs.
    pub fn variant(&self) -> ResolvedKernel {
        self.variant
    }

    /// Attaches the projection vectors `π_0 … π_{K−1}` and projects the
    /// current iterate; from then on every advancing
    /// [`FusedMomentKernel::step`] also projects the iterate it writes,
    /// so [`FusedMomentKernel::projected`] always holds `π_p·U⁽ʲ⁾` of the
    /// iterate [`FusedMomentKernel::u_order`] shows. Each `π_p`'s result
    /// is bit-identical to a kernel carrying `π_p` alone, and across
    /// thread counts and storage formats within a variant (and between
    /// the two variants, given the same iterate).
    ///
    /// # Panics
    ///
    /// Panics if a `π_p` length differs from the state count.
    pub fn set_projections(&mut self, pis: &[&'a [f64]]) {
        for pi in pis {
            assert_eq!(pi.len(), self.n, "projection length mismatch");
        }
        let (n, order1, k) = (self.n, self.order + 1, pis.len());
        self.projections = pis.to_vec();
        self.partials = vec![0.0; n.div_ceil(SIMD_BLOCK).max(1) * k * order1];
        // The same blocks and dots as a pass, on one thread.
        for (bp, part) in self.partials.chunks_exact_mut(order1).enumerate() {
            let (b, pi) = (bp / k, pis[bp % k]);
            let rows = b * SIMD_BLOCK..((b + 1) * SIMD_BLOCK).min(n);
            for (j, p) in part.iter_mut().enumerate() {
                *p = simd::dot(
                    &pi[rows.clone()],
                    &self.u_cur[j * n..(j + 1) * n][rows.clone()],
                );
            }
        }
        self.reduce_partials();
    }

    /// `π_p·U⁽ʲ⁾` of the current iterate for `j = 0 ..= order`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `p + 1` projections are attached.
    pub fn projected(&self, p: usize) -> &[f64] {
        assert!(p < self.projections.len(), "no projection {p} attached");
        let order1 = self.order + 1;
        &self.partials[p * order1..(p + 1) * order1]
    }

    /// Sums each projection's block partials into its slot among the
    /// first `K·(order + 1)` entries, in ascending block order on one
    /// thread — independent of how the blocks were spread over chunks
    /// and of how many other projections ride along.
    fn reduce_partials(&mut self) {
        let row = self.projections.len() * (self.order + 1);
        for pj in 0..row {
            let mut sum = self.partials[pj];
            for b in 1..self.partials.len() / row {
                sum += self.partials[b * row + pj];
            }
            self.partials[pj] = sum;
        }
    }

    /// Attaches a telemetry recorder; each pass is then timed under
    /// `"kernel.pass"` and counted under `"kernel.passes"`. Disabled by
    /// default (zero instrumentation cost).
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Number of row chunks (= threads engaged per pass).
    pub fn threads(&self) -> usize {
        self.chunks
    }

    /// Worker-pool telemetry, if this kernel runs a pool (`None` for
    /// inline single-chunk kernels).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.pool {
            KernelPool::Inline => None,
            KernelPool::Owned(p) => Some(p.stats()),
            KernelPool::Borrowed(p) => Some(p.stats()),
        }
    }

    /// One fused pass at iteration `k`: adds `wk·U⁽ʲ⁾(k)` into the
    /// accumulators of every `(ti, wk)` in `active`, and, if `advance`,
    /// computes `U⁽ʲ⁾(k+1)` for all `j` in the same sweep (skipped on the
    /// final iteration `k = G`) — and every `π_p·U⁽ʲ⁾(k+1)` when
    /// projections are attached.
    ///
    /// # Panics
    ///
    /// Panics if an `active` time index is out of range.
    pub fn step(&mut self, active: &[(usize, f64)], advance: bool) {
        for &(ti, _) in active {
            assert!(ti < self.n_times, "time index {ti} out of range");
        }
        let n = self.n;
        let order1 = self.order + 1;
        let chunks = self.chunks;
        let parts = match self.matrix {
            IterationMatrix::Csr(m) => {
                let (row_ptr, col_idx, values) = m.csr_parts();
                MatrixParts::Csr(row_ptr, col_idx, values)
            }
            IterationMatrix::Dia(m) => MatrixParts::Dia(m.offsets(), m.data()),
            IterationMatrix::Operator(m) => MatrixParts::Op(m),
        };
        let ctx = PassCtx {
            n,
            order1,
            parts,
            r_prime: self.r_prime,
            s_half: self.s_half,
            u_cur: &self.u_cur,
            u_next: SyncMutPtr::new(self.u_next.as_mut_ptr()),
            acc: SyncMutPtr::new(self.acc.as_mut_ptr()),
            projections: if advance { &self.projections } else { &[] },
            partials: SyncMutPtr::new(self.partials.as_mut_ptr()),
            active,
            advance,
        };
        let ctx = &ctx;
        let variant = self.variant;
        let rec = &self.recorder;
        let projecting = !self.projections.is_empty();
        let task = |c: usize| {
            let range = if projecting {
                block_chunk_range(n, chunks, c)
            } else {
                chunk_range(n, chunks, c)
            };
            if range.is_empty() {
                return;
            }
            // Timeline-only per-chunk event, emitted from the thread
            // that ran the chunk so the Chrome trace shows one lane per
            // worker. Does not feed the duration aggregates (that stays
            // at kernel.pass granularity).
            let chunk_start = rec.enabled().then(std::time::Instant::now);
            match variant {
                ResolvedKernel::Scalar => scalar_chunk(ctx, range),
                ResolvedKernel::Simd => simd_chunk(ctx, range),
            }
            if let Some(start) = chunk_start {
                let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                rec.span_complete("kernel.chunk", start, nanos);
            }
        };
        {
            let _pass = self.recorder.span("kernel.pass");
            match &mut self.pool {
                KernelPool::Inline => task(0),
                KernelPool::Owned(pool) => pool.run(&task),
                KernelPool::Borrowed(pool) => pool.run(&task),
            }
        }
        self.recorder.counter_add("kernel.passes", 1);
        if advance {
            std::mem::swap(&mut self.u_cur, &mut self.u_next);
            if projecting {
                self.reduce_partials();
            }
        }
    }

    /// The accumulator row of `(time index, order)` — Neumaier partial
    /// sums of `Σ_k wk·U⁽ʲ⁾(k)[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `ti` or `j` is out of range.
    pub fn accumulated(&self, ti: usize, j: usize) -> &[NeumaierSum] {
        assert!(ti < self.n_times && j <= self.order, "accumulator index out of range");
        let base = (ti * (self.order + 1) + j) * self.n;
        &self.acc[base..base + self.n]
    }

    /// Read-only view of the order-`j` block of the *current* iterate —
    /// `U⁽ʲ⁾(k+1)` right after a `step(..., true)` at iteration `k`
    /// (`U⁽ʲ⁾(G)` after the final non-advancing step). Health probes
    /// scan this between passes; it never aliases in-flight writes.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn u_order(&self, j: usize) -> &[f64] {
        assert!(j <= self.order, "order index out of range");
        &self.u_cur[j * self.n..(j + 1) * self.n]
    }
}

impl crate::footprint::FootprintBytes for FusedMomentKernel<'_> {
    /// The kernel's owned working set: the `U` ping-pong pair
    /// (`2·(order+1)·n` doubles), the compensated accumulators
    /// (`n_times·(order+1)·n` [`NeumaierSum`]s) and, when projecting,
    /// the `K·(order+1)·⌈n/SIMD_BLOCK⌉` block partials of `K` projections.
    /// The matrix, the `R'`/`½S'` strips and each `π` are borrowed, not
    /// owned, and are
    /// accounted by their own
    /// [`FootprintBytes`](crate::footprint::FootprintBytes) impls.
    fn footprint_bytes(&self) -> usize {
        (self.u_cur.len() + self.u_next.len() + self.partials.len()) * std::mem::size_of::<f64>()
            + self.acc.len() * std::mem::size_of::<NeumaierSum>()
    }
}

/// Shared read-only context of one fused pass, handed to the per-chunk
/// kernel bodies. The raw write targets are only touched inside the
/// chunk's own row range (for `partials`: its own row blocks).
struct PassCtx<'c> {
    n: usize,
    order1: usize,
    parts: MatrixParts<'c>,
    r_prime: &'c [f64],
    s_half: &'c [f64],
    u_cur: &'c [f64],
    u_next: SyncMutPtr<f64>,
    acc: SyncMutPtr<NeumaierSum>,
    projections: &'c [&'c [f64]],
    partials: SyncMutPtr<f64>,
    active: &'c [(usize, f64)],
    advance: bool,
}

/// Row range of chunk `c` of a projecting pass: whole [`SIMD_BLOCK`]
/// row blocks, spread as evenly as the block count allows, so no block
/// partial is ever split between two threads.
fn block_chunk_range(n: usize, chunks: usize, c: usize) -> Range<usize> {
    let blocks = n.div_ceil(SIMD_BLOCK);
    let chunks = chunks.max(1);
    let lo = (c * blocks / chunks * SIMD_BLOCK).min(n);
    let hi = ((c + 1) * blocks / chunks * SIMD_BLOCK).min(n);
    lo..hi
}

/// Writes the projection partials of the freshly advanced row block
/// starting at `blo` (a multiple of [`SIMD_BLOCK`]) for every
/// projection and order. [`simd::dot`] has a fixed lane association and
/// no fused multiply-add, so a block's partial has the same bits in
/// either variant.
#[inline(always)]
fn project_block(ctx: &PassCtx, blo: usize, bhi: usize) {
    let n = ctx.n;
    let k = ctx.projections.len();
    let b = blo / SIMD_BLOCK;
    for j in 0..ctx.order1 {
        // SAFETY: this chunk wrote these rows of `u_next` this pass, and
        // a block belongs to exactly one chunk (block_chunk_range).
        let next = unsafe { std::slice::from_raw_parts(ctx.u_next.add(j * n + blo), bhi - blo) };
        for (p, pi) in ctx.projections.iter().enumerate() {
            let dot = simd::dot(&pi[blo..bhi], next);
            // SAFETY: as above.
            unsafe { *ctx.partials.add((b * k + p) * ctx.order1 + j) = dot };
        }
    }
}

/// The strict-f64 reference chunk body — the historical kernel,
/// bit-for-bit. Plain `*`/`+` in source order; no fused multiply-add.
fn scalar_chunk(ctx: &PassCtx, range: Range<usize>) {
    let n = ctx.n;
    let order1 = ctx.order1;
    let u_cur = ctx.u_cur;
    let u_next = &ctx.u_next;
    let acc = &ctx.acc;
    let r_prime = ctx.r_prime;
    let s_half = ctx.s_half;
    for &(ti, wk) in ctx.active {
        for j in 0..order1 {
            let uj = &u_cur[j * n..(j + 1) * n];
            let base = (ti * order1 + j) * n;
            for i in range.clone() {
                // SAFETY: chunks write disjoint row ranges.
                unsafe { (*acc.add(base + i)).add(wk * uj[i]) };
            }
        }
    }
    if ctx.advance {
        match ctx.parts {
            MatrixParts::Csr(row_ptr, col_idx, values) => {
                for j in 0..order1 {
                    let uj = &u_cur[j * n..(j + 1) * n];
                    for i in range.clone() {
                        let mut dot = 0.0;
                        for k in row_ptr[i]..row_ptr[i + 1] {
                            dot += values[k] * uj[col_idx[k]];
                        }
                        let v = if j >= 2 {
                            dot + r_prime[i] * u_cur[(j - 1) * n + i]
                                + s_half[i] * u_cur[(j - 2) * n + i]
                        } else if j == 1 {
                            dot + r_prime[i] * u_cur[i]
                        } else {
                            dot
                        };
                        // SAFETY: chunks write disjoint row ranges.
                        unsafe { *u_next.add(j * n + i) = v };
                    }
                }
            }
            MatrixParts::Dia(offsets, data) => {
                // Single pass per row, like the CSR branch:
                // interior rows — where every diagonal is in
                // band — run branch-free, and the handful of
                // edge rows near the matrix border guard each
                // diagonal individually. Per-row terms
                // accumulate in ascending-offset order
                // (= ascending columns, the CSR dot's term
                // order) into the same left-associated combine,
                // so both backends stay bit-identical.
                let diags: Vec<&[f64]> = data.chunks_exact(n).collect();
                let (int_lo, int_hi) = {
                    let mut lo = range.start;
                    let mut hi = range.end;
                    for &o in offsets {
                        let rows = DiaMatrix::diag_rows(n, o);
                        lo = lo.max(rows.start);
                        hi = hi.min(rows.end);
                    }
                    let lo = lo.min(range.end);
                    (lo, hi.max(lo))
                };
                let edge_row = |j: usize, i: usize| {
                    let uj = &u_cur[j * n..(j + 1) * n];
                    let mut dot = 0.0;
                    for (&o, diag) in offsets.iter().zip(&diags) {
                        if DiaMatrix::diag_rows(n, o).contains(&i) {
                            dot += diag[i] * uj[(i as isize + o) as usize];
                        }
                    }
                    let v = if j >= 2 {
                        dot + r_prime[i] * u_cur[(j - 1) * n + i]
                            + s_half[i] * u_cur[(j - 2) * n + i]
                    } else if j == 1 {
                        dot + r_prime[i] * u_cur[i]
                    } else {
                        dot
                    };
                    // SAFETY: chunks write disjoint row ranges.
                    unsafe { *u_next.add(j * n + i) = v };
                };
                for j in 0..order1 {
                    for i in (range.start..int_lo).chain(int_hi..range.end) {
                        edge_row(j, i);
                    }
                }
                if matches!(offsets, [-1, 0, 1]) {
                    // The paper-scale shape (birth–death
                    // chains). The interior is tiled into row
                    // blocks with the order loop *inside* the
                    // block, so the three diagonals and the
                    // `r'`/`½s'` streams are re-read from cache
                    // instead of memory for the higher orders.
                    // Within a block every stream is pre-sliced
                    // and the order-`j` combine is unswitched,
                    // so the row loop is branch- and
                    // bounds-check-free and vectorizes. The +=
                    // chain keeps the exact ascending-column
                    // association of the CSR dot; tiling only
                    // reorders *which rows* are computed when,
                    // never a row's own term order, so the
                    // result stays bit-identical.
                    const BLOCK: usize = 4096;
                    let mut blo = int_lo;
                    while blo < int_hi {
                        let bhi = (blo + BLOCK).min(int_hi);
                        let len = bhi - blo;
                        let dm1 = &diags[0][blo..bhi];
                        let d0 = &diags[1][blo..bhi];
                        let dp1 = &diags[2][blo..bhi];
                        let rp = &r_prime[blo..bhi];
                        let sh = &s_half[blo..bhi];
                        for j in 0..order1 {
                            let uj = &u_cur[j * n..(j + 1) * n];
                            let um1 = &uj[blo - 1..bhi - 1];
                            let u00 = &uj[blo..bhi];
                            let up1 = &uj[blo + 1..bhi + 1];
                            // SAFETY: chunks write disjoint row ranges.
                            let out = unsafe {
                                std::slice::from_raw_parts_mut(u_next.add(j * n + blo), len)
                            };
                            let tri = |idx: usize| {
                                let mut dot = 0.0;
                                dot += dm1[idx] * um1[idx];
                                dot += d0[idx] * u00[idx];
                                dot += dp1[idx] * up1[idx];
                                dot
                            };
                            if j >= 2 {
                                let w1 = &u_cur[(j - 1) * n + blo..(j - 1) * n + bhi];
                                let w2 = &u_cur[(j - 2) * n + blo..(j - 2) * n + bhi];
                                for idx in 0..len {
                                    out[idx] = tri(idx) + rp[idx] * w1[idx] + sh[idx] * w2[idx];
                                }
                            } else if j == 1 {
                                let w1 = &u_cur[blo..bhi];
                                for idx in 0..len {
                                    out[idx] = tri(idx) + rp[idx] * w1[idx];
                                }
                            } else {
                                for idx in 0..len {
                                    out[idx] = tri(idx);
                                }
                            }
                        }
                        blo = bhi;
                    }
                } else {
                    for j in 0..order1 {
                        let uj = &u_cur[j * n..(j + 1) * n];
                        let combine = |i: usize, dot: f64| {
                            if j >= 2 {
                                dot + r_prime[i] * u_cur[(j - 1) * n + i]
                                    + s_half[i] * u_cur[(j - 2) * n + i]
                            } else if j == 1 {
                                dot + r_prime[i] * u_cur[i]
                            } else {
                                dot
                            }
                        };
                        for i in int_lo..int_hi {
                            let mut dot = 0.0;
                            for (&o, diag) in offsets.iter().zip(&diags) {
                                dot += diag[i] * uj[(i as isize + o) as usize];
                            }
                            // SAFETY: chunks write disjoint row ranges.
                            unsafe { *u_next.add(j * n + i) = combine(i, dot) };
                        }
                    }
                }
            }
            MatrixParts::Op(op) => {
                // The operator computes this chunk's dots straight into
                // `u_next` (the store is exact), then the diagonal
                // combine rewrites each cell with the canonical
                // left-associated `dot + r'·w₁ + ½s'·w₂` expression —
                // bitwise the same chain as the CSR branch above.
                let len = range.len();
                let lo = range.start;
                for j in 0..order1 {
                    let uj = &u_cur[j * n..(j + 1) * n];
                    // SAFETY: chunks write disjoint row ranges.
                    let out = unsafe {
                        std::slice::from_raw_parts_mut(u_next.add(j * n + lo), len)
                    };
                    op.matvec_range_scalar(uj, out, range.clone());
                    if j >= 2 {
                        let w1 = &u_cur[(j - 1) * n + lo..(j - 1) * n + range.end];
                        let w2 = &u_cur[(j - 2) * n + lo..(j - 2) * n + range.end];
                        let rp = &r_prime[range.clone()];
                        let sh = &s_half[range.clone()];
                        for idx in 0..len {
                            out[idx] = out[idx] + rp[idx] * w1[idx] + sh[idx] * w2[idx];
                        }
                    } else if j == 1 {
                        let w1 = &u_cur[lo..range.end];
                        let rp = &r_prime[range.clone()];
                        for idx in 0..len {
                            out[idx] += rp[idx] * w1[idx];
                        }
                    }
                }
            }
        }
    }
    if !ctx.projections.is_empty() {
        let mut blo = range.start;
        while blo < range.end {
            let bhi = (blo + SIMD_BLOCK).min(range.end);
            project_block(ctx, blo, bhi);
            blo = bhi;
        }
    }
}

/// The canonical-FMA combine shared by the simd CSR rows and the simd
/// DIA edge rows: `fma(½s'[i], w₂, fma(r'[i], w₁, dot))`. The strict
/// interior uses [`simd::axpy_fma`] to apply the identical two terms
/// lane-wise, so every simd row agrees bitwise regardless of path.
#[inline(always)]
fn fma_combine(ctx: &PassCtx, j: usize, i: usize, dot: f64) -> f64 {
    let n = ctx.n;
    if j >= 2 {
        ctx.s_half[i].mul_add(
            ctx.u_cur[(j - 2) * n + i],
            ctx.r_prime[i].mul_add(ctx.u_cur[(j - 1) * n + i], dot),
        )
    } else if j == 1 {
        ctx.r_prime[i].mul_add(ctx.u_cur[i], dot)
    } else {
        dot
    }
}

/// Row-block size of the simd pass: 2048 rows = 16 KiB per order
/// stream, sized so a block of every order's `U_k` plus the diagonal
/// and combine streams stays cache-resident while all time points and
/// orders consume it.
const SIMD_BLOCK: usize = 2048;

/// Lookahead distance (in rows) of the software prefetch issued ahead
/// of the CSR gather `u[col_idx[k]]`.
const CSR_PREFETCH_ROWS: usize = 8;

/// Average-nonzeros-per-row threshold below which the CSR gather skips
/// software prefetching: sparse-banded rows hit cache lines the
/// hardware prefetcher already covers, and the extra traversal of the
/// lookahead row's indices costs more than the stall it would hide.
const CSR_PREFETCH_MIN_NNZ_PER_ROW: usize = 8;

/// The canonical-FMA chunk body. Tiles the chunk into [`SIMD_BLOCK`]
/// row blocks; within a block the Poisson-weighted accumulate runs for
/// every `(time, order)` pair while the `U_k` rows are cache-hot
/// (vectorized Neumaier, bitwise-equal to the scalar update), then the
/// advance re-reads the same rows as dot input for order `j` and as
/// combine input for orders `j+1`/`j+2`, and the projection dots (when
/// projections are attached) read the block just written (a projecting chunk
/// starts on a block multiple, so these blocks are the global ones).
/// The DIA interior runs 4-wide ([`simd::dot_strips`], or one fused
/// three-term row loop on tridiagonal matrices, then [`simd::axpy_fma`]);
/// the CSR gather is software-prefetched [`CSR_PREFETCH_ROWS`] rows
/// ahead.
///
/// Dispatch: with AVX2+FMA detected the body runs inside a
/// `#[target_feature]` wrapper so every `mul_add` in the row loops
/// compiles to a single `vfmadd` — without it (portable builds, or
/// `--kernel simd` forced on older CPUs) the same body runs as-is and
/// `mul_add` falls back to the correctly-rounded libm fma, producing
/// identical bits at lower speed.
fn simd_chunk(ctx: &PassCtx, range: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    if simd::fma_available() {
        // SAFETY: AVX2+FMA presence was just checked at runtime.
        unsafe { simd_chunk_avx2(ctx, range) };
        return;
    }
    simd_chunk_impl(ctx, range);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn simd_chunk_avx2(ctx: &PassCtx, range: Range<usize>) {
    simd_chunk_impl(ctx, range);
}

#[inline(always)]
fn simd_chunk_impl(ctx: &PassCtx, range: Range<usize>) {
    let n = ctx.n;
    let order1 = ctx.order1;
    let u_cur = ctx.u_cur;
    // DIA-only precomputation: per-diagonal views and this chunk's
    // interior rows (where every diagonal is in band). For CSR the
    // whole chunk counts as interior.
    let (dia_offsets, dia_diags, int_lo, int_hi) = match ctx.parts {
        MatrixParts::Dia(offsets, data) => {
            let diags: Vec<&[f64]> = data.chunks_exact(n).collect();
            let mut lo = range.start;
            let mut hi = range.end;
            for &o in offsets {
                let rows = DiaMatrix::diag_rows(n, o);
                lo = lo.max(rows.start);
                hi = hi.min(rows.end);
            }
            let lo = lo.min(range.end);
            (offsets, diags, lo, hi.max(lo))
        }
        MatrixParts::Csr(..) | MatrixParts::Op(..) => {
            (&[][..], Vec::new(), range.start, range.end)
        }
    };
    let mut strips: Vec<(&[f64], &[f64])> = Vec::with_capacity(dia_diags.len());
    let mut blo = range.start;
    while blo < range.end {
        let bhi = (blo + SIMD_BLOCK).min(range.end);
        let len = bhi - blo;
        for j in 0..order1 {
            let uj = &u_cur[j * n + blo..j * n + bhi];
            for &(ti, wk) in ctx.active {
                let base = (ti * order1 + j) * n + blo;
                // SAFETY: chunks write disjoint row ranges.
                let accs =
                    unsafe { std::slice::from_raw_parts_mut(ctx.acc.add(base), len) };
                simd::accumulate_scaled(accs, uj, wk);
            }
        }
        if ctx.advance {
            match ctx.parts {
                MatrixParts::Csr(row_ptr, col_idx, values) => {
                    // Prefetch pays for itself only on gather-heavy
                    // rows: on narrow-band matrices stored as CSR
                    // (few, adjacent targets per row) the extra index
                    // traversal costs as much as the dot it hides.
                    let prefetch = row_ptr[n] >= CSR_PREFETCH_MIN_NNZ_PER_ROW * n;
                    for j in 0..order1 {
                        let uj = &u_cur[j * n..(j + 1) * n];
                        for i in blo..bhi {
                            let pf = i + CSR_PREFETCH_ROWS;
                            if prefetch && pf < bhi {
                                for k in row_ptr[pf]..row_ptr[pf + 1] {
                                    simd::prefetch_read(&uj[col_idx[k]]);
                                }
                            }
                            let mut dot = 0.0;
                            for k in row_ptr[i]..row_ptr[i + 1] {
                                dot = values[k].mul_add(uj[col_idx[k]], dot);
                            }
                            let v = fma_combine(ctx, j, i, dot);
                            // SAFETY: chunks write disjoint row ranges.
                            unsafe { *ctx.u_next.add(j * n + i) = v };
                        }
                    }
                }
                MatrixParts::Op(op) => {
                    // Mirrors the DIA strict interior: the operator's
                    // canonical-FMA rows land in `u_next`, then
                    // `axpy_fma` applies the identical `r'`/`½s'`
                    // terms lane-wise (same chain as `fma_combine`).
                    for j in 0..order1 {
                        let uj = &u_cur[j * n..(j + 1) * n];
                        // SAFETY: chunks write disjoint row ranges.
                        let out = unsafe {
                            std::slice::from_raw_parts_mut(ctx.u_next.add(j * n + blo), len)
                        };
                        op.matvec_range_fma(uj, out, blo..bhi);
                        if j >= 1 {
                            let w1 = &u_cur[(j - 1) * n + blo..(j - 1) * n + bhi];
                            simd::axpy_fma(out, &ctx.r_prime[blo..bhi], w1);
                        }
                        if j >= 2 {
                            let w2 = &u_cur[(j - 2) * n + blo..(j - 2) * n + bhi];
                            simd::axpy_fma(out, &ctx.s_half[blo..bhi], w2);
                        }
                    }
                }
                MatrixParts::Dia(..) => {
                    // This block's slice of the chunk interior; rows
                    // outside it are edge rows handled per-diagonal.
                    let ilo = blo.max(int_lo).min(bhi);
                    let ihi = bhi.min(int_hi).max(ilo);
                    for j in 0..order1 {
                        let uj = &u_cur[j * n..(j + 1) * n];
                        for i in (blo..ilo).chain(ihi..bhi) {
                            let mut dot = 0.0;
                            for (&o, &diag) in dia_offsets.iter().zip(&dia_diags) {
                                if DiaMatrix::diag_rows(n, o).contains(&i) {
                                    dot = diag[i].mul_add(uj[(i as isize + o) as usize], dot);
                                }
                            }
                            let v = fma_combine(ctx, j, i, dot);
                            // SAFETY: chunks write disjoint row ranges.
                            unsafe { *ctx.u_next.add(j * n + i) = v };
                        }
                        if ihi > ilo {
                            // SAFETY: chunks write disjoint row ranges.
                            let out = unsafe {
                                std::slice::from_raw_parts_mut(
                                    ctx.u_next.add(j * n + ilo),
                                    ihi - ilo,
                                )
                            };
                            if let ([-1, 0, 1], [dm1, d0, dp1]) = (dia_offsets, &dia_diags[..]) {
                                // The birth–death shape: one fused
                                // three-term row loop, the canonical
                                // `mul_add` chain from `0.0` of the CSR
                                // rows, which the compiler vectorizes.
                                let (dm1, d0, dp1) =
                                    (&dm1[ilo..ihi], &d0[ilo..ihi], &dp1[ilo..ihi]);
                                let um1 = &uj[ilo - 1..ihi - 1];
                                let u00 = &uj[ilo..ihi];
                                let up1 = &uj[ilo + 1..ihi + 1];
                                for idx in 0..out.len() {
                                    let mut dot = 0.0;
                                    dot = dm1[idx].mul_add(um1[idx], dot);
                                    dot = d0[idx].mul_add(u00[idx], dot);
                                    dot = dp1[idx].mul_add(up1[idx], dot);
                                    out[idx] = dot;
                                }
                            } else {
                                strips.clear();
                                for (&o, &diag) in dia_offsets.iter().zip(&dia_diags) {
                                    let x_lo = (ilo as isize + o) as usize;
                                    let x_hi = (ihi as isize + o) as usize;
                                    strips.push((&diag[ilo..ihi], &uj[x_lo..x_hi]));
                                }
                                simd::dot_strips(out, &strips);
                            }
                            if j >= 1 {
                                let w1 = &u_cur[(j - 1) * n + ilo..(j - 1) * n + ihi];
                                simd::axpy_fma(out, &ctx.r_prime[ilo..ihi], w1);
                            }
                            if j >= 2 {
                                let w2 = &u_cur[(j - 2) * n + ilo..(j - 2) * n + ihi];
                                simd::axpy_fma(out, &ctx.s_half[ilo..ihi], w2);
                            }
                        }
                    }
                }
            }
        }
        if !ctx.projections.is_empty() {
            project_block(ctx, blo, bhi);
        }
        blo = bhi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Mat;
    use crate::dia::MatrixFormat;
    use crate::sparse::{CsrMatrix, TripletBuilder};

    fn select(m: &CsrMatrix<f64>, format: MatrixFormat) -> IterationMatrix {
        IterationMatrix::try_with_format(m.clone(), format).unwrap()
    }

    /// Straightforward single-threaded reference implementing the same
    /// recursion as the pre-fusion solver loop.
    struct Reference {
        u: Vec<Vec<f64>>,
        acc: Vec<Vec<Vec<NeumaierSum>>>,
    }

    impl Reference {
        fn new(n: usize, order: usize, n_times: usize, u0: &[f64]) -> Self {
            let mut u = vec![vec![0.0; n]; order + 1];
            u[0].copy_from_slice(u0);
            Reference {
                u,
                acc: vec![vec![vec![NeumaierSum::new(); n]; order + 1]; n_times],
            }
        }

        fn step(
            &mut self,
            m: &CsrMatrix<f64>,
            r_prime: &[f64],
            s_half: &[f64],
            active: &[(usize, f64)],
            advance: bool,
        ) {
            let n = m.rows();
            let order = self.u.len() - 1;
            for &(ti, wk) in active {
                for j in 0..=order {
                    for i in 0..n {
                        self.acc[ti][j][i].add(wk * self.u[j][i]);
                    }
                }
            }
            if !advance {
                return;
            }
            let mut scratch = vec![0.0; n];
            for j in (0..=order).rev() {
                m.matvec_into(&self.u[j], &mut scratch);
                if j >= 1 {
                    let (lo, hi) = self.u.split_at_mut(j);
                    let uj = &mut hi[0];
                    let ujm1 = &lo[j - 1];
                    if j >= 2 {
                        let ujm2 = &lo[j - 2];
                        for i in 0..n {
                            uj[i] = scratch[i] + r_prime[i] * ujm1[i] + s_half[i] * ujm2[i];
                        }
                    } else {
                        for i in 0..n {
                            uj[i] = scratch[i] + r_prime[i] * ujm1[i];
                        }
                    }
                } else {
                    self.u[0].copy_from_slice(&scratch);
                }
            }
        }
    }

    fn test_matrix(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 4 * n);
        for i in 0..n {
            b.push(i, i, 0.4 + (i % 3) as f64 * 0.05);
            if i > 0 {
                b.push(i, i - 1, 0.2);
            }
            if i + 1 < n {
                b.push(i, i + 1, 0.3);
            }
            b.push(i, (i * 7 + 3) % n, 0.01);
        }
        b.build()
    }

    #[test]
    fn fused_kernel_bitwise_matches_reference() {
        let n = 257;
        let order = 3;
        let m = test_matrix(n);
        let r_prime: Vec<f64> = (0..n).map(|i| (i % 9) as f64 / 10.0).collect();
        let s_half: Vec<f64> = (0..n).map(|i| (i % 4) as f64 / 20.0).collect();
        let u0 = vec![1.0; n];
        let active0 = [(0usize, 0.25f64), (1, 0.5)];
        let active1 = [(1usize, 0.125f64)];
        // The reference always runs CSR serially; both kernel backends
        // (forced — the scattered test matrix fails the auto check) at
        // every thread count must reproduce it bit for bit.
        for format in [MatrixFormat::Csr, MatrixFormat::Dia] {
            let im = select(&m, format);
            for threads in [1usize, 2, 4, 8] {
                let mut fused =
                    FusedMomentKernel::new(&im, &r_prime, &s_half, order, 2, &u0, threads);
                let mut reference = Reference::new(n, order, 2, &u0);
                for k in 0..30 {
                    let active: &[(usize, f64)] = if k % 2 == 0 { &active0 } else { &active1 };
                    let advance = k < 29;
                    fused.step(active, advance);
                    reference.step(&m, &r_prime, &s_half, active, advance);
                }
                for ti in 0..2 {
                    for j in 0..=order {
                        let f: Vec<f64> =
                            fused.accumulated(ti, j).iter().map(|a| a.value()).collect();
                        let r: Vec<f64> =
                            reference.acc[ti][j].iter().map(|a| a.value()).collect();
                        assert_eq!(f, r, "format {format}, threads {threads}, ti {ti}, j {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn banded_dia_kernel_bitwise_matches_csr_kernel() {
        // Purely tridiagonal matrix — the auto-selected DIA case the
        // paper-scale model hits.
        let n = 129;
        let order = 2;
        let mut b = TripletBuilder::with_capacity(n, n, 3 * n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.2 + (i % 5) as f64 * 0.01);
            }
            b.push(i, i, 0.4);
            if i + 1 < n {
                b.push(i, i + 1, 0.35 - (i % 3) as f64 * 0.01);
            }
        }
        let m = b.build();
        let csr = select(&m, MatrixFormat::Csr);
        let dia = select(&m, MatrixFormat::Auto);
        assert!(dia.is_dia(), "tridiagonal must auto-select DIA");
        let r_prime: Vec<f64> = (0..n).map(|i| (i % 7) as f64 / 10.0).collect();
        let s_half: Vec<f64> = (0..n).map(|i| (i % 3) as f64 / 20.0).collect();
        let u0 = vec![1.0; n];
        for threads in [1usize, 3, 8] {
            let mut a = FusedMomentKernel::new(&csr, &r_prime, &s_half, order, 1, &u0, threads);
            let mut d = FusedMomentKernel::new(&dia, &r_prime, &s_half, order, 1, &u0, threads);
            for k in 0..25 {
                let active = [(0usize, 0.5f64 / (k + 1) as f64)];
                a.step(&active, k < 24);
                d.step(&active, k < 24);
            }
            for j in 0..=order {
                let va: Vec<f64> = a.accumulated(0, j).iter().map(|s| s.value()).collect();
                let vd: Vec<f64> = d.accumulated(0, j).iter().map(|s| s.value()).collect();
                assert_eq!(va, vd, "threads {threads}, j {j}");
            }
        }
    }

    /// Runs 30 steps with the given variant and returns every
    /// accumulated value, flattened. Mixed-sign `r'` exercises the
    /// negative-intermediate paths of the canonical-FMA chain.
    fn run_variant(im: &IterationMatrix, threads: usize, variant: ResolvedKernel) -> Vec<f64> {
        let n = im.rows();
        let order = 3;
        let r_prime: Vec<f64> = (0..n).map(|i| (i % 9) as f64 / 10.0 - 0.4).collect();
        let s_half: Vec<f64> = (0..n).map(|i| (i % 4) as f64 / 20.0).collect();
        let u0 = vec![1.0; n];
        let active0 = [(0usize, 0.25f64), (1, 0.5)];
        let active1 = [(1usize, 0.125f64)];
        let mut k = FusedMomentKernel::new(im, &r_prime, &s_half, order, 2, &u0, threads);
        k.set_variant(variant);
        assert_eq!(k.variant(), variant);
        for step in 0..30 {
            let active: &[(usize, f64)] = if step % 2 == 0 { &active0 } else { &active1 };
            k.step(active, step < 29);
        }
        let mut out = Vec::new();
        for ti in 0..2 {
            for j in 0..=order {
                out.extend(k.accumulated(ti, j).iter().map(|a| a.value()));
            }
        }
        out
    }

    /// Fully-populated tridiagonal matrix (no structural zeros), the
    /// shape DIA shares with CSR bitwise for inputs of any sign.
    fn tridiag_matrix(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 3 * n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.21 + (i % 5) as f64 * 0.01);
            }
            b.push(i, i, 0.4 + (i % 3) as f64 * 0.03);
            if i + 1 < n {
                b.push(i, i + 1, 0.33 - (i % 4) as f64 * 0.01);
            }
        }
        b.build()
    }

    /// A Kronecker sum of five small, mostly tridiagonal factors (5,145
    /// states: two full projection row blocks and a partial one) as the
    /// CSR matrix it stands for and as the matrix-free operator.
    fn kronecker_pair() -> (IterationMatrix, IterationMatrix) {
        let factors: Vec<Mat<f64>> = [3usize, 5, 7, 7, 7]
            .iter()
            .enumerate()
            .map(|(k, &size)| {
                let mut f = Mat::zeros(size, size);
                for i in 0..size {
                    for j in 0..size {
                        if i.abs_diff(j) == 1 || (i + j + k) % 7 == 0 && i != j {
                            f[(i, j)] = 0.1 + ((i * 7 + j * 3 + k) % 5) as f64 * 0.05;
                        }
                    }
                }
                f
            })
            .collect();
        let rate = 12.0;
        let op = crate::operator::KroneckerSum::new(factors, rate).unwrap();
        let n = op.rows();
        let mut b = TripletBuilder::new(n, n);
        let mut exit = vec![0.0f64; n];
        for (i, j, a) in op.generator_triplets() {
            b.push(i, j, a);
            exit[i] += a;
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                b.push(i, i, -e);
            }
        }
        let csr = IterationMatrix::from_generator(&b.build(), rate, MatrixFormat::Csr).unwrap();
        (csr, IterationMatrix::Operator(op))
    }

    #[test]
    fn operator_kernel_bitwise_matches_csr_kernel() {
        let (csr, op) = kronecker_pair();
        for variant in [ResolvedKernel::Scalar, ResolvedKernel::Simd] {
            let baseline = run_variant(&csr, 1, variant);
            for threads in [1usize, 2, 4, 8] {
                let got = run_variant(&op, threads, variant);
                for (i, (x, y)) in baseline.iter().zip(&got).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{variant:?} operator x{threads} diverged at {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn simd_variant_bitwise_across_formats_and_threads() {
        // The canonical FMA association makes the simd variant its own
        // determinism class: CSR vs (forced) DIA, every thread count,
        // vector lanes vs remainder rows — all bit-identical.
        let m = test_matrix(257);
        let baseline = run_variant(&select(&m, MatrixFormat::Csr), 1, ResolvedKernel::Simd);
        for format in [MatrixFormat::Csr, MatrixFormat::Dia] {
            for threads in [1usize, 2, 4, 8] {
                let got = run_variant(&select(&m, format), threads, ResolvedKernel::Simd);
                assert_eq!(baseline.len(), got.len());
                for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "simd {format} x{threads} diverged at {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn simd_variant_agrees_with_scalar_within_rounding() {
        // Scalar vs simd differ only by rounding reassociation: a few
        // ulps per step, nowhere near the solver's truncation bounds.
        let m = test_matrix(257);
        let csr = select(&m, MatrixFormat::Csr);
        let scalar = run_variant(&csr, 1, ResolvedKernel::Scalar);
        let simd = run_variant(&csr, 1, ResolvedKernel::Simd);
        let scale = scalar.iter().fold(1.0f64, |a, &v| a.max(v.abs()));
        for (i, (a, b)) in scalar.iter().zip(&simd).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * scale,
                "scalar vs simd at {i}: {a} vs {b} (scale {scale})"
            );
        }
    }

    /// Two projection vectors: a scrambled one and a smooth one.
    fn test_pis(n: usize) -> [Vec<f64>; 2] {
        [
            (0..n)
                .map(|i| ((i * 7919) % 101) as f64 / (101.0 * n as f64))
                .collect(),
            (0..n)
                .map(|i| (1.0 + (i % 13) as f64) / (7.0 * n as f64))
                .collect(),
        ]
    }

    /// Runs 30 steps with `pis` attached (none: no projection), plus
    /// one time point so the accumulators ride along. Returns every
    /// iterate's projections, one sequence per `π` (each value checked
    /// against a naive dot of the current iterate), and the final
    /// accumulators.
    fn run_projected(
        im: &IterationMatrix,
        threads: usize,
        variant: ResolvedKernel,
        pis: &[&[f64]],
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = im.rows();
        let order = 3;
        let r_prime: Vec<f64> = (0..n).map(|i| (i % 9) as f64 / 10.0).collect();
        let s_half: Vec<f64> = (0..n).map(|i| (i % 4) as f64 / 20.0).collect();
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(im, &r_prime, &s_half, order, 1, &u0, threads);
        k.set_variant(variant);
        if !pis.is_empty() {
            k.set_projections(pis);
        }
        let mut projections = vec![Vec::new(); pis.len()];
        for step in 0..=30 {
            for (p, pi) in pis.iter().enumerate() {
                let naive: Vec<f64> = (0..=order)
                    .map(|j| k.u_order(j).iter().zip(*pi).map(|(u, w)| u * w).sum())
                    .collect();
                for (got, want) in k.projected(p).iter().zip(&naive) {
                    assert!((got - want).abs() <= 1e-12 * want.abs(), "{got} vs {want}");
                }
                projections[p].extend_from_slice(k.projected(p));
            }
            if step < 30 {
                k.step(&[(0, 0.5 / (step + 1) as f64)], step < 29);
            }
        }
        let acc = (0..=order)
            .flat_map(|j| k.accumulated(0, j).iter().map(|a| a.value()))
            .collect();
        (projections, acc)
    }

    fn assert_bits(want: &[f64], got: &[f64], what: &str) {
        assert_eq!(want.len(), got.len(), "{what}: length");
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: projection {i}: {a} vs {b}"
            );
        }
    }

    /// Each matrix as CSR (the baseline) and in its other storages: the
    /// tridiagonal one as DIA, the Kronecker sum as the operator.
    fn projection_cases() -> Vec<(IterationMatrix, Vec<IterationMatrix>)> {
        // Six row blocks, the last one partial: chunks of 2, 4 and 8
        // threads split them differently, and 8 threads leaves chunks
        // idle.
        let m = tridiag_matrix(5 * SIMD_BLOCK + 37);
        let (kron_csr, op) = kronecker_pair();
        vec![
            (
                select(&m, MatrixFormat::Csr),
                vec![select(&m, MatrixFormat::Dia)],
            ),
            (kron_csr, vec![op]),
        ]
    }

    #[test]
    fn projection_bitwise_across_formats_and_threads() {
        // Within each variant every storage and thread count must give
        // the same bits, and attaching π must not move the accumulators.
        for (csr, others) in projection_cases() {
            let n = csr.rows();
            let [pi, _] = test_pis(n);
            for variant in [ResolvedKernel::Scalar, ResolvedKernel::Simd] {
                let (base_proj, base_acc) = run_projected(&csr, 1, variant, &[&pi]);
                let (_, plain) = run_projected(&csr, 3, variant, &[]);
                assert_eq!(
                    base_acc, plain,
                    "{variant:?}: projection perturbed accumulators"
                );
                for im in std::iter::once(&csr).chain(&others) {
                    for threads in [1usize, 2, 4, 8] {
                        let (proj, acc) = run_projected(im, threads, variant, &[&pi]);
                        let what = format!("{variant:?} {} x{threads}", im.format_name());
                        assert_bits(&base_proj[0], &proj[0], &what);
                        assert_eq!(base_acc, acc, "{what}: accumulators");
                    }
                }
            }
        }
    }

    #[test]
    fn k_projections_match_k_single_projection_runs_bitwise() {
        // Two π ride one sweep: each one's c_k sequence must carry the
        // bits of a kernel projecting that π alone, on every storage and
        // thread count, in each variant.
        for (csr, others) in projection_cases() {
            let [pa, pb] = test_pis(csr.rows());
            for variant in [ResolvedKernel::Scalar, ResolvedKernel::Simd] {
                let (single_a, _) = run_projected(&csr, 1, variant, &[&pa]);
                let (single_b, _) = run_projected(&csr, 1, variant, &[&pb]);
                for im in std::iter::once(&csr).chain(&others) {
                    for threads in [1usize, 2, 4, 8] {
                        let (both, _) = run_projected(im, threads, variant, &[&pa, &pb]);
                        let what = format!("{variant:?} {} x{threads}", im.format_name());
                        assert_bits(&single_a[0], &both[0], &format!("{what} π_a"));
                        assert_bits(&single_b[0], &both[1], &format!("{what} π_b"));
                    }
                }
            }
        }
    }

    #[test]
    fn block_chunks_cover_whole_blocks() {
        for n in [1usize, 100, SIMD_BLOCK, 3 * SIMD_BLOCK + 1, 9 * SIMD_BLOCK] {
            for chunks in 1..=9 {
                let mut next = 0;
                for c in 0..chunks {
                    let r = block_chunk_range(n, chunks, c);
                    assert_eq!(r.start % SIMD_BLOCK, 0, "n {n} chunks {chunks}");
                    if !r.is_empty() {
                        assert_eq!(r.start, next);
                        next = r.end;
                    }
                }
                assert_eq!(next, n, "n {n} chunks {chunks}");
            }
        }
    }

    #[test]
    fn projecting_footprint_counts_the_block_partials() {
        use crate::footprint::FootprintBytes;
        let n = 2 * SIMD_BLOCK + 1;
        let im = select(&tridiag_matrix(n), MatrixFormat::Csr);
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 2, 0, &u0, 1);
        assert_eq!(k.footprint_bytes(), 2 * 3 * n * 8);
        k.set_projections(&[&u0]);
        assert_eq!(k.footprint_bytes(), 2 * 3 * n * 8 + 3 * 3 * 8);
        // K = 2 projections: one partial per block, order and π.
        k.set_projections(&[&u0, &zeros]);
        assert_eq!(k.footprint_bytes(), 2 * 3 * n * 8 + 2 * 3 * 3 * 8);
    }

    #[test]
    fn order_zero_and_empty_active_work() {
        let n = 16;
        let m = test_matrix(n);
        let im = select(&m, MatrixFormat::Csr);
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 0, 1, &u0, 2);
        k.step(&[], true); // pure advance, no accumulation
        k.step(&[(0, 1.0)], false);
        let mut expect = vec![0.0; n];
        m.matvec_into(&u0, &mut expect);
        let got: Vec<f64> = k.accumulated(0, 0).iter().map(|a| a.value()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn recorder_counts_passes_and_pool_stats_surface() {
        use somrm_obs::MetricsRegistry;
        use std::sync::Arc;

        let n = 64;
        let im = select(&test_matrix(n), MatrixFormat::Csr);
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 1, 1, &u0, 2);
        let registry = Arc::new(MetricsRegistry::new());
        k.set_recorder(RecorderHandle::new(registry.clone()));
        for _ in 0..5 {
            k.step(&[(0, 0.1)], true);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("kernel.passes"), Some(5));
        assert_eq!(snap.timing("kernel.pass").unwrap().count, 5);
        let stats = k.pool_stats().expect("2-chunk kernel runs a pool");
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.epochs, 5);

        let serial = FusedMomentKernel::new(&im, &zeros, &zeros, 1, 1, &u0, 1);
        assert!(serial.pool_stats().is_none());
    }

    #[test]
    fn chunk_timeline_events_come_from_each_worker_lane() {
        use somrm_obs::ChromeTraceRecorder;
        use std::sync::Arc;

        let n = 64;
        let im = select(&test_matrix(n), MatrixFormat::Csr);
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 1, 1, &u0, 2);
        let chrome = Arc::new(ChromeTraceRecorder::new());
        k.set_recorder(RecorderHandle::new(chrome.clone()));
        for _ in 0..3 {
            k.step(&[(0, 0.1)], true);
        }
        // 3 passes × 2 chunks + 3 kernel.pass spans.
        let v = somrm_obs::json::parse(&chrome.to_json()).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let chunk_tids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("kernel.chunk"))
            .map(|e| e.get("tid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(chunk_tids.len(), 6);
        let distinct: std::collections::BTreeSet<u64> =
            chunk_tids.iter().map(|&t| t as u64).collect();
        assert_eq!(distinct.len(), 2, "one lane per chunk owner: {chunk_tids:?}");
        let passes = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("kernel.pass"))
            .count();
        assert_eq!(passes, 3);
    }

    #[test]
    fn u_order_exposes_the_current_iterate() {
        let n = 16;
        let m = test_matrix(n);
        let im = select(&m, MatrixFormat::Csr);
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 0, 1, &u0, 1);
        assert_eq!(k.u_order(0), &u0[..]);
        k.step(&[], true);
        let mut expect = vec![0.0; n];
        m.matvec_into(&u0, &mut expect);
        assert_eq!(k.u_order(0), &expect[..]);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let n = 3;
        let m = test_matrix(n);
        let im = select(&m, MatrixFormat::Csr);
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 1, 1, &u0, 64);
        assert!(k.threads() <= n);
        k.step(&[(0, 1.0)], true);
        k.step(&[(0, 0.5)], false);
        let got: Vec<f64> = k.accumulated(0, 0).iter().map(|a| a.value()).collect();
        let mut au0 = vec![0.0; n];
        m.matvec_into(&u0, &mut au0);
        for i in 0..n {
            assert_eq!(got[i], 1.0 * u0[i] + 0.5 * au0[i]);
        }
    }
}
