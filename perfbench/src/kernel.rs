//! The `linalg` layer measured from outside: paired
//! [`FusedMomentKernel::step`] calls on one set of buffers, over the
//! same iteration matrix the solver's plan resolves for the model.

use crate::report::Report;
use crate::stats::median;
use somrm_core::plan::OPERATOR_AUTO_THRESHOLD;
use somrm_core::{SecondOrderMrm, SolvePlan};
use somrm_linalg::{FusedMomentKernel, IterationMatrix, MatrixFormat, OperatorMatrix};
use std::time::Instant;

/// The iteration matrix `SolvePlan::build` resolves for `model` under
/// the default `auto` format (the plan keeps its own private copy).
fn resolve_matrix(model: &SecondOrderMrm, q: f64) -> IterationMatrix {
    if let Some(structure) = model.structure() {
        if model.n_states() >= OPERATOR_AUTO_THRESHOLD {
            let op = OperatorMatrix::from_structure(structure, model.generator().as_csr(), q)
                .expect("structure descriptor matches its generator");
            return IterationMatrix::Operator(op);
        }
    }
    let kernel = model
        .generator()
        .uniformized_kernel(q)
        .expect("positive uniformization rate");
    IterationMatrix::try_with_format(kernel, MatrixFormat::Auto).expect("auto format resolves")
}

fn stored_entries(m: &IterationMatrix) -> usize {
    match m {
        IterationMatrix::Csr(c) => c.nnz(),
        IterationMatrix::Dia(d) => d.nnz(),
        IterationMatrix::Operator(o) => o.nnz_estimate(),
    }
}

/// Computed compulsory traffic of one advancing pass with no active
/// time: every order block of `U` read and written once, the two
/// per-state coefficient vectors read once, the matrix storage read
/// once. Cache misses beyond that are not counted.
pub fn bytes_per_iter(n: usize, order: usize, matrix_bytes: usize) -> f64 {
    let f = std::mem::size_of::<f64>();
    (2 * (order + 1) * n * f + 2 * n * f + matrix_bytes) as f64
}

/// Computed floating-point operations of one advancing pass: per state,
/// a multiply-add per stored matrix entry for every order block, plus
/// the drift term for orders ≥ 1 and the variance term for orders ≥ 2.
pub fn flops_per_iter(n: usize, order: usize, entries: usize) -> f64 {
    let per_order_matvec = 2 * entries;
    let drift = 2 * n * order;
    let variance = 2 * n * order.saturating_sub(1);
    ((order + 1) * per_order_matvec + drift + variance) as f64
}

/// Seconds per `step` call over one timed batch of `batch` calls.
fn time_steps(
    k: &mut FusedMomentKernel<'_>,
    active: &[(usize, f64)],
    advance: bool,
    batch: usize,
) -> f64 {
    let t0 = Instant::now();
    for _ in 0..batch {
        k.step(active, advance);
    }
    t0.elapsed().as_secs_f64() / batch as f64
}

/// Measures the kernel on the matrix the plan resolved for `model`:
/// advance-only passes, and accumulate-only passes with 1 and
/// `k_times` active times. Reports per-state costs, the computed
/// traffic and operation counts, and the achieved bandwidth.
pub fn probe(report: &mut Report, plan: &SolvePlan, order: usize, k_times: usize) {
    let model = plan.model();
    let n = model.n_states();
    let q = plan.q();
    let (d, shift) = (plan.d(), plan.shift());
    let matrix = resolve_matrix(model, q);
    assert_eq!(
        matrix.format_name(),
        plan.matrix_format_name(),
        "probe must run the backend the plan runs"
    );
    let r_prime: Vec<f64> = model
        .rates()
        .iter()
        .map(|&r| (r - shift) / (q * d))
        .collect();
    let s_half: Vec<f64> = model
        .variances()
        .iter()
        .map(|&s| 0.5 * s / (q * d * d))
        .collect();
    let u0 = vec![1.0; n];
    let mut k = FusedMomentKernel::new(&matrix, &r_prime, &s_half, order, k_times, &u0, 1);
    k.set_variant(plan.config().kernel.resolve());

    // Enough calls per timed batch that the batch lasts milliseconds.
    let batch = (4_000_000 / (n * (order + 1))).max(1);
    let samples = if n >= 1_000_000 { 5 } else { 9 };
    let one: Vec<(usize, f64)> = vec![(0, 1e-3)];
    let many: Vec<(usize, f64)> = (0..k_times).map(|ti| (ti, 1e-3)).collect();
    k.step(&[], true);
    let (mut adv, mut acc1, mut acck) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        adv.push(time_steps(&mut k, &[], true, batch));
        acc1.push(time_steps(&mut k, &one, false, batch));
        acck.push(time_steps(&mut k, &many, false, batch));
    }
    let adv = median(&adv);
    let per_time = (median(&acck) - median(&acc1)) / (k_times - 1) as f64;

    let matrix_bytes = somrm_linalg::FootprintBytes::footprint_bytes(&matrix);
    let bytes = bytes_per_iter(n, order, matrix_bytes);
    let flops = flops_per_iter(n, order, stored_entries(&matrix));
    report.metric(
        "linalg.kernel.advance_ns_per_state",
        adv * 1e9 / n as f64,
        "ns",
    );
    report.metric(
        "linalg.kernel.accumulate_ns_per_state_time",
        per_time * 1e9 / n as f64,
        "ns",
    );
    report.metric("linalg.kernel.bytes_per_iter", bytes, "B");
    report.metric("linalg.kernel.flops_per_iter", flops, "count");
    report.metric("linalg.kernel.gbps", bytes / adv / 1e9, "GB/s");
    report.info("linalg.kernel.format", matrix.format_name());
    report.info("linalg.kernel.states", n);
    report.info("linalg.kernel.order", order);
    report.info("linalg.kernel.active_times", k_times);
    report.info("linalg.kernel.variant", k.variant().name());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_counts() {
        // Tridiagonal, 10 states, order 2: 28 stored entries.
        assert_eq!(flops_per_iter(10, 2, 28), (3 * 56 + 40 + 20) as f64);
        assert_eq!(bytes_per_iter(10, 2, 100), (480 + 160 + 100) as f64);
    }
}
