//! Integration contract of the plan/execute split: a prebuilt
//! [`SolvePlan`]'s per-state execute must answer bit-for-bit identically
//! to the cold one-shot solvers, and its projected execute bit-for-bit
//! identically to a cold plan's, whatever storage format or thread count
//! the plan was built with, and however many times it is re-executed.

use somrm::linalg::MatrixFormat;
use somrm::model::SecondOrderMrm;
use somrm::models::OnOffMultiplexer;
use somrm::prelude::*;
use somrm::solver::{moments_sweep, moments_terminal_weighted, SolvePlan};

fn asymmetric_model() -> SecondOrderMrm {
    let mut b = GeneratorBuilder::new(4);
    b.rate(0, 1, 2.0).unwrap();
    b.rate(1, 0, 1.0).unwrap();
    b.rate(1, 2, 3.0).unwrap();
    b.rate(2, 1, 4.0).unwrap();
    b.rate(2, 3, 0.5).unwrap();
    b.rate(3, 0, 1.5).unwrap();
    SecondOrderMrm::new(
        b.build().unwrap(),
        vec![-1.0, 2.0, 5.0, 0.0],
        vec![0.5, 1.0, 4.0, 0.0],
        vec![0.6, 0.3, 0.1, 0.0],
    )
    .unwrap()
}

fn configs() -> Vec<(String, SolverConfig)> {
    let mut cfgs = Vec::new();
    for (fmt_name, format) in [("csr", MatrixFormat::Csr), ("dia", MatrixFormat::Dia)] {
        for threads in [1usize, 2, 4] {
            cfgs.push((
                format!("{fmt_name}/threads-{threads}"),
                SolverConfig {
                    format,
                    threads,
                    // Engage the pool even on these small models.
                    parallel_threshold: 2,
                    ..SolverConfig::default()
                },
            ));
        }
    }
    cfgs
}

fn assert_bitwise(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (n, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: order {n}: {x} vs {y}"
        );
    }
}

#[test]
fn plan_execute_is_bitwise_identical_to_cold_sweep() {
    let model = asymmetric_model();
    let times = [0.1, 0.45, 0.8, 2.0];
    // The projected answer of the first (serial CSR) cold plan: every
    // other format, thread count and warm pass must reproduce it.
    let projected = SolvePlan::build(&model, 3, &configs()[0].1)
        .unwrap()
        .execute(&times, 3)
        .unwrap();
    for (label, cfg) in configs() {
        let cold = moments_sweep(&model, 3, &times, &cfg).unwrap();
        let plan = SolvePlan::build(&model, 3, &cfg).unwrap();
        for pass in 0..2 {
            let warm = plan.execute_per_state(&times, 3).unwrap();
            for (c, w) in cold.iter().zip(&warm) {
                assert_bitwise(
                    &format!("{label} pass {pass} t={}", c.t),
                    &c.weighted,
                    &w.weighted,
                );
                assert_bitwise(
                    &format!("{label} pass {pass} t={} bounds", c.t),
                    &c.error_bounds,
                    &w.error_bounds,
                );
                assert_eq!(c.per_state, w.per_state, "{label} pass {pass} t={}", c.t);
            }
            let warm = plan.execute(&times, 3).unwrap();
            for (p, w) in projected.iter().zip(&warm) {
                assert_bitwise(
                    &format!("{label} pass {pass} t={} projected", p.t),
                    &p.weighted,
                    &w.weighted,
                );
                assert_bitwise(
                    &format!("{label} pass {pass} t={} projected bounds", p.t),
                    &p.error_bounds,
                    &w.error_bounds,
                );
            }
        }
    }
}

#[test]
fn plan_execute_terminal_is_bitwise_identical_to_cold_terminal() {
    let model = asymmetric_model();
    let weights = [1.0, 0.25, 0.0, 0.5];
    for (label, cfg) in configs() {
        let cold = moments_terminal_weighted(&model, 2, 0.7, &weights, &cfg).unwrap();
        let plan = SolvePlan::build(&model, 2, &cfg).unwrap();
        for pass in 0..2 {
            let warm = plan.execute_terminal(0.7, &weights, 2).unwrap();
            assert_bitwise(&format!("{label} pass {pass}"), &cold.weighted, &warm.weighted);
        }
    }
}

#[test]
fn plan_survives_interleaved_grids_and_orders() {
    // A cached plan serves whatever grid/order mix arrives; every answer
    // must still equal the matching cold solve bit-for-bit.
    let model = OnOffMultiplexer::table1(1.0).model().unwrap();
    let cfg = SolverConfig::default();
    let plan = SolvePlan::build(&model, 4, &cfg).unwrap();
    for (times, order) in [
        (vec![0.5], 4usize),
        (vec![0.1, 0.2, 0.5], 2),
        (vec![1.0], 3),
        (vec![0.5], 4),
    ] {
        let warm = plan.execute_per_state(&times, order).unwrap();
        let cold = moments_sweep(&model, order, &times, &cfg).unwrap();
        for (c, w) in cold.iter().zip(&warm) {
            assert_bitwise(
                &format!("order {order} t={}", c.t),
                &c.weighted[..=order],
                &w.weighted[..=order],
            );
        }
        let warm = plan.execute(&times, order).unwrap();
        let cold = SolvePlan::build(&model, order, &cfg)
            .unwrap()
            .execute(&times, order)
            .unwrap();
        for (c, w) in cold.iter().zip(&warm) {
            assert_bitwise(
                &format!("projected order {order} t={}", c.t),
                &c.weighted[..=order],
                &w.weighted[..=order],
            );
        }
    }
}
