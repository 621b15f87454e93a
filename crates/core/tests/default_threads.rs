//! The default configuration engages every CPU on large models and
//! stays bitwise.
//!
//! `SolverConfig::default()` takes its thread count from the machine,
//! so a model at the default `parallel_threshold` runs on the worker
//! pool wherever more than one CPU is available. This pins what that
//! default does: the thread count a solve reports, and that every query
//! path returns the bits of a `threads: 1` plan, on every matrix
//! backend and kernel variant, and of the CSR plan within a variant.
//! A birth–death model runs CSR and DIA; a Kronecker-sum model of the
//! same size runs CSR and the matrix-free operator. Under a one-CPU
//! affinity mask (`taskset -c 0`) the default is serial and the same
//! checks hold.

use somrm_core::model::SecondOrderMrm;
use somrm_core::{ModelStructure, MomentSolution, SolvePlan, SolverConfig};
use somrm_ctmc::generator::GeneratorBuilder;
use somrm_linalg::{KernelVariant, Mat, MatrixFormat};
use somrm_obs::{MetricsRegistry, RecorderHandle};
use std::sync::Arc;

const ORDER: usize = 2;

/// A birth–death reward model with `n` states, varied rates and
/// rewards, and a point start in the middle.
fn birth_death(n: usize) -> SecondOrderMrm {
    let birth: Vec<f64> = (0..n - 1).map(|i| 1.0 + (i % 5) as f64 * 0.1).collect();
    let death: Vec<f64> = (0..n - 1).map(|i| 1.5 - (i % 3) as f64 * 0.2).collect();
    let mut b = GeneratorBuilder::new(n);
    for (i, (&up, &down)) in birth.iter().zip(&death).enumerate() {
        b.rate(i, i + 1, up).unwrap();
        b.rate(i + 1, i, down).unwrap();
    }
    let drifts = (0..n).map(|i| ((i % 7) as f64 - 2.0) * 0.3).collect();
    let variances = (0..n).map(|i| (i % 4) as f64 * 0.25).collect();
    let mut initial = vec![0.0; n];
    initial[n / 2] = 1.0;
    SecondOrderMrm::new(b.build().unwrap(), drifts, variances, initial).unwrap()
}

/// A Kronecker sum of `k` two-state factors (`2^k` states) carrying its
/// descriptor, with the birth–death model's rewards and start.
fn kronecker(k: usize) -> SecondOrderMrm {
    let n = 1usize << k;
    let factors: Vec<Mat<f64>> = (0..k)
        .map(|f| {
            let (on, off) = (0.5 + (f % 3) as f64 * 0.25, 1.0 + (f % 4) as f64 * 0.125);
            Mat::from_rows(&[&[0.0, on][..], &[off, 0.0][..]]).unwrap()
        })
        .collect();
    // Factor `f` flips bit `k − 1 − f` of the state index (outermost
    // factor, largest stride).
    let mut b = GeneratorBuilder::new(n);
    for i in 0..n {
        for (f, factor) in factors.iter().enumerate() {
            let bit = 1 << (k - 1 - f);
            let digit = usize::from(i & bit != 0);
            b.rate(i, i ^ bit, factor[(digit, 1 - digit)]).unwrap();
        }
    }
    let shape = birth_death(n);
    SecondOrderMrm::new(
        b.build().unwrap(),
        shape.rates().to_vec(),
        shape.variances().to_vec(),
        shape.initial().to_vec(),
    )
    .unwrap()
    .with_structure(ModelStructure::KroneckerSum { factors })
    .unwrap()
}

/// The thread count a solve reports in its attached solve report.
fn reported_threads(sol: &MomentSolution) -> usize {
    let report = sol.report.as_ref().expect("recorder attaches a report");
    report.solver.as_ref().expect("solver section").threads
}

fn assert_same(a: &MomentSolution, b: &MomentSolution, what: &str) {
    assert_eq!(a.weighted, b.weighted, "{what}: weighted");
    assert_eq!(a.per_state, b.per_state, "{what}: per_state");
    assert_eq!(a.error_bounds, b.error_bounds, "{what}: error bounds");
    assert_eq!(a.stats, b.stats, "{what}: stats");
}

#[test]
fn default_config_engages_the_pool_and_stays_bitwise() {
    let n = SolverConfig::default().parallel_threshold;
    assert!(n.is_power_of_two(), "the Kronecker model needs 2^k states");
    // (model, storages, horizons in units of 1/q): the Kronecker model's
    // 14 rates per row make its sweeps dearer, so it runs fewer steps.
    let models = [
        (
            birth_death(n),
            vec![MatrixFormat::Csr, MatrixFormat::Dia],
            [4.0, 12.0],
        ),
        (
            kronecker(n.trailing_zeros() as usize),
            vec![MatrixFormat::Csr, MatrixFormat::Operator],
            [1.0, 3.0],
        ),
    ];
    let uniform = vec![1.0 / n as f64; n];
    let terminal: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
    // At the threshold the default engages every CPU, capped at 256;
    // on one CPU that is 1 and the comparisons below are serial ones.
    let want_threads = std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .min(256);

    for (model, formats, qt) in &models {
        let pis: [&[f64]; 2] = [model.initial(), &uniform];
        let q = model.generator().uniformization_rate();
        let times = qt.map(|qt| qt / q);
        for kernel in [KernelVariant::Scalar, KernelVariant::Simd] {
            // Every storage answers with the CSR plan's bits.
            let mut csr_answers: Option<Vec<MomentSolution>> = None;
            for &format in formats {
                let default = SolverConfig {
                    format,
                    kernel,
                    ..SolverConfig::default()
                }
                .with_recorder(RecorderHandle::new(Arc::new(MetricsRegistry::new())));
                let serial = SolverConfig {
                    format,
                    kernel,
                    threads: 1,
                    ..SolverConfig::default()
                };
                let pooled = SolvePlan::build(model, ORDER, &default).unwrap();
                let plain = SolvePlan::build(model, ORDER, &serial).unwrap();
                assert_eq!(pooled.matrix_format_name(), format.to_string());
                let at = format!("{} states {format:?} {kernel:?}", model.n_states());

                let got = pooled.execute(&times, ORDER).unwrap();
                assert_eq!(reported_threads(&got[0]), want_threads, "{at}");
                let mut answers = plain.execute(&times, ORDER).unwrap();
                for (a, b) in got.iter().zip(&answers) {
                    assert_same(a, b, &format!("{at} execute"));
                }

                let got = pooled.execute_for(&pis, &times, ORDER).unwrap();
                let want = plain.execute_for(&pis, &times, ORDER).unwrap();
                for (p, (a, b)) in got.iter().flatten().zip(want.iter().flatten()).enumerate() {
                    assert_same(a, b, &format!("{at} execute_for #{p}"));
                }
                answers.extend(want.into_iter().flatten());

                let got = pooled.execute_per_state(&times, ORDER).unwrap();
                let want = plain.execute_per_state(&times, ORDER).unwrap();
                for (a, b) in got.iter().zip(&want) {
                    assert_same(a, b, &format!("{at} execute_per_state"));
                }
                answers.extend(want);

                let a = pooled.execute_terminal(times[1], &terminal, ORDER).unwrap();
                let b = plain.execute_terminal(times[1], &terminal, ORDER).unwrap();
                assert_eq!(reported_threads(&a), want_threads, "{at} terminal");
                assert_same(&a, &b, &format!("{at} execute_terminal"));
                answers.push(b);

                match &csr_answers {
                    None => csr_answers = Some(answers),
                    Some(csr) => {
                        for (a, b) in csr.iter().zip(&answers) {
                            assert_same(a, b, &format!("{at} against CSR"));
                        }
                    }
                }
            }
        }
    }
}
