//! `onoff-2m`: one order-2 moment solve of the Table-2 multiplexer at
//! 2,000,001 states from a steady-state start, default `auto` format
//! (the matrix-free operator at this size), one horizon with `qt ≈ 250`.
//! Set-up, model memory and the memory-bound kernel advance dominate;
//! nothing is served and only one horizon accumulates.

use crate::kernel;
use crate::machine::solver_config;
use crate::report::Report;
use crate::stats::{median, rounding_allowance, timed, within, Rng};
use crate::{mb, obs_metrics, registry_config, rss_mb};
use somrm_core::{MomentSolution, SecondOrderMrm, SolvePlan};
use somrm_models::OnOffMultiplexer;
use somrm_num::poisson::PoissonWindow;
use std::time::Instant;

const SOURCES: usize = 2_000_000;
const ORDER: usize = 2;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

fn multiplexer() -> OnOffMultiplexer {
    OnOffMultiplexer::table2_scaled(SOURCES)
}

/// The seeded horizon: `qt` drawn from `[250, 252.5)`, narrow enough
/// that every seed costs the same iteration count to within a couple.
pub fn horizon_qt(seed: u64) -> f64 {
    250.0 * (1.0 + 0.01 * Rng::new(seed).uniform())
}

/// `t − (1 − e^{−λt})/λ`, by its series for small `λt` where the direct
/// form cancels.
fn integrated_decay(lambda: f64, t: f64) -> f64 {
    let x = lambda * t;
    if x < 0.1 {
        // x²/2 − x³/6 + x⁴/24 − …, divided by λ.
        let mut term = x * x / 2.0;
        let mut sum = 0.0;
        for k in 3..12 {
            sum += term;
            term *= -x / k as f64;
        }
        sum / lambda
    } else {
        t - (-(-x).exp_m1()) / lambda
    }
}

/// Closed-form first two raw moments of `B(t)` from a stationary start.
/// The `N` sources are independent stationary ON-OFF chains, so with
/// `p = β/(α+β)` and `λ = α+β`:
/// `E[B] = (C − N·r·p)·t` (= `4Nt/7` for Table 2) and
/// `Var[B] = N·(r²·2p(1−p)/λ·(t − (1−e^{−λt})/λ) + σ²·p·t)`.
pub fn closed_form(m: &OnOffMultiplexer, t: f64) -> [f64; 2] {
    let n = m.n_sources as f64;
    let lambda = m.alpha + m.beta;
    let p = m.beta / lambda;
    let mean = (m.capacity - n * m.peak_rate * p) * t;
    let var = n
        * (m.peak_rate * m.peak_rate * 2.0 * p * (1.0 - p) / lambda * integrated_decay(lambda, t)
            + m.variance * p * t);
    [mean, var + mean * mean]
}

/// Checks a solution's mean and second moment against the closed form
/// within the realized Theorem-4 bound plus the rounding allowance of
/// `n` state terms and `G` series terms.
pub fn check(report: &mut Report, sol: &MomentSolution, n: usize, reference: [f64; 2]) {
    let g = sol.stats.iterations as f64;
    let mut ok = true;
    let mut detail = String::new();
    for (j, want) in reference.iter().enumerate() {
        let order = j + 1;
        let got = sol.raw_moment(order);
        let allowance = rounding_allowance(n as f64 + g * (order + 2) as f64, *want);
        if !within(got, *want, sol.error_bound(order), allowance) {
            ok = false;
            detail = format!(
                "moment {order}: got {got:e}, closed form {want:e}, bound {:e} + {allowance:e}",
                sol.error_bound(order)
            );
        }
    }
    report.check(ok, || detail);
}

fn build(m: &OnOffMultiplexer) -> SecondOrderMrm {
    m.model_steady_start()
        .expect("Table-2 parameters are valid")
}

/// The untraced run: set up [`SETUPS`] times, then solve while the time
/// budget lasts (at least once). Times are as measured (see
/// [`crate::speed`] for why they are not normalized).
pub fn run(seed: u64, seconds: f64) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let m = multiplexer();
    let config = solver_config();
    let mut setups = Vec::new();
    let mut plan = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first: one model's memory at a time.
        drop(plan.take());
        let (p, dt) = timed(|| {
            let model = build(&m);
            SolvePlan::build(&model, ORDER, &config).expect("plan builds")
        });
        setups.push(dt);
        plan = Some(p);
    }
    let plan = plan.expect("at least one set-up");
    let t = horizon_qt(seed) / plan.q();
    let reference = closed_form(&m, t);
    let mut solves = Vec::new();
    loop {
        let (sol, dt) = timed(|| plan.execute(&[t], ORDER).expect("solve"));
        check(&mut report, &sol[0], plan.n_states(), reference);
        solves.push(dt);
        if start.elapsed().as_secs_f64() + dt > seconds {
            break;
        }
    }
    report.metric("setup_s", median(&setups), "s");
    report.metric("solve_s", median(&solves), "s");
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    report.info("onoff.states", plan.n_states());
    report.info("onoff.qt", plan.q() * t);
    report.info("onoff.format", plan.matrix_format_name());
    report.info("onoff.setups", setups.len());
    report.info("onoff.solves", solves.len());
    report
}

/// The traced run: each layer timed from outside, then the solve once
/// more with the metrics recorder attached.
pub fn run_traced(seed: u64) -> Report {
    let mut report = Report::default();
    let m = multiplexer();
    let config = solver_config();

    let rss0 = rss_mb();
    let (model, build_s) = timed(|| build(&m));
    report.metric("models.build_s", build_s, "s");
    report.metric("models.rss_mb", rss_mb() - rss0, "MB");

    let (plan, plan_s) = timed(|| SolvePlan::build(&model, ORDER, &config).expect("plan"));
    report.metric("core.plan.build_s", plan_s, "s");
    report.metric("core.plan.footprint_mb", mb(plan.footprint_bytes()), "MB");
    let t = horizon_qt(seed) / plan.q();
    let reference = closed_form(&m, t);

    let (sol, untraced_s) = timed(|| plan.execute(&[t], ORDER).expect("solve"));
    check(&mut report, &sol[0], plan.n_states(), reference);
    let g = sol[0].stats.iterations;
    report.metric("core.solve_ms_p50", (plan_s + untraced_s) * 1e3, "ms");
    let poisson: Vec<f64> = (0..21)
        .map(|_| timed(|| PoissonWindow::exact(plan.q() * t, g)).1)
        .collect();
    report.metric("num.poisson_ms_p50", median(&poisson) * 1e3, "ms");
    drop(plan);

    let (registry, traced_config) = registry_config(&config);
    let plan = SolvePlan::build(&model, ORDER, &traced_config).expect("plan");
    let (sol, traced_s) = timed(|| plan.execute(&[t], ORDER).expect("solve"));
    check(&mut report, &sol[0], plan.n_states(), reference);
    report.metric("core.execute_s", traced_s, "s");
    report.metric("core.iterations", sol[0].stats.iterations as f64, "count");
    obs_metrics(&mut report, &registry, traced_s, untraced_s);
    // Last, so its buffers do not count towards the peak RSS above.
    drop(sol);
    kernel::probe(&mut report, &plan, ORDER, 2);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_mean_is_four_sevenths() {
        let m = OnOffMultiplexer::table2_scaled(2_000_000);
        let t = 3.1e-5;
        let [mean, _] = closed_form(&m, t);
        let want = 4.0 * 2_000_000.0 * t / 7.0;
        assert!((mean - want).abs() <= 1e-12 * want);
    }

    #[test]
    fn integrated_decay_series_meets_direct_form() {
        let lambda = 7.0_f64;
        for t in [0.014_f64, 0.0142, 0.015] {
            let x = lambda * t;
            let direct = t - (-(-x).exp_m1()) / lambda;
            let series = integrated_decay(lambda, t);
            assert!(
                (series - direct).abs() <= 1e-9 * direct,
                "{series} vs {direct}"
            );
        }
    }

    #[test]
    fn closed_form_matches_solver_on_a_small_multiplexer() {
        let m = OnOffMultiplexer::table2_scaled(200);
        let model = m.model_steady_start().unwrap();
        let t = 0.3;
        let sol = somrm_core::solve_moments(&model, 2, t, &solver_config()).unwrap();
        let mut report = Report::default();
        check(&mut report, &sol, model.n_states(), closed_form(&m, t));
        assert_eq!((report.attempted, report.failed), (1, 0));
    }

    #[test]
    fn a_wrong_reference_fails_the_check() {
        let m = OnOffMultiplexer::table2_scaled(200);
        let model = m.model_steady_start().unwrap();
        let t = 0.3;
        let sol = somrm_core::solve_moments(&model, 2, t, &solver_config()).unwrap();
        let [mean, m2] = closed_form(&m, t);
        let mut report = Report::default();
        check(
            &mut report,
            &sol,
            model.n_states(),
            [mean, m2 * (1.0 + 1e-9)],
        );
        assert_eq!((report.attempted, report.failed), (1, 1));
    }
}
