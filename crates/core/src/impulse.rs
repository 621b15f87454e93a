//! Impulse rewards — the extension the paper's introduction points at.
//!
//! Section 1 of the paper restricts the presentation to rate rewards
//! but notes that "the introduced solution method allows to relax these
//! restrictions". This module does exactly that: a transition `i → j`
//! may additionally deposit a deterministic impulse reward `c_ij ≥ 0`
//! into `B(t)`.
//!
//! # Theory
//!
//! Conditioning on the first event in `(0, Δ)` as in Theorem 1, a
//! transition `i → j` multiplies the transform by `e^{−v·c_ij}`, so the
//! moment ODE (eq. 6) gains impulse terms. With the *moment matrices*
//! `Q_l = { q_ij · c_ij^l }` (for `l ≥ 1`, off-diagonal only):
//!
//! ```text
//! d/dt V⁽ⁿ⁾ = Q·V⁽ⁿ⁾ + n·R·V⁽ⁿ⁻¹⁾ + ½n(n−1)·S·V⁽ⁿ⁻²⁾
//!             + Σ_{l=1}^{n} C(n,l)·Q_l·V⁽ⁿ⁻ˡ⁾.
//! ```
//!
//! Uniformizing with rate `q` and the normalization `d` extended to
//! also dominate the impulses (`d ≥ max c_ij`), the randomization
//! recursion becomes
//!
//! ```text
//! U⁽ⁿ⁾(k+1) = Q'·U⁽ⁿ⁾(k) + R'·U⁽ⁿ⁻¹⁾(k) + ½S'·U⁽ⁿ⁻²⁾(k)
//!             + Σ_{l=1}^{n} Q'_l·U⁽ⁿ⁻ˡ⁾(k),
//! Q'_l = Q_l / (q·dˡ·l!),
//! ```
//!
//! with every `Q'_l` substochastic. The coefficients obey
//! `U⁽ⁿ⁾(k) ≤ [xⁿ] (1 + x + ½x² + Σ_{l≥1} xˡ/l!)ᵏ ≤ [xⁿ] e^{2xk}
//! = (2k)ⁿ/n!`, and for `k ≥ 2n` one has `(2k)ⁿ ≤ 4ⁿ·k!/(k−n)!`,
//! giving the Theorem-4-style truncation bound
//! `ξ(G) ≤ 4ⁿ·dⁿ·n!·(qt)ⁿ·P[Pois(qt) > G−n]` — same shape, a factor
//! `2ⁿ` looser, still fully computable.

use crate::error::MrmError;
use crate::model::SecondOrderMrm;
use crate::uniformization::{
    poisson_accounting, truncation_point, unshift_moments, validate_times, weigh, MomentSolution,
    SolverConfig, SolverStats,
};
use somrm_linalg::sparse::{CsrMatrix, TripletBuilder};
use somrm_num::poisson::PoissonWindow;
use somrm_num::special::ln_factorial;
use somrm_num::sum::NeumaierSum;
use somrm_obs::{HealthMonitor, SolveReport, SolverSection};
use std::sync::Arc;

/// A second-order Markov reward model extended with deterministic
/// impulse rewards at transitions.
///
/// # Example
///
/// ```
/// use somrm_ctmc::generator::GeneratorBuilder;
/// use somrm_core::model::SecondOrderMrm;
/// use somrm_core::impulse::ImpulseMrm;
///
/// let mut b = GeneratorBuilder::new(2);
/// b.rate(0, 1, 1.0)?;
/// b.rate(1, 0, 1.0)?;
/// let base = SecondOrderMrm::new(b.build()?, vec![0.0, 0.0], vec![0.0, 0.0], vec![1.0, 0.0])?;
/// // Each 0 -> 1 transition deposits 2.5 units of reward.
/// let model = ImpulseMrm::new(base, &[(0, 1, 2.5)])?;
/// assert_eq!(model.impulse(0, 1), 2.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImpulseMrm {
    base: SecondOrderMrm,
    /// Sparse impulse matrix `C = {c_ij}` (off-diagonal, non-negative).
    impulses: CsrMatrix<f64>,
    max_impulse: f64,
}

impl ImpulseMrm {
    /// Attaches impulses `(from, to, amount)` to a base model.
    ///
    /// # Errors
    ///
    /// * [`MrmError::InvalidParameter`] if an impulse is negative,
    ///   non-finite, on the diagonal, or on a pair with zero transition
    ///   rate (it could never fire).
    pub fn new(
        base: SecondOrderMrm,
        impulses: &[(usize, usize, f64)],
    ) -> Result<Self, MrmError> {
        let n = base.n_states();
        let mut b = TripletBuilder::with_capacity(n, n, impulses.len());
        let mut max_impulse = 0.0f64;
        for &(i, j, c) in impulses {
            if i >= n || j >= n {
                return Err(MrmError::InvalidParameter {
                    name: "impulse",
                    reason: format!("transition ({i},{j}) out of range for {n} states"),
                });
            }
            if i == j || !(c >= 0.0) || !c.is_finite() {
                return Err(MrmError::InvalidParameter {
                    name: "impulse",
                    reason: format!("invalid impulse {c} on ({i},{j})"),
                });
            }
            if base.generator().as_csr().get(i, j) == 0.0 {
                return Err(MrmError::InvalidParameter {
                    name: "impulse",
                    reason: format!("impulse on ({i},{j}) but the transition rate is zero"),
                });
            }
            if c > 0.0 {
                b.push(i, j, c);
                max_impulse = max_impulse.max(c);
            }
        }
        Ok(ImpulseMrm {
            base,
            impulses: b.build(),
            max_impulse,
        })
    }

    /// The underlying rate-reward model.
    pub fn base(&self) -> &SecondOrderMrm {
        &self.base
    }

    /// The impulse on transition `i → j` (0 if none).
    pub fn impulse(&self, i: usize, j: usize) -> f64 {
        self.impulses.get(i, j)
    }

    /// The largest impulse.
    pub fn max_impulse(&self) -> f64 {
        self.max_impulse
    }

    /// Sparse impulse matrix.
    pub fn impulse_matrix(&self) -> &CsrMatrix<f64> {
        &self.impulses
    }
}

/// Computes raw moments `0 ..= order` of the accumulated reward of an
/// impulse-extended model at time `t` by the extended randomization
/// recursion (see module docs).
///
/// # Errors
///
/// Same conditions as [`crate::uniformization::moments`].
pub fn moments_with_impulse(
    model: &ImpulseMrm,
    order: usize,
    t: f64,
    config: &SolverConfig,
) -> Result<MomentSolution, MrmError> {
    config.validate(model.base().n_states())?;
    validate_times(&[t])?;
    // No impulses: delegate to the plain solver.
    if model.max_impulse == 0.0 {
        return crate::uniformization::moments(model.base(), order, t, config);
    }

    let base = model.base();
    let n_states = base.n_states();
    let q = base.generator().uniformization_rate();
    if q == 0.0 {
        // Impulses require transitions; with none the base solver's
        // frozen-chain path applies.
        return crate::uniformization::moments(base, order, t, config);
    }
    let shift = base.min_rate().min(0.0);
    let shifted_rates: Vec<f64> = base.rates().iter().map(|&r| r - shift).collect();
    let max_rate = shifted_rates.iter().copied().fold(0.0, f64::max);
    let max_sigma = base.variances().iter().map(|&s| s.sqrt()).fold(0.0, f64::max);
    // d additionally dominates the impulses (see module docs).
    let d = (max_rate / q)
        .max(max_sigma / q.sqrt())
        .max(model.max_impulse);

    let rec = &config.recorder;
    let setup = rec.span("solve.setup");
    let q_prime = crate::plan::resolve_matrix(base, q, config.format)?;
    let r_prime: Vec<f64> = shifted_rates.iter().map(|&r| r / (q * d)).collect();
    let s_half: Vec<f64> = base
        .variances()
        .iter()
        .map(|&s| 0.5 * s / (q * d * d))
        .collect();

    // Impulse moment matrices Q'_l = {q_ij c_ij^l} / (q d^l l!), l = 1..=order.
    let mut q_l: Vec<CsrMatrix<f64>> = Vec::with_capacity(order);
    for l in 1..=order {
        let mut b = TripletBuilder::with_capacity(n_states, n_states, model.impulses.nnz());
        let scale = (ln_factorial(l as u64) + l as f64 * d.ln() + q.ln()).exp();
        for i in 0..n_states {
            for (j, c) in model.impulses.row(i) {
                let rate = base.generator().as_csr().get(i, j);
                b.push(i, j, rate * c.powi(l as i32) / scale);
            }
        }
        q_l.push(b.build());
    }
    drop(setup);

    let qt = q * t;
    let (g_limit, error_bounds) = rec.time("solve.truncation", || {
        // `4ʲ` front factor instead of `2`, and `G ≥ 2·order` so the
        // bound derivation applies (see module docs).
        let ln_4 = 4.0f64.ln();
        truncation_point(qt, d, order, |j| j as f64 * ln_4, 2 * order as u64, config)
    })?;
    let error_bound = error_bounds.iter().copied().fold(0.0, f64::max);
    if rec.enabled() {
        rec.gauge_set("solver.q", q);
        rec.gauge_set("solver.d", d);
        rec.gauge_set("solver.qt", qt);
        rec.gauge_set("solver.shift", shift);
        rec.gauge_set("solver.g", g_limit as f64);
        rec.gauge_set("solver.error_bound", error_bound);
        rec.gauge_set("solver.matrix_format", crate::plan::format_gauge(&q_prime));
        rec.gauge_set("solver.bandwidth", q_prime.bandwidth() as f64);
    }
    let window = rec.time("solve.poisson", || {
        (t > 0.0).then(|| PoissonWindow::exact(qt, g_limit))
    });

    let mut u: Vec<Vec<f64>> = (0..=order)
        .map(|j| vec![if j == 0 { 1.0 } else { 0.0 }; n_states])
        .collect();
    let mut acc: Vec<Vec<NeumaierSum>> = vec![vec![NeumaierSum::new(); n_states]; order + 1];
    let mut scratch = vec![0.0f64; n_states];
    let mut scratch2 = vec![0.0f64; n_states];

    let mut health = rec.enabled().then(|| HealthMonitor::new(g_limit, order));
    let recursion = rec.span("solve.recursion");
    for k in 0..=g_limit {
        let wk = window.as_ref().map_or(0.0, |w| w.weight(k));
        if wk > 0.0 {
            for j in 0..=order {
                for i in 0..n_states {
                    acc[j][i].add(wk * u[j][i]);
                }
            }
        }
        if let Some(h) = health.as_mut() {
            if h.should_sample(k, g_limit) {
                for (j, uj) in u.iter().enumerate() {
                    h.observe_order(j, uj);
                }
            }
        }
        if k == g_limit {
            break;
        }
        for j in (0..=order).rev() {
            q_prime.matvec_into(&u[j], &mut scratch);
            // Impulse contributions Σ_{l=1}^{j} Q'_l · U^{(j−l)}.
            for l in 1..=j {
                q_l[l - 1].matvec_into(&u[j - l], &mut scratch2);
                for i in 0..n_states {
                    scratch[i] += scratch2[i];
                }
            }
            if j >= 1 {
                let (lo, hi) = u.split_at_mut(j);
                let uj = &mut hi[0];
                let ujm1 = &lo[j - 1];
                if j >= 2 {
                    let ujm2 = &lo[j - 2];
                    for i in 0..n_states {
                        uj[i] = scratch[i] + r_prime[i] * ujm1[i] + s_half[i] * ujm2[i];
                    }
                } else {
                    for i in 0..n_states {
                        uj[i] = scratch[i] + r_prime[i] * ujm1[i];
                    }
                }
            } else {
                u[0].copy_from_slice(&scratch);
            }
        }
    }

    drop(recursion);
    if let Some(h) = health.as_mut() {
        for row in &acc {
            for a in row {
                h.observe_compensation(a.raw_sum(), a.compensation());
            }
        }
    }

    let assemble = rec.span("solve.assemble");
    let shifted_moments: Vec<Vec<f64>> = if t == 0.0 {
        (0..=order)
            .map(|j| vec![if j == 0 { 1.0 } else { 0.0 }; n_states])
            .collect()
    } else {
        (0..=order)
            .map(|j| {
                let scale = (ln_factorial(j as u64) + j as f64 * d.ln()).exp();
                acc[j].iter().map(|a| scale * a.value()).collect()
            })
            .collect()
    };
    let per_state = unshift_moments(&shifted_moments, shift, t);
    let weighted = weigh(&per_state, base.initial());
    drop(assemble);
    let report = rec.enabled().then(|| {
        Arc::new(SolveReport {
            command: "impulse".to_string(),
            solver: Some(SolverSection {
                q,
                d,
                qt,
                shift,
                g: g_limit,
                max_iterations: config.max_iterations,
                epsilon: config.epsilon,
                order,
                n_states,
                n_times: 1,
                threads: 1,
                // The impulse recursion runs serial matvecs, not the
                // fused kernel — always strict scalar arithmetic.
                kernel_variant: "scalar".to_string(),
                error_bound,
                error_bounds: error_bounds.clone(),
                poisson: poisson_accounting(&[t], std::slice::from_ref(&window), g_limit),
            }),
            pool: None,
            health: health.take().map(|h| h.finish(rec)),
            mem: None,
            metrics: rec.snapshot().unwrap_or_default(),
        })
    });
    Ok(MomentSolution {
        t,
        per_state,
        weighted,
        stats: SolverStats {
            q,
            d,
            shift,
            iterations: g_limit,
            error_bound,
        },
        error_bounds,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_ctmc::generator::GeneratorBuilder;

    fn cyclic_base(n: usize, rate: f64) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(n);
        for i in 0..n {
            b.rate(i, (i + 1) % n, rate).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        SecondOrderMrm::new(b.build().unwrap(), vec![0.0; n], vec![0.0; n], init).unwrap()
    }

    #[test]
    fn pure_impulse_counts_poisson_events() {
        // A 1-cycle... use 2-state cyclic chain with equal rates λ: the
        // transition count N(t) is Poisson(λt) (every sojourn is
        // exp(λ)). With impulse c on every transition, B(t) = c·N(t):
        // E[B] = cλt, Var[B] = c²λt, E[B³] = c³·E[N³].
        let lambda = 3.0;
        let base = cyclic_base(2, lambda);
        let c = 2.5;
        let model = ImpulseMrm::new(base, &[(0, 1, c), (1, 0, c)]).unwrap();
        let t = 0.8;
        let sol = moments_with_impulse(&model, 3, t, &SolverConfig::default()).unwrap();
        let m = lambda * t; // Poisson mean
        assert!((sol.mean() - c * m).abs() < 1e-8, "mean {}", sol.mean());
        assert!(
            (sol.raw_moment(2) - c * c * (m + m * m)).abs() < 1e-7,
            "m2 {}",
            sol.raw_moment(2)
        );
        // E[N³] = m³ + 3m² + m for Poisson.
        let n3 = m * m * m + 3.0 * m * m + m;
        assert!(
            (sol.raw_moment(3) - c * c * c * n3).abs() < 1e-6,
            "m3 {}",
            sol.raw_moment(3)
        );
    }

    #[test]
    fn zero_impulses_match_base_solver() {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 2.0).unwrap();
        let base = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, 3.0],
            vec![0.5, 2.0],
            vec![1.0, 0.0],
        )
        .unwrap();
        let model = ImpulseMrm::new(base.clone(), &[]).unwrap();
        let t = 0.9;
        let a = moments_with_impulse(&model, 3, t, &SolverConfig::default()).unwrap();
        let c = crate::uniformization::moments(&base, 3, t, &SolverConfig::default()).unwrap();
        for n in 0..=3 {
            assert!((a.raw_moment(n) - c.raw_moment(n)).abs() < 1e-10);
        }
    }

    #[test]
    fn rate_plus_impulse_mean_decomposes() {
        // E[B] = E[rate part] + Σ_ij c_ij · E[#transitions i→j]; for the
        // symmetric 2-state chain with impulse on 0→1 only, the expected
        // count is ∫ λ·P(Z=0) du.
        let lambda = 2.0;
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, lambda).unwrap();
        b.rate(1, 0, lambda).unwrap();
        let base = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, 4.0],
            vec![0.3, 0.6],
            vec![1.0, 0.0],
        )
        .unwrap();
        let c01 = 1.7;
        let model = ImpulseMrm::new(base.clone(), &[(0, 1, c01)]).unwrap();
        let t = 1.1;
        let with = moments_with_impulse(&model, 1, t, &SolverConfig::default()).unwrap();
        let without =
            crate::uniformization::moments(&base, 1, t, &SolverConfig::default()).unwrap();
        // P(Z=0 | Z0=0) = 1/2 (1 + e^{-2λu}); expected count = λ∫ = λt/2 + (1−e^{−2λt})/4.
        let count = lambda * t / 2.0 + (1.0 - (-2.0 * lambda * t).exp()) / 4.0;
        assert!(
            (with.mean() - without.mean() - c01 * count).abs() < 1e-8,
            "{} vs {} + {}",
            with.mean(),
            without.mean(),
            c01 * count
        );
    }

    #[test]
    fn second_order_plus_impulse_variance_sane() {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        let base = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, 1.0],
            vec![0.5, 0.5],
            vec![1.0, 0.0],
        )
        .unwrap();
        let model = ImpulseMrm::new(base.clone(), &[(0, 1, 1.0)]).unwrap();
        let sol = moments_with_impulse(&model, 2, 1.0, &SolverConfig::default()).unwrap();
        let no_imp = crate::uniformization::moments(&base, 2, 1.0, &SolverConfig::default())
            .unwrap();
        // Impulses add variance.
        assert!(sol.variance() > no_imp.variance());
        assert!((sol.raw_moment(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_impulses_rejected() {
        let base = cyclic_base(2, 1.0);
        assert!(ImpulseMrm::new(base.clone(), &[(0, 0, 1.0)]).is_err());
        assert!(ImpulseMrm::new(base.clone(), &[(0, 1, -1.0)]).is_err());
        assert!(ImpulseMrm::new(base.clone(), &[(0, 5, 1.0)]).is_err());
        assert!(ImpulseMrm::new(base.clone(), &[(0, 1, f64::NAN)]).is_err());
        // 3-state cycle has no 0→2 rate.
        let base3 = cyclic_base(3, 1.0);
        assert!(ImpulseMrm::new(base3, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn zero_time_degenerate() {
        let base = cyclic_base(2, 1.0);
        let model = ImpulseMrm::new(base, &[(0, 1, 1.0)]).unwrap();
        let sol = moments_with_impulse(&model, 2, 0.0, &SolverConfig::default()).unwrap();
        assert_eq!(sol.raw_moment(1), 0.0);
    }
}
