//! The paper's Section-7 example: ON-OFF CBR sources sharing a channel.
//!
//! `N` class-1 sources alternate between exponential OFF (rate `β` to
//! turn on) and ON (rate `α` to turn off) periods. An ON source
//! transmits at rate `r` with variance `σ²` (a Brownian amount of data
//! per unit time). Class-2 traffic gets whatever capacity is left, so
//! with `i` sources ON the reward (available class-2 capacity) has
//! drift `r_i = C − i·r` and variance `σ_i² = i·σ²` — the model of the
//! paper's Figure 2.
//!
//! The background CTMC is the birth–death chain on `{0, …, N}` with
//! birth rate `(N−i)·β` and death rate `i·α`.

use somrm_core::error::MrmError;
use somrm_core::model::SecondOrderMrm;
use somrm_ctmc::generator::GeneratorBuilder;
use somrm_ctmc::stationary::stationary_birth_death;

/// Parameters of the ON-OFF multiplexer model (the paper's Table 1 /
/// Table 2 rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnOffMultiplexer {
    /// Channel capacity `C`.
    pub capacity: f64,
    /// Number of ON-OFF sources `N`.
    pub n_sources: usize,
    /// Rate of leaving the ON state (`α`, parameter of the ON period).
    pub alpha: f64,
    /// Rate of leaving the OFF state (`β`, parameter of the OFF period).
    pub beta: f64,
    /// Peak transmission rate of one source (`r`).
    pub peak_rate: f64,
    /// Variance of the transmission rate of one source (`σ²`).
    pub variance: f64,
}

impl OnOffMultiplexer {
    /// The paper's Table 1 configuration (`C = N = 32`, `α = 4`,
    /// `β = 3`, `r = 1`) with the chosen per-source variance
    /// (`σ² ∈ {0, 1, 10}` in the paper).
    pub fn table1(variance: f64) -> Self {
        OnOffMultiplexer {
            capacity: 32.0,
            n_sources: 32,
            alpha: 4.0,
            beta: 3.0,
            peak_rate: 1.0,
            variance,
        }
    }

    /// The paper's Table 2 "large model" (`C = N = 200,000`,
    /// `σ² = 10`).
    pub fn table2() -> Self {
        OnOffMultiplexer {
            capacity: 200_000.0,
            n_sources: 200_000,
            alpha: 4.0,
            beta: 3.0,
            peak_rate: 1.0,
            variance: 10.0,
        }
    }

    /// A shape-preserving rescale of the Table 2 model to `n` sources
    /// (`C = n`, everything else unchanged) — used to run the Figure-8
    /// experiment at laptop scale while keeping the same per-state
    /// structure.
    pub fn table2_scaled(n: usize) -> Self {
        OnOffMultiplexer {
            capacity: n as f64,
            n_sources: n,
            ..Self::table2()
        }
    }

    /// Number of CTMC states (`N + 1`).
    pub fn n_states(&self) -> usize {
        self.n_sources + 1
    }

    /// Per-state drifts `r_i = C − i·r`.
    pub fn drifts(&self) -> Vec<f64> {
        (0..=self.n_sources)
            .map(|i| self.capacity - i as f64 * self.peak_rate)
            .collect()
    }

    /// Per-state variances `σ_i² = i·σ²`.
    pub fn variances(&self) -> Vec<f64> {
        (0..=self.n_sources)
            .map(|i| i as f64 * self.variance)
            .collect()
    }

    /// Builds the model with all sources OFF at time 0 (the paper's
    /// initial condition).
    ///
    /// # Errors
    ///
    /// Returns [`MrmError`] if the parameters are invalid (non-positive
    /// `α`/`β`, negative variance, …).
    pub fn model(&self) -> Result<SecondOrderMrm, MrmError> {
        let mut initial = vec![0.0; self.n_states()];
        initial[0] = 1.0;
        self.model_with_initial(initial)
    }

    /// Builds the model starting from the stationary distribution of the
    /// background chain (the paper's "steady state" curve in Figure 3).
    ///
    /// # Errors
    ///
    /// Returns [`MrmError`] for invalid parameters.
    pub fn model_steady_start(&self) -> Result<SecondOrderMrm, MrmError> {
        let (birth, death) = self.birth_death_rates();
        let pi = stationary_birth_death(&birth, &death)?;
        self.model_with_initial(pi)
    }

    /// Builds the model with an arbitrary initial distribution over the
    /// number of ON sources. The generator is a birth–death chain, so
    /// the solver's `auto` format runs it on three DIA strips built
    /// straight from the generator.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError`] for invalid parameters or distribution.
    pub fn model_with_initial(&self, initial: Vec<f64>) -> Result<SecondOrderMrm, MrmError> {
        let n = self.n_sources;
        let mut b = GeneratorBuilder::new(n + 1);
        for i in 0..n {
            // i sources ON: (N−i) OFF sources may switch on...
            b.rate(i, i + 1, (n - i) as f64 * self.beta)?;
            // ...and i+1 ON sources may switch off in state i+1.
            b.rate(i + 1, i, (i + 1) as f64 * self.alpha)?;
        }
        SecondOrderMrm::new(b.build()?, self.drifts(), self.variances(), initial)
    }

    /// The birth/death rate vectors of the background chain.
    pub fn birth_death_rates(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.n_sources;
        let birth = (0..n).map(|i| (n - i) as f64 * self.beta).collect();
        let death = (0..n).map(|i| (i + 1) as f64 * self.alpha).collect();
        (birth, death)
    }

    /// The long-run mean available capacity
    /// `C − N·r·β/(α+β)` (closed form).
    pub fn steady_state_mean_rate(&self) -> f64 {
        let p_on = self.beta / (self.alpha + self.beta);
        self.capacity - self.n_sources as f64 * self.peak_rate * p_on
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_core::uniformization::{moments, SolverConfig};

    #[test]
    fn table1_matches_paper_parameters() {
        let m = OnOffMultiplexer::table1(10.0);
        assert_eq!(m.capacity, 32.0);
        assert_eq!(m.n_sources, 32);
        assert_eq!(m.alpha, 4.0);
        assert_eq!(m.beta, 3.0);
        assert_eq!(m.peak_rate, 1.0);
        assert_eq!(m.n_states(), 33);
        // Uniformization rate: state N has exit rate N·α = 128.
        let model = m.model().unwrap();
        assert_eq!(model.generator().uniformization_rate(), 128.0);
    }

    #[test]
    fn drifts_and_variances_follow_figure_2() {
        let m = OnOffMultiplexer::table1(10.0);
        let r = m.drifts();
        let s = m.variances();
        assert_eq!(r[0], 32.0);
        assert_eq!(r[32], 0.0);
        assert_eq!(r[5], 27.0);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[32], 320.0);
        assert_eq!(s[5], 50.0);
    }

    #[test]
    fn table2_large_parameters() {
        let m = OnOffMultiplexer::table2();
        assert_eq!(m.n_sources, 200_000);
        // The paper reports q = 800,000 for this model (= N·α).
        assert_eq!(
            m.n_sources as f64 * m.alpha,
            800_000.0
        );
    }

    #[test]
    fn scaled_model_preserves_shape() {
        let m = OnOffMultiplexer::table2_scaled(100);
        assert_eq!(m.n_sources, 100);
        assert_eq!(m.capacity, 100.0);
        assert_eq!(m.variance, 10.0);
        let model = m.model().unwrap();
        assert_eq!(model.generator().uniformization_rate(), 400.0);
    }

    #[test]
    fn steady_state_mean_rate_closed_form() {
        let m = OnOffMultiplexer::table1(0.0);
        // C − N·r·β/(α+β) = 32 − 32·3/7.
        let expect = 32.0 - 32.0 * 3.0 / 7.0;
        assert!((m.steady_state_mean_rate() - expect).abs() < 1e-12);
        // And the model agrees.
        let model = m.model().unwrap();
        assert!((model.steady_state_growth_rate().unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn steady_start_mean_is_linear_in_time() {
        // Figure 3's "steady state" line: E[B(t)] = rate·t exactly.
        let m = OnOffMultiplexer::table1(1.0);
        let model = m.model_steady_start().unwrap();
        let rate = m.steady_state_mean_rate();
        for &t in &[0.1, 0.5, 1.0] {
            let sol = moments(&model, 1, t, &SolverConfig::default()).unwrap();
            assert!(
                (sol.mean() - rate * t).abs() < 1e-7 * (rate * t),
                "t = {t}: {} vs {}",
                sol.mean(),
                rate * t
            );
        }
    }

    #[test]
    fn all_off_start_mean_above_steady_line() {
        // Starting all-OFF leaves more capacity early on, so the
        // transient mean exceeds rate·t.
        let m = OnOffMultiplexer::table1(1.0);
        let model = m.model().unwrap();
        let rate = m.steady_state_mean_rate();
        let sol = moments(&model, 1, 0.3, &SolverConfig::default()).unwrap();
        assert!(sol.mean() > rate * 0.3);
    }

    #[test]
    fn sigma_zero_is_first_order() {
        let model = OnOffMultiplexer::table1(0.0).model().unwrap();
        assert!(model.is_first_order());
        let model = OnOffMultiplexer::table1(1.0).model().unwrap();
        assert!(!model.is_first_order());
    }

    /// The paper's Table-2 "large model" at full scale: 200,001 states.
    ///
    /// Tier-2: run with `cargo test --release -p somrm-models -- --ignored`
    /// (a debug build takes far too long; release completes in well under
    /// a minute on one CPU). Checks that the birth–death generator is
    /// detected as tridiagonal and auto-promoted to the DIA kernel, and
    /// that an order-2 steady-start solve lands within the Theorem-4
    /// bound of the closed-form mean `rate·t`.
    #[test]
    #[ignore = "paper-scale model (200,001 states); run with --release -- --ignored"]
    fn table2_full_scale_solves_on_dia_kernel() {
        use somrm_linalg::{DiaMatrix, IterationMatrix, MatrixFormat};

        let m = OnOffMultiplexer::table2();
        let model = m.model_steady_start().unwrap();
        assert_eq!(model.n_states(), 200_001);
        let q = model.generator().uniformization_rate();
        assert_eq!(q, 800_000.0);

        // The uniformized kernel Q' = Q/q + I is tridiagonal, and the
        // auto-detector must pick the DIA storage for it.
        let kernel = model.generator().uniformized_kernel(q).unwrap();
        let dia = DiaMatrix::from_csr(&kernel).expect("tridiagonal kernel is DIA-profitable");
        assert_eq!(dia.bandwidth(), 1, "birth–death chain is tridiagonal");
        let auto = IterationMatrix::try_with_format(kernel, MatrixFormat::Auto).unwrap();
        assert!(auto.is_dia(), "auto-selection must promote to DIA");
        assert_eq!(auto.bandwidth(), 1);

        // Steady start: E[B(t)] = rate·t exactly (the Figure-3 line), so
        // the solve is checked against a closed form, within the realized
        // Theorem-4 bound plus accumulated-roundoff slack.
        let t = 0.01; // qt = 8,000
        let sol = moments(&model, 2, t, &SolverConfig::default()).unwrap();
        let expect = m.steady_state_mean_rate() * t;
        let tol = sol.error_bound(1) + 1e-7 * expect;
        assert!(
            (sol.mean() - expect).abs() < tol,
            "mean {} vs closed form {} (tol {tol})",
            sol.mean(),
            expect
        );
        assert!(sol.variance() > 0.0);
    }

    /// The Table-2 model at 10× paper scale: 2,000,001 states, solved on
    /// the DIA strips `Auto` builds straight from the generator.
    ///
    /// Tier-2: run with
    /// `cargo test --release -p somrm-models -- --ignored`. At this size
    /// a materialized CSR kernel alone is ~6M entries plus index arrays;
    /// the plan keeps only the three O(n) strips. Checks that `Auto`
    /// resolves the model to DIA, and that the solve lands within the
    /// realized Theorem-4 bound of the closed-form steady-start mean
    /// `rate·t`.
    #[test]
    #[ignore = "10x paper scale (2,000,001 states); run with --release -- --ignored"]
    fn multiplexer_2m_states_dia() {
        use somrm_core::plan::SolvePlan;

        let m = OnOffMultiplexer::table2_scaled(2_000_000);
        let model = m.model_steady_start().unwrap();
        assert_eq!(model.n_states(), 2_000_001);
        let q = model.generator().uniformization_rate();
        assert_eq!(q, 8_000_000.0);

        let plan = SolvePlan::build(&model, 2, &SolverConfig::default()).unwrap();
        assert_eq!(plan.matrix_format_name(), "dia");
        assert_eq!(plan.matrix_bytes(), 3 * 8 + 3 * 2_000_001 * 8, "three strips only");

        // Steady start makes E[B(t)] = rate·t exact, so the check is the
        // realized Theorem-4 bound plus accumulated-roundoff slack.
        let t = 0.000_25; // qt = 2,000
        let sol = plan.execute(&[t], 2).unwrap().remove(0);
        let expect = m.steady_state_mean_rate() * t;
        let tol = sol.error_bound(1) + 1e-7 * expect;
        assert!(
            (sol.mean() - expect).abs() < tol,
            "mean {} vs closed form {} (tol {tol})",
            sol.mean(),
            expect
        );
        assert!(sol.variance() > 0.0);
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;

    #[test]
    fn invalid_switching_rates_rejected() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let m = OnOffMultiplexer {
                alpha: bad,
                ..OnOffMultiplexer::table1(1.0)
            };
            assert!(m.model().is_err(), "alpha = {bad}");
            let m = OnOffMultiplexer {
                beta: bad,
                ..OnOffMultiplexer::table1(1.0)
            };
            assert!(m.model().is_err(), "beta = {bad}");
        }
        // α = 0 is degenerate but *valid* (sources never turn off): the
        // chain builds, only the stationary analysis fails.
        let m = OnOffMultiplexer {
            alpha: 0.0,
            ..OnOffMultiplexer::table1(1.0)
        };
        let model = m.model().unwrap();
        assert!(model.steady_state_growth_rate().is_err());
    }

    #[test]
    fn negative_variance_rejected() {
        let m = OnOffMultiplexer {
            variance: -1.0,
            ..OnOffMultiplexer::table1(1.0)
        };
        assert!(m.model().is_err());
    }

    #[test]
    fn invalid_initial_distribution_rejected() {
        let m = OnOffMultiplexer::table1(1.0);
        assert!(m.model_with_initial(vec![0.5; 33]).is_err());
        assert!(m.model_with_initial(vec![1.0; 2]).is_err());
    }

    #[test]
    fn overloaded_channel_has_negative_drifts() {
        // N·r > C: the solver must still work (negative-rate shift).
        let m = OnOffMultiplexer {
            capacity: 8.0,
            n_sources: 16,
            ..OnOffMultiplexer::table1(1.0)
        };
        let model = m.model().unwrap();
        assert!(model.min_rate() < 0.0);
        let sol = somrm_core::uniformization::moments(
            &model,
            2,
            0.5,
            &somrm_core::uniformization::SolverConfig::default(),
        )
        .unwrap();
        // Long horizon drains below full capacity; variance positive.
        assert!(sol.mean() < 8.0 * 0.5);
        assert!(sol.variance() > 0.0);
    }
}
