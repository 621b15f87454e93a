//! Plan/execute split of the uniformization solver.
//!
//! The paper's workloads are "few hot models, many queries": Table 2
//! re-solves the same multiplexer at many time points and orders. A cold
//! [`crate::uniformization::moments_sweep`] call re-derives everything
//! from scratch each time — uniformization constants, the iteration
//! matrix in its chosen storage format, the normalized reward vectors,
//! and a fresh worker pool. [`SolvePlan`] hoists exactly the parts that
//! depend only on `(model, config)`:
//!
//! - validation of the configuration ([`SolverConfig::validate`]),
//! - `q`, the drift shift `ř`, and the normalization constant `d`,
//! - the [`IterationMatrix`] (CSR or banded DIA, selected once),
//! - the substochastic `R'` and `½S'` diagonals,
//! - the [`WorkerPool`], whose threads stay parked between executes,
//! - a FNV-1a content digest for cache keying ([`plan_digest`]).
//!
//! None of it depends on the initial distribution `π`: by Theorem 3,
//! `π·V⁽ʲ⁾(t) = j!·dʲ·Σ_k w_k(t)·(π·U⁽ʲ⁾(k))` with a `U`-recursion that
//! sees neither `π` nor `t`. So one plan serves every `π` over its
//! generator and rewards, and [`SolvePlan::execute_for`] answers several
//! `π` from one sweep.
//!
//! [`SolvePlan::execute`] then performs only the per-query work: the
//! Theorem-4 truncation search for the *requested* time grid
//! ([`SolvePlan::truncation`]), the Poisson windows, the fused
//! `U`-recursion, and assembly. Crucially the truncation point is
//! recomputed per execute — a plan-wide `G` would keep extra non-zero
//! Poisson weights alive for small times and break the bitwise
//! guarantee below.
//!
//! # Bitwise contract
//!
//! `SolvePlan::build(m, n, c)?.execute_per_state(ts, n)` returns results
//! bit-identical to `moments_sweep(m, n, ts, c)` (which is nowadays a
//! thin wrapper over exactly that), for every matrix format and thread
//! count, on first and on repeated executes.
//!
//! The projected [`SolvePlan::execute`] (π-weighted moments only, no
//! per-state accumulators) sums the same series in a different order, so
//! it matches the per-state path to rounding, not bitwise. Within a
//! kernel variant it is bit-identical across matrix formats, thread
//! counts, and warm or cold plans. `execute_for(&[π_a, π_b], ..)[p]` is
//! bit-identical to `execute` on the plan of `model.with_initial(π_p)`.
//! The verify crate enforces these contracts as oracle arms
//! (`rnd-plan`, `rnd-plan-warm`, `rnd-proj`).

use crate::error::MrmError;
use crate::model::{SecondOrderMrm, DISTRIBUTION_TOLERANCE};
use crate::uniformization::{
    attach_degenerate_report, deterministic_solution, frozen_chain_solution, poisson_accounting,
    pool_section, truncation_point, unshift_moments, unshift_weighted, validate_times, weigh,
    MomentSolution, SolverConfig, SolverStats,
};
use somrm_ctmc::error::validate_distribution;
use somrm_linalg::{
    FootprintBytes, FusedMomentKernel, IterationMatrix, LinalgError, MatrixFormat,
    OperatorMatrix, ResolvedKernel, WorkerPool,
};
use somrm_num::poisson::PoissonWindow;
use somrm_num::special::ln_factorial;
use somrm_num::sum::NeumaierSum;
use somrm_obs::{
    Event, HealthMonitor, MemCategory, MemLedger, PoissonStat, SolveReport,
    SolverSection,
};
use std::f64::consts::LN_2;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// State count above which [`MatrixFormat::Auto`] switches a model
/// that advertises a Kronecker-sum descriptor to the matrix-free
/// operator backend. Below it the materialized formats win (DIA's
/// branch-free strips beat recomputed rows at cache-resident sizes);
/// above it the operator's O(1) matrix memory per state beyond one
/// diagonal dominates. Banded models without a descriptor, the paper's
/// birth–death multiplexer among them, stay on DIA at every size.
pub const OPERATOR_AUTO_THRESHOLD: usize = 500_000;

/// Maps the linalg-level format failures to their typed [`MrmError`]
/// equivalents (anything else would be a solver bug surfacing late).
fn format_error(e: LinalgError) -> MrmError {
    match e {
        LinalgError::AllocationTooLarge {
            what,
            estimated_bytes,
            cap_bytes,
        } => MrmError::AllocationTooLarge {
            what,
            estimated_bytes,
            cap_bytes,
        },
        LinalgError::FormatUnsupported { format, reason } => {
            MrmError::FormatUnsupported { format, reason }
        }
        other => MrmError::InvalidParameter {
            name: "format",
            reason: other.to_string(),
        },
    }
}

/// Picks and builds the iteration matrix of `model` at uniformization
/// rate `q > 0` for `format`; every solver selects through this.
///
/// * `Operator` builds the matrix-free Kronecker-sum operator from the
///   model's descriptor. A model without one gets a typed
///   [`MrmError::FormatUnsupported`], whatever its shape.
/// * `Auto` takes the operator only for a Kronecker-annotated model of
///   at least [`OPERATOR_AUTO_THRESHOLD`] states.
/// * Otherwise the uniformized `Q'` is built straight from the raw
///   generator by [`IterationMatrix::from_generator`]: DIA when the
///   storage rule takes it (forced DIA refusing past
///   [`somrm_linalg::FORCED_DIA_MAX_BYTES`] before allocating), with
///   `Q'` materialized as CSR only when CSR is chosen.
pub(crate) fn resolve_matrix(
    model: &SecondOrderMrm,
    q: f64,
    format: MatrixFormat,
) -> Result<IterationMatrix, MrmError> {
    let generator = model.generator().as_csr();
    if let Some(structure) = model.structure() {
        let auto_operator =
            format == MatrixFormat::Auto && model.n_states() >= OPERATOR_AUTO_THRESHOLD;
        if format == MatrixFormat::Operator || auto_operator {
            let op =
                OperatorMatrix::from_structure(structure, generator, q).map_err(format_error)?;
            return Ok(IterationMatrix::Operator(op));
        }
    }
    IterationMatrix::from_generator(generator, q, format).map_err(format_error)
}

/// The `solver.matrix_format` gauge of a resolved matrix: 0 = csr,
/// 1 = dia, 2 = operator.
pub(crate) fn format_gauge(matrix: &IterationMatrix) -> f64 {
    match matrix {
        IterationMatrix::Csr(_) => 0.0,
        IterationMatrix::Dia(_) => 1.0,
        IterationMatrix::Operator(_) => 2.0,
    }
}

/// Running FNV-1a state over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, v: u64) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The hash over everything a [`SolvePlan`] is built from: `n`, the
    /// generator's CSR structure and values, the drifts and the
    /// variances.
    fn plan_inputs(model: &SecondOrderMrm) -> Fnv {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.eat(model.n_states() as u64);
        let (row_ptr, col_idx, values) = model.generator().as_csr().csr_parts();
        for &p in row_ptr {
            h.eat(p as u64);
        }
        for &c in col_idx {
            h.eat(c as u64);
        }
        for &v in values.iter().chain(model.rates()).chain(model.variances()) {
            h.eat(v.to_bits());
        }
        h
    }
}

/// FNV-1a content digest of what a plan depends on — generator, drifts
/// and variances, via the exact bit patterns of the floats — and not of
/// `π`. Two models share it iff one plan serves both (modulo an
/// astronomically unlikely collision), which is what a plan cache
/// needs: a mutated model — one rate nudged, one variance added —
/// changes the digest and misses the cache, while a model differing
/// only in its initial distribution hits.
pub fn plan_digest(model: &SecondOrderMrm) -> u64 {
    Fnv::plan_inputs(model).0
}

/// [`plan_digest`] continued over the initial distribution `π`: the
/// digest of the whole model, for per-model accounting.
pub fn model_digest(model: &SecondOrderMrm) -> u64 {
    let mut h = Fnv::plan_inputs(model);
    for &p in model.initial() {
        h.eat(p.to_bits());
    }
    h.0
}

/// Model- and config-dependent solver state reusable across executes.
///
/// Present only when `q > 0` (a frozen chain never runs the recursion).
/// When the raw `d` is zero the normalized vectors are computed with `d`
/// floored at `f64::MIN_POSITIVE`: an unweighted sweep takes its exact
/// degenerate path and never reads them, while a terminal-weighted sweep
/// (which has no closed form) runs the recursion with that same floored
/// `d` in its truncation and assembly.
#[derive(Debug)]
struct PlanKernel {
    matrix: IterationMatrix,
    r_prime: Vec<f64>,
    s_half: Vec<f64>,
    /// Parked worker threads, spawned once at plan build. `None` for
    /// serial plans. Behind a mutex so `execute(&self)` can hand the
    /// kernel exclusive access while the plan itself is shared (`Arc`).
    pool: Option<Mutex<WorkerPool>>,
}

/// What one [`SolvePlan::sweep`] accumulates.
#[derive(Debug, Clone, Copy)]
enum Sweep<'w> {
    /// Only the π-projected scalars ([`SolvePlan::execute_for`]).
    Projected,
    /// Per-state accumulators from `U⁽⁰⁾(0) = 1`
    /// ([`SolvePlan::execute_per_state`]).
    PerState,
    /// Per-state accumulators from `U⁽⁰⁾(0) = w`
    /// ([`SolvePlan::execute_terminal`]).
    Terminal(&'w [f64]),
}

/// A prepared solve: everything derived from `(model, config)` alone,
/// built once by [`SolvePlan::build`] and executed many times by
/// [`SolvePlan::execute`] / [`SolvePlan::execute_terminal`].
#[derive(Debug)]
pub struct SolvePlan {
    model: SecondOrderMrm,
    digest: u64,
    max_order: usize,
    config: SolverConfig,
    q: f64,
    d: f64,
    shift: f64,
    kernel: Option<PlanKernel>,
    /// Memory ledger: exact per-category bytes + peak RSS. Present only
    /// when the config carries a recorder (disabled-by-default, like
    /// every observability hook); the cheap [`SolvePlan::footprint_bytes`]
    /// accounting the byte-aware plan cache budgets against works with
    /// or without it.
    mem: Option<Arc<MemLedger>>,
}

impl SolvePlan {
    /// Builds a plan for moment queries up to `max_order`.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::InvalidParameter`] when the configuration is
    /// invalid (see [`SolverConfig::validate`]).
    pub fn build(
        model: &SecondOrderMrm,
        max_order: usize,
        config: &SolverConfig,
    ) -> Result<SolvePlan, MrmError> {
        let n_states = model.n_states();
        config.validate(n_states)?;
        let digest = plan_digest(model);
        let q = model.generator().uniformization_rate();
        let shift = model.min_rate().min(0.0);
        let shifted_rates: Vec<f64> = model.rates().iter().map(|&r| r - shift).collect();

        let (d, kernel) = if q == 0.0 {
            (0.0, None)
        } else {
            let max_rate = shifted_rates.iter().copied().fold(0.0, f64::max);
            let max_sigma = model
                .variances()
                .iter()
                .map(|&s| s.sqrt())
                .fold(0.0, f64::max);
            let d = (max_rate / q).max(max_sigma / q.sqrt());
            let dk = if d > 0.0 { d } else { f64::MIN_POSITIVE };
            let rec = &config.recorder;
            let (matrix, r_prime, s_half) = rec.time("solve.setup", || {
                let matrix = resolve_matrix(model, q, config.format)?;
                let r_prime: Vec<f64> = shifted_rates.iter().map(|&r| r / (q * dk)).collect();
                let s_half: Vec<f64> = model
                    .variances()
                    .iter()
                    .map(|&s| 0.5 * s / (q * dk * dk))
                    .collect();
                Ok::<_, MrmError>((matrix, r_prime, s_half))
            })?;
            // Same clamp the fused kernel applies internally, so the
            // pool thread count *is* the chunk count — fixed chunk
            // boundaries keep every execute bit-identical to a cold run.
            let threads = config.effective_threads(n_states).clamp(1, n_states.max(1));
            let pool = (threads > 1).then(|| Mutex::new(WorkerPool::new(threads)));
            (
                d,
                Some(PlanKernel {
                    matrix,
                    r_prime,
                    s_half,
                    pool,
                }),
            )
        };

        let mem = match (&kernel, config.recorder.enabled()) {
            (Some(pk), true) => {
                let rec = &config.recorder;
                let ledger = MemLedger::new();
                let cat = Self::matrix_category(&pk.matrix);
                let matrix_bytes = pk.matrix.footprint_bytes() as u64;
                let plan_bytes =
                    ((pk.r_prime.len() + pk.s_half.len()) * std::mem::size_of::<f64>()) as u64;
                ledger.set(cat, matrix_bytes);
                ledger.set(MemCategory::Plan, plan_bytes);
                ledger.observe_rss();
                rec.gauge_set(cat.gauge_name(), matrix_bytes as f64);
                rec.gauge_set(MemCategory::Plan.gauge_name(), plan_bytes as f64);
                Some(Arc::new(ledger))
            }
            _ => None,
        };

        Ok(SolvePlan {
            model: model.clone(),
            digest,
            max_order,
            config: config.clone(),
            q,
            d,
            shift,
            kernel,
            mem,
        })
    }

    /// The ledger category the resolved iteration matrix accounts under.
    fn matrix_category(matrix: &IterationMatrix) -> MemCategory {
        match matrix {
            IterationMatrix::Csr(_) => MemCategory::MatrixCsr,
            IterationMatrix::Dia(_) => MemCategory::MatrixDia,
            IterationMatrix::Operator(_) => MemCategory::MatrixOperator,
        }
    }

    /// The π-free [`plan_digest`] of the planned model (cache key
    /// material).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Name of the resolved matrix backend (`"csr"`, `"dia"`,
    /// `"operator"`), or `"none"` for a frozen chain with no kernel.
    pub fn matrix_format_name(&self) -> &'static str {
        self.kernel
            .as_ref()
            .map_or("none", |k| k.matrix.format_name())
    }

    /// Highest moment order this plan accepts.
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// Number of states of the planned model.
    pub fn n_states(&self) -> usize {
        self.model.n_states()
    }

    /// Uniformization rate `q` of the planned model.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Normalization constant `d` (raw, i.e. possibly `0.0`).
    pub fn d(&self) -> f64 {
        self.d
    }

    /// Drift shift `ř` applied (0 when all drifts are non-negative).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// The model the plan was built from. Its `π` is the one
    /// [`SolvePlan::execute`] weights with; [`SolvePlan::execute_for`]
    /// takes others.
    pub fn model(&self) -> &SecondOrderMrm {
        &self.model
    }

    /// The configuration the plan was built with.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    fn check_order(&self, order: usize) -> Result<(), MrmError> {
        if order > self.max_order {
            return Err(MrmError::InvalidParameter {
                name: "order",
                reason: format!(
                    "plan was built for orders up to {}, got {order}",
                    self.max_order
                ),
            });
        }
        Ok(())
    }

    fn lock_pool(kernel: &PlanKernel) -> Option<MutexGuard<'_, WorkerPool>> {
        kernel
            .pool
            .as_ref()
            // A panic inside a kernel pass poisons the lock; the pool's
            // epoch protocol re-raises that panic on the next run, so
            // clearing the poison here loses nothing.
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Theorem-4 truncation of a sweep to horizon `t_max` at `order`: the
    /// iteration count `G` and the realized per-order bounds that any
    /// execute whose largest time is `t_max` runs with. Plans that never
    /// run the recursion (`q = 0` or `d = 0`) answer `(0, zeros)`.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::InvalidParameter`] for a negative/non-finite
    /// `t_max` or `order > max_order`, and
    /// [`MrmError::TruncationCapExceeded`] when `G` would pass the
    /// configured iteration cap — exactly the error such an execute
    /// returns.
    pub fn truncation(&self, t_max: f64, order: usize) -> Result<(u64, Vec<f64>), MrmError> {
        self.check_order(order)?;
        validate_times(std::slice::from_ref(&t_max))?;
        if self.q == 0.0 || self.d == 0.0 {
            return Ok((0, vec![0.0; order + 1]));
        }
        truncation_point(self.q * t_max, self.d, order, |_| LN_2, 0, &self.config)
    }

    /// π-weighted moments at several time points in one pass of the
    /// `U`-recursion, *projected*: each pass records only the scalars
    /// `c⁽ʲ⁾(k) = π·U⁽ʲ⁾(k)`, and `π·V⁽ʲ⁾(t) = j!·dʲ·Σ_k w_k(t)·c⁽ʲ⁾(k)`
    /// is summed per time point in `times × (order+1)` compensated
    /// scalars — no per-state accumulators. The returned solutions carry
    /// `weighted` only; their `per_state` is empty (use
    /// [`SolvePlan::execute_per_state`] for conditional moments).
    ///
    /// `weighted` agrees with the per-state path to rounding, not
    /// bitwise, and is bit-identical across storage formats, thread
    /// counts, and warm or cold plans within a kernel variant. This is
    /// [`SolvePlan::execute_for`] with the plan model's own `π`.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::InvalidParameter`] for a negative/non-finite
    /// time or `order > max_order`, and
    /// [`MrmError::TruncationCapExceeded`] if the iteration cap is
    /// exceeded.
    pub fn execute(&self, times: &[f64], order: usize) -> Result<Vec<MomentSolution>, MrmError> {
        let mut out = self.execute_for(&[self.model.initial()], times, order)?;
        Ok(out.remove(0))
    }

    /// [`SolvePlan::execute`] for several initial distributions at once:
    /// `result[p][ti]` holds the moments under `initials[p]` at
    /// `times[ti]`. The recursion runs once; each extra `π` costs one
    /// more dot per row block and order per pass. `result[p]` is
    /// bit-identical to `execute` on a plan of
    /// `model.with_initial(initials[p])` over the same grid and order.
    ///
    /// # Errors
    ///
    /// As [`SolvePlan::execute`], plus [`MrmError::DimensionMismatch`]
    /// for a `π` of the wrong length and [`MrmError::Ctmc`] for one that
    /// is not a distribution (the model's own check: finite entries,
    /// none below `-1e-9`, total mass 1).
    pub fn execute_for(
        &self,
        initials: &[&[f64]],
        times: &[f64],
        order: usize,
    ) -> Result<Vec<Vec<MomentSolution>>, MrmError> {
        for pi in initials {
            if pi.len() != self.n_states() {
                return Err(MrmError::DimensionMismatch {
                    what: "initial distribution",
                    expected: self.n_states(),
                    actual: pi.len(),
                });
            }
            validate_distribution(pi, DISTRIBUTION_TOLERANCE)?;
        }
        self.sweep(initials, times, order, Sweep::Projected)
    }

    /// Moments at several time points in one pass of the `U`-recursion,
    /// per initial state (`per_state[j][i] = E[Bʲ(t) | Z(0) = i]`) and
    /// π-weighted — the per-query half of
    /// [`crate::uniformization::moments_sweep`], bit-identical to a cold
    /// call. Costs `times·(order+1)·n` compensated accumulators on top of
    /// [`SolvePlan::execute`].
    ///
    /// # Errors
    ///
    /// Same as [`SolvePlan::execute`].
    pub fn execute_per_state(
        &self,
        times: &[f64],
        order: usize,
    ) -> Result<Vec<MomentSolution>, MrmError> {
        let mut out = self.sweep(&[self.model.initial()], times, order, Sweep::PerState)?;
        Ok(out.remove(0))
    }

    /// Terminal-weighted moments `E[Bⁿ(t)·w_{Z(t)} | Z(0) = i]` — the
    /// per-query half of [`crate::terminal::moments_terminal_weighted`],
    /// bit-identical to a cold call. This is the per-state sweep at one
    /// time point with `U⁽⁰⁾(0) = w`, so `w = 1` reproduces
    /// [`SolvePlan::execute_per_state`] bit for bit whenever `d > 0`.
    ///
    /// # Errors
    ///
    /// Same as [`SolvePlan::execute`], plus the length/validity checks
    /// on `terminal_weights`.
    pub fn execute_terminal(
        &self,
        t: f64,
        terminal_weights: &[f64],
        order: usize,
    ) -> Result<MomentSolution, MrmError> {
        self.check_order(order)?;
        let n_states = self.n_states();
        if terminal_weights.len() != n_states {
            return Err(MrmError::DimensionMismatch {
                what: "terminal weight vector",
                expected: n_states,
                actual: terminal_weights.len(),
            });
        }
        for (i, &w) in terminal_weights.iter().enumerate() {
            if !(w >= 0.0) || !w.is_finite() {
                return Err(MrmError::InvalidParameter {
                    name: "terminal_weights",
                    reason: format!("weight of state {i} is {w}"),
                });
            }
        }
        let mode = Sweep::Terminal(terminal_weights);
        let mut out = self.sweep(&[self.model.initial()], &[t], order, mode)?;
        Ok(out.remove(0).remove(0))
    }

    /// The one uniformization driver behind every execute. Returns one
    /// solution vector per `π` (`mode` other than
    /// [`Sweep::Projected`] takes exactly one).
    fn sweep(
        &self,
        initials: &[&[f64]],
        times: &[f64],
        order: usize,
        mode: Sweep<'_>,
    ) -> Result<Vec<Vec<MomentSolution>>, MrmError> {
        self.check_order(order)?;
        validate_times(times)?;
        if times.is_empty() || initials.is_empty() {
            return Ok(initials.iter().map(|_| Vec::new()).collect());
        }
        let model = &self.model;
        let config = &self.config;
        let rec = &config.recorder;
        let (projected, weights) = match mode {
            Sweep::Projected => (true, None),
            Sweep::PerState => (false, None),
            Sweep::Terminal(w) => (false, Some(w)),
        };
        let (span, command) = match weights {
            Some(_) => ("plan.execute_terminal", "terminal"),
            None => ("plan.execute", "moments"),
        };
        // The outer execute span covers every path (degenerate ones
        // included): serve-side cost attribution needs the full
        // per-query wall time, not just the recursion.
        let _execute = rec.span(span);
        rec.counter_add("plan.executes", 1);
        let n_states = model.n_states();
        let (n_times, order1) = (times.len(), order + 1);
        let (q, d, shift) = (self.q, self.d, self.shift);
        let ev = &config.events;
        if ev.enabled() {
            ev.emit(&Event::SolveStart {
                order: order as u64,
                n_states: n_states as u64,
                n_times: n_times as u64,
            });
        }

        if q == 0.0 || (d == 0.0 && weights.is_none()) {
            // Exact paths, no recursion: per-state moments once per
            // time, weighted per π. (`d = 0` moments are deterministic,
            // `(řt)ʲ` whatever the distribution; terminal weights run
            // the recursion instead.) A frozen chain keeps its state,
            // so `w_{Z(t)} = w_{Z(0)}` scales the per-state moments.
            let base: Vec<MomentSolution> = times
                .iter()
                .map(|&t| {
                    if q == 0.0 {
                        let mut s = frozen_chain_solution(model, order, t);
                        if let Some(w) = weights {
                            for m in &mut s.per_state {
                                for (v, &wi) in m.iter_mut().zip(w) {
                                    *v *= wi;
                                }
                            }
                        }
                        s
                    } else {
                        deterministic_solution(model, order, t, shift)
                    }
                })
                .collect();
            let (report_q, report_shift) = if q == 0.0 { (0.0, 0.0) } else { (q, shift) };
            let out = initials
                .iter()
                .map(|pi| {
                    let mut solutions: Vec<MomentSolution> = base
                        .iter()
                        .map(|s| {
                            let mut s = s.clone();
                            if q == 0.0 {
                                s.weighted = weigh(&s.per_state, pi);
                            }
                            if projected {
                                s.per_state = Vec::new();
                            }
                            s
                        })
                        .collect();
                    attach_degenerate_report(
                        &mut solutions,
                        model,
                        config,
                        order,
                        report_q,
                        0.0,
                        report_shift,
                    );
                    solutions
                })
                .collect();
            if ev.enabled() {
                ev.emit(&Event::Complete {
                    g: 0,
                    error_bound: 0.0,
                });
            }
            return Ok(out);
        }
        // Only a terminal sweep gets here with `d = 0`: it runs with the
        // floor the plan's normalized vectors were built with.
        let d = if d > 0.0 { d } else { f64::MIN_POSITIVE };
        let pk = self.kernel.as_ref().expect("kernel built whenever q > 0");
        let matrix = &pk.matrix;
        let variant = config.kernel.resolve();
        if ev.enabled() {
            ev.emit(&Event::PlanResolved {
                format: matrix.format_name().to_string(),
                n_states: n_states as u64,
                matrix_bytes: matrix.footprint_bytes() as u64,
                plan_bytes: ((pk.r_prime.len() + pk.s_half.len()) * std::mem::size_of::<f64>())
                    as u64,
                q,
                d,
                shift,
            });
        }

        let t_max = times.iter().copied().fold(0.0, f64::max);
        let qt = q * t_max;
        // Theorem 4's front constant: 2, times max(1, ‖w‖∞) under
        // terminal weights (Lemma 2 bounds the coefficients by ‖w‖∞).
        let ln_c =
            LN_2 + weights.map_or(0.0, |w| w.iter().copied().fold(0.0, f64::max).max(1.0).ln());
        let (g_limit, error_bounds) = rec.time("solve.truncation", || {
            truncation_point(qt, d, order, |_| ln_c, 0, config)
        })?;
        let error_bound = error_bounds.iter().copied().fold(0.0, f64::max);
        if ev.enabled() {
            ev.emit(&Event::Truncation {
                qt,
                g: g_limit,
                error_bounds: error_bounds.clone(),
            });
        }
        if rec.enabled() {
            rec.gauge_set("solver.q", q);
            rec.gauge_set("solver.d", d);
            rec.gauge_set("solver.qt", qt);
            rec.gauge_set("solver.shift", shift);
            rec.gauge_set("solver.g", g_limit as f64);
            rec.gauge_set("solver.error_bound", error_bound);
            rec.gauge_set("solver.matrix_format", format_gauge(matrix));
            rec.gauge_set("solver.bandwidth", matrix.bandwidth() as f64);
            rec.gauge_set(
                "solver.kernel_variant",
                if variant == ResolvedKernel::Simd { 1.0 } else { 0.0 },
            );
        }

        let windows: Vec<Option<PoissonWindow>> = rec.time("solve.poisson", || {
            times
                .iter()
                .map(|&t| {
                    if t == 0.0 {
                        None
                    } else {
                        Some(PoissonWindow::exact(q * t, g_limit))
                    }
                })
                .collect()
        });
        let poisson_stats: Vec<PoissonStat> = if rec.enabled() {
            let stats = poisson_accounting(times, &windows, g_limit);
            let kept: u64 = stats.iter().map(|p| p.weights_kept).sum();
            let trimmed: u64 = stats.iter().map(|p| p.weights_trimmed).sum();
            let left_skipped: u64 = stats.iter().map(|p| p.weights_left_skipped).sum();
            rec.counter_add("poisson.weights_kept", kept);
            rec.counter_add("poisson.weights_trimmed", trimmed);
            rec.counter_add("poisson.weights_left_skipped", left_skipped);
            stats
        } else {
            Vec::new()
        };

        let u0 = weights.map_or_else(|| vec![1.0; n_states], <[f64]>::to_vec);
        let mut pool_guard = Self::lock_pool(pk);
        let mut kernel = FusedMomentKernel::with_pool(
            matrix,
            &pk.r_prime,
            &pk.s_half,
            order,
            if projected { 0 } else { n_times },
            &u0,
            pool_guard.as_deref_mut(),
        );
        kernel.set_variant(variant);
        kernel.set_recorder(rec.clone());
        let record_kernel_bytes = |kernel: &FusedMomentKernel| {
            if let Some(ledger) = &self.mem {
                let kernel_bytes = kernel.footprint_bytes() as u64;
                ledger.set(MemCategory::KernelBuffers, kernel_bytes);
                rec.gauge_set(MemCategory::KernelBuffers.gauge_name(), kernel_bytes as f64);
            }
        };
        record_kernel_bytes(&kernel);
        // Projected: `sums[(p·times + ti)·(order+1) + j]` accumulates
        // Σ_k w_k·c_p⁽ʲ⁾(k) for `π_p`. The π are attached at the first
        // iteration any time point weighs (the leftmost Poisson window
        // edge); the passes before it only advance.
        let sums_len = if projected {
            initials.len() * n_times * order1
        } else {
            0
        };
        let mut sums = vec![NeumaierSum::new(); sums_len];
        let project_from = windows
            .iter()
            .flatten()
            .map(PoissonWindow::left)
            .min()
            .filter(|_| projected);
        // The monitor also feeds the event log's health records, so it
        // runs whenever either sink is attached (it only reads).
        let mut health =
            (rec.enabled() || ev.enabled()).then(|| HealthMonitor::new(g_limit, order));
        // Progress events fire every ~5% of G (stride floor 1) plus the
        // final iteration; the ETA is read off a wall clock only when a
        // record is actually emitted, so the recursion arithmetic is
        // untouched — bit-identity holds with the log on.
        let ev_progress = ev
            .enabled()
            .then(|| (Instant::now(), (g_limit / 20).max(1)));
        {
            let _recursion = rec.span("solve.recursion");
            let mut active: Vec<(usize, f64)> = Vec::with_capacity(times.len());
            for k in 0..=g_limit {
                active.clear();
                for (ti, w) in windows.iter().enumerate() {
                    let wk = w.as_ref().map_or(0.0, |w| w.weight(k));
                    if wk > 0.0 {
                        active.push((ti, wk));
                    }
                }
                if projected {
                    if project_from == Some(k) {
                        kernel.set_projections(initials);
                        record_kernel_bytes(&kernel);
                    }
                    // `projected(p)` is π_p·U(k) here; the step advances
                    // it to π_p·U(k+1).
                    for &(ti, wk) in &active {
                        for p in 0..initials.len() {
                            let c = kernel.projected(p);
                            let cell = (p * n_times + ti) * order1;
                            for (sum, &cj) in sums[cell..cell + order1].iter_mut().zip(c) {
                                sum.add(wk * cj);
                            }
                        }
                    }
                    kernel.step(&[], k < g_limit);
                } else {
                    kernel.step(&active, k < g_limit);
                }
                if let Some(h) = health.as_mut() {
                    if h.should_sample(k, g_limit) {
                        for j in 0..=order {
                            h.observe_order(j, kernel.u_order(j));
                        }
                        if ev.enabled() {
                            ev.emit(&Event::Health {
                                k,
                                g: g_limit,
                                u0_mass: h.u0_mass_last(),
                                anomalies: h.anomalies(),
                            });
                        }
                    }
                }
                if let Some((start, stride)) = &ev_progress {
                    if k % stride == 0 || k == g_limit {
                        let elapsed = start.elapsed().as_secs_f64();
                        let eta_s = (k > 0)
                            .then(|| elapsed * (g_limit - k) as f64 / k as f64);
                        ev.emit(&Event::Progress {
                            k,
                            g: g_limit,
                            percent: 100.0 * k as f64 / g_limit.max(1) as f64,
                            eta_s,
                        });
                    }
                }
            }
        }
        if let Some(ledger) = &self.mem {
            ledger.observe_rss();
        }
        if let Some(h) = health.as_mut() {
            if projected {
                for a in &sums {
                    h.observe_compensation(a.raw_sum(), a.compensation());
                }
            } else {
                for ti in 0..n_times {
                    for j in 0..=order {
                        for a in kernel.accumulated(ti, j) {
                            h.observe_compensation(a.raw_sum(), a.compensation());
                        }
                    }
                }
            }
        }

        let stats = SolverStats {
            q,
            d,
            shift,
            iterations: g_limit,
            error_bound,
        };
        // `V⁽ʲ⁾ = j!·dʲ·Σ_k w_k·U⁽ʲ⁾(k)`: the per-order scale of Theorem 3.
        let scales: Vec<f64> = (0..=order)
            .map(|j| (ln_factorial(j as u64) + j as f64 * d.ln()).exp())
            .collect();
        let mut solutions: Vec<Vec<MomentSolution>> = rec.time("solve.assemble", || {
            initials
                .iter()
                .enumerate()
                .map(|(p, pi)| {
                    times
                        .iter()
                        .enumerate()
                        .map(|(ti, &t)| {
                            let (per_state, weighted) = if projected {
                                let cell = (p * n_times + ti) * order1;
                                let sums = &sums[cell..cell + order1];
                                (Vec::new(), self.assemble_projected(sums, pi, &scales, t))
                            } else {
                                self.assemble_per_state(&kernel, ti, pi, &u0, &scales, t)
                            };
                            MomentSolution {
                                t,
                                per_state,
                                weighted,
                                stats,
                                error_bounds: error_bounds.clone(),
                                report: None,
                            }
                        })
                        .collect()
                })
                .collect()
        });
        if rec.enabled() {
            let health_section = health.map(|h| h.finish(rec));
            let report = Arc::new(SolveReport {
                command: command.to_string(),
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
                    n_times,
                    threads: kernel.threads(),
                    kernel_variant: variant.name().to_string(),
                    error_bound,
                    error_bounds,
                    poisson: poisson_stats,
                }),
                pool: kernel.pool_stats().map(pool_section),
                health: health_section,
                mem: self.mem.as_ref().map(|l| l.section()),
                metrics: rec.snapshot().unwrap_or_default(),
            });
            for s in solutions.iter_mut().flatten() {
                s.report = Some(Arc::clone(&report));
            }
        }
        if ev.enabled() {
            ev.emit(&Event::Complete {
                g: g_limit,
                error_bound,
            });
        }
        Ok(solutions)
    }

    /// `π·V⁽ʲ⁾(t)` for `j = 0 ..= order` from the projected sums
    /// `Σ_k w_k·c⁽ʲ⁾(k)` of one `(π, t)` cell and the per-order
    /// `scales[j] = j!·dʲ`.
    fn assemble_projected(
        &self,
        sums: &[NeumaierSum],
        pi: &[f64],
        scales: &[f64],
        t: f64,
    ) -> Vec<f64> {
        if t == 0.0 {
            // Same arithmetic as weighting the per-state δ-moments.
            return (0..sums.len())
                .map(|j| {
                    let v = if j == 0 { 1.0 } else { 0.0 };
                    pi.iter().map(|&p| v * p).sum()
                })
                .collect();
        }
        let shifted: Vec<f64> = sums
            .iter()
            .zip(scales)
            .map(|(a, &scale)| scale * a.value())
            .collect();
        unshift_weighted(&shifted, self.shift, t)
    }

    /// Per-state moments at time index `ti` from the kernel's
    /// accumulators (seeded with `U⁽⁰⁾(0) = u0`) and the per-order
    /// `scales[j] = j!·dʲ`, and their `π`-weighted sums.
    fn assemble_per_state(
        &self,
        kernel: &FusedMomentKernel,
        ti: usize,
        pi: &[f64],
        u0: &[f64],
        scales: &[f64],
        t: f64,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let shifted_moments: Vec<Vec<f64>> = if t == 0.0 {
            (0..scales.len())
                .map(|j| {
                    if j == 0 {
                        u0.to_vec()
                    } else {
                        vec![0.0; u0.len()]
                    }
                })
                .collect()
        } else {
            scales
                .iter()
                .enumerate()
                .map(|(j, &scale)| {
                    kernel
                        .accumulated(ti, j)
                        .iter()
                        .map(|a| scale * a.value())
                        .collect()
                })
                .collect()
        };
        let per_state = unshift_moments(&shifted_moments, self.shift, t);
        let weighted = weigh(&per_state, pi);
        (per_state, weighted)
    }

    /// Exact resident bytes of the plan's owned solver state: the
    /// iteration matrix (via `FootprintBytes`) plus the normalized
    /// `R'`/`½S'` diagonals. Frozen-chain plans (no kernel) report 0 —
    /// they hold no solver allocations beyond the model itself. This is
    /// the number the byte-aware serve `PlanCache` budgets against.
    pub fn footprint_bytes(&self) -> usize {
        self.kernel.as_ref().map_or(0, |k| {
            k.matrix.footprint_bytes()
                + (k.r_prime.len() + k.s_half.len()) * std::mem::size_of::<f64>()
        })
    }

    /// Exact owned bytes of just the iteration matrix (0 for frozen
    /// chains).
    pub fn matrix_bytes(&self) -> usize {
        self.kernel.as_ref().map_or(0, |k| k.matrix.footprint_bytes())
    }

    /// The plan's memory ledger, when the build config carried a
    /// recorder.
    pub fn mem_ledger(&self) -> Option<&Arc<MemLedger>> {
        self.mem.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformization::{moments, moments_sweep};
    use somrm_ctmc::generator::GeneratorBuilder;

    fn chain(n: usize) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(n);
        for i in 0..n - 1 {
            b.rate(i, i + 1, 1.5).unwrap();
            b.rate(i + 1, i, 2.0).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let rates: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let variances: Vec<f64> = (0..n).map(|i| 0.1 + i as f64 / n as f64).collect();
        SecondOrderMrm::new(b.build().unwrap(), rates, variances, init).unwrap()
    }

    /// A 2×3 Kronecker-sum chain (6 states) carrying its descriptor, so
    /// the matrix-free operator can run it.
    fn kron6() -> SecondOrderMrm {
        let f0 = somrm_linalg::Mat::from_rows(&[&[0.0, 1.5][..], &[0.75, 0.0][..]]).unwrap();
        let f1 = somrm_linalg::Mat::from_rows(&[
            &[0.0, 2.0, 0.0][..],
            &[1.25, 0.0, 1.5][..],
            &[0.0, 0.5, 0.0][..],
        ])
        .unwrap();
        // Each state's moves: the outer factor flips its digit (stride
        // 3), the inner one steps its digit (stride 1).
        let mut b = GeneratorBuilder::new(6);
        for i in 0..6 {
            let (j0, j1) = (i / 3, i % 3);
            b.rate(i, (1 - j0) * 3 + j1, f0[(j0, 1 - j0)]).unwrap();
            for c in (0..3).filter(|&c| c != j1 && f1[(j1, c)] > 0.0) {
                b.rate(i, j0 * 3 + c, f1[(j1, c)]).unwrap();
            }
        }
        let m = chain(6);
        SecondOrderMrm::new(
            b.build().unwrap(),
            m.rates().to_vec(),
            m.variances().to_vec(),
            m.initial().to_vec(),
        )
        .unwrap()
        .with_structure(crate::ModelStructure::KroneckerSum {
            factors: vec![f0, f1],
        })
        .unwrap()
    }

    /// Every format a model can run: the operator only with a
    /// Kronecker descriptor.
    fn formats_of(m: &SecondOrderMrm) -> Vec<MatrixFormat> {
        let mut formats = vec![MatrixFormat::Csr, MatrixFormat::Dia];
        if m.structure().is_some() {
            formats.push(MatrixFormat::Operator);
        }
        formats
    }

    #[test]
    fn digest_changes_with_any_parameter() {
        let m = chain(4);
        let base = model_digest(&m);
        assert_eq!(base, model_digest(&chain(4)), "digest is deterministic");
        let mut rates = m.rates().to_vec();
        rates[2] += 1e-12;
        let mutated = SecondOrderMrm::new(
            m.generator().clone(),
            rates,
            m.variances().to_vec(),
            m.initial().to_vec(),
        )
        .unwrap();
        assert_ne!(base, model_digest(&mutated), "1-ulp rate change must re-key");
        let redistributed = m.clone().with_initial(vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        assert_ne!(base, model_digest(&redistributed));
        // The plan digest covers everything but π.
        assert_eq!(plan_digest(&m), plan_digest(&redistributed));
        assert_ne!(plan_digest(&m), plan_digest(&mutated));
        assert_eq!(
            SolvePlan::build(&redistributed, 1, &SolverConfig::default())
                .unwrap()
                .digest(),
            plan_digest(&m)
        );
    }

    /// `execute_for` over `pis` against one cold plan per π.
    fn assert_execute_for_matches_cold_plans(
        m: &SecondOrderMrm,
        pis: &[Vec<f64>],
        times: &[f64],
        config: &SolverConfig,
    ) {
        let plan = SolvePlan::build(m, 3, config).unwrap();
        let refs: Vec<&[f64]> = pis.iter().map(Vec::as_slice).collect();
        let multi = plan.execute_for(&refs, times, 3).unwrap();
        assert_eq!(multi.len(), pis.len());
        for (p, pi) in pis.iter().enumerate() {
            let own = m.with_initial(pi.clone()).unwrap();
            let cold = SolvePlan::build(&own, 3, config)
                .unwrap()
                .execute(times, 3)
                .unwrap();
            assert_eq!(multi[p].len(), times.len());
            for (a, b) in multi[p].iter().zip(&cold) {
                assert_eq!(a.t, b.t);
                assert_eq!(a.weighted, b.weighted, "π {p} t {}", a.t);
                assert_eq!(a.error_bounds, b.error_bounds);
                assert_eq!(a.stats.iterations, b.stats.iterations);
                assert!(a.per_state.is_empty());
            }
        }
    }

    #[test]
    fn execute_for_matches_cold_plans_of_each_initial_distribution() {
        let times = [0.0, 0.3, 1.7];
        for m in [chain(6), kron6()] {
            let pis = vec![
                vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                vec![1.0 / 6.0; 6],
                m.initial().to_vec(),
            ];
            for format in formats_of(&m) {
                for threads in [1, 2, 4] {
                    let config = SolverConfig {
                        format,
                        threads,
                        parallel_threshold: 0,
                        ..SolverConfig::default()
                    };
                    assert_execute_for_matches_cold_plans(&m, &pis, &times, &config);
                }
            }
        }
        // The degenerate paths weight with the given π too: a frozen
        // chain (q = 0), and a chain whose drifts and variances are all
        // zero after the shift (d = 0).
        let frozen = SecondOrderMrm::new(
            GeneratorBuilder::new(2).build().unwrap(),
            vec![1.0, -1.0],
            vec![0.5, 0.0],
            vec![0.5, 0.5],
        )
        .unwrap();
        let cfg = SolverConfig::default();
        let pis = vec![vec![1.0, 0.0], vec![0.25, 0.75]];
        assert_execute_for_matches_cold_plans(&frozen, &pis, &[0.0, 1.0], &cfg);
        let flat = SecondOrderMrm::new(
            chain(3).generator().clone(),
            vec![-0.5; 3],
            vec![0.0; 3],
            vec![1.0, 0.0, 0.0],
        )
        .unwrap();
        assert_eq!(SolvePlan::build(&flat, 1, &cfg).unwrap().d(), 0.0);
        let pis = vec![vec![0.0, 0.0, 1.0], vec![0.5, 0.5, 0.0]];
        assert_execute_for_matches_cold_plans(&flat, &pis, &[0.6], &cfg);
    }

    #[test]
    fn execute_for_validates_every_initial_distribution() {
        let plan = SolvePlan::build(&chain(3), 2, &SolverConfig::default()).unwrap();
        let ok = [1.0, 0.0, 0.0];
        let cases: [&[f64]; 4] = [
            &[1.0, 0.0],
            &[0.5, f64::NAN, 0.5],
            &[1.5, -0.5, 0.0],
            &[0.5, 0.0, 0.0],
        ];
        for bad in cases {
            assert!(
                plan.execute_for(&[&ok, bad], &[0.5], 2).is_err(),
                "accepted {bad:?}"
            );
        }
        assert!(matches!(
            plan.execute_for(&[&ok, &[1.0]], &[0.5], 2),
            Err(MrmError::DimensionMismatch {
                expected: 3,
                actual: 1,
                ..
            })
        ));
        assert!(plan.execute_for(&[], &[0.5], 2).unwrap().is_empty());
        let none = plan.execute_for(&[&ok, &ok], &[], 2).unwrap();
        assert_eq!(none.len(), 2);
        assert!(none.iter().all(Vec::is_empty));
    }

    #[test]
    fn truncation_is_what_an_execute_runs() {
        let plan = SolvePlan::build(&chain(4), 3, &SolverConfig::default()).unwrap();
        let sol = plan.execute(&[0.2, 1.4], 2).unwrap();
        let (g, bounds) = plan.truncation(1.4, 2).unwrap();
        assert_eq!(g, sol[0].stats.iterations);
        assert_eq!(bounds, sol[0].error_bounds);
        assert!(plan.truncation(1.4, 4).is_err(), "above max_order");
        assert!(plan.truncation(-1.0, 2).is_err());
        assert!(matches!(
            plan.truncation(1e12, 2),
            Err(MrmError::TruncationCapExceeded { .. })
        ));
    }

    #[test]
    fn warm_executes_are_bitwise_stable() {
        let m = chain(5);
        let plan = SolvePlan::build(&m, 3, &SolverConfig::default()).unwrap();
        let times = [0.2, 0.9];
        let first = plan.execute_per_state(&times, 3).unwrap();
        let second = plan.execute_per_state(&times, 3).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.weighted, b.weighted);
            assert_eq!(a.per_state, b.per_state);
            assert_eq!(a.error_bounds, b.error_bounds);
        }
        // And both match the one-shot API bit-for-bit.
        let cold = moments_sweep(&m, 3, &times, &SolverConfig::default()).unwrap();
        for (a, b) in first.iter().zip(&cold) {
            assert_eq!(a.weighted, b.weighted);
            assert_eq!(a.per_state, b.per_state);
        }
        // The projected path is stable too, and carries no per-state
        // vectors.
        let p1 = plan.execute(&times, 3).unwrap();
        let p2 = plan.execute(&times, 3).unwrap();
        for (a, b) in p1.iter().zip(&p2) {
            assert_eq!(a.weighted, b.weighted);
            assert_eq!(a.error_bounds, b.error_bounds);
            assert!(a.per_state.is_empty());
        }
    }

    #[test]
    fn lower_orders_run_on_a_higher_order_plan() {
        let m = chain(4);
        let plan = SolvePlan::build(&m, 4, &SolverConfig::default()).unwrap();
        let via_plan = plan.execute_per_state(&[0.7], 2).unwrap();
        let cold = moments(&m, 2, 0.7, &SolverConfig::default()).unwrap();
        assert_eq!(via_plan[0].weighted, cold.weighted);
        assert_eq!(plan.execute(&[0.7], 2).unwrap()[0].weighted.len(), 3);
        assert!(plan.execute(&[0.7], 5).is_err(), "above max_order");
        assert!(
            plan.execute_per_state(&[0.7], 5).is_err(),
            "above max_order"
        );
    }

    #[test]
    fn degenerate_models_plan_without_a_kernel() {
        let b = GeneratorBuilder::new(2);
        let frozen = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, -1.0],
            vec![0.5, 0.0],
            vec![0.5, 0.5],
        )
        .unwrap();
        let plan = SolvePlan::build(&frozen, 2, &SolverConfig::default()).unwrap();
        assert_eq!(plan.q(), 0.0);
        let sol = plan.execute(&[1.0], 2).unwrap();
        let cold = moments(&frozen, 2, 1.0, &SolverConfig::default()).unwrap();
        assert_eq!(sol[0].weighted, cold.weighted);
        assert!(
            sol[0].per_state.is_empty(),
            "execute never returns per-state vectors"
        );
        assert_eq!(
            plan.execute_per_state(&[1.0], 2).unwrap()[0].per_state,
            cold.per_state
        );
    }

    #[test]
    fn terminal_degenerate_paths_answer_per_state() {
        // A frozen chain (q = 0) and a zero horizon both take the
        // w_{Z(t)} = w_{Z(0)} shortcut, which weights per-state moments.
        let b = GeneratorBuilder::new(2);
        let frozen = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, -1.0],
            vec![0.5, 0.0],
            vec![0.5, 0.5],
        )
        .unwrap();
        let w = [2.0, 0.5];
        let plan = SolvePlan::build(&frozen, 2, &SolverConfig::default()).unwrap();
        let sol = plan.execute_terminal(1.0, &w, 2).unwrap();
        let plain = moments(&frozen, 2, 1.0, &SolverConfig::default()).unwrap();
        for n in 0..=2 {
            for i in 0..2 {
                assert_eq!(sol.per_state[n][i], plain.per_state[n][i] * w[i]);
            }
        }
        assert_eq!(sol.weighted[0], 0.5 * 2.0 + 0.5 * 0.5);

        let m = chain(3);
        let w = [1.0, 0.0, 3.0];
        let plan = SolvePlan::build(&m, 2, &SolverConfig::default()).unwrap();
        let sol = plan.execute_terminal(0.0, &w, 2).unwrap();
        assert_eq!(sol.per_state[0], w.to_vec());
        assert_eq!(sol.per_state[1], vec![0.0; 3]);
        assert_eq!(sol.weighted, vec![1.0, 0.0, 0.0], "π = δ₀ and w₀ = 1");
    }

    #[test]
    fn execute_records_plan_level_telemetry() {
        use somrm_obs::{MetricsRegistry, RecorderHandle};
        let m = chain(3);
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let config = SolverConfig {
            recorder: RecorderHandle::new(reg.clone()),
            ..SolverConfig::default()
        };
        let plan = SolvePlan::build(&m, 2, &config).unwrap();
        plan.execute(&[0.5], 2).unwrap();
        plan.execute(&[0.5, 1.0], 2).unwrap();
        plan.execute_terminal(0.5, &[1.0, 0.0, 1.0], 2).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("plan.executes"), Some(3));
        assert_eq!(snap.timing("plan.execute").map(|t| t.count), Some(2));
        assert_eq!(snap.timing("plan.execute_terminal").map(|t| t.count), Some(1));
    }

    #[test]
    fn terminal_execute_matches_cold_terminal() {
        use crate::terminal::moments_terminal_weighted;
        let m = chain(3);
        let plan = SolvePlan::build(&m, 2, &SolverConfig::default()).unwrap();
        let w = [1.0, 0.0, 2.0];
        let warm = plan.execute_terminal(0.8, &w, 2).unwrap();
        let cold = moments_terminal_weighted(&m, 2, 0.8, &w, &SolverConfig::default()).unwrap();
        assert_eq!(warm.weighted, cold.weighted);
        assert_eq!(warm.per_state, cold.per_state);
    }

    #[test]
    fn unit_terminal_weights_are_the_per_state_sweep_bitwise() {
        // `execute_terminal` is the per-state sweep seeded with w: at
        // w = 1 it must reproduce `execute_per_state` bit for bit, on
        // every backend and thread count, with and without the drift
        // shift (ř < 0 exercises the shared compensated un-shift).
        let shifted = {
            let m = chain(6);
            let rates: Vec<f64> = m.rates().iter().map(|r| r - 0.4).collect();
            SecondOrderMrm::new(
                m.generator().clone(),
                rates,
                m.variances().to_vec(),
                m.initial().to_vec(),
            )
            .unwrap()
        };
        for m in [chain(6), shifted, kron6()] {
            for format in formats_of(&m) {
                for threads in [1, 2, 4] {
                    let config = SolverConfig {
                        format,
                        threads,
                        parallel_threshold: 0,
                        ..SolverConfig::default()
                    };
                    let plan = SolvePlan::build(&m, 3, &config).unwrap();
                    assert!(plan.d() > 0.0);
                    for t in [0.0, 0.4, 2.5] {
                        let terminal = plan.execute_terminal(t, &[1.0; 6], 3).unwrap();
                        let plain = plan.execute_per_state(&[t], 3).unwrap().remove(0);
                        let shift = plan.shift();
                        let at = format!("shift {shift}, {format:?}, {threads} threads, t {t}");
                        assert_eq!(terminal.per_state, plain.per_state, "{at}");
                        assert_eq!(terminal.weighted, plain.weighted, "{at}");
                        assert_eq!(terminal.error_bounds, plain.error_bounds, "{at}");
                        assert_eq!(terminal.stats, plain.stats, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn operator_plans_match_csr_plans_bitwise() {
        // The Kronecker operator's sweep and terminal results must be
        // bit-identical to the CSR plan's.
        let m = kron6();
        let plan = |format| {
            let config = SolverConfig {
                format,
                ..SolverConfig::default()
            };
            SolvePlan::build(&m, 3, &config).unwrap()
        };
        let (csr, op, auto) = (
            plan(MatrixFormat::Csr),
            plan(MatrixFormat::Operator),
            plan(MatrixFormat::Auto),
        );
        assert_eq!(op.matrix_format_name(), "operator");
        let times = [0.3, 1.1];
        for (a, b) in [
            (
                csr.execute(&times, 3).unwrap(),
                op.execute(&times, 3).unwrap(),
            ),
            (
                csr.execute_per_state(&times, 3).unwrap(),
                op.execute_per_state(&times, 3).unwrap(),
            ),
        ] {
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.weighted, y.weighted);
                assert_eq!(x.per_state, y.per_state);
                assert_eq!(x.error_bounds, y.error_bounds);
            }
        }
        let w = [1.0, 0.0, 0.0, 0.0, 0.0, 2.0];
        let ta = csr.execute_terminal(0.7, &w, 3).unwrap();
        let tb = op.execute_terminal(0.7, &w, 3).unwrap();
        assert_eq!(ta.weighted, tb.weighted);
        assert_eq!(ta.per_state, tb.per_state);
        // Operator plans account the factor blocks (2·2 + 3·3 doubles),
        // the size and stride tables (2 + 2 words) and one diagonal of
        // 6 doubles; below the threshold Auto keeps the descriptor-
        // carrying model on DIA (offsets ±3, ±1 and 0, each padded to
        // 6 doubles), bit for bit the operator's answer.
        assert_eq!(auto.matrix_format_name(), "dia");
        assert_eq!(op.matrix_bytes(), 13 * 8 + 4 * 8 + 6 * 8);
        assert_eq!(
            auto.matrix_bytes(),
            5 * std::mem::size_of::<isize>() + 5 * 6 * 8
        );
        assert!(op.footprint_bytes() < auto.footprint_bytes());
        let a = auto.execute(&[0.9], 2).unwrap();
        let b = op.execute(&[0.9], 2).unwrap();
        assert_eq!(a[0].weighted, b[0].weighted);
    }

    #[test]
    fn forced_operator_without_a_kronecker_descriptor_errors_cleanly() {
        // Neither a tridiagonal chain nor a 4-state model with a
        // (0 -> 2) jump carries a Kronecker descriptor: a typed error,
        // never a panic and never a quiet fall-back to another storage.
        let mut b = GeneratorBuilder::new(4);
        b.rate(0, 2, 1.0).unwrap();
        b.rate(2, 0, 1.0).unwrap();
        b.rate(1, 2, 0.5).unwrap();
        b.rate(3, 2, 0.5).unwrap();
        b.rate(2, 3, 0.5).unwrap();
        let jump = SecondOrderMrm::first_order(
            b.build().unwrap(),
            vec![1.0, 0.0, 2.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
        )
        .unwrap();
        let op_cfg = SolverConfig {
            format: MatrixFormat::Operator,
            ..SolverConfig::default()
        };
        for m in [chain(4), jump] {
            let err = SolvePlan::build(&m, 2, &op_cfg).unwrap_err();
            assert!(
                matches!(err, MrmError::FormatUnsupported { format: "operator", .. }),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn forced_dia_past_the_cap_is_a_typed_error() {
        // 20k states with ~15k populated diagonals: the padded DIA
        // estimate (ndiag * n * 8 bytes) crosses the 2 GiB cap. State 0
        // earns a drift, so the first-order solver runs its own
        // recursion rather than delegating.
        let n = 20_000;
        let mut b = GeneratorBuilder::new(n);
        for k in 1..15_000 {
            b.rate(0, k, 1.0).unwrap();
            b.rate(k, 0, 1.0).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let mut drifts = vec![0.0; n];
        drifts[0] = 1.0;
        let m = SecondOrderMrm::first_order(b.build().unwrap(), drifts, init).unwrap();
        let dia_cfg = SolverConfig {
            format: MatrixFormat::Dia,
            ..SolverConfig::default()
        };
        fn refused<T: std::fmt::Debug>(got: Result<T, MrmError>) {
            match got {
                Err(MrmError::AllocationTooLarge {
                    estimated_bytes,
                    cap_bytes,
                    ..
                }) => {
                    assert!(estimated_bytes > cap_bytes);
                    assert_eq!(cap_bytes, somrm_linalg::FORCED_DIA_MAX_BYTES);
                }
                other => panic!("expected AllocationTooLarge, got {other:?}"),
            }
        }
        refused(SolvePlan::build(&m, 1, &dia_cfg));
        // The impulse and first-order solvers select through the same
        // rule, so they refuse before allocating too.
        let impulses = crate::impulse::ImpulseMrm::new(m.clone(), &[(0, 1, 0.5)]).unwrap();
        refused(crate::impulse::moments_with_impulse(&impulses, 1, 0.5, &dia_cfg));
        refused(crate::first_order::moments_first_order(&m, 1, 0.5, &dia_cfg));
    }

    #[test]
    fn event_log_streams_a_parseable_record_sequence_without_changing_results() {
        use somrm_obs::{Event, EventLogHandle, EventLogRecorder, VecSink};
        let m = chain(5);
        let bare = SolvePlan::build(&m, 2, &SolverConfig::default()).unwrap();
        let sink = VecSink::new();
        let rec = EventLogRecorder::new();
        rec.add_sink(Box::new(sink.clone()));
        let logged_cfg = SolverConfig {
            events: EventLogHandle::new(rec),
            ..SolverConfig::default()
        };
        let logged = SolvePlan::build(&m, 2, &logged_cfg).unwrap();
        let times = [0.4, 1.3];
        let a = bare.execute(&times, 2).unwrap();
        let b = logged.execute(&times, 2).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.weighted, y.weighted, "event log must not perturb results");
        }

        let events = Event::parse_lines(&sink.contents()).expect("strict parse");
        assert!(
            matches!(events[0], Event::SolveStart { n_times: 2, .. }),
            "log opens with solve.start: {:?}",
            events[0]
        );
        let g = match events
            .iter()
            .find_map(|e| match e {
                Event::Truncation { g, .. } => Some(*g),
                _ => None,
            }) {
            Some(g) => g,
            None => panic!("no truncation record"),
        };
        let expected_format = logged.matrix_format_name();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::PlanResolved { format, .. } if format == expected_format)),
            "plan.resolved carries the format"
        );
        assert!(events.iter().any(|e| matches!(e, Event::Health { .. })));
        // Progress ks are strictly increasing and end at G.
        let ks: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Progress { k, .. } => Some(*k),
                _ => None,
            })
            .collect();
        assert!(!ks.is_empty());
        assert!(ks.windows(2).all(|w| w[0] < w[1]), "monotone k: {ks:?}");
        assert_eq!(*ks.last().unwrap(), g, "final progress lands on G");
        assert!(
            matches!(events.last(), Some(Event::Complete { g: cg, .. }) if *cg == g),
            "log closes with complete"
        );

        // Terminal executes stream the same vocabulary.
        let t_sink = VecSink::new();
        let t_rec = EventLogRecorder::new();
        t_rec.add_sink(Box::new(t_sink.clone()));
        let t_cfg = SolverConfig {
            events: EventLogHandle::new(t_rec),
            ..SolverConfig::default()
        };
        let t_plan = SolvePlan::build(&m, 2, &t_cfg).unwrap();
        let w = [1.0, 0.0, 0.0, 0.0, 2.0];
        let warm = t_plan.execute_terminal(0.8, &w, 2).unwrap();
        let cold = bare.execute_terminal(0.8, &w, 2).unwrap();
        assert_eq!(warm.weighted, cold.weighted);
        let t_events = Event::parse_lines(&t_sink.contents()).expect("terminal log parses");
        assert!(matches!(t_events[0], Event::SolveStart { n_times: 1, .. }));
        assert!(matches!(t_events.last(), Some(Event::Complete { .. })));

        let a = bare.execute_per_state(&times, 2).unwrap();
        let b = logged.execute_per_state(&times, 2).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.weighted, y.weighted, "event log must not perturb results");
            assert_eq!(x.per_state, y.per_state);
        }
    }

    #[test]
    fn progress_cadence_covers_at_least_twenty_records_for_large_g() {
        use somrm_obs::{Event, EventLogHandle, EventLogRecorder, VecSink};
        let m = chain(4);
        let sink = VecSink::new();
        let rec = EventLogRecorder::new();
        rec.add_sink(Box::new(sink.clone()));
        let cfg = SolverConfig {
            events: EventLogHandle::new(rec),
            ..SolverConfig::default()
        };
        let plan = SolvePlan::build(&m, 1, &cfg).unwrap();
        // qt large enough that G >> 20.
        plan.execute(&[40.0], 1).unwrap();
        let events = Event::parse_lines(&sink.contents()).unwrap();
        let progress: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::Progress { .. }))
            .collect();
        assert!(
            progress.len() >= 20,
            "expected >= 20 progress records, got {}",
            progress.len()
        );
        for e in &progress {
            if let Event::Progress { k, g, percent, eta_s } = e {
                assert!(k <= g);
                assert!((0.0..=100.0).contains(percent));
                if *k == 0 {
                    assert!(eta_s.is_none(), "no ETA before the first iteration");
                } else {
                    assert!(eta_s.unwrap() >= 0.0);
                }
            }
        }
    }

    #[test]
    fn mem_ledger_tracks_exact_category_bytes_when_recording() {
        use somrm_obs::{MemCategory, MetricsRegistry, RecorderHandle};
        let n = 1_000;
        let m = chain(n);
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let cfg = SolverConfig {
            recorder: RecorderHandle::new(reg.clone()),
            ..SolverConfig::default()
        };
        let plan = SolvePlan::build(&m, 2, &cfg).unwrap();
        let ledger = plan.mem_ledger().expect("recorder-backed plans carry a ledger");
        // chain(n) is tridiagonal: nnz = 3n - 2, CSR row_ptr n + 1.
        let nnz = 3 * n - 2;
        let expected_matrix = match plan.matrix_format_name() {
            "csr" => (n + 1) * 8 + nnz * 8 + nnz * 8,
            "dia" => 3 * std::mem::size_of::<isize>() + 3 * n * 8,
            other => panic!("unexpected format {other}"),
        } as u64;
        let cat = if plan.matrix_format_name() == "csr" {
            MemCategory::MatrixCsr
        } else {
            MemCategory::MatrixDia
        };
        assert_eq!(ledger.current(cat), expected_matrix);
        assert_eq!(plan.matrix_bytes() as u64, expected_matrix);
        assert_eq!(
            ledger.current(MemCategory::Plan),
            (2 * n * 8) as u64,
            "R' and S'/2 diagonals"
        );
        // Kernel buffers appear after an execute, matching the fused
        // kernel's exact footprint, and flow to the recorder gauges. The
        // projected execute holds the U ping-pong pair plus one dot
        // partial per order and 2048-row block; the per-state one adds
        // a compensated accumulator per state, order and time.
        let (order1, n_times) = (3, 2);
        plan.execute_per_state(&[0.5, 0.7], 2).unwrap();
        assert_eq!(
            ledger.current(MemCategory::KernelBuffers),
            (2 * order1 * n * 8 + n_times * order1 * n * 16) as u64
        );
        plan.execute(&[0.5, 0.7], 2).unwrap();
        let kb = ledger.current(MemCategory::KernelBuffers);
        assert_eq!(
            kb,
            (2 * order1 * n * 8 + order1 * n.div_ceil(2048) * 8) as u64
        );
        // Two π in one sweep: one more partial per block and order.
        let uniform = vec![1.0 / n as f64; n];
        plan.execute_for(&[m.initial(), &uniform], &[0.5, 0.7], 2)
            .unwrap();
        assert_eq!(
            ledger.current(MemCategory::KernelBuffers),
            (2 * order1 * n * 8 + 2 * order1 * n.div_ceil(2048) * 8) as u64
        );
        plan.execute(&[0.5, 0.7], 2).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("mem.kernel.buffers"), Some(kb as f64));
        assert_eq!(
            snap.gauge(cat.gauge_name()),
            Some(expected_matrix as f64)
        );
        // The report carries the section, and peak RSS was sampled on
        // linux.
        let sol = plan.execute(&[0.5], 2).unwrap();
        let report = sol[0].report.as_ref().expect("recorder attaches a report");
        let mem = report.mem.as_ref().expect("mem section present");
        assert!(mem.entries.iter().any(|e| e.key == "kernel.buffers" && e.current == kb));
        if cfg!(target_os = "linux") {
            assert!(mem.peak_rss_bytes.unwrap() > 0);
        }
    }

    #[test]
    fn plans_without_a_recorder_carry_no_ledger() {
        let plan = SolvePlan::build(&chain(4), 1, &SolverConfig::default()).unwrap();
        assert!(plan.mem_ledger().is_none());
        assert!(plan.footprint_bytes() > 0, "byte accounting works regardless");
    }

    #[test]
    fn auto_keeps_birth_death_chains_on_dia_at_the_operator_threshold() {
        // A birth-death chain exactly at the threshold carries no
        // Kronecker descriptor: Auto builds its three DIA strips
        // straight from the generator, and the plan holds nothing else.
        let n = OPERATOR_AUTO_THRESHOLD;
        let mut b = GeneratorBuilder::new(n);
        for i in 0..n - 1 {
            b.rate(i, i + 1, 1.0).unwrap();
            b.rate(i + 1, i, 2.0).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let m = SecondOrderMrm::first_order(b.build().unwrap(), vec![0.0; n], init).unwrap();
        let plan = SolvePlan::build(&m, 1, &SolverConfig::default()).unwrap();
        assert_eq!(plan.matrix_format_name(), "dia");
        assert_eq!(
            plan.matrix_bytes(),
            3 * std::mem::size_of::<isize>() + 3 * n * 8
        );
    }
}
