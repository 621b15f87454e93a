//! Seeded random model generation, one structural family per case.
//!
//! Generation is deterministic in `(seed, index)`: each case derives its
//! own [`StdRng`] stream, so case 4711 of seed 4 reproduces bit-for-bit
//! no matter how many cases ran before it — the property that lets a CI
//! failure name just `(seed, index)` and still be replayed locally.

use crate::case::{Family, VerifyCase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs bounding the generated population.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Largest state count (the smallest is always 2; shrinking may go
    /// to 1). The ISSUE range is 2–200.
    pub max_states: usize,
    /// Cap on `q·t`: generated times are clipped so the randomization
    /// truncation point (and the ODE's stable step count) stays within
    /// a per-case compute budget.
    pub max_qt: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_states: 200,
            max_qt: 20_000.0,
        }
    }
}

impl GenConfig {
    /// Smaller population for the debug-mode smoke tier.
    pub fn smoke() -> Self {
        GenConfig {
            max_states: 60,
            max_qt: 2_000.0,
        }
    }
}

/// The per-case RNG stream for `(seed, index)`.
pub fn case_rng(seed: u64, index: u64) -> StdRng {
    // SplitMix-style mix so neighbouring indices land on unrelated
    // xoshiro seeds.
    StdRng::seed_from_u64(
        seed ^ index
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x1234_5678_9abc_def1),
    )
}

/// Generates case `index` of the population defined by `(seed, cfg)`.
/// Families rotate with the index so every run covers all of them.
pub fn random_case(seed: u64, index: u64, cfg: &GenConfig) -> VerifyCase {
    let mut rng = case_rng(seed, index);
    let family = Family::ALL[(index as usize) % Family::ALL.len()];
    let n = pick_states(&mut rng, family, cfg.max_states);
    let transitions = match family {
        Family::BirthDeath => birth_death(&mut rng, n),
        Family::Banded => banded(&mut rng, n),
        Family::Dense => dense(&mut rng, n),
        Family::Stiff => stiff(&mut rng, n),
        Family::Absorbing => absorbing(&mut rng, n),
        // Reward-focused families reuse the generic banded topology.
        Family::ZeroDrift | Family::FirstOrder | Family::MixedSign => banded(&mut rng, n),
    };
    let (drifts, variances) = rewards(&mut rng, family, n);
    let initial = initial_distribution(&mut rng, n);
    let order = 2 + (rng.next_u64() % 3) as usize;
    let t = pick_time(&mut rng, &transitions, n, cfg.max_qt);
    VerifyCase {
        id: format!("case-{index}"),
        family,
        n_states: n,
        transitions,
        drifts,
        variances,
        initial,
        t,
        order,
        note: String::new(),
    }
}

fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.random::<f64>()
}

/// Log-uniform draw on `[lo, hi]` (both positive).
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (uniform(rng, lo.ln(), hi.ln())).exp()
}

fn pick_states(rng: &mut StdRng, family: Family, max_states: usize) -> usize {
    let cap = match family {
        // Dense models cost O(n²) per iteration; stiff ones pay their
        // budget in iteration count instead of width.
        Family::Dense => max_states.min(30),
        Family::Stiff => max_states.min(12),
        _ => max_states,
    };
    // Log-uniform so small, shrink-like models stay common.
    (log_uniform(rng, 2.0, cap as f64).round() as usize).clamp(2, cap)
}

fn birth_death(rng: &mut StdRng, n: usize) -> Vec<(usize, usize, f64)> {
    let mut tr = Vec::with_capacity(2 * n);
    for i in 0..n - 1 {
        tr.push((i, i + 1, uniform(rng, 0.1, 10.0)));
        tr.push((i + 1, i, uniform(rng, 0.1, 10.0)));
    }
    tr
}

fn banded(rng: &mut StdRng, n: usize) -> Vec<(usize, usize, f64)> {
    let bandwidth = 2 + (rng.next_u64() % 3) as usize;
    let mut tr = Vec::new();
    for i in 0..n {
        for off in 1..=bandwidth {
            if i + off < n && rng.random::<f64>() < 0.8 {
                tr.push((i, i + off, uniform(rng, 0.05, 8.0)));
            }
            if i >= off && rng.random::<f64>() < 0.8 {
                tr.push((i, i - off, uniform(rng, 0.05, 8.0)));
            }
        }
    }
    ensure_connected(rng, n, tr)
}

fn dense(rng: &mut StdRng, n: usize) -> Vec<(usize, usize, f64)> {
    let mut tr = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.random::<f64>() < 0.7 {
                tr.push((i, j, uniform(rng, 0.01, 5.0)));
            }
        }
    }
    ensure_connected(rng, n, tr)
}

/// Rate ratios up to 1e6 within one generator.
fn stiff(rng: &mut StdRng, n: usize) -> Vec<(usize, usize, f64)> {
    let mut tr = Vec::with_capacity(2 * n);
    for i in 0..n - 1 {
        tr.push((i, i + 1, log_uniform(rng, 1.0, 1e6)));
        tr.push((i + 1, i, log_uniform(rng, 1.0, 1e6)));
    }
    tr
}

/// Birth-death topology with absorbing rows: each state keeps its exit
/// rates only with probability 1/2, and with probability 1/8 the whole
/// chain is absorbing (`q == 0`, the frozen-chain degenerate path).
fn absorbing(rng: &mut StdRng, n: usize) -> Vec<(usize, usize, f64)> {
    if rng.next_u64().is_multiple_of(8) {
        return Vec::new();
    }
    let mut tr = Vec::new();
    let mut any = false;
    for i in 0..n {
        if rng.random::<f64>() < 0.5 {
            continue; // absorbing row
        }
        any = true;
        if i + 1 < n {
            tr.push((i, i + 1, uniform(rng, 0.1, 10.0)));
        }
        if i > 0 {
            tr.push((i, i - 1, uniform(rng, 0.1, 10.0)));
        }
    }
    if !any && n >= 2 {
        // Keep "some rows live" the common shape; the fully absorbing
        // variant is already produced by the 1/8 branch above.
        tr.push((0, 1, uniform(rng, 0.1, 10.0)));
    }
    tr
}

/// Guarantees at least a forward path through the chain so generated
/// models are not trivially disconnected from their initial mass.
fn ensure_connected(
    rng: &mut StdRng,
    n: usize,
    mut tr: Vec<(usize, usize, f64)>,
) -> Vec<(usize, usize, f64)> {
    for i in 0..n - 1 {
        if !tr.iter().any(|&(a, _, _)| a == i) {
            tr.push((i, i + 1, uniform(rng, 0.1, 2.0)));
        }
    }
    tr
}

fn rewards(rng: &mut StdRng, family: Family, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut drifts = Vec::with_capacity(n);
    let mut variances = Vec::with_capacity(n);
    for _ in 0..n {
        let (r, s2) = match family {
            Family::ZeroDrift => (0.0, log_uniform(rng, 0.01, 10.0)),
            Family::FirstOrder => (uniform(rng, -5.0, 5.0), 0.0),
            Family::MixedSign => (
                uniform(rng, -10.0, 10.0),
                // Half the states first-order-degenerate (σ² = 0).
                if rng.random::<f64>() < 0.5 {
                    0.0
                } else {
                    log_uniform(rng, 0.01, 10.0)
                },
            ),
            _ => (
                uniform(rng, -2.0, 10.0),
                if rng.random::<f64>() < 0.25 {
                    0.0
                } else {
                    log_uniform(rng, 0.01, 10.0)
                },
            ),
        };
        drifts.push(r);
        variances.push(s2);
    }
    (drifts, variances)
}

fn initial_distribution(rng: &mut StdRng, n: usize) -> Vec<f64> {
    if rng.random::<f64>() < 0.3 {
        // Point mass on a random state.
        let mut pi = vec![0.0; n];
        pi[(rng.next_u64() % n as u64) as usize] = 1.0;
        return pi;
    }
    // Exponential draws normalized: a flat Dirichlet sample.
    let raw: Vec<f64> = (0..n)
        .map(|_| -(1.0 - rng.random::<f64>()).ln())
        .collect();
    let total: f64 = raw.iter().sum();
    raw.iter().map(|&x| x / total).collect()
}

fn pick_time(
    rng: &mut StdRng,
    transitions: &[(usize, usize, f64)],
    n: usize,
    max_qt: f64,
) -> f64 {
    // One case in twenty queries t = 0 exactly — the boundary where
    // every backend must return the delta-at-zero moments and where a
    // past accessor bug hid (see tests/regressions/t_zero.json).
    if rng.next_u64().is_multiple_of(20) {
        return 0.0;
    }
    let mut exit = vec![0.0f64; n];
    for &(i, _, r) in transitions {
        exit[i] += r;
    }
    let q = exit.iter().copied().fold(0.0, f64::max);
    let t = log_uniform(rng, 0.05, 2.0);
    if q * t > max_qt {
        max_qt / q
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed_and_index() {
        let cfg = GenConfig::default();
        for index in 0..16 {
            assert_eq!(
                random_case(4, index, &cfg),
                random_case(4, index, &cfg),
                "index {index}"
            );
        }
        assert_ne!(random_case(4, 3, &cfg), random_case(5, 3, &cfg));
    }

    #[test]
    fn all_families_build_valid_models() {
        let cfg = GenConfig::default();
        for index in 0..64u64 {
            let case = random_case(9, index, &cfg);
            let model = case.build().unwrap_or_else(|e| {
                panic!("case {index} ({}) failed to build: {e}", case.family)
            });
            assert!(model.n_states() >= 2);
            assert!(case.t >= 0.0);
            assert!((2..=4).contains(&case.order));
        }
    }

    #[test]
    fn qt_budget_respected() {
        let cfg = GenConfig {
            max_states: 200,
            max_qt: 500.0,
        };
        for index in 0..64u64 {
            let case = random_case(11, index, &cfg);
            let model = case.build().unwrap();
            let qt = model.generator().uniformization_rate() * case.t;
            assert!(qt <= 500.0 * 1.0001, "case {index}: qt = {qt}");
        }
    }

    #[test]
    fn stiff_family_reaches_large_rate_ratios() {
        let cfg = GenConfig::default();
        let mut worst: f64 = 1.0;
        for index in 0..256u64 {
            let case = random_case(2, index, &cfg);
            if case.family != Family::Stiff {
                continue;
            }
            let rates: Vec<f64> = case.transitions.iter().map(|&(_, _, r)| r).collect();
            let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = rates.iter().copied().fold(0.0f64, f64::max);
            worst = worst.max(hi / lo);
        }
        assert!(worst > 1e4, "stiff ratio only reached {worst}");
    }

    #[test]
    fn absorbing_family_sometimes_fully_absorbing() {
        let cfg = GenConfig::default();
        let mut frozen = 0;
        let mut live = 0;
        for index in 0..512u64 {
            let case = random_case(1, index, &cfg);
            if case.family != Family::Absorbing {
                continue;
            }
            if case.transitions.is_empty() {
                frozen += 1;
            } else {
                live += 1;
            }
        }
        assert!(frozen > 0, "never generated a fully absorbing chain");
        assert!(live > 0, "never generated a partially absorbing chain");
    }
}
