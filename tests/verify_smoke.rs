//! Differential oracle harness tiers.
//!
//! The smoke tier runs on every `cargo test` (small population, tight
//! compute budgets — debug-build fast). The deep tier is `#[ignore]`d
//! and run by the dedicated CI `verify` job in release mode; on failure
//! it writes shrunken reproducers under `target/verify-failures/` for
//! artifact upload (the files belong in `tests/regressions/` once the
//! bug is fixed).

use somrm::verify::{run_verification, VerifyOpts};

#[test]
fn differential_oracle_smoke_tier() {
    let summary = run_verification(&VerifyOpts::smoke(50, 20260805));
    assert!(summary.passed(), "{}", summary.render());
    assert_eq!(summary.cases_run, 50);
    // The bitwise oracles cover every case; the budgeted ones must
    // still cover a healthy share or the tier verifies nothing.
    assert_eq!(summary.dia_checked, 50);
    assert_eq!(summary.pool_checked, 50);
    assert_eq!(summary.plan_checked, 50);
    assert_eq!(summary.proj_checked, 50);
    assert!(
        summary.ode_checked >= 25,
        "ODE budget skipped too much: {}",
        summary.render()
    );
    assert!(
        summary.sim_checked >= 10,
        "sim budget skipped too much: {}",
        summary.render()
    );
}

#[test]
#[ignore = "deep tier: ~500 release-mode cases; run with --ignored (CI verify job)"]
fn differential_oracle_deep_tier() {
    let opts = VerifyOpts {
        cases: 500,
        seed: 4,
        out_dir: Some(std::path::PathBuf::from("target/verify-failures")),
        ..VerifyOpts::default()
    };
    let summary = run_verification(&opts);
    assert!(summary.passed(), "{}", summary.render());
    assert_eq!(summary.ode_checked, 500);
    assert_eq!(summary.proj_checked, 500);
}
