//! The somrm benchmark harness: one workload per process.
//!
//! ```text
//! somrm-perfbench run --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
//! somrm-perfbench calibrate
//! somrm-perfbench gen-refs > refs/fig5_moments.txt
//! ```
//!
//! Each run prints one JSON line: `correct`, `attempted`, `failed`,
//! `metrics` (name → value and unit) and `info` (fingerprint, sample
//! counts, first failures). `run.py` builds this binary, starts one
//! process per workload and merges the calibration into traced runs.

mod fig5;
mod kernel;
mod machine;
mod onoff;
mod report;
mod serve_mixed;
mod speed;
mod stats;

use report::Report;
use somrm_core::SolverConfig;
use somrm_obs::{MetricsRegistry, RecorderHandle};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Bytes as MB (10⁶ bytes).
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Current resident set of this process, MB.
pub fn rss_mb() -> f64 {
    somrm_obs::current_rss_bytes().map_or(0.0, |b| b as f64 / 1e6)
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    somrm_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6)
}

/// `config` with a fresh metrics registry attached, and the registry.
pub fn registry_config(config: &SolverConfig) -> (Arc<MetricsRegistry>, SolverConfig) {
    let registry = Arc::new(MetricsRegistry::new());
    let traced = config
        .clone()
        .with_recorder(RecorderHandle::new(registry.clone()));
    (registry, traced)
}

/// The `obs` layer and the execute self time, from a traced section
/// that took `traced_s` and its untraced twin that took `untraced_s`:
/// recorder overhead, how much of the peak RSS the memory ledger's
/// gauges account for, and `plan.execute` time not spent in
/// `kernel.pass`, per execute.
pub fn obs_metrics(
    report: &mut Report,
    registry: &MetricsRegistry,
    traced_s: f64,
    untraced_s: f64,
) {
    let snap = registry.snapshot();
    report.metric(
        "obs.trace_overhead_frac",
        traced_s / untraced_s - 1.0,
        "frac",
    );
    let ledger: f64 = snap
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with("mem."))
        .map(|(_, v)| v)
        .sum();
    let peak = somrm_obs::peak_rss_bytes().unwrap_or(0) as f64;
    report.metric("obs.ledger_cover_frac", ledger / peak, "frac");
    let execute = snap.timing("plan.execute").copied().unwrap_or_default();
    let pass = snap.timing("kernel.pass").copied().unwrap_or_default();
    let self_ns = execute.total_ns.saturating_sub(pass.total_ns) as f64;
    report.metric(
        "core.execute.self_s",
        self_ns / execute.count.max(1) as f64 / 1e9,
        "s",
    );
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it
        .next()
        .ok_or("missing command (run | calibrate | gen-refs)")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".bench_build/perfbench-work"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--work" => args.work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("somrm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.command.as_str(), args.workload.as_str(), args.trace) {
        ("calibrate", _, _) => machine::calibrate(),
        ("gen-refs", _, _) => {
            print!("{}", fig5::generate_refs());
            return ExitCode::SUCCESS;
        }
        ("run", "onoff-2m", false) => onoff::run(args.seed, args.seconds),
        ("run", "onoff-2m", true) => onoff::run_traced(args.seed),
        ("run", "serve-mixed", trace) => {
            serve_mixed::run(args.seed, args.seconds, trace, &args.work)
        }
        ("run", "fig5-bounds", false) => fig5::run(args.seed, args.seconds),
        ("run", "fig5-bounds", true) => fig5::run_traced(args.seed),
        ("run", other, _) => {
            eprintln!("somrm-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
        (other, _, _) => {
            eprintln!("somrm-perfbench: unknown command {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut report = report;
    machine::fingerprint(&mut report);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
