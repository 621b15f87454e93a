//! Machine calibration and fingerprint: the STREAM-triad bandwidth the
//! kernel's computed traffic is compared against, a single-core FMA
//! peak, and what the results were measured on.

use crate::report::Report;
use crate::stats::timed;
use somrm_core::SolverConfig;
use somrm_linalg::simd::{cpu_features, KernelVariant};
use std::hint::black_box;

/// The solver configuration every workload uses: defaults, with the
/// kernel variant pinned so the environment (`SOMRM_KERNEL`) cannot
/// switch kernels between runs.
pub fn solver_config() -> SolverConfig {
    SolverConfig {
        kernel: KernelVariant::Auto,
        ..SolverConfig::default()
    }
}

/// Size in bytes of the largest CPU cache the OS reports (the LLC), or
/// `None` when sysfs does not say.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let path = e.ok()?.path().join("size");
        parse_cache_size(std::fs::read_to_string(path).ok()?.trim())
    })
    .max()
}

/// Parses sysfs cache sizes such as `32K`, `4096K`, `300M`.
fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1u64 << 20),
        'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Records what the run was measured on.
pub fn fingerprint(report: &mut Report) {
    report.info("machine.cpu", cpu_model());
    report.info(
        "machine.nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.info("machine.llc_bytes", llc_bytes().unwrap_or(0));
    report.info("machine.cpu_features", cpu_features());
    report.info("machine.kernel", solver_config().kernel.resolve().name());
}

/// Single-thread STREAM triad `a = b + s·c` over arrays each at least
/// four times the LLC (64 MiB floor when the LLC is unknown). Returns
/// the best pass in GB/s, counting 24 bytes per element (two loads, one
/// store) as STREAM does.
fn triad_gbps(report: &mut Report) -> f64 {
    let llc = llc_bytes().unwrap_or(16 << 20);
    let array_bytes = (4 * llc).max(64 << 20);
    let n = (array_bytes / 8) as usize;
    report.info("machine.triad_array_bytes", n * 8);
    report.info("machine.triad_llc_bytes", llc);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let ((), dt) = timed(|| {
            for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
                *ai = bi + s * ci;
            }
            black_box(&mut a);
        });
        best = best.min(dt);
    }
    assert!(a[n / 2] == 7.0, "triad result");
    24.0 * n as f64 / best / 1e9
}

/// Single-core fused multiply-add peak in GFLOP/s (2 flops per FMA),
/// from independent accumulator chains.
fn fma_gflops() -> f64 {
    const CHAINS: usize = 32;
    const ITERS: usize = 50_000_000;
    let mut acc = [0.0f64; CHAINS];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = i as f64 * 1e-3;
    }
    let x = black_box(0.999_999_9f64);
    let y = black_box(1e-9f64);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let ((), dt) = timed(|| fma_chains(&mut acc, x, y, ITERS));
        best = best.min(dt);
    }
    black_box(acc);
    2.0 * (CHAINS * ITERS) as f64 / best / 1e9
}

fn fma_chains(acc: &mut [f64; 32], x: f64, y: f64, iters: usize) {
    #[cfg(target_arch = "x86_64")]
    if somrm_linalg::simd::fma_available() {
        // SAFETY: `fma_available` checked at run time that the CPU
        // supports the AVX2 and FMA instructions the callee is compiled
        // for.
        unsafe { fma_chains_avx2(acc, x, y, iters) };
        return;
    }
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, y);
        }
    }
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(acc: &mut [f64; 32], x: f64, y: f64, iters: usize) {
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, y);
        }
    }
}

/// The calibration run: both peaks, in a process of
/// its own so the triad arrays do not count towards any workload's
/// peak RSS.
pub fn calibrate() -> Report {
    let mut report = Report::default();
    let triad = triad_gbps(&mut report);
    report.metric("machine.triad_gbps", triad, "GB/s");
    report.metric("machine.fma_gflops", fma_gflops(), "GFLOP/s");
    report.check(triad > 0.0, || "triad bandwidth not positive".to_string());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("32K"), Some(32 << 10));
        assert_eq!(parse_cache_size("300M"), Some(300 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }
}
