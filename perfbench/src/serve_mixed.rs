//! `serve-mixed`: JSON-lines requests through `somrm_serve::serve` over a
//! pipe, the model resolver being the CLI's `resolve_model_spec` wrapped
//! in a timer.
//!
//! Six `model_file` variants of the 2,001-state multiplexer: four
//! tenants differing only in the initial distribution π and two only in
//! σ². Each tenant has its own moment order (two each of 1, 2, 3), and
//! horizons are continuous over `qt ∈ [250, 2000]`, which spans four
//! qt-buckets: 24 plan keys over the server's default 8 cache slots, so
//! hits, misses and evictions happen side by side. The coalescing of a
//! burst and the accumulation of many horizons per sweep dominate.

use crate::kernel;
use crate::machine::solver_config;
use crate::report::Report;
use crate::speed::Paired;
use crate::stats::{
    median, percentile, rounding_allowance, tail, tail_percentile, timed, within, Rng,
};
use crate::{mb, obs_metrics, registry_config, rss_mb};
use somrm_cli::commands::resolve_model_spec;
use somrm_core::uniformization::moments_sweep;
use somrm_core::{MomentSolution, SecondOrderMrm, SolvePlan, SolverConfig};
use somrm_models::OnOffMultiplexer;
use somrm_num::poisson::PoissonWindow;
use somrm_obs::json::{self, Value};
use somrm_obs::{ServeStats, TimingStat};
use somrm_serve::{serve, ModelSpec, ServeOptions, ServeSummary};
use std::collections::HashMap;
use std::io::{PipeWriter, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SOURCES: usize = 2000;
/// Requests in the list; a burst sends all of them at once.
pub const LIST: usize = 96;
/// Open-loop phases: fixed Poisson rates (about a quarter and about 60%
/// of the measured capacity) and their lengths.
const LO_RATE: f64 = 10.0;
const LO_SECONDS: f64 = 10.0;
const HI_RATE: f64 = 24.0;
const HI_SECONDS: f64 = 8.5;
/// Server start-ups per run for `setup_s`; the median is reported.
const SETUPS: usize = 101;
/// How long a phase waits for its last response before counting the
/// rest as missing.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);
const QT_MIN: f64 = 250.0;
const QT_MAX: f64 = 2000.0;

#[derive(Debug, Clone, Copy)]
enum Start {
    Steady,
    AllOff,
    /// All mass on the state with this many sources ON.
    Point(usize),
    Uniform,
}

/// `(initial distribution, σ², moment order, popularity weight)`.
const TENANTS: [(Start, f64, usize, f64); 6] = [
    (Start::Steady, 10.0, 2, 0.30),
    (Start::AllOff, 10.0, 3, 0.22),
    (Start::Point(SOURCES * 3 / 7), 10.0, 1, 0.16),
    (Start::Uniform, 10.0, 2, 0.12),
    (Start::Steady, 1.0, 3, 0.12),
    (Start::Steady, 4.0, 1, 0.08),
];

fn tenant_model(k: usize) -> SecondOrderMrm {
    let (start, sigma2, _, _) = TENANTS[k];
    let m = OnOffMultiplexer {
        variance: sigma2,
        ..OnOffMultiplexer::table2_scaled(SOURCES)
    };
    let n = m.n_states();
    match start {
        Start::Steady => m.model_steady_start(),
        Start::AllOff => m.model(),
        Start::Point(i) => {
            let mut pi = vec![0.0; n];
            pi[i] = 1.0;
            m.model_with_initial(pi)
        }
        Start::Uniform => m.model_with_initial(vec![1.0 / n as f64; n]),
    }
    .expect("multiplexer parameters are valid")
}

/// The model in the CLI's file format (shortest round-trip numbers).
fn model_text(model: &SecondOrderMrm) -> String {
    let n = model.n_states();
    let mut out = format!("states {n}\n");
    let (row_ptr, col_idx, values) = model.generator().as_csr().csr_parts();
    for i in 0..n {
        for k in row_ptr[i]..row_ptr[i + 1] {
            if col_idx[k] != i && values[k] > 0.0 {
                out.push_str(&format!("rate {i} {} {:?}\n", col_idx[k], values[k]));
            }
        }
    }
    for i in 0..n {
        let (r, s) = (model.rates()[i], model.variances()[i]);
        out.push_str(&format!("reward {i} {r:?} {s:?}\n"));
    }
    for (i, &p) in model.initial().iter().enumerate() {
        if p > 0.0 {
            out.push_str(&format!("init {i} {p:?}\n"));
        }
    }
    out
}

/// One request of the list.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub tenant: usize,
    pub qt: f64,
    pub order: usize,
}

/// The seeded request list. Tenant counts follow the popularity weights
/// exactly and each tenant's requests cycle through the four qt-buckets
/// from a seeded offset, with `qt` uniform inside the bucket; only the
/// values and the order depend on the seed, so every seed asks for the
/// same amount of work.
pub fn request_list(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let buckets: [(f64, f64); 4] = [
        (QT_MIN, 256.0),
        (256.0, 512.0),
        (512.0, 1024.0),
        (1024.0, QT_MAX),
    ];
    let mut counts: Vec<usize> = TENANTS
        .iter()
        .map(|t| (t.3 * LIST as f64).round() as usize)
        .collect();
    let total: usize = counts.iter().sum();
    counts[0] = counts[0] + LIST - total;
    let mut list = Vec::with_capacity(LIST);
    for (k, &count) in counts.iter().enumerate() {
        let offset = rng.below(4);
        for i in 0..count {
            let (lo, hi) = buckets[(offset + i) % 4];
            list.push(Request {
                tenant: k,
                qt: lo + (hi - lo) * rng.uniform(),
                order: TENANTS[k].2,
            });
        }
    }
    rng.shuffle(&mut list);
    list
}

/// Seeded Poisson arrival offsets (seconds from the phase start) at
/// `rate` per second over `seconds`.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let mut t = rng.exponential(rate);
    while t < seconds {
        out.push(t);
        t += rng.exponential(rate);
    }
    out
}

/// The inputs of one seed: request list, tenant files, references.
struct Setup {
    list: Vec<Request>,
    paths: Vec<String>,
    models: Vec<SecondOrderMrm>,
    /// Per tenant: `t` bits → the library's solution at that horizon.
    refs: Vec<HashMap<u64, MomentSolution>>,
    q: f64,
}

impl Setup {
    fn new(seed: u64, work: &Path) -> Setup {
        let dir = work.join(format!("serve-mixed-{seed}"));
        std::fs::create_dir_all(&dir).expect("create the work directory");
        let config = solver_config();
        let mut paths = Vec::new();
        let mut models = Vec::new();
        for k in 0..TENANTS.len() {
            let path = dir.join(format!("tenant{k}.somrm"));
            std::fs::write(&path, model_text(&tenant_model(k))).expect("write a tenant model file");
            let path = path.to_str().expect("work path is UTF-8").to_string();
            // The server's own resolver gives the reference model, so both
            // sides solve exactly the parsed file.
            models.push(
                resolve_model_spec(&ModelSpec::File(path.clone())).expect("tenant file parses"),
            );
            paths.push(path);
        }
        let q = models[0].generator().uniformization_rate();
        assert!(models
            .iter()
            .all(|m| m.generator().uniformization_rate() == q));
        let list = request_list(seed);
        let refs = (0..TENANTS.len())
            .map(|k| {
                let mut times: Vec<f64> = list
                    .iter()
                    .filter(|r| r.tenant == k)
                    .map(|r| r.qt / q)
                    .collect();
                times.sort_by(f64::total_cmp);
                times.dedup();
                let sols = moments_sweep(&models[k], TENANTS[k].2, &times, &config)
                    .expect("reference sweep");
                times.iter().map(|t| t.to_bits()).zip(sols).collect()
            })
            .collect();
        Setup {
            list,
            paths,
            models,
            refs,
            q,
        }
    }

    fn line(&self, id: usize, r: &Request) -> String {
        let mut out = format!("{{\"id\":{id},\"model_file\":");
        json::write_string(&mut out, &self.paths[r.tenant]);
        out.push_str(",\"t\":");
        json::write_f64(&mut out, r.qt / self.q);
        out.push_str(&format!(",\"order\":{}}}\n", r.order));
        out
    }

    /// Checks one response against the library's moments for the same
    /// model and horizon: `ok`, one result, `order + 1` moments, each
    /// within the response's bound plus the reference's bound plus the
    /// rounding allowance.
    fn check(&self, r: &Request, response: &str) -> Result<(), String> {
        let v = json::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
        if v.get("ok") != Some(&Value::Bool(true)) {
            return Err(format!("error response: {response}"));
        }
        let result = match v.get("results").and_then(Value::as_array) {
            Some([one]) => one,
            _ => return Err("expected exactly one result".to_string()),
        };
        let nums = |key: &str| -> Vec<f64> {
            result
                .get(key)
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default()
        };
        let (moments, bounds) = (nums("moments"), nums("error_bounds"));
        if moments.len() != r.order + 1 || bounds.len() != r.order + 1 {
            return Err(format!("expected {} moments", r.order + 1));
        }
        let t = r.qt / self.q;
        let reference = &self.refs[r.tenant][&t.to_bits()];
        let n = self.models[r.tenant].n_states() as f64;
        let g = reference.stats.iterations as f64;
        for j in 0..=r.order {
            let want = reference.weighted[j];
            let allowance = rounding_allowance(n + g * (j + 2) as f64, want);
            if !within(
                moments[j],
                want,
                bounds[j] + reference.error_bound(j),
                allowance,
            ) {
                return Err(format!(
                    "tenant {} t={t} moment {j}: served {:e}, library {want:e}",
                    r.tenant, moments[j]
                ));
            }
        }
        Ok(())
    }
}

/// Response lines with the instant the server wrote them.
struct LineTap {
    buf: Vec<u8>,
    tx: Sender<(Instant, String)>,
}

impl Write for LineTap {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..pos]).into_owned();
            // The receiver outlives the server thread; a send can only
            // fail after the harness stopped listening.
            let _ = self.tx.send((Instant::now(), line));
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A running `serve` loop on its own thread, fed through a pipe.
struct Server {
    input: PipeWriter,
    responses: Receiver<(Instant, String)>,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
    resolves: Arc<Mutex<Vec<f64>>>,
    stats: Arc<ServeStats>,
}

impl Server {
    /// Starts the server and waits for its first sideband `health`
    /// answer; returns it with the seconds that took.
    fn start(solver: SolverConfig) -> (Server, f64) {
        let t0 = Instant::now();
        let (reader, input) = std::io::pipe().expect("create the request pipe");
        let (tx, responses) = mpsc::channel();
        let resolves = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(ServeStats::new());
        let options = ServeOptions {
            solver,
            stats: stats.clone(),
            ..ServeOptions::default()
        };
        let timer = resolves.clone();
        let thread = std::thread::spawn(move || {
            let resolver = |spec: &ModelSpec| {
                let (model, dt) = timed(|| resolve_model_spec(spec));
                timer.lock().expect("resolve timer poisoned").push(dt);
                model
            };
            let mut out = LineTap {
                buf: Vec::new(),
                tx,
            };
            serve(reader, &mut out, &resolver, &options)
        });
        let mut server = Server {
            input,
            responses,
            thread,
            resolves,
            stats,
        };
        server.send("{\"cmd\":\"health\",\"id\":\"setup\"}\n");
        let (_, line) = server
            .responses
            .recv_timeout(RESPONSE_TIMEOUT)
            .expect("health answer");
        assert!(
            line.contains("\"cmd\":\"health\""),
            "first answer is the health reply"
        );
        (server, t0.elapsed().as_secs_f64())
    }

    fn send(&mut self, text: &str) {
        self.input
            .write_all(text.as_bytes())
            .expect("write to the server pipe");
    }

    /// Collects `n` responses; fewer if the server stops answering.
    fn collect(&self, n: usize) -> Vec<(Instant, String)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.responses.recv_timeout(RESPONSE_TIMEOUT) {
                Ok(r) => out.push(r),
                Err(_) => break,
            }
        }
        out
    }

    /// Closes the input and waits for the loop to drain and return.
    fn stop(self) -> (ServeSummary, Vec<f64>, Arc<ServeStats>) {
        drop(self.input);
        let summary = self
            .thread
            .join()
            .expect("server thread panicked")
            .expect("server I/O");
        let resolves = self
            .resolves
            .lock()
            .expect("resolve timer poisoned")
            .clone();
        (summary, resolves, self.stats)
    }
}

/// Matches responses to requests by id, checks each, and returns the
/// answer instant of every request (`None` when missing).
fn check_responses(
    report: &mut Report,
    setup: &Setup,
    sent: &[(usize, Request)],
    responses: &[(Instant, String)],
) -> Vec<Option<Instant>> {
    let index: HashMap<usize, usize> = sent
        .iter()
        .enumerate()
        .map(|(i, (id, _))| (*id, i))
        .collect();
    let mut answered = vec![None; sent.len()];
    for (at, line) in responses {
        let id = json::parse(line)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_f64))
            .map(|x| x as usize);
        match id.and_then(|id| index.get(&id)) {
            Some(&i) => {
                answered[i] = Some(*at);
                let result = setup.check(&sent[i].1, line);
                report.check(result.is_ok(), || result.unwrap_err());
            }
            None => report.check(false, || format!("response to no request: {line}")),
        }
    }
    for (i, a) in answered.iter().enumerate() {
        if a.is_none() {
            report.check(false, || format!("no response to request id {}", sent[i].0));
        }
    }
    answered
}

/// Sends the whole list at once; returns the seconds until the last
/// answer.
fn burst(report: &mut Report, setup: &Setup, server: &mut Server, first_id: usize) -> f64 {
    let sent: Vec<(usize, Request)> = setup
        .list
        .iter()
        .enumerate()
        .map(|(i, r)| (first_id + i, *r))
        .collect();
    let text: String = sent.iter().map(|(id, r)| setup.line(*id, r)).collect();
    let t0 = Instant::now();
    server.send(&text);
    let responses = server.collect(sent.len());
    let answered = check_responses(report, setup, &sent, &responses);
    let last = answered.iter().flatten().max().copied().unwrap_or(t0);
    (last - t0).as_secs_f64()
}

/// Sends the list one request at a time, each after the previous
/// answer; returns the seconds the whole list took.
fn one_at_a_time(report: &mut Report, setup: &Setup, server: &mut Server) -> f64 {
    let t0 = Instant::now();
    for (id, r) in setup.list.iter().enumerate() {
        server.send(&setup.line(id, r));
        let responses = server.collect(1);
        check_responses(report, setup, &[(id, *r)], &responses);
    }
    t0.elapsed().as_secs_f64()
}

/// What an open-loop phase measured.
pub struct Phase {
    /// Request latency from its due time to its answer, seconds.
    pub latency: Vec<f64>,
    /// How late each request was sent after its due time, seconds.
    pub lag: Vec<f64>,
}

/// Sends requests at their due times (offsets from now, cycling through
/// the list) without waiting for answers, then collects every answer.
/// Latency counts from the due time, so a stall also charges the
/// requests queued behind it.
fn open_loop(
    report: &mut Report,
    setup: &Setup,
    server: &mut Server,
    due: &[f64],
    first_id: usize,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let mut sent = Vec::with_capacity(due.len());
    let mut due_at = Vec::with_capacity(due.len());
    let mut lag = Vec::with_capacity(due.len());
    for (i, &offset) in due.iter().enumerate() {
        let at = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let r = setup.list[i % setup.list.len()];
        let id = first_id + i;
        lag.push(Instant::now().saturating_duration_since(at).as_secs_f64());
        server.send(&setup.line(id, &r));
        sent.push((id, r));
        due_at.push(at);
    }
    let responses = server.collect(sent.len());
    let answered = check_responses(report, setup, &sent, &responses);
    Phase {
        latency: latency_from_due(&due_at, &answered),
        lag,
    }
}

/// Seconds from each request's due time to its answer; unanswered
/// requests have none (they count as failed instead).
fn latency_from_due(due_at: &[Instant], answered: &[Option<Instant>]) -> Vec<f64> {
    answered
        .iter()
        .zip(due_at)
        .filter_map(|(a, due)| a.map(|a| a.saturating_duration_since(*due).as_secs_f64()))
        .collect()
}

fn ms(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e6)
}

fn tail_ms(stat: &TimingStat) -> f64 {
    let p = tail_percentile(stat.count as usize, 10).unwrap_or(100);
    ms(stat.quantile_ns(p as f64 / 100.0))
}

fn phase_metrics(report: &mut Report, name: &str, phase: &Phase) {
    let ms: Vec<f64> = phase.latency.iter().map(|s| s * 1e3).collect();
    let (tail_value, p) = tail(&ms);
    report.metric(&format!("{name}.req_p50_ms"), median(&ms), "ms");
    report.metric(&format!("{name}.req_tail_ms"), tail_value, "ms");
    report.info(
        &format!("{name}.tail"),
        format!("p{p} of {} requests", ms.len()),
    );
}

/// The untraced run: [`SETUPS`] server start-ups, then cold-cache bursts
/// (a fresh server each) while the budget lasts, at least three.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Report {
    if trace {
        return run_traced(seed, work);
    }
    let start = Instant::now();
    let mut report = Report::default();
    let setup = Setup::new(seed, work);
    // Back to back and as measured: with a reference pass after each
    // start, the median start of whole runs ranged over 35–320 µs; in a
    // tight loop it repeats to within about 10%, and normalizing that by
    // a reference measured once per run only added noise.
    let starts: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let (server, dt) = Server::start(solver_config());
            server.stop();
            dt
        })
        .collect();
    let mut bursts = Paired::default();
    loop {
        let (mut server, _) = Server::start(solver_config());
        let dt = burst(&mut report, &setup, &mut server, 0);
        server.stop();
        bursts.push(dt);
        if bursts.len() >= 3 && start.elapsed().as_secs_f64() + dt > seconds {
            break;
        }
    }
    report.metric("setup_s", median(&starts), "s");
    report.metric("solve_s", bursts.normalized_s(), "s");
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    report.info("serve.burst_raw_s", bursts.raw_s());
    report.info("serve.list", LIST);
    report.info("serve.bursts", bursts.len());
    report
}

/// The traced run: layer timings on the tenants' models, one session of
/// `lo`, `hi` and burst phases with the server's own statistics, and a
/// cold burst with the metrics recorder attached against one without.
fn run_traced(seed: u64, work: &Path) -> Report {
    let mut report = Report::default();
    let config = solver_config();

    let rss0 = rss_mb();
    let (_, build_s) = timed(|| tenant_model(0));
    report.metric("models.rss_mb", rss_mb() - rss0, "MB");
    let builds: Vec<f64> = (0..9)
        .map(|_| timed(|| tenant_model(0)).1)
        .chain([build_s])
        .collect();
    report.metric("models.build_s", median(&builds), "s");

    let setup = Setup::new(seed, work);
    let plans: Vec<f64> = (0..TENANTS.len())
        .map(|k| {
            timed(|| SolvePlan::build(&setup.models[k], TENANTS[k].2, &config).expect("plan")).1
        })
        .collect();
    report.metric("core.plan.build_s", median(&plans), "s");
    // The longest horizon at the highest order stands for the
    // plan/execute split and the kernel.
    let plan = SolvePlan::build(&setup.models[1], 3, &config).expect("plan");
    report.metric("core.plan.footprint_mb", mb(plan.footprint_bytes()), "MB");
    let t_max = QT_MAX / setup.q;
    let (sol, execute_s) = timed(|| plan.execute(&[t_max], 3).expect("solve"));
    report.metric("core.execute_s", execute_s, "s");
    report.metric("core.iterations", sol[0].stats.iterations as f64, "count");
    kernel::probe(&mut report, &plan, 3, 24);

    let mut solves = Vec::new();
    let mut windows = Vec::new();
    for r in setup.list.iter().take(24) {
        let t = r.qt / setup.q;
        let model = &setup.models[r.tenant];
        let (sol, dt) =
            timed(|| somrm_core::solve_moments(model, r.order, t, &config).expect("solve"));
        solves.push(dt);
        windows.push(timed(|| PoissonWindow::exact(r.qt, sol.stats.iterations)).1);
    }
    report.metric("core.solve_ms_p50", median(&solves) * 1e3, "ms");
    report.metric("num.poisson_ms_p50", median(&windows) * 1e3, "ms");

    // One session: lo, then hi, then the list at once.
    let (mut server, _) = Server::start(config.clone());
    let lo = open_loop(
        &mut report,
        &setup,
        &mut server,
        &arrivals(seed ^ 0x10, LO_RATE, LO_SECONDS),
        0,
    );
    let hi_due = arrivals(seed ^ 0x20, HI_RATE, HI_SECONDS);
    let hi = open_loop(&mut report, &setup, &mut server, &hi_due, 100_000);
    let burst_s = burst(&mut report, &setup, &mut server, 200_000);
    let (summary, resolves, stats) = server.stop();
    phase_metrics(&mut report, "lo", &lo);
    phase_metrics(&mut report, "hi", &hi);
    report.metric("burst_rps", LIST as f64 / burst_s, "1/s");
    let lag: Vec<f64> = lo.lag.iter().chain(&hi.lag).map(|s| s * 1e3).collect();
    report.metric("loadgen.lag_p99_ms", percentile(&lag, 99), "ms");
    report.metric(
        "loadgen.sent",
        (lo.lag.len() + hi.lag.len() + LIST) as f64,
        "count",
    );
    report.metric("cli.resolve_ms_p50", median(&resolves) * 1e3, "ms");
    report.metric("cli.resolves", resolves.len() as f64, "count");

    let cache = summary.cache;
    let lookups = cache.hits + cache.misses;
    report.metric(
        "serve.cache.hit_ratio",
        cache.hits as f64 / lookups as f64,
        "frac",
    );
    report.metric("serve.cache.hits", cache.hits as f64, "count");
    report.metric("serve.cache.lookups", lookups as f64, "count");
    report.metric("serve.cache.evictions", cache.evictions as f64, "count");
    report.metric("serve.cache.evict_mb", cache.evict_bytes as f64 / 1e6, "MB");
    report.metric("serve.batches", summary.batches as f64, "count");
    report.metric(
        "serve.batch.mean_size",
        summary.requests as f64 / summary.batches as f64,
        "count",
    );
    let snap = stats.snapshot();
    report.metric("serve.queue_ms_p50", ms(snap.queue.p50_ns()), "ms");
    report.metric("serve.queue_ms_tail", tail_ms(&snap.queue), "ms");
    report.metric("serve.plan_ms_p50", ms(snap.plan.p50_ns()), "ms");
    report.metric("serve.execute_ms_p50", ms(snap.execute.p50_ns()), "ms");
    report.metric("serve.slice_ms_p50", ms(snap.slice.p50_ns()), "ms");
    report.info("serve.quantiles", "log2-bucket resolution (ServeStats)");

    // Tracing overhead: the list one request at a time (so batching
    // cannot differ between the two sides), without and with the
    // recorder, alternating, three of each.
    let (registry, traced_config) = registry_config(&config);
    let (mut untraced, mut traced) = (Paired::default(), Paired::default());
    for _ in 0..3 {
        for (paired, solver) in [(&mut untraced, &config), (&mut traced, &traced_config)] {
            let (mut server, _) = Server::start(solver.clone());
            paired.push(one_at_a_time(&mut report, &setup, &mut server));
            server.stop();
        }
    }
    let (traced_s, untraced_s) = (traced.normalized_s(), untraced.normalized_s());
    obs_metrics(&mut report, &registry, traced_s, untraced_s);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64) -> String {
        let setup = Setup {
            list: request_list(seed),
            paths: (0..TENANTS.len())
                .map(|k| format!("tenant{k}.somrm"))
                .collect(),
            models: Vec::new(),
            refs: Vec::new(),
            q: 8000.0,
        };
        setup
            .list
            .iter()
            .enumerate()
            .map(|(i, r)| setup.line(i, r))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_requests_and_schedule() {
        assert_eq!(lines(5), lines(5));
        assert_ne!(lines(5), lines(6));
        let a: Vec<u64> = arrivals(5, 24.0, 8.0).iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = arrivals(5, 24.0, 8.0).iter().map(|x| x.to_bits()).collect();
        let c: Vec<u64> = arrivals(6, 24.0, 8.0).iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_seed_asks_for_the_same_mix() {
        for seed in 0..4 {
            let list = request_list(seed);
            assert_eq!(list.len(), LIST);
            let mut keys: Vec<(usize, i32)> = list
                .iter()
                .map(|r| (r.tenant, somrm_serve::qt_bucket(r.qt)))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 24, "six tenants times four qt-buckets");
            for k in 0..TENANTS.len() {
                assert!(list.iter().filter(|r| r.tenant == k).count() >= 4);
            }
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 0, sent 200 ms late behind a stall, answered at 300 ms:
        // the latency is 300 ms, not the 100 ms since the send.
        let due = Instant::now();
        let answered = [Some(due + Duration::from_millis(300)), None];
        let latency = latency_from_due(&[due, due], &answered);
        assert_eq!(latency.len(), 1, "a missing answer has no latency");
        assert!((latency[0] - 0.3).abs() < 1e-9);
    }
}
