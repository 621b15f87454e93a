//! End-to-end acceptance checks of the request-scoped serve telemetry:
//! a mixed burst must reconcile exactly across the latency histograms,
//! the plan-cache counters, and the response stream; `--slow-ms 0`
//! captures must round-trip the Chrome-trace parser; and none of it may
//! move a single response byte.

use somrm::ctmc::generator::GeneratorBuilder;
use somrm::model::SecondOrderMrm;
use somrm::obs::json::{parse, Value};
use somrm::obs::{write_prometheus, MetricsRegistry, Recorder, RecorderHandle, ServeStats};
use somrm::serve::{serve, ModelSpec, ServeOptions, SlowTraceOptions};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;

/// Resolves inline specs of the form `model-<n>`: a two-state ON-OFF
/// chain whose ON rate and drift vary with `n`, so distinct `n` give
/// distinct model digests (distinct plan-cache keys).
fn resolver(spec: &ModelSpec) -> Result<SecondOrderMrm, String> {
    let name = match spec {
        ModelSpec::Inline(text) => text,
        ModelSpec::File(path) => return Err(format!("no files in tests: {path}")),
    };
    let n: u32 = name
        .strip_prefix("model-")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unknown model {name}"))?;
    let mut b = GeneratorBuilder::new(2);
    b.rate(0, 1, 1.0).unwrap();
    b.rate(1, 0, 2.0 + n as f64).unwrap();
    SecondOrderMrm::new(
        b.build().unwrap(),
        vec![0.0, 1.0 + n as f64],
        vec![0.0, 1.0],
        vec![1.0, 0.0],
    )
    .map_err(|e| e.to_string())
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("somrm-telemetry-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mixed_burst_reconciles_histograms_cache_counters_and_responses() {
    // 24 mixed lines: 22 solvable requests over two models, several
    // orders and time grids, plus one parse error and one model error.
    let mut lines: Vec<String> = Vec::new();
    for i in 0..22u32 {
        let model = if i % 3 == 0 { "model-1" } else { "model-2" };
        let order = 1 + (i % 3);
        let t = 0.2 + 0.1 * (i % 4) as f64;
        lines.push(format!(
            r#"{{"id":{i},"model":"{model}","t":[{t}],"order":{order}}}"#
        ));
    }
    lines.push(r#"{"id":22,"model":"model-1","t":-1}"#.to_string());
    lines.push(r#"{"id":23,"model":"no-such","t":0.5}"#.to_string());
    // The sideband query rides the same stream; pending requests are
    // flushed before it is answered, so it sees the full burst.
    lines.push(r#"{"cmd":"stats","id":"q"}"#.to_string());

    let stats = Arc::new(ServeStats::new());
    let options = ServeOptions {
        stats: Arc::clone(&stats),
        ..ServeOptions::default()
    };
    let mut out = Vec::new();
    let summary = serve(
        Cursor::new(lines.join("\n") + "\n"),
        &mut out,
        &resolver,
        &options,
    )
    .unwrap();
    assert_eq!(summary.requests, 24, "cmd lines do not count as requests");
    assert_eq!(summary.cmds, 1);
    assert_eq!(summary.ok, 22);
    assert_eq!(summary.errors, 2);

    let text = String::from_utf8(out).unwrap();
    let responses: Vec<Value> = text.lines().map(|l| parse(l).expect(l)).collect();
    assert_eq!(responses.len(), 25, "one line per request plus the query");

    // The response stream's plan flags are the cache counters' ground
    // truth: only solvable requests reach the cache.
    let hits = responses
        .iter()
        .filter(|v| v.get("plan").and_then(|p| p.as_str()) == Some("hit"))
        .count() as u64;
    let misses = responses
        .iter()
        .filter(|v| v.get("plan").and_then(|p| p.as_str()) == Some("miss"))
        .count() as u64;
    assert_eq!(hits + misses, 22);
    assert_eq!(summary.cache.hits, hits);
    assert_eq!(summary.cache.misses, misses);

    // The sideband answer is the last line and carries the same truth.
    let reply = responses.last().unwrap();
    assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(reply.get("cmd").and_then(|c| c.as_str()), Some("stats"));
    assert_eq!(reply.get("id").and_then(|i| i.as_str()), Some("q"));
    let snap = reply.get("stats").expect("stats payload");
    assert_eq!(snap.get("requests").and_then(|r| r.as_f64()), Some(24.0));
    assert_eq!(snap.get("ok").and_then(|r| r.as_f64()), Some(22.0));
    let lat = snap.get("latency").unwrap();
    for phase in ["total", "queue", "plan", "execute", "slice"] {
        assert_eq!(
            lat.get(phase).and_then(|p| p.get("count")).and_then(|c| c.as_f64()),
            Some(24.0),
            "every request line lands in the {phase} histogram"
        );
    }
    let cache = snap.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(|h| h.as_f64()), Some(hits as f64));
    assert_eq!(cache.get("misses").and_then(|m| m.as_f64()), Some(misses as f64));
    let errors = snap.get("errors").unwrap();
    assert_eq!(errors.get("parse").and_then(|e| e.as_f64()), Some(1.0));
    assert_eq!(errors.get("model").and_then(|e| e.as_f64()), Some(1.0));

    // The shared window the CLI snapshots on exit agrees, per model too.
    let end = stats.snapshot();
    assert_eq!(end.requests, 24);
    assert_eq!(end.total.count, 24);
    assert_eq!(end.cache_hits + end.cache_misses, 22);
    let per_model: u64 = end.models.values().map(|m| m.requests).sum();
    assert_eq!(per_model + end.other_models.requests, 22);

    // And the Prometheus view of the same snapshot scrapes cleanly.
    let prom = write_prometheus(&end.to_metrics_snapshot());
    assert!(prom.contains("somrm_serve_requests_total 24\n"), "{prom}");
    assert!(prom.contains("somrm_serve_errors_parse_total 1\n"));
    assert!(prom.contains("somrm_serve_latency_total_seconds_bucket{le=\"+Inf\"} 24\n"));
    assert!(prom.contains("somrm_serve_latency_total_seconds_count 24\n"));
}

#[test]
fn slow_trace_threshold_zero_captures_a_parseable_trace_per_request() {
    let dir = scratch_dir("slow");
    let lines: Vec<String> = (0..5u32)
        .map(|i| format!(r#"{{"id":{i},"model":"model-{i}","t":[0.4],"order":2}}"#))
        .collect();
    let options = ServeOptions {
        slow_trace: Some(SlowTraceOptions {
            dir: dir.clone(),
            slow_ms: 0,
        }),
        ..ServeOptions::default()
    };
    let mut out = Vec::new();
    let summary = serve(
        Cursor::new(lines.join("\n") + "\n"),
        &mut out,
        &resolver,
        &options,
    )
    .unwrap();
    assert_eq!(summary.ok, 5);

    // Threshold 0 marks every request slow: one capture per sequence
    // number, named deterministically, each a Chrome trace that
    // round-trips the same parser the solver's --trace-out files use.
    for seq in 0..5u64 {
        let path = dir.join(format!("req-{seq:06}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing capture {}: {e}", path.display()));
        let v = parse(&text).expect("capture parses as JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        for e in &complete {
            assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            assert!(e.get("name").unwrap().as_str().is_some());
        }
        // The batch trace contains this request's own lifecycle span —
        // the id survives coalescing into the capture.
        let own = format!("req[{seq}]");
        assert!(
            complete
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(own.as_str())),
            "capture for seq {seq} must contain its {own} span"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_telemetry_leaves_every_response_byte_unchanged() {
    // Distinct models per line keep coalesced counts at 1 no matter how
    // the reader thread batches, so both runs are deterministic.
    let input: String = (0..6u32)
        .map(|i| format!("{{\"id\":{i},\"model\":\"model-{i}\",\"t\":[0.3,0.7],\"order\":2}}\n"))
        .collect();

    let mut plain = Vec::new();
    serve(
        Cursor::new(input.clone()),
        &mut plain,
        &resolver,
        &ServeOptions::default(),
    )
    .unwrap();

    let dir = scratch_dir("identity");
    let registry = Arc::new(MetricsRegistry::new());
    let recorder = RecorderHandle::new(Arc::clone(&registry) as Arc<dyn Recorder>);
    let solver = somrm::solver::SolverConfig::default().with_recorder(recorder);
    let options = ServeOptions {
        solver,
        slow_trace: Some(SlowTraceOptions {
            dir: dir.clone(),
            slow_ms: 0,
        }),
        ..ServeOptions::default()
    };
    let mut full = Vec::new();
    serve(Cursor::new(input), &mut full, &resolver, &options).unwrap();

    assert_eq!(
        String::from_utf8(plain).unwrap(),
        String::from_utf8(full).unwrap(),
        "telemetry must not move a single response byte"
    );
    // The full run actually observed the work it left untouched.
    let snap = registry.snapshot();
    assert!(snap.timing("serve.latency.total").is_none(),
        "per-request aggregation lives in ServeStats, not the solver registry");
    assert!(snap.timing("plan.execute").is_some(), "solver spans recorded");
    let _ = std::fs::remove_dir_all(&dir);
}
