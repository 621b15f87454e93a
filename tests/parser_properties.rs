//! No-panic properties of the hand-rolled text parsers a server or a
//! report reader feeds untrusted input: the JSON parser
//! (`obs::json::parse`), the serve request parser
//! (`serve::parse_request`), the event-log reader
//! (`obs::Event::parse_lines`) and the verify case reader
//! (`verify::VerifyCase::from_json`, followed by `build`). Each must
//! answer `Ok` or `Err` on any
//! line — random token soup, nesting far past any stack, numbers past
//! the f64 range, malformed literals — and never panic. Accepted inputs
//! must also mean what they say (round trips, validated fields).

use proptest::prelude::*;
use somrm::obs::json::{self, ParseError, Value, MAX_DEPTH};
use somrm::obs::Event;
use somrm::serve::{parse_request, MAX_ORDER};
use somrm::verify::case::MAX_CASE_ORDER;
use somrm::verify::VerifyCase;

/// One JSON-ish token: structure, protocol keys and event kinds,
/// numbers from tiny to past f64, literals, and malformed text.
fn token() -> impl Strategy<Value = String> {
    const PIECES: [&str; 40] = [
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        " ",
        "\"id\"",
        "\"model\"",
        "\"model_file\"",
        "\"t\"",
        "\"order\"",
        "\"v\"",
        "\"event\"",
        "\"cmd\"",
        "\"progress\"",
        "\"complete\"",
        "\"truncation\"",
        "\"k\"",
        "\"g\"",
        "\"error_bounds\"",
        "\"states 2\\nrate 0 1 1.0\"",
        "true",
        "false",
        "null",
        "nul",
        "tru",
        "\"\\u12\"",
        "\"\\q\"",
        "\"abc",
        "\"\\ud800\"",
        "\u{3bb}",
        "\u{0}",
        "-",
        "--1",
        "1e",
        "0x10",
        ".5",
        "1.2.3",
        "\"\\\"\"",
    ];
    const NUMBERS: [&str; 12] = [
        "1e999",
        "-1e999",
        "1e308",
        "-1e308",
        "5e-324",
        "-0",
        "18446744073709551616",
        "1e-400",
        "NaN",
        "inf",
        "17",
        "0.5",
    ];
    (0usize..10, 0u64..u64::MAX, -1e6f64..1e6).prop_map(|(kind, bits, x)| match kind {
        0..=4 => PIECES[(bits % 40) as usize].to_string(),
        5 | 6 => NUMBERS[(bits % 12) as usize].to_string(),
        7 => format!("{x}"),
        8 => (bits % 20).to_string(),
        // A deep run of one bracket: up to twice the nesting cap.
        _ => ["[", "{\"a\":", "]", "}"][(bits % 4) as usize]
            .repeat((bits % (2 * MAX_DEPTH as u64)) as usize),
    })
}

/// A line of 0–24 tokens.
fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec(token(), 0..24).prop_map(|t| t.concat())
}

/// A request-shaped object whose values are arbitrary tokens, sometimes
/// wrapped in nesting from shallow to far past the cap.
fn request_like() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(token(), 4),
        0usize..4,
        0usize..200_000,
    )
        .prop_map(|(v, wrap, depth)| {
            let depth = if wrap == 0 { depth } else { depth % 4 };
            let id = format!("{}{}{}", "[".repeat(depth), v[0], "]".repeat(depth));
            format!(
                "{{\"id\": {id}, \"model\": {}, \"t\": {}, \"order\": {}}}",
                v[1], v[2], v[3]
            )
        })
}

/// An event-shaped record with arbitrary field values.
fn event_like() -> impl Strategy<Value = String> {
    const KINDS: [&str; 7] = [
        "solve.start",
        "plan.resolved",
        "truncation",
        "health",
        "progress",
        "complete",
        "nope",
    ];
    (0usize..7, prop::collection::vec(token(), 4), 0u64..3).prop_map(|(k, v, version)| {
        format!(
            "{{\"v\":{version},\"event\":\"{}\",\"k\":{},\"g\":{},\"percent\":{},\"eta_s\":{},\
             \"error_bound\":{},\"order\":1,\"n_states\":2,\"n_times\":1}}",
            KINDS[k], v[0], v[1], v[2], v[3], v[0]
        )
    })
}

/// A count-like value: mostly small integers, sometimes any token
/// (huge, negative, fractional, non-numeric).
fn count_like() -> impl Strategy<Value = String> {
    (0usize..4, 0u64..6, token()).prop_map(|(kind, n, t)| if kind == 0 { t } else { n.to_string() })
}

/// A verify-case document: a state count that is usually small and
/// usually matches its arrays (so `build` runs), sometimes any token;
/// count-like array entries and 0–4 transition triples.
fn case_like() -> impl Strategy<Value = String> {
    let triple =
        (count_like(), count_like(), count_like()).prop_map(|(i, j, r)| format!("[{i},{j},{r}]"));
    (
        (0usize..5, 0usize..4, token()),
        count_like(),
        prop::collection::vec(triple, 0..5),
        prop::collection::vec(count_like(), 15),
        token(),
    )
        .prop_map(|((n, kind, n_token), order, transitions, entries, t)| {
            // kind 0: a hostile count; 1: arrays of their own length;
            // otherwise arrays of exactly n entries.
            let lens = match kind {
                1 => [entries.len() % 5, n, (n + 1) % 5],
                _ => [n; 3],
            };
            let n = if kind == 0 { n_token } else { n.to_string() };
            let arrays: Vec<String> = entries
                .chunks(5)
                .zip(lens)
                .map(|(c, len)| c[..len].join(","))
                .collect();
            format!(
                "{{\"id\":\"p\",\"family\":\"dense\",\"n_states\":{n},\
                 \"transitions\":[{}],\"drifts\":[{}],\"variances\":[{}],\
                 \"initial\":[{}],\"t\":{t},\"order\":{order}}}",
                transitions.join(","),
                arrays[0],
                arrays[1],
                arrays[2]
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn verify_case_from_json_then_build_never_panics(text in case_like(), noise in soup()) {
        for candidate in [text, noise] {
            if let Ok(case) = VerifyCase::from_json(&candidate) {
                prop_assert!(case.order <= MAX_CASE_ORDER);
                prop_assert_eq!(case.drifts.len(), case.n_states);
                prop_assert_eq!(case.variances.len(), case.n_states);
                prop_assert_eq!(case.initial.len(), case.n_states);
                let _ = case.build();
            }
        }
    }

    #[test]
    fn json_parse_never_panics(line in soup()) {
        match json::parse(&line) {
            Ok(v) => {
                let mut out = String::new();
                json::write_value(&mut out, &v);
                let back = json::parse(&out);
                prop_assert!(back.is_ok(), "re-serialized {out:?} did not parse");
            }
            Err(ParseError::TooDeep { at }) => prop_assert!(at < line.len()),
            Err(ParseError::Syntax(msg)) => prop_assert!(!msg.is_empty()),
        }
    }

    #[test]
    fn parse_request_never_panics(line in request_like(), noise in soup()) {
        for candidate in [line.clone(), noise, format!("{line}{}", "]")] {
            if let Ok(req) = parse_request(&candidate) {
                prop_assert!(req.order <= MAX_ORDER);
                prop_assert!(!req.times.is_empty());
                prop_assert!(req.times.iter().all(|t| t.is_finite() && *t >= 0.0));
            }
        }
    }

    #[test]
    fn event_parse_lines_never_panics(
        lines in prop::collection::vec(event_like(), 1..4),
        noise in soup(),
    ) {
        let text = lines.join("\n");
        if let Ok(events) = Event::parse_lines(&text) {
            for e in &events {
                let back = Event::parse(&e.to_json_line());
                prop_assert_eq!(back.as_ref().ok(), Some(e));
            }
        }
        let _ = Event::parse_lines(&format!("{text}\n{noise}"));
    }
}

#[test]
fn verify_case_sizes_past_the_text_are_errors_not_aborts() {
    // A 3-entry case claiming 1e15 states used to reach build() and
    // abort on an 8 PB allocation; 1e19 panicked on capacity overflow
    // and -5 silently became 0.
    let base = "{\"id\":\"x\",\"family\":\"dense\",\"n_states\":N,\"transitions\":[[0,1,1.0]],\
                \"drifts\":[0,1,2],\"variances\":[0,0,0],\"initial\":[1,0,0],\"t\":1,\"order\":2}";
    assert!(VerifyCase::from_json(&base.replace('N', "3"))
        .unwrap()
        .build()
        .is_ok());
    for n in ["1e15", "1e19", "-5", "3.5", "1e999"] {
        assert!(
            VerifyCase::from_json(&base.replace('N', n)).is_err(),
            "n_states {n} accepted"
        );
    }
}

#[test]
fn deep_values_error_instead_of_overflowing() {
    let deep = format!(
        "{{\"id\": {}{}, \"model\": \"m\", \"t\": 1}}",
        "[".repeat(200_000),
        "]".repeat(200_000)
    );
    let err = parse_request(&deep).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
    assert!(Event::parse_lines(&deep).is_err());
    assert!(matches!(
        json::parse(&deep),
        Err(ParseError::TooDeep { .. })
    ));
    let shallow = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(matches!(json::parse(&shallow), Ok(Value::Arr(_))));
}
