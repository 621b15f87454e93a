//! The plain-text model format.

use somrm_core::impulse::ImpulseMrm;
use somrm_core::model::SecondOrderMrm;
use somrm_ctmc::generator::GeneratorBuilder;
use std::error::Error;
use std::fmt;

/// A parsed model file: the base model plus optional impulses.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedModel {
    /// The rate/variance part.
    pub model: SecondOrderMrm,
    /// Impulse list (possibly empty).
    pub impulses: Vec<(usize, usize, f64)>,
}

impl ParsedModel {
    /// Wraps the parse result into an [`ImpulseMrm`] (works also with
    /// an empty impulse list).
    ///
    /// # Errors
    ///
    /// Propagates model-validation errors.
    pub fn into_impulse_mrm(self) -> Result<ImpulseMrm, somrm_core::error::MrmError> {
        ImpulseMrm::new(self.model, &self.impulses)
    }

    /// `true` if the file declared any impulse.
    pub fn has_impulses(&self) -> bool {
        !self.impulses.is_empty()
    }
}

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending input (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "model file: {}", self.message)
        } else {
            write!(f, "model file line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses the model format described in the crate docs.
///
/// # Errors
///
/// Returns a [`ParseError`] pinpointing the offending line for syntax
/// problems, missing/duplicate declarations, out-of-range states,
/// invalid numbers, or a model that fails semantic validation.
pub fn parse_model(text: &str) -> Result<ParsedModel, ParseError> {
    let mut n_states: Option<(usize, usize)> = None;
    let mut rates: Vec<(usize, usize, f64, usize)> = Vec::new();
    let mut rewards: Vec<(usize, f64, f64, usize)> = Vec::new();
    let mut impulses: Vec<(usize, usize, f64, usize)> = Vec::new();
    let mut init: Vec<(usize, f64, usize)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "states" => {
                if n_states.is_some() {
                    return Err(err(lineno, "duplicate 'states' declaration"));
                }
                let n = parse_token::<usize>(&tokens, 1, lineno, "state count")?;
                if n == 0 {
                    return Err(err(lineno, "state count must be positive"));
                }
                expect_len(&tokens, 2, lineno)?;
                n_states = Some((n, lineno));
            }
            "rate" => {
                let i = parse_token::<usize>(&tokens, 1, lineno, "source state")?;
                let j = parse_token::<usize>(&tokens, 2, lineno, "target state")?;
                let r = parse_token::<f64>(&tokens, 3, lineno, "rate")?;
                expect_len(&tokens, 4, lineno)?;
                rates.push((i, j, r, lineno));
            }
            "reward" => {
                let i = parse_token::<usize>(&tokens, 1, lineno, "state")?;
                let r = parse_token::<f64>(&tokens, 2, lineno, "drift")?;
                let s = parse_token::<f64>(&tokens, 3, lineno, "variance")?;
                expect_len(&tokens, 4, lineno)?;
                rewards.push((i, r, s, lineno));
            }
            "impulse" => {
                let i = parse_token::<usize>(&tokens, 1, lineno, "source state")?;
                let j = parse_token::<usize>(&tokens, 2, lineno, "target state")?;
                let c = parse_token::<f64>(&tokens, 3, lineno, "impulse")?;
                expect_len(&tokens, 4, lineno)?;
                impulses.push((i, j, c, lineno));
            }
            "init" => {
                let i = parse_token::<usize>(&tokens, 1, lineno, "state")?;
                let p = parse_token::<f64>(&tokens, 2, lineno, "probability")?;
                expect_len(&tokens, 3, lineno)?;
                init.push((i, p, lineno));
            }
            other => {
                return Err(err(
                    lineno,
                    format!(
                        "unknown directive '{other}' (expected states/rate/reward/impulse/init)"
                    ),
                ));
            }
        }
    }

    let (n, states_line) = n_states.ok_or_else(|| err(0, "missing 'states' declaration"))?;
    let check_state = |s: usize, lineno: usize| -> Result<(), ParseError> {
        if s >= n {
            Err(err(lineno, format!("state {s} out of range (states {n})")))
        } else {
            Ok(())
        }
    };

    // The per-state vectors come first: a count too large to allocate
    // fails here as a parse error, before any infallible allocation.
    let mut drift = try_filled(n, 0.0, states_line)?;
    let mut variance = try_filled(n, 0.0, states_line)?;
    let mut seen = try_filled(n, false, states_line)?;
    let mut pi = try_filled(n, 0.0, states_line)?;

    let mut builder = GeneratorBuilder::new(n);
    for &(i, j, r, lineno) in &rates {
        check_state(i, lineno)?;
        check_state(j, lineno)?;
        builder
            .rate(i, j, r)
            .map_err(|e| err(lineno, e.to_string()))?;
    }
    let generator = builder.build().map_err(|e| err(0, e.to_string()))?;

    for &(i, r, s, lineno) in &rewards {
        check_state(i, lineno)?;
        if seen[i] {
            return Err(err(lineno, format!("duplicate reward for state {i}")));
        }
        seen[i] = true;
        drift[i] = r;
        variance[i] = s;
    }

    if init.is_empty() {
        pi[0] = 1.0;
    } else {
        for &(i, p, lineno) in &init {
            check_state(i, lineno)?;
            pi[i] += p;
        }
    }

    for &(i, j, _, lineno) in &impulses {
        check_state(i, lineno)?;
        check_state(j, lineno)?;
    }
    let impulses: Vec<(usize, usize, f64)> =
        impulses.into_iter().map(|(i, j, c, _)| (i, j, c)).collect();

    let model = SecondOrderMrm::new(generator, drift, variance, pi)
        .map_err(|e| err(0, e.to_string()))?;
    // Validate impulses eagerly so errors surface at parse time.
    ImpulseMrm::new(model.clone(), &impulses).map_err(|e| err(0, e.to_string()))?;
    Ok(ParsedModel { model, impulses })
}

/// `vec![value; n]`, except that a count the allocator cannot satisfy
/// (declared on line `lineno`) is a [`ParseError`], not a process abort.
fn try_filled<T: Clone>(n: usize, value: T, lineno: usize) -> Result<Vec<T>, ParseError> {
    let mut v = Vec::new();
    v.try_reserve_exact(n)
        .map_err(|e| err(lineno, format!("cannot allocate {n} states: {e}")))?;
    v.resize(n, value);
    Ok(v)
}

fn parse_token<T: std::str::FromStr>(
    tokens: &[&str],
    pos: usize,
    lineno: usize,
    what: &str,
) -> Result<T, ParseError> {
    tokens
        .get(pos)
        .ok_or_else(|| err(lineno, format!("missing {what}")))?
        .parse()
        .map_err(|_| err(lineno, format!("cannot parse {what} '{}'", tokens[pos])))
}

fn expect_len(tokens: &[&str], len: usize, lineno: usize) -> Result<(), ParseError> {
    if tokens.len() != len {
        return Err(err(
            lineno,
            format!("expected {} tokens, got {}", len, tokens.len()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GOOD: &str = "\n# two-state on/off\nstates 2\nrate 0 1 3.0\nrate 1 0 4.0 # off\nreward 0 0.0 0.0\nreward 1 1.0 0.5\ninit 0 0.25\ninit 1 0.75\n";

    #[test]
    fn parses_a_complete_model() {
        let p = parse_model(GOOD).unwrap();
        assert_eq!(p.model.n_states(), 2);
        assert_eq!(p.model.rates(), &[0.0, 1.0]);
        assert_eq!(p.model.variances(), &[0.0, 0.5]);
        assert_eq!(p.model.initial(), &[0.25, 0.75]);
        assert!(!p.has_impulses());
    }

    #[test]
    fn default_init_is_state_zero() {
        let p = parse_model("states 2\nrate 0 1 1.0\nrate 1 0 1.0\n").unwrap();
        assert_eq!(p.model.initial(), &[1.0, 0.0]);
    }

    #[test]
    fn impulses_parse_and_validate() {
        let text = "states 2\nrate 0 1 1.0\nrate 1 0 1.0\nimpulse 0 1 2.5\n";
        let p = parse_model(text).unwrap();
        assert!(p.has_impulses());
        let m = p.into_impulse_mrm().unwrap();
        assert_eq!(m.impulse(0, 1), 2.5);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_model("states 2\nrate 0 5 1.0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));

        let e = parse_model("states 2\nrate 0 1 oops\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("oops"));

        let e = parse_model("rate 0 1 1.0\n").unwrap_err();
        assert!(e.message.contains("states"));

        let e = parse_model("states 2\nbogus 1 2 3\n").unwrap_err();
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn duplicate_declarations_rejected() {
        assert!(parse_model("states 2\nstates 3\n").is_err());
        let text = "states 2\nrate 0 1 1.0\nrate 1 0 1.0\nreward 0 1.0 0.0\nreward 0 2.0 0.0\n";
        let e = parse_model(text).unwrap_err();
        assert!(e.message.contains("duplicate reward"));
    }

    #[test]
    fn semantic_validation_happens_at_parse_time() {
        // Initial distribution not summing to 1.
        let e = parse_model("states 2\nrate 0 1 1.0\nrate 1 0 1.0\ninit 0 0.4\n").unwrap_err();
        assert!(e.message.contains("distribution"));
        // Negative variance.
        let e = parse_model("states 1\nreward 0 1.0 -2.0\n").unwrap_err();
        assert!(e.message.contains("variance"));
        // Impulse on a zero-rate transition.
        let e = parse_model("states 2\nrate 0 1 1.0\nrate 1 0 1.0\nimpulse 1 0 1.0\nimpulse 0 1 0.0\n");
        assert!(e.is_ok());
        let e = parse_model("states 3\nrate 0 1 1.0\nrate 1 2 1.0\nrate 2 0 1.0\nimpulse 0 2 1.0\n")
            .unwrap_err();
        assert!(e.message.contains("rate is zero"));
    }

    #[test]
    fn impulse_errors_carry_line_numbers() {
        let e = parse_model("states 2\nrate 0 1 1.0\nrate 1 0 1.0\nimpulse 0 5 1.0\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(
            e.to_string(),
            "model file line 4: state 5 out of range (states 2)"
        );
    }

    #[test]
    fn unallocatable_state_counts_are_parse_errors() {
        // Too large for the address space, and too large for the
        // allocator: both must fail as typed errors on the states line.
        for count in ["18446744073709551615", "1000000000000"] {
            let text = format!("# hostile\nstates {count}\nrate 0 1 1.0\n");
            let e = parse_model(&text).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains("cannot allocate"), "{e}");
        }
    }

    /// One numeric token: mostly small in-range integers and plain
    /// floats, plus integers at and past the `usize` limits, extreme and
    /// non-finite floats, and malformed text. No integer from 5 up to
    /// 10^12 is drawn, so an accepted `states` line stays cheap to
    /// allocate and a rejected one fails in the allocator.
    fn token() -> impl Strategy<Value = String> {
        const EXTREME: [&str; 8] =
            ["1e308", "-1e308", "1e999", "inf", "-inf", "NaN", "-0", "5e-324"];
        const MALFORMED: [&str; 8] =
            ["--", "-1", "abc", "1e", "0x10", "1.2.3", "+", "18446744073709551616"];
        (0usize..12, 0u64..u64::MAX, -1e6f64..1e6).prop_map(|(kind, bits, x)| {
            match kind {
                0..=4 => (bits % 5).to_string(),
                5 | 6 => format!("{}", x.abs() * 1e-6),
                7 => format!("{x}"),
                8 => u64::MAX.to_string(),
                9 => (1_000_000_000_000 + bits % (u64::MAX - 1_000_000_000_000)).to_string(),
                10 => EXTREME[(bits % 8) as usize].to_string(),
                _ => MALFORMED[(bits % 8) as usize].to_string(),
            }
        })
    }

    /// One line: a directive (rates and rewards weighted up, plus a
    /// duplicate `states` and an unknown word) followed by its own token
    /// count, or one time in four by 0–4 tokens.
    fn line() -> impl Strategy<Value = String> {
        const DIRECTIVES: [(&str, usize); 9] = [
            ("rate", 3),
            ("rate", 3),
            ("rate", 3),
            ("reward", 3),
            ("reward", 3),
            ("impulse", 3),
            ("init", 2),
            ("states", 1),
            ("bogus", 2),
        ];
        let parts = (0usize..9, prop::collection::vec(token(), 4), 0usize..4, 0usize..5);
        parts.prop_map(|(d, tokens, wrong, len)| {
            let (word, arity) = DIRECTIVES[d];
            let n = if wrong == 0 { len } else { arity };
            format!("{word} {}", tokens[..n].join(" "))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn parse_model_never_panics(
            states in (0u64..8, token())
                .prop_map(|(k, t)| if k < 5 { (1 + k % 4).to_string() } else { t }),
            lines in prop::collection::vec(line(), 0..8),
        ) {
            let text = format!("states {states}\n{}\n", lines.join("\n"));
            let n_lines = lines.len() + 1;
            match parse_model(&text) {
                Ok(p) => prop_assert!(p.model.n_states() >= 1),
                Err(e) => {
                    prop_assert!(e.line <= n_lines, "line {} of {n_lines}", e.line);
                    prop_assert!(e.to_string().starts_with("model file"));
                }
            }
        }
    }

    #[test]
    fn token_count_enforced() {
        let e = parse_model("states 2 extra\n").unwrap_err();
        assert!(e.message.contains("tokens"));
        let e = parse_model("states 2\nrate 0 1\n").unwrap_err();
        assert!(e.message.contains("missing rate"));
    }
}
