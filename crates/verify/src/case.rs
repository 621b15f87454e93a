//! Portable verification cases: a self-contained model + query that can
//! be rebuilt, checked, shrunk, and round-tripped through JSON.
//!
//! The JSON form is what the harness writes under `tests/regressions/`
//! when a case fails: a minimal reproducer another session (or a CI
//! artifact reader) can replay without the generating seed.

use somrm_core::error::MrmError;
use somrm_core::model::SecondOrderMrm;
use somrm_ctmc::generator::GeneratorBuilder;
use somrm_obs::json::{self, Value};
use std::fmt;

/// The structural family a generated case belongs to. Each family
/// targets a failure mode the backends have historically disagreed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Tridiagonal birth–death chain (the paper's shape; DIA-eligible).
    BirthDeath,
    /// Banded chain with bandwidth 2–4.
    Banded,
    /// Dense generator (every pair may transition).
    Dense,
    /// Rate ratios up to 1e6 (stresses ODE step control and `G`).
    Stiff,
    /// Some (possibly all) states absorbing — `q_ii == 0` rows.
    Absorbing,
    /// All drifts zero, variances positive (pure Brownian reward).
    ZeroDrift,
    /// All variances zero (first-order degenerate, σ² = 0).
    FirstOrder,
    /// Drifts of both signs (exercises the ř-shift and unshift).
    MixedSign,
}

impl Family {
    /// Every family, in generation rotation order.
    pub const ALL: [Family; 8] = [
        Family::BirthDeath,
        Family::Banded,
        Family::Dense,
        Family::Stiff,
        Family::Absorbing,
        Family::ZeroDrift,
        Family::FirstOrder,
        Family::MixedSign,
    ];

    /// Stable lowercase name (JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            Family::BirthDeath => "birth-death",
            Family::Banded => "banded",
            Family::Dense => "dense",
            Family::Stiff => "stiff",
            Family::Absorbing => "absorbing",
            Family::ZeroDrift => "zero-drift",
            Family::FirstOrder => "first-order",
            Family::MixedSign => "mixed-sign",
        }
    }

    /// Parses [`Family::name`] output.
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == s)
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One verification case: a complete second-order MRM plus the moment
/// query to cross-check on it.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyCase {
    /// Stable identifier (`case-<index>` for generated cases, free-form
    /// for hand-written regression files).
    pub id: String,
    /// Structural family (drives expectations in reports).
    pub family: Family,
    /// Number of structure states.
    pub n_states: usize,
    /// Off-diagonal transition rates `(from, to, rate)`.
    pub transitions: Vec<(usize, usize, f64)>,
    /// Per-state drifts `r_i`.
    pub drifts: Vec<f64>,
    /// Per-state variances `σ_i²`.
    pub variances: Vec<f64>,
    /// Initial distribution `π`.
    pub initial: Vec<f64>,
    /// Accumulation time of the query.
    pub t: f64,
    /// Highest moment order of the query.
    pub order: usize,
    /// Free-form provenance note (the original violation for shrunken
    /// reproducers; empty for fresh cases).
    pub note: String,
}

impl VerifyCase {
    /// Builds the model this case describes.
    ///
    /// # Errors
    ///
    /// Propagates construction errors ([`MrmError`]) — a case file that
    /// fails to build is itself a verification failure.
    pub fn build(&self) -> Result<SecondOrderMrm, MrmError> {
        let mut b = GeneratorBuilder::new(self.n_states);
        for &(i, j, r) in &self.transitions {
            b.rate(i, j, r)?;
        }
        SecondOrderMrm::new(
            b.build()?,
            self.drifts.clone(),
            self.variances.clone(),
            self.initial.clone(),
        )
    }

    /// Serializes the case as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        json::write_string(&mut out, "id");
        out.push(':');
        json::write_string(&mut out, &self.id);
        out.push(',');
        json::write_string(&mut out, "family");
        out.push(':');
        json::write_string(&mut out, self.family.name());
        out.push(',');
        json::write_string(&mut out, "n_states");
        out.push_str(&format!(":{},", self.n_states));
        json::write_string(&mut out, "transitions");
        out.push_str(":[");
        for (k, &(i, j, r)) in self.transitions.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{i},{j},"));
            json::write_f64(&mut out, r);
            out.push(']');
        }
        out.push_str("],");
        for (key, values) in [
            ("drifts", &self.drifts),
            ("variances", &self.variances),
            ("initial", &self.initial),
        ] {
            json::write_string(&mut out, key);
            out.push_str(":[");
            for (k, &v) in values.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                json::write_f64(&mut out, v);
            }
            out.push_str("],");
        }
        json::write_string(&mut out, "t");
        out.push(':');
        json::write_f64(&mut out, self.t);
        out.push(',');
        json::write_string(&mut out, "order");
        out.push_str(&format!(":{},", self.order));
        json::write_string(&mut out, "note");
        out.push(':');
        json::write_string(&mut out, &self.note);
        out.push('}');
        out
    }

    /// Parses a case from its JSON form.
    ///
    /// Counts and indices (`n_states`, `order`, transition endpoints)
    /// must be finite, non-negative integers; `n_states` must equal the
    /// lengths of `drifts`, `variances` and `initial`, and `order` may
    /// not exceed [`MAX_CASE_ORDER`]. So an accepted case never asks
    /// [`VerifyCase::build`] for more memory than its own text implies.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON or missing /
    /// mistyped / out-of-range fields.
    pub fn from_json(text: &str) -> Result<VerifyCase, String> {
        let v = json::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let vec_field = |key: &str| -> Result<Vec<f64>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("missing array field '{key}'"))?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| format!("non-number in '{key}'")))
                .collect()
        };
        let count_field = |key: &str| num_field(key).and_then(|x| count(x, key));
        let family_name = str_field("family")?;
        let family = Family::parse(&family_name)
            .ok_or_else(|| format!("unknown family '{family_name}'"))?;
        let transitions = v
            .get("transitions")
            .and_then(Value::as_array)
            .ok_or("missing array field 'transitions'")?
            .iter()
            .map(|entry| {
                let triple = entry.as_array().ok_or("transition is not an array")?;
                if triple.len() != 3 {
                    return Err("transition is not a [from, to, rate] triple".to_string());
                }
                let num = |k: usize| -> Result<f64, String> {
                    triple[k]
                        .as_f64()
                        .ok_or_else(|| "non-number in transition".to_string())
                };
                let idx = |k: usize| num(k).and_then(|x| count(x, "transition index"));
                Ok((idx(0)?, idx(1)?, num(2)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let n_states = count_field("n_states")?;
        let (drifts, variances, initial) = (
            vec_field("drifts")?,
            vec_field("variances")?,
            vec_field("initial")?,
        );
        for (key, len) in [
            ("drifts", drifts.len()),
            ("variances", variances.len()),
            ("initial", initial.len()),
        ] {
            if len != n_states {
                return Err(format!("'{key}' has {len} entries for n_states {n_states}"));
            }
        }
        let order = count_field("order")?;
        if order > MAX_CASE_ORDER {
            return Err(format!("order {order} exceeds {MAX_CASE_ORDER}"));
        }
        Ok(VerifyCase {
            id: str_field("id")?,
            family,
            n_states,
            transitions,
            drifts,
            variances,
            initial,
            t: num_field("t")?,
            order,
            note: str_field("note").unwrap_or_default(),
        })
    }
}

/// Highest moment order a case file may ask for: the recursion holds
/// `order + 1` state-sized blocks, so the cap matches serve's request
/// limit.
pub const MAX_CASE_ORDER: usize = 16;

/// A JSON number as a count or index: finite, non-negative, integral,
/// and exactly representable (below 2⁵³).
fn count(x: f64, what: &str) -> Result<usize, String> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if !(0.0..EXACT).contains(&x) || x.fract() != 0.0 {
        return Err(format!(
            "{what} must be a non-negative integer below 2^53, got {x}"
        ));
    }
    Ok(x as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> VerifyCase {
        VerifyCase {
            id: "case-7".to_string(),
            family: Family::MixedSign,
            n_states: 3,
            transitions: vec![(0, 1, 2.0), (1, 2, 0.5), (2, 0, 1.25)],
            drifts: vec![1.0, -2.0, 0.0],
            variances: vec![0.5, 0.0, 3.0],
            initial: vec![0.2, 0.3, 0.5],
            t: 0.75,
            order: 3,
            note: String::new(),
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let case = sample_case();
        let round = VerifyCase::from_json(&case.to_json()).unwrap();
        assert_eq!(case, round);
    }

    #[test]
    fn build_produces_matching_model() {
        let case = sample_case();
        let m = case.build().unwrap();
        assert_eq!(m.n_states(), 3);
        assert_eq!(m.rates(), &case.drifts[..]);
        assert_eq!(m.generator().as_csr().get(2, 0), 1.25);
    }

    #[test]
    fn malformed_json_is_rejected_with_field_name() {
        let err = VerifyCase::from_json("{\"id\":\"x\"}").unwrap_err();
        assert!(err.contains("family"), "{err}");
        let mut json = sample_case().to_json();
        json = json.replace("\"mixed-sign\"", "\"no-such-family\"");
        assert!(VerifyCase::from_json(&json).unwrap_err().contains("unknown family"));
    }

    #[test]
    fn hostile_counts_are_rejected_before_any_allocation() {
        let json = sample_case().to_json();
        for (from, to, why) in [
            ("\"n_states\":3", "\"n_states\":1e15", "entries"),
            (
                "\"n_states\":3",
                "\"n_states\":1e19",
                "non-negative integer",
            ),
            ("\"n_states\":3", "\"n_states\":-5", "non-negative integer"),
            ("\"n_states\":3", "\"n_states\":2.5", "non-negative integer"),
            ("\"n_states\":3", "\"n_states\":2", "entries"),
            ("\"order\":3", "\"order\":17", "exceeds"),
            ("\"order\":3", "\"order\":-1", "non-negative integer"),
            ("[0,1,", "[-1,1,", "non-negative integer"),
            ("[1,2,", "[1.5,2,", "non-negative integer"),
        ] {
            assert_eq!(json.matches(from).count(), 1, "{from}");
            let err = VerifyCase::from_json(&json.replace(from, to)).unwrap_err();
            assert!(err.contains(why), "{to}: {err}");
        }
    }

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("bogus"), None);
    }
}
