//! Benchmark-floor checking: parse a metric out of a `BENCH_*.json`
//! snapshot and compare it against its acceptance floor.
//!
//! The CI gate used to scrape these files with
//! `grep -o "\"key\": [0-9.]*"`, which silently depends on the exact
//! byte layout the bench binaries happen to emit — one reformat (a
//! newline after the colon, scientific notation, a negative sign) and
//! the gate would fail with "missing metric" or, worse, truncate
//! `1.0e3` to `1.0` and pass a regression. This module is the
//! replacement: a real scan for the quoted key followed by a colon and
//! a full JSON number token, applied to every row of the floor table
//! in `scripts/ci.sh` through the `check_floor` binary.

use std::fmt;

/// Why a floor check failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FloorError {
    /// The key does not appear in the snapshot.
    Missing {
        /// The key that was looked for.
        key: String,
    },
    /// The key is present but its value does not parse as a number.
    NotANumber {
        /// The key whose value was malformed.
        key: String,
        /// The raw token found after the colon.
        found: String,
    },
    /// The metric parsed but sits below the floor.
    Below {
        /// The parsed metric.
        value: f64,
        /// The floor it had to clear.
        min: f64,
    },
}

impl fmt::Display for FloorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorError::Missing { key } => write!(f, "{key} missing"),
            FloorError::NotANumber { key, found } => {
                write!(f, "{key} is not a number: '{found}'")
            }
            FloorError::Below { value, min } => {
                write!(f, "{value} below the {min} floor")
            }
        }
    }
}

/// Extract the number stored under `"key"` in `json`.
///
/// Scans for the **last** occurrence of the quoted key followed by a
/// colon (matching the `grep | tail -1` behaviour the shell scraper
/// had, so snapshots that append runs keep reading the newest), then
/// parses the complete number token after it — optional sign, decimal
/// part, exponent. Whitespace (including newlines) around the colon is
/// fine. Returns `None` when the key never appears with a
/// colon-and-value shape.
#[must_use]
pub fn extract_raw<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut best = None;
    let mut from = 0;
    while let Some(pos) = json[from..].find(&needle) {
        let after_key = from + pos + needle.len();
        from = after_key;
        let rest = json[after_key..].trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            continue;
        };
        let rest = rest.trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        if end > 0 {
            best = Some(&rest[..end]);
        }
    }
    best
}

/// Check `json`'s `key` against `min`: `Ok(value)` when the metric is
/// present, numeric, and `>= min`.
///
/// # Errors
///
/// [`FloorError::Missing`] when the key is absent,
/// [`FloorError::NotANumber`] when its value token does not parse, and
/// [`FloorError::Below`] when the metric is under the floor — a bench
/// that did not produce its number never counts as a pass.
pub fn check(json: &str, key: &str, min: f64) -> Result<f64, FloorError> {
    let raw = extract_raw(json, key).ok_or_else(|| FloorError::Missing {
        key: key.to_owned(),
    })?;
    let value: f64 = raw.parse().map_err(|_| FloorError::NotANumber {
        key: key.to_owned(),
        found: raw.to_owned(),
    })?;
    if value.is_nan() || value < min {
        return Err(FloorError::Below { value, min });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{
  "bench": "automaton_fanout",
  "tuples": 200000,
  "speedup": 12.41
}
"#;

    #[test]
    fn reads_a_plain_metric() {
        assert_eq!(check(SNAPSHOT, "speedup", 10.0), Ok(12.41));
        assert_eq!(check(SNAPSHOT, "tuples", 100000.0), Ok(200000.0));
    }

    #[test]
    fn below_the_floor_fails() {
        assert_eq!(
            check(SNAPSHOT, "speedup", 20.0),
            Err(FloorError::Below {
                value: 12.41,
                min: 20.0
            })
        );
    }

    #[test]
    fn missing_key_fails_rather_than_passing() {
        assert!(matches!(
            check(SNAPSHOT, "window_speedup", 0.0),
            Err(FloorError::Missing { .. })
        ));
        // A key that only ever appears as a string value, never with a
        // colon after it, is still missing.
        assert!(matches!(
            check(r#"{"note": "speedup"}"#, "speedup", 0.0),
            Err(FloorError::Missing { .. })
        ));
    }

    #[test]
    fn layouts_the_grep_scraper_choked_on() {
        // Newline between colon and value.
        assert_eq!(check("{\"k\":\n  3.5}", "k", 1.0), Ok(3.5));
        // Scientific notation — grep's [0-9.]* would truncate at 'e'.
        assert_eq!(check(r#"{"k": 1.2e3}"#, "k", 1000.0), Ok(1200.0));
        // Negative values must fail a positive floor, not read as 1.0.
        assert_eq!(
            check(r#"{"k": -1.0}"#, "k", 0.5),
            Err(FloorError::Below {
                value: -1.0,
                min: 0.5
            })
        );
    }

    #[test]
    fn last_occurrence_wins() {
        let appended = r#"{"k": 1.0}
{"k": 9.0}"#;
        assert_eq!(check(appended, "k", 5.0), Ok(9.0));
    }

    #[test]
    fn malformed_number_is_loud() {
        assert!(matches!(
            check(r#"{"k": 1.2.3}"#, "k", 0.0),
            Err(FloorError::NotANumber { .. })
        ));
    }

    #[test]
    fn integer_floors_work_for_flags() {
        // bench_repl's `converged` flag is checked as `>= 1`.
        assert_eq!(check(r#"{"converged": 1}"#, "converged", 1.0), Ok(1.0));
        assert!(check(r#"{"converged": 0}"#, "converged", 1.0).is_err());
    }
}
