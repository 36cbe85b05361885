//! What a run produces and how it is printed: the one JSON line the driver
//! reads on standard output, and a readable table on standard error.

use crate::spec::{END_TO_END, PER_LAYER};

/// The gated end-to-end metrics of one run (see `benchmark/README.md` for
/// the definitions).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEndValues {
    pub ops_per_s: f64,
    pub ack_p50_us: f64,
    pub notify_p50_us: f64,
    pub select_p50_us: f64,
    pub within_limit: f64,
    pub server_cpu_us_per_op: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
}

impl EndToEndValues {
    /// Values in the order of [`END_TO_END`].
    pub fn in_order(&self) -> [f64; 8] {
        [
            self.ops_per_s,
            self.ack_p50_us,
            self.notify_p50_us,
            self.select_p50_us,
            self.within_limit,
            self.server_cpu_us_per_op,
            self.peak_rss_mb,
            self.setup_s,
        ]
    }
}

/// Per-layer values by name; a layer that did not run stays at 0.
#[derive(Debug, Clone, Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unlisted layer metric {name}"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Everything one run of one workload found.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Operations attempted in the measured segments.
    pub attempted: u64,
    /// Of those, how many failed: errors, refusals, missing or duplicate
    /// notifications, oracle mismatches.
    pub failed: u64,
    /// What the oracles found wrong, for the report.
    pub errors: Vec<String>,
    pub e2e: EndToEndValues,
    pub layers: LayerValues,
    /// Client-side spans; filled only by a traced run.
    pub spans: crate::trace::SpanLog,
}

impl RunOutcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Record an oracle finding (the first few are kept verbatim).
    pub fn fault(&mut self, what: String) {
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// The client-side per-layer values every workload reports. `valid` is the
/// verdict on its paced segment: an invalid one is reported, not failed —
/// on a shared machine it is usually the neighbours' doing.
#[allow(clippy::too_many_arguments)]
pub fn client_layers(
    out: &mut RunOutcome,
    ack_p99: f64,
    notify_p99: f64,
    select_p99: f64,
    gen_lag_p99_us: f64,
    achieved: f64,
    valid: bool,
) {
    if !valid {
        eprintln!(
            "psbench: paced segment INVALID: generator lag p99 {gen_lag_p99_us:.0} us, achieved/offered {achieved:.4}"
        );
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let l = &mut out.layers;
    l.set("psrpc.client.ack_p99_us", ack_p99);
    l.set("psrpc.client.notify_p99_us", notify_p99);
    l.set("psrpc.client.select_p99_us", select_p99);
    l.set("psrpc.client.gen_lag_p99_us", gen_lag_p99_us);
    l.set("psrpc.client.achieved_rate_ratio", achieved);
    l.set("psrpc.client.paced_valid", f64::from(u8::from(valid)));
    l.set("psrpc.client.failed_ratio", failed_ratio);
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits that were measured.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &RunOutcome, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, outcome.layers.get(m.name), m.unit))
            .map(metric_json)
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(outcome.e2e.in_order())
            .map(|(m, v)| (m.name, v, m.unit))
            .map(metric_json)
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn metric_json((name, value, unit): (&str, f64, &str)) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_string(name),
        json_number(value),
        json_string(unit)
    )
}

/// The same numbers for a person, on standard error.
pub fn print_table(workload: &str, outcome: &RunOutcome, traced: bool) {
    eprintln!(
        "psbench {workload}: correct={} attempted={} failed={}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for e in &outcome.errors {
        eprintln!("  oracle: {e}");
    }
    if traced {
        for m in &PER_LAYER {
            eprintln!(
                "  {:<46} {:>16.3} {}",
                m.name,
                outcome.layers.get(m.name),
                m.unit
            );
        }
    } else {
        for (m, v) in END_TO_END.iter().zip(outcome.e2e.in_order()) {
            eprintln!("  {:<24} {:>16.3} {}", m.name, v, m.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut o = RunOutcome {
            attempted: 10,
            ..RunOutcome::default()
        };
        o.e2e.ops_per_s = 1234.5678;
        let line = result_line(&o, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        o.layers.set("gapl.compile_us", 3.5);
        let traced = result_line(&o, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"gapl.compile_us\": {\"value\": 3.5, \"unit\": \"us\"}"));
        assert!(!line.contains('\n') && !traced.contains('\n'));
    }

    #[test]
    fn a_fault_makes_the_run_incorrect() {
        let mut o = RunOutcome::default();
        assert!(o.correct());
        o.fault("x".into());
        assert!(!o.correct());
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
