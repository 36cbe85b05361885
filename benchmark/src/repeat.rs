//! `psbench repeat`: run the suite as two independent sets of runs and hold
//! every `workload/metric` pair against its bound, the way the driver does:
//! the spread of a set is the distance between its first and third quartile
//! as a share of its median, and the second set's median may not be worse
//! than the first's by more than the bound.

use crate::report::RunOutcome;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_over_median, quartiles};

/// One `workload/metric` pair over two sets of runs.
pub struct Verdict {
    pub median: [f64; 2],
    pub spread: [f64; 2],
    /// How much worse the second median is than the first, as a share of
    /// the first (negative when it is better).
    pub worsening: f64,
    pub breach: bool,
}

/// Judge two sets of values of one metric.
pub fn judge(sets: [&[f64]; 2], better: &str, bound: f64, spread_is_gated: bool) -> Verdict {
    let median = [quartiles(sets[0])[1], quartiles(sets[1])[1]];
    let spread = [iqr_over_median(sets[0]), iqr_over_median(sets[1])];
    let change = if median[0] == 0.0 {
        0.0
    } else {
        (median[1] - median[0]) / median[0].abs()
    };
    let worsening = if better == "higher" { -change } else { change };
    let breach = worsening > bound || (spread_is_gated && spread.iter().any(|&s| s > bound));
    Verdict {
        median,
        spread,
        worsening,
        breach,
    }
}

/// Run `runs` runs of each workload twice over (`only` restricts to one
/// workload) and print the verdicts. Returns whether every pair held.
pub fn repeat(
    only: &Option<String>,
    runs: usize,
    seed: u64,
    seconds: f64,
    run: &dyn Fn(&str, u64) -> Result<RunOutcome, String>,
) -> Result<bool, String> {
    let runs = runs.max(3);
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| only.as_deref().is_none_or(|o| o == *w))
        .collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload {only:?}"));
    }
    // values[set][workload][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()]; 2];
    let mut all_correct = true;
    for (set, by_workload) in values.iter_mut().enumerate() {
        for (w, workload) in workloads.iter().enumerate() {
            for r in 0..runs {
                let run_seed = seed + (set * runs + r) as u64;
                let outcome = run(workload, run_seed)?;
                eprintln!(
                    "repeat: set {} {workload} seed {run_seed}: correct={} {}",
                    set + 1,
                    outcome.correct(),
                    END_TO_END
                        .iter()
                        .zip(outcome.e2e.in_order())
                        .map(|(m, v)| format!("{}={v:.4}", m.name))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                for e in &outcome.errors {
                    eprintln!("  oracle: {e}");
                }
                all_correct &= outcome.correct();
                for (slot, v) in by_workload[w].iter_mut().zip(outcome.e2e.in_order()) {
                    slot.push(v);
                }
            }
        }
    }
    println!("two sets of {runs} runs of {seconds} s; spread = (Q3 - Q1) / median; worsening = set 2 against set 1");
    println!(
        "{:<36} {:>12} {:>8} {:>12} {:>8} {:>10} {:>6}  verdict",
        "workload/metric", "median 1", "spread 1", "median 2", "spread 2", "worsening", "bound"
    );
    let mut held = all_correct;
    for (w, workload) in workloads.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let v = judge(
                [&values[0][w][m], &values[1][w][m]],
                metric.better,
                metric.bound,
                metric.name != "setup_s",
            );
            let widest = v.spread[0].max(v.spread[1]);
            let verdict = if v.breach {
                "BREACH"
            } else if metric.name != "setup_s" && widest > metric.bound / 3.0 {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            held &= !v.breach;
            println!(
                "{:<36} {:>12.4} {:>8.4} {:>12.4} {:>8.4} {:>+10.4} {:>6.2}  {verdict}",
                format!("{workload}/{}", metric.name),
                v.median[0],
                v.spread[0],
                v.median[1],
                v.spread[1],
                v.worsening,
                metric.bound
            );
        }
    }
    if !all_correct {
        println!("at least one run failed its oracles");
    }
    Ok(held)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_worse_second_median_or_a_wide_spread_breaches() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        // Lower is better: +15% breaches a 0.10 bound, -15% does not.
        assert!(judge([&steady, &slower], "lower", 0.10, true).breach);
        assert!(!judge([&slower, &steady], "lower", 0.10, true).breach);
        // Higher is better: the same change read the other way.
        assert!(!judge([&steady, &slower], "higher", 0.10, true).breach);
        assert!(judge([&slower, &steady], "higher", 0.10, true).breach);
        let v = judge([&steady, &steady], "lower", 0.10, true);
        assert!(!v.breach && v.worsening == 0.0);
        // A set whose quartiles are further apart than the bound breaches,
        // unless the metric's spread is not gated (setup_s).
        let wild = [60.0, 100.0, 140.0, 100.0, 100.0, 70.0, 130.0];
        assert!(judge([&wild, &wild], "lower", 0.10, true).breach);
        assert!(!judge([&wild, &wild], "lower", 0.10, false).breach);
    }
}
