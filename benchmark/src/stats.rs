//! Order statistics used by every report: nearest-rank percentiles over
//! latency samples, the slice-median throughput, and the quartiles the
//! `repeat` subcommand compares against the bounds.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` and return their nearest-rank percentile.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// Median of a set of floats (mean of the middle two when even); 0 when
/// empty. NaNs sort last.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so `psbench repeat` reproduces the driver's arithmetic.
/// Needs at least two values; a single value is returned three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let n = 4usize;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile as a share of the median
/// — the spread the driver holds against a metric's bound.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / med.abs()
    }
}

/// Completed operations per second in `[start_ns, end_ns)`, reported as the
/// median over `slices` equal time slices so one noisy-neighbour stall does
/// not decide the run. `done_ns` holds one completion time per unit of work
/// (`weight` units each).
pub fn slice_median_throughput(
    done_ns: &[u64],
    weight: f64,
    start_ns: u64,
    end_ns: u64,
    slices: usize,
) -> f64 {
    if end_ns <= start_ns || slices == 0 {
        return 0.0;
    }
    let width = (end_ns - start_ns) as f64 / slices as f64;
    let mut counts = vec![0u64; slices];
    for &t in done_ns {
        if t >= start_ns && t < end_ns {
            let ix = (((t - start_ns) as f64 / width) as usize).min(slices - 1);
            counts[ix] += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 * weight / (width / 1e9))
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        let mut unsorted = vec![9, 1, 5];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 5);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // 5 slices of 1 s; 100 completions in each but the third, which
        // stalled completely.
        let mut done = Vec::new();
        for slice in [0u64, 1, 3, 4] {
            for i in 0..100 {
                done.push(slice * 1_000_000_000 + i * 10_000_000);
            }
        }
        let rate = slice_median_throughput(&done, 1.0, 0, 5_000_000_000, 5);
        assert_eq!(rate, 100.0);
        // Completions outside the segment are not counted.
        assert_eq!(
            slice_median_throughput(&done, 1.0, 5_000_000_000, 6_000_000_000, 5),
            0.0
        );
        // A weight turns batches into rows.
        assert_eq!(
            slice_median_throughput(&done, 100.0, 0, 5_000_000_000, 5),
            10_000.0
        );
    }
}
