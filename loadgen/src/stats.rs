//! Window statistics: sub-window medians and percentiles for one run, and
//! quartiles/spread across repeated runs.

/// One completed operation inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds after the window opened.
    pub done_ns: u64,
    /// Latency in nanoseconds (closed loop: send → reply; open loop: due → complete).
    pub lat_ns: u64,
    /// Index into the workload's operation-kind names.
    pub kind: u8,
}

/// A percentile only counts when at least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Sub-window counts tried in order; the first under which every sub-window
/// keeps [`MIN_BEYOND`] samples beyond its p99 is used.
const SUB_WINDOW_CHOICES: [usize; 4] = [10, 5, 2, 1];

/// Nearest rank (1-based) of the `per_mille`/1000 quantile among `n` samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of an ascending slice (`per_mille` 990 is p99).
pub fn percentile(sorted: &[u64], per_mille: usize) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// How many of `n` samples lie strictly beyond that percentile.
pub fn samples_beyond(n: usize, per_mille: usize) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the driver and `compare` hold against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The end-to-end numbers of one measured window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    pub throughput_ops_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub sub_windows: usize,
    pub samples: usize,
    /// Whole-run p99.9, when ten samples lie beyond it.
    pub p999_us: Option<f64>,
    /// The single slowest operation of the window.
    pub max_stall_ms: f64,
}

/// Summarise the successful samples of a window of `window_ns`: throughput is
/// the median sub-window completion rate, `p50`/`p99` the medians of the
/// sub-window medians/p99s. Fails when even the whole window leaves fewer
/// than [`MIN_BEYOND`] samples beyond its p99.
pub fn summarise(samples: &[Sample], window_ns: u64) -> Result<WindowStats, String> {
    let in_window: Vec<&Sample> = samples.iter().filter(|s| s.done_ns < window_ns).collect();
    for n in SUB_WINDOW_CHOICES {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n];
        for s in &in_window {
            let idx = (s.done_ns as u128 * n as u128 / window_ns as u128) as usize;
            buckets[idx.min(n - 1)].push(s.lat_ns);
        }
        if buckets
            .iter()
            .any(|b| b.is_empty() || samples_beyond(b.len(), 990) < MIN_BEYOND)
        {
            continue;
        }
        let sub_s = window_ns as f64 / n as f64 / 1e9;
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        for bucket in &mut buckets {
            bucket.sort_unstable();
            rates.push(bucket.len() as f64 / sub_s);
            p50s.push(percentile(bucket, 500) as f64 / 1e3);
            p99s.push(percentile(bucket, 990) as f64 / 1e3);
        }
        let mut all: Vec<u64> = in_window.iter().map(|s| s.lat_ns).collect();
        all.sort_unstable();
        return Ok(WindowStats {
            throughput_ops_s: median(&rates),
            p50_us: median(&p50s),
            p99_us: median(&p99s),
            sub_windows: n,
            samples: all.len(),
            p999_us: (samples_beyond(all.len(), 999) >= MIN_BEYOND)
                .then(|| percentile(&all, 999) as f64 / 1e3),
            max_stall_ms: *all.last().expect("non-empty window") as f64 / 1e6,
        });
    }
    Err(format!(
        "only {} samples in the window: fewer than {MIN_BEYOND} lie beyond p99, \
         so no p99 can be reported",
        in_window.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, window_ns: u64) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                done_ns: i as u64 * window_ns / n as u64,
                lat_ns: 1_000 + (i as u64 % 1_000) * 10,
                kind: 0,
            })
            .collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 500), 500);
        assert_eq!(percentile(&v, 990), 990);
        assert_eq!(percentile(&v, 1000), 1000);
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(samples_beyond(999, 990), 9);
        assert_eq!(samples_beyond(200, 990), 2);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        //   -> [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), Some((3.5, 31.0)));
        assert_eq!(median(&v), 13.5);
        assert!((spread(&v).unwrap() - 27.5 / 13.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn ten_sub_windows_when_each_keeps_ten_beyond_p99() {
        let window = 10_000_000_000;
        let stats = summarise(&uniform(20_000, window), window).unwrap();
        assert_eq!(stats.sub_windows, 10);
        assert_eq!(stats.samples, 20_000);
        assert!((stats.throughput_ops_s - 2_000.0).abs() < 1.0);
        // Latencies cycle 1.00..10.99 µs in every sub-window.
        assert!((stats.p50_us - 5.99).abs() < 0.02, "{}", stats.p50_us);
        assert!((stats.p99_us - 10.89).abs() < 0.02, "{}", stats.p99_us);
        assert!(stats.p999_us.is_some());
        assert!((stats.max_stall_ms - 0.01099).abs() < 1e-6);
    }

    #[test]
    fn fewer_sub_windows_for_sparse_runs_and_a_loud_failure_below_the_floor() {
        let window = 10_000_000_000;
        // 2 400 samples: 240 per tenth (2 beyond p99) but 1 200 per half (12 beyond).
        assert_eq!(
            summarise(&uniform(2_400, window), window)
                .unwrap()
                .sub_windows,
            2
        );
        assert_eq!(
            summarise(&uniform(1_000, window), window)
                .unwrap()
                .sub_windows,
            1
        );
        let err = summarise(&uniform(999, window), window).unwrap_err();
        assert!(err.contains("fewer than 10"), "{err}");
    }

    #[test]
    fn samples_past_the_window_are_ignored() {
        let window = 1_000_000_000;
        let mut samples = uniform(10_000, window);
        samples.push(Sample {
            done_ns: window + 5,
            lat_ns: 999_999_999,
            kind: 0,
        });
        let stats = summarise(&samples, window).unwrap();
        assert_eq!(stats.samples, 10_000);
        assert!(stats.max_stall_ms < 1.0);
    }
}
