//! Order statistics over samples.

/// Nearest-rank percentile of ascending `sorted` (`p` in 0..=1); NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of unsorted samples (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Interquartile mean of unsorted samples: the mean of what is left after the
/// fastest and slowest quarter are dropped; NaN when empty. On a shared host a
/// run's samples fall into fast and slow stretches, and the median of a
/// handful of them jumps between the two; this mean moves by one sample's
/// share instead, and still ignores the rare stall.
pub fn iq_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return f64::NAN;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Mean of the fastest third of unsorted samples (at least one); NaN when
/// empty. For whole operations such as a fit, where no inner median filters
/// the host's interference: busy stretches of a shared host lengthen some of
/// a run's operations and leave others alone, and how many they hit drifts
/// over minutes, so the fastest third follow the program's own cost where a
/// mean or median follows the host's load.
pub fn fast_third_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[..sorted.len().div_ceil(3)];
    if kept.is_empty() {
        return f64::NAN;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
