//! Order statistics with the benchmark's sample-size rule: a percentile
//! is only reported when at least [`MIN_ABOVE`] samples lie above it, so
//! a tail number never rests on a handful of observations.
//!
//! Latency and throughput are reported as the median over consecutive
//! windows of a run. The host's processors are shared, and another
//! tenant's burst can stall a few seconds of a run; a whole-run
//! percentile moves with the burst, the median over windows does not.
//! Each latency percentile uses the shortest window the sample-size
//! rule allows for it: in balanced rounds of cases that differ in cost,
//! the p50 of `r` rounds is the slowest of `r` samples of one case, so a
//! long window would put the p50 on that case's tail.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_ABOVE: usize = 10;

/// Fewest completions per throughput window.
pub const WINDOW: usize = 100;

/// The throughput window for a closed loop running `round` cases per
/// round: the smallest whole number of rounds holding [`WINDOW`]
/// completions, so every window holds every case equally often.
pub fn window_for(round: usize) -> usize {
    WINDOW.div_ceil(round.max(1)) * round.max(1)
}

/// The window for latency percentile `q` of a loop running `round`
/// cases per round (1 for an open loop): the smallest whole number of
/// rounds holding the samples the sample-size rule needs for `q`.
pub fn percentile_window(round: usize, q: f64) -> usize {
    samples_needed(q).div_ceil(round.max(1)) * round.max(1)
}

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shortfall {
    /// Samples collected.
    pub samples: usize,
    /// Samples the rule needs at this percentile.
    pub needed: usize,
}

impl std::fmt::Display for Shortfall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} samples, {} needed for {MIN_ABOVE} above it", self.samples, self.needed)
    }
}

/// The 1-based nearest rank of quantile `q` in `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The smallest sample count for which quantile `q` has [`MIN_ABOVE`]
/// samples above its nearest rank.
pub fn samples_needed(q: f64) -> usize {
    let mut n = MIN_ABOVE + 1;
    while n - rank(q, n) < MIN_ABOVE {
        n += 1;
    }
    n
}

/// Nearest-rank percentile `q` (in `0..1`) of `sorted` (ascending),
/// refused when fewer than [`MIN_ABOVE`] samples lie above the rank.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, Shortfall> {
    let n = sorted.len();
    if n == 0 || n - rank(q, n) < MIN_ABOVE {
        return Err(Shortfall { samples: n, needed: samples_needed(q) });
    }
    Ok(sorted[rank(q, n) - 1])
}

/// The median over consecutive `window`-sample windows (in arrival
/// order; a trailing partial window is dropped) of each window's
/// percentile `q`, with the window count. Refused when a window has
/// fewer than [`MIN_ABOVE`] samples above its percentile, or no window
/// is full.
pub fn windowed_percentile(
    samples: &[f64],
    q: f64,
    window: usize,
) -> Result<(f64, usize), Shortfall> {
    let per_window: Vec<f64> = samples
        .chunks_exact(window)
        .map(|w| percentile(&sorted(w.to_vec()), q))
        .collect::<Result<_, _>>()
        .map_err(|s| Shortfall { samples: samples.len(), ..s })?;
    if per_window.is_empty() {
        return Err(Shortfall { samples: samples.len(), needed: window.max(samples_needed(q)) });
    }
    Ok((median(&per_window), per_window.len()))
}

/// The median over consecutive `window`-completion windows of the
/// completion rate, from completion times in seconds (ascending, timed
/// from the start of the measurement). `None` without a full window.
pub fn windowed_rate(done_at: &[f64], window: usize) -> Option<f64> {
    let rates: Vec<f64> = (0..done_at.len() / window)
        .map(|i| {
            let from = if i == 0 { 0.0 } else { done_at[i * window - 1] };
            window as f64 / (done_at[(i + 1) * window - 1] - from)
        })
        .collect();
    (!rates.is_empty()).then(|| median(&rates))
}

/// Median of a small set of repetitions (mean of the middle two for an
/// even count); `NaN` when empty. Set-up times use this: each run sets
/// up several times and reports the middle value.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts samples ascending (total order; timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_real_sample() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Ok(50.0));
        assert_eq!(percentile(&s, 0.9), Ok(90.0));
    }

    #[test]
    fn percentile_needs_ten_samples_above_it() {
        // p90 of 100 samples has exactly 10 above rank 90.
        assert!(percentile(&ramp(100), 0.9).is_ok());
        let short = percentile(&ramp(99), 0.9).unwrap_err();
        assert_eq!(short.samples, 99);
        assert_eq!(short.needed, 100);
        // p99 needs 1000 samples; p50 needs 20.
        assert_eq!(samples_needed(0.99), 1000);
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
        assert_eq!(samples_needed(0.5), 20);
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn every_reported_percentile_has_ten_above() {
        for n in 1..400 {
            let s = ramp(n);
            for q in [0.5, 0.9, 0.99] {
                if let Ok(v) = percentile(&s, q) {
                    assert!(s.iter().filter(|&&x| x > v).count() >= MIN_ABOVE, "n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn windowed_percentile_ignores_a_burst() {
        // Ten windows; one is ten times slower.
        let mut s: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        for x in &mut s[300..400] {
            *x *= 10.0;
        }
        assert_eq!(windowed_percentile(&s, 0.9, WINDOW), Ok((89.0, 10)));
        assert_eq!(windowed_percentile(&s, 0.5, WINDOW), Ok((49.0, 10)));
        // A whole-run p90 moves with the burst.
        assert!(percentile(&sorted(s.clone()), 0.9).unwrap() > 89.0);
        // Fewer than one window's worth of samples is refused, and so is
        // a window too short for ten samples above its p90.
        let short = windowed_percentile(&s[..99], 0.5, WINDOW).unwrap_err();
        assert_eq!((short.samples, short.needed), (99, WINDOW));
        assert!(windowed_percentile(&s, 0.9, 50).is_err());
    }

    #[test]
    fn windowed_rate_is_the_median_window_rate() {
        // 100 completions per second, except one window at a tenth of it.
        let mut t = 0.0;
        let mut done = Vec::new();
        for w in 0..5 {
            for _ in 0..WINDOW {
                t += if w == 2 { 0.1 } else { 0.01 };
                done.push(t);
            }
        }
        let rate = windowed_rate(&done, WINDOW).unwrap();
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert_eq!(windowed_rate(&done[..99], WINDOW), None);
    }

    #[test]
    fn windows_hold_whole_rounds() {
        assert_eq!(window_for(8), 104);
        assert_eq!(window_for(32), 128);
        assert_eq!(window_for(1), WINDOW);
        assert_eq!(percentile_window(8, 0.5), 24);
        assert_eq!(percentile_window(8, 0.9), 104);
        assert_eq!(percentile_window(1, 0.5), 20);
        assert_eq!(percentile_window(1, 0.9), 100);
        assert_eq!(percentile_window(32, 0.5), 32);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
