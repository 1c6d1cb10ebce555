//! Order statistics for the benchmark's reports.
//!
//! Percentiles are nearest-rank: the value at 1-based rank
//! `ceil(p/100 · n)` of the sorted sample, as
//! `els_bench::server_load::percentile` computes them. A reported
//! percentile must have at least [`MIN_BEYOND`] samples above it, so a
//! tail figure never rests on one or two outliers.

use std::time::Duration;

use els_bench::server_load::percentile;

/// Samples a reported percentile needs strictly above it.
pub const MIN_BEYOND: usize = 10;

/// A latency sample in nanoseconds. Four bytes a sample keep the
/// benchmark's own buffers small next to the engine's memory, whatever
/// the read rate; samples saturate at about 4.3 s.
pub type Nanos = u32;

/// A duration as a [`Nanos`] sample.
pub fn nanos(d: Duration) -> Nanos {
    Nanos::try_from(d.as_nanos()).unwrap_or(Nanos::MAX)
}

/// Samples as sorted durations. Sorted input makes every later
/// percentile call's own sort linear.
pub fn durations(samples: &[Nanos]) -> Vec<Duration> {
    let mut out: Vec<Duration> =
        samples.iter().map(|&ns| Duration::from_nanos(ns.into())).collect();
    out.sort_unstable();
    out
}

/// Nearest-rank percentile `p` of a sample, in milliseconds; 0 when empty.
pub fn percentile_ms(samples: &[Duration], p: f64) -> f64 {
    percentile(samples, p).as_secs_f64() * 1e3
}

/// [`percentile_ms`] that also enforces the [`MIN_BEYOND`] rule: `Err`
/// names the shortfall when fewer than ten samples lie above the value.
pub fn percentile_checked(samples: &[Duration], p: f64) -> Result<f64, String> {
    let value = percentile(samples, p);
    let beyond = samples.iter().filter(|&&s| s > value).count();
    if samples.is_empty() || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {} samples leaves {beyond} above it, need {MIN_BEYOND}",
            samples.len()
        ));
    }
    Ok(value.as_secs_f64() * 1e3)
}

/// Nearest-rank percentile of q-errors (ratios, not durations); 1 when
/// empty.
pub fn qerror_percentile(mut qerrors: Vec<f64>, p: f64) -> f64 {
    qerrors.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * qerrors.len() as f64).ceil() as usize;
    qerrors.get(rank.max(1) - 1).copied().unwrap_or(1.0)
}

/// One cycle of a fixed mix: each item repeated its count of times, the
/// `k`-th of `n` copies at `(k + 1/2) / n` of the way through, so every
/// class is spread evenly over the cycle.
pub fn interleave<T: Copy>(counts: &[(T, usize)]) -> Vec<T> {
    let mut slots: Vec<(f64, usize, T)> = Vec::new();
    for (order, &(item, n)) in counts.iter().enumerate() {
        slots.extend((0..n).map(|k| ((k as f64 + 0.5) / n as f64, order, item)));
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, _, item)| item).collect()
}

/// Where percentile `p` falls in a mix whose classes have the given
/// shares (summing to 1) in ascending order of cost: the class, the
/// quantile within that class, and the distance in percentage points to
/// the nearest class boundary.
///
/// The machine this benchmark runs on alternates between a fast and a
/// slow state, which splits every class into two modes whose boundary
/// moves with the share of time spent fast. A percentile at a high
/// quantile of its class stays in the slow mode unless nearly the whole
/// run was fast; one at a low quantile flips between the modes.
#[cfg(test)]
pub fn rank_in_mix(shares_by_cost: &[f64], p: f64) -> (usize, f64, f64) {
    let mut start = 0.0;
    for (class, share) in shares_by_cost.iter().enumerate() {
        let end = start + share * 100.0;
        if p < end || class + 1 == shares_by_cost.len() {
            let margin = (p - start).min(end - p);
            return (class, (p - start) / (end - start), margin);
        }
        start = end;
    }
    (0, 0.0, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(values: impl Iterator<Item = u64>) -> Vec<Duration> {
        values.map(Duration::from_millis).collect()
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let data = ms(1..=100);
        assert_eq!(percentile_ms(&data, 50.0), 50.0);
        assert_eq!(percentile_ms(&data, 95.0), 95.0);
        assert_eq!(percentile_ms(&ms(1..=10), 50.0), 5.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
        assert_eq!(qerror_percentile(vec![3.0, 1.0, 2.0, 4.0], 50.0), 2.0);
        assert_eq!(qerror_percentile(vec![3.0, 1.0, 2.0, 4.0], 95.0), 4.0);
        assert_eq!(qerror_percentile(Vec::new(), 95.0), 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 samples sits at rank 190: exactly ten above it.
        assert_eq!(percentile_checked(&ms(1..=200), 95.0), Ok(190.0));
        // 199 samples: rank 190, nine above -> refused.
        assert!(percentile_checked(&ms(1..=199), 95.0).is_err());
        // p50 needs only twenty.
        assert_eq!(percentile_checked(&ms(1..=20), 50.0), Ok(10.0));
        assert!(percentile_checked(&ms(1..=19), 50.0).is_err());
        assert!(percentile_checked(&[], 50.0).is_err());
        // Ties with the percentile do not count as beyond it.
        let mut tied = ms(std::iter::repeat_n(5, 195));
        tied.extend(ms(6..=10));
        assert!(percentile_checked(&tied, 95.0).is_err());
    }

    #[test]
    fn samples_round_trip_through_nanos() {
        let samples = [nanos(Duration::from_micros(30)), nanos(Duration::from_micros(10))];
        assert_eq!(durations(&samples), vec![Duration::from_micros(10), Duration::from_micros(30)]);
        assert_eq!(nanos(Duration::from_secs(10)), Nanos::MAX);
    }

    #[test]
    fn rank_in_mix_finds_the_class_and_the_quantile_within_it() {
        let (class, q, margin) = rank_in_mix(&[0.4, 0.3, 0.3], 50.0);
        assert_eq!(class, 1);
        assert!((q - 1.0 / 3.0).abs() < 1e-9 && (margin - 10.0).abs() < 1e-9);
        let (class, q, margin) = rank_in_mix(&[0.55, 0.45], 95.0);
        assert_eq!(class, 1);
        assert!((q - 40.0 / 45.0).abs() < 1e-9 && (margin - 5.0).abs() < 1e-9);
        let (class, q, _) = rank_in_mix(&[1.0], 50.0);
        assert_eq!((class, q), (0, 0.5));
    }

    #[test]
    fn interleave_spreads_each_class_over_the_cycle() {
        let cycle = interleave(&[('a', 3), ('b', 1)]);
        assert_eq!(cycle, vec!['a', 'a', 'b', 'a']);
        let cycle = interleave(&[(8, 11), (9, 9)]);
        assert_eq!(cycle.len(), 20);
        assert_eq!(cycle.iter().filter(|&&d| d == 9).count(), 9);
        // No two depth-9 reads in a row.
        assert!(cycle.windows(2).all(|w| w != [9, 9]));
    }
}
