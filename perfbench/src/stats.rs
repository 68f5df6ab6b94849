//! Order statistics and interval arithmetic shared by the end-to-end and
//! per-layer reports.

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of the `p`-th percentile among `n`
/// samples: the smallest rank with at least `p`% of samples at or
/// below it.
pub fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of ascending `sorted`; 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// `values` sorted ascending, infinities last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `p`-th percentile of each group of consecutive `values`: as many
/// equal groups as fit `min_group` samples each (at least one group), so
/// every group holds at least `min_group` samples when there are that
/// many; a remainder too small for a group joins none.
pub fn group_percentiles(values: &[f64], min_group: usize, p: f64) -> Vec<f64> {
    let groups = (values.len() / min_group.max(1)).max(1);
    let size = (values.len() / groups).max(1);
    values
        .chunks(size)
        .take(groups)
        .map(|g| percentile(&sorted(g.to_vec()), p))
        .collect()
}

/// Median of a small set of measurements (e.g. repeated set-ups).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Smallest of a set of measurements; 0 for none.
pub fn min(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.0)
}

/// Length of `parent` not covered by the union of `children`, each
/// clipped to `parent`. Intervals are half-open `[start, end)` in any
/// unit; children may overlap one another and stick out of the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (pe - ps.min(pe)) - covered
}

/// Open-loop latency in microseconds of a request that was due at
/// `due_ns` and answered at `done_ns` (nanoseconds on one clock):
/// timed from the schedule, not from when the generator got round to
/// sending it, so a stall also charges every request queued behind it.
/// A request that failed (`done` is `None`) is over any limit.
pub fn latency_from_due_us(due_ns: u64, done_ns: Option<u64>) -> f64 {
    match done_ns {
        Some(done) => done.saturating_sub(due_ns) as f64 / 1e3,
        None => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert!(!supports(999, 99.0), "999 samples leave 9 beyond p99");
        assert!(supports(1000, 99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn groups_hold_at_least_the_minimum() {
        let v: Vec<f64> = (0..2500).map(f64::from).collect();
        let g = group_percentiles(&v, 1000, 50.0);
        // Two groups of 1250; the last 0 samples join none.
        assert_eq!(g, vec![624.0, 1874.0]);
        // Fewer samples than one group: one group of everything.
        assert_eq!(group_percentiles(&v[..10], 1000, 100.0), vec![9.0]);
        // A stall in one group leaves the other groups' tails alone, so
        // the median over groups ignores it; a slowdown in most groups
        // moves it.
        let mut w = vec![1.0; 3000];
        w[100..130].fill(500.0);
        let g = group_percentiles(&w, 1000, 99.0);
        assert_eq!(g, vec![500.0, 1.0, 1.0]);
        assert_eq!(median(&g), 1.0);
        w[1100..1130].fill(500.0);
        assert_eq!(median(&group_percentiles(&w, 1000, 99.0)), 500.0);
        assert_eq!(min(&g), 1.0);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 40)]), 80);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 50), (40, 60)]), 50);
        // Nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // No children: the whole span is self time.
        assert_eq!(self_time((5, 9), &[]), 4);
        // Touching intervals merge without double counting.
        assert_eq!(self_time((0, 10), &[(0, 5), (5, 10)]), 0);
    }

    #[test]
    fn open_loop_latency_is_timed_from_the_due_time() {
        // Sent late (at 900 µs) but due at 500 µs: the wait before the
        // send counts, because only the due and answer times enter.
        let (due, _sent, done) = (500_000, 900_000, 1_150_000);
        assert!((latency_from_due_us(due, Some(done)) - 650.0).abs() < 1e-9);
        let failed = latency_from_due_us(due, None);
        assert!(failed.is_infinite());
        // A failure sorts beyond every success, so it raises p99.
        let mut v: Vec<f64> = vec![100.0; 980];
        v.extend(std::iter::repeat_n(f64::INFINITY, 20));
        let v = sorted(v);
        assert!(percentile(&v, 99.0).is_infinite());
        assert_eq!(percentile(&v, 50.0), 100.0);
    }
}
