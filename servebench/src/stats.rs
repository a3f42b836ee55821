//! The benchmark's own arithmetic: the percentile rule, medians, and
//! span self time.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: the percentile actually used, its value,
/// and the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile used (at most the one asked for).
    pub pct: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples there were.
    pub samples: usize,
}

/// The nearest-rank `pct`-th percentile of `sorted`, falling back to the
/// highest whole percentile that still has at least [`MIN_BEYOND`]
/// samples beyond it. `None` when even the median has fewer.
pub fn percentile(sorted: &[f64], pct: u32) -> Option<Pct> {
    let n = sorted.len();
    (50.min(pct)..=pct).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (rank + MIN_BEYOND <= n).then(|| Pct {
            pct: p,
            value: sorted[rank - 1],
            samples: n,
        })
    })
}

/// The median of `values` (mean of the middle two for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A span's self time: its duration minus the part of `[start, end)`
/// that the union of its children's intervals covers. Children may
/// overlap each other and may stick out of the parent (clocks of
/// different processes); only the covered part inside the parent counts.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 beyond it.
        let p = percentile(&ramp(1000), 99).unwrap();
        assert_eq!((p.pct, p.value, p.samples), (99, 990.0, 1000));
        // 999 samples: p99 would leave 9, so p98 (rank 980, 19 beyond).
        let p = percentile(&ramp(999), 99).unwrap();
        assert_eq!((p.pct, p.value), (98, 980.0));
        // 200 samples: p95 is the highest with 10 beyond.
        let p = percentile(&ramp(200), 99).unwrap();
        assert_eq!((p.pct, p.value), (95, 190.0));
    }

    #[test]
    fn median_percentile_and_too_few_samples() {
        assert_eq!(percentile(&ramp(100), 50).unwrap().value, 50.0);
        assert_eq!(percentile(&ramp(20), 50).unwrap().value, 10.0);
        // 19 samples: the median leaves 9 beyond, nothing qualifies.
        assert_eq!(percentile(&ramp(19), 99), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 80)]), 60);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60), (35, 50)]), 50);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time(100, 200, &[(90, 120), (190, 260)]), 70);
        // A child entirely outside covers nothing.
        assert_eq!(self_time(100, 200, &[(0, 50)]), 100);
        // Full cover leaves zero.
        assert_eq!(self_time(0, 100, &[(0, 60), (60, 100)]), 0);
    }
}
