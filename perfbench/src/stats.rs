//! Order statistics over measured samples, with the workspace's own
//! percentile semantics (`fair_trace::stats::percentile_index`), so a
//! benchmark p99 and a record's p99 pick the same order statistic.

use fair_trace::stats::{percentile_index, P50, P99};

/// Basis points of the 90th percentile.
pub const P90: u32 = 9_000;

/// The `bp`-basis-point order statistic of `samples` (sorted here);
/// `None` for an empty batch.
pub fn percentile(samples: &[f64], bp: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(percentile_index(sorted.len(), bp)).copied()
}

/// The median (the P50 order statistic).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, P50)
}

/// The 99th-percentile order statistic.
pub fn p99(samples: &[f64]) -> Option<f64> {
    percentile(samples, P99)
}

/// How many samples lie strictly beyond the `bp` order statistic — a
/// percentile is only reported when at least ten do.
pub fn samples_beyond(count: usize, bp: u32) -> usize {
    if count == 0 {
        return 0;
    }
    count - 1 - percentile_index(count, bp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_the_workspace_index_rule() {
        // 1..=100: index round(99 · 0.5) = 50 (49.5 rounds up) → 51;
        // round(99 · 0.99) = 98 → 99 — the same picks simlab's latency
        // summary makes for the same batch.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), Some(51.0));
        assert_eq!(p99(&v), Some(99.0));
        let lat = fair_simlab::LatencySummary::from_samples((1..=100).collect()).unwrap();
        assert_eq!(median(&v), Some(lat.p50_ns as f64));
        assert_eq!(p99(&v), Some(lat.p99_ns as f64));
        // 51 samples: the exact halfway case 49.5 picks index 50.
        let w: Vec<f64> = (0..51).map(f64::from).collect();
        assert_eq!(p99(&w), Some(50.0));
        // Two samples: the median rounds up to the larger.
        assert_eq!(median(&[10.0, 2.0]), Some(10.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_support_counts_samples_beyond_the_index() {
        assert_eq!(samples_beyond(1000, P99), 10);
        assert_eq!(samples_beyond(999, P99), 10);
        assert_eq!(samples_beyond(100, P90), 10);
        assert_eq!(samples_beyond(99, P90), 10);
        assert_eq!(samples_beyond(90, P90), 9);
        assert_eq!(samples_beyond(0, P50), 0);
    }
}
