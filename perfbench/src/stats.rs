//! Order statistics and small arithmetic shared by every workload. Kept
//! free of I/O so the unit tests below pin the rules the metrics rest on.

/// Percentiles a tail latency may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a percentile before it is
/// reported as a measured tail rather than a guess from a handful of runs.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples: the smallest
/// rank `r` with `r / n >= p / 100`.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // The epsilon keeps exact products such as 0.95 * 200 from rounding up
    // to the next rank through floating-point error.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// The highest percentile on [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Sort a sample ascending (times are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sample (the lower middle for an even count, which keeps it
/// an observed value).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Median throughput of a timed phase, operations per second. The
/// completion times (seconds from the phase start, ascending) are cut into
/// consecutive blocks of `per_block` operations; each whole block's rate is
/// `per_block` over its duration. A spell in which the host runs slow
/// stretches a few blocks and barely moves their median, where a count
/// over the whole elapsed time would carry the spell in full. Zero when no
/// block is whole.
pub fn median_block_rate(done_s: &[f64], per_block: usize) -> f64 {
    assert!(per_block > 0, "a block holds at least one operation");
    let mut edges = vec![0.0];
    edges.extend(done_s.iter().skip(per_block - 1).step_by(per_block));
    let rates: Vec<f64> = edges
        .windows(2)
        .map(|w| per_block as f64 / (w[1] - w[0]))
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    }
}

/// Share of the whole model's forward time that the timed parts explain:
/// the once-per-forward parts count once, the per-layer parts once per
/// layer. A value near 1 means the attribution is complete.
pub fn parts_coverage(once: &[f64], per_layer: &[f64], layers: usize, model: f64) -> f64 {
    assert!(model > 0.0, "model forward time must be positive");
    let total = once.iter().sum::<f64>() + layers as f64 * per_layer.iter().sum::<f64>();
    total / model
}

/// The `core.parts_coverage` a traced HTTP run must show. Below it the
/// parts miss work the model does; above it they count work twice. Single
/// runs on a noisy 2-vCPU host read 0.91-1.07, so the band leaves that
/// noise room and catches a drift of about 15% or more.
pub const COVERAGE_BAND: (f64, f64) = (0.85, 1.25);

/// Whether a coverage lies inside [`COVERAGE_BAND`], ends included.
pub fn coverage_in_band(coverage: f64) -> bool {
    (COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&coverage)
}

/// FNV-1a over a sequence of `f32` bit patterns: equal digests mean the
/// sequences are bit-identical (up to a 2^-64 collision chance).
pub fn digest_f32(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_counts() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 95.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(beyond(95.0, 200), 10);
        assert_eq!(beyond(95.0, 199), 9);
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
    }

    #[test]
    fn percentile_rule_walks_the_ladder() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // Every reported percentile really has ten samples beyond it.
        for n in 1..3000 {
            if let Some(p) = highest_supported_percentile(n) {
                assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn block_rate_is_blind_to_one_stall() {
        // An operation every 0.1 s, with a 2 s stall before the seventh:
        // the count over the elapsed time reads 12 / 3.1 s, the block
        // median 10/s.
        let mut done: Vec<f64> = (1..=12).map(|i| f64::from(i) * 0.1).collect();
        for t in done.iter_mut().skip(6) {
            *t += 1.9;
        }
        assert!((median_block_rate(&done, 2) - 10.0).abs() < 1e-9);
        assert!((median_block_rate(&done, 1) - 10.0).abs() < 1e-9);
        assert!(12.0 / done[11] < 4.0);
    }

    #[test]
    fn block_rate_counts_only_whole_blocks() {
        // Blocks of 3 over 7 completions: [0, 0.3] and [0.3, 0.9]; the
        // seventh completion starts a block that never closes.
        let done = [0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 5.0];
        assert!((median_block_rate(&done, 3) - 5.0).abs() < 1e-9);
        assert_eq!(median_block_rate(&done[..2], 3), 0.0);
    }

    #[test]
    fn coverage_counts_per_layer_parts_once_per_layer() {
        // 1 ms adaptive + 2 ms graph learner, then (3 + 4) ms per layer
        // over two layers: 17 ms of a 20 ms forward.
        let c = parts_coverage(&[1.0, 2.0], &[3.0, 4.0], 2, 20.0);
        assert!((c - 0.85).abs() < 1e-12);
        assert!((parts_coverage(&[], &[5.0], 1, 5.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_band_rejects_missing_and_double_counted_work() {
        assert!(coverage_in_band(0.85));
        assert!(coverage_in_band(1.0));
        assert!(coverage_in_band(1.25));
        assert!(!coverage_in_band(0.84));
        assert!(!coverage_in_band(1.26));
        assert!(!coverage_in_band(f64::NAN));
        // Dropping the 7 ms of per-layer parts from the 17-of-20 ms example
        // leaves 3 of 20 ms explained.
        assert!(!coverage_in_band(parts_coverage(&[1.0, 2.0], &[], 2, 20.0)));
    }

    #[test]
    fn digest_sees_one_ulp() {
        let a = [1.0f32, 2.0, 3.0];
        let mut b = a;
        b[2] = f32::from_bits(b[2].to_bits() + 1);
        assert_ne!(digest_f32(&a), digest_f32(&b));
        assert_ne!(digest_f32(&a), digest_f32(&[1.0, 3.0, 2.0]));
    }
}
