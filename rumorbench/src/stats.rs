//! Order statistics for latency samples, seed derivation and the outcome
//! digest.

use rumor_core::BroadcastOutcome;

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Samples per window of [`windowed_tail`]: a full window's tail is its
/// 90th percentile.
pub const TAIL_WINDOW: usize = 100;

/// The median of `samples` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest percentile of a sample set that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 · rank / samples`.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// Windows the samples were cut into (see [`windowed_tail`]).
    pub windows: usize,
}

/// With `n` sorted samples, rank `r` (1-based) has `n − r` samples above it,
/// so the highest rank with `TAIL_BEYOND` beyond it is `n − TAIL_BEYOND`.
/// `None` when there are too few samples for any rank to qualify.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = n.checked_sub(TAIL_BEYOND).filter(|&r| r >= 1)?;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        windows: 1,
    })
}

/// The tail of a run, steadied: `samples`, in the order they were taken,
/// are cut into `max(1, n / TAIL_WINDOW)` consecutive windows of near-equal
/// size, [`tail`] is taken in each, and the median window's tail is
/// reported (value and percentile are medians over windows; `samples` is
/// the total). One stretch of host interference moves one window, not the
/// result. Runs with fewer than `2 · TAIL_WINDOW` samples are one window,
/// where this equals [`tail`].
pub fn windowed_tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let k = (n / TAIL_WINDOW).max(1);
    let tails = (0..k)
        .map(|i| tail(&samples[i * n / k..(i + 1) * n / k]))
        .collect::<Option<Vec<Tail>>>()?;
    let of = |f: fn(&Tail) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>());
    Some(Tail {
        value: of(|t| t.value)?,
        percentile: of(|t| t.percentile)?,
        samples: n,
        windows: k,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a-64 over each outcome's rounds, informed counts and messages: the
/// outcome digest two builds compare.
pub fn outcome_digest<'a>(outcomes: impl IntoIterator<Item = &'a BroadcastOutcome>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in outcomes {
        let words = [
            o.rounds,
            o.informed_vertices as u64,
            o.informed_agents as u64,
            o.total_messages,
        ];
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64 over `(seed, index)`: independent per-op seeds from one
/// workload seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the rule must sort first.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        for n in 0..=TAIL_BEYOND {
            assert_eq!(tail(&ramp(n)), None, "n = {n}");
        }
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_qualifying_rank() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        // Exactly ten samples lie above the reported value.
        let samples = ramp(37);
        let t = tail(&samples).unwrap();
        assert_eq!(
            samples.iter().filter(|&&x| x > t.value).count(),
            TAIL_BEYOND
        );
    }

    #[test]
    fn windowed_tail_is_the_median_window_tail() {
        // Under two windows' worth of samples it is the plain tail.
        let samples = ramp(2 * TAIL_WINDOW - 1);
        assert_eq!(windowed_tail(&samples), tail(&samples));
        assert_eq!(windowed_tail(&ramp(5)), None);
        // Five windows of 100: four of 1..=100 and one slow stretch. Each
        // window's tail is its 90th sample; the slow window does not move
        // the median.
        let mut samples: Vec<f64> = (0..4).flat_map(|_| ramp(100)).collect();
        samples.extend(ramp(100).iter().map(|x| x * 50.0));
        let t = windowed_tail(&samples).unwrap();
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        assert_eq!((t.samples, t.windows), (500, 5));
        // 250 samples make two windows of 125: ranks 115 and 240.
        let t = windowed_tail(&(1..=250).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((t.value, t.windows), ((115.0 + 240.0) / 2.0, 2));
        assert_eq!(t.percentile, 100.0 * 115.0 / 125.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }
}
