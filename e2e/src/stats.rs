//! Estimators. Rule 2 of the README: a run is many short epochs of
//! identical work, and each metric is read off the distribution of
//! per-epoch values at the end the host's slow phases do not reach.

/// Nearest-rank percentile of `values` (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile of integer samples, reordering them.
pub fn percentile_ns(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1 as f64
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver judges
/// run-to-run spread with that function, so `compare` and `repeat`
/// use the same one).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// How a per-epoch series becomes the reported value. The host's
/// noise is one-sided (a neighbour's cache traffic slows an epoch,
/// nothing speeds one up), so both read the good end of the series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimator {
    /// Rates: high is good.
    HighEnd,
    /// Latencies and durations: low is good.
    LowEnd,
}

/// The run is read in this many consecutive blocks.
const BLOCKS: usize = 8;

/// The value of a block with ten epochs beyond it toward the good end
/// (fewer in a short block): the highest percentile that still has
/// samples behind it.
fn good_end(block: &[f64], how: Estimator) -> f64 {
    let mut v = block.to_vec();
    v.sort_by(f64::total_cmp);
    let beyond = (v.len() / 10).min(10);
    match how {
        Estimator::HighEnd => v[v.len() - 1 - beyond],
        Estimator::LowEnd => v[beyond],
    }
}

/// A reported value with the spread of the epochs behind it.
pub struct Estimate {
    pub value: f64,
    pub note: String,
}

/// The second best of the run's blocks, each read at its good end.
/// Blocks, because state ages over a run (reads slow by some 10 % as
/// the heap scatters), so the best epochs of the whole run would all
/// be early ones; the better blocks, because a neighbour's burst lasts
/// ten seconds and more and spoils several blocks on end, so the
/// calmest stretch of the run is the one to report — and the second
/// best rather than the best, so that another block confirms it.
pub fn estimate(per_epoch: &[f64], how: Estimator) -> Estimate {
    assert!(!per_epoch.is_empty(), "a run has epochs");
    let size = per_epoch.len().div_ceil(BLOCKS);
    let blocks: Vec<f64> = per_epoch.chunks(size).map(|b| good_end(b, how)).collect();
    let mut ranked = blocks.clone();
    ranked.sort_by(f64::total_cmp);
    if how == Estimator::HighEnd {
        ranked.reverse();
    }
    let (q1, med, q3) = quartiles(per_epoch);
    Estimate {
        value: ranked[1.min(ranked.len() - 1)],
        note: format!(
            "second best of the good ends of {} blocks ({}); all {} epochs: median {med:.4}, quartiles {q1:.4}..{q3:.4}",
            blocks.len(),
            blocks.iter().map(|b| format!("{b:.4}")).collect::<Vec<_>>().join(", "),
            per_epoch.len()
        ),
    }
}
