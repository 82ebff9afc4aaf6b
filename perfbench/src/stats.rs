//! Sample statistics, quality measures and the seeded arrival schedule.
//!
//! Everything here is pure and deterministic, so the helpers carry their
//! own unit tests (`cargo test --manifest-path perfbench/Cargo.toml`).

/// Nearest-rank quantile of `xs` at `q` in `[0, 1]` (sorted copy; `NaN`
/// for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon keeps `0.99 × 1000` from rounding up past rank 990.
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest of the usual tail percentiles (99.9, 99, 95, 90, 75, 50)
/// that has at least ten samples strictly beyond its nearest-rank
/// position, with its value: `(percentile, value)`. `None` when even the
/// median lacks ten samples above it (fewer than 20 samples), so a tail
/// is never read off a handful of points.
pub fn supported_tail(xs: &[f64]) -> Option<(f64, f64)> {
    supported_permille(xs.len()).map(|p| (p as f64 / 10.0, quantile(xs, p as f64 / 1000.0)))
}

/// The percentile, in permille, that [`supported_tail`] reads off `n`
/// samples (permille keeps the rank arithmetic exact).
fn supported_permille(n: usize) -> Option<usize> {
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&p| n - (p * n).div_ceil(1000) >= 10)
}

/// A tail read block by block: `xs` in arrival order is cut into
/// contiguous blocks of about `block` samples (at least one block; sizes
/// differ by at most one). Returns the percentile used — the highest that
/// [`supported_tail`] allows in the smallest block — and that percentile
/// of each block, in order. `None` when a block cannot support even the
/// median.
///
/// The median over the blocks of a heavy-tailed open-loop run is steadier
/// than one whole-run tail, which a single burst (or a neighbour taking
/// the CPU for a few seconds) can set on its own. Blocks of equal count,
/// not of equal time, keep the percentile the same in every block.
pub fn blocked_tail(xs: &[f64], block: usize) -> Option<(f64, Vec<f64>)> {
    let blocks = (xs.len() / block.max(1)).max(1);
    let (base, extra) = (xs.len() / blocks, xs.len() % blocks);
    let p = supported_permille(base)?;
    let mut rest = xs;
    let tails = (0..blocks)
        .map(|i| {
            let (head, tail) = rest.split_at(base + usize::from(i < extra));
            rest = tail;
            quantile(head, p as f64 / 1000.0)
        })
        .collect();
    Some((p as f64 / 10.0, tails))
}

/// Signal-to-quantization-noise ratio of `got` against `want`, in dB
/// (`+inf` when the two are identical).
pub fn sqnr_db(got: &[f32], want: &[f32]) -> f64 {
    assert_eq!(got.len(), want.len(), "SQNR needs equal-length signals");
    let (mut signal, mut noise) = (0.0f64, 0.0f64);
    for (&g, &w) in got.iter().zip(want) {
        signal += f64::from(w) * f64::from(w);
        let e = f64::from(g) - f64::from(w);
        noise += e * e;
    }
    if noise == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

/// Open-loop latency of one request, timed from when it was *due* to be
/// sent: how late the generator submitted it plus how long the server
/// took from admission to resolution. A generator stall therefore shows
/// in every request it delayed, not only in the one it was sending.
pub fn latency_from_due_s(due_s: f64, submitted_s: f64, served_s: f64) -> f64 {
    lateness_s(due_s, submitted_s) + served_s
}

/// How late a request left the generator (never negative: an early
/// send is on time).
pub fn lateness_s(due_s: f64, submitted_s: f64) -> f64 {
    (submitted_s - due_s).max(0.0)
}

/// SplitMix64: a tiny deterministic PRNG, so one seed always yields the
/// same inputs and the same schedule.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Bounded-Pareto inter-arrival schedule: `alpha = 1.5` on `[lo, hi]`,
/// rescaled so the mean gap is exactly `1 / rate_hz`. Heavy-tailed gaps
/// make bursts (and so queueing) without unbounded stalls.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    rng: SplitMix64,
    scale: f64,
    t: f64,
}

const PARETO_ALPHA: f64 = 1.5;
const PARETO_LO: f64 = 0.4;
const PARETO_HI: f64 = 8.0;

fn bounded_pareto_mean() -> f64 {
    let (a, l, h) = (PARETO_ALPHA, PARETO_LO, PARETO_HI);
    let la = l.powf(a);
    (la / (1.0 - (l / h).powf(a))) * (a / (a - 1.0)) * (l.powf(1.0 - a) - h.powf(1.0 - a))
}

impl ArrivalSchedule {
    /// A schedule of mean rate `rate_hz` drawn from `seed`.
    pub fn new(seed: u64, rate_hz: f64) -> Self {
        assert!(rate_hz > 0.0, "arrival rate must be positive");
        ArrivalSchedule {
            rng: SplitMix64::new(seed),
            scale: 1.0 / (rate_hz * bounded_pareto_mean()),
            t: 0.0,
        }
    }

    /// Due time (seconds from the schedule start) of the next arrival.
    pub fn next_due_s(&mut self) -> f64 {
        let (a, l, h) = (PARETO_ALPHA, PARETO_LO, PARETO_HI);
        let u = self.rng.uniform();
        let (la, ha) = (l.powf(a), h.powf(a));
        let gap = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a);
        self.t += gap * self.scale;
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        let xs = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly 10 beyond it; p99.9 has 1.
        assert_eq!(supported_tail(&xs(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(supported_tail(&xs(10_000)).map(|t| t.0), Some(99.9));
        // 999 samples: p99 has 9.99 beyond, so the tail falls to p95.
        assert_eq!(supported_tail(&xs(999)).map(|t| t.0), Some(95.0));
        assert_eq!(supported_tail(&xs(100)).map(|t| t.0), Some(90.0));
        assert_eq!(supported_tail(&xs(20)).map(|t| t.0), Some(50.0));
        assert_eq!(supported_tail(&xs(19)), None);
    }

    #[test]
    fn blocked_tail_reads_every_block_at_one_percentile() {
        // 650 samples in blocks of about 300: two blocks, 325 each, so
        // p95 (16 beyond) in both.
        let mut xs: Vec<f64> = (1..=325).map(f64::from).collect();
        xs.extend((1..=325).map(|i| 1000.0 + f64::from(i)));
        let (pct, tails) = blocked_tail(&xs, 300).expect("supported");
        assert_eq!(pct, 95.0);
        assert_eq!(tails, vec![309.0, 1309.0]);
        // Uneven split: 7 samples over blocks of 2 → 3 blocks of 3, 2, 2;
        // too few for any supported tail.
        assert!(blocked_tail(&xs[..7], 2).is_none());
        // Fewer samples than a block: one block of everything.
        let (pct, one) = blocked_tail(&xs[..100], 250).expect("supported");
        assert_eq!((pct, one.len()), (90.0, 1));
        assert_eq!(one[0], 90.0);
    }

    #[test]
    fn sqnr_matches_hand_computation() {
        // signal power 1+4 = 5, noise power 0.01+0 → 10·log10(500).
        let got = [1.1f32, 2.0];
        let want = [1.0f32, 2.0];
        let db = sqnr_db(&got, &want);
        assert!((db - 10.0 * 500f64.log10()).abs() < 1e-4, "{db}");
        assert_eq!(sqnr_db(&want, &want), f64::INFINITY);
    }

    #[test]
    fn lateness_counts_from_the_due_time() {
        // Sent 3 ms late, served in 5 ms: the user saw 8 ms.
        assert!((latency_from_due_s(1.000, 1.003, 0.005) - 0.008).abs() < 1e-12);
        // Sent early: latency is the service time alone.
        assert_eq!(latency_from_due_s(1.0, 0.9, 0.005), 0.005);
        assert_eq!(lateness_s(2.0, 1.5), 0.0);
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_hits_its_rate() {
        let take = |seed: u64| {
            let mut s = ArrivalSchedule::new(seed, 100.0);
            (0..20_000).map(|_| s.next_due_s()).collect::<Vec<_>>()
        };
        let a = take(7);
        assert_eq!(a, take(7), "same seed, same schedule");
        assert_ne!(a, take(8), "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[1] > w[0]), "due times increase");
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 100.0).abs() < 3.0, "mean rate {rate}");
    }
}
