//! Seeded inputs for a run: derived seeds and open-loop arrival
//! schedules.
//!
//! Everything a run feeds the program — model seeds, input values,
//! request order, arrival times — derives from the one `--seed` through
//! [`derive`], so the same seed always produces the same run inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Independent sub-seed number `stream` of `seed` (SplitMix64 finaliser
/// over the pair), so each consumer draws from its own sequence.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Poisson arrivals at `rate_per_s` over `[0, span)`: offsets from the
/// window start, ascending, with exponentially distributed gaps.
///
/// # Panics
///
/// Panics when `rate_per_s` is not a positive finite number.
pub fn poisson(seed: u64, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    assert!(
        rate_per_s.is_finite() && rate_per_s > 0.0,
        "rate must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let end = span.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((end * rate_per_s * 1.1) as usize + 16);
    loop {
        // u in [0, 1): -ln(1 - u) is a unit exponential, finite for all u.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// A seeded sequence of `len` indices into a pool of `pool` items: the
/// order in which a caller draws its inputs.
pub fn draw_order(seed: u64, pool: usize, len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..pool)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_per_seed() {
        let span = Duration::from_secs(2);
        let a = poisson(7, 2000.0, span);
        let b = poisson(7, 2000.0, span);
        let c = poisson(8, 2000.0, span);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(a.iter().all(|&t| t < span), "offsets stay inside the span");
    }

    #[test]
    fn schedule_runs_at_its_stated_mean_rate() {
        // 200 000 expected arrivals: the count's standard deviation is
        // ~450 (0.22 %), so 1 % is a > 4-sigma bound.
        for (seed, rate) in [(1u64, 2000.0f64), (2, 250.0), (3, 500.0)] {
            let secs = 200_000.0 / rate;
            let s = poisson(seed, rate, Duration::from_secs_f64(secs));
            let observed = s.len() as f64 / secs;
            assert!(
                (observed / rate - 1.0).abs() < 0.01,
                "seed {seed}: {observed:.1}/s against {rate}/s"
            );
            // Exponential gaps: the coefficient of variation is 1.
            let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            let cv = var.sqrt() / mean;
            assert!((cv - 1.0).abs() < 0.02, "seed {seed}: gap CV {cv:.3}");
        }
    }

    #[test]
    fn derived_seeds_and_orders_are_stable() {
        assert_eq!(derive(5, 1), derive(5, 1));
        assert_ne!(derive(5, 1), derive(5, 2));
        assert_ne!(derive(5, 1), derive(6, 1));
        let o = draw_order(derive(5, 3), 10, 1000);
        assert_eq!(o, draw_order(derive(5, 3), 10, 1000));
        assert!(o.iter().all(|&i| i < 10));
    }
}
