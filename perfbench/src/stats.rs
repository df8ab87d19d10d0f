//! Small measurement helpers: percentiles, peak RSS, the host calibration
//! loop, and the seeded stream that generates every workload input.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `0..=1`) of `xs`; sorts in place.
/// Returns `NaN` for an empty sample.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median of `xs` (the nearest-rank 50th percentile).
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's peak resident set (`VmHWM`) less its file-backed and
/// shared pages at the time of reading (`RssFile`, `RssShmem`), in MiB:
/// the memory the program itself allocated. The file-backed part is the
/// executable's own pages, which the host's page cache decides. `NaN`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    let kb = |field: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(f64::NAN)
    };
    (kb("VmHWM:") - kb("RssFile:") - kb("RssShmem:")) / 1024.0
}

/// Wall time of a fixed integer spin loop, in ms. Run at the start and
/// end of a traced run so host speed drift can be told apart from a
/// regression of the program.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..black_box(40_000_000u64) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    ms(start.elapsed())
}

/// SplitMix64: the seeded stream behind every generated input that the
/// graph generators do not already cover (the hub graph's relabeling, the
/// serve cycle's graph seeds and toggles).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(percentile(&mut xs, 1.0), 100.0);
        assert!(percentile(&mut [], 0.5).is_nan());
        assert_eq!(percentile(&mut xs, 0.85), 85.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
    }
}
