//! Sample statistics and timers.

use std::collections::HashMap;
use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// CPU time used so far by the whole process, every thread included, in
/// milliseconds. The bounded timings are CPU time: on a shared host, wall
/// time also counts the time the process waits for a core, which moves
/// with other tenants' load, while the kernel leaves that wait out of CPU
/// time (the hypervisor's share too, with paravirtual steal accounting).
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid timespec for the call to fill in.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// A start point on both clocks.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_ms(),
        }
    }

    /// Process CPU milliseconds since the stamp.
    pub fn cpu_ms(&self) -> f64 {
        cpu_ms() - self.cpu
    }

    /// Wall milliseconds since the stamp.
    pub fn wall_ms(&self) -> f64 {
        ms_since(self.wall)
    }
}

/// The quantile of one program's samples in a run that stands for its
/// time: the fastest 2%, or the fastest sample when a program has fewer
/// than 51. A shared host switches between a quiet speed and one up to
/// twice as slow (another tenant on the same core), for stretches of a
/// few to some tens of seconds, so a run's median depends on how much
/// of it was slow, while its fastest samples come from the quiet speed
/// whenever a run sees any. CPU time has no fast outliers to guard
/// against: a sample cannot take less than its work.
pub const FLOOR_QUANTILE: f64 = 0.02;

/// The `q` quantile of `v` (nearest rank below), 0 for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n => s[((n - 1) as f64 * q) as usize],
    }
}

/// Every sample replaced by the [`FLOOR_QUANTILE`] of the samples with
/// the same key (the same program), in the same order.
pub fn floored(samples: &[(usize, f64)]) -> Vec<f64> {
    let mut by_key: HashMap<usize, Vec<f64>> = HashMap::new();
    for &(k, v) in samples {
        by_key.entry(k).or_default().push(v);
    }
    let floor: HashMap<usize, f64> = by_key
        .into_iter()
        .map(|(k, v)| (k, quantile(&v, FLOOR_QUANTILE)))
        .collect();
    samples.iter().map(|(k, _)| floor[k]).collect()
}

/// Median of `v` (the mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of `v` that still has at least ten samples
/// beyond it, capped at p95: `(value, percentile, sample count)`. Past
/// p95 the sub-millisecond operations of a run with thousands of samples
/// measure the host's stalls more than the program. With ten or fewer
/// samples there is no such percentile and the maximum is reported.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let idx = if n <= 10 { n - 1 } else { n - 11 };
    let idx = idx.min((n as f64 * 0.95).ceil() as usize - 1);
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over a byte string, for input and output digests.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = ipra_ir::Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (val, pct, n) = tail(&v);
        assert_eq!((val, pct, n), (90.0, 90.0, 100));
        assert_eq!(median(&v), 50.5);
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 4750.0);
        assert_eq!(tail(&[3.0, 1.0]).0, 3.0);
    }

    #[test]
    fn floors_are_per_key() {
        let samples: Vec<(usize, f64)> = (1..=20)
            .map(|i| (0, f64::from(i)))
            .chain((1..=5).map(|i| (1, 100.0 * f64::from(i))))
            .collect();
        let f = floored(&samples);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[19], 1.0);
        assert_eq!(f[20], 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
