//! Small numeric helpers: order statistics, the FNV-1a digest, process
//! counters from `/proc`, and the machine-speed calibration loop.

use std::time::Instant;

/// FNV-1a, 64 bit. Used for the recipe hash, the weight digest and the
/// output digest; stable across runs and platforms (unlike `DefaultHasher`
/// it is specified).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. Linux fixes `USER_HZ` at 100 on every architecture
/// this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds of this process (all threads, including
/// ones that already exited).
pub fn cpu_times_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / TICKS_PER_S
    };
    (tick(), tick())
}

/// Seconds the hypervisor ran something else while one of this guest's
/// CPUs was runnable, since boot. Logged per window: a slow window with
/// steal in it was slowed from outside.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // `cpu user nice system idle iowait irq softirq steal …`
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .unwrap_or(0.0)
        / TICKS_PER_S
}

/// Stolen seconds per second of wall time above which a measurement is
/// disturbed. An undisturbed half minute shows 0.001–0.003; a `chat_spec`
/// pass at 0.05–0.20 runs 10–25 % slower than its neighbours at 0.00.
const DISTURBED_STEAL_SHARE: f64 = 0.01;

/// Which of the measurements with these stolen shares count: the
/// undisturbed ones, and at least the least disturbed quarter, so that
/// something is reported when the host was busy throughout. What the
/// host takes away says nothing about the program, and — unlike a
/// measurement's own speed — cannot be moved by the program either.
pub fn undisturbed(stolen_share: &[f64]) -> Vec<bool> {
    let mut sorted = stolen_share.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len().div_ceil(4);
    let limit = sorted
        .get(quarter.saturating_sub(1))
        .map_or(DISTURBED_STEAL_SHARE, |&s| s.max(DISTURBED_STEAL_SHARE));
    stolen_share.iter().map(|&s| s <= limit).collect()
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process since the last [`reset_peak_rss`],
/// in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resets the kernel's peak-RSS watermark, so the fixture build of a
/// first run does not leak into `peak_rss_mb`. Best effort: where
/// `/proc/self/clear_refs` is not writable the watermark stays.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Iterations per microsecond of a fixed integer-and-float loop that
/// touches no memory, run for about `seconds`. Tells machine drift from
/// code change; it is reported, never used to rescale a metric.
pub fn machine_speed_index(seconds: f64) -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 1.0f64;
    let mut iters = 0u64;
    loop {
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999_999 + (x >> 40) as f64 * 1e-9;
        }
        iters += 50_000;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= seconds {
            std::hint::black_box((x, acc));
            return iters as f64 / (elapsed * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn disturbed_measurements_are_left_out_down_to_a_quarter() {
        assert_eq!(
            undisturbed(&[0.0, 0.2, 0.004, 0.011]),
            [true, false, true, false]
        );
        // All disturbed: the least disturbed quarter (2 of 5) stays.
        assert_eq!(
            undisturbed(&[0.3, 0.05, 0.2, 0.04, 0.1]),
            [false, true, false, true, false]
        );
        assert!(undisturbed(&[]).is_empty());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn proc_counters_read() {
        let (u, s) = cpu_times_s();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
