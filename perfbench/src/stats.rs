//! Sample statistics and process accounting.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.95, 0.90];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// The highest percentile in the ladder that leaves at least ten samples
/// beyond it, or `None` when even p90 has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|q| n as f64 * (1.0 - q) >= TAIL_MIN_BEYOND - 1e-9)
}

/// Whether `q` may be reported for `n` samples under the tail rule.
pub fn tail_allowed(q: f64, n: usize) -> bool {
    tail_quantile(n).is_some_and(|best| q <= best + 1e-12)
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Kernel clock ticks per second for `/proc` CPU times. Linux fixes
/// `USER_HZ` at 100 on every architecture this project builds for.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name sits in parentheses and may itself contain spaces or
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the full line, utime field 14
    // and stime field 15, i.e. offsets 11 and 12 here.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// Peak resident set (`VmHWM`) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// CPU seconds this process has used so far, all threads included.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat readable")
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status has VmHWM")
}

/// A metric name is 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// splitmix64: the benchmark's own seeded generator, independent of the
/// program's.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(199), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert!(tail_allowed(0.95, 220));
        assert!(!tail_allowed(0.95, 187));
        assert!(tail_allowed(0.90, 187));
        assert!(!tail_allowed(0.99, 999));
        assert!(tail_allowed(0.99, 3000));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn parses_proc_stat_cpu_times() {
        // A name with spaces and a parenthesis must not shift the fields.
        let line = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194304 2000 0 0 0 \
                    1234 567 0 0 20 0 5 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_seconds(line), Some(18.01));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
        let live = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_cpu_seconds(&live).unwrap() >= 0.0);
    }

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in [
            "img_per_s",
            "trace.attr.pool.lease_ms_per_batch",
            "p-95",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        let f = Rng::new(1).next_f64();
        assert!((0.0..1.0).contains(&f));
    }
}
