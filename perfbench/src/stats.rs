//! Small statistics helpers: medians, tail percentiles and the process's
//! peak resident set.

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice, with
/// the number of samples strictly beyond that rank.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    // The epsilon keeps float error in p * n from pushing an exact rank up.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    (sorted[rank - 1], n - rank)
}

/// Percentiles a tail may be reported at, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile in [`TAILS`] that has at least ten samples beyond
/// it, as `(percentile, value)`; `None` when even the median lacks ten.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    TAILS.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(&s, p);
        (beyond >= 10).then_some((p, value))
    })
}

/// Peak resident set size in KiB, from the `VmHWM` line of a
/// `/proc/<pid>/status` file.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the helper has to sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(&ramp(10_000)), Some((99.9, 9989.0)));
        assert_eq!(tail_percentile(&ramp(1_000)), Some((99.0, 989.0)));
        // One sample short of p99: fall back to p90.
        assert_eq!(tail_percentile(&ramp(999)), Some((90.0, 899.0)));
        assert_eq!(tail_percentile(&ramp(20)), Some((50.0, 9.0)));
        assert_eq!(tail_percentile(&ramp(19)), None);
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn vmhwm_is_read_from_a_status_file() {
        let status = "Name:\tperfbench\n\
                      VmPeak:\t   20480 kB\n\
                      VmSize:\t   18432 kB\n\
                      VmHWM:\t   12288 kB\n\
                      VmRSS:\t   11264 kB\n\
                      Threads:\t1\n";
        assert_eq!(parse_vmhwm_kib(status), Some(12288));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
