//! Small statistics and process helpers shared by the workloads.

use std::time::Duration;

pub use f2_bench::campaign::quantile;

/// Quantile `q` of an unsorted sample (0 for an empty one).
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Worker count of the load: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets the kernel's peak-RSS mark so [`peak_rss_mb`] covers only what
/// runs after this call (best effort; a no-op where unsupported).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a sequence of byte strings, with a separator so that
/// `["ab", "c"]` and `["a", "bc"]` differ.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut bytes = Vec::new();
    for p in parts {
        bytes.extend_from_slice(p);
        bytes.push(0xff);
    }
    f2_core::rng::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile_of(&[], 0.5), 0.0);
        assert!((quantile_of(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(
            digest([b"ab".as_slice(), b"c".as_slice()]),
            digest([b"a".as_slice(), b"bc".as_slice()])
        );
    }
}
