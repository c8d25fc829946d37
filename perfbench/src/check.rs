//! Correctness and measurement helpers: the oracle comparison, the
//! process's peak resident set, and order statistics.

use yafim_core::MiningResult;

/// `Ok` when `mined` equals `oracle` itemset for itemset and support for
/// support; otherwise the first difference found.
pub fn compare(mined: &MiningResult, oracle: &MiningResult) -> Result<(), String> {
    if mined == oracle {
        return Ok(());
    }
    if mined.level_sizes() != oracle.level_sizes() {
        return Err(format!(
            "level sizes {:?}, oracle {:?}",
            mined.level_sizes(),
            oracle.level_sizes()
        ));
    }
    let (got, want) = mined
        .iter()
        .zip(oracle.iter())
        .find(|(a, b)| a != b)
        .expect("unequal results of equal level sizes differ somewhere");
    Err(format!(
        "{} support {}, oracle {} support {}",
        got.0, got.1, want.0, want.1
    ))
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yafim_core::{fp_growth, Support};

    fn sample() -> MiningResult {
        let tx = vec![vec![1, 2, 3], vec![1, 2], vec![2, 3], vec![1, 2, 3, 4]];
        fp_growth(&tx, Support::Count(2))
    }

    #[test]
    fn identical_results_pass() {
        assert_eq!(compare(&sample(), &sample()), Ok(()));
    }

    #[test]
    fn one_changed_support_fails() {
        let oracle = sample();
        let mut mined = oracle.clone();
        mined.levels[1][0].1 += 1;
        let err = compare(&mined, &oracle).expect_err("a changed support must fail");
        assert!(err.contains("support"), "{err}");
    }

    #[test]
    fn a_missing_itemset_fails() {
        let oracle = sample();
        let mut mined = oracle.clone();
        mined.levels[1].pop();
        assert!(compare(&mined, &oracle).is_err());
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  400000 kB\nVmHWM:\t  320512 kB\nVmRSS:\t  13000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(320_512));
    }

    #[test]
    fn vm_hwm_missing_or_malformed_is_none() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 100 MB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mib().expect("linux exposes VmHWM") > 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
