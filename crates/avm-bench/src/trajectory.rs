//! Benchmark trajectory files: pinned numbers as data, compared in CI.
//!
//! The quick experiments emit flat JSON metric files (`BENCH_persist.json`,
//! `BENCH_netaudit.json`); the committed copies at the repository root pin
//! the numbers, and the `bench_compare` binary flags fresh runs that regress
//! a pinned cost by more than a threshold (15% by default).
//!
//! Key conventions, enforced by [`compare`]:
//!
//! * `ok_*` — correctness flags (and mode markers like `ok_quick`), encoded
//!   0/1; any difference from the pinned value is a regression.
//! * `wall_*` — real wall-clock times.  Informational only: they vary with
//!   the host, so the comparator skips them.
//! * `tolerance_<key>` — per-key threshold config, not a metric: the pinned
//!   value replaces the blanket `threshold_percent` for `<key>`, the gate
//!   becomes *two-sided* (a fresh value more than that percentage away from
//!   the pin in either direction, so `0` means equal), and a breach is a
//!   *hard* failure (`bench_compare` refuses to downgrade it under
//!   `--warn-costs`).  This is how a cost key whose value has proven stable
//!   graduates from the blanket warning threshold to a pinned gate.
//!   Tolerance entries are config, so one missing from a fresh run is never
//!   itself a regression.
//! * everything else — deterministic simulated costs (modelled microseconds,
//!   bytes, counts) where *bigger is worse*; a fresh value more than
//!   `threshold_percent` above the pinned one is a regression.  The rule
//!   reads every such key as a cost, so it gated the `paraudit` speedup
//!   ratios (`w*_speedup_x100`, `pipeline_gain_x100`) in the wrong
//!   direction until those keys were deleted; pin a higher-is-better
//!   number with a `tolerance_` entry or not at all.
//!
//! The format is deliberately a flat string→integer map so that both the
//! writer and the reader fit in a page of dependency-free code.

use std::io;
use std::path::{Path, PathBuf};

/// Where the experiment binary writes fresh metric files: the directory in
/// the `BENCH_OUT` environment variable, or the current directory.  CI
/// points `BENCH_OUT` at a scratch directory so fresh runs never clobber the
/// pinned copies they are compared against.
pub fn bench_out_path(file: &str) -> PathBuf {
    let dir = std::env::var("BENCH_OUT").unwrap_or_else(|_| ".".into());
    Path::new(&dir).join(file)
}

/// Serialises `metrics` as a flat JSON object (stable key order — exactly
/// the slice order) tagged with the experiment name.
pub fn render_metrics(experiment: &str, metrics: &[(String, u64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"avm-bench-trajectory/v1\",\n");
    out.push_str(&format!("  \"experiment\": \"{experiment}\",\n"));
    out.push_str("  \"metrics\": {\n");
    for (i, (key, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("    \"{key}\": {value}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// Writes a metric file (creating the target directory if needed) and
/// returns the path written.
pub fn write_metrics(
    path: &Path,
    experiment: &str,
    metrics: &[(String, u64)],
) -> io::Result<PathBuf> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_metrics(experiment, metrics))?;
    Ok(path.to_path_buf())
}

/// Parses a metric file written by [`write_metrics`]: every `"key": <int>`
/// line becomes a metric (string-valued fields like `schema` parse as
/// nothing and are skipped).
pub fn parse_metrics(text: &str) -> Vec<(String, u64)> {
    let mut metrics = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(value) = value.trim().parse::<u64>() {
            metrics.push((key.to_string(), value));
        }
    }
    metrics
}

/// Reads and parses a metric file.
pub fn read_metrics(path: &Path) -> io::Result<Vec<(String, u64)>> {
    Ok(parse_metrics(&std::fs::read_to_string(path)?))
}

/// One flagged difference between a pinned and a fresh metric file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// The metric key.
    pub key: String,
    /// The committed (pinned) value.
    pub pinned: u64,
    /// The freshly measured value, or `None` if the fresh run lacks the key.
    pub fresh: Option<u64>,
    /// The key had an explicit `tolerance_<key>` pin, so this difference
    /// breached a per-key gate the trajectory graduated to — fatal even
    /// where blanket cost overshoots are downgraded to warnings.
    pub toleranced: bool,
}

impl core::fmt::Display for Regression {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.fresh {
            Some(fresh) => write!(f, "{}: pinned {} -> fresh {}", self.key, self.pinned, fresh),
            None => write!(
                f,
                "{}: pinned {} -> missing in fresh run",
                self.key, self.pinned
            ),
        }
    }
}

/// Compares a fresh run against the pinned trajectory, returning every
/// regression under the key conventions in the module docs.  Keys that only
/// exist in the fresh run are fine (new metrics land before they are
/// pinned); keys that disappeared, `ok_*` mismatches, and costs more than
/// their threshold above the pin are not.  A `tolerance_<key>` pin
/// overrides `threshold_percent` for `<key>` alone, gates a drop as well as
/// a rise, and marks the resulting regression as gate-breaching
/// ([`Regression::toleranced`]).
pub fn compare(
    pinned: &[(String, u64)],
    fresh: &[(String, u64)],
    threshold_percent: u64,
) -> Vec<Regression> {
    let lookup = |key: &str| fresh.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
    let tolerance = |key: &str| {
        let config_key = format!("tolerance_{key}");
        pinned
            .iter()
            .find(|(k, _)| *k == config_key)
            .map(|&(_, v)| v)
    };
    let mut regressions = Vec::new();
    for (key, pinned_value) in pinned {
        if key.starts_with("wall_") || key.starts_with("tolerance_") {
            continue;
        }
        let per_key = tolerance(key);
        let fresh_value = lookup(key);
        let regressed = match (fresh_value, per_key) {
            (None, _) => true,
            (Some(fresh_value), _) if key.starts_with("ok_") => fresh_value != *pinned_value,
            // Integer-exact form of `|fresh - pinned| > pinned * tolerance/100`.
            (Some(fresh_value), Some(tolerance)) => {
                fresh_value.abs_diff(*pinned_value) * 100 > pinned_value * tolerance
            }
            // Integer-exact form of `fresh > pinned * (1 + threshold/100)`.
            (Some(fresh_value), None) => {
                fresh_value * 100 > pinned_value * (100 + threshold_percent)
            }
        };
        if regressed {
            regressions.push(Regression {
                key: key.clone(),
                pinned: *pinned_value,
                fresh: fresh_value,
                toleranced: per_key.is_some(),
            });
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn render_and_parse_round_trip() {
        let metrics = m(&[("per_seal_syncs", 7), ("ok_quick", 1), ("wall_us", 12345)]);
        let text = render_metrics("persist", &metrics);
        assert!(text.contains("\"experiment\": \"persist\""));
        assert_eq!(parse_metrics(&text), metrics);
    }

    #[test]
    fn comparator_applies_the_key_conventions() {
        let pinned = m(&[
            ("cost", 100),
            ("ok_match", 1),
            ("wall_recovery_us", 50),
            ("gone", 3),
            ("exact_bytes", 4096),
            ("tolerance_exact_bytes", 0),
        ]);
        // Within threshold, flags equal, wall ignored even though it blew up.
        let fresh = m(&[
            ("cost", 115),
            ("ok_match", 1),
            ("wall_recovery_us", 5000),
            ("gone", 3),
            ("exact_bytes", 4096),
            ("brand_new", 999),
        ]);
        assert!(compare(&pinned, &fresh, 15).is_empty());

        // One past threshold, a flipped flag, a vanished key, and a
        // toleranced key that *dropped* all flag.
        let bad = m(&[
            ("cost", 116),
            ("ok_match", 0),
            ("wall_recovery_us", 50),
            ("exact_bytes", 4095),
        ]);
        let regressions = compare(&pinned, &bad, 15);
        let keys: Vec<&str> = regressions.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["cost", "ok_match", "gone", "exact_bytes"]);
        assert_eq!(regressions[2].fresh, None);
        assert!(regressions[3].toleranced);
    }

    #[test]
    fn zero_pin_regresses_on_any_growth() {
        let pinned = m(&[("torn_bytes", 0)]);
        assert!(compare(&pinned, &m(&[("torn_bytes", 0)]), 15).is_empty());
        assert_eq!(compare(&pinned, &m(&[("torn_bytes", 1)]), 15).len(), 1);
    }

    #[test]
    fn per_key_tolerance_overrides_the_blanket_threshold() {
        let pinned = m(&[
            ("stable_cost", 100),
            ("tolerance_stable_cost", 2),
            ("loose_cost", 100),
        ]);
        // 3% over: within the blanket 15% but past the 2% per-key gate.
        let fresh = m(&[("stable_cost", 103), ("loose_cost", 103)]);
        let regressions = compare(&pinned, &fresh, 15);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "stable_cost");
        assert!(regressions[0].toleranced);

        // Inside the per-key gate: clean.
        let fresh = m(&[("stable_cost", 102), ("loose_cost", 115)]);
        assert!(compare(&pinned, &fresh, 15).is_empty());

        // A tolerance wider than the blanket also applies: 40% over is fine
        // under tolerance 50, while the same overshoot on a blanket key is
        // flagged (and not marked toleranced).
        let pinned = m(&[
            ("noisy_cost", 100),
            ("tolerance_noisy_cost", 50),
            ("c", 100),
        ]);
        let fresh = m(&[("noisy_cost", 140), ("c", 140)]);
        let regressions = compare(&pinned, &fresh, 15);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "c");
        assert!(!regressions[0].toleranced);
    }

    #[test]
    fn tolerance_entries_are_config_not_metrics() {
        // The fresh run never emits tolerance keys; their absence must not
        // be a regression, and they must not be compared as values.
        let pinned = m(&[("cost", 100), ("tolerance_cost", 5)]);
        let fresh = m(&[("cost", 100)]);
        assert!(compare(&pinned, &fresh, 15).is_empty());
        // A tolerance for a key that is not pinned is inert.
        let pinned = m(&[("tolerance_ghost", 5)]);
        assert!(compare(&pinned, &m(&[]), 15).is_empty());
    }
}
