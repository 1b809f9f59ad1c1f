//! Benchmark trajectory files: pinned numbers as data, compared in CI.
//!
//! Every experiment emits a flat JSON metric file (`BENCH_persist.json`,
//! `BENCH_netaudit.json`, …); the committed copies at the repository root
//! pin the numbers.  A pin is an exact value that a fixed-seed run
//! reproduces on any host, so there is one rule: [`compare`] reports every
//! key whose value differs or that is present on one side only.  A metric
//! list names each key once; a key named twice is reported too.  Wall-clock
//! time is not a pin; it is measured and gated by `bench/`.
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

/// Every entry of `metrics` whose key an earlier entry already names: a
/// metric list names each key once, so these are its faults.
fn repeats(metrics: &[(String, u64)]) -> impl Iterator<Item = &(String, u64)> {
    metrics
        .iter()
        .enumerate()
        .filter(|(i, (key, _))| metrics[..*i].iter().any(|(k, _)| k == key))
        .map(|(_, entry)| entry)
}

/// Parses a metric file written by [`write_metrics`]: every `"key": value`
/// line of the `"metrics"` object becomes a metric.  A value that is not a
/// `u64`, or a key named twice, is an error, never a key silently left out
/// of the comparison.
pub fn parse_metrics(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut lines = text.lines().map(str::trim);
    if !lines.any(|line| line == "\"metrics\": {") {
        return Err("no \"metrics\" object".into());
    }
    let mut metrics = Vec::new();
    for line in lines.take_while(|line| !line.starts_with('}')) {
        let Some((key, value)) = line.trim_end_matches(',').split_once(':') else {
            return Err(format!("not a \"key\": value line: {line}"));
        };
        let value = value
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("value is not an unsigned integer: {line}"))?;
        metrics.push((key.trim().trim_matches('"').to_string(), value));
    }
    if let Some((key, _)) = repeats(&metrics).next() {
        return Err(format!("key named twice: {key}"));
    }
    Ok(metrics)
}

/// Reads and parses a metric file.
pub fn read_metrics(path: &Path) -> io::Result<Vec<(String, u64)>> {
    parse_metrics(&std::fs::read_to_string(path)?)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))
}

/// One key on which a fresh run and its pin disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// The metric key.
    pub key: String,
    /// The committed (pinned) value, or `None` if only the fresh run has
    /// the key.
    pub pinned: Option<u64>,
    /// The fresh run's value, or `None` if only the pin has the key.
    pub fresh: Option<u64>,
}

impl core::fmt::Display for Regression {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let side = |value: Option<u64>| value.map_or("(missing)".to_string(), |v| v.to_string());
        write!(
            f,
            "{}: pinned {} -> fresh {}",
            self.key,
            side(self.pinned),
            side(self.fresh)
        )
    }
}

/// Compares a fresh run against its pin: every key whose value differs, or
/// that only one side has, is reported — pinned keys first, in pin order.
/// Each further entry of a key a side names twice is then reported as a key
/// only that side has, so a doubled key never hides behind its first value.
pub fn compare(pinned: &[(String, u64)], fresh: &[(String, u64)]) -> Vec<Regression> {
    let lookup =
        |side: &[(String, u64)], key: &str| side.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
    let unpinned = fresh
        .iter()
        .filter(|(key, _)| lookup(pinned, key).is_none());
    pinned
        .iter()
        .chain(unpinned)
        .map(|(key, _)| Regression {
            key: key.clone(),
            pinned: lookup(pinned, key),
            fresh: lookup(fresh, key),
        })
        .filter(|r| r.pinned != r.fresh)
        .chain(repeats(pinned).map(|(key, value)| Regression {
            key: key.clone(),
            pinned: Some(*value),
            fresh: None,
        }))
        .chain(repeats(fresh).map(|(key, value)| Regression {
            key: key.clone(),
            pinned: None,
            fresh: Some(*value),
        }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn keys(regressions: &[Regression]) -> Vec<&str> {
        regressions.iter().map(|r| r.key.as_str()).collect()
    }

    #[test]
    fn render_and_parse_round_trip() {
        let metrics = m(&[("per_seal_syncs", 7), ("ok_match", 1), ("torn_bytes", 0)]);
        let text = render_metrics("persist", &metrics);
        assert!(text.contains("\"experiment\": \"persist\""));
        assert_eq!(parse_metrics(&text), Ok(metrics));
    }

    #[test]
    fn one_off_a_pin_in_either_direction_is_flagged() {
        let pinned = m(&[("bytes", 4096), ("ok_match", 1), ("torn_bytes", 0)]);
        assert!(compare(&pinned, &pinned).is_empty());

        let above = m(&[("bytes", 4097), ("ok_match", 1), ("torn_bytes", 1)]);
        assert_eq!(keys(&compare(&pinned, &above)), ["bytes", "torn_bytes"]);

        let below = m(&[("bytes", 4095), ("ok_match", 0), ("torn_bytes", 0)]);
        let regressions = compare(&pinned, &below);
        assert_eq!(keys(&regressions), ["bytes", "ok_match"]);
        assert_eq!(regressions[0].pinned, Some(4096));
        assert_eq!(regressions[0].fresh, Some(4095));
    }

    #[test]
    fn key_missing_from_the_fresh_run_is_flagged() {
        let pinned = m(&[("bytes", 4096), ("gone", 3)]);
        let regressions = compare(&pinned, &m(&[("bytes", 4096)]));
        assert_eq!(keys(&regressions), ["gone"]);
        assert_eq!(
            (regressions[0].pinned, regressions[0].fresh),
            (Some(3), None)
        );
    }

    #[test]
    fn key_only_the_fresh_run_has_is_flagged() {
        let pinned = m(&[("bytes", 4096)]);
        let regressions = compare(&pinned, &m(&[("brand_new", 9), ("bytes", 4096)]));
        assert_eq!(keys(&regressions), ["brand_new"]);
        assert_eq!(
            (regressions[0].pinned, regressions[0].fresh),
            (None, Some(9))
        );
    }

    #[test]
    fn key_a_fresh_run_names_twice_is_flagged() {
        let pinned = m(&[("a", 1), ("b", 2)]);
        let regressions = compare(&pinned, &m(&[("a", 1), ("a", 2), ("b", 2)]));
        assert_eq!(keys(&regressions), ["a"]);
        assert_eq!(
            (regressions[0].pinned, regressions[0].fresh),
            (None, Some(2))
        );
        // The same doubling on the pinned side is flagged too.
        assert_eq!(
            keys(&compare(&m(&[("a", 1), ("a", 1)]), &m(&[("a", 1)]))),
            ["a"]
        );
    }

    #[test]
    fn key_named_twice_is_a_parse_error() {
        let text = render_metrics(
            "persist",
            &m(&[("bytes", 4096), ("ok", 1), ("bytes", 4096)]),
        );
        assert_eq!(
            parse_metrics(&text),
            Err("key named twice: bytes".to_string())
        );
    }

    #[test]
    fn non_integer_pinned_value_is_a_parse_error() {
        let good = render_metrics("persist", &m(&[("bytes", 4096), ("ok_match", 1)]));
        for bad in ["4096.5", "-1", "\"4096\"", "true", ""] {
            let text = good.replace("\"bytes\": 4096", &format!("\"bytes\": {bad}"));
            assert!(parse_metrics(&text).is_err(), "accepted {bad:?}");
        }
        assert!(parse_metrics("{}").is_err(), "no metrics object");
    }
}
