//! `compare <set-a> <set-b>`: two sets of run outputs, side by side.
//!
//! A set is a directory of files, each the standard output of one run (the
//! `# workload=… seed=…` header line and the result line are what is
//! read; files without that header are ignored).  Per workload and end-to-end metric it prints each side's median
//! and quartiles, the bound, and a verdict:
//!
//! * `unchanged`  — b's median is no worse than a's by more than the bound;
//! * `worse`      — it is, and the spread of neither side hides it;
//! * `unresolved` — a side's interquartile spread is wider than the bound,
//!   so the runs cannot tell (unless every run of b reads better than every
//!   run of a, which is `unchanged`).  `setup_s` is exempt, as in the
//!   driver's own acceptance rule: it is judged by its medians alone.
//!
//! This is the tool for the two-run-set acceptance check in `README.md`
//! and for every later performance claim.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::metrics::{MetricDef, END_TO_END, WORKLOADS};

/// Values of every end-to-end metric, per workload, over a set's runs.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return Quartiles {
            q1: x,
            median: x,
            q3: x,
        };
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` reads than `a`, as a share of `a` (negative: better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if def.better == "lower" {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = |q: Quartiles| {
        if q.median == 0.0 {
            0.0
        } else {
            (q.q3 - q.q1) / q.median.abs()
        }
    };
    // Set-up time is mostly RSA prime search, whose length is the luck of
    // the seed; like the driver, judge it by its medians alone.
    if def.name != "setup_s" && (spread(qa) > def.bound || spread(qb) > def.bound) {
        let every_b_better = a
            .iter()
            .all(|&x| b.iter().all(|&y| worsening(def, x, y) < 0.0));
        return if every_b_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(def, qa.median, qb.median) > def.bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Reads one run's standard output: the workload from the header line and
/// the metric values from the result line.
fn read_run(text: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("# workload="))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no '# workload=' header line")?
        .to_string();
    let line = text
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or("no result line")?;
    let doc = json::parse(line)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err("the run reported wrong outputs".into());
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?;
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((workload, values))
}

fn read_set(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        // Anything that is not a run's output (a log, an empty stderr
        // capture) is not part of the set.
        if !text.lines().any(|l| l.starts_with("# workload=")) {
            continue;
        }
        let (workload, values) = read_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let per_metric = set.entry(workload).or_default();
        for (name, value) in values {
            per_metric.entry(name).or_default().push(value);
        }
    }
    Ok(set)
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (set_a, set_b) = match (read_set(a), read_set(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = Verdict::Unchanged;
    println!(
        "{:<16} {:<28} {:>5} {:>38} {:>38} {:>6}  verdict",
        "workload", "metric", "runs", "a: median [q1, q3]", "b: median [q1, q3]", "bound"
    );
    for workload in WORKLOADS {
        let (Some(ma), Some(mb)) = (set_a.get(*workload), set_b.get(*workload)) else {
            continue;
        };
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let verdict = judge(def, va, vb);
            if verdict != Verdict::Unchanged && worst != Verdict::Worse {
                worst = verdict;
            }
            let show = |q: Quartiles| format!("{:.5} [{:.5}, {:.5}]", q.median, q.q1, q.q3);
            println!(
                "{:<16} {:<28} {:>2}/{:<2} {:>38} {:>38} {:>6.2}  {}",
                workload,
                def.name,
                va.len(),
                vb.len(),
                show(qa),
                show(qb),
                def.bound,
                verdict.label()
            );
        }
    }
    match worst {
        Verdict::Unchanged => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: &'static str, bound: f64) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "ms",
            better,
            bound,
        }
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q.q1 - 2.75).abs() < 1e-12);
        assert!((q.median - 5.5).abs() < 1e-12);
        assert!((q.q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        let q = quartiles(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b_same = [103.0, 104.0, 102.0, 103.5, 102.5];
        let b_worse = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(judge(&def("lower", 0.10), &a, &b_same), Verdict::Unchanged);
        assert_eq!(judge(&def("lower", 0.10), &a, &b_worse), Verdict::Worse);
        // The same numbers read as a gain when higher is better.
        assert_eq!(
            judge(&def("higher", 0.10), &a, &b_worse),
            Verdict::Unchanged
        );
        assert_eq!(judge(&def("higher", 0.10), &b_worse, &a), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let also = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(
            judge(&def("lower", 0.10), &noisy, &also),
            Verdict::Unresolved
        );
        let far_better = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(
            judge(&def("lower", 0.10), &noisy, &far_better),
            Verdict::Unchanged
        );
    }

    #[test]
    fn setup_time_is_judged_by_medians_alone() {
        let setup = MetricDef {
            name: "setup_s",
            ..def("lower", 0.25)
        };
        let noisy = [0.2, 0.3, 0.4, 0.25, 0.35];
        assert_eq!(judge(&setup, &noisy, &noisy), Verdict::Unchanged);
        let slow: Vec<f64> = noisy.iter().map(|v| v * 1.5).collect();
        assert_eq!(judge(&setup, &noisy, &slow), Verdict::Worse);
    }

    #[test]
    fn a_runs_output_is_read_back() {
        let text = "# workload=game_sig seed=3 seconds=20 trace=0 smoke=0\nsetup_s 0.1 s\n{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}\n";
        let (workload, values) = read_run(text).unwrap();
        assert_eq!(workload, "game_sig");
        assert_eq!(values, vec![("setup_s".to_string(), 0.25)]);
        assert!(read_run("no header\n{}").is_err());
        assert!(read_run(&text.replace("true", "false")).is_err());
    }
}
