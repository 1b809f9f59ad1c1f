//! The four workloads and what they share.
//!
//! Every workload has the same shape: set up three times (timed); then
//! run *cycles* — one recording, the bare run over the same inputs, one
//! audit of every input — at least three, and more while another fits in
//! `--seconds`, so that the R executions of every input are spread over
//! the whole run; check every verdict; and — in a traced run — replay each
//! layer's public functions on the inputs the workload itself produced.
//! Only the guest, the recording configuration and the audit mode differ;
//! those are the workload definitions.  Sizes are chosen so that a cycle
//! takes 2–3 s and a 30 s run makes about ten: a sample is a minimum, and
//! on a busy host it takes that many tries to catch every input once in a
//! quiet moment.

pub mod db_durable;
pub mod fleet_attested;
pub mod game_sig;
mod replays;
mod service;
pub mod sparse_ondemand;

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::Rng;

use crate::metrics::{ratio, Metrics, END_TO_END, PER_LAYER};
use crate::timing::{quantile, Sampler};
use crate::trace::Tracer;

/// Share of `--seconds`, counted from the start of the run, in which set-up
/// and the cycles must end; the rest is for the tampered twin.
pub const CYCLES_SHARE: f64 = 0.94;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Seconds to measure for (split between the phases).
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, same metric names, same checks — for CI.
    pub smoke: bool,
    /// Test-only: expect tampered twins to *pass*, so that a run with a
    /// deliberately wrong expectation is shown to fail.
    pub sabotage: bool,
    /// The benchmark's own scratch directory (`bench/out`).
    pub out_dir: PathBuf,
}

/// Operations attempted and the ones whose output was wrong.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// `n` operations that all succeeded (answered requests, rendered
    /// frames checked in bulk).
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub checks: Checks,
    /// Digest of the inputs the seed generated (same seed, same digest).
    pub inputs_digest: String,
    /// Cycles the run made: the executions behind every input's sample.
    pub cycles: usize,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            end_to_end: Metrics::new(END_TO_END),
            per_layer: Metrics::new(PER_LAYER),
            checks: Checks::default(),
            inputs_digest: String::new(),
            cycles: 0,
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }
}

/// Runs a workload by name.
pub fn run(workload: &str, params: &Params, tracer: &mut Tracer) -> Option<Outcome> {
    let mut out = Outcome::new();
    match workload {
        "game_sig" => game_sig::run(params, tracer, &mut out),
        "db_durable" => db_durable::run(params, tracer, &mut out),
        "sparse_ondemand" => sparse_ondemand::run(params, tracer, &mut out),
        "fleet_attested" => fleet_attested::run(params, tracer, &mut out),
        _ => return None,
    }
    out.end_to_end.set("peak_rss_mb", peak_rss_mb());
    out.per_layer
        .set("host.failed_ops_share", out.checks.failed_share());
    out.per_layer.set("host.spans", tracer.spans().len() as f64);
    Some(out)
}

/// Fisher–Yates: every order of `items` is equally likely under `rng`.
pub fn shuffle(rng: &mut StdRng, items: &mut [u64]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
    }
}

/// Times `setup` three times and returns the last result with the median
/// of the three times in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let (value, ns) = crate::timing::time(&mut setup);
        times.push(ns as f64 / 1e9);
        last = Some(value);
    }
    (
        last.expect("three set-ups ran"),
        crate::timing::median(&times),
    )
}

/// The samples of one shared phase.  In a traced run every other
/// repetition runs with span recording switched off, so the run itself
/// shows what tracing costs (`host.trace_overhead_share`).
pub struct Phase {
    pub all: Sampler,
    traced: Sampler,
    untraced: Sampler,
}

impl Phase {
    pub fn new(inputs: usize) -> Phase {
        Phase {
            all: Sampler::new(inputs),
            traced: Sampler::new(inputs),
            untraced: Sampler::new(inputs),
        }
    }

    /// Call before repetition `rep`: even repetitions of a traced run
    /// record spans, odd ones do not.
    pub fn begin_rep(&self, p: &Params, tr: &mut Tracer, rep: usize) {
        tr.set_enabled(p.trace && rep.is_multiple_of(2));
    }

    pub fn record(&mut self, tr: &Tracer, input: usize, ns: u64) {
        self.all.record(input, ns);
        if tr.enabled() {
            self.traced.record(input, ns);
        } else {
            self.untraced.record(input, ns);
        }
    }

    pub fn record_rep(&mut self, tr: &Tracer, ns: &[u64]) {
        for (input, &t) in ns.iter().enumerate() {
            self.record(tr, input, t);
        }
    }

    /// In a traced run: at least one repetition each way.
    pub fn min_reps(p: &Params, min_reps: usize) -> usize {
        if p.trace {
            min_reps.max(2)
        } else {
            min_reps
        }
    }
}

/// (traced − untraced) ÷ untraced over the phases both kinds of run share.
pub fn trace_overhead_share(phases: &[&Phase]) -> f64 {
    let (mut on, mut off) = (0.0, 0.0);
    for phase in phases {
        if phase.traced.reps() > 0 && phase.untraced.reps() > 0 {
            on += phase.traced.total_ns() as f64;
            off += phase.untraced.total_ns() as f64;
        }
    }
    ratio(on - off, off)
}

/// Bare and recorded block times of one workload's record phase, with the
/// ops each block performed.
pub struct RecordTimes {
    pub bare: Sampler,
    pub record: Phase,
    pub ops_per_block: Vec<u64>,
}

impl RecordTimes {
    pub fn new(ops_per_block: Vec<u64>) -> RecordTimes {
        RecordTimes {
            bare: Sampler::new(ops_per_block.len()),
            record: Phase::new(ops_per_block.len()),
            ops_per_block,
        }
    }

    pub fn ops(&self) -> u64 {
        self.ops_per_block.iter().sum()
    }

    /// The bare run after one recording.  A bare run can be a thousand
    /// times shorter than the recording it is compared with, so it is
    /// repeated until bare runs have had 50 ms of this repetition (at most
    /// 32 times); each is one more repetition of every bare input.
    pub fn record_bare(&mut self, mut run: impl FnMut() -> Vec<u64>) {
        let started = std::time::Instant::now();
        for _ in 0..32 {
            self.bare.record_rep(&run());
            if started.elapsed().as_millis() >= 50 {
                break;
            }
        }
    }

    pub fn record_ns(&self) -> u64 {
        self.record.all.total_ns()
    }

    /// Fills the record-side end-to-end metrics.
    pub fn report(&self, log_bytes: u64, out: &mut Outcome) {
        let ops = self.ops() as f64;
        let e = &mut out.end_to_end;
        e.set(
            "bare_ops_per_s",
            ratio(ops * 1e9, self.bare.total_ns() as f64),
        );
        e.set(
            "record_ops_per_s",
            ratio(ops * 1e9, self.record_ns() as f64),
        );
        let ratios: Vec<f64> = self
            .record
            .all
            .samples()
            .iter()
            .zip(self.bare.samples())
            .map(|(&r, b)| ratio(r as f64, b as f64))
            .collect();
        e.set("record_overhead_ratio", crate::timing::median(&ratios));
        e.set("log_bytes_per_op", ratio(log_bytes as f64, ops));
        out.per_layer
            .set("host.slow_mode_share", self.record.all.slow_share(1.3));
    }
}

/// Audit-side end-to-end metrics from per-input samples.  `per_input` is
/// how many audits one input stands for (12 sessions per fleet wave).
pub fn report_audits(
    audits: &Sampler,
    per_input: u64,
    passes_ns: u64,
    record_ns: u64,
    wire_bytes: u64,
    out: &mut Outcome,
) {
    let per_audit: Vec<u64> = audits.samples().iter().map(|s| s / per_input).collect();
    let n = audits.inputs() as u64 * per_input;
    let e = &mut out.end_to_end;
    e.set("audit_p50_ms", quantile(&per_audit, 50.0) / 1e6);
    e.set("audit_p90_ms", quantile(&per_audit, 90.0) / 1e6);
    e.set(
        "audits_per_s",
        ratio(n as f64 * 1e9, audits.total_ns() as f64),
    );
    e.set(
        "audit_over_record_ratio",
        ratio(passes_ns as f64, record_ns as f64),
    );
    e.set(
        "audit_wire_bytes_per_audit",
        ratio(wire_bytes as f64, n as f64),
    );
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    fn smoke(workload: &str, seed: u64, sabotage: bool) -> Outcome {
        let params = Params {
            seed,
            seconds: 0.0,
            trace: true,
            smoke: true,
            sabotage,
            out_dir: std::env::temp_dir().join(format!(
                "avm-perfbench-test-{}-{workload}-{seed}-{sabotage}",
                std::process::id()
            )),
        };
        let outcome = run(workload, &params, &mut Tracer::new(true)).expect("known workload");
        let _ = std::fs::remove_dir_all(&params.out_dir);
        outcome
    }

    /// Every metric whose unit says it is counted, not timed.
    fn exact_counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
        outcome
            .end_to_end
            .iter()
            .chain(outcome.per_layer.iter())
            .filter(|(d, _)| matches!(d.unit, "count" | "B") && !d.name.starts_with("host."))
            .filter(|(d, _)| d.name != "crypto.pool_hash_jobs" && d.name != "crypto.pool_tasks")
            .map(|(d, v)| (d.name, v))
            .collect()
    }

    /// Same seed → identical inputs and exact counts; a second seed →
    /// different inputs, the same verdicts.  (The pool's job counters and
    /// the span count depend on how many repetitions the clock allowed, so
    /// they are not part of the comparison.)
    #[test]
    fn seeds_decide_the_inputs_and_nothing_else() {
        for workload in WORKLOADS {
            let a = smoke(workload, 11, false);
            let b = smoke(workload, 11, false);
            let c = smoke(workload, 12, false);
            assert!(a.correct(), "{workload}: {:?}", a.checks.notes);
            assert!(c.correct(), "{workload}: {:?}", c.checks.notes);
            assert_eq!(a.inputs_digest, b.inputs_digest, "{workload}");
            assert_eq!(exact_counts(&a), exact_counts(&b), "{workload}");
            assert_eq!(a.checks.attempted, b.checks.attempted, "{workload}");
            assert_ne!(a.inputs_digest, c.inputs_digest, "{workload}");
            assert_eq!(a.checks.attempted, c.checks.attempted, "{workload}");
            assert_eq!(c.checks.failed, 0, "{workload}");
        }
    }

    /// A deliberately wrong expectation — tampered twins expected to pass —
    /// must make the run report a failure (and so exit non-zero).
    #[test]
    fn a_wrong_expectation_fails_the_run() {
        for workload in WORKLOADS {
            let outcome = smoke(workload, 11, true);
            assert!(!outcome.correct(), "{workload}");
            assert_eq!(
                outcome.checks.failed, 1,
                "{workload}: {:?}",
                outcome.checks.notes
            );
            assert!(outcome.per_layer.get("host.failed_ops_share") > 0.0);
        }
    }

    /// Every metric of both lists is finite, and the end-to-end ones are
    /// never 0 — on every workload, at smoke size too.
    #[test]
    fn every_workload_reports_every_metric() {
        for workload in WORKLOADS {
            let outcome = smoke(workload, 3, false);
            for (def, value) in outcome.end_to_end.iter() {
                assert!(value.is_finite() && value > 0.0, "{workload} {}", def.name);
            }
            for (def, value) in outcome.per_layer.iter() {
                assert!(value.is_finite(), "{workload} {}", def.name);
            }
        }
    }

    #[test]
    fn an_unknown_workload_is_refused() {
        let params = Params {
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: true,
            sabotage: false,
            out_dir: std::env::temp_dir(),
        };
        assert!(run("nope", &params, &mut Tracer::new(false)).is_none());
    }
}
