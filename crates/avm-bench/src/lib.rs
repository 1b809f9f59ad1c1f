//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5.4, §6).
//!
//! Each `exp_*` function in [`experiments`] regenerates one pinned table,
//! figure or group of subsections of the evaluation: it prints the rows,
//! asserts the relations the paper claims for them and returns the pin's
//! metrics.  `cargo run -p avm-bench --bin experiments -- <id>` writes them
//! as the `BENCH_*.json` metric file that [`trajectory::compare`] holds equal
//! to the committed pin.
//!
//! Absolute numbers differ from the paper's 2010 testbed (our substrate is a
//! simulator, not VMware on a Core i7), but the *shape* of every result —
//! who wins, by roughly what factor, where the crossovers are — is what
//! these experiments reproduce.  They count bytes, entries, round trips and
//! simulated network time; what recording and auditing cost in host time
//! (the paper's Figures 5–8) is measured by the standalone `bench/` package,
//! not modelled here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod pricing;
pub mod scenario;
pub mod trajectory;

pub use scenario::{GameScenario, ScenarioResult};
