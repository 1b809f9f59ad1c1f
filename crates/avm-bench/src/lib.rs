//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5.4, §6).
//!
//! Each `exp_*` function in [`experiments`] corresponds to one table, figure
//! or numbered subsection of the evaluation; `cargo run -p avm-bench --bin
//! experiments -- <id>` prints the regenerated rows/series, and
//! `EXPERIMENTS.md` records paper-reported versus measured values.
//!
//! Absolute numbers differ from the paper's 2010 testbed (our substrate is a
//! simulator plus a host cost model, not VMware on a Core i7), but the
//! *shape* of every result — who wins, by roughly what factor, where the
//! crossovers are — is what these experiments reproduce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod hostmodel;
pub mod pricing;
pub mod scenario;
pub mod trajectory;

pub use hostmodel::HostCostModel;
pub use scenario::{GameScenario, ScenarioResult};
