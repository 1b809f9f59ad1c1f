//! Command-line entry point regenerating the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p avm-bench --bin experiments -- all
//! cargo run --release -p avm-bench --bin experiments -- table1 fig9
//! ```
//!
//! Every experiment prints its rows and writes its `BENCH_*.json` metric
//! file (into the `BENCH_OUT` directory, or the current one) for
//! `bench_compare` to check against the committed pin.

use avm_bench::experiments::{Experiment, EXPERIMENTS};
use avm_bench::trajectory;

/// Runs one experiment and writes its fresh metric file.
fn run(&(_, file, metrics): &Experiment) {
    let label = file.trim_start_matches("BENCH_").trim_end_matches(".json");
    let path = trajectory::bench_out_path(file);
    match trajectory::write_metrics(&path, label, &metrics()) {
        Ok(written) => println!("wrote {}\n", written.display()),
        Err(err) => {
            eprintln!("failed to write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut selected: Vec<String> = std::env::args().skip(1).collect();
    if selected.is_empty() {
        selected.push("all".into());
    }
    for name in &selected {
        if name == "all" {
            EXPERIMENTS.iter().for_each(run);
        } else if let Some(experiment) = EXPERIMENTS
            .iter()
            .find(|(ids, ..)| ids.contains(&name.as_str()))
        {
            run(experiment);
        } else {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(ids, ..)| ids[0]).collect();
            eprintln!("unknown experiment '{name}'");
            eprintln!("known: all {}", known.join(" "));
            std::process::exit(2);
        }
    }
}
