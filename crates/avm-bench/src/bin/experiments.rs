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

use avm_bench::experiments as exp;
use avm_bench::trajectory;

/// The ids that select an experiment, the pin it writes, and the run that
/// produces the pin's metrics.
type Experiment = (
    &'static [&'static str],
    &'static str,
    fn() -> Vec<(String, u64)>,
);

const EXPERIMENTS: &[Experiment] = &[
    (
        &["table1", "functionality", "sec6.3"],
        "BENCH_table1.json",
        || {
            let table = exp::exp_table1();
            let (honest_pass, cheaters_caught) = exp::exp_functionality();
            exp::table1_metrics(&table, honest_pass, cheaters_caught)
        },
    ),
    (
        &[
            "gamelog",
            "fig3",
            "fig4",
            "loggrowth",
            "sec6.5",
            "clockopt",
            "sec6.7",
            "traffic",
        ],
        "BENCH_gamelog.json",
        || {
            exp::gamelog_metrics(
                &exp::exp_log_growth(),
                &exp::exp_clock_optimization(),
                exp::exp_traffic(),
            )
        },
    ),
    (&["fig9", "sec6.12", "spotcheck"], "BENCH_fig9.json", || {
        exp::fig9_metrics(&exp::exp_spotcheck())
    }),
    (
        &["dedup", "cas", "snapshotdedup"],
        "BENCH_dedup.json",
        || exp::dedup_metrics(&exp::exp_snapshot_dedup()),
    ),
    (
        &["ondemand", "sec3.5", "partialstate"],
        "BENCH_ondemand.json",
        || exp::ondemand_metrics(&exp::exp_ondemand()),
    ),
    (
        &["chunked", "subpage", "chunks"],
        "BENCH_chunked.json",
        || exp::chunked_metrics(&exp::exp_chunked()),
    ),
    (
        &["netaudit", "netcheck", "endpoints"],
        "BENCH_netaudit.json",
        || exp::netaudit_metrics(&exp::exp_netaudit()),
    ),
    (
        &["persist", "durability", "crashrecovery"],
        "BENCH_persist.json",
        || exp::persist_metrics(&exp::exp_persist()),
    ),
    (&["fleet", "sessions", "scale"], "BENCH_fleet.json", || {
        exp::fleet_metrics(&exp::exp_fleet())
    }),
    (&["paraudit", "parallel"], "BENCH_paraudit.json", || {
        exp::paraudit_metrics(&exp::exp_paraudit())
    }),
    (
        &["attest", "attestation", "launch"],
        "BENCH_attest.json",
        || exp::attest_metrics(&exp::exp_attest()),
    ),
];

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
