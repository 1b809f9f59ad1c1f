//! Command-line entry point regenerating the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p avm-bench --bin experiments -- all
//! cargo run --release -p avm-bench --bin experiments -- table1 fig9
//! cargo run --release -p avm-bench --bin experiments -- --quick all
//! ```

use avm_bench::experiments;
use avm_bench::trajectory;

/// Writes a fresh trajectory metric file (`BENCH_OUT` dir, or the current
/// one) so `bench_compare` can diff it against the committed pin.
fn write_bench(experiment: &str, file: &str, metrics: &[(String, u64)]) {
    let path = trajectory::bench_out_path(file);
    match trajectory::write_metrics(&path, experiment, metrics) {
        Ok(written) => println!("wrote {}", written.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let selected = if selected.is_empty() {
        vec!["all"]
    } else {
        selected
    };

    for name in selected {
        match name {
            "all" => experiments::run_all(quick),
            "table1" => {
                experiments::exp_table1(quick);
            }
            "functionality" | "sec6.3" => {
                experiments::exp_functionality(quick);
            }
            "fig3" | "fig4" | "loggrowth" => {
                experiments::exp_log_growth(quick);
            }
            "sec6.5" | "clockopt" => {
                experiments::exp_clock_optimization(quick);
            }
            "sec6.6" | "auditcost" => {
                experiments::exp_audit_cost(quick);
            }
            "sec6.7" | "traffic" => {
                experiments::exp_traffic(quick);
            }
            "fig9" | "sec6.12" | "spotcheck" => {
                experiments::exp_spotcheck(quick);
            }
            "fig6inc" | "snapshotinc" | "incremental" => {
                let r = experiments::exp_snapshot_incremental(quick);
                write_bench(
                    "fig6inc",
                    "BENCH_fig6inc.json",
                    &experiments::fig6inc_metrics(&r, quick),
                );
            }
            "dedup" | "cas" | "snapshotdedup" => {
                let r = experiments::exp_snapshot_dedup(quick);
                write_bench(
                    "dedup",
                    "BENCH_dedup.json",
                    &experiments::dedup_metrics(&r, quick),
                );
            }
            "ondemand" | "sec3.5" | "partialstate" => {
                let r = experiments::exp_ondemand(quick);
                write_bench(
                    "ondemand",
                    "BENCH_ondemand.json",
                    &experiments::ondemand_metrics(&r, quick),
                );
            }
            "chunked" | "subpage" | "chunks" => {
                let r = experiments::exp_chunked(quick);
                write_bench(
                    "chunked",
                    "BENCH_chunked.json",
                    &experiments::chunked_metrics(&r, quick),
                );
            }
            "netaudit" | "netcheck" | "endpoints" => {
                let r = experiments::exp_netaudit(quick);
                write_bench(
                    "netaudit",
                    "BENCH_netaudit.json",
                    &experiments::netaudit_metrics(&r, quick),
                );
            }
            "persist" | "durability" | "crashrecovery" => {
                let r = experiments::exp_persist(quick);
                write_bench(
                    "persist",
                    "BENCH_persist.json",
                    &experiments::persist_metrics(&r, quick),
                );
            }
            "fleet" | "sessions" | "scale" => {
                let r = experiments::exp_fleet(quick);
                write_bench(
                    "fleet",
                    "BENCH_fleet.json",
                    &experiments::fleet_metrics(&r, quick),
                );
            }
            "paraudit" | "parallel" => {
                let r = experiments::exp_paraudit(quick);
                write_bench(
                    "paraudit",
                    "BENCH_paraudit.json",
                    &experiments::paraudit_metrics(&r, quick),
                );
            }
            "attest" | "attestation" | "launch" => {
                let r = experiments::exp_attest(quick);
                write_bench(
                    "attest",
                    "BENCH_attest.json",
                    &experiments::attest_metrics(&r, quick),
                );
            }
            other => {
                eprintln!("unknown experiment '{other}'");
                eprintln!("known: all table1 functionality fig3 fig4 sec6.5 sec6.6 sec6.7 fig6inc dedup ondemand chunked netaudit persist fleet paraudit attest fig9");
                std::process::exit(2);
            }
        }
        println!();
    }
}
