//! Compares a fresh benchmark metric file against the committed pin and
//! exits nonzero unless they are equal — the "benchmark trajectory as data"
//! gate.
//!
//! ```text
//! cargo run -p avm-bench --bin bench_compare -- \
//!     BENCH_persist.json target/bench/BENCH_persist.json
//! ```
//!
//! Exit 1: some key differs or is present on one side only
//! ([`avm_bench::trajectory::compare`]).  Exit 2: a file is unreadable,
//! holds a non-integer value, names a key twice or holds no metrics.

use std::path::Path;
use std::process::exit;

use avm_bench::trajectory;

fn load(path: &str) -> Vec<(String, u64)> {
    match trajectory::read_metrics(Path::new(path)) {
        Ok(metrics) if !metrics.is_empty() => metrics,
        Ok(_) => {
            eprintln!("bench_compare: no metrics found in {path}");
            exit(2);
        }
        Err(err) => {
            eprintln!("bench_compare: cannot read {path}: {err}");
            exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [pinned_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_compare <pinned.json> <fresh.json>");
        exit(2);
    };

    let pinned = load(pinned_path);
    let fresh = load(fresh_path);
    println!("comparing {fresh_path} against pinned {pinned_path}");
    let regressions = trajectory::compare(&pinned, &fresh);
    if regressions.is_empty() {
        println!("equal: all {} pinned keys reproduced", pinned.len());
        return;
    }
    for regression in &regressions {
        eprintln!("REGRESSION {regression}");
    }
    exit(1);
}
