//! Every pin equal: each experiment, run fresh, against the committed
//! `BENCH_*.json` at the repository root — the check `bench_compare` makes in
//! CI, as a tier-1 test.  An experiment has one size, a fixed seed and no
//! host clock, so the comparison is an equality in debug and release alike.

use std::path::Path;

use avm_bench::experiments::EXPERIMENTS;
use avm_bench::trajectory;

#[test]
fn every_experiment_equals_its_committed_pin() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut differing = Vec::new();
    for (_, file, metrics) in EXPERIMENTS {
        let pinned = trajectory::read_metrics(&root.join(file))
            .unwrap_or_else(|err| panic!("cannot read pin {file}: {err}"));
        for diff in trajectory::compare(&pinned, &metrics()) {
            differing.push(format!("{file}: {diff}"));
        }
    }
    assert!(differing.is_empty(), "{}", differing.join("\n"));
}
