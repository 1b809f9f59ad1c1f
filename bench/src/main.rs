//! The repository's benchmark driver.  See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! avm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! avm-perfbench run <name> --seed <n> [--seconds <s>] [--trace] [--smoke]
//! avm-perfbench compare <set-a> <set-b>
//! ```
//!
//! One driver thread, one process, closed loop.  The last line of standard
//! output is the result object the contract in `BENCHMARK.json` describes.

mod barehost;
mod compare;
mod json;
mod layers;
mod metrics;
mod timing;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use trace::Tracer;
use workloads::{Outcome, Params};

/// Seconds one run measures for when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

struct Cli {
    workload: String,
    params: Params,
}

fn usage() -> String {
    format!(
        "usage: avm-perfbench --workload <{}> --seed <u64> [--seconds <s>] [--trace <0|1>] [--smoke]\n       avm-perfbench compare <set-a> <set-b>",
        metrics::WORKLOADS.join("|")
    )
}

/// `bench/out`, beside this package's manifest.  `cargo run` exports the
/// manifest directory at run time; the compile-time value covers a binary
/// started by hand.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "run" => workload = Some(value("run")?),
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a non-negative number")?
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("no workload named")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Cli {
        workload,
        params: Params {
            seed: seed.ok_or("no --seed given")?,
            seconds: if smoke { 0.0 } else { seconds },
            trace,
            smoke,
            sabotage: false,
            out_dir: out_dir(),
        },
    })
}

/// Prints every metric by name with its unit, then the result line.
fn print_outcome(cli: &Cli, outcome: &Outcome) {
    let p = &cli.params;
    println!(
        "# workload={} seed={} seconds={} trace={} smoke={} cycles={} inputs={}",
        cli.workload,
        p.seed,
        p.seconds,
        p.trace as u8,
        p.smoke as u8,
        outcome.cycles,
        outcome.inputs_digest
    );
    let metrics = if p.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for (def, value) in metrics.iter() {
        println!("{:<40} {:>18.6} {}", def.name, value, def.unit);
    }
    for note in &outcome.checks.notes {
        println!("# WRONG: {note}");
    }
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct())),
        (
            "attempted".into(),
            Json::Num(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(outcome.checks.failed as f64)),
        ("metrics".into(), metrics.to_json()),
    ]);
    println!("{}", line.to_line());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(cli.params.trace);
    let outcome =
        workloads::run(&cli.workload, &cli.params, &mut tracer).expect("workload name was checked");
    if cli.params.trace {
        let path = cli
            .params
            .out_dir
            .join(format!("{}.trace.json", cli.workload));
        let written = std::fs::create_dir_all(&cli.params.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&cli.workload).to_line()));
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print_outcome(&cli, &outcome);
    exit_code(&outcome)
}

/// Non-zero when any output was wrong.
fn exit_code(outcome: &Outcome) -> ExitCode {
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let cli = parse_cli(&args("--workload game_sig --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(cli.workload, "game_sig");
        assert_eq!(cli.params.seed, 7);
        assert_eq!(cli.params.seconds, 10.0);
        assert!(!cli.params.trace && !cli.params.smoke);
        let cli = parse_cli(&args(
            "--workload db_durable --seed 1 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert!(cli.params.trace);
    }

    #[test]
    fn the_issues_argument_form_parses() {
        let cli = parse_cli(&args("run fleet_attested --seed 9 --trace --smoke")).unwrap();
        assert_eq!(cli.workload, "fleet_attested");
        assert!(cli.params.trace && cli.params.smoke);
        assert_eq!(cli.params.seconds, 0.0);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload game_sig",
            "--workload game_sig --seed x",
            "--workload game_sig --seed 1 --seconds -3",
            "--workload game_sig --seed 1 --frobnicate",
            "--seed",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
