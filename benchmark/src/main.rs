//! Command-line entry of the benchmark harness (see `benchmark/README.md`).

use std::process::ExitCode;

use tensorkmc_benchmark::ground::Ground;
use tensorkmc_benchmark::report::RunOptions;
use tensorkmc_benchmark::suite::SuiteOptions;
use tensorkmc_benchmark::{catalogue, compare, run_once, suite};

const USAGE: &str = "\
usage (from the repository root):
  tensorkmc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
                      [--deck-seed <n>] [--quick]
      one run of one workload; the last stdout line is the JSON result
  tensorkmc-benchmark suite [--quick] [--seed <n>] [--deck-seed <n>] [--seconds <s>]
                      [--reps <n>] [--name <set>]
      every workload x reps with tracing off, one traced pass each, all checks;
      writes benchmark/results/<set>.json and appends history.jsonl
  tensorkmc-benchmark compare <setA> <setB>
      B against A: medians, quartiles, win fraction, verdict per metric x workload
  tensorkmc-benchmark manifest [--run-seconds <n>]
      print the BENCHMARK.json the metric catalogue implies
  tensorkmc-benchmark prepare
      train and cache the model files under benchmark/work/models/";

/// Measuring time of a full-size run, seconds (`run_seconds` of
/// `BENCHMARK.json`).
const RUN_SECONDS: f64 = 10.0;

/// Value of `--flag <value>`, parsed.
fn value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a valid value")),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let quick = args.iter().any(|a| a == "--quick");
    match args.first().map(String::as_str) {
        Some("suite") => suite::run(&SuiteOptions {
            name: value(args, "--name")?.unwrap_or_else(|| "latest".to_string()),
            seed: value(args, "--seed")?.unwrap_or(42),
            deck_seed: value(args, "--deck-seed")?.unwrap_or(42),
            seconds: value(args, "--seconds")?.unwrap_or(if quick { 0.3 } else { RUN_SECONDS }),
            reps: value(args, "--reps")?.unwrap_or(if quick { 1 } else { 3 }),
            quick,
        }),
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return Err("compare needs two set names or files".into());
            };
            let ground = Ground::locate()?;
            Ok(compare::run(
                &suite::load_set(&ground, a)?,
                &suite::load_set(&ground, b)?,
            ))
        }
        Some("manifest") => {
            let run_seconds = value(args, "--run-seconds")?.unwrap_or(RUN_SECONDS as u64);
            println!("{}", catalogue::manifest(run_seconds).to_pretty_string());
            Ok(true)
        }
        Some("prepare") => Ground::locate()?.prepare_models().map(|()| true),
        _ => {
            let trace: u8 = value(args, "--trace")?.unwrap_or(0);
            let opts = RunOptions {
                workload: value(args, "--workload")?.ok_or(USAGE)?,
                seed: value(args, "--seed")?.unwrap_or(42),
                deck_seed: value(args, "--deck-seed")?.unwrap_or(42),
                seconds: value(args, "--seconds")?.unwrap_or(if quick { 0.3 } else { RUN_SECONDS }),
                trace: trace != 0,
                quick,
            };
            let outcome = run_once(&opts)?;
            outcome.print_table(&opts);
            // The driver reads `correct` from this line; a failed check is
            // reported there, not as a missing result.
            println!("{}", outcome.contract_line(opts.trace));
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
