//! The TensorKMC performance ledger (see `benchmark/README.md`).
//!
//! One harness, three entry points:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process (the form `BENCHMARK.json`'s command takes);
//!   prints the metric table and ends with the one-line JSON result.
//! * `suite` — every workload, repeated with tracing off, then one traced
//!   pass each, every run a fresh process; writes a result set and appends
//!   the history line.
//! * `compare <setA> <setB>` — per metric and workload, medians,
//!   quartiles, win fraction and a verdict.
//!
//! Every layer number is taken from outside the product: spans recorded by
//! this crate around calls into public functions. No product code is
//! instrumented or edited.

#![warn(missing_docs)]

pub mod catalogue;
pub mod compare;
pub mod ground;
pub mod host;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod timed_eval;
pub mod workloads;

use std::path::PathBuf;

use ground::Ground;
use report::{Outcome, RunOptions};

/// Where a run's result document goes.
pub fn run_file(ground: &Ground, opts: &RunOptions) -> PathBuf {
    ground.work.join(format!(
        "runs/{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ))
}

/// Runs one workload in this process: builds the product binary, prepares
/// the model files, measures, checks, writes the result document.
pub fn run_once(opts: &RunOptions) -> Result<Outcome, String> {
    if !catalogue::is_workload(&opts.workload) {
        return Err(format!(
            "unknown workload `{}` (expected one of: {})",
            opts.workload,
            catalogue::WORKLOADS.map(|(w, _)| w).join(", ")
        ));
    }
    let ground = Ground::locate()?;
    ground.build_binary()?;
    ground.ensure_prepared()?;
    let mut outcome = match opts.workload.as_str() {
        workloads::sublattice::NAME => workloads::sublattice::run(&ground, opts)?,
        workloads::serve::NAME => workloads::serve::run(&ground, opts)?,
        _ => workloads::aging::run(&ground, opts)?,
    };
    let broken: Vec<&str> = outcome
        .names()
        .filter(|n| !outcome.get(n).is_some_and(f64::is_finite))
        .collect();
    outcome.check(
        "every metric is a finite number",
        broken.is_empty(),
        broken.join(", "),
    );
    outcome
        .write(opts, &run_file(&ground, opts))
        .map_err(|e| format!("cannot write the result file: {e}"))?;
    Ok(outcome)
}
