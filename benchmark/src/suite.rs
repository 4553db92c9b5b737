//! `suite`: one full set of runs.
//!
//! Every workload is run `reps` times with tracing off (the end-to-end
//! samples), then once traced (the per-layer numbers). Each run is a fresh
//! harness process, so `VmHWM` belongs to that run alone. The set is
//! written as one JSON document and summarised as one appended line of
//! `benchmark/results/history.jsonl`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use tensorkmc_compat::json::Json;

use crate::catalogue::{self, Kind, WORKLOADS};
use crate::ground::Ground;
use crate::host;
use crate::report::{format_value, RunOptions};
use crate::stats::{median, quartiles};

/// Options of one set.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Name of the set file (`benchmark/results/<name>.json`).
    pub name: String,
    /// Workload seed.
    pub seed: u64,
    /// Seed of the physics input.
    pub deck_seed: u64,
    /// Measuring time per run, seconds.
    pub seconds: f64,
    /// Untraced repetitions per workload.
    pub reps: usize,
    /// Quick mode (sizes cut by 50, one repetition, nothing committed).
    pub quick: bool,
}

/// Runs one harness child and loads the result document it wrote.
fn child_run(ground: &Ground, opts: &RunOptions) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.current_dir(&ground.root)
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--deck-seed", &opts.deck_seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot spawn a run: {e}"))?;
    if !status.success() {
        return Err(format!(
            "run of {} (trace {}) exited with {status}",
            opts.workload, opts.trace
        ));
    }
    let path = crate::run_file(ground, opts);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64().ok()
}

fn flag(run: &Json, key: &str) -> bool {
    run.get(key).and_then(|v| v.as_bool().ok()).unwrap_or(false)
}

fn count(run: &Json, key: &str) -> u64 {
    run.get(key).and_then(|v| v.as_u64().ok()).unwrap_or(0)
}

fn sample_json(unit: &str, samples: &[f64]) -> Json {
    let (q1, _, q3) = quartiles(samples);
    Json::obj([
        ("unit", Json::Str(unit.to_string())),
        ("median", Json::Num(median(samples))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        (
            "min",
            Json::Num(samples.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        (
            "max",
            Json::Num(samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        ),
        ("n", Json::UInt(samples.len() as u64)),
        (
            "samples",
            Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// Runs the set. `Ok(true)` when every run was correct.
pub fn run(opts: &SuiteOptions) -> Result<bool, String> {
    let ground = Ground::locate()?;
    ground.build_binary()?;
    ground.ensure_prepared()?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    let mut medians = Vec::new();
    for (workload, _) in WORKLOADS {
        let run_opts = |trace| RunOptions {
            workload: workload.to_string(),
            seed: opts.seed,
            deck_seed: opts.deck_seed,
            seconds: opts.seconds,
            trace,
            quick: opts.quick,
        };
        let plain: Vec<Json> = (0..opts.reps)
            .map(|_| child_run(&ground, &run_opts(false)))
            .collect::<Result<_, _>>()?;
        let traced = child_run(&ground, &run_opts(true))?;
        all_correct &= plain.iter().chain([&traced]).all(|r| flag(r, "correct"));

        let mut end_to_end = Vec::new();
        let mut per_layer = Vec::new();
        let mut workload_medians = Vec::new();
        for m in catalogue::METRICS {
            if !m.workloads.contains(&workload) {
                continue;
            }
            if m.kind == Kind::Layer {
                if let Some(v) = metric_value(&traced, m.name) {
                    per_layer.push((
                        m.name.to_string(),
                        Json::obj([
                            ("value", Json::Num(v)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]),
                    ));
                }
                continue;
            }
            let samples: Vec<f64> = plain
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            if samples.is_empty() {
                continue;
            }
            workload_medians.push((m.name.to_string(), Json::Num(median(&samples))));
            end_to_end.push((m.name.to_string(), sample_json(m.unit, &samples)));
        }
        medians.push((workload.to_string(), Json::Obj(workload_medians)));
        workloads.push((
            workload.to_string(),
            Json::obj([
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
                (
                    "degenerate",
                    plain[0]
                        .get("degenerate")
                        .cloned()
                        .unwrap_or(Json::Obj(vec![])),
                ),
                (
                    "ops_attempted",
                    Json::UInt(plain.iter().map(|r| count(r, "attempted")).sum()),
                ),
                (
                    "ops_failed",
                    Json::UInt(plain.iter().map(|r| count(r, "failed")).sum()),
                ),
            ]),
        ));
    }

    let host = host::fingerprint(opts.seed, opts.reps);
    let set = Json::obj([
        ("schema", Json::Str("tensorkmc.benchmark.set.v1".into())),
        ("name", Json::Str(opts.name.clone())),
        ("host", host.clone()),
        ("quick", Json::Bool(opts.quick)),
        ("deck_seed", Json::UInt(opts.deck_seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Obj(workloads)),
    ]);
    // A quick set is a smoke test, not a measurement: it stays in work/.
    let dir = if opts.quick {
        ground.work.join("results")
    } else {
        ground.root.join("benchmark/results")
    };
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}.json", opts.name));
    std::fs::write(&path, set.to_pretty_string() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    append_history(&dir, &opts.name, &host, Json::Obj(medians))?;
    print_set(&set);
    println!("set -> {}", path.display());
    Ok(all_correct)
}

/// One line per set, never rewritten: the trajectory a later reader needs.
fn append_history(dir: &Path, name: &str, host: &Json, medians: Json) -> Result<(), String> {
    let line = Json::obj([
        ("set", Json::Str(name.to_string())),
        (
            "unix_time",
            Json::UInt(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0),
            ),
        ),
        (
            "commit",
            host.get("git_commit").cloned().unwrap_or(Json::Null),
        ),
        ("host", host.clone()),
        ("medians", medians),
    ]);
    let path = dir.join("history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// Loads a set file by path, or by name from `benchmark/results/`.
pub fn load_set(ground: &Ground, name_or_path: &str) -> Result<Json, String> {
    let direct = PathBuf::from(name_or_path);
    let path = if direct.is_file() {
        direct
    } else {
        ground
            .root
            .join(format!("benchmark/results/{name_or_path}.json"))
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints every metric of a set by name with unit, direction and bound.
pub fn print_set(set: &Json) {
    println!(
        "\n== set {} ==",
        set.get("name").and_then(|n| n.as_str().ok()).unwrap_or("?")
    );
    let Some(Json::Obj(workloads)) = set.get("workloads") else {
        return;
    };
    for (workload, doc) in workloads {
        println!("{workload}");
        let Some(Json::Obj(metrics)) = doc.get("end_to_end") else {
            continue;
        };
        for (name, s) in metrics {
            let m = catalogue::find(name).expect("set files hold catalogued names");
            let num = |k: &str| s.get(k).and_then(|v| v.as_f64().ok()).unwrap_or(0.0);
            let value = match doc.get("degenerate").and_then(|d| d.get(name)) {
                Some(_) => "degenerate".to_string(),
                None => format_value(num("median")),
            };
            println!(
                "  {:<24} {:>14} {:<6} {:<6} bound {:>2.0}%  min {} max {} n {}",
                name,
                value,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap_or(0.0) * 100.0,
                format_value(num("min")),
                format_value(num("max")),
                num("n")
            );
        }
        if let Some(Json::Obj(layers)) = doc.get("per_layer") {
            for (name, v) in layers {
                let m = catalogue::find(name).expect("set files hold catalogued names");
                println!(
                    "  {:<38} {:>14} {:<6} {}",
                    name,
                    format_value(v.get("value").and_then(|x| x.as_f64().ok()).unwrap_or(0.0)),
                    m.unit,
                    m.better.as_str()
                );
            }
        }
    }
}
