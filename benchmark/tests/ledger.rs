//! The ledger's own guarantees: `BENCHMARK.json`, the README and the
//! harness output name the same metrics; the harness is built like the
//! product; and the quick suite — every workload, both passes, all output
//! checks — runs clean.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use tensorkmc_benchmark::catalogue::{self, Kind, METRICS, WORKLOADS};
use tensorkmc_compat::json::Json;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn harness(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tensorkmc-benchmark"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("the harness binary runs")
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    items
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn benchmark_json_is_what_the_catalogue_implies() {
    let doc = Json::parse(&read(&root().join("BENCHMARK.json"))).unwrap();
    let run_seconds = doc.get("run_seconds").unwrap().as_u64().unwrap();
    assert_eq!(doc, catalogue::manifest(run_seconds));
    assert_eq!(names(&doc, "end_to_end"), catalogue::contract_names(false));
    assert_eq!(names(&doc, "per_layer"), catalogue::contract_names(true));
    assert!(read(&root().join("BENCHMARK.json")).len() <= 64 * 1024);
}

#[test]
fn readme_catalogues_every_metric_and_workload() {
    let readme = read(&root().join("benchmark/README.md"));
    for m in METRICS {
        assert!(
            readme.contains(&format!("`{}`", m.name)),
            "benchmark/README.md does not catalogue `{}`",
            m.name
        );
    }
    for (w, _) in WORKLOADS {
        assert!(
            readme.contains(&format!("`{w}`")),
            "README lacks workload `{w}`"
        );
    }
}

/// The non-comment lines of `[profile.release]` in a manifest.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap().trim().to_string())
        .skip_while(|l| l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn harness_is_built_like_the_product_and_path_only() {
    let product = read(&root().join("Cargo.toml"));
    let bench = read(&root().join("benchmark/Cargo.toml"));
    assert_eq!(
        release_profile(&bench),
        release_profile(&product),
        "benchmark/Cargo.toml must mirror the root [profile.release]"
    );
    // Same rule as tests/workspace_policy.rs: every dependency is a path.
    let deps: Vec<String> = bench
        .lines()
        .map(|l| l.split('#').next().unwrap().trim().to_string())
        .skip_while(|l| l != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .collect();
    assert!(!deps.is_empty());
    for dep in deps {
        assert!(dep.contains("path ="), "registry dependency: {dep}");
    }
}

/// The metric names of a run file.
fn run_file_names(workload: &str, seed: u64, trace: u8) -> BTreeSet<String> {
    let path = root().join(format!(
        "benchmark/work/runs/{workload}-seed{seed}-trace{trace}.json"
    ));
    let doc = Json::parse(&read(&path)).unwrap();
    assert!(
        doc.get("correct").unwrap().as_bool().unwrap(),
        "{} reports a failed check",
        path.display()
    );
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("{} has no metrics", path.display());
    };
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn quick_suite_passes_and_emits_every_catalogued_name() {
    const SEED: u64 = 7; // the held-out seed
    let out = harness(&["suite", "--quick", "--seed", "7", "--name", "quick-test"]);
    assert!(
        out.status.success(),
        "quick suite failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // Every metric is emitted on every workload that claims it, by the pass
    // that owns it; nothing outside the catalogue is emitted.
    for (workload, _) in WORKLOADS {
        let plain = run_file_names(workload, SEED, 0);
        let traced = run_file_names(workload, SEED, 1);
        for name in plain.iter().chain(&traced) {
            assert!(
                catalogue::find(name).is_some(),
                "`{name}` is not catalogued"
            );
        }
        for m in METRICS.iter().filter(|m| m.workloads.contains(&workload)) {
            if m.kind != Kind::Layer {
                assert!(
                    plain.contains(m.name),
                    "{workload}: untraced pass lacks `{}`",
                    m.name
                );
            }
            if m.kind != Kind::Gated {
                assert!(
                    traced.contains(m.name),
                    "{workload}: traced pass lacks `{}`",
                    m.name
                );
            }
        }
    }
    // The set file carries the host fingerprint.
    let set = Json::parse(&read(
        &root().join("benchmark/work/results/quick-test.json"),
    ))
    .unwrap();
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "git_commit",
        "seed",
        "repetitions",
    ] {
        assert!(
            set.get("host").unwrap().get(key).is_some(),
            "fingerprint lacks {key}"
        );
    }

    // The driver's view: the last stdout line of a single run is one JSON
    // object with exactly the contract's keys and metric names.
    for (trace, workload) in [("0", "serve_burst"), ("1", "aging_kernel")] {
        let out = harness(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = Json::parse(stdout.trim_end().lines().last().unwrap()).unwrap();
        let Json::Obj(pairs) = &line else {
            panic!("result line is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.get("attempted").unwrap().as_u64().unwrap() >= 1);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object")
        };
        let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(emitted, catalogue::contract_names(trace == "1"));
        for (name, m) in metrics {
            assert!(
                m.get("value").unwrap().as_f64().is_ok(),
                "{name} is a number"
            );
            assert_eq!(
                m.get("unit").unwrap().as_str().unwrap(),
                catalogue::find(name).unwrap().unit
            );
        }
    }
}
