//! What one workload run produces: measured metrics, output checks, and
//! the three renderings of them — the human table, the per-run result file
//! under `benchmark/work/runs/`, and the driver's one-line JSON result.

use std::collections::BTreeMap;
use std::path::Path;

use tensorkmc_compat::json::Json;

use crate::catalogue::{self, Kind};
use crate::host;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was compared (shown on failure and kept in the result file).
    pub detail: String,
}

/// The options of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Workload seed (`--seed`): jitters the measured window, see
    /// `benchmark/README.md` "What the seed changes".
    pub seed: u64,
    /// Seed of the physics input (lattice and trajectory RNG); 42 unless a
    /// claim is being checked on a held-out input (`--deck-seed 7`).
    pub deck_seed: u64,
    /// Measuring time of the run, seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Quick mode: sizes cut by 50, one set-up repetition, checks still on.
    pub quick: bool,
}

impl RunOptions {
    /// `n` at full size, `n / 50` (at least `floor`) in quick mode.
    pub fn scaled(&self, n: u64, floor: u64) -> u64 {
        if self.quick {
            (n / 50).max(floor)
        } else {
            n
        }
    }
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    /// Metrics that have no meaningful number on this host (for example
    /// parallel scaling on one core): name → reason.
    pub degenerate: BTreeMap<&'static str, String>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Operations attempted (steps, cycles or jobs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Free-form facts worth keeping next to the numbers.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a metric; the name must be catalogued.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue::find(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Keeps a fact for the result file.
    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// True when every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Names recorded by this run.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.metrics.keys().copied()
    }

    fn metric_json(&self, name: &str) -> Json {
        let unit = catalogue::find(name).expect("catalogued").unit;
        Json::obj([
            (
                "value",
                Json::Num(self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0)),
            ),
            ("unit", Json::Str(unit.to_string())),
        ])
    }

    /// The full per-run result document.
    pub fn to_json(&self, opts: &RunOptions) -> Json {
        Json::obj([
            ("schema", Json::Str("tensorkmc.benchmark.run.v1".into())),
            ("workload", Json::Str(opts.workload.clone())),
            ("seed", Json::UInt(opts.seed)),
            ("deck_seed", Json::UInt(opts.deck_seed)),
            ("seconds", Json::Num(opts.seconds)),
            ("trace", Json::Bool(opts.trace)),
            ("quick", Json::Bool(opts.quick)),
            ("host", host::fingerprint(opts.seed, 1)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .keys()
                        .map(|n| (n.to_string(), self.metric_json(n)))
                        .collect(),
                ),
            ),
            (
                "degenerate",
                Json::Obj(
                    self.degenerate
                        .iter()
                        .map(|(n, why)| (n.to_string(), Json::Str(why.clone())))
                        .collect(),
                ),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::Str(c.name.clone())),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("info", Json::Obj(self.info.clone())),
        ])
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, with every `end_to_end` name (tracing off) or every
    /// `per_layer` name (tracing on). A layer the workload does not enter
    /// reads 0; a missing gated metric is a harness bug.
    pub fn contract_line(&self, trace: bool) -> String {
        let metrics = catalogue::contract_names(trace)
            .into_iter()
            .map(|name| {
                assert!(
                    trace || self.metrics.contains_key(name),
                    "end-to-end metric `{name}` was not measured"
                );
                (name.to_string(), self.metric_json(name))
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted.max(1))),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// Prints every metric by name with unit, direction and bound, then the
    /// checks.
    pub fn print_table(&self, opts: &RunOptions) {
        println!(
            "== {} (seed {}, deck seed {}, {} s, tracing {}{}) ==",
            opts.workload,
            opts.seed,
            opts.deck_seed,
            opts.seconds,
            if opts.trace { "on" } else { "off" },
            if opts.quick { ", quick" } else { "" }
        );
        for m in catalogue::METRICS {
            let Some(v) = self.get(m.name) else { continue };
            let value = match self.degenerate.get(m.name) {
                Some(why) => format!("degenerate ({why})"),
                None => format_value(v),
            };
            let bound = match (m.bound, m.kind) {
                (Some(b), Kind::Gated) => format!("bound {:.0}%", b * 100.0),
                (Some(b), _) => format!("bound {:.0}% (compare)", b * 100.0),
                (None, _) => "no bound".to_string(),
            };
            println!(
                "  {:<38} {:>16} {:<6} {:<6} {}",
                m.name,
                value,
                m.unit,
                m.better.as_str(),
                bound
            );
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );
        for c in &self.checks {
            println!(
                "  check {:<34} {}  {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
    }

    /// Writes the result document to `path` (parent directories created).
    pub fn write(&self, opts: &RunOptions, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(opts).to_pretty_string() + "\n")
    }
}

/// A value with all its digits but without float noise in the table.
pub fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}
