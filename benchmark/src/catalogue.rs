//! The metric catalogue: the single list of every number the harness may
//! emit, with unit, direction, regression bound and the workloads it is
//! measured on. `BENCHMARK.json`, the README tables and the run output are
//! all checked against it (`tests/ledger.rs`), so a name cannot drift.

use tensorkmc_compat::json::Json;

/// The five workloads, in run order, each with the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "aging_paper",
        "16^3 paper deck, 2 vacancies, ~85% memo hits: core self time is about half a step, the kernel a few percent",
    ),
    (
        "aging_kernel",
        "12^3 box, 8 vacancies, paper-architecture model: kernel and feature operators are most of a step, core self time is small",
    ),
    (
        "aging_bigbox",
        "128^3 box, 839 vacancies: working set beyond memo and LLC, lattice bytes dominate RSS, checkpoint cost is visible",
    ),
    (
        "sublattice_2rank",
        "24^3 box, 55 vacancies, 1 rank then 2 in-process ranks: sector bursts, ghost exchange and barriers",
    ),
    (
        "serve_burst",
        "real `tensorkmc serve` child, 2 closed-loop clients: HTTP, persistence and compression do most of the work beside compute",
    ),
];

const AGING: &[&str] = &["aging_paper", "aging_kernel", "aging_bigbox"];
const ALL: &[&str] = &[
    "aging_paper",
    "aging_kernel",
    "aging_bigbox",
    "sublattice_2rank",
    "serve_burst",
];
const PAPER: &[&str] = &["aging_paper"];
const PAPER_BIGBOX: &[&str] = &["aging_paper", "aging_bigbox"];
const KERNEL: &[&str] = &["aging_kernel"];
const SUBLATTICE: &[&str] = &["sublattice_2rank"];
const SERVE: &[&str] = &["serve_burst"];
const AGING_SUBLATTICE: &[&str] = &[
    "aging_paper",
    "aging_kernel",
    "aging_bigbox",
    "sublattice_2rank",
];
const AGING_SERVE: &[&str] = &["aging_paper", "aging_kernel", "aging_bigbox", "serve_burst"];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a metric is measured and who bounds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End to end, measured with tracing off on every workload: listed in
    /// `BENCHMARK.json` `end_to_end`, bounded by the driver.
    Gated,
    /// End to end, but defined on some workloads only. Measured with
    /// tracing off and bounded by `compare`; the driver lists it under
    /// `per_layer` (which has no bound) and reads it from the traced pass.
    Workload,
    /// A single layer's metric, traced pass only.
    Layer,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The emitted name.
    pub name: &'static str,
    /// Unit string (contract alphabet: letters, digits, `_ / % . -`).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening, as a share of the baseline median, before it
    /// counts as a regression. Layer metrics have none.
    pub bound: Option<f64>,
    /// Kind.
    pub kind: Kind,
    /// Workloads that measure it. Elsewhere a layer metric reads 0: the
    /// workload does not enter that layer (or the harness cannot see it).
    pub workloads: &'static [&'static str],
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        kind: Kind::Gated,
        workloads: ALL,
    }
}

const fn workload(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        kind: Kind::Workload,
        workloads,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        kind: Kind::Layer,
        workloads,
    }
}

use Better::{Higher, Lower};

/// Every metric, in report order.
pub const METRICS: &[Metric] = &[
    // -- end to end, every workload (BENCHMARK.json `end_to_end`) --
    gated("setup_s", "s", Lower, 0.10),
    gated("steps_per_s", "1/s", Higher, 0.05),
    gated("wall_s_per_sim_s", "s/s", Lower, 0.05),
    gated("peak_rss_bytes", "B", Lower, 0.10),
    gated("checkpoint_rss_bytes", "B", Lower, 0.10),
    // -- end to end, some workloads --
    workload("checkpoint_s", "s", Lower, 0.10, PAPER_BIGBOX),
    workload("cycles_per_s", "1/s", Higher, 0.05, SUBLATTICE),
    workload("strong_scaling_eff", "ratio", Higher, 0.05, SUBLATTICE),
    workload("jobs_per_s", "1/s", Higher, 0.05, SERVE),
    workload("first_frame_s_p50", "s", Lower, 0.10, SERVE),
    workload("job_done_s_p50", "s", Lower, 0.10, SERVE),
    workload("job_done_s_p75", "s", Lower, 0.10, SERVE),
    // -- set-up layers --
    layer("driver.build_evaluator_s", "s", Lower, AGING),
    layer("lattice.random_alloy_s", "s", Lower, AGING_SUBLATTICE),
    layer("core.engine_new_s", "s", Lower, AGING),
    layer("core.engine_new.systems", "count", Lower, AGING),
    layer("core.first_step_s", "s", Lower, AGING),
    // -- core --
    layer("core.step.count", "count", Higher, AGING),
    layer("core.step.busy_s", "s", Lower, AGING),
    layer("core.step.p50_us", "us", Lower, AGING),
    layer("core.step.p99_us", "us", Lower, AGING),
    layer("core.self_s", "s", Lower, AGING),
    layer("core.self_share", "ratio", Lower, AGING),
    layer("core.refreshes_per_step", "ratio", Lower, AGING),
    layer("core.vacancy_cache.hit_ratio", "ratio", Higher, AGING),
    layer("core.memo.hit_ratio", "ratio", Higher, AGING),
    layer("core.memo.evictions", "count", Lower, AGING),
    layer("core.memory_bytes", "B", Lower, AGING),
    layer("core.memo.lookup_ns", "ns", Lower, AGING),
    layer("core.gather_vet_ns", "ns", Lower, AGING),
    layer("core.sumtree.sample_ns", "ns", Lower, AGING),
    layer("core.sumtree.set_many_ns", "ns", Lower, AGING),
    // -- operators --
    layer("operators.evaluate.calls", "count", Lower, AGING_SUBLATTICE),
    layer(
        "operators.evaluate.systems",
        "count",
        Lower,
        AGING_SUBLATTICE,
    ),
    layer(
        "operators.evaluate.systems_per_call",
        "ratio",
        Higher,
        AGING_SUBLATTICE,
    ),
    layer("operators.evaluate.busy_s", "s", Lower, AGING_SUBLATTICE),
    layer("operators.feature.us_per_system", "us", Lower, AGING),
    layer("operators.feature.rows_per_system", "count", Lower, AGING),
    layer("operators.dedup.us_per_system", "us", Lower, AGING),
    layer("operators.dedup.unique_ratio", "ratio", Lower, AGING),
    layer("operators.kernel.us_per_call", "us", Lower, AGING),
    layer("operators.kernel.ns_per_row", "ns", Lower, AGING),
    layer("operators.kernel.flops_per_row", "count", Lower, AGING),
    layer("operators.scatter.us_per_system", "us", Lower, AGING),
    layer("operators.bf16.kernel_ratio", "ratio", Lower, AGING),
    // -- simulated Sunway: a computed ledger of counts, never a time --
    layer("sunway.dma_bytes_per_system", "B", Lower, KERNEL),
    layer("sunway.rma_bytes_per_call", "B", Lower, KERNEL),
    layer("sunway.sim_tax_ratio", "ratio", Lower, KERNEL),
    // -- analysis, checkpoint, file output --
    layer("analysis.clusters_s_per_sample", "s", Lower, AGING_SERVE),
    layer("core.checkpoint.encode_s", "s", Lower, AGING),
    layer("core.checkpoint.bytes", "B", Lower, AGING),
    layer("fsutil.write_atomic_s", "s", Lower, AGING),
    layer("fsutil.write_mb_per_s", "MB/s", Higher, AGING),
    // -- parallel --
    layer("parallel.cycles", "count", Higher, SUBLATTICE),
    layer("parallel.events", "count", Higher, SUBLATTICE),
    layer("parallel.evals_per_event", "ratio", Lower, SUBLATTICE),
    layer("parallel.halo_bytes_per_cycle", "B", Lower, SUBLATTICE),
    layer("parallel.remote_mods_per_cycle", "ratio", Lower, SUBLATTICE),
    layer("parallel.rank_event_imbalance", "ratio", Lower, SUBLATTICE),
    layer("parallel.eval_busy_s_max_rank", "s", Lower, SUBLATTICE),
    layer("parallel.non_eval_s", "s", Lower, SUBLATTICE),
    layer("parallel.tcp_wall_ratio", "ratio", Lower, SUBLATTICE),
    // -- serve / compat --
    layer("serve.post_ms_p50", "ms", Lower, SERVE),
    layer("serve.post_to_started_ms_p50", "ms", Lower, SERVE),
    layer("serve.stream_bytes_per_job", "B", Lower, SERVE),
    layer("serve.state_bytes_per_job", "B", Lower, SERVE),
    layer("serve.overhead_s_per_job", "s", Lower, SERVE),
    layer("serve.refused", "count", Lower, SERVE),
    layer("compat.lz.compress_mb_per_s", "MB/s", Higher, SERVE),
    layer("compat.lz.ratio", "ratio", Higher, SERVE),
    // -- what the measurement itself costs --
    layer("telemetry.registry_overhead_ratio", "ratio", Higher, PAPER),
    layer("bench.trace_overhead_ratio", "ratio", Higher, AGING),
    layer("bench.untracked_s", "s", Lower, ALL),
];

/// Looks a metric up by name.
pub fn find(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The names a pass must emit to the driver: every gated metric with
/// tracing off, everything else with tracing on.
pub fn contract_names(trace: bool) -> Vec<&'static str> {
    METRICS
        .iter()
        .filter(|m| (m.kind == Kind::Gated) != trace)
        .map(|m| m.name)
        .collect()
}

/// True when `workload` is one of the five.
pub fn is_workload(workload: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == workload)
}

/// The `BENCHMARK.json` document this catalogue implies.
pub fn manifest(run_seconds: u64) -> Json {
    let metric = |m: &Metric, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::Str(m.name.to_string())),
            ("unit", Json::Str(m.unit.to_string())),
            ("better", Json::Str(m.better.as_str().to_string())),
        ];
        if with_bound {
            pairs.push((
                "bound",
                Json::Num(m.bound.expect("gated metrics are bounded")),
            ));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Json::Str(s.to_string()))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".to_string())])),
        ("run_seconds", Json::UInt(run_seconds)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([
                            ("name", Json::Str(name.to_string())),
                            ("why", Json::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                METRICS
                    .iter()
                    .filter(|m| m.kind == Kind::Gated)
                    .map(|m| metric(m, true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                METRICS
                    .iter()
                    .filter(|m| m.kind != Kind::Gated)
                    .map(|m| metric(m, false))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_manifest_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(name_ok(m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
            assert_eq!(m.bound.is_some(), m.kind != Kind::Layer, "{}", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            assert!(m.workloads.iter().all(|w| is_workload(w)));
        }
        for (w, why) in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w), "workload name {w}");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let gated = contract_names(false);
        assert!((1..=16).contains(&gated.len()) && gated.contains(&"setup_s"));
        assert!((1..=128).contains(&contract_names(true).len()));
        // set-up time carries the largest bound
        let setup = find("setup_s").unwrap().bound.unwrap();
        assert!(METRICS
            .iter()
            .filter(|m| m.kind == Kind::Gated)
            .all(|m| m.bound.unwrap() <= setup));
    }
}
