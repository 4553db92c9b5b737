//! Stage replays: layer costs the wrapper spans cannot split.
//!
//! A traced pass captures a bounded sample of the VET batches the engine
//! sent to its evaluator, and keeps the engine's final state. The replays
//! push that captured state through the *public* stage functions of each
//! layer at the workload's own sizes, one stage per span, and report cost
//! per unit of work. They run after the stepping loop, so they never touch
//! an end-to-end number.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tensorkmc::core::{EnergyMemoCache, KmcEngine, Pcg32, SumTree, VacancySystem};
use tensorkmc::lattice::{RegionGeometry, Species};
use tensorkmc::nnp::NnpModel;
use tensorkmc::operators::feature_op::features_serial_delta;
use tensorkmc::operators::stages::{stage4_fused, stage4_fused_bf16, BatchShape};
use tensorkmc::operators::{
    Bf16Stack, NnpDirectEvaluator, RowInterner, StateEnergies, SunwayEvaluator, UniqueRowPlan,
    VacancyEnergyEvaluator,
};
use tensorkmc::sunway::CgConfig;

use crate::report::Outcome;
use crate::spans::{Spans, ROOT};

type Batches = [Vec<Vec<Species>>];

/// The operator stages of `NnpDirectEvaluator`'s delta path, one by one:
/// feature build, row dedup, fused kernel (f32 and bf16 on the same rows),
/// scatter. Batches are replayed in capture order until `budget_s` of
/// kernel-side time is spent (at least one batch).
pub fn operators(
    model: &NnpModel,
    geom: &Arc<RegionGeometry>,
    batches: &Batches,
    budget_s: f64,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let evaluator = NnpDirectEvaluator::new(model, Arc::clone(geom));
    let tables = evaluator.tables();
    let stack = evaluator.stack();
    let bf16_stack = Bf16Stack::from_f32(stack);
    let nr = tables.n_region;
    let (mut systems, mut calls, mut unique_rows) = (0usize, 0usize, 0usize);
    let (mut feature_s, mut dedup_s, mut kernel_s, mut bf16_s, mut scatter_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let started = Instant::now();
    for batch in batches {
        let (feats, dt) = spans.timed("replay.operators.feature", ROOT, || {
            batch
                .iter()
                .map(|vet| features_serial_delta(tables, vet))
                .collect::<Result<Vec<_>, _>>()
        });
        let feats = feats.map_err(|e| e.to_string())?;
        feature_s += dt;
        let mut interner = RowInterner::new(tables.n_features);
        let (plans, dt) = spans.timed("replay.operators.dedup", ROOT, || {
            feats
                .iter()
                .map(|f| UniqueRowPlan::build(tables, f, &mut interner))
                .collect::<Vec<_>>()
        });
        dedup_s += dt;
        let shape = BatchShape {
            n: interner.len(),
            h: 1,
            w: 1,
        };
        let (energies, dt) = spans.timed("replay.operators.kernel", ROOT, || {
            stage4_fused(stack, interner.rows(), shape)
        });
        let energies = energies.map_err(|e| e.to_string())?;
        kernel_s += dt;
        let (bf16, dt) = spans.timed("replay.operators.kernel_bf16", ROOT, || {
            stage4_fused_bf16(&bf16_stack, interner.rows(), shape)
        });
        black_box(bf16.map_err(|e| e.to_string())?);
        bf16_s += dt;
        let mut site_energies = vec![0f32; 9 * nr];
        let ((), dt) = spans.timed("replay.operators.scatter", ROOT, || {
            for plan in &plans {
                plan.scatter(tables, &energies, &mut site_energies);
                black_box(&site_energies);
            }
        });
        scatter_s += dt;
        systems += batch.len();
        calls += 1;
        unique_rows += interner.len();
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    if systems == 0 {
        return Ok(()); // nothing captured: the layer metrics stay 0
    }
    let per_system = |s: f64| s * 1e6 / systems as f64;
    let packed = tables.packed_rows();
    out.set("operators.feature.us_per_system", per_system(feature_s));
    out.set("operators.feature.rows_per_system", packed as f64);
    out.set("operators.dedup.us_per_system", per_system(dedup_s));
    out.set(
        "operators.dedup.unique_ratio",
        unique_rows as f64 / (packed * systems) as f64,
    );
    out.set(
        "operators.kernel.us_per_call",
        kernel_s * 1e6 / calls as f64,
    );
    out.set(
        "operators.kernel.ns_per_row",
        kernel_s * 1e9 / unique_rows as f64,
    );
    // Computed, not measured: one multiply and one add per weight.
    let flops: usize = stack.layers.iter().map(|l| 2 * l.c_in * l.c_out).sum();
    out.set("operators.kernel.flops_per_row", flops as f64);
    out.set("operators.scatter.us_per_system", per_system(scatter_s));
    out.set("operators.bf16.kernel_ratio", bf16_s / kernel_s);
    Ok(())
}

/// The simulated-Sunway ledger on the same sampled batches: exact DMA and
/// RMA byte *counts* from the core group's traffic counters (computed
/// figures, never times), and the host wall the simulation costs relative
/// to the plain evaluator ("simulator tax").
pub fn sunway(
    model: &NnpModel,
    geom: &Arc<RegionGeometry>,
    batches: &Batches,
    budget_s: f64,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let host = NnpDirectEvaluator::new(model, Arc::clone(geom));
    let sim = SunwayEvaluator::new(model, Arc::clone(geom), CgConfig::default());
    let traffic = sim.core_group().traffic_handle();
    let before = traffic.report();
    let (mut systems, mut calls, mut host_s, mut sim_s) = (0usize, 0usize, 0.0, 0.0);
    let started = Instant::now();
    for batch in batches {
        let vets: Vec<&[Species]> = batch.iter().map(Vec::as_slice).collect();
        let (a, dt) = spans.timed("replay.sunway.host", ROOT, || {
            host.evaluate_states_batch(&vets)
        });
        host_s += dt;
        let (b, dt) = spans.timed("replay.sunway.simulated", ROOT, || {
            sim.evaluate_states_batch(&vets)
        });
        sim_s += dt;
        black_box((a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?));
        systems += batch.len();
        calls += 1;
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    if systems == 0 {
        return Ok(());
    }
    let moved = traffic.report().since(&before);
    out.set(
        "sunway.dma_bytes_per_system",
        (moved.dma_get_bytes + moved.dma_put_bytes) as f64 / systems as f64,
    );
    out.set(
        "sunway.rma_bytes_per_call",
        moved.rma_bytes as f64 / calls as f64,
    );
    out.set("sunway.sim_tax_ratio", sim_s / host_s);
    Ok(())
}

/// Core data structures at the run's own sizes: memo probes on the
/// captured VETs, VET gathers at the engine's vacancy sites on its final
/// lattice, and the propensity tree over its final rates.
pub fn core<E: VacancyEnergyEvaluator>(
    engine: &KmcEngine<E>,
    batches: &Batches,
    refreshes_per_step: f64,
    budget_s: f64,
    spans: &Spans,
    out: &mut Outcome,
) {
    let per_op_ns = |seconds: f64, ops: u64| seconds * 1e9 / ops.max(1) as f64;

    // Memo: a cache of the engine's capacity holding the captured
    // environments; every probe is a hit, as ~85% of aging_paper's are.
    let vets: Vec<&Vec<Species>> = batches.iter().flatten().collect();
    if !vets.is_empty() {
        let mut memo = EnergyMemoCache::new(tensorkmc::core::engine::DEFAULT_ENERGY_CACHE_ENTRIES);
        let energies = StateEnergies {
            initial: 0.0,
            finals: [0.0; 8],
        };
        for vet in &vets {
            memo.insert(vet, &energies);
        }
        let mut lookups = 0u64;
        let ((), dt) = spans.timed("replay.core.memo_lookup", ROOT, || {
            lookups = vets.len() as u64
                * repeat_until(budget_s / 4.0, || {
                    for vet in &vets {
                        black_box(memo.lookup(vet));
                    }
                });
        });
        out.set("core.memo.lookup_ns", per_op_ns(dt, lookups));
    }

    // Gather: the only access to the big lattice array.
    let geom = engine.geometry();
    let mut systems: Vec<VacancySystem> = engine
        .systems()
        .iter()
        .take(256)
        .map(|s| VacancySystem::new(s.center))
        .collect();
    for sys in &mut systems {
        sys.gather_vet(engine.lattice(), geom); // first pass sizes the buffers
    }
    let mut gathers = 0u64;
    let ((), dt) = spans.timed("replay.core.gather_vet", ROOT, || {
        gathers = systems.len() as u64
            * repeat_until(budget_s / 4.0, || {
                for sys in &mut systems {
                    sys.gather_vet(engine.lattice(), geom);
                    black_box(&sys.vet);
                }
            });
    });
    out.set("core.gather_vet_ns", per_op_ns(dt, gathers));

    // Sum-tree: one leaf per vacancy, weights = the final total rates.
    let rates: Vec<f64> = engine.systems().iter().map(|s| s.total_rate).collect();
    let mut tree = SumTree::from_weights(&rates);
    let mut rng = Pcg32::seed_from_u64(7);
    const SAMPLES: u64 = 4096;
    let mut samples = 0u64;
    let ((), dt) = spans.timed("replay.core.sumtree_sample", ROOT, || {
        samples = SAMPLES
            * repeat_until(budget_s / 4.0, || {
                for _ in 0..SAMPLES {
                    black_box(tree.sample(rng.f64() * tree.total()));
                }
            });
    });
    out.set("core.sumtree.sample_ns", per_op_ns(dt, samples));
    // `set_many` as the engine calls it: one call per refresh, over as many
    // leaves as a step refreshes on average.
    let width = (refreshes_per_step.round() as usize).clamp(1, rates.len());
    let indices: Vec<usize> = (0..width).collect();
    let weights: Vec<f64> = rates[..width].to_vec();
    let mut calls = 0u64;
    let ((), dt) = spans.timed("replay.core.sumtree_set_many", ROOT, || {
        calls = SAMPLES
            * repeat_until(budget_s / 4.0, || {
                for _ in 0..SAMPLES {
                    tree.set_many(&indices, &weights);
                }
                black_box(tree.total());
            });
    });
    out.set("core.sumtree.set_many_ns", per_op_ns(dt, calls));
}

/// Repeats `round` until `budget_s` has passed (at least once) and returns
/// how many rounds ran.
fn repeat_until(budget_s: f64, mut round: impl FnMut()) -> u64 {
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        round();
        rounds += 1;
        if started.elapsed().as_secs_f64() >= budget_s {
            return rounds;
        }
    }
}
