//! Bench of the AKMC hot path: one KMC step (cached vs direct evaluation),
//! the serial-vs-parallel vacancy-cache refresh, and the propensity
//! sum-tree primitives.

use std::hint::black_box;
use tensorkmc::core::{EvalMode, SumTree};
use tensorkmc::lattice::AlloyComposition;
use tensorkmc::quickstart;
use tensorkmc_bench::runner::Criterion;

fn bench_kmc_step(c: &mut Criterion) {
    let model = quickstart::train_small_model(3);
    let comp = AlloyComposition {
        cu_fraction: 0.0134,
        vacancy_fraction: 5e-4,
    };
    let mut g = c.benchmark_group("kmc_step");
    g.sample_size(10);
    for (label, mode) in [("cached", EvalMode::Cached), ("direct", EvalMode::Direct)] {
        let mut engine = quickstart::engine_with(&model, 14, comp, 573.0, mode, 7).expect("engine");
        engine.run_steps(10).expect("warmup");
        g.bench_function(format!("step_{label}"), |b| {
            b.iter(|| black_box(engine.step().unwrap()))
        });
    }
    g.finish();
}

/// Serial vs parallel vs batched vacancy-cache refresh at increasing
/// vacancy counts.
///
/// Uses Direct mode so every refresh pays a full NNP forward pass — the
/// workload the parallel fan-out and the cross-system batching in
/// `refresh_invalid` exist to hide. The box is 10³ cells (2 000 sites); the
/// vacancy fraction is chosen to land the requested vacancy count, so each
/// hop invalidates a batch that grows with density. Trajectories are
/// bit-identical across all three variants (same seed, same float-op
/// order), so the comparison is purely timing:
///
/// * `serial` — one thread, one kernel call per stale system;
/// * `parallel` — threaded per-system refresh (PR 3's path);
/// * `batched` — one evaluator call for the whole stale set
///   (`batch_systems = 0`): features on the calling thread, one kernel call.
///
/// Each variant runs twice: `dense` (full (1+8)·N_region feature rows per
/// system, the ablation baseline) and `delta` (affected rows recomputed,
/// unique rows inferred — the production default). Same bit-identical
/// trajectories, so every `dense`/`delta` pair is directly comparable.
///
/// A final `memo` pair per vacancy count compares the VET→energy memo
/// cache on (4096 entries, the production default) vs off on the batched
/// delta path, and prints the measured memo hit rate — the figure the
/// README's tuning table and EXPERIMENTS.md quote.
fn bench_refresh(c: &mut Criterion) {
    let model = quickstart::train_small_model(3);
    let comp_for = |n_vac: usize| AlloyComposition {
        cu_fraction: 0.0134,
        vacancy_fraction: n_vac as f64 / 2_000.0,
    };
    // At least 4 workers so the parallel path (scoped spawn + ordered
    // write-back) is exercised even on small CI machines where
    // `max_threads()` would collapse the variant back to the serial path.
    let threads = tensorkmc_compat::pool::max_threads().max(4);
    let mut g = c.benchmark_group("refresh");
    g.sample_size(10);
    for n_vac in [16usize, 64, 128] {
        // (label, refresh workers, batch_systems cap, delta_features,
        //  memo entries). The non-memo variants pin the memo off so each
        // pair isolates exactly one effect; `batched_delta_memo` vs
        // `batched_delta_memo_off` is the cache-on/cache-off column.
        let variants = [
            ("serial_dense", 1usize, 1usize, false, 0usize),
            ("serial_delta", 1, 1, true, 0),
            ("parallel_dense", threads, 1, false, 0),
            ("parallel_delta", threads, 1, true, 0),
            ("batched_dense", threads, 0, false, 0),
            ("batched_delta_memo_off", threads, 0, true, 0),
            ("batched_delta_memo", threads, 0, true, 4096),
        ];
        for (label, workers, batch, delta, memo) in variants {
            let mut engine =
                quickstart::engine_with(&model, 10, comp_for(n_vac), 573.0, EvalMode::Direct, 7)
                    .expect("engine");
            engine.set_refresh_threads(workers);
            engine.set_batch_systems(batch);
            engine.set_delta_features(delta);
            engine.set_energy_cache_entries(memo);
            engine.run_steps(5).expect("warmup");
            g.bench_function(format!("v{n_vac}_{label}"), |b| {
                b.iter(|| black_box(engine.step().unwrap()))
            });
            if memo > 0 {
                let s = engine.memo_stats();
                println!(
                    "    v{n_vac}_{label}: memo hit rate {:.1}% \
                     ({} hits / {} lookups, {} evictions)",
                    100.0 * s.hit_rate().unwrap_or(0.0),
                    s.hits,
                    s.hits + s.misses,
                    s.evictions,
                );
            }
        }
    }
    g.finish();
}

/// The measurement behind `PAR_GATHER_MIN_CHUNK` in `core::engine`: the
/// refresh's clone-and-gather of `n` stale systems inline against fanned
/// over two scoped workers, at the paper deck's geometry. The two columns
/// cross where the gathers outweigh one spawn and join.
fn bench_gather_fanout(c: &mut Criterion) {
    let model = quickstart::train_small_model(3);
    let comp = AlloyComposition {
        cu_fraction: 0.0134,
        vacancy_fraction: 0.07,
    };
    let engine =
        quickstart::engine_with(&model, 16, comp, 573.0, EvalMode::Cached, 7).expect("engine");
    let (systems, lattice, geom) = (engine.systems(), engine.lattice(), engine.geometry());
    let mut g = c.benchmark_group("gather_fanout");
    g.sample_size(20);
    for n in [2usize, 16, 64, 128, 256, 512] {
        assert!(n <= systems.len());
        for threads in [1usize, 2] {
            g.bench_function(format!("n{n}_w{threads}"), |b| {
                b.iter(|| {
                    black_box(tensorkmc_compat::pool::par_map_collect_threads(
                        threads,
                        n,
                        |j| {
                            let mut sys = systems[j].clone();
                            sys.gather_vet(lattice, geom);
                            sys
                        },
                    ))
                })
            });
        }
    }
    g.finish();
}

fn bench_sumtree(c: &mut Criterion) {
    let n = 1 << 16;
    let weights: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 + 0.5).collect();
    let mut tree = SumTree::from_weights(&weights);
    let mut g = c.benchmark_group("sumtree");
    g.bench_function("set_64k", |b| {
        let mut i = 0usize;
        b.iter(|| {
            tree.set(i % n, (i % 13) as f64);
            i += 1;
        })
    });
    g.bench_function("sample_64k", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 1234.567) % tree.total();
            black_box(tree.sample(x))
        })
    });
    g.finish();
}

tensorkmc_bench::bench_main!(
    bench_kmc_step,
    bench_refresh,
    bench_gather_fanout,
    bench_sumtree
);
