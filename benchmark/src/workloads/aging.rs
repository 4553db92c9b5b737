//! The three `aging_*` workloads: a serial engine built from a deck through
//! `driver::build_engine` and stepped with the CLI's own loop
//! (`run_steps` chunk → `analyze_clusters` → log row).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tensorkmc::analysis::{analyze_clusters, ObservableLog};
use tensorkmc::core::{KmcEngine, MemoStats};
use tensorkmc::driver;
use tensorkmc::fsutil::write_atomic;
use tensorkmc::input::{InputDeck, ModelSource};
use tensorkmc::lattice::{AlloyComposition, PeriodicBox, SiteArray, Species};
use tensorkmc::operators::VacancyEnergyEvaluator;
use tensorkmc::telemetry::Registry;
use tensorkmc_compat::codec::JsonCodec;
use tensorkmc_compat::json::Json;
use tensorkmc_compat::rng::StdRng;

use crate::ground::{Ground, MODEL_SEED};
use crate::replay;
use crate::report::{Outcome, RunOptions};
use crate::spans::{Spans, ROOT};
use crate::stats::{median, percentile};
use crate::timed_eval::{EvalRecorder, TimedEvaluator};

use super::{lattice_digest, write_and_reload_deck, write_spans};

/// Where an aging deck takes its model from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    /// `train_small`, trained during set-up like the default CLI deck.
    TrainSmall,
    /// The prepared paper-architecture model file.
    PaperFile,
}

/// One aging workload.
struct Spec {
    name: &'static str,
    cells: i32,
    cu_fraction: f64,
    vacancy_fraction: f64,
    model: Model,
    /// Steps per sampling chunk at full size.
    sample_every: u64,
    /// Length of the fixed prefix the determinism checks replay.
    check_steps: u64,
    /// Also replay the prefix through the real binary and compare the
    /// checkpoint bytes.
    binary_check: bool,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "aging_paper",
        cells: 16,
        cu_fraction: 0.0134,
        vacancy_fraction: 2e-4,
        model: Model::TrainSmall,
        sample_every: 20_000,
        check_steps: 2_000,
        binary_check: true,
    },
    Spec {
        name: "aging_kernel",
        cells: 12,
        cu_fraction: 0.05,
        vacancy_fraction: 2.4e-3,
        model: Model::PaperFile,
        sample_every: 50,
        check_steps: 20,
        binary_check: false,
    },
    Spec {
        name: "aging_bigbox",
        cells: 128,
        cu_fraction: 0.0134,
        vacancy_fraction: 2e-4,
        model: Model::TrainSmall,
        sample_every: 25_000,
        check_steps: 2_000,
        binary_check: false,
    },
];

/// Whether to take another sample of a repeated measurement (set-up,
/// checkpoint write): `min` samples always (one in quick mode), then up to
/// `max` while all of them together stay under `cheap_s` — a millisecond
/// set-up or a one-fsync checkpoint needs dozens of samples for its median
/// to hold still, a second-long one cannot afford them.
fn more_samples_wanted(
    opts: &RunOptions,
    walls: &[f64],
    min: usize,
    max: usize,
    cheap_s: f64,
) -> bool {
    if opts.quick {
        return walls.is_empty();
    }
    walls.len() < min || (walls.len() < max && walls.iter().sum::<f64>() < cheap_s)
}

/// Another set-up? At least 3, up to 9 while they total under 1.5 s.
fn more_setups_wanted(opts: &RunOptions, walls: &[f64]) -> bool {
    more_samples_wanted(opts, walls, 3, 9, 1.5)
}

/// Another checkpoint write? At least 7, up to 50 while under 0.25 s.
fn more_checkpoints_wanted(opts: &RunOptions, walls: &[f64]) -> bool {
    more_samples_wanted(opts, walls, 7, 50, 0.25)
}

/// Runs one aging workload.
pub fn run(ground: &Ground, opts: &RunOptions) -> Result<Outcome, String> {
    let spec = SPECS
        .iter()
        .find(|s| s.name == opts.workload)
        .ok_or_else(|| format!("`{}` is not an aging workload", opts.workload))?;
    let dir = ground.fresh_dir(&format!("{}-run", spec.name))?;
    let deck = write_and_reload_deck(&deck_of(ground, spec, opts), &dir.join("deck.json"))?;
    if opts.trace {
        run_traced(ground, spec, opts, &deck, &dir)
    } else {
        run_plain(ground, spec, opts, &deck, &dir)
    }
}

/// The deck of a run.
fn deck_of(ground: &Ground, spec: &Spec, opts: &RunOptions) -> InputDeck {
    InputDeck {
        cells: spec.cells,
        cu_fraction: spec.cu_fraction,
        vacancy_fraction: spec.vacancy_fraction,
        model: match spec.model {
            Model::TrainSmall => ModelSource::TrainSmall { seed: MODEL_SEED },
            Model::PaperFile => Ground::file_model(&ground.paper_model_path()),
        },
        seed: opts.deck_seed,
        sample_every: opts.scaled(spec.sample_every, 2),
        // The harness time-boxes the loop itself; the deck's own limits
        // only matter to the real-binary replay, which overrides them.
        max_steps: u64::MAX / 2,
        max_time: 1.0e30,
        xyz_output: String::new(),
        csv_output: String::new(),
        ..InputDeck::default()
    }
}

type PlainEngine = KmcEngine<tensorkmc::operators::VacancyEnergyEvaluatorBox>;

/// One set-up as a CLI user pays it: `driver::build_engine` (model train or
/// load, lattice, engine) plus the first step, which performs the lazy
/// initial fill of every vacancy system. Returns the engine and the wall.
fn timed_setup(deck: &InputDeck) -> Result<(PlainEngine, f64), String> {
    let t = Instant::now();
    let mut engine = driver::build_engine(deck, None, None)?.engine;
    engine.step().map_err(|e| e.to_string())?;
    Ok((engine, t.elapsed().as_secs_f64()))
}

/// Digest and clock of an engine: what "the same trajectory" compares.
fn state_of<E: VacancyEnergyEvaluator>(engine: &KmcEngine<E>) -> (u64, u64, u64) {
    (
        engine.stats().steps,
        lattice_digest(engine.lattice()),
        engine.time().to_bits(),
    )
}

/// Steps, wall and simulated time of a stepping loop.
#[derive(Debug, Default, Clone, Copy)]
struct Stretch {
    steps: u64,
    wall_s: f64,
    samples: u64,
}

/// One sampling chunk exactly as `src/main.rs` runs it: step, analyse,
/// log, format the progress row.
fn cli_chunk<E: VacancyEnergyEvaluator>(
    engine: &mut KmcEngine<E>,
    chunk: u64,
    log: &mut ObservableLog,
) -> Result<(), String> {
    let chunk_start = Instant::now();
    let steps_before = engine.stats().steps;
    engine.run_steps(chunk).map_err(|e| e.to_string())?;
    let chunk_wall = chunk_start.elapsed().as_secs_f64();
    let steps_per_s = (engine.stats().steps - steps_before) as f64 / chunk_wall.max(1e-12);
    let r = analyze_clusters(engine.lattice(), Species::Cu, &engine.geometry().shells, 1);
    let volume = engine.lattice().pbox().volume_m3();
    log.push(engine.time(), engine.stats().steps, &r, volume);
    black_box(format!(
        "  {:>9.3e}   {:>8}   {:>8}   {:>8}   {:>5}   {:>9.0}",
        engine.time(),
        engine.stats().steps,
        r.isolated,
        r.n_clusters,
        r.max_size,
        steps_per_s
    ));
    Ok(())
}

/// Un-timed steps before the measured window. The deck is a fixed input
/// (see the README: a box with a handful of vacancies is not
/// self-averaging, its cost varies by a third across deck seeds), so the
/// workload seed only shifts where the window starts: by up to 5% of a
/// sampling chunk, under half a percent of the window on every aging
/// workload. (Simulated time per step is heavy-tailed: on `aging_kernel`
/// a shift of 15 steps in ~750 already moved `wall_s_per_sim_s` by 5%.)
fn window_jitter(opts: &RunOptions, chunk: u64) -> u64 {
    (opts.seed % 16) * chunk / 320
}

fn run_plain(
    ground: &Ground,
    spec: &Spec,
    opts: &RunOptions,
    deck: &InputDeck,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let chunk = deck.sample_every;

    // Set-up A builds the engine that is measured.
    let (mut engine, first_setup) = timed_setup(deck)?;
    let mut setup_walls = vec![first_setup];
    let census = engine.lattice().census();
    engine
        .run_steps(window_jitter(opts, chunk))
        .map_err(|e| e.to_string())?;

    // The time-boxed stepping loop (sampling included, set-up excluded).
    let mut log = ObservableLog::new();
    let start_steps = engine.stats().steps;
    let start_time = engine.time();
    let t0 = Instant::now();
    let mut stretch = Stretch::default();
    loop {
        if let Err(e) = cli_chunk(&mut engine, chunk, &mut log) {
            out.failed += chunk;
            out.check("engine.steps", false, e);
            break;
        }
        stretch.samples += 1;
        if t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    stretch.wall_s = t0.elapsed().as_secs_f64();
    stretch.steps = engine.stats().steps - start_steps;
    let sim_s = engine.time() - start_time;
    out.attempted = stretch.steps + out.failed;
    let rss = crate::host::self_vm_hwm_bytes().unwrap_or(0);

    out.set("steps_per_s", stretch.steps as f64 / stretch.wall_s);
    out.set("wall_s_per_sim_s", stretch.wall_s / sim_s);
    out.set("peak_rss_bytes", rss as f64);
    out.check(
        "steps == chunks * sample_every",
        stretch.steps == stretch.samples * chunk,
        format!(
            "{} steps in {} chunks of {chunk}",
            stretch.steps, stretch.samples
        ),
    );
    out.check(
        "species census conserved",
        engine.lattice().census() == census,
        format!("{census:?} -> {:?}", engine.lattice().census()),
    );

    // Checkpoints: engine.checkpoint() -> JSON -> write_atomic, as the CLI
    // does for `checkpoint_output`.
    let ckpt_path = dir.join("checkpoint.json").to_string_lossy().into_owned();
    let mut ckpt_walls = Vec::new();
    while more_checkpoints_wanted(opts, &ckpt_walls) {
        let t = Instant::now();
        let json = engine.checkpoint().to_json_string();
        write_atomic(&ckpt_path, json).map_err(|e| format!("cannot write {ckpt_path}: {e}"))?;
        ckpt_walls.push(t.elapsed().as_secs_f64());
    }
    out.set("checkpoint_s", median(&ckpt_walls));
    out.set(
        "checkpoint_rss_bytes",
        crate::host::self_vm_hwm_bytes().unwrap_or(0) as f64,
    );
    let final_state = state_of(&engine);
    drop(engine);

    // Further set-ups, timed; each engine then replays the fixed prefix, so
    // the repeats double as the same-seed determinism check.
    let check_steps = opts.scaled(spec.check_steps, 5);
    let mut prefix_states = Vec::new();
    let mut prefix_checkpoint = None;
    while more_setups_wanted(opts, &setup_walls) || prefix_states.len() < 2 {
        let (mut rep, wall) = timed_setup(deck)?;
        setup_walls.push(wall);
        if prefix_states.len() < 2 {
            rep.run_steps(check_steps - 1).map_err(|e| e.to_string())?;
            prefix_states.push(state_of(&rep));
            if spec.binary_check && prefix_checkpoint.is_none() {
                prefix_checkpoint = Some(rep.checkpoint().to_json_string());
            }
        }
    }
    out.set("setup_s", median(&setup_walls));
    out.check(
        "same seed, same digest and clock",
        prefix_states[0] == prefix_states[1],
        format!(
            "after {check_steps} steps: digest {:016x} vs {:016x}, t bits {:x} vs {:x}",
            prefix_states[0].1, prefix_states[1].1, prefix_states[0].2, prefix_states[1].2
        ),
    );
    if let Some(expected) = prefix_checkpoint {
        binary_checkpoint_check(ground, deck, check_steps, &expected, dir, &mut out)?;
    }

    out.note("steps", Json::UInt(stretch.steps));
    out.note("samples", Json::UInt(stretch.samples));
    out.note("stepping_wall_s", Json::Num(stretch.wall_s));
    out.note("sim_time_s", Json::Num(sim_s));
    out.note("setup_samples", Json::UInt(setup_walls.len() as u64));
    out.note("final_digest", Json::Str(format!("{:016x}", final_state.1)));
    Ok(out)
}

/// Replays the fixed prefix through the real binary with
/// `checkpoint_output` and compares the file to the in-process checkpoint,
/// byte for byte.
fn binary_checkpoint_check(
    ground: &Ground,
    deck: &InputDeck,
    check_steps: u64,
    expected: &str,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let short = InputDeck {
        max_steps: check_steps,
        sample_every: check_steps,
        checkpoint_output: "binary.ckpt".to_string(),
        ..deck.clone()
    };
    let text = short.to_json().map_err(|e| e.to_string())?;
    std::fs::write(dir.join("binary-deck.json"), text).map_err(|e| e.to_string())?;
    ground.run_binary(dir, &["-in", "binary-deck.json"])?;
    let got = std::fs::read_to_string(dir.join("binary.ckpt"))
        .map_err(|e| format!("the binary wrote no checkpoint: {e}"))?;
    out.check(
        "binary checkpoint == in-process checkpoint",
        got == expected,
        format!(
            "{} vs {} bytes after {check_steps} steps",
            got.len(),
            expected.len()
        ),
    );
    Ok(())
}

fn run_traced(
    ground: &Ground,
    spec: &Spec,
    opts: &RunOptions,
    deck: &InputDeck,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spans = Arc::new(Spans::new());
    let recorder = EvalRecorder::new(Arc::clone(&spans));
    let chunk = deck.sample_every;

    // Set-up, piece by piece through the same public functions
    // `driver::build_engine` calls, each in its own span.
    let setup_span = spans.open("bench.setup", ROOT);
    let built = spans.time("driver.build_evaluator", setup_span, || {
        driver::build_evaluator(deck, None)
    })?;
    let lattice = spans.time("lattice.random_alloy", setup_span, || {
        let pbox = PeriodicBox::new(deck.cells, deck.cells, deck.cells, deck.lattice_constant)
            .map_err(|e| e.to_string())?;
        SiteArray::random_alloy(
            pbox,
            AlloyComposition {
                cu_fraction: deck.cu_fraction,
                vacancy_fraction: deck.vacancy_fraction,
            },
            &mut StdRng::seed_from_u64(deck.seed),
        )
        .map_err(|e| e.to_string())
    })?;
    let census = lattice.census();
    let mut engine = spans.time("core.engine_new", setup_span, || {
        KmcEngine::new(
            lattice,
            Arc::clone(&built.geom),
            TimedEvaluator::new(built.evaluator, Arc::clone(&recorder)),
            driver::engine_config(deck),
            deck.seed,
        )
        .map_err(|e| e.to_string())
    })?;
    let first_step = spans.open("core.first_step", setup_span);
    recorder.set_parent(first_step);
    engine.step().map_err(|e| e.to_string())?;
    spans.close(first_step);
    spans.close(setup_span);
    out.set(
        "driver.build_evaluator_s",
        spans.total("driver.build_evaluator").seconds,
    );
    out.set(
        "lattice.random_alloy_s",
        spans.total("lattice.random_alloy").seconds,
    );
    out.set("core.engine_new_s", spans.total("core.engine_new").seconds);
    out.set("core.engine_new.systems", engine.n_vacancies() as f64);
    out.set("core.first_step_s", spans.total("core.first_step").seconds);

    // The wrapper must be transparent: the wrapped engine and a plain
    // `build_engine` engine agree after the fixed prefix.
    let check_steps = opts.scaled(spec.check_steps, 5);
    recorder.set_enabled(false);
    engine
        .run_steps(check_steps - 1)
        .map_err(|e| e.to_string())?;
    let file_deck = InputDeck {
        model: match spec.model {
            Model::TrainSmall => Ground::file_model(&ground.small_model_path()),
            Model::PaperFile => deck.model.clone(),
        },
        ..deck.clone()
    };
    let mut plain = driver::build_engine(&file_deck, None, None)?.engine;
    plain.run_steps(check_steps).map_err(|e| e.to_string())?;
    out.check(
        "traced engine == plain engine",
        state_of(&engine) == state_of(&plain),
        format!("after {check_steps} steps"),
    );
    drop(plain);
    engine
        .run_steps(window_jitter(opts, chunk))
        .map_err(|e| e.to_string())?;

    // Stepping, in the CLI's chunks. Inside a chunk, short slices alternate
    // between traced (a span per step, the evaluator wrapper recording)
    // and plain (wrapper off, `run_steps`) on the one engine, so both
    // halves sample the same stretch of trajectory and the ratio of their
    // step rates is the tracing overhead.
    let fill_calls = (recorder.calls(), recorder.systems(), recorder.busy_s());
    let stats0 = engine.stats();
    let memo0 = engine.memo_stats();
    let mut log = ObservableLog::new();
    let mut traced = Stretch::default();
    let mut untraced = Stretch::default();
    let slice = (chunk / 20).max(1);
    let t0 = Instant::now();
    let mut chunks = 0u64;
    while chunks < 2 || t0.elapsed().as_secs_f64() < opts.seconds {
        let chunk_span = spans.open("bench.chunk", ROOT);
        let (mut done, mut k) = (0, chunks); // alternate which half goes first
        while done < chunk {
            let n = slice.min(chunk - done);
            let on = k % 2 == 0;
            recorder.set_enabled(on);
            let c0 = Instant::now();
            let stretch = if on {
                for _ in 0..n {
                    let id = spans.open("core.step", chunk_span);
                    recorder.set_parent(id);
                    let stepped = engine.step();
                    spans.close(id);
                    stepped.map_err(|e| e.to_string())?;
                }
                &mut traced
            } else {
                spans
                    .time("bench.plain_slice", chunk_span, || engine.run_steps(n))
                    .map_err(|e| e.to_string())?;
                &mut untraced
            };
            stretch.wall_s += c0.elapsed().as_secs_f64();
            stretch.steps += n;
            done += n;
            k += 1;
        }
        let r = spans.time("analysis.clusters", chunk_span, || {
            analyze_clusters(engine.lattice(), Species::Cu, &engine.geometry().shells, 1)
        });
        let volume = engine.lattice().pbox().volume_m3();
        log.push(engine.time(), engine.stats().steps, &r, volume);
        spans.close(chunk_span);
        chunks += 1;
    }
    let loop_wall = t0.elapsed().as_secs_f64();
    recorder.set_enabled(false);
    out.attempted = traced.steps + untraced.steps;

    let steps = spans.total("core.step");
    let analysis = spans.total("analysis.clusters");
    let step_us: Vec<f64> = spans
        .durations("core.step")
        .into_iter()
        .map(|s| s * 1e6)
        .collect();
    let eval_calls = recorder.calls() - fill_calls.0;
    let eval_systems = recorder.systems() - fill_calls.1;
    let eval_busy = recorder.busy_s() - fill_calls.2;
    out.set("core.step.count", steps.count as f64);
    out.set("core.step.busy_s", steps.seconds);
    out.set("core.step.p50_us", percentile(&step_us, 50.0));
    out.set("core.step.p99_us", percentile(&step_us, 99.0));
    out.set("core.self_s", steps.seconds - eval_busy);
    out.set(
        "core.self_share",
        (steps.seconds - eval_busy) / steps.seconds,
    );
    out.set("operators.evaluate.calls", eval_calls as f64);
    out.set("operators.evaluate.systems", eval_systems as f64);
    out.set(
        "operators.evaluate.systems_per_call",
        eval_systems as f64 / (eval_calls as f64).max(1.0),
    );
    out.set("operators.evaluate.busy_s", eval_busy);
    out.set(
        "analysis.clusters_s_per_sample",
        analysis.seconds / analysis.count as f64,
    );

    let stats1 = engine.stats();
    let d_steps = (stats1.steps - stats0.steps) as f64;
    let d_refresh = (stats1.refreshes - stats0.refreshes) as f64;
    let memo: MemoStats = engine.memo_stats().since(&memo0);
    out.set("core.refreshes_per_step", d_refresh / d_steps);
    out.set(
        "core.vacancy_cache.hit_ratio",
        1.0 - d_refresh / (d_steps * engine.n_vacancies() as f64),
    );
    out.set("core.memo.hit_ratio", memo.hit_rate().unwrap_or(0.0));
    out.set("core.memo.evictions", memo.evictions as f64);
    out.set("core.memory_bytes", engine.memory_bytes() as f64);

    // Reconciliation: every recorded layer span of the loop against the
    // loop's wall; what is left over is its own line.
    let plain = spans.total("bench.plain_slice");
    let untracked = loop_wall - steps.seconds - plain.seconds - analysis.seconds;
    out.set("bench.untracked_s", untracked);
    out.check(
        "layer spans reconcile within 5%",
        untracked.abs() <= 0.05 * loop_wall,
        format!(
            "wall {loop_wall:.4} s = traced steps {:.4} + plain slices {:.4} + analysis {:.4} + untracked {untracked:.4}",
            steps.seconds, plain.seconds, analysis.seconds
        ),
    );
    out.set(
        "bench.trace_overhead_ratio",
        (traced.steps as f64 / traced.wall_s) / (untraced.steps as f64 / untraced.wall_s),
    );
    out.check(
        "species census conserved",
        engine.lattice().census() == census,
        format!("{census:?} -> {:?}", engine.lattice().census()),
    );

    // Checkpoint layers.
    let ckpt_path = dir.join("checkpoint.json").to_string_lossy().into_owned();
    let (mut encode, mut write, mut bytes) = (Vec::new(), Vec::<f64>::new(), 0usize);
    while more_checkpoints_wanted(opts, &write) {
        let (json, encode_s) = spans.timed("core.checkpoint.encode", ROOT, || {
            engine.checkpoint().to_json_string()
        });
        encode.push(encode_s);
        bytes = json.len();
        let (written, write_s) = spans.timed("fsutil.write_atomic", ROOT, || {
            write_atomic(&ckpt_path, json)
        });
        written.map_err(|e| format!("cannot write {ckpt_path}: {e}"))?;
        write.push(write_s);
    }
    out.set("core.checkpoint.encode_s", median(&encode));
    out.set("core.checkpoint.bytes", bytes as f64);
    out.set("fsutil.write_atomic_s", median(&write));
    out.set("fsutil.write_mb_per_s", bytes as f64 / 1e6 / median(&write));
    out.set("checkpoint_s", median(&encode) + median(&write));

    // Stage replays on state captured from this run.
    let model_path = match spec.model {
        Model::TrainSmall => ground.small_model_path(),
        Model::PaperFile => ground.paper_model_path(),
    };
    let model = ground.load_model(&model_path)?;
    let batches = recorder.take_captured();
    let budget = if opts.quick { 0.05 } else { 0.4 };
    replay::operators(&model, &built.geom, &batches, budget, &spans, &mut out)?;
    replay::core(
        &engine,
        &batches,
        d_refresh / d_steps,
        budget,
        &spans,
        &mut out,
    );
    if spec.name == "aging_kernel" {
        replay::sunway(&model, &built.geom, &batches, budget, &spans, &mut out)?;
    }
    drop(engine);
    if spec.name == "aging_paper" {
        registry_overhead(&file_deck, opts, &mut out)?;
    }

    write_spans(ground, &spans, spec.name, &mut out)?;
    out.note("traced_steps", Json::UInt(traced.steps));
    out.note("untraced_steps", Json::UInt(untraced.steps));
    Ok(out)
}

/// `telemetry.registry_overhead_ratio`: two engines from one deck, one
/// with a telemetry `Registry` passed to `build_engine`, stepped in
/// lock-step over the same trajectory; the median ratio of their chunk
/// rates is what the product's own instrumentation costs.
fn registry_overhead(deck: &InputDeck, opts: &RunOptions, out: &mut Outcome) -> Result<(), String> {
    let registry = Registry::new();
    let mut bare = driver::build_engine(deck, None, None)?.engine;
    let mut instrumented = driver::build_engine(deck, None, Some(&registry))?.engine;
    let chunk = opts.scaled(5_000, 100);
    let mut ratios = Vec::new();
    for pair in 0..if opts.quick { 2 } else { 8 } {
        let mut wall = [0.0f64; 2];
        // Alternate which engine goes first so drift cancels.
        for slot in [pair % 2, 1 - pair % 2] {
            let t = Instant::now();
            if slot == 0 {
                bare.run_steps(chunk).map_err(|e| e.to_string())?;
            } else {
                instrumented.run_steps(chunk).map_err(|e| e.to_string())?;
            }
            wall[slot] = t.elapsed().as_secs_f64();
        }
        ratios.push(wall[0] / wall[1]); // rate(instrumented) / rate(bare)
    }
    out.set("telemetry.registry_overhead_ratio", median(&ratios));
    out.check(
        "registry does not change the trajectory",
        state_of(&bare) == state_of(&instrumented),
        format!("after {} steps", bare.stats().steps),
    );
    Ok(())
}
