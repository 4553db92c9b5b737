//! `sublattice_2rank`: the synchronous-sublattice driver, 1 rank (the plain
//! baseline) against 2 in-process ranks, wired exactly as
//! `src/main.rs::run_parallel` wires it.
//!
//! One run repeats a short fixed segment (the same deck from `t = 0`),
//! alternating rank counts, until the time box is spent. Every repeat does
//! identical work, so the per-segment walls are clean samples for medians
//! and the repeats double as the same-seed determinism check.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tensorkmc::core::RateLaw;
use tensorkmc::input::{InputDeck, ModelSource};
use tensorkmc::lattice::{AlloyComposition, PeriodicBox, RegionGeometry, SiteArray};
use tensorkmc::nnp::NnpModel;
use tensorkmc::operators::NnpDirectEvaluator;
use tensorkmc::parallel::sublattice::{run_sublattice_full, RunOptions as ParallelRunOptions};
use tensorkmc::parallel::{Decomposition, ParallelConfig, ParallelStats};
use tensorkmc::quickstart;
use tensorkmc_compat::json::Json;
use tensorkmc_compat::rng::StdRng;

use crate::ground::{wait_or_kill, Ground, CHILD_TIMEOUT, MODEL_SEED};
use crate::host;
use crate::report::{Outcome, RunOptions};
use crate::spans::{Spans, ROOT};
use crate::stats::median;
use crate::timed_eval::{EvalRecorder, TimedEvaluator};

use super::{lattice_digest, write_and_reload_deck, write_spans};

/// The workload this module runs.
pub const NAME: &str = "sublattice_2rank";
const CELLS: i32 = 24;
const VACANCY_FRACTION: f64 = 2e-3;
const T_STOP: f64 = 2e-8;
/// Sector cycles per segment at full size (about a second per segment).
const SEGMENT_CYCLES: u64 = 50;

/// Everything `run_parallel` builds before it starts the ranks.
struct Setup {
    model: NnpModel,
    geom: Arc<RegionGeometry>,
    lattice: SiteArray,
    config: ParallelConfig,
    /// Decompositions for 1 and 2 ranks.
    decomps: [Decomposition; 2],
    random_alloy_s: f64,
}

fn setup(deck: &InputDeck) -> Result<Setup, String> {
    let ModelSource::TrainSmall { seed } = deck.model else {
        return Err("the sublattice deck trains its model".into());
    };
    let model = quickstart::train_small_model(seed);
    let geom = Arc::new(
        RegionGeometry::new(deck.lattice_constant, model.rcut).map_err(|e| e.to_string())?,
    );
    let mut law = RateLaw::at_temperature(deck.temperature);
    law.barriers = deck.barriers;
    let config = ParallelConfig {
        law,
        t_stop: deck.t_stop,
        total_time: deck.max_time,
        seed: deck.seed,
    };
    let pbox = PeriodicBox::new(deck.cells, deck.cells, deck.cells, deck.lattice_constant)
        .map_err(|e| e.to_string())?;
    let decomp = |n| Decomposition::choose_grid(pbox, n, &geom).map_err(|e| e.to_string());
    let decomps = [decomp(1)?, decomp(2)?];
    let t = Instant::now();
    let lattice = SiteArray::random_alloy(
        pbox,
        AlloyComposition {
            cu_fraction: deck.cu_fraction,
            vacancy_fraction: deck.vacancy_fraction,
        },
        &mut StdRng::seed_from_u64(deck.seed),
    )
    .map_err(|e| e.to_string())?;
    Ok(Setup {
        model,
        geom,
        lattice,
        config,
        decomps,
        random_alloy_s: t.elapsed().as_secs_f64(),
    })
}

/// One finished segment.
struct Segment {
    wall_s: f64,
    stats: ParallelStats,
    digest: u64,
    census: (usize, usize, usize),
    /// Evaluator busy seconds per rank (traced pass only).
    eval_busy_s: Vec<f64>,
    /// Vacancy systems evaluated, all ranks (traced pass only).
    eval_systems: u64,
    eval_calls: u64,
}

/// Runs one segment on `ranks` ranks. With `spans`, every rank's evaluator
/// is wrapped through the `make_eval` hook.
fn segment(s: &Setup, ranks: usize, spans: Option<&Arc<Spans>>) -> Result<Segment, String> {
    let decomp = &s.decomps[ranks - 1];
    let recorders: Vec<Arc<EvalRecorder>> = spans
        .map(|sp| {
            (0..ranks)
                .map(|_| EvalRecorder::new(Arc::clone(sp)))
                .collect()
        })
        .unwrap_or_default();
    let span = spans.map(|sp| {
        let id = sp.open(
            if ranks == 1 {
                "parallel.run_1rank"
            } else {
                "parallel.run_2rank"
            },
            ROOT,
        );
        for r in &recorders {
            r.set_parent(id);
        }
        id
    });
    let t = Instant::now();
    let result = if spans.is_some() {
        run_sublattice_full(
            &s.lattice,
            Arc::clone(&s.geom),
            decomp,
            |rank| {
                TimedEvaluator::new(
                    NnpDirectEvaluator::new(&s.model, Arc::clone(&s.geom)),
                    Arc::clone(&recorders[rank]),
                )
            },
            &s.config,
            ParallelRunOptions::default(),
        )
    } else {
        run_sublattice_full(
            &s.lattice,
            Arc::clone(&s.geom),
            decomp,
            |_rank| NnpDirectEvaluator::new(&s.model, Arc::clone(&s.geom)),
            &s.config,
            ParallelRunOptions::default(),
        )
    };
    let wall_s = t.elapsed().as_secs_f64();
    if let (Some(sp), Some(id)) = (spans, span) {
        sp.close(id);
    }
    let (out, stats, _) = result.map_err(|e| e.to_string())?;
    Ok(Segment {
        wall_s,
        digest: lattice_digest(&out),
        census: out.census(),
        stats,
        eval_busy_s: recorders.iter().map(|r| r.busy_s()).collect(),
        eval_systems: recorders.iter().map(|r| r.systems()).sum(),
        eval_calls: recorders.iter().map(|r| r.calls()).sum(),
    })
}

/// The `done:` line `finish_parallel` prints for these statistics.
fn done_line(stats: &ParallelStats, census: (usize, usize, usize)) -> String {
    let (fe, cu, vac) = census;
    format!(
        "done: {} cycles, {:.3e} s simulated, {} events ({fe} Fe, {cu} Cu, {vac} vacancies)",
        stats.cycles,
        stats.time,
        stats.total_events()
    )
}

fn last_done_line(stdout: &str) -> String {
    stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("done:"))
        .unwrap_or("<no done: line>")
        .to_string()
}

/// Runs the workload.
pub fn run(ground: &Ground, opts: &RunOptions) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ground.fresh_dir(&format!("{NAME}-run"))?;
    let cycles = opts.scaled(SEGMENT_CYCLES, 5);
    let deck = InputDeck {
        cells: CELLS,
        vacancy_fraction: VACANCY_FRACTION,
        model: ModelSource::TrainSmall { seed: MODEL_SEED },
        ranks: 2,
        t_stop: T_STOP,
        max_time: cycles as f64 * T_STOP,
        seed: opts.deck_seed,
        xyz_output: String::new(),
        csv_output: String::new(),
        ..InputDeck::default()
    };
    let deck = write_and_reload_deck(&deck, &dir.join("deck.json"))?;

    // Set-up (model + lattice + decomposition), repeated for a median.
    let mut setup_walls = Vec::new();
    let mut built = None;
    for _ in 0..if opts.quick || opts.trace { 1 } else { 3 } {
        let t = Instant::now();
        built = Some(setup(&deck)?);
        setup_walls.push(t.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one set-up ran");
    let initial_census = built.lattice.census();

    // Alternate 1-rank and 2-rank segments, swapping which goes first; the
    // workload seed picks who opens (the deck itself is a fixed input).
    let spans = opts.trace.then(|| Arc::new(Spans::new()));
    let mut segments: [Vec<Segment>; 2] = [Vec::new(), Vec::new()];
    let t0 = Instant::now();
    let mut pair = 0;
    let opener = opts.seed % 2;
    while pair == 0 || t0.elapsed().as_secs_f64() < opts.seconds {
        for ranks in if (pair + opener).is_multiple_of(2) {
            [1, 2]
        } else {
            [2, 1]
        } {
            match segment(&built, ranks, spans.as_ref()) {
                Ok(s) => {
                    out.attempted += s.stats.cycles;
                    segments[ranks - 1].push(s);
                }
                Err(e) => {
                    out.attempted += cycles;
                    out.failed += cycles;
                    out.check("segment ran", false, format!("{ranks} rank(s): {e}"));
                }
            }
        }
        pair += 1;
    }
    let loop_wall = t0.elapsed().as_secs_f64();
    let rss = host::self_vm_hwm_bytes().unwrap_or(0) as f64;
    let [one, two] = &segments;
    if one.is_empty() || two.is_empty() {
        return Err("no segment completed".into());
    }

    for (ranks, runs) in [(1, one), (2, two)] {
        let first = &runs[0];
        out.check(
            &format!("{ranks}-rank repeats agree"),
            runs.iter().all(|s| {
                s.digest == first.digest
                    && s.stats.rank_events == first.stats.rank_events
                    && s.stats.time.to_bits() == first.stats.time.to_bits()
            }),
            format!(
                "{} repeats, digest {:016x}, events {:?}",
                runs.len(),
                first.digest,
                first.stats.rank_events
            ),
        );
        out.check(
            &format!("{ranks}-rank census conserved"),
            runs.iter().all(|s| s.census == initial_census),
            format!("{initial_census:?}"),
        );
    }

    let t1 = median(&one.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let t2 = median(&two.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let stats = &two[0].stats;
    let eff = t1 / (2.0 * t2);
    out.set("strong_scaling_eff", eff);
    out.set("cycles_per_s", stats.cycles as f64 / t2);
    if host::nproc() < 2 {
        out.degenerate.insert(
            "strong_scaling_eff",
            "one core: ranks time-share it, serial ~ parallel is not a result".into(),
        );
    }
    out.note("t1_s", Json::Num(t1));
    out.note("t2_s", Json::Num(t2));
    out.note("pairs", Json::UInt(pair));
    out.note("segment_cycles", Json::UInt(cycles));

    if let Some(spans) = &spans {
        traced_metrics(ground, &deck, &dir, two, t2, spans, loop_wall, &mut out)?;
        out.set("lattice.random_alloy_s", built.random_alloy_s);
    } else {
        out.set("setup_s", median(&setup_walls));
        out.set("steps_per_s", stats.total_events() as f64 / t2);
        out.set("wall_s_per_sim_s", t2 / stats.time);
        out.set("peak_rss_bytes", rss);
        // This workload writes no checkpoint: the end-of-run high-water
        // mark is the same reading.
        out.set("checkpoint_rss_bytes", rss);
        // The real binary, same deck, `--ranks 2` in-process transport.
        let stdout = ground.run_binary(&dir, &["-in", "deck.json"])?;
        let expected = done_line(stats, two[0].census);
        let got = last_done_line(&stdout);
        out.check(
            "binary --ranks 2 done: line",
            got == expected,
            format!("{got:?}"),
        );
    }
    Ok(out)
}

/// Per-layer metrics of the traced pass, including the loopback-TCP run of
/// the real binary.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    ground: &Ground,
    deck: &InputDeck,
    dir: &Path,
    two: &[Segment],
    t2: f64,
    spans: &Arc<Spans>,
    loop_wall: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = two.len() as f64;
    let stats = &two[0].stats;
    let events = stats.total_events() as f64;
    let cycles = stats.cycles as f64;
    let mean_events = events / stats.rank_events.len() as f64;
    let busiest = median(
        &two.iter()
            .map(|s| s.eval_busy_s.iter().copied().fold(0.0, f64::max))
            .collect::<Vec<_>>(),
    );
    out.set("parallel.cycles", cycles);
    out.set("parallel.events", events);
    out.set(
        "parallel.evals_per_event",
        two[0].eval_systems as f64 / events,
    );
    out.set(
        "parallel.halo_bytes_per_cycle",
        stats.halo_bytes as f64 / cycles,
    );
    out.set(
        "parallel.remote_mods_per_cycle",
        stats.remote_mods as f64 / cycles,
    );
    out.set(
        "parallel.rank_event_imbalance",
        *stats.rank_events.iter().max().expect("two ranks") as f64 / mean_events,
    );
    out.set("parallel.eval_busy_s_max_rank", busiest);
    out.set("parallel.non_eval_s", t2 - busiest);
    let calls: u64 = two.iter().map(|s| s.eval_calls).sum();
    let systems: u64 = two.iter().map(|s| s.eval_systems).sum();
    out.set("operators.evaluate.calls", calls as f64 / n);
    out.set("operators.evaluate.systems", systems as f64 / n);
    out.set(
        "operators.evaluate.systems_per_call",
        systems as f64 / calls.max(1) as f64,
    );
    out.set(
        "operators.evaluate.busy_s",
        two.iter()
            .map(|s| s.eval_busy_s.iter().sum::<f64>())
            .sum::<f64>()
            / n,
    );

    // Reconciliation: the segment spans against the loop's wall.
    let tracked =
        spans.total("parallel.run_1rank").seconds + spans.total("parallel.run_2rank").seconds;
    let untracked = loop_wall - tracked;
    out.set("bench.untracked_s", untracked);
    out.check(
        "layer spans reconcile within 5%",
        untracked.abs() <= 0.05 * loop_wall,
        format!("wall {loop_wall:.4} s, segments {tracked:.4} s"),
    );

    // The same deck through the real binary, twice: `--ranks 2` in one
    // process, then coordinator + 2 loopback workers. A model *file* (the
    // dumped train_small weights) keeps start-up out of the ratio.
    let file_deck = InputDeck {
        model: Ground::file_model(&ground.small_model_path()),
        ..deck.clone()
    };
    std::fs::write(
        dir.join("file-deck.json"),
        file_deck.to_json().map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let expected = done_line(stats, two[0].census);
    let t = Instant::now();
    let stdout = ground.run_binary(dir, &["-in", "file-deck.json"])?;
    let in_process_wall = t.elapsed().as_secs_f64();
    let got = last_done_line(&stdout);
    out.check(
        "binary --ranks 2 done: line",
        got == expected,
        format!("{got:?}"),
    );
    let t = Instant::now();
    let stdout = tcp_run(ground, dir)?;
    let tcp_wall = t.elapsed().as_secs_f64();
    let got = last_done_line(&stdout);
    out.check("binary TCP done: line", got == expected, format!("{got:?}"));
    out.set("parallel.tcp_wall_ratio", tcp_wall / in_process_wall);
    out.note("tcp_wall_s", Json::Num(tcp_wall));
    out.note("binary_in_process_wall_s", Json::Num(in_process_wall));

    write_spans(ground, spans, NAME, out)?;
    Ok(())
}

/// Children that must not outlive the run: killed and reaped on drop.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Coordinator + two workers over loopback TCP; returns the coordinator's
/// stdout.
fn tcp_run(ground: &Ground, dir: &Path) -> Result<String, String> {
    let spawn = |extra: &[&str], log: &str| -> Result<Child, String> {
        let stdout = std::fs::File::create(dir.join(log)).map_err(|e| e.to_string())?;
        Command::new(&ground.bin)
            .args(["-in", "file-deck.json", "--ranks", "2", "--coordinator"])
            .args(extra)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ground.bin.display()))
    };
    let mut reaper = Reaper(vec![spawn(&["127.0.0.1:0"], "coordinator.stdout")?]);
    // The coordinator announces the port it bound.
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        let text = std::fs::read_to_string(dir.join("coordinator.stdout")).unwrap_or_default();
        let found = text
            .lines()
            .find_map(|l| l.strip_prefix("coordinator: listening on "))
            .and_then(|rest| rest.split_whitespace().next().map(str::to_string));
        if let Some(addr) = found {
            break addr;
        }
        if Instant::now() > deadline {
            return Err("the coordinator never announced its address".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    for rank in ["0", "1"] {
        reaper.0.push(spawn(
            &[addr.as_str(), "--rank", rank],
            &format!("worker{rank}.stdout"),
        )?);
    }
    // Whatever is still in the reaper when a wait fails is killed on drop.
    while let Some(child) = reaper.0.pop() {
        let status = wait_or_kill(child, CHILD_TIMEOUT)?;
        if !status.success() {
            return Err(format!("a TCP-run process exited with {status}"));
        }
    }
    std::fs::read_to_string(dir.join("coordinator.stdout")).map_err(|e| e.to_string())
}
