//! The serial AKMC driver (paper Fig. 1) with the triple-encoding + vacancy
//! cache fast path.
//!
//! Each step: (1) refresh the rates of every invalidated vacancy system,
//! (2) sample one vacancy from the propensity sum-tree and a direction from
//! its rate residual, (3) advance the clock by the residence time,
//! (4) execute the hop and invalidate the vacancy systems whose VET contains
//! a changed site.
//!
//! Two modes drive the Fig. 8 validation: [`EvalMode::Cached`] (TensorKMC
//! proper) and [`EvalMode::Direct`] (recompute every system from the lattice
//! every step). On the same seed both produce bit-identical trajectories —
//! the correctness claim of paper §4.1.2.

use crate::energycache::{EnergyMemoCache, MemoStats};
use crate::error::KmcError;
use crate::rates::RateLaw;
use crate::rng::Pcg32;
use crate::sumtree::SumTree;
use crate::system::VacancySystem;
use crate::vacindex::VacancyBinIndex;
use std::sync::Arc;
use tensorkmc_compat::pool;
use tensorkmc_lattice::{HalfVec, RegionGeometry, SiteArray, Species};
use tensorkmc_operators::{Precision, StateEnergies, VacancyEnergyEvaluator};
use tensorkmc_telemetry::{keys, Counter, Histogram, Registry, SpanGuard, Timer, Tracer};

/// Cached telemetry handles for the engine hot path: resolved once at
/// [`KmcEngine::attach_telemetry`], then only relaxed atomics per step.
struct EngineTelemetry {
    step: Arc<Timer>,
    refresh: Arc<Timer>,
    select: Arc<Timer>,
    hop: Arc<Timer>,
    invalidate: Arc<Timer>,
    cache_hit: Arc<Counter>,
    cache_miss: Arc<Counter>,
    refreshed_per_step: Arc<Histogram>,
    refresh_parallel: Arc<Timer>,
    refresh_batch: Arc<Histogram>,
    refresh_batch_rows: Arc<Histogram>,
    refresh_batch_rows_dense: Arc<Histogram>,
    energy_hit: Arc<Counter>,
    energy_miss: Arc<Counter>,
    energy_evict: Arc<Counter>,
    energy_collision: Arc<Counter>,
    /// Span tracer, when the registry carries one (`--trace`): the engine
    /// phases then also appear as nested flame-chart spans.
    tracer: Option<Arc<Tracer>>,
}

impl EngineTelemetry {
    fn new(registry: &Registry) -> Self {
        EngineTelemetry {
            step: registry.timer(keys::STEP),
            refresh: registry.timer(keys::REFRESH),
            select: registry.timer(keys::SELECT),
            hop: registry.timer(keys::HOP),
            invalidate: registry.timer(keys::INVALIDATE),
            cache_hit: registry.counter(keys::CACHE_HIT),
            cache_miss: registry.counter(keys::CACHE_MISS),
            refreshed_per_step: registry.histogram(keys::REFRESHED_PER_STEP),
            refresh_parallel: registry.timer(keys::REFRESH_PARALLEL),
            refresh_batch: registry.histogram(keys::REFRESH_BATCH),
            refresh_batch_rows: registry.histogram(keys::REFRESH_BATCH_ROWS),
            refresh_batch_rows_dense: registry.histogram(keys::REFRESH_BATCH_ROWS_DENSE),
            energy_hit: registry.counter(keys::ENERGY_CACHE_HIT),
            energy_miss: registry.counter(keys::ENERGY_CACHE_MISS),
            energy_evict: registry.counter(keys::ENERGY_CACHE_EVICT),
            energy_collision: registry.counter(keys::ENERGY_CACHE_COLLISION),
            tracer: registry.tracer(),
        }
    }

    /// Opens a trace span when a tracer is attached (free otherwise).
    fn trace(&self, name: &'static str) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|t| t.span(name))
    }
}

/// Fewest stale systems worth fanning *evaluations* out over
/// `refresh_threads` (the parallel per-system arm), and the smallest stale
/// set that takes the batched arm: one NNP evaluation costs more than the
/// per-call thread spawn of `compat::pool`.
const PAR_REFRESH_MIN_BATCH: usize = 2;

/// Fewest systems in one chunk worth fanning the VET *gather* out: a
/// clone-and-gather is ~1.9 µs, a two-worker spawn and join ~75 µs, and the
/// workers pull single systems off one locked queue. Measured with `cargo
/// bench -p tensorkmc-bench --bench kmc_step -- gather_fanout` on the
/// 2-core reference host: 128 systems take 244 µs inline and 279 µs fanned
/// out, 256 take 487 µs against 475 µs, 512 take 973 µs against 623 µs.
const PAR_GATHER_MIN_CHUNK: usize = 256;

/// Default bound of the VET→energy memo cache. At paper geometry one entry
/// is ~1.2 KB (the VET key dominates), so the default costs a few MB — far
/// below the lattice — while comfortably covering the recurring all-Fe and
/// few-Cu environments of the dilute alloy.
pub const DEFAULT_ENERGY_CACHE_ENTRIES: usize = 4096;

/// How state energies are refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Triple encoding + vacancy cache: only systems whose VET changed are
    /// recomputed (paper §3.1–3.2).
    Cached,
    /// Recompute every vacancy system every step — the reference baseline of
    /// the Fig. 8 validation.
    Direct,
}

tensorkmc_compat::impl_json_enum!(EvalMode { Cached, Direct });

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmcConfig {
    /// The rate law (temperature, attempt frequency).
    pub law: RateLaw,
    /// Evaluation mode.
    pub mode: EvalMode,
    /// Rebuild the sum-tree every this many steps to cure float drift.
    pub tree_rebuild_interval: u64,
    /// Worker threads for the refresh phase: `0` or `1` runs serially, `n ≥
    /// 2` fans stale-system refreshes out over `n` scoped threads. The
    /// trajectory is bit-identical either way (each refresh is an
    /// independent pure function of the lattice; rates are applied to the
    /// propensity tree in system order), so this is an execution knob, not
    /// trajectory state — it is deliberately *not* persisted in checkpoints.
    pub refresh_threads: usize,
    /// Maximum vacancy systems folded into one batched evaluator call
    /// during a refresh: `0` = unbounded (the whole stale set in a single
    /// kernel invocation), `1` = the per-system path, `n ≥ 2` = chunks of
    /// `n`. Batching amortises fixed kernel costs — above all the
    /// big-fusion weight RMA — over the batch. Like `refresh_threads`,
    /// this is an execution knob: trajectories are bit-identical at any
    /// batch size, and the knob is not persisted in checkpoints.
    pub batch_systems: usize,
    /// Delta-state feature path: `true` (the default) computes only the
    /// rows the swap semantics can change and infers only content-unique
    /// rows through the NNP kernel; `false` keeps the dense
    /// `(1+8)·N_region` path as the ablation baseline. Both paths return
    /// bit-identical energies, so — like the other two knobs — this is an
    /// execution knob and is not persisted in checkpoints. (A checkpoint
    /// decoded from JSON therefore resumes with the *field* default,
    /// `false`; the driver re-applies the deck/CLI value after resuming,
    /// and the trajectory is the same either way.)
    pub delta_features: bool,
    /// Bound of the global VET→energy memo cache, in stored environments:
    /// a refresh whose exact VET bit pattern was evaluated before replays
    /// the stored 1+8 state energies verbatim and skips feature build and
    /// inference entirely. `0` disables the memo. Energies are a pure
    /// function of the VET, so trajectories are bit-identical at any
    /// setting — like the other knobs this is execution policy, not
    /// trajectory state, and is not persisted in checkpoints (the driver
    /// re-applies the deck/CLI value after resume).
    pub energy_cache_entries: usize,
    /// Inference storage precision of the NNP kernels: `F32` (the default)
    /// is bit-stable; `Bf16` stores weights and feature rows as bfloat16
    /// (halving weight RMA, feature DMA, and LDM footprint) while
    /// accumulating in f32. Unlike the knobs above, bf16 *changes energy
    /// bits* — it is an explicit accuracy/traffic trade validated by the
    /// precision-acceptance harness, never an implicit optimisation. It is
    /// still execution policy, not trajectory state: like the other knobs
    /// it is not persisted in checkpoints, and the driver re-applies the
    /// deck/CLI value after resume (a bf16 run resumed as bf16 continues
    /// the bf16 trajectory deterministically).
    pub precision: Precision,
}

tensorkmc_compat::impl_json_struct!(KmcConfig {
    law,
    mode,
    tree_rebuild_interval,
    @skip refresh_threads,
    @skip batch_systems,
    @skip delta_features,
    @skip energy_cache_entries,
    @skip precision
});

impl KmcConfig {
    /// The paper's thermal-aging setup: 573 K, cached evaluation.
    pub fn thermal_aging_573k() -> Self {
        KmcConfig {
            law: RateLaw::at_temperature(573.0),
            mode: EvalMode::Cached,
            tree_rebuild_interval: 10_000,
            refresh_threads: 1,
            batch_systems: 0,
            delta_features: true,
            energy_cache_entries: DEFAULT_ENERGY_CACHE_ENTRIES,
            precision: Precision::F32,
        }
    }
}

/// One executed hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopEvent {
    /// Step index (1-based after execution).
    pub step: u64,
    /// Simulated time after the hop, s.
    pub time: f64,
    /// Vacancy position before the hop.
    pub from: HalfVec,
    /// Vacancy position after the hop.
    pub to: HalfVec,
    /// Species of the atom that moved (into `from`).
    pub species: Species,
}

/// Running statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KmcStats {
    /// Executed steps.
    pub steps: u64,
    /// Simulated time, s.
    pub time: f64,
    /// Fe hops executed.
    pub fe_hops: u64,
    /// Cu hops executed.
    pub cu_hops: u64,
    /// Vacancy-system refreshes performed (the work the cache saves).
    pub refreshes: u64,
}

tensorkmc_compat::impl_json_struct!(KmcStats {
    steps,
    time,
    fe_hops,
    cu_hops,
    refreshes
});

/// A serialisable trajectory checkpoint (see [`KmcEngine::checkpoint`]).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The full configuration.
    pub lattice: SiteArray,
    /// Vacancy positions in engine system order (preserves the propensity
    /// tree's leaf assignment for exact resumption).
    pub vacancies: Vec<HalfVec>,
    /// Statistics at the checkpoint.
    pub stats: KmcStats,
    /// The random stream state.
    pub rng: Pcg32,
    /// Engine configuration.
    pub config: KmcConfig,
}

tensorkmc_compat::impl_json_struct!(Checkpoint {
    lattice,
    vacancies,
    stats,
    rng,
    config
});

/// The serial AKMC engine, generic over the energy evaluator.
pub struct KmcEngine<E> {
    lattice: SiteArray,
    geom: Arc<RegionGeometry>,
    evaluator: E,
    config: KmcConfig,
    systems: Vec<VacancySystem>,
    tree: SumTree,
    rng: Pcg32,
    stats: KmcStats,
    /// Squared half-grid radius of the vacancy-system footprint: a changed
    /// site within this distance of a system's centre invalidates it.
    footprint_n2: i64,
    /// Spatial bin index over system centres: invalidation after a hop
    /// consults only the bins around the changed sites instead of scanning
    /// every cached system.
    vacindex: VacancyBinIndex,
    /// Scratch buffer of stale system indices, reused across steps.
    stale: Vec<usize>,
    /// Global VET→energy memo (the second cache level above the vacancy
    /// cache): recurring environments replay stored energies and skip
    /// feature build + inference. Execution policy only — trajectories are
    /// bit-identical with the memo on, off, or resized mid-run.
    memo: EnergyMemoCache,
    /// Memo stats already flushed to telemetry counters; the next flush
    /// adds only the delta since this watermark.
    memo_reported: MemoStats,
    /// Optional instrumentation; `None` costs nothing on the hot path.
    telemetry: Option<EngineTelemetry>,
}

impl<E: VacancyEnergyEvaluator> KmcEngine<E> {
    /// Builds the engine: locates vacancies, validates the box, and prepares
    /// (but does not yet evaluate) their systems.
    pub fn new(
        lattice: SiteArray,
        geom: Arc<RegionGeometry>,
        mut evaluator: E,
        config: KmcConfig,
        seed: u64,
    ) -> Result<Self, KmcError> {
        evaluator.set_delta_features(config.delta_features);
        evaluator.set_precision(config.precision);
        // The periodic box must not let a vacancy system wrap onto itself.
        let max_abs = geom
            .sites
            .iter()
            .flat_map(|s| [s.x.abs(), s.y.abs(), s.z.abs()])
            .max()
            .unwrap_or(0);
        let required = 2 * max_abs + 2;
        let (ex, ey, ez) = lattice.pbox().extent();
        let actual = ex.min(ey).min(ez);
        if actual < required {
            return Err(KmcError::BoxTooSmall { required, actual });
        }

        let vac_ids = lattice.find_all(Species::Vacancy);
        if vac_ids.is_empty() {
            return Err(KmcError::NoVacancies);
        }
        let systems: Vec<VacancySystem> = vac_ids
            .into_iter()
            .map(|i| VacancySystem::new(lattice.pbox().coords(i)))
            .collect();
        let tree = SumTree::new(systems.len());
        let footprint_n2 = geom.sites.iter().map(|s| s.norm2()).max().unwrap_or(0);
        let centers: Vec<HalfVec> = systems.iter().map(|s| s.center).collect();
        let vacindex = VacancyBinIndex::new(lattice.pbox().extent(), footprint_n2, &centers);
        let memo = EnergyMemoCache::new(config.energy_cache_entries);
        Ok(KmcEngine {
            lattice,
            geom,
            evaluator,
            config,
            systems,
            tree,
            rng: Pcg32::seed_from_u64(seed),
            stats: KmcStats::default(),
            footprint_n2,
            vacindex,
            stale: Vec::new(),
            memo,
            memo_reported: MemoStats::default(),
            telemetry: None,
        })
    }

    /// Sets the refresh-phase worker-thread count (`0`/`1` = serial). Safe
    /// at any point: the parallel path is bit-identical to the serial one.
    pub fn set_refresh_threads(&mut self, threads: usize) {
        self.config.refresh_threads = threads;
    }

    /// Sets the refresh batch size (`0` = unbounded, `1` = per-system).
    /// Safe at any point: the batched path is bit-identical to the
    /// per-system one at any batch size.
    pub fn set_batch_systems(&mut self, batch: usize) {
        self.config.batch_systems = batch;
    }

    /// Switches the evaluator's delta-state feature path on or off. Safe
    /// at any point: both paths return bit-identical energies.
    pub fn set_delta_features(&mut self, on: bool) {
        self.config.delta_features = on;
        self.evaluator.set_delta_features(on);
    }

    /// Rebounds the VET→energy memo (`0` disables it). Safe at any point:
    /// replayed energies are the stored bits of a pure function of the VET,
    /// so the trajectory does not depend on the capacity. Resizing clears
    /// the memo (entries are cheap to re-derive; stats are kept).
    pub fn set_energy_cache_entries(&mut self, entries: usize) {
        self.config.energy_cache_entries = entries;
        self.memo.set_capacity(entries);
    }

    /// Selects the evaluator's inference storage precision. Unlike the
    /// other setters this changes energy bits when set to bf16, so the
    /// stored energies of already-refreshed systems would be stale; the
    /// memo and vacancy caches key on VET content, not precision, so both
    /// are cleared by invalidating every system. Call it right after
    /// construction/resume (as the driver does), before any steps.
    pub fn set_precision(&mut self, precision: Precision) {
        if self.config.precision == precision {
            return;
        }
        self.config.precision = precision;
        self.evaluator.set_precision(precision);
        // Drop every cached energy computed at the old precision:
        // set_capacity clears the memo, and invalidating every system
        // forces a refresh through the new backend before the next step.
        self.memo.set_capacity(self.config.energy_cache_entries);
        for sys in &mut self.systems {
            sys.valid = false;
        }
    }

    /// Cumulative energy-memo statistics (hits / misses / evictions /
    /// collisions) since engine construction.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Attaches a telemetry registry: step phases are timed under the
    /// `kmc.*` keys and the vacancy-cache hit/miss counters are maintained.
    /// Handles are resolved once here, so the per-step cost is a few clock
    /// reads and relaxed atomic adds.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(EngineTelemetry::new(registry));
    }

    /// Detaches telemetry (steps stop being recorded).
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// The lattice (for analysis snapshots).
    #[inline]
    pub fn lattice(&self) -> &SiteArray {
        &self.lattice
    }

    /// The region geometry.
    #[inline]
    pub fn geometry(&self) -> &RegionGeometry {
        &self.geom
    }

    /// Running statistics.
    #[inline]
    pub fn stats(&self) -> KmcStats {
        self.stats
    }

    /// Simulated time, s.
    #[inline]
    pub fn time(&self) -> f64 {
        self.stats.time
    }

    /// Number of vacancies.
    #[inline]
    pub fn n_vacancies(&self) -> usize {
        self.systems.len()
    }

    /// The cached vacancy systems (read-only).
    pub fn systems(&self) -> &[VacancySystem] {
        &self.systems
    }

    /// Refreshes every invalidated system and its tree leaf.
    ///
    /// Three execution strategies, all bit-identical (each refresh is an
    /// independent pure function of the lattice, and rates reach the
    /// propensity tree *in ascending system-index order* via
    /// [`SumTree::set_many`], reproducing the serial float-op sequence):
    ///
    /// * **Batched** (`batch_systems ≠ 1`, the default): VETs of the stale
    ///   systems are gathered (on the scoped thread pool from
    ///   `PAR_GATHER_MIN_CHUNK` systems a chunk), then each chunk of
    ///   up to `batch_systems` systems (`0` = all of them) goes through a
    ///   single [`VacancyEnergyEvaluator::evaluate_states_batch`] call —
    ///   one kernel invocation, one weight fetch — and the rates are
    ///   derived per system with [`VacancySystem::apply_energies`].
    /// * **Parallel per-system** (`batch_systems == 1`,
    ///   `refresh_threads ≥ 2`): stale systems fan out over scoped worker
    ///   threads, each running its own full refresh.
    /// * **Serial per-system** (otherwise): the reference loop.
    fn refresh_invalid(&mut self) -> Result<(), KmcError> {
        let direct = self.config.mode == EvalMode::Direct;
        let mut stale = std::mem::take(&mut self.stale);
        stale.clear();
        stale.extend(
            self.systems
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.valid || direct)
                .map(|(i, _)| i),
        );
        let refreshed = stale.len() as u64;
        let threads = self.config.refresh_threads;
        let batch = self.config.batch_systems;
        if batch != 1 && stale.len() >= PAR_REFRESH_MIN_BATCH {
            self.refresh_batched(&stale, refreshed)?;
        } else if threads >= 2 && stale.len() >= PAR_REFRESH_MIN_BATCH {
            let par_span = self.telemetry.as_ref().map(|t| {
                t.refresh_batch.record(refreshed);
                t.refresh_parallel.scoped()
            });
            // Gather every stale VET, probe the memo serially (it is a
            // &mut structure), then evaluate only the misses in parallel.
            // Each evaluation is a pure function of its VET, so skipping
            // the hits changes no bits of the remaining ones.
            let gathered = self.gather_systems(&stale);
            let mut energies: Vec<Option<StateEnergies>> = gathered
                .iter()
                .map(|sys| self.memo.lookup(&sys.vet))
                .collect();
            let miss_idx: Vec<usize> = (0..gathered.len())
                .filter(|&j| energies[j].is_none())
                .collect();
            if !miss_idx.is_empty() {
                let computed: Vec<Result<StateEnergies, KmcError>> = {
                    let gathered = &gathered;
                    let miss_idx = &miss_idx;
                    let evaluator = &self.evaluator;
                    pool::par_map_collect_threads(threads, miss_idx.len(), |m| {
                        Ok(evaluator.state_energies(&gathered[miss_idx[m]].vet)?)
                    })
                };
                for (m, r) in miss_idx.into_iter().zip(computed) {
                    let e = r?;
                    self.memo.insert(&gathered[m].vet, &e);
                    energies[m] = Some(e);
                }
            }
            drop(par_span);
            let mut rates = Vec::with_capacity(stale.len());
            for (j, (mut sys, e)) in gathered.into_iter().zip(energies).enumerate() {
                let e = e.expect("every stale system has energies");
                sys.apply_energies(&self.geom, &self.config.law, &e);
                rates.push(sys.total_rate);
                self.systems[stale[j]] = sys;
            }
            self.tree.set_many(&stale, &rates);
        } else {
            for &i in &stale {
                // Split borrows: the system, the memo, and the evaluator
                // are disjoint fields.
                let sys = &mut self.systems[i];
                sys.gather_vet(&self.lattice, &self.geom);
                let e = match self.memo.lookup(&sys.vet) {
                    Some(e) => e,
                    None => {
                        let e = self.evaluator.state_energies(&sys.vet)?;
                        self.memo.insert(&sys.vet, &e);
                        e
                    }
                };
                sys.apply_energies(&self.geom, &self.config.law, &e);
                self.tree.set(i, sys.total_rate);
            }
        }
        self.stats.refreshes += refreshed;
        self.stale = stale;
        if let Some(t) = &self.telemetry {
            // A system that was still valid is a vacancy-cache hit; a
            // refresh is the miss work the cache exists to avoid. The memo
            // counters are the second cache level: of the refreshed
            // systems, how many replayed a stored energy triple.
            t.cache_hit.add(self.systems.len() as u64 - refreshed);
            t.cache_miss.add(refreshed);
            t.refreshed_per_step.record(refreshed);
            let memo = self.memo.stats();
            let d = memo.since(&self.memo_reported);
            t.energy_hit.add(d.hits);
            t.energy_miss.add(d.misses);
            t.energy_evict.add(d.evictions);
            t.energy_collision.add(d.collisions);
            self.memo_reported = memo;
        }
        Ok(())
    }

    /// Clones the systems `ids` names and re-gathers their VETs, in order.
    /// Gathering only reads the shared lattice, so a chunk of at least
    /// [`PAR_GATHER_MIN_CHUNK`] systems fans out over `refresh_threads`
    /// scoped workers; a smaller one runs inline.
    fn gather_systems(&self, ids: &[usize]) -> Vec<VacancySystem> {
        let threads = if ids.len() >= PAR_GATHER_MIN_CHUNK {
            self.config.refresh_threads
        } else {
            1
        };
        let (systems, lattice, geom) = (&self.systems, &self.lattice, &self.geom);
        pool::par_map_collect_threads(threads, ids.len(), |j| {
            let mut sys = systems[ids[j]].clone();
            sys.gather_vet(lattice, geom);
            sys
        })
    }

    /// The batched refresh: VET gather, one evaluator call per chunk,
    /// ordered write-back.
    ///
    /// Chunks are consecutive runs of the (ascending) stale list, so
    /// applying each chunk's rates through [`SumTree::set_many`] replays
    /// exactly the serial per-system update sequence — at any
    /// `batch_systems`, any `refresh_threads`, and any chunk boundary.
    fn refresh_batched(&mut self, stale: &[usize], refreshed: u64) -> Result<(), KmcError> {
        let chunk_cap = match self.config.batch_systems {
            0 => stale.len(),
            n => n,
        };
        let dense_rows_per_sys = (1 + tensorkmc_operators::N_FINAL_STATES) * self.geom.n_region();
        let rows_per_sys = self.evaluator.rows_per_system();
        let par_span = self.telemetry.as_ref().map(|t| {
            t.refresh_batch.record(refreshed);
            (self.config.refresh_threads >= 2).then(|| t.refresh_parallel.scoped())
        });
        for chunk in stale.chunks(chunk_cap) {
            let gather_trace = self
                .telemetry
                .as_ref()
                .and_then(|t| t.trace(keys::REFRESH_GATHER));
            let gathered = self.gather_systems(chunk);
            drop(gather_trace);
            // Memo probe before the kernel call: hits drop out of the
            // chunk, misses still share one batched invocation (one weight
            // fetch). Each system's energies are a pure function of its own
            // VET, so thinning the batch changes no bits of the rest — the
            // same invariant `batched_is_bit_identical_to_per_system` pins.
            let mut energies: Vec<Option<StateEnergies>> = gathered
                .iter()
                .map(|sys| self.memo.lookup(&sys.vet))
                .collect();
            let miss_idx: Vec<usize> = (0..gathered.len())
                .filter(|&j| energies[j].is_none())
                .collect();
            if let Some(t) = &self.telemetry {
                // Rows actually submitted to the kernel (memo hits skip
                // theirs; `rows_per_system` is the packed count on the
                // delta path) vs. the dense-equivalent figure.
                t.refresh_batch_rows
                    .record((miss_idx.len() * rows_per_sys) as u64);
                t.refresh_batch_rows_dense
                    .record((chunk.len() * dense_rows_per_sys) as u64);
            }
            if !miss_idx.is_empty() {
                // One kernel call for the chunk's misses: the weight RMA of
                // the big-fusion operator is paid here once, not per system.
                let vets: Vec<&[Species]> = miss_idx
                    .iter()
                    .map(|&j| gathered[j].vet.as_slice())
                    .collect();
                let computed = self.evaluator.evaluate_states_batch(&vets)?;
                debug_assert_eq!(computed.len(), miss_idx.len());
                for (&j, e) in miss_idx.iter().zip(computed) {
                    self.memo.insert(&gathered[j].vet, &e);
                    energies[j] = Some(e);
                }
            }
            let scatter_trace = self
                .telemetry
                .as_ref()
                .and_then(|t| t.trace(keys::REFRESH_SCATTER));
            let mut rates = Vec::with_capacity(chunk.len());
            for (j, (mut sys, e)) in gathered.into_iter().zip(energies).enumerate() {
                let e = e.expect("every chunk member has energies");
                sys.apply_energies(&self.geom, &self.config.law, &e);
                rates.push(sys.total_rate);
                self.systems[chunk[j]] = sys;
            }
            self.tree.set_many(chunk, &rates);
            drop(scatter_trace);
        }
        drop(par_span);
        Ok(())
    }

    /// Invalidates every system whose VET contains site `p` (the distance
    /// criterion of the vacancy-cache mechanism, paper §3.2).
    ///
    /// Candidates come from the spatial bin index, so the sweep touches only
    /// systems geometrically near `p` — not all `V` of them. The exact
    /// minimum-image distance test still decides; the index only prunes.
    fn invalidate_near(&mut self, p: HalfVec) {
        let pbox = *self.lattice.pbox();
        let systems = &mut self.systems;
        let footprint_n2 = self.footprint_n2;
        self.vacindex.for_near(p, |i| {
            let sys = &mut systems[i];
            if !sys.valid {
                return;
            }
            let d = pbox.min_image(sys.center, p);
            if d.norm2() <= footprint_n2 {
                sys.valid = false;
            }
        });
    }

    /// Executes one KMC step (paper Fig. 1).
    pub fn step(&mut self) -> Result<HopEvent, KmcError> {
        let _step_trace = self.telemetry.as_ref().and_then(|t| t.trace(keys::STEP));
        let _step_span = self.telemetry.as_ref().map(|t| t.step.scoped());
        {
            let _trace = self.telemetry.as_ref().and_then(|t| t.trace(keys::REFRESH));
            let _span = self.telemetry.as_ref().map(|t| t.refresh.scoped());
            self.refresh_invalid()?;
        }
        if self.stats.steps > 0
            && self
                .stats
                .steps
                .is_multiple_of(self.config.tree_rebuild_interval)
        {
            self.tree.rebuild();
        }

        // One uniform picks both the vacancy (tree) and the direction
        // (residual); a second advances the clock.
        let select_trace = self.telemetry.as_ref().and_then(|t| t.trace(keys::SELECT));
        let select_span = self.telemetry.as_ref().map(|t| t.select.scoped());
        let total = self.tree.total();
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-safe stuck-state check
        if !(total > 0.0) {
            return Err(KmcError::StuckState);
        }
        let u1: f64 = self.rng.f64() * total;
        let (vi, residual) = self.tree.sample(u1);
        let k = self.systems[vi].pick_direction(residual);
        let r: f64 = self.rng.f64_open0();
        let dt = self.config.law.residence_time(total, r);
        drop(select_span);
        drop(select_trace);

        // Execute the hop.
        let hop_trace = self.telemetry.as_ref().and_then(|t| t.trace(keys::HOP));
        let hop_span = self.telemetry.as_ref().map(|t| t.hop.scoped());
        let from = self.systems[vi].center;
        let to = self.lattice.pbox().wrap(from + HalfVec::FIRST_NN[k]);
        let species = self.lattice.at(to);
        debug_assert!(species.is_atom(), "vacancy-vacancy hop sampled");
        self.lattice.swap(from, to);
        self.systems[vi].center = to;
        self.systems[vi].valid = false;
        self.vacindex.relocate(vi, to);
        drop(hop_span);
        drop(hop_trace);

        // Any system whose VET covers either changed site is stale.
        let invalidate_trace = self
            .telemetry
            .as_ref()
            .and_then(|t| t.trace(keys::INVALIDATE));
        let invalidate_span = self.telemetry.as_ref().map(|t| t.invalidate.scoped());
        self.invalidate_near(from);
        self.invalidate_near(to);
        drop(invalidate_span);
        drop(invalidate_trace);

        self.stats.steps += 1;
        self.stats.time += dt;
        match species {
            Species::Fe => self.stats.fe_hops += 1,
            Species::Cu => self.stats.cu_hops += 1,
            Species::Vacancy => {}
        }
        Ok(HopEvent {
            step: self.stats.steps,
            time: self.stats.time,
            from,
            to,
            species,
        })
    }

    /// Runs until the simulated clock reaches `t_end` seconds or `max_steps`
    /// is hit; returns the executed events count.
    pub fn run_until(&mut self, t_end: f64, max_steps: u64) -> Result<u64, KmcError> {
        let mut n = 0;
        while self.stats.time < t_end && n < max_steps {
            self.step()?;
            n += 1;
        }
        Ok(n)
    }

    /// Runs exactly `n` steps.
    pub fn run_steps(&mut self, n: u64) -> Result<(), KmcError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Serialisable checkpoint of the trajectory state. The vacancy cache
    /// itself is *not* stored (it is a deterministic function of the
    /// lattice); the system *order* is, so a resumed engine continues the
    /// exact same trajectory.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            lattice: self.lattice.clone(),
            vacancies: self.systems.iter().map(|s| s.center).collect(),
            stats: self.stats,
            rng: self.rng,
            config: self.config,
        }
    }

    /// Rebuilds an engine from a checkpoint. The continuation is
    /// bit-identical to the uninterrupted run (given the same evaluator).
    pub fn resume(
        checkpoint: Checkpoint,
        geom: Arc<RegionGeometry>,
        evaluator: E,
    ) -> Result<Self, KmcError> {
        let Checkpoint {
            lattice,
            vacancies,
            stats,
            rng,
            config,
        } = checkpoint;
        let mut engine = KmcEngine::new(lattice, geom, evaluator, config, 0)?;
        // Restore the exact system order and the random stream.
        engine.systems = vacancies.into_iter().map(VacancySystem::new).collect();
        engine.tree = SumTree::new(engine.systems.len());
        let centers: Vec<HalfVec> = engine.systems.iter().map(|s| s.center).collect();
        engine.vacindex = VacancyBinIndex::new(
            engine.lattice.pbox().extent(),
            engine.footprint_n2,
            &centers,
        );
        engine.stats = stats;
        engine.rng = rng;
        Ok(engine)
    }

    /// Bytes of engine state: lattice + vacancy cache + propensity tree —
    /// the TensorKMC storage scheme of Table 1.
    pub fn memory_bytes(&self) -> usize {
        let cache: usize = self.systems.iter().map(|s| s.cache_bytes(&self.geom)).sum();
        self.lattice.site_bytes() + cache + self.tree.bytes() + self.memo.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorkmc_compat::rng::StdRng;
    use tensorkmc_lattice::{AlloyComposition, PeriodicBox};
    use tensorkmc_nnp::{ModelConfig, NnpModel};
    use tensorkmc_operators::NnpDirectEvaluator;
    use tensorkmc_potential::FeatureSet;

    fn small_setup(
        n_cells: i32,
        comp: AlloyComposition,
        seed: u64,
    ) -> (SiteArray, Arc<RegionGeometry>, NnpDirectEvaluator) {
        let geom = Arc::new(RegionGeometry::new(2.87, 3.0).unwrap());
        let fs = FeatureSet::small(4);
        let cfg = ModelConfig {
            channels: vec![fs.n_features(), 16, 1],
            rcut: 3.0,
        };
        let mut model = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(42));
        model.norm.mean = vec![7.0, 7.0, 7.0, 7.0, 0.5, 0.5, 0.5, 0.5];
        model.norm.std = vec![2.0; 8];
        model.energy_scale = 0.2;
        let eval = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let pbox = PeriodicBox::new(n_cells, n_cells, n_cells, 2.87).unwrap();
        let lattice =
            SiteArray::random_alloy(pbox, comp, &mut StdRng::seed_from_u64(seed)).unwrap();
        (lattice, geom, eval)
    }

    fn comp() -> AlloyComposition {
        AlloyComposition {
            cu_fraction: 0.05,
            vacancy_fraction: 0.004,
        }
    }

    #[test]
    fn bf16_trajectory_is_deterministic_and_knob_invariant() {
        // bf16 changes energy bits relative to f32, but inside the bf16
        // backend the usual contract holds: the trajectory is a
        // deterministic function of (lattice, model, seed, precision) and
        // invariant under the other execution knobs.
        let mut runs = Vec::new();
        for (batch, threads) in [(0usize, 1usize), (1, 1), (3, 4)] {
            let (l, g, e) = small_setup(6, comp(), 51);
            let cfg = KmcConfig {
                precision: Precision::Bf16,
                ..KmcConfig::thermal_aging_573k()
            };
            let mut engine = KmcEngine::new(l, g, e, cfg, 53).unwrap();
            engine.set_batch_systems(batch);
            engine.set_refresh_threads(threads);
            let mut events = Vec::new();
            for _ in 0..60 {
                let ev = engine.step().unwrap();
                events.push((ev.from, ev.to, ev.species, ev.time.to_bits()));
            }
            runs.push(events);
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn set_precision_invalidates_cached_energies() {
        // Flipping precision mid-run must not replay f32-cached energies:
        // every system goes stale and the memo is cleared, so the next
        // step re-evaluates through the new backend.
        let many_vacancies = AlloyComposition {
            cu_fraction: 0.05,
            vacancy_fraction: 0.03,
        };
        let (l, g, e) = small_setup(8, many_vacancies, 55);
        let mut engine =
            KmcEngine::new(l, g, e, KmcConfig::thermal_aging_573k(), 57).unwrap();
        engine.run_steps(5).unwrap();
        assert!(engine.systems.iter().any(|s| s.valid));
        engine.set_precision(Precision::Bf16);
        assert!(engine.systems.iter().all(|s| !s.valid));
        assert!(engine.memo.is_empty());
        // Setting the same precision again is a no-op (no invalidation).
        engine.run_steps(1).unwrap();
        assert!(engine.systems.iter().any(|s| s.valid));
        engine.set_precision(Precision::Bf16);
        assert!(engine.systems.iter().any(|s| s.valid));
    }

    #[test]
    fn engine_executes_steps_and_time_advances() {
        let (lattice, geom, eval) = small_setup(6, comp(), 1);
        let cfg = KmcConfig::thermal_aging_573k();
        let mut engine = KmcEngine::new(lattice, geom, eval, cfg, 7).unwrap();
        let mut last_t = 0.0;
        for _ in 0..50 {
            let ev = engine.step().unwrap();
            assert!(ev.time > last_t, "time strictly increases");
            last_t = ev.time;
            assert!(ev.species.is_atom());
            // The hop really moved the vacancy.
            assert_eq!(engine.lattice().at(ev.to), Species::Vacancy);
        }
        assert_eq!(engine.stats().steps, 50);
        assert_eq!(engine.stats().fe_hops + engine.stats().cu_hops, 50);
    }

    #[test]
    fn vacancy_count_is_conserved() {
        let (lattice, geom, eval) = small_setup(6, comp(), 2);
        let (_, _, v0) = lattice.census();
        let cfg = KmcConfig::thermal_aging_573k();
        let mut engine = KmcEngine::new(lattice, geom, eval, cfg, 3).unwrap();
        engine.run_steps(100).unwrap();
        let (_, _, v1) = engine.lattice().census();
        assert_eq!(v0, v1);
        assert_eq!(engine.n_vacancies(), v1);
    }

    #[test]
    fn species_counts_are_conserved() {
        let (lattice, geom, eval) = small_setup(6, comp(), 3);
        let before = lattice.census();
        let cfg = KmcConfig::thermal_aging_573k();
        let mut engine = KmcEngine::new(lattice, geom, eval, cfg, 5).unwrap();
        engine.run_steps(200).unwrap();
        assert_eq!(engine.lattice().census(), before);
    }

    #[test]
    fn cached_and_direct_modes_are_trajectory_identical() {
        // The Fig. 8 claim: triple encoding + vacancy cache change nothing.
        let (lattice, geom, eval) = small_setup(6, comp(), 4);
        let (l2, g2, e2) = small_setup(6, comp(), 4);
        let mut cached = KmcEngine::new(
            lattice,
            geom,
            eval,
            KmcConfig {
                mode: EvalMode::Cached,
                ..KmcConfig::thermal_aging_573k()
            },
            11,
        )
        .unwrap();
        let mut direct = KmcEngine::new(
            l2,
            g2,
            e2,
            KmcConfig {
                mode: EvalMode::Direct,
                ..KmcConfig::thermal_aging_573k()
            },
            11,
        )
        .unwrap();
        for step in 0..80 {
            let a = cached.step().unwrap();
            let b = direct.step().unwrap();
            assert_eq!(a.from, b.from, "step {step}");
            assert_eq!(a.to, b.to, "step {step}");
            assert_eq!(a.species, b.species, "step {step}");
            assert!(
                (a.time - b.time).abs() <= 1e-18 + 1e-12 * a.time,
                "step {step}"
            );
        }
        assert_eq!(
            cached.lattice().as_slice(),
            direct.lattice().as_slice(),
            "final configurations identical"
        );
        // And the cache genuinely saved work.
        assert!(cached.stats().refreshes < direct.stats().refreshes);
    }

    #[test]
    fn determinism_under_seed() {
        let (l1, g1, e1) = small_setup(6, comp(), 5);
        let (l2, g2, e2) = small_setup(6, comp(), 5);
        let cfg = KmcConfig::thermal_aging_573k();
        let mut a = KmcEngine::new(l1, g1, e1, cfg, 99).unwrap();
        let mut b = KmcEngine::new(l2, g2, e2, cfg, 99).unwrap();
        a.run_steps(60).unwrap();
        b.run_steps(60).unwrap();
        assert_eq!(a.lattice().as_slice(), b.lattice().as_slice());
        assert_eq!(a.time(), b.time());
    }

    #[test]
    fn no_vacancies_is_an_error() {
        let (mut lattice, geom, eval) = small_setup(6, comp(), 6);
        for i in lattice.find_all(Species::Vacancy) {
            lattice.set(i, Species::Fe);
        }
        let cfg = KmcConfig::thermal_aging_573k();
        assert!(matches!(
            KmcEngine::new(lattice, geom, eval, cfg, 1),
            Err(KmcError::NoVacancies)
        ));
    }

    #[test]
    fn box_too_small_is_an_error() {
        let geom = Arc::new(RegionGeometry::new(2.87, 3.0).unwrap());
        let fs = FeatureSet::small(4);
        let mcfg = ModelConfig {
            channels: vec![fs.n_features(), 8, 1],
            rcut: 3.0,
        };
        let model = NnpModel::new(fs, &mcfg, &mut StdRng::seed_from_u64(1));
        let eval = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let pbox = PeriodicBox::new(2, 2, 2, 2.87).unwrap();
        let mut lattice = SiteArray::pure_iron(pbox);
        lattice.set_at(HalfVec::ZERO, Species::Vacancy);
        assert!(matches!(
            KmcEngine::new(lattice, geom, eval, KmcConfig::thermal_aging_573k(), 1),
            Err(KmcError::BoxTooSmall { .. })
        ));
    }

    #[test]
    fn run_until_respects_clock() {
        let (lattice, geom, eval) = small_setup(6, comp(), 7);
        let cfg = KmcConfig::thermal_aging_573k();
        let mut engine = KmcEngine::new(lattice, geom, eval, cfg, 13).unwrap();
        let t_end = 1e-9;
        engine.run_until(t_end, 1_000_000).unwrap();
        assert!(engine.time() >= t_end);
    }

    #[test]
    fn checkpoint_resume_continues_bit_identically() {
        let (l1, g1, e1) = small_setup(6, comp(), 9);
        let (_, _, e2) = small_setup(6, comp(), 9);
        let cfg = KmcConfig::thermal_aging_573k();
        let mut reference = KmcEngine::new(l1.clone(), Arc::clone(&g1), e1, cfg, 31).unwrap();
        reference.run_steps(40).unwrap();
        let ck = reference.checkpoint();
        // Serialise through JSON to prove the persistence path works.
        use tensorkmc_compat::codec::JsonCodec;
        let json = ck.to_json_string();
        let restored = Checkpoint::from_json_str(&json).unwrap();
        let mut resumed = KmcEngine::resume(restored, g1, e2).unwrap();
        for step in 0..40 {
            let a = reference.step().unwrap();
            let b = resumed.step().unwrap();
            assert_eq!(
                (a.from, a.to, a.species),
                (b.from, b.to, b.species),
                "step {step}"
            );
            assert!((a.time - b.time).abs() < 1e-18 + 1e-12 * a.time);
        }
        assert_eq!(reference.lattice().as_slice(), resumed.lattice().as_slice());
    }

    #[test]
    fn telemetry_records_phases_without_perturbing_the_trajectory() {
        let (l1, g1, e1) = small_setup(6, comp(), 12);
        let (l2, g2, e2) = small_setup(6, comp(), 12);
        let cfg = KmcConfig::thermal_aging_573k();
        let mut plain = KmcEngine::new(l1, g1, e1, cfg, 23).unwrap();
        let mut instrumented = KmcEngine::new(l2, g2, e2, cfg, 23).unwrap();
        let reg = Registry::new();
        instrumented.attach_telemetry(&reg);
        plain.run_steps(30).unwrap();
        instrumented.run_steps(30).unwrap();
        assert_eq!(
            plain.lattice().as_slice(),
            instrumented.lattice().as_slice(),
            "telemetry is observation-only"
        );
        let snap = reg.snapshot();
        for key in [
            keys::STEP,
            keys::REFRESH,
            keys::SELECT,
            keys::HOP,
            keys::INVALIDATE,
        ] {
            let t = snap.timer(key).unwrap();
            assert_eq!(t.count, 30, "{key}");
            assert!(t.total_ns > 0, "{key} total");
        }
        let rate = snap.cache_hit_rate().unwrap();
        assert!(rate > 0.0 && rate <= 1.0, "hit rate {rate}");
        assert_eq!(
            snap.counter(keys::CACHE_MISS).unwrap(),
            instrumented.stats().refreshes
        );
        assert!(snap.histogram(keys::REFRESHED_PER_STEP).unwrap().count == 30);
    }

    #[test]
    fn parallel_refresh_is_bit_identical_to_serial() {
        let (l1, g1, e1) = small_setup(6, comp(), 21);
        let (l2, g2, e2) = small_setup(6, comp(), 21);
        let cfg = KmcConfig::thermal_aging_573k();
        let mut serial = KmcEngine::new(l1, g1, e1, cfg, 17).unwrap();
        let mut parallel = KmcEngine::new(l2, g2, e2, cfg, 17).unwrap();
        parallel.set_refresh_threads(4);
        for step in 0..120 {
            let a = serial.step().unwrap();
            let b = parallel.step().unwrap();
            assert_eq!(
                (a.from, a.to, a.species),
                (b.from, b.to, b.species),
                "step {step}"
            );
            assert_eq!(
                a.time.to_bits(),
                b.time.to_bits(),
                "clock bit-exact, step {step}"
            );
        }
        assert_eq!(serial.lattice().as_slice(), parallel.lattice().as_slice());
        assert_eq!(serial.stats(), parallel.stats());
    }

    #[test]
    fn parallel_direct_mode_is_bit_identical_too() {
        // Direct mode refreshes every system each step — the largest batches
        // the fan-out will ever see.
        let (l1, g1, e1) = small_setup(6, comp(), 22);
        let (l2, g2, e2) = small_setup(6, comp(), 22);
        let cfg = KmcConfig {
            mode: EvalMode::Direct,
            ..KmcConfig::thermal_aging_573k()
        };
        let mut serial = KmcEngine::new(l1, g1, e1, cfg, 19).unwrap();
        let mut parallel = KmcEngine::new(l2, g2, e2, cfg, 19).unwrap();
        parallel.set_refresh_threads(3);
        serial.run_steps(40).unwrap();
        parallel.run_steps(40).unwrap();
        assert_eq!(serial.lattice().as_slice(), parallel.lattice().as_slice());
        assert_eq!(serial.time().to_bits(), parallel.time().to_bits());
    }

    #[test]
    fn batched_refresh_is_bit_identical_at_any_batch_size() {
        // batch_systems is an execution knob: per-system (1), small chunks
        // (3), and one unbounded batch (0) must replay the same trajectory
        // bit for bit, with and without gather threads.
        // Dense enough in vacancies that chunk boundaries actually occur.
        let dense = AlloyComposition {
            cu_fraction: 0.05,
            vacancy_fraction: 0.012,
        };
        let configs = [(1usize, 1usize), (3, 1), (0, 1), (0, 4), (3, 4)];
        let mut runs = Vec::new();
        for (batch, threads) in configs {
            let (l, g, e) = small_setup(6, dense, 41);
            let mut engine = KmcEngine::new(l, g, e, KmcConfig::thermal_aging_573k(), 43).unwrap();
            engine.set_batch_systems(batch);
            engine.set_refresh_threads(threads);
            let mut events = Vec::new();
            for _ in 0..100 {
                let ev = engine.step().unwrap();
                events.push((ev.from, ev.to, ev.species, ev.time.to_bits()));
            }
            runs.push((batch, threads, events, engine));
        }
        let (_, _, ref_events, ref_engine) = &runs[0];
        for (batch, threads, events, engine) in &runs[1..] {
            assert_eq!(
                events, ref_events,
                "trajectory diverged at batch_systems={batch}, threads={threads}"
            );
            assert_eq!(engine.lattice().as_slice(), ref_engine.lattice().as_slice());
            assert_eq!(engine.stats(), ref_engine.stats());
        }
    }

    #[test]
    fn gather_fan_out_above_its_chunk_gate_is_bit_identical_to_inline() {
        // The first step refreshes every system: with more vacancies than
        // PAR_GATHER_MIN_CHUNK the gather really fans out, in the batched
        // arm (one unbounded chunk) and in the parallel per-system arm.
        let crowded = AlloyComposition {
            cu_fraction: 0.05,
            vacancy_fraction: 0.08,
        };
        let mut runs = Vec::new();
        for (batch, threads) in [(0usize, 1usize), (0, 3), (1, 3)] {
            let (l, g, e) = small_setup(12, crowded, 51);
            let mut engine = KmcEngine::new(l, g, e, KmcConfig::thermal_aging_573k(), 53).unwrap();
            assert!(engine.n_vacancies() >= PAR_GATHER_MIN_CHUNK);
            engine.set_batch_systems(batch);
            engine.set_refresh_threads(threads);
            engine.run_steps(3).unwrap();
            runs.push(engine);
        }
        for engine in &runs[1..] {
            assert_eq!(engine.lattice().as_slice(), runs[0].lattice().as_slice());
            assert_eq!(engine.time().to_bits(), runs[0].time().to_bits());
            assert_eq!(engine.stats(), runs[0].stats());
        }
    }

    #[test]
    fn batched_refresh_in_direct_mode_is_bit_identical_too() {
        // Direct mode refreshes every system each step — the largest
        // batches the kernel will ever fold.
        let (l1, g1, e1) = small_setup(6, comp(), 45);
        let (l2, g2, e2) = small_setup(6, comp(), 45);
        let cfg = KmcConfig {
            mode: EvalMode::Direct,
            ..KmcConfig::thermal_aging_573k()
        };
        let mut per_system = KmcEngine::new(l1, g1, e1, cfg, 47).unwrap();
        per_system.set_batch_systems(1);
        let mut batched = KmcEngine::new(l2, g2, e2, cfg, 47).unwrap();
        batched.set_batch_systems(0);
        per_system.run_steps(40).unwrap();
        batched.run_steps(40).unwrap();
        assert_eq!(
            per_system.lattice().as_slice(),
            batched.lattice().as_slice()
        );
        assert_eq!(per_system.time().to_bits(), batched.time().to_bits());
    }

    #[test]
    fn batched_refresh_records_row_telemetry() {
        let dense = AlloyComposition {
            cu_fraction: 0.05,
            vacancy_fraction: 0.012,
        };
        let (l, g, e) = small_setup(6, dense, 49);
        let cfg = KmcConfig {
            mode: EvalMode::Direct, // every step refreshes all systems
            ..KmcConfig::thermal_aging_573k()
        };
        let mut engine = KmcEngine::new(l, g, e, cfg, 51).unwrap();
        let reg = Registry::new();
        engine.attach_telemetry(&reg);
        assert!(engine.n_vacancies() >= 2, "setup must yield a real batch");
        engine.run_steps(10).unwrap();
        let snap = reg.snapshot();
        let rows = snap.histogram(keys::REFRESH_BATCH_ROWS).unwrap();
        assert!(
            rows.count >= 10,
            "one batched call per step, got {}",
            rows.count
        );
        // The dense-equivalent series records (1+8)·N_region rows per
        // folded system, every chunk, regardless of memo hits or the delta
        // path.
        let dense = snap.histogram(keys::REFRESH_BATCH_ROWS_DENSE).unwrap();
        let rows_per_sys = (9 * engine.geometry().n_region()) as u64;
        assert!(
            dense.max >= rows_per_sys * 2,
            "multi-system batches observed"
        );
        // The submitted series counts only rows the kernel actually saw:
        // never more than the dense equivalent (delta packing and memo
        // hits only shrink it), and strictly less here because the default
        // config has both enabled.
        assert!(rows.max <= dense.max, "submitted rows bounded by dense");
        assert!(
            rows.sum < dense.sum,
            "delta packing + memo hits shrink submitted rows ({} vs {})",
            rows.sum,
            dense.sum
        );
    }

    #[test]
    fn refresh_threads_is_not_persisted_in_checkpoints() {
        // The knob is execution policy, not trajectory state: serial and
        // parallel engines must emit byte-identical checkpoints.
        let (l1, g1, e1) = small_setup(6, comp(), 23);
        let (l2, g2, e2) = small_setup(6, comp(), 23);
        let cfg = KmcConfig::thermal_aging_573k();
        let mut a = KmcEngine::new(l1, g1, e1, cfg, 29).unwrap();
        let mut b = KmcEngine::new(l2, g2, e2, cfg, 29).unwrap();
        b.set_refresh_threads(8);
        a.run_steps(25).unwrap();
        b.run_steps(25).unwrap();
        use tensorkmc_compat::codec::JsonCodec;
        assert_eq!(
            a.checkpoint().to_json_string(),
            b.checkpoint().to_json_string()
        );
        assert!(!a.checkpoint().to_json_string().contains("refresh_threads"));
    }

    #[test]
    fn invalidation_consults_the_bin_index_not_all_systems() {
        // On a big sparse box the candidate set around any site must be a
        // small fraction of the cached systems.
        let (lattice, geom, eval) = small_setup(
            20,
            AlloyComposition {
                cu_fraction: 0.05,
                vacancy_fraction: 0.008,
            },
            31,
        );
        let cfg = KmcConfig::thermal_aging_573k();
        let mut engine = KmcEngine::new(lattice, geom, eval, cfg, 37).unwrap();
        let n = engine.n_vacancies();
        assert!(n >= 64, "setup yields a meaningful population ({n})");
        let mut max_cand = 0usize;
        for i in 0..n {
            let c = engine.vacindex.candidates(engine.systems[i].center).len();
            max_cand = max_cand.max(c);
        }
        assert!(
            max_cand < n / 2,
            "bin index prunes: worst neighbourhood {max_cand} of {n}"
        );
        // And it stays exact while the trajectory runs (debug_assert-free
        // functional check: the engine still conserves and advances).
        engine.run_steps(50).unwrap();
        assert_eq!(engine.n_vacancies(), n);
    }

    #[test]
    fn memory_bytes_scale_with_cache() {
        let (lattice, geom, eval) = small_setup(6, comp(), 8);
        let cfg = KmcConfig::thermal_aging_573k();
        let engine = KmcEngine::new(lattice, geom, eval, cfg, 1).unwrap();
        let bytes = engine.memory_bytes();
        let lattice_bytes = engine.lattice().site_bytes();
        assert!(bytes > lattice_bytes);
        // The cache is small relative to a dense per-atom scheme (8 B/atom
        // would already be 8x the lattice bytes).
        assert!(bytes < 9 * lattice_bytes);
    }
}
