//! The energy interface the AKMC engine drives.
//!
//! Given one vacancy system's VET, an evaluator returns the region energy of
//! the initial state and of all 8 candidate final states. Only *differences*
//! between these energies enter the rate law (paper Eq. 2), and sites outside
//! the jump region cancel exactly, so region sums are sufficient.

use crate::bigfusion::{bigfusion_on_cg, bigfusion_on_cg_bf16};
use crate::error::OperatorError;
use crate::feature_op::{
    features_cpe, features_cpe_delta, features_serial, features_serial_delta, FeatureOpTables,
    RowInterner, UniqueRowPlan, N_STATES,
};
use crate::stages::{stage4_fused_bf16, stage5_bigfusion, BatchShape};
use crate::weights::{Bf16Stack, F32Stack, Precision};
use std::sync::Arc;
use tensorkmc_lattice::{RegionGeometry, Species};
use tensorkmc_nnp::NnpModel;
use tensorkmc_potential::FeatureTable;
use tensorkmc_sunway::{CgConfig, CoreGroup};
use tensorkmc_telemetry::{
    keys, Counter, Histogram, Registry, ScopedTimer, SpanGuard, Timer, Tracer,
};

/// One operator phase in flight: the metric timer plus — when the registry
/// carries a tracer — the matching flame-chart span. Both record on drop,
/// so call sites treat it exactly like the plain [`ScopedTimer`] it was.
pub(crate) struct OpSpan {
    _timer: ScopedTimer,
    _trace: Option<SpanGuard>,
}

/// Cached telemetry handles for an evaluator: one feature-operator timer,
/// one kernel timer (fused / big-fusion / EAM, per evaluator), the shared
/// evaluation counter, and the batched-call size distribution. Resolved
/// once in `with_telemetry`, so the per-evaluation cost is two clock reads
/// and a handful of relaxed atomic adds.
#[derive(Clone)]
pub struct OpTelemetry {
    feature: Arc<Timer>,
    kernel: Arc<Timer>,
    kernel_key: &'static str,
    evals: Arc<Counter>,
    batch: Arc<Histogram>,
    rows_computed: Arc<Counter>,
    rows_reused: Arc<Counter>,
    unique_rows: Arc<Histogram>,
    tracer: Option<Arc<Tracer>>,
}

impl OpTelemetry {
    /// Resolves handles against `registry`, timing the energy kernel under
    /// `kernel_key` (one of the `op.kernel.*` keys).
    pub fn new(registry: &Registry, kernel_key: &'static str) -> Self {
        OpTelemetry {
            feature: registry.timer(keys::OP_FEATURE),
            kernel: registry.timer(kernel_key),
            kernel_key,
            evals: registry.counter(keys::OP_EVALS),
            batch: registry.histogram(keys::OP_KERNEL_BATCH),
            rows_computed: registry.counter(keys::OP_FEATURE_ROWS_COMPUTED),
            rows_reused: registry.counter(keys::OP_FEATURE_ROWS_REUSED),
            unique_rows: registry.histogram(keys::OP_KERNEL_UNIQUE_ROWS),
            tracer: registry.tracer(),
        }
    }

    /// Counts feature rows recomputed vs reused bit-for-bit from state 0.
    pub(crate) fn record_rows(&self, computed: usize, reused: usize) {
        self.rows_computed.add(computed as u64);
        self.rows_reused.add(reused as u64);
    }

    /// Records the distinct-row count of one kernel call after dedup.
    pub(crate) fn record_unique_rows(&self, n: usize) {
        self.unique_rows.record(n as u64);
    }

    /// Opens a bare trace span (no metric timer) when tracing is on — the
    /// dedup and scatter sub-phases of the delta path.
    pub(crate) fn trace_span(&self, name: &'static str) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|t| t.span(name))
    }

    /// Pairs `timer` with a trace span of the same name.
    fn span(&self, name: &'static str, timer: &Arc<Timer>) -> OpSpan {
        OpSpan {
            _timer: timer.scoped(),
            _trace: self.tracer.as_ref().map(|t| t.span(name)),
        }
    }

    /// Starts the feature-operator span and counts the evaluation.
    pub(crate) fn feature_span(&self) -> OpSpan {
        self.evals.inc();
        self.span(keys::OP_FEATURE, &self.feature)
    }

    /// Starts the feature-operator span for a batch of `n` systems,
    /// counting every evaluation the batch folds in.
    pub(crate) fn batch_feature_span(&self, n: usize) -> OpSpan {
        self.evals.add(n as u64);
        self.span(keys::OP_FEATURE, &self.feature)
    }

    /// Starts the kernel span.
    pub(crate) fn kernel_span(&self) -> OpSpan {
        self.span(self.kernel_key, &self.kernel)
    }

    /// Starts the kernel span for one batched call folding `n` systems,
    /// recording the batch size into `op.kernel.batch`.
    pub(crate) fn batch_kernel_span(&self, n: usize) -> OpSpan {
        self.batch.record(n as u64);
        self.span(self.kernel_key, &self.kernel)
    }

    /// Starts a kernel span that also counts the evaluation — for
    /// evaluators with no separate feature phase (EAM).
    pub(crate) fn kernel_eval_span(&self) -> OpSpan {
        self.evals.inc();
        self.span(self.kernel_key, &self.kernel)
    }
}

/// Region energies of the 1+8 states of a vacancy system, in eV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateEnergies {
    /// Energy of the current state.
    pub initial: f64,
    /// Energy after the vacancy swaps with 1NN site `k`.
    pub finals: [f64; 8],
}

impl StateEnergies {
    /// `E_f − E_i` for jump direction `k`.
    #[inline]
    pub fn delta(&self, k: usize) -> f64 {
        self.finals[k] - self.initial
    }
}

/// Anything that can produce the 1+8 state energies of a vacancy system.
pub trait VacancyEnergyEvaluator: Send + Sync {
    /// Evaluates all states for a VET of length `N_all`.
    fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError>;

    /// Evaluates a whole batch of vacancy systems in one pass, returning
    /// one [`StateEnergies`] per input VET, in order.
    ///
    /// The default implementation loops over [`state_energies`], so any
    /// third-party evaluator keeps working unchanged. The NNP
    /// implementations override it to concatenate every system's
    /// `(1+8)·N_region` feature rows into a single matrix and make **one**
    /// kernel call, so fixed per-call costs — above all the weight RMA of
    /// the big-fusion operator — are paid once per refresh batch instead of
    /// once per system. Implementations must return exactly the bits the
    /// per-system path would: the engine's trajectory reproducibility rests
    /// on `evaluate_states_batch(&[a, b]) == [state_energies(a),
    /// state_energies(b)]` down to `to_bits()`.
    ///
    /// ```
    /// use tensorkmc_lattice::Species;
    /// use tensorkmc_operators::evaluator::{
    ///     StateEnergies, VacancyEnergyEvaluator,
    /// };
    ///
    /// fn both(
    ///     ev: &dyn VacancyEnergyEvaluator,
    ///     a: &[Species],
    ///     b: &[Species],
    /// ) -> Result<Vec<StateEnergies>, tensorkmc_operators::OperatorError> {
    ///     // One kernel invocation for both systems, results in order.
    ///     ev.evaluate_states_batch(&[a, b])
    /// }
    /// ```
    ///
    /// [`state_energies`]: VacancyEnergyEvaluator::state_energies
    fn evaluate_states_batch(
        &self,
        vets: &[&[Species]],
    ) -> Result<Vec<StateEnergies>, OperatorError> {
        vets.iter().map(|vet| self.state_energies(vet)).collect()
    }

    /// The region geometry the evaluator expects VETs of.
    fn geometry(&self) -> &RegionGeometry;

    /// Switches the delta-state feature path on or off (`true` = compute
    /// only affected rows, infer only unique rows; `false` = the dense
    /// `(1+8)·N_region` path). A no-op for evaluators without a delta path
    /// — both paths return bit-identical energies, so this is purely an
    /// execution knob.
    fn set_delta_features(&mut self, _on: bool) {}

    /// Selects the inference storage precision ([`Precision::F32`] default,
    /// [`Precision::Bf16`] opt-in). Unlike the other knobs this one *does*
    /// change energy bits (bf16 storage is lossy), so it is an explicit
    /// accuracy/traffic trade, never flipped implicitly. A no-op for
    /// evaluators without a quantized backend (EAM).
    fn set_precision(&mut self, _precision: Precision) {}

    /// Feature rows this evaluator actually computes per vacancy system —
    /// the figure behind the engine's `kmc.refresh.batch_rows` telemetry.
    /// The default is the dense `(1+8)·N_region`; the NNP evaluators
    /// override it to report the packed (state-0 + affected) row count when
    /// the delta path is on.
    fn rows_per_system(&self) -> usize {
        (1 + crate::N_FINAL_STATES) * self.geometry().n_region()
    }
}

impl<T: VacancyEnergyEvaluator + ?Sized> VacancyEnergyEvaluator for Box<T> {
    fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError> {
        (**self).state_energies(vet)
    }

    // Forwarded explicitly so a boxed NNP evaluator keeps its batched
    // kernel instead of falling back to the looping default.
    fn evaluate_states_batch(
        &self,
        vets: &[&[Species]],
    ) -> Result<Vec<StateEnergies>, OperatorError> {
        (**self).evaluate_states_batch(vets)
    }

    fn geometry(&self) -> &RegionGeometry {
        (**self).geometry()
    }

    fn set_delta_features(&mut self, on: bool) {
        (**self).set_delta_features(on)
    }

    fn set_precision(&mut self, precision: Precision) {
        (**self).set_precision(precision)
    }

    fn rows_per_system(&self) -> usize {
        (**self).rows_per_system()
    }
}

/// A boxed evaluator for runtime model selection (the CLI driver uses this
/// to pick NNP vs EAM from the input deck).
pub type VacancyEnergyEvaluatorBox = Box<dyn VacancyEnergyEvaluator>;

/// Sums the per-site kernel outputs (dense `(1+8)·n_region` layout) into
/// per-state region energies, masking sites that hold a vacancy in that
/// state (a vacancy has no energy).
fn reduce_energies(nr: usize, site_energies: &[f32], vet: &[Species]) -> StateEnergies {
    let state_energy = |s: usize| -> f64 {
        let block = &site_energies[s * nr..(s + 1) * nr];
        let mut e = 0.0;
        for (ri, &v) in block.iter().enumerate() {
            let sp = crate::feature_op::FeatureOpTables::species_in_state(vet, s, ri as u32);
            if sp.is_atom() {
                e += v as f64;
            }
        }
        e
    };
    let mut finals = [0.0; 8];
    for (k, f) in finals.iter_mut().enumerate() {
        *f = state_energy(k + 1);
    }
    StateEnergies {
        initial: state_energy(0),
        finals,
    }
}

/// Shared construction of the deployment tables.
fn build_tables(model: &NnpModel, geom: &RegionGeometry) -> (FeatureOpTables, F32Stack) {
    let table = FeatureTable::new(model.features.clone(), &geom.shells);
    (
        FeatureOpTables::new(geom, &table),
        F32Stack::from_model(model),
    )
}

/// The production host evaluator: the serial delta-state feature operator,
/// content dedup of the packed rows, and the big-fusion kernel
/// ([`stage5_bigfusion`], rung 5 of the Fig. 10 ladder) over the unique
/// rows — tiles inline on the calling thread for a small call, spread over
/// the worker pool for a large one. One pipeline serves every call:
/// [`state_energies`](VacancyEnergyEvaluator::state_energies) is the
/// batch of one. The bf16 backend runs the layer-at-a-time
/// [`stage4_fused_bf16`].
pub struct NnpDirectEvaluator {
    geom: Arc<RegionGeometry>,
    tables: FeatureOpTables,
    stack: F32Stack,
    bf16_stack: Bf16Stack,
    precision: Precision,
    delta_features: bool,
    telemetry: Option<OpTelemetry>,
}

impl NnpDirectEvaluator {
    /// Builds the evaluator from a trained model and a region geometry.
    /// The delta-state feature path is on by default; precision is f32.
    /// The bf16 stack is quantized here, once — never per evaluation.
    pub fn new(model: &NnpModel, geom: Arc<RegionGeometry>) -> Self {
        let (tables, stack) = build_tables(model, &geom);
        let bf16_stack = Bf16Stack::from_f32(&stack);
        NnpDirectEvaluator {
            geom,
            tables,
            stack,
            bf16_stack,
            precision: Precision::F32,
            delta_features: true,
            telemetry: None,
        }
    }

    /// Runs the active backend's kernel over `input` rows.
    fn infer(&self, input: &[f32], shape: BatchShape) -> Result<Vec<f32>, OperatorError> {
        match self.precision {
            Precision::F32 => stage5_bigfusion(&self.stack, input, shape),
            Precision::Bf16 => stage4_fused_bf16(&self.bf16_stack, input, shape),
        }
    }

    /// Records feature (`op.feature`) and kernel (`op.kernel.fused`) spans
    /// plus the evaluation counter into `registry`.
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = Some(OpTelemetry::new(registry, keys::OP_KERNEL_FUSED));
        self
    }

    /// The flattened tabulations (exposed for benchmarks).
    pub fn tables(&self) -> &FeatureOpTables {
        &self.tables
    }

    /// The deployed weight stack (exposed for benchmarks).
    pub fn stack(&self) -> &F32Stack {
        &self.stack
    }

    /// The miss path, for any number of systems: features → intern →
    /// kernel → scatter → reduce, all on the calling thread up to the
    /// kernel. One interner spans the batch, so rows repeated between
    /// systems are inferred once; interning is sequential in system order,
    /// so row ids (and the kernel input) are deterministic. Rows are
    /// independent in the kernel and keep their order, so a batch returns
    /// the bits its systems would get one at a time.
    fn evaluate(&self, vets: &[&[Species]]) -> Result<Vec<StateEnergies>, OperatorError> {
        let n_sys = vets.len();
        if n_sys == 0 {
            return Ok(Vec::new());
        }
        let nr = self.tables.n_region;
        let rows_per_sys = N_STATES * nr;
        let t = self.telemetry.as_ref();
        // `op.kernel.batch` sees cross-system batches only.
        let open_kernel_span = |t: &OpTelemetry| match n_sys {
            1 => t.kernel_span(),
            n => t.batch_kernel_span(n),
        };
        if !self.delta_features {
            // The dense ablation: every `(1+8)·N_region` row of every
            // system through the kernel.
            let feature_span = t.map(|t| t.batch_feature_span(n_sys));
            let feats = vets
                .iter()
                .map(|vet| features_serial(&self.tables, vet))
                .collect::<Result<Vec<_>, _>>()?;
            drop(feature_span);
            let mut batch = Vec::with_capacity(n_sys * rows_per_sys * self.tables.n_features);
            for s in feats.iter().flat_map(|f| &f.states) {
                batch.extend_from_slice(s);
            }
            if let Some(t) = t {
                t.record_rows(rows_per_sys * n_sys, 0);
            }
            let shape = BatchShape {
                n: n_sys * N_STATES,
                h: 1,
                w: nr,
            };
            let kernel_span = t.map(open_kernel_span);
            let site_energies = self.infer(&batch, shape)?;
            drop(kernel_span);
            return Ok(site_energies
                .chunks(rows_per_sys)
                .zip(vets)
                .map(|(block, vet)| reduce_energies(nr, block, vet))
                .collect());
        }
        let feature_span = t.map(|t| t.batch_feature_span(n_sys));
        let feats = vets
            .iter()
            .map(|vet| features_serial_delta(&self.tables, vet))
            .collect::<Result<Vec<_>, _>>()?;
        drop(feature_span);
        let dedup_trace = t.and_then(|t| t.trace_span(keys::OP_DEDUP));
        let mut interner = RowInterner::new(self.tables.n_features);
        let plans: Vec<UniqueRowPlan> = feats
            .iter()
            .map(|f| UniqueRowPlan::build(&self.tables, f, &mut interner))
            .collect();
        drop(dedup_trace);
        if let Some(t) = t {
            let packed = self.tables.packed_rows() * n_sys;
            t.record_rows(packed, rows_per_sys * n_sys - packed);
            t.record_unique_rows(interner.len());
        }
        let shape = BatchShape {
            n: interner.len(),
            h: 1,
            w: 1,
        };
        let kernel_span = t.map(open_kernel_span);
        let energies = self.infer(interner.rows(), shape)?;
        drop(kernel_span);
        let scatter_trace = t.and_then(|t| t.trace_span(keys::OP_SCATTER));
        let mut site_energies = vec![0f32; rows_per_sys];
        let out = plans
            .iter()
            .zip(vets)
            .map(|(plan, vet)| {
                plan.scatter(&self.tables, &energies, &mut site_energies);
                reduce_energies(nr, &site_energies, vet)
            })
            .collect();
        drop(scatter_trace);
        Ok(out)
    }
}

impl VacancyEnergyEvaluator for NnpDirectEvaluator {
    fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError> {
        Ok(self.evaluate(&[vet])?[0])
    }

    fn evaluate_states_batch(
        &self,
        vets: &[&[Species]],
    ) -> Result<Vec<StateEnergies>, OperatorError> {
        self.evaluate(vets)
    }

    fn geometry(&self) -> &RegionGeometry {
        &self.geom
    }

    fn set_delta_features(&mut self, on: bool) {
        self.delta_features = on;
    }

    fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    fn rows_per_system(&self) -> usize {
        if self.delta_features {
            self.tables.packed_rows()
        } else {
            (1 + crate::N_FINAL_STATES) * self.geom.n_region()
        }
    }
}

/// The optimised TensorKMC evaluator: CPE-parallel fast feature operator +
/// big-fusion energy kernel on the simulated core group ("SW(opt)" in
/// Fig. 11).
pub struct SunwayEvaluator {
    geom: Arc<RegionGeometry>,
    tables: FeatureOpTables,
    stack: F32Stack,
    bf16_stack: Bf16Stack,
    precision: Precision,
    cg: CoreGroup,
    delta_features: bool,
    telemetry: Option<OpTelemetry>,
}

impl SunwayEvaluator {
    /// Builds the evaluator with a dedicated core group. The delta-state
    /// feature path is on by default; precision is f32. The bf16 stack is
    /// quantized here, once — never per evaluation.
    pub fn new(model: &NnpModel, geom: Arc<RegionGeometry>, cg_config: CgConfig) -> Self {
        let (tables, stack) = build_tables(model, &geom);
        let bf16_stack = Bf16Stack::from_f32(&stack);
        SunwayEvaluator {
            geom,
            tables,
            stack,
            bf16_stack,
            precision: Precision::F32,
            cg: CoreGroup::new(cg_config),
            delta_features: true,
            telemetry: None,
        }
    }

    /// Runs the active backend's big-fusion kernel over `m` input rows.
    fn infer(&self, input: &[f32], m: usize) -> Result<Vec<f32>, OperatorError> {
        match self.precision {
            Precision::F32 => bigfusion_on_cg(&self.cg, &self.stack, input, m),
            Precision::Bf16 => bigfusion_on_cg_bf16(&self.cg, &self.bf16_stack, input, m),
        }
    }

    /// Records feature (`op.feature`) and kernel (`op.kernel.bigfusion`)
    /// spans plus the evaluation counter into `registry`.
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = Some(OpTelemetry::new(registry, keys::OP_KERNEL_BIGFUSION));
        self
    }

    /// The underlying core group (for traffic inspection in benchmarks).
    pub fn core_group(&self) -> &CoreGroup {
        &self.cg
    }
}

impl VacancyEnergyEvaluator for SunwayEvaluator {
    fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError> {
        if self.delta_features {
            let feature_span = self.telemetry.as_ref().map(|t| t.feature_span());
            let feats = features_cpe_delta(&self.cg, &self.tables, vet)?;
            drop(feature_span);
            let nr = self.tables.n_region;
            let dedup_trace = self
                .telemetry
                .as_ref()
                .and_then(|t| t.trace_span(keys::OP_DEDUP));
            let mut interner = RowInterner::new(self.tables.n_features);
            let plan = UniqueRowPlan::build(&self.tables, &feats, &mut interner);
            drop(dedup_trace);
            if let Some(t) = &self.telemetry {
                let packed = self.tables.packed_rows();
                t.record_rows(packed, N_STATES * nr - packed);
                t.record_unique_rows(interner.len());
            }
            let kernel_span = self.telemetry.as_ref().map(|t| t.kernel_span());
            let energies = self.infer(interner.rows(), interner.len())?;
            drop(kernel_span);
            let scatter_trace = self
                .telemetry
                .as_ref()
                .and_then(|t| t.trace_span(keys::OP_SCATTER));
            let mut site_energies = vec![0f32; N_STATES * nr];
            plan.scatter(&self.tables, &energies, &mut site_energies);
            let out = reduce_energies(nr, &site_energies, vet);
            drop(scatter_trace);
            return Ok(out);
        }
        let feature_span = self.telemetry.as_ref().map(|t| t.feature_span());
        let feats = features_cpe(&self.cg, &self.tables, vet)?;
        drop(feature_span);
        let nr = feats.n_region;
        let mut batch = Vec::with_capacity(N_STATES * nr * feats.n_features);
        for s in &feats.states {
            batch.extend_from_slice(s);
        }
        if let Some(t) = &self.telemetry {
            t.record_rows(N_STATES * nr, 0);
        }
        let kernel_span = self.telemetry.as_ref().map(|t| t.kernel_span());
        let site_energies = self.infer(&batch, N_STATES * nr)?;
        drop(kernel_span);
        Ok(reduce_energies(nr, &site_energies, vet))
    }

    // Cross-system batching on the core group: the fast feature operator
    // runs per system (it is already CPE-parallel inside), then the
    // big-fusion kernel runs **once** over the concatenated rows — so the
    // LDM-resident weight fetch, `n_cpes · weight_bytes` of RMA, is paid
    // once per batch instead of once per system.
    fn evaluate_states_batch(
        &self,
        vets: &[&[Species]],
    ) -> Result<Vec<StateEnergies>, OperatorError> {
        match vets {
            [] => return Ok(Vec::new()),
            [only] => return Ok(vec![self.state_energies(only)?]),
            _ => {}
        }
        let n_sys = vets.len();
        let nr = self.tables.n_region;
        if self.delta_features {
            let feature_span = self.telemetry.as_ref().map(|t| t.batch_feature_span(n_sys));
            let mut feats = Vec::with_capacity(n_sys);
            for vet in vets {
                feats.push(features_cpe_delta(&self.cg, &self.tables, vet)?);
            }
            drop(feature_span);
            let dedup_trace = self
                .telemetry
                .as_ref()
                .and_then(|t| t.trace_span(keys::OP_DEDUP));
            let mut interner = RowInterner::new(self.tables.n_features);
            let plans: Vec<UniqueRowPlan> = feats
                .iter()
                .map(|f| UniqueRowPlan::build(&self.tables, f, &mut interner))
                .collect();
            drop(dedup_trace);
            if let Some(t) = &self.telemetry {
                let packed = self.tables.packed_rows() * n_sys;
                t.record_rows(packed, N_STATES * nr * n_sys - packed);
                t.record_unique_rows(interner.len());
            }
            let kernel_span = self.telemetry.as_ref().map(|t| t.batch_kernel_span(n_sys));
            let energies = self.infer(interner.rows(), interner.len())?;
            drop(kernel_span);
            let scatter_trace = self
                .telemetry
                .as_ref()
                .and_then(|t| t.trace_span(keys::OP_SCATTER));
            let mut site_energies = vec![0f32; N_STATES * nr];
            let out = plans
                .iter()
                .zip(vets)
                .map(|(plan, vet)| {
                    plan.scatter(&self.tables, &energies, &mut site_energies);
                    reduce_energies(nr, &site_energies, vet)
                })
                .collect();
            drop(scatter_trace);
            return Ok(out);
        }
        let feature_span = self.telemetry.as_ref().map(|t| t.batch_feature_span(n_sys));
        let mut feats = Vec::with_capacity(n_sys);
        for vet in vets {
            feats.push(features_cpe(&self.cg, &self.tables, vet)?);
        }
        drop(feature_span);
        let rows_per_sys = N_STATES * nr;
        let mut batch = Vec::with_capacity(n_sys * rows_per_sys * feats[0].n_features);
        for f in &feats {
            for s in &f.states {
                batch.extend_from_slice(s);
            }
        }
        if let Some(t) = &self.telemetry {
            t.record_rows(rows_per_sys * n_sys, 0);
        }
        let kernel_span = self.telemetry.as_ref().map(|t| t.batch_kernel_span(n_sys));
        let site_energies = self.infer(&batch, n_sys * rows_per_sys)?;
        drop(kernel_span);
        Ok(vets
            .iter()
            .enumerate()
            .map(|(i, vet)| {
                let block = &site_energies[i * rows_per_sys..(i + 1) * rows_per_sys];
                reduce_energies(nr, block, vet)
            })
            .collect())
    }

    fn geometry(&self) -> &RegionGeometry {
        &self.geom
    }

    fn set_delta_features(&mut self, on: bool) {
        self.delta_features = on;
    }

    fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    fn rows_per_system(&self) -> usize {
        if self.delta_features {
            self.tables.packed_rows()
        } else {
            (1 + crate::N_FINAL_STATES) * self.geom.n_region()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorkmc_compat::rng::Rng;
    use tensorkmc_compat::rng::StdRng;
    use tensorkmc_nnp::ModelConfig;
    use tensorkmc_potential::FeatureSet;

    fn small_model(seed: u64) -> (NnpModel, Arc<RegionGeometry>) {
        let fs = FeatureSet::small(4);
        let cfg = ModelConfig {
            channels: vec![fs.n_features(), 16, 8, 1],
            rcut: 3.0,
        };
        let mut model = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(seed));
        // Centre the raw descriptor values like a trained model's fitted
        // normaliser would; without this a random He-init can be fully dead
        // (all ReLUs off) on the strongly-correlated lattice features.
        model.norm.mean = vec![7.0, 7.0, 7.0, 7.0, 0.5, 0.5, 0.5, 0.5];
        model.norm.std = vec![2.0; 8];
        let geom = Arc::new(RegionGeometry::new(2.87, 3.0).unwrap());
        (model, geom)
    }

    fn random_vet<R: Rng>(n_all: usize, rng: &mut R) -> Vec<Species> {
        let mut vet: Vec<Species> = (0..n_all)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    Species::Cu
                } else {
                    Species::Fe
                }
            })
            .collect();
        vet[0] = Species::Vacancy;
        vet
    }

    #[test]
    fn direct_and_sunway_agree() {
        let (model, geom) = small_model(3);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let vet = random_vet(geom.n_all(), &mut rng);
            let a = direct.state_energies(&vet).unwrap();
            let b = sunway.state_energies(&vet).unwrap();
            assert!((a.initial - b.initial).abs() < 1e-3);
            for k in 0..8 {
                assert!((a.finals[k] - b.finals[k]).abs() < 1e-3, "state {k}");
            }
        }
    }

    #[test]
    fn swap_symmetry_identical_species_means_zero_delta() {
        // If site 0's vacancy swaps with an Fe atom and every atom is Fe,
        // the final state is a pure relabeling: ΔE must vanish.
        let (model, geom) = small_model(5);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut vet = vec![Species::Fe; geom.n_all()];
        vet[0] = Species::Vacancy;
        let e = direct.state_energies(&vet).unwrap();
        for k in 0..8 {
            // The swap moves the vacancy to a geometrically equivalent site
            // in a homogeneous environment; far-boundary truncation of the
            // region makes this approximate but tight.
            assert!(
                e.delta(k).abs() < 1e-3,
                "homogeneous ΔE({k}) = {}",
                e.delta(k)
            );
        }
    }

    #[test]
    fn delta_depends_on_which_species_hops() {
        let (model, geom) = small_model(7);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut vet = vec![Species::Fe; geom.n_all()];
        vet[0] = Species::Vacancy;
        vet[geom.first_nn_id(2) as usize] = Species::Cu;
        let e = direct.state_energies(&vet).unwrap();
        // Hopping the Cu (direction 2) differs from hopping an Fe.
        assert!((e.delta(2) - e.delta(3)).abs() > 1e-9);
    }

    #[test]
    fn batched_is_bit_identical_to_per_system() {
        // The contract the engine's batched refresh rests on: batching is
        // a traffic optimisation, not a numerics change.
        let (model, geom) = small_model(11);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        let vets: Vec<Vec<Species>> = (0..5).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();
        for ev in [
            &direct as &dyn VacancyEnergyEvaluator,
            &sunway as &dyn VacancyEnergyEvaluator,
        ] {
            let batched = ev.evaluate_states_batch(&refs).unwrap();
            assert_eq!(batched.len(), vets.len());
            for (vet, b) in vets.iter().zip(&batched) {
                let a = ev.state_energies(vet).unwrap();
                assert_eq!(a.initial.to_bits(), b.initial.to_bits());
                for k in 0..8 {
                    assert_eq!(a.finals[k].to_bits(), b.finals[k].to_bits(), "state {k}");
                }
            }
        }
    }

    #[test]
    fn batch_weight_rma_is_paid_once_not_per_system() {
        // Fig. 9 extended to the refresh batch: the weight RMA of one
        // batched call equals that of a single-system call, while looping
        // the per-system path pays it once per system.
        let (model, geom) = small_model(13);
        let sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let tc = sunway.core_group().traffic_handle();
        let mut rng = StdRng::seed_from_u64(14);
        let vets: Vec<Vec<Species>> = (0..7).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();

        // The feature operator moves no RMA, so mesh bytes here are pure
        // weight traffic.
        tc.reset();
        sunway.state_energies(&vets[0]).unwrap();
        let one_system = tc.report().rma_bytes;
        assert!(one_system > 0);

        tc.reset();
        sunway.evaluate_states_batch(&refs).unwrap();
        let batched = tc.report();
        assert_eq!(
            batched.rma_bytes, one_system,
            "batched call must move the weights once, not per system"
        );

        tc.reset();
        for vet in &refs {
            sunway.state_energies(vet).unwrap();
        }
        assert_eq!(tc.report().rma_bytes, refs.len() as u64 * one_system);
    }

    #[test]
    fn batch_across_the_kernel_gate_equals_per_system_bits() {
        // Paper architecture and geometry, random weights. Each dilute
        // system alone stays under BIGFUSION_PAR_MIN_FLOPS (inline kernel
        // arm); the three together cross it (pooled arm where the host has
        // more than one thread). Same bits either way.
        use crate::stages::BIGFUSION_PAR_MIN_FLOPS;
        let fs = FeatureSet::paper_32();
        let cfg = ModelConfig::paper(&fs);
        let model = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(41));
        let geom = Arc::new(RegionGeometry::new(2.87, 6.5).unwrap());
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let vets: Vec<Vec<Species>> = (0..3usize)
            .map(|i| {
                let mut vet = vec![Species::Fe; geom.n_all()];
                vet[0] = Species::Vacancy;
                for site in [20, 100] {
                    vet[site + 37 * i] = Species::Cu;
                }
                vet
            })
            .collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();
        let call_flops = |vets: &[&[Species]]| {
            let mut interner = RowInterner::new(direct.tables.n_features);
            for vet in vets {
                let feats = features_serial_delta(&direct.tables, vet).unwrap();
                let _ = UniqueRowPlan::build(&direct.tables, &feats, &mut interner);
            }
            interner.len() as u64 * direct.stack.flops_per_row()
        };
        for vet in &refs {
            assert!(call_flops(&[vet]) < BIGFUSION_PAR_MIN_FLOPS);
        }
        assert!(call_flops(&refs) >= BIGFUSION_PAR_MIN_FLOPS);
        let batched = direct.evaluate_states_batch(&refs).unwrap();
        for (vet, b) in refs.iter().zip(&batched) {
            assert!(b.finals.iter().any(|&f| f != b.initial), "live network");
            assert_energies_bit_equal(&direct.state_energies(vet).unwrap(), b, "gate");
        }
    }

    #[test]
    fn batch_edge_cases_empty_and_single() {
        let (model, geom) = small_model(15);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        assert!(direct.evaluate_states_batch(&[]).unwrap().is_empty());
        let mut rng = StdRng::seed_from_u64(16);
        let vet = random_vet(geom.n_all(), &mut rng);
        let got = direct.evaluate_states_batch(&[&vet]).unwrap();
        let want = direct.state_energies(&vet).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].initial.to_bits(), want.initial.to_bits());
        // A bad VET anywhere in the batch fails the whole call.
        assert!(matches!(
            direct.evaluate_states_batch(&[&vet, &vet[..3]]),
            Err(OperatorError::VetShape { .. })
        ));
    }

    #[test]
    fn boxed_evaluator_keeps_the_batched_path() {
        // The Box forwarding must not fall back to the looping default:
        // through the box, a batch of 4 still makes one kernel call.
        let (model, geom) = small_model(17);
        let sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let tc = sunway.core_group().traffic_handle();
        let mut rng = StdRng::seed_from_u64(18);
        let vets: Vec<Vec<Species>> = (0..4).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();
        tc.reset();
        sunway.state_energies(&vets[0]).unwrap();
        let one_system = tc.report().rma_bytes;
        let boxed: crate::VacancyEnergyEvaluatorBox = Box::new(sunway);
        tc.reset();
        boxed.evaluate_states_batch(&refs).unwrap();
        assert_eq!(tc.report().rma_bytes, one_system);
    }

    fn assert_energies_bit_equal(a: &StateEnergies, b: &StateEnergies, label: &str) {
        assert_eq!(a.initial.to_bits(), b.initial.to_bits(), "{label} initial");
        for k in 0..8 {
            assert_eq!(
                a.finals[k].to_bits(),
                b.finals[k].to_bits(),
                "{label} state {k}"
            );
        }
    }

    #[test]
    fn delta_path_is_bit_identical_to_dense() {
        // The contract the `delta_features` knob rests on: unique-row
        // inference is a traffic optimisation, not a numerics change —
        // per-system and batched, on both evaluators.
        let (model, geom) = small_model(21);
        let mut rng = StdRng::seed_from_u64(22);
        let vets: Vec<Vec<Species>> = (0..5).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();

        let mut direct_delta = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut direct_dense = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        direct_delta.set_delta_features(true);
        direct_dense.set_delta_features(false);
        let mut sunway_delta = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let mut sunway_dense = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        sunway_delta.set_delta_features(true);
        sunway_dense.set_delta_features(false);

        for (label, delta, dense) in [
            (
                "direct",
                &direct_delta as &dyn VacancyEnergyEvaluator,
                &direct_dense as &dyn VacancyEnergyEvaluator,
            ),
            ("sunway", &sunway_delta, &sunway_dense),
        ] {
            for vet in &vets {
                let a = dense.state_energies(vet).unwrap();
                let b = delta.state_energies(vet).unwrap();
                assert_energies_bit_equal(&a, &b, label);
            }
            let a = dense.evaluate_states_batch(&refs).unwrap();
            let b = delta.evaluate_states_batch(&refs).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_energies_bit_equal(x, y, label);
            }
        }
    }

    #[test]
    fn kernel_input_dma_scales_with_unique_rows_not_dense_rows() {
        // The traffic claim of the delta path: the big-fusion kernel
        // streams only the packed unique rows from main memory, not
        // 9·N_region rows per system.
        let (model, geom) = small_model(23);
        let mut sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let tables = FeatureOpTables::new(
            &geom,
            &FeatureTable::new(model.features.clone(), &geom.shells),
        );
        let tc = sunway.core_group().traffic_handle();
        let mut rng = StdRng::seed_from_u64(24);
        let vet = random_vet(geom.n_all(), &mut rng);
        let nf = tables.n_features;
        let nr = tables.n_region;

        // Count the unique rows this VET produces.
        let delta = features_serial_delta(&tables, &vet).unwrap();
        let mut interner = RowInterner::new(nf);
        let _ = UniqueRowPlan::build(&tables, &delta, &mut interner);
        let n_unique = interner.len();
        assert!(n_unique < N_STATES * nr);

        // Bracket a full evaluation each way. The feature-op get traffic is
        // identical except the delta path additionally stages the affected
        // mask (nr bytes per CPE); the kernel DMA-reads each input row
        // exactly once. So the saving is exactly the row shrinkage.
        sunway.set_delta_features(false);
        tc.reset();
        sunway.state_energies(&vet).unwrap();
        let dense_get = tc.report().dma_get_bytes;
        sunway.set_delta_features(true);
        tc.reset();
        sunway.state_energies(&vet).unwrap();
        let delta_get = tc.report().dma_get_bytes;
        let saved_rows = ((N_STATES * nr - n_unique) * nf * 4) as u64;
        let mask_bytes = (nr * sunway.core_group().config().n_cpes) as u64;
        assert_eq!(
            dense_get + mask_bytes,
            delta_get + saved_rows,
            "kernel input DMA must scale with the {n_unique} unique rows, \
             not {} dense rows",
            N_STATES * nr
        );
        assert!(saved_rows > mask_bytes, "the dedup must be a net win");
    }

    #[test]
    fn bf16_precision_tracks_f32_within_quantization_error() {
        // The knob changes energy bits (bf16 is lossy) but must stay inside
        // the quantization envelope on both evaluators.
        let (model, geom) = small_model(31);
        let mut rng = StdRng::seed_from_u64(32);
        let vet = random_vet(geom.n_all(), &mut rng);
        for make in [
            |m: &NnpModel, g: &Arc<RegionGeometry>| -> Box<dyn VacancyEnergyEvaluator> {
                Box::new(NnpDirectEvaluator::new(m, Arc::clone(g)))
            },
            |m: &NnpModel, g: &Arc<RegionGeometry>| -> Box<dyn VacancyEnergyEvaluator> {
                Box::new(SunwayEvaluator::new(m, Arc::clone(g), CgConfig::default()))
            },
        ] {
            let f32_ev = make(&model, &geom);
            let mut bf16_ev = make(&model, &geom);
            bf16_ev.set_precision(Precision::Bf16);
            let a = f32_ev.state_energies(&vet).unwrap();
            let b = bf16_ev.state_energies(&vet).unwrap();
            // Region energies sum ~250 site terms; 2^-8 relative per
            // operand keeps the sums within a fraction of a percent.
            assert!((a.initial - b.initial).abs() < 1e-2 * (1.0 + a.initial.abs()));
            for k in 0..8 {
                assert!(
                    (a.finals[k] - b.finals[k]).abs() < 1e-2 * (1.0 + a.finals[k].abs()),
                    "state {k}"
                );
            }
        }
    }

    #[test]
    fn bf16_delta_dense_and_batched_paths_agree_bitwise() {
        // Inside the bf16 backend every execution knob keeps its
        // bit-identity contract: delta vs dense, batched vs per-system,
        // direct vs sunway. Quantization is pointwise-deterministic, so the
        // dedup-by-bit-pattern delta machinery is as exact as under f32.
        let (model, geom) = small_model(33);
        let mut rng = StdRng::seed_from_u64(34);
        let vets: Vec<Vec<Species>> = (0..4).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();

        let mut direct_delta = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut direct_dense = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut sunway_delta = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let mut sunway_dense = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        for ev in [
            &mut direct_delta as &mut dyn VacancyEnergyEvaluator,
            &mut direct_dense,
            &mut sunway_delta,
            &mut sunway_dense,
        ] {
            ev.set_precision(Precision::Bf16);
        }
        direct_delta.set_delta_features(true);
        direct_dense.set_delta_features(false);
        sunway_delta.set_delta_features(true);
        sunway_dense.set_delta_features(false);

        for (label, delta, dense) in [
            (
                "direct",
                &direct_delta as &dyn VacancyEnergyEvaluator,
                &direct_dense as &dyn VacancyEnergyEvaluator,
            ),
            ("sunway", &sunway_delta, &sunway_dense),
        ] {
            for vet in &vets {
                let a = dense.state_energies(vet).unwrap();
                let b = delta.state_energies(vet).unwrap();
                assert_energies_bit_equal(&a, &b, label);
            }
            let a = dense.evaluate_states_batch(&refs).unwrap();
            let b = delta.evaluate_states_batch(&refs).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_energies_bit_equal(x, y, label);
            }
            // Batched vs per-system inside the same precision.
            for (vet, batched) in vets.iter().zip(&b) {
                let single = delta.state_energies(vet).unwrap();
                assert_energies_bit_equal(&single, batched, label);
            }
        }
        // Host and CG backends agree bitwise (shared row-accumulate).
        for vet in &vets {
            let a = direct_delta.state_energies(vet).unwrap();
            let b = sunway_delta.state_energies(vet).unwrap();
            assert_energies_bit_equal(&a, &b, "direct-vs-sunway");
        }
    }

    #[test]
    fn bf16_halves_weight_rma_through_the_evaluator() {
        // The traffic claim, end to end: flipping the knob on a live
        // evaluator halves the measured per-evaluation weight RMA.
        let (model, geom) = small_model(35);
        let mut sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let tc = sunway.core_group().traffic_handle();
        let mut rng = StdRng::seed_from_u64(36);
        let vet = random_vet(geom.n_all(), &mut rng);
        tc.reset();
        sunway.state_energies(&vet).unwrap();
        let f32_rma = tc.report().rma_bytes;
        sunway.set_precision(Precision::Bf16);
        tc.reset();
        sunway.state_energies(&vet).unwrap();
        let bf16_rma = tc.report().rma_bytes;
        assert_eq!(bf16_rma * 2, f32_rma);
    }

    #[test]
    fn energies_are_finite_and_vet_checked() {
        let (model, geom) = small_model(9);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut rng = StdRng::seed_from_u64(10);
        let vet = random_vet(geom.n_all(), &mut rng);
        let e = direct.state_energies(&vet).unwrap();
        assert!(e.initial.is_finite());
        assert!(e.finals.iter().all(|v| v.is_finite()));
        assert!(matches!(
            direct.state_energies(&vet[..10]),
            Err(OperatorError::VetShape { .. })
        ));
    }
}
