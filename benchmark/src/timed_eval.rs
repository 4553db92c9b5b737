//! [`TimedEvaluator`]: the operator layer seen from outside.
//!
//! The engine reaches the operators only through the public
//! [`VacancyEnergyEvaluator`] trait, so wrapping the evaluator is enough to
//! time every call, count systems, and capture a bounded sample of the VET
//! batches for the stage replays — without touching product code.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tensorkmc::lattice::{RegionGeometry, Species};
use tensorkmc::operators::{OperatorError, Precision, StateEnergies, VacancyEnergyEvaluator};

use crate::spans::{Spans, ROOT};

/// Span name of one evaluator call.
pub const EVALUATE: &str = "operators.evaluate";

/// Captured VET batches are capped at this many systems in total.
const CAPTURE_SYSTEMS: usize = 256;

/// What one wrapper has seen. Shared with the harness through an `Arc`.
pub struct EvalRecorder {
    spans: Arc<Spans>,
    /// When false the wrapper forwards calls untouched (one relaxed load).
    enabled: AtomicBool,
    /// Span id the next evaluate span hangs under.
    parent: AtomicU32,
    calls: AtomicU64,
    systems: AtomicU64,
    busy_ns: AtomicU64,
    captured: Mutex<Vec<Vec<Vec<Species>>>>,
}

impl EvalRecorder {
    /// A recorder writing its spans into `spans`; enabled from the start.
    pub fn new(spans: Arc<Spans>) -> Arc<Self> {
        Arc::new(EvalRecorder {
            spans,
            enabled: AtomicBool::new(true),
            parent: AtomicU32::new(ROOT),
            calls: AtomicU64::new(0),
            systems: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            captured: Mutex::new(Vec::new()),
        })
    }

    /// Switches recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Sets the parent of the evaluate spans recorded from now on.
    pub fn set_parent(&self, parent: u32) {
        self.parent.store(parent, Ordering::Relaxed);
    }

    /// Evaluator calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Vacancy systems evaluated in those calls.
    pub fn systems(&self) -> u64 {
        self.systems.load(Ordering::Relaxed)
    }

    /// Summed wall time inside the evaluator, seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// The captured VET batches (first calls of the run, bounded).
    pub fn take_captured(&self) -> Vec<Vec<Vec<Species>>> {
        std::mem::take(&mut self.captured.lock().expect("capture poisoned"))
    }

    fn record<T>(&self, vets: &[&[Species]], call: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return call();
        }
        let start = self.spans.now_ns();
        let out = call();
        let end = self.spans.now_ns();
        self.spans
            .push(EVALUATE, self.parent.load(Ordering::Relaxed), start, end);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.systems.fetch_add(vets.len() as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        let mut captured = self.captured.lock().expect("capture poisoned");
        let held: usize = captured.iter().map(Vec::len).sum();
        if held + vets.len() <= CAPTURE_SYSTEMS {
            captured.push(vets.iter().map(|v| v.to_vec()).collect());
        }
        out
    }
}

/// An evaluator that times and counts every call into the wrapped one.
pub struct TimedEvaluator<E> {
    inner: E,
    recorder: Arc<EvalRecorder>,
}

impl<E> TimedEvaluator<E> {
    /// Wraps `inner`, reporting into `recorder`.
    pub fn new(inner: E, recorder: Arc<EvalRecorder>) -> Self {
        TimedEvaluator { inner, recorder }
    }
}

impl<E: VacancyEnergyEvaluator> VacancyEnergyEvaluator for TimedEvaluator<E> {
    fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError> {
        self.recorder
            .record(&[vet], || self.inner.state_energies(vet))
    }

    fn evaluate_states_batch(
        &self,
        vets: &[&[Species]],
    ) -> Result<Vec<StateEnergies>, OperatorError> {
        self.recorder
            .record(vets, || self.inner.evaluate_states_batch(vets))
    }

    fn geometry(&self) -> &RegionGeometry {
        self.inner.geometry()
    }

    fn set_delta_features(&mut self, on: bool) {
        self.inner.set_delta_features(on)
    }

    fn set_precision(&mut self, precision: Precision) {
        self.inner.set_precision(precision)
    }

    fn rows_per_system(&self) -> usize {
        self.inner.rows_per_system()
    }
}
