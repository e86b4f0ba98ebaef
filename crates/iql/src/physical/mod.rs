//! Physical execution of planned comprehensions.
//!
//! The logical layer ([`crate::plan`]) describes *what* to run — a step list
//! the planner, join-tree picker, `PlanCache` and `IndexStore` cooperate to
//! produce. This module owns *how* it runs, with two interchangeable engines
//! over the **same** plans:
//!
//! * `row`: the recursive row-at-a-time executor (one environment frame per
//!   binding). It is the reference semantics, the differential oracle, and
//!   the engine standing plans always use.
//! * `columnar`: the vectorised executor — closed sources decompose into
//!   typed column vectors (the `column` module), filters run as comparison kernels
//!   over slices under selection bitmaps, and values materialise late. It
//!   must produce bit-identical bags (order and multiplicity included) and
//!   aborts to the row engine on any runtime error.
//!
//! Engine selection is per execution: `Evaluator::with_columnar` gates the
//! columnar engine (default on), plans with open or parameter-dependent
//! generator sources are ineligible and run on the row engine, and
//! [`ExecEngine`] reports which engine produced each result (observable via
//! `StepProbe::engine_count` and, at the dataspace level, [`EngineStats`]).

pub(crate) mod column;
pub(crate) mod columnar;
pub(crate) mod ops;
mod row;

pub use column::BATCH_SIZE;

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Which executor produced a planned comprehension's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecEngine {
    /// The vectorised columnar executor.
    Columnar = 0,
    /// The recursive row-at-a-time executor.
    Row = 1,
}

/// Process-lifetime counters for engine selection, shared across evaluators
/// (attach with `Evaluator::with_engine_stats`; a `Dataspace` keeps one and
/// surfaces it through its stats).
#[derive(Debug, Default)]
pub struct EngineStats {
    columnar_execs: AtomicU64,
    row_fallbacks: AtomicU64,
}

impl EngineStats {
    /// Fresh counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Planned comprehension executions the columnar engine completed.
    pub fn columnar_execs(&self) -> u64 {
        self.columnar_execs.load(AtomicOrdering::Relaxed)
    }

    /// Planned comprehension executions that fell back to the row engine
    /// while the columnar engine was enabled — because the plan was
    /// ineligible (open or parameter-dependent generator source) or a
    /// columnar run aborted on a runtime error. Executions with the columnar
    /// engine disabled outright are not fallbacks and count nowhere.
    pub fn row_fallbacks(&self) -> u64 {
        self.row_fallbacks.load(AtomicOrdering::Relaxed)
    }

    pub(crate) fn record_columnar(&self) {
        self.columnar_execs.fetch_add(1, AtomicOrdering::Relaxed);
    }

    pub(crate) fn record_fallback(&self) {
        self.row_fallbacks.fetch_add(1, AtomicOrdering::Relaxed);
    }
}
