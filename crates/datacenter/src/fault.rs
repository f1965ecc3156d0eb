//! The engine's failure model: per-cell error capture, sweep-level
//! failure policies, and deterministic fault injection.
//!
//! Every cell of a sweep is an independent run, so one misbehaving cell
//! must never cost the results of the others. The engine wraps each
//! cell in [`std::panic::catch_unwind`] and converts both panics and
//! structured [`ntc_core::Error`]s into a [`CellError`] carrying the
//! cell's spec-order index, its label and full [`CellSpec`] identity,
//! the pipeline [`CellStage`] that was executing, and the cause. A
//! [`SweepResult`](crate::SweepResult) then holds the partial results:
//! completed cells in `cells`, failures in `failures`, with
//! [`failed`](crate::SweepResult::failed) /
//! [`succeeded`](crate::SweepResult::succeeded) accessors.
//!
//! What happens to the *rest* of the sweep is the spec's
//! [`FailurePolicy`]: [`KeepGoing`](FailurePolicy::KeepGoing) (the
//! default) finishes every remaining cell and reports the failures
//! alongside the results; [`FailFast`](FailurePolicy::FailFast) raises
//! a shared abort flag so unstarted cells are skipped (reported as
//! [`FailureCause::Skipped`]).
//!
//! # Fault injection
//!
//! The isolation guarantee is only worth having if it is provable, so
//! the engine carries a deterministic fault-injection instrument:
//! [`Engine::inject_fault`](crate::Engine::inject_fault) arms a
//! [`FaultSpec`] that panics (or reports an error) the moment the
//! targeted cell enters the targeted stage. The integration tests
//! fault one cell of a multi-cell sweep and assert every other cell is
//! bit-identical to a clean run — which holds because all cross-cell
//! caches are `OnceLock`-based: a panicking initializer leaves the
//! lock unset, and any sibling re-initializes it from the same pure
//! function of the spec.
//!
//! # Stage tracking
//!
//! Workers record the stage they are executing in a thread-local
//! (`fault::enter`); a cell runs entirely on one worker, so when a panic is
//! caught the thread-local still names the stage that was active. The
//! same hook is where armed panic faults fire, which keeps the
//! injection points and the attribution points identical by
//! construction.

use std::cell::Cell;

use ntc_core::Error;

use crate::engine::CellSpec;

/// The stages of one cell's evaluation, as the failure model reports
/// them: the engine-side [`Fleet`](CellStage::Fleet) (trace
/// generation) and [`Setup`](CellStage::Setup) (backend + simulator
/// construction) stages, then the four stages of the
/// [`WeekSim`](crate::WeekSim) slot pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStage {
    /// Generating (or fetching from the shared cache) the cell's fleet.
    Fleet,
    /// Building the accounting backend, policy and simulator.
    Setup,
    /// The day-ahead forecast stage of the slot pipeline (never entered
    /// by oracle sweeps, which plan from the actual traces).
    Forecast,
    /// The plan stage: the policy packs VMs and fixes the DVFS band.
    Plan,
    /// The govern stage: the online governor settles operating points.
    Govern,
    /// The account stage: the backend prices the governed slot.
    Account,
}

impl CellStage {
    /// Short display tag, also used in sweep JSON and the CLI table.
    pub fn label(&self) -> &'static str {
        match self {
            CellStage::Fleet => "fleet",
            CellStage::Setup => "setup",
            CellStage::Forecast => "forecast",
            CellStage::Plan => "plan",
            CellStage::Govern => "govern",
            CellStage::Account => "account",
        }
    }
}

impl std::fmt::Display for CellStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a [`FaultSpec`] manifests when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an "injected fault" payload — exercises the
    /// `catch_unwind` capture path.
    Panic,
    /// Report [`ntc_core::Error::FaultInjected`] from a fallible stage
    /// — exercises the structured-error capture path. Only the
    /// [`Fleet`](CellStage::Fleet) and [`Setup`](CellStage::Setup)
    /// stages have a fallible path; error faults armed deeper in the
    /// pipeline never fire.
    Error,
}

/// A deliberate fault in one cell of a sweep: the test-only injection
/// instrument behind [`Engine::inject_fault`](crate::Engine::inject_fault).
///
/// Firing is deterministic — the fault triggers the first time cell
/// `cell` enters stage `stage`, wherever the scheduler placed that
/// cell — so a faulted sweep is exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Spec-order index of the targeted cell.
    pub cell: usize,
    /// The pipeline stage at which the fault fires.
    pub stage: CellStage,
    /// Panic or structured error.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// A fault that panics when cell `cell` enters `stage`.
    pub fn panic_at(cell: usize, stage: CellStage) -> Self {
        Self {
            cell,
            stage,
            kind: FaultKind::Panic,
        }
    }

    /// A fault that makes cell `cell`'s setup stage report
    /// [`ntc_core::Error::FaultInjected`] instead of panicking.
    pub fn error_at(cell: usize) -> Self {
        Self {
            cell,
            stage: CellStage::Setup,
            kind: FaultKind::Error,
        }
    }
}

/// What to do with the rest of a sweep once one cell has failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Finish every remaining cell and report the failures alongside
    /// the completed results (the default).
    #[default]
    KeepGoing,
    /// Raise a shared abort flag: cells not yet started are skipped
    /// (reported as [`FailureCause::Skipped`]); cells already running
    /// finish normally.
    FailFast,
}

impl FailurePolicy {
    /// Short display tag, also the spec-JSON encoding.
    pub fn label(&self) -> &'static str {
        match self {
            FailurePolicy::KeepGoing => "keep_going",
            FailurePolicy::FailFast => "fail_fast",
        }
    }
}

/// Why a cell failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// The cell panicked; the payload is rendered to a string.
    Panic {
        /// The stage that was executing when the panic unwound.
        stage: CellStage,
        /// The panic payload (or a placeholder for non-string payloads).
        payload: String,
    },
    /// A fallible stage reported a structured error.
    Error {
        /// The stage that reported the error.
        stage: CellStage,
        /// The structured error.
        error: Error,
    },
    /// The cell never ran: an earlier failure aborted the sweep under
    /// [`FailurePolicy::FailFast`].
    Skipped,
}

/// One failed (or skipped) cell of a sweep, with enough context to act
/// on: which cell (index + label + full spec identity), which pipeline
/// stage, and the panic payload or structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct CellError {
    /// Spec-order index of the cell ([`ExperimentSpec::cells`]
    /// order).
    ///
    /// [`ExperimentSpec::cells`]: crate::ExperimentSpec::cells
    pub index: usize,
    /// The cell's display label (e.g. `EPACT/NTC/sp0.50`).
    pub label: String,
    /// The cell's full identity: fleet, scale, policy, server, floor,
    /// backend.
    pub cell: CellSpec,
    /// Why the cell failed.
    pub cause: FailureCause,
}

impl CellError {
    pub(crate) fn new(index: usize, cell: CellSpec, label: String, cause: FailureCause) -> Self {
        Self {
            index,
            label,
            cell,
            cause,
        }
    }

    /// The stage that was executing when the cell failed, or `None`
    /// for a cell skipped by fail-fast before it started.
    pub fn stage(&self) -> Option<CellStage> {
        match &self.cause {
            FailureCause::Panic { stage, .. } | FailureCause::Error { stage, .. } => Some(*stage),
            FailureCause::Skipped => None,
        }
    }

    /// Short tag for the failure class: `"panic"`, `"error"` or
    /// `"skipped"`.
    pub fn kind_label(&self) -> &'static str {
        match &self.cause {
            FailureCause::Panic { .. } => "panic",
            FailureCause::Error { .. } => "error",
            FailureCause::Skipped => "skipped",
        }
    }

    /// Human-readable description of the cause alone (the panic
    /// payload, the error's `Display` text, or the skip notice).
    pub fn message(&self) -> String {
        match &self.cause {
            FailureCause::Panic { payload, .. } => payload.clone(),
            FailureCause::Error { error, .. } => error.to_string(),
            FailureCause::Skipped => "aborted by fail-fast before starting".to_string(),
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.stage() {
            Some(stage) => write!(
                f,
                "cell {} ({}) {} at stage {stage}: {}",
                self.index,
                self.label,
                match self.cause {
                    FailureCause::Panic { .. } => "panicked",
                    _ => "failed",
                },
                self.message()
            ),
            None => write!(f, "cell {} ({}) {}", self.index, self.label, self.message()),
        }
    }
}

impl std::error::Error for CellError {}

thread_local! {
    /// The stage the calling worker is currently executing. A cell
    /// runs entirely on one worker thread, so this is exact at
    /// panic-capture time.
    static CURRENT_STAGE: Cell<CellStage> = const { Cell::new(CellStage::Fleet) };
    /// The fault armed for the cell currently running on this worker.
    static ARMED: Cell<Option<(CellStage, FaultKind)>> = const { Cell::new(None) };
}

/// Marks the calling worker as executing `stage` of its current cell,
/// and fires an armed panic fault targeting that stage. Called by the
/// engine (fleet/setup) and by the [`WeekSim`](crate::WeekSim) slot
/// pipeline (forecast/plan/govern/account); the cost is two
/// thread-local accesses, far below per-stage work.
pub(crate) fn enter(stage: CellStage) {
    CURRENT_STAGE.with(|s| s.set(stage));
    if let Some((at, FaultKind::Panic)) = ARMED.with(Cell::get) {
        if at == stage {
            ARMED.with(|a| a.set(None)); // fire exactly once
            panic!("injected fault at stage {stage}");
        }
    }
}

/// The injected structured error for `stage` and `cell`, if an
/// error-kind fault targeting it is armed. Consulted only on the
/// fallible engine-side stages.
pub(crate) fn injected_error(stage: CellStage, cell: usize) -> Option<Error> {
    match ARMED.with(Cell::get) {
        Some((at, FaultKind::Error)) if at == stage => {
            ARMED.with(|a| a.set(None));
            Some(Error::FaultInjected { cell })
        }
        _ => None,
    }
}

/// Arms `fault` on the calling worker if it targets cell `index`, and
/// resets the stage tracker for the new cell.
pub(crate) fn arm(fault: Option<&FaultSpec>, index: usize) {
    CURRENT_STAGE.with(|s| s.set(CellStage::Fleet));
    let armed = fault.filter(|f| f.cell == index).map(|f| (f.stage, f.kind));
    ARMED.with(|a| a.set(armed));
}

/// Disarms any remaining fault after a cell finishes (fired or not).
pub(crate) fn disarm() {
    ARMED.with(|a| a.set(None));
}

/// The stage the calling worker last entered — read by the engine
/// right after catching a panic to attribute it.
pub(crate) fn current_stage() -> CellStage {
    CURRENT_STAGE.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_are_stable() {
        let stages = [
            CellStage::Fleet,
            CellStage::Setup,
            CellStage::Forecast,
            CellStage::Plan,
            CellStage::Govern,
            CellStage::Account,
        ];
        let labels: Vec<_> = stages.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["fleet", "setup", "forecast", "plan", "govern", "account"]
        );
        assert_eq!(FailurePolicy::KeepGoing.label(), "keep_going");
        assert_eq!(FailurePolicy::FailFast.label(), "fail_fast");
        assert_eq!(FailurePolicy::default(), FailurePolicy::KeepGoing);
    }

    #[test]
    fn armed_panic_fault_fires_once_at_its_stage() {
        arm(Some(&FaultSpec::panic_at(3, CellStage::Govern)), 3);
        enter(CellStage::Plan); // wrong stage: no fire
        let caught = std::panic::catch_unwind(|| enter(CellStage::Govern));
        assert!(caught.is_err(), "the armed stage must panic");
        assert_eq!(current_stage(), CellStage::Govern);
        enter(CellStage::Govern); // disarmed after firing
        disarm();
    }

    #[test]
    fn fault_for_another_cell_never_arms() {
        arm(Some(&FaultSpec::panic_at(7, CellStage::Plan)), 3);
        enter(CellStage::Plan);
        assert_eq!(current_stage(), CellStage::Plan);
        disarm();
    }

    #[test]
    fn error_fault_reports_fault_injected() {
        arm(Some(&FaultSpec::error_at(2)), 2);
        assert_eq!(injected_error(CellStage::Fleet, 2), None);
        assert_eq!(
            injected_error(CellStage::Setup, 2),
            Some(Error::FaultInjected { cell: 2 })
        );
        // fired once, then disarmed
        assert_eq!(injected_error(CellStage::Setup, 2), None);
        disarm();
    }
}
