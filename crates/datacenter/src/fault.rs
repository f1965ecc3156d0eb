//! The engine's failure model: per-cell panic capture, sweep-level
//! failure policies, and deterministic fault injection.
//!
//! Every cell of a sweep is an independent run, so one misbehaving cell
//! must never cost the results of the others. A running cell fails one
//! way: it panics. The engine wraps each cell in
//! [`std::panic::catch_unwind`] and converts the caught panic into a
//! [`CellError`] carrying the cell's spec-order index, its label and
//! full [`CellSpec`] identity, the pipeline [`CellStage`] that was
//! executing, and the panic payload. A bad spec never gets that far:
//! [`Engine::run`](crate::Engine::run) rejects it before any cell
//! starts. A [`SweepResult`](crate::SweepResult) then holds the partial
//! results: completed cells in `cells`, failures in `failures`, with
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
//! [`FaultSpec`] that panics the moment the targeted cell enters the
//! targeted stage. The integration tests fault one cell of a
//! multi-cell sweep and assert every other cell is bit-identical to a
//! clean run — which holds because all cross-cell caches are
//! `OnceLock`-based: a panicking initializer leaves the lock unset, and
//! any sibling re-initializes it from the same pure function of the
//! spec.
//!
//! # Stage tracking
//!
//! Workers record the stage they are executing in a thread-local
//! (`fault::enter`); a cell runs entirely on one worker, so when a panic is
//! caught the thread-local still names the stage that was active. The
//! same hook is where armed faults fire, which keeps the injection
//! points and the attribution points identical by construction.
//!
//! # Caught panics
//!
//! The engine runs every cell, and every claim of a sweep's up-front
//! step, through one `catch_unwind` scope that marks its thread while
//! it runs. [`in_catch_scope`] reads that mark, so a front end's panic
//! hook can stay silent for a panic the engine will catch and report
//! as a failed cell, and print every other panic in full. `ntcdc`
//! installs such a hook.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::engine::CellSpec;
use crate::spec_json::Tagged;

/// The stages of one cell's evaluation, as the failure model reports
/// them: the engine-side [`Fleet`](CellStage::Fleet) (trace
/// lookup) and [`Setup`](CellStage::Setup) (backend + simulator
/// construction) stages, then the four stages of the
/// [`WeekSim`](crate::WeekSim) slot pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStage {
    /// Fetching the cell's fleet from the shared table. The engine
    /// generates every fleet before any cell starts, so a cell generates
    /// one here only if that up-front generation panicked.
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

/// A deliberate fault in one cell of a sweep: the test-only injection
/// instrument behind [`Engine::inject_fault`](crate::Engine::inject_fault).
///
/// Firing is deterministic — the fault panics the first time cell
/// `cell` enters stage `stage`, wherever the scheduler placed that
/// cell — so a faulted sweep is exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Spec-order index of the targeted cell.
    pub cell: usize,
    /// The pipeline stage at which the fault fires.
    pub stage: CellStage,
}

impl FaultSpec {
    /// A fault that panics when cell `cell` enters `stage`.
    pub fn panic_at(cell: usize, stage: CellStage) -> Self {
        Self { cell, stage }
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
        self.tag()
    }
}

impl Tagged for FailurePolicy {
    const AXIS: &'static str = "failure policy";
    const TAGS: &'static [(Self, &'static str)] = &[
        (FailurePolicy::KeepGoing, "keep_going"),
        (FailurePolicy::FailFast, "fail_fast"),
    ];
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
    /// The cell never ran: an earlier failure aborted the sweep under
    /// [`FailurePolicy::FailFast`].
    Skipped,
}

/// One failed (or skipped) cell of a sweep, with enough context to act
/// on: which cell (index + label + full spec identity), which pipeline
/// stage, and the panic payload.
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
    /// The stage that was executing when the cell failed, or `None`
    /// for a cell skipped by fail-fast before it started.
    pub fn stage(&self) -> Option<CellStage> {
        match &self.cause {
            FailureCause::Panic { stage, .. } => Some(*stage),
            FailureCause::Skipped => None,
        }
    }

    /// Short tag for the failure class: `"panic"` or `"skipped"`.
    pub fn kind_label(&self) -> &'static str {
        match &self.cause {
            FailureCause::Panic { .. } => "panic",
            FailureCause::Skipped => "skipped",
        }
    }

    /// Human-readable description of the cause alone (the panic
    /// payload or the skip notice).
    pub fn message(&self) -> String {
        match &self.cause {
            FailureCause::Panic { payload, .. } => payload.clone(),
            FailureCause::Skipped => "aborted by fail-fast before starting".to_string(),
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.stage() {
            Some(stage) => write!(
                f,
                "cell {} ({}) panicked at stage {stage}: {}",
                self.index,
                self.label,
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
    static ARMED: Cell<Option<CellStage>> = const { Cell::new(None) };
    /// Whether the calling thread is inside [`catch`].
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` under `catch_unwind`, with the calling thread marked as
/// inside an engine catch scope (see [`in_catch_scope`]) until `f`
/// returns or unwinds.
pub(crate) fn catch<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    let outer = CATCHING.with(|c| c.replace(true));
    let caught = catch_unwind(AssertUnwindSafe(f));
    CATCHING.with(|c| c.set(outer));
    caught
}

/// Whether the calling thread is running a sweep cell or a claim of the
/// sweep's up-front step: a panic there is caught by the engine and
/// reported as a failed cell, so a panic hook need not print it.
pub fn in_catch_scope() -> bool {
    CATCHING.with(Cell::get)
}

/// Marks the calling worker as executing `stage` of its current cell,
/// and fires an armed fault targeting that stage. Called by the
/// engine (fleet/setup) and by the [`WeekSim`](crate::WeekSim) slot
/// pipeline (forecast/plan/govern/account); the cost is two
/// thread-local accesses, far below per-stage work.
pub(crate) fn enter(stage: CellStage) {
    CURRENT_STAGE.with(|s| s.set(stage));
    if ARMED.with(Cell::get) == Some(stage) {
        ARMED.with(|a| a.set(None)); // fire exactly once
        panic!("injected fault at stage {stage}");
    }
}

/// Arms `fault` on the calling worker if it targets cell `index`, and
/// resets the stage tracker for the new cell.
pub(crate) fn arm(fault: Option<&FaultSpec>, index: usize) {
    CURRENT_STAGE.with(|s| s.set(CellStage::Fleet));
    let armed = fault.filter(|f| f.cell == index).map(|f| f.stage);
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
    fn catch_marks_its_scope_until_it_returns() {
        assert!(!in_catch_scope());
        assert_eq!(catch(in_catch_scope).ok(), Some(true));
        assert!(!in_catch_scope());
        assert!(catch(|| panic!("caught")).is_err());
        assert!(!in_catch_scope(), "an unwind clears the mark too");
    }

    #[test]
    fn fault_for_another_cell_never_arms() {
        arm(Some(&FaultSpec::panic_at(7, CellStage::Plan)), 3);
        enter(CellStage::Plan);
        assert_eq!(current_stage(), CellStage::Plan);
        disarm();
    }
}
