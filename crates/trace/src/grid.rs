use ntc_units::Seconds;

use crate::{SAMPLES_PER_DAY, SAMPLES_PER_SLOT, SAMPLE_PERIOD_SECS};

/// The sampling layout of a set of traces: how many samples they hold.
///
/// Every trace in the workspace shares one geometry, the crate's
/// constants: a sample every [`SAMPLE_PERIOD_SECS`] seconds,
/// [`SAMPLES_PER_SLOT`] samples to an allocation *time slot* `T` and
/// [`SLOTS_PER_DAY`](crate::SLOTS_PER_DAY) slots to a day. A grid
/// carries only its length, and its accessors return the constants.
///
/// # Examples
///
/// ```
/// use ntc_trace::{SampleGrid, SAMPLES_PER_DAY, SAMPLES_PER_SLOT};
///
/// let week = SampleGrid::new(7 * SAMPLES_PER_DAY);
/// assert_eq!(week.samples_per_day(), SAMPLES_PER_DAY);
/// assert_eq!(week.slot_range(1), SAMPLES_PER_SLOT..2 * SAMPLES_PER_SLOT);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleGrid {
    len: usize,
}

impl SampleGrid {
    /// Creates a grid of `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "grid must contain at least one sample");
        Self { len }
    }

    /// Total number of samples.
    #[allow(clippy::len_without_is_empty)] // a grid is never empty by construction
    pub fn len(&self) -> usize {
        self.len
    }

    /// Duration of one sample ([`SAMPLE_PERIOD_SECS`]).
    pub fn sample_period(&self) -> Seconds {
        Seconds::new(SAMPLE_PERIOD_SECS)
    }

    /// Number of samples per allocation slot ([`SAMPLES_PER_SLOT`]).
    pub fn samples_per_slot(&self) -> usize {
        SAMPLES_PER_SLOT
    }

    /// Number of samples per day ([`SAMPLES_PER_DAY`]).
    pub fn samples_per_day(&self) -> usize {
        SAMPLES_PER_DAY
    }

    /// The sample index range of slot `slot`. A trailing partial slot
    /// is not a slot.
    ///
    /// # Panics
    ///
    /// Panics if the grid holds fewer than `slot + 1` whole slots.
    pub fn slot_range(&self, slot: usize) -> std::ops::Range<usize> {
        let slots = self.len / SAMPLES_PER_SLOT;
        assert!(
            slot < slots,
            "slot {slot} out of range (grid has {slots} slots)"
        );
        let start = slot * SAMPLES_PER_SLOT;
        start..start + SAMPLES_PER_SLOT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SLOTS_PER_DAY;

    #[test]
    fn google_week_layout() {
        // The paper's evaluation week: 5-minute samples, 12 to an
        // hourly slot, 168 slots.
        let g = SampleGrid::new(7 * SAMPLES_PER_DAY);
        assert_eq!(g.len(), 2016);
        assert_eq!(g.len() / g.samples_per_slot(), 168);
        assert_eq!(g.sample_period(), Seconds::from_minutes(5.0));
        assert_eq!(g.samples_per_slot(), 12);
        assert_eq!(g.samples_per_day(), 288);
    }

    #[test]
    fn slot_ranges_tile_the_grid() {
        let g = SampleGrid::new(SAMPLES_PER_DAY);
        let mut covered = 0;
        for s in 0..SLOTS_PER_DAY {
            let r = g.slot_range(s);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, g.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ragged_grid_rejected() {
        // A grid one sample longer than a slot holds one whole slot; its
        // trailing partial slot is rejected.
        let _ = SampleGrid::new(SAMPLES_PER_SLOT + 1).slot_range(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_out_of_range() {
        let _ = SampleGrid::new(SAMPLES_PER_DAY).slot_range(SLOTS_PER_DAY);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_grid_rejected() {
        let _ = SampleGrid::new(0);
    }
}
