use ntc_units::Seconds;

/// The sampling layout shared by every trace in an experiment.
///
/// The paper samples utilization every 5 minutes (like the Google Cluster
/// traces), groups 12 samples into a one-hour allocation *time slot* `T`,
/// and evaluates a one-week horizon of 168 slots (2016 samples).
///
/// # Examples
///
/// ```
/// use ntc_trace::SampleGrid;
///
/// let grid = SampleGrid::google_week();
/// assert_eq!(grid.len(), 2016);
/// assert_eq!(grid.samples_per_slot(), 12);
/// assert_eq!(grid.slots(), 168);
/// assert_eq!(grid.slot_range(0), 0..12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleGrid {
    len: usize,
    sample_period_secs: u32,
    samples_per_slot: usize,
}

impl SampleGrid {
    /// Creates a grid with `len` samples of `sample_period`, grouped into
    /// slots of `samples_per_slot`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`, `samples_per_slot == 0`, or `len` is not a
    /// multiple of `samples_per_slot`.
    pub fn new(len: usize, sample_period: Seconds, samples_per_slot: usize) -> Self {
        assert!(len > 0, "grid must contain at least one sample");
        assert!(
            samples_per_slot > 0,
            "slot must contain at least one sample"
        );
        assert!(
            len.is_multiple_of(samples_per_slot),
            "grid length {len} is not a whole number of slots of {samples_per_slot}"
        );
        Self {
            len,
            sample_period_secs: sample_period.as_secs() as u32,
            samples_per_slot,
        }
    }

    /// The paper's evaluation grid: one week of 5-minute samples grouped
    /// into one-hour slots (2016 samples, 168 slots).
    pub fn google_week() -> Self {
        Self::new(7 * 24 * 12, Seconds::from_minutes(5.0), 12)
    }

    /// One day of 5-minute samples in one-hour slots (288 samples, 24
    /// slots) — the ARIMA forecast horizon.
    pub fn google_day() -> Self {
        Self::new(24 * 12, Seconds::from_minutes(5.0), 12)
    }

    /// Total number of samples.
    #[allow(clippy::len_without_is_empty)] // a grid is never empty by construction
    pub fn len(&self) -> usize {
        self.len
    }

    /// Duration of one sample.
    pub fn sample_period(&self) -> Seconds {
        Seconds::new(f64::from(self.sample_period_secs))
    }

    /// Number of samples per allocation slot.
    pub fn samples_per_slot(&self) -> usize {
        self.samples_per_slot
    }

    /// Number of allocation slots in the horizon.
    pub fn slots(&self) -> usize {
        self.len / self.samples_per_slot
    }

    /// Duration of one slot.
    pub fn slot_period(&self) -> Seconds {
        Seconds::new(f64::from(self.sample_period_secs) * self.samples_per_slot as f64)
    }

    /// Number of samples per day, assuming the grid covers whole days.
    pub fn samples_per_day(&self) -> usize {
        let per_day = 86_400 / self.sample_period_secs as usize;
        per_day.min(self.len)
    }

    /// The sample index range of slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.slots()`.
    pub fn slot_range(&self, slot: usize) -> std::ops::Range<usize> {
        assert!(
            slot < self.slots(),
            "slot {slot} out of range (grid has {} slots)",
            self.slots()
        );
        let start = slot * self.samples_per_slot;
        start..start + self.samples_per_slot
    }

    /// Total covered duration.
    pub fn horizon(&self) -> Seconds {
        Seconds::new(f64::from(self.sample_period_secs) * self.len as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn google_week_layout() {
        let g = SampleGrid::google_week();
        assert_eq!(g.len(), 2016);
        assert_eq!(g.slots(), 168);
        assert_eq!(g.sample_period(), Seconds::from_minutes(5.0));
        assert_eq!(g.slot_period(), Seconds::from_hours(1.0));
        assert_eq!(g.samples_per_day(), 288);
        assert_eq!(g.horizon(), Seconds::from_hours(168.0));
    }

    #[test]
    fn slot_ranges_tile_the_grid() {
        let g = SampleGrid::google_day();
        let mut covered = 0;
        for s in 0..g.slots() {
            let r = g.slot_range(s);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, g.len());
    }

    #[test]
    #[should_panic(expected = "not a whole number of slots")]
    fn ragged_grid_rejected() {
        let _ = SampleGrid::new(13, Seconds::from_minutes(5.0), 12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_out_of_range() {
        let _ = SampleGrid::google_day().slot_range(24);
    }
}
