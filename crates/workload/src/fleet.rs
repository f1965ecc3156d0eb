use ntc_trace::{SampleGrid, TimeSeries};

use crate::{Vm, VmId};

/// The VM population handed to an allocation policy, with its sampling
/// grid.
///
/// # Examples
///
/// ```
/// use ntc_workload::ClusterTraceGenerator;
///
/// let fleet = ClusterTraceGenerator::google_like(30, 1).generate();
/// let agg = fleet.aggregate_cpu();
/// assert_eq!(agg.len(), fleet.grid().len());
/// assert!(agg.peak() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    grid: SampleGrid,
    vms: Vec<Vm>,
}

impl Fleet {
    /// Creates a fleet.
    ///
    /// # Panics
    ///
    /// Panics if any VM's horizon differs from the grid length, or the
    /// fleet is empty.
    pub fn new(grid: SampleGrid, vms: Vec<Vm>) -> Self {
        assert!(!vms.is_empty(), "a fleet needs at least one VM");
        for vm in &vms {
            assert_eq!(
                vm.horizon(),
                grid.len(),
                "VM {} horizon does not match the grid",
                vm.id
            );
        }
        Self { grid, vms }
    }

    /// The sampling grid.
    pub fn grid(&self) -> &SampleGrid {
        &self.grid
    }

    /// All VMs.
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Number of VMs.
    #[allow(clippy::len_without_is_empty)] // a fleet is never empty by construction
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// Looks a VM up by id.
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.index()]
    }

    /// Sum of all CPU traces (percent of one server's capacity; may far
    /// exceed 100 — it is the whole data center's demand).
    pub fn aggregate_cpu(&self) -> TimeSeries {
        TimeSeries::aggregate(self.grid.len(), self.vms.iter().map(|v| &v.cpu))
    }

    /// Sum of all memory traces.
    pub fn aggregate_mem(&self) -> TimeSeries {
        TimeSeries::aggregate(self.grid.len(), self.vms.iter().map(|v| &v.mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterTraceGenerator;

    #[test]
    fn aggregate_is_sum() {
        let fleet = ClusterTraceGenerator::google_like(5, 2).generate();
        let agg = fleet.aggregate_cpu();
        let manual: f64 = fleet.vms().iter().map(|v| v.cpu.at(100)).sum();
        assert!((agg.at(100) - manual).abs() < 1e-9);
    }

    #[test]
    fn vm_lookup() {
        let fleet = ClusterTraceGenerator::google_like(4, 3).generate();
        let vm = fleet.vm(VmId::new(2));
        assert_eq!(vm.id, VmId::new(2));
    }

    #[test]
    #[should_panic(expected = "horizon does not match the grid")]
    fn ragged_window_rejected() {
        // A VM cut to a shorter window than the grid does not fit it.
        let fleet = ClusterTraceGenerator::google_like(2, 3).generate();
        let vms = fleet
            .vms()
            .iter()
            .map(|v| Vm::new(v.id, v.class, v.cpu.window(0..13), v.mem.window(0..13)))
            .collect();
        let _ = Fleet::new(*fleet.grid(), vms);
    }
}
