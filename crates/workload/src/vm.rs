use ntc_trace::TimeSeries;
use ntc_units::MemBytes;

/// A virtual machine identifier (index into its [`crate::Fleet`]).
///
/// # Examples
///
/// ```
/// use ntc_workload::VmId;
///
/// let id = VmId::new(7);
/// assert_eq!(id.index(), 7);
/// assert_eq!(id.to_string(), "vm7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(usize);

impl VmId {
    /// Creates an id from a fleet index.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The fleet index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// The paper's three memory-footprint classes (§III-B): per-VM average
/// memory usage on a 1 GB container. They are declared, and so ordered,
/// by footprint: a server's dominant class is the `max` of its VMs'.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemClass {
    /// 70 MB average usage (7%).
    Low,
    /// 255 MB average usage (25%).
    Mid,
    /// 435 MB average usage (43%).
    High,
}

impl MemClass {
    /// Average memory footprint of this class.
    pub fn mean_footprint(self) -> MemBytes {
        match self {
            MemClass::Low => MemBytes::from_mib(70),
            MemClass::Mid => MemBytes::from_mib(255),
            MemClass::High => MemBytes::from_mib(435),
        }
    }

    /// Average utilization of the VM's 1 GB allocation, in percent.
    pub fn mean_util_of_vm(self) -> f64 {
        match self {
            MemClass::Low => 7.0,
            MemClass::Mid => 25.0,
            MemClass::High => 43.0,
        }
    }

    /// All classes in ascending footprint order.
    pub fn all() -> [MemClass; 3] {
        [MemClass::Low, MemClass::Mid, MemClass::High]
    }

    /// The matching archsim kernel name (`low-mem` / `mid-mem` /
    /// `high-mem`).
    pub fn kernel_name(self) -> &'static str {
        match self {
            MemClass::Low => "low-mem",
            MemClass::Mid => "mid-mem",
            MemClass::High => "high-mem",
        }
    }
}

impl std::fmt::Display for MemClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kernel_name())
    }
}

/// One virtual machine: identity, class and utilization traces.
///
/// Both traces are expressed as **percent of one server's capacity**, so
/// the allocation policies can sum them directly against per-server caps:
///
/// * `cpu` — a VM pinned to one core of a 16-core server peaks at
///   `100/16 = 6.25`;
/// * `mem` — a 1 GB container on a 16 GB server contributes its
///   utilization × `1/16`.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    /// Identity within the fleet.
    pub id: VmId,
    /// Memory class of the job it runs.
    pub class: MemClass,
    /// CPU utilization trace, percent of server capacity.
    pub cpu: TimeSeries,
    /// Memory utilization trace, percent of server capacity.
    pub mem: TimeSeries,
}

impl Vm {
    /// Creates a VM.
    ///
    /// # Panics
    ///
    /// Panics if the traces have different lengths.
    pub fn new(id: VmId, class: MemClass, cpu: TimeSeries, mem: TimeSeries) -> Self {
        assert_eq!(
            cpu.len(),
            mem.len(),
            "CPU and memory traces must cover the same horizon"
        );
        Self {
            id,
            class,
            cpu,
            mem,
        }
    }

    /// Number of samples in the traces.
    pub fn horizon(&self) -> usize {
        self.cpu.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_footprints() {
        assert_eq!(MemClass::Low.mean_footprint(), MemBytes::from_mib(70));
        assert_eq!(MemClass::Mid.mean_footprint(), MemBytes::from_mib(255));
        assert_eq!(MemClass::High.mean_footprint(), MemBytes::from_mib(435));
        assert_eq!(MemClass::Low.mean_util_of_vm(), 7.0);
    }

    #[test]
    fn class_display_matches_kernel_names() {
        assert_eq!(MemClass::High.to_string(), "high-mem");
        assert_eq!(MemClass::all().len(), 3);
    }

    #[test]
    fn vm_construction() {
        let cpu = TimeSeries::constant(10, 3.0);
        let mem = TimeSeries::constant(10, 1.5);
        let vm = Vm::new(VmId::new(0), MemClass::Low, cpu, mem);
        assert_eq!(vm.horizon(), 10);
    }

    #[test]
    #[should_panic(expected = "same horizon")]
    fn mismatched_traces_rejected() {
        let _ = Vm::new(
            VmId::new(0),
            MemClass::Low,
            TimeSeries::constant(10, 1.0),
            TimeSeries::constant(9, 1.0),
        );
    }
}
