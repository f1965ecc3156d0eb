//! CSV import/export of VM utilization traces.
//!
//! The generator in [`crate::ClusterTraceGenerator`] substitutes for the
//! Google Cluster sample the paper used; sites that *do* hold real
//! traces can round-trip them through this module (long format:
//! `vm,class,sample,cpu_pct,mem_pct`, one row per VM-sample).

use std::error::Error;
use std::fmt;

use ntc_trace::{SampleGrid, TimeSeries};

use crate::{Fleet, MemClass, Vm, VmId};

/// Error parsing a fleet CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFleetError {
    line: usize,
    message: String,
}

impl ParseFleetError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number of the offending row.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseFleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fleet csv line {}: {}", self.line, self.message)
    }
}

impl Error for ParseFleetError {}

/// Serializes a fleet to long-format CSV.
///
/// # Examples
///
/// ```
/// use ntc_workload::{csv, ClusterTraceGenerator};
///
/// let fleet = ClusterTraceGenerator::google_like(2, 1).generate();
/// let text = csv::to_csv(&fleet);
/// assert!(text.starts_with("vm,class,sample,cpu_pct,mem_pct"));
/// ```
pub fn to_csv(fleet: &Fleet) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("vm,class,sample,cpu_pct,mem_pct\n");
    for vm in fleet.vms() {
        for t in 0..vm.horizon() {
            let _ = writeln!(
                out,
                "{},{},{},{:.4},{:.4}",
                vm.id.index(),
                vm.class.kernel_name(),
                t,
                vm.cpu.at(t),
                vm.mem.at(t)
            );
        }
    }
    out
}

fn parse_class(s: &str, line: usize) -> Result<MemClass, ParseFleetError> {
    match s {
        "low-mem" => Ok(MemClass::Low),
        "mid-mem" => Ok(MemClass::Mid),
        "high-mem" => Ok(MemClass::High),
        other => Err(ParseFleetError::new(
            line,
            format!("unknown class {other:?} (expected low-mem/mid-mem/high-mem)"),
        )),
    }
}

/// Parses a long-format fleet CSV back into a [`Fleet`] of `samples`
/// samples per VM, on the sampling geometry of [`ntc_trace`]'s
/// constants.
///
/// Rows must be grouped by VM and ordered by sample within each VM; the
/// sample count per VM must equal `samples`.
///
/// # Errors
///
/// Returns [`ParseFleetError`] on malformed rows, inconsistent sample
/// counts, or non-finite values.
pub fn from_csv(text: &str, samples: usize) -> Result<Fleet, ParseFleetError> {
    let grid = SampleGrid::new(samples);
    let mut vms: Vec<Vm> = Vec::new();
    let mut cur_id: Option<(usize, MemClass)> = None;
    let mut cpu: Vec<f64> = Vec::new();
    let mut mem: Vec<f64> = Vec::new();

    let flush = |id: usize,
                 class: MemClass,
                 cpu: &mut Vec<f64>,
                 mem: &mut Vec<f64>,
                 line: usize|
     -> Result<Vm, ParseFleetError> {
        if cpu.len() != samples {
            return Err(ParseFleetError::new(
                line,
                format!("vm {id} has {} samples, expected {samples}", cpu.len()),
            ));
        }
        Ok(Vm::new(
            VmId::new(id),
            class,
            TimeSeries::from_values(std::mem::take(cpu)),
            TimeSeries::from_values(std::mem::take(mem)),
        ))
    };

    for (i, row) in text.lines().enumerate() {
        let lineno = i + 1;
        if i == 0 {
            if !row.starts_with("vm,class,sample") {
                return Err(ParseFleetError::new(lineno, "missing header"));
            }
            continue;
        }
        if row.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = row.split(',').collect();
        if fields.len() != 5 {
            return Err(ParseFleetError::new(
                lineno,
                format!("expected 5 fields, found {}", fields.len()),
            ));
        }
        let id: usize = fields[0]
            .parse()
            .map_err(|e| ParseFleetError::new(lineno, format!("vm id: {e}")))?;
        let class = parse_class(fields[1], lineno)?;
        let cpu_v: f64 = fields[3]
            .parse()
            .map_err(|e| ParseFleetError::new(lineno, format!("cpu: {e}")))?;
        let mem_v: f64 = fields[4]
            .parse()
            .map_err(|e| ParseFleetError::new(lineno, format!("mem: {e}")))?;
        if !cpu_v.is_finite() || !mem_v.is_finite() || cpu_v < 0.0 || mem_v < 0.0 {
            return Err(ParseFleetError::new(
                lineno,
                "utilizations must be finite and non-negative",
            ));
        }

        match cur_id {
            Some((prev, prev_class)) if prev != id => {
                vms.push(flush(prev, prev_class, &mut cpu, &mut mem, lineno)?);
                cur_id = Some((id, class));
            }
            None => cur_id = Some((id, class)),
            _ => {}
        }
        cpu.push(cpu_v);
        mem.push(mem_v);
    }
    if let Some((id, class)) = cur_id {
        let last = text.lines().count();
        vms.push(flush(id, class, &mut cpu, &mut mem, last)?);
    }
    if vms.is_empty() {
        return Err(ParseFleetError::new(1, "no VM rows"));
    }
    Ok(Fleet::new(grid, vms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterTraceGenerator;

    #[test]
    fn round_trip_preserves_the_fleet() {
        let fleet = ClusterTraceGenerator::google_like(3, 5).generate();
        let text = to_csv(&fleet);
        let back = from_csv(&text, fleet.grid().len()).expect("round trip parses");
        assert_eq!(back.len(), fleet.len());
        for (a, b) in fleet.vms().iter().zip(back.vms()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.class, b.class);
            // 4-decimal CSV rounding
            for t in 0..a.horizon() {
                assert!((a.cpu.at(t) - b.cpu.at(t)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn missing_header_rejected() {
        let err = from_csv("nope\n", 12).unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn malformed_row_is_located() {
        let text = "vm,class,sample,cpu_pct,mem_pct\n0,low-mem,0,1.0\n";
        let err = from_csv(text, 1).unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn unknown_class_rejected() {
        let text = "vm,class,sample,cpu_pct,mem_pct\n0,huge-mem,0,1.0,1.0\n";
        let err = from_csv(text, 1).unwrap_err();
        assert!(err.to_string().contains("unknown class"));
    }

    #[test]
    fn short_vm_rejected() {
        let text = "vm,class,sample,cpu_pct,mem_pct\n0,low-mem,0,1.0,1.0\n";
        let err = from_csv(text, 2).unwrap_err();
        assert!(err.to_string().contains("expected 2"));
    }

    #[test]
    fn negative_values_rejected() {
        let text = "vm,class,sample,cpu_pct,mem_pct\n0,low-mem,0,-1.0,1.0\n";
        let err = from_csv(text, 1).unwrap_err();
        assert!(err.to_string().contains("non-negative"));
    }
}
