//! CSV and JSON export of experiment results — so the regenerated
//! figures can be plotted with any external tool. The JSON emitter is
//! built on the same `Value` writer the spec codec uses
//! ([`spec_json`](crate::spec_json)); there is no second hand-rolled
//! emitter to drift.

use std::fmt::Write as _;

use crate::engine::{PolicySpec, ServerSpec, SweepResult};
use crate::experiments::{Fig1Curve, Fig7Point, WorkloadSeries};
use crate::spec_json::{Tagged, Value};
use crate::{AblationFlags, BackendSpec, WeekOutcome};

/// Renders the per-slot series of several week outcomes side by side
/// (Figs. 4–6 in one table): columns
/// `slot,<policy>_violations,<policy>_servers,<policy>_energy_mj,...`.
///
/// # Panics
///
/// Panics if the outcomes cover different numbers of slots or the list
/// is empty.
pub fn week_csv(outcomes: &[WeekOutcome]) -> String {
    assert!(!outcomes.is_empty(), "need at least one outcome");
    let slots = outcomes[0].slots.len();
    assert!(
        outcomes.iter().all(|o| o.slots.len() == slots),
        "outcomes must cover the same horizon"
    );

    let mut out = String::from("slot");
    for o in outcomes {
        let p = o.policy.to_lowercase().replace(['-', ' '], "_");
        let _ = write!(
            out,
            ",{p}_violations,{p}_servers,{p}_migrations,{p}_energy_mj"
        );
    }
    out.push('\n');
    for t in 0..slots {
        let _ = write!(out, "{t}");
        for o in outcomes {
            let s = &o.slots[t];
            let _ = write!(
                out,
                ",{},{},{},{:.4}",
                s.violations,
                s.active_servers,
                s.migrations,
                s.energy.as_megajoules()
            );
        }
        out.push('\n');
    }
    out
}

/// Renders Fig. 1 as one table of panels, one per server model:
/// `panel,utilization_pct,freq_mhz,power_kw`, each row tagged with its
/// server's spec tag (`ntc`, `conventional`; infeasible points
/// omitted).
pub fn fig1_csv(panels: &[(ServerSpec, &[Fig1Curve])]) -> String {
    let mut out = String::from("panel,utilization_pct,freq_mhz,power_kw\n");
    for &(server, curves) in panels {
        let panel = server.tag();
        for c in curves {
            for (f, p) in &c.points {
                if let Some(p) = p {
                    let _ = writeln!(
                        out,
                        "{panel},{:.0},{:.0},{:.4}",
                        c.utilization,
                        f.as_mhz(),
                        p.as_kilowatts()
                    );
                }
            }
        }
    }
    out
}

/// Renders per-workload series as `workload,freq_mhz,<value>`: Fig. 2
/// with `value` `normalized_time`, Fig. 3 with `buips_per_watt`.
pub fn series_csv(value: &str, series: &[WorkloadSeries]) -> String {
    let mut out = format!("workload,freq_mhz,{value}\n");
    for s in series {
        for (f, v) in &s.points {
            let _ = writeln!(out, "{},{:.0},{:.4}", s.workload, f.as_mhz(), v);
        }
    }
    out
}

/// Renders Fig. 7: `static_w,epact_mj,coat_mj,saving_pct`.
pub fn fig7_csv(points: &[Fig7Point]) -> String {
    let mut out = String::from("static_w,epact_mj,coat_mj,saving_pct\n");
    for p in points {
        let _ = writeln!(
            out,
            "{:.0},{:.4},{:.4},{:.2}",
            p.static_power.as_watts(),
            p.epact_energy.as_megajoules(),
            p.coat_energy.as_megajoules(),
            p.saving_pct
        );
    }
    out
}

/// The six fields that name a sweep arm, shared by its cell and group
/// objects: `label`, `policy`, `server`, `qos_floor_mhz`,
/// `static_power_scale` and `backend`.
fn arm_fields(
    label: String,
    policy: PolicySpec,
    server: ServerSpec,
    qos_floor_mhz: Option<f64>,
    static_power_scale: f64,
    backend: BackendSpec,
) -> Vec<(String, Value)> {
    vec![
        ("label".into(), Value::String(label)),
        ("policy".into(), Value::tag(policy)),
        ("server".into(), Value::tag(server)),
        (
            "qos_floor_mhz".into(),
            qos_floor_mhz.map_or(Value::Null, Value::Number),
        ),
        (
            "static_power_scale".into(),
            Value::Number(static_power_scale),
        ),
        ("backend".into(), Value::tag(backend)),
    ]
}

/// Renders a (possibly partial) sweep as JSON: a `cells` array
/// carrying each completed cell's full identity (fleet, static-power
/// scale, policy, server, QoS floor, accounting backend) with its
/// headline metrics, a `groups` array with the seed-averaged mean±std
/// rows from [`SweepResult::seed_groups`], and a `failures` array with
/// one entry per failed or skipped cell (index, label, seed, pipeline
/// stage, failure kind and message) — empty for a clean sweep.
pub fn sweep_json(sweep: &SweepResult, ablation: AblationFlags) -> String {
    let cells = sweep
        .cells
        .iter()
        .map(|c| {
            let spec = c.cell;
            let mut fields = arm_fields(
                spec.label(ablation),
                spec.policy,
                spec.server,
                spec.qos_floor_mhz,
                spec.static_power_scale,
                spec.backend,
            );
            fields.extend([
                ("num_vms".into(), Value::Int(spec.fleet.num_vms as u64)),
                ("seed".into(), Value::Int(spec.fleet.seed)),
                ("weeks".into(), Value::Int(spec.fleet.weeks as u64)),
                (
                    "energy_mj".into(),
                    Value::Number(c.outcome.total_energy().as_megajoules()),
                ),
                (
                    "violations".into(),
                    Value::Int(c.outcome.total_violations() as u64),
                ),
                (
                    "migrations".into(),
                    Value::Int(c.outcome.total_migrations() as u64),
                ),
                (
                    "mean_active_servers".into(),
                    Value::Number(c.outcome.mean_active_servers()),
                ),
            ]);
            Value::Object(fields)
        })
        .collect();
    let groups = sweep
        .seed_groups()
        .iter()
        .map(|g| {
            let stat = |ms: crate::MeanStd| {
                Value::Object(vec![
                    ("mean".into(), Value::Number(ms.mean)),
                    ("std".into(), Value::Number(ms.std)),
                ])
            };
            let mut fields = arm_fields(
                g.label(ablation),
                g.policy,
                g.server,
                g.qos_floor_mhz,
                g.static_power_scale,
                g.backend,
            );
            fields.extend([
                ("runs".into(), Value::Int(g.runs as u64)),
                ("energy_mj".into(), stat(g.energy_mj)),
                ("violations".into(), stat(g.violations)),
                ("migrations".into(), stat(g.migrations)),
                ("mean_active_servers".into(), stat(g.mean_active_servers)),
            ]);
            Value::Object(fields)
        })
        .collect();
    let failures = sweep
        .failed()
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("index".into(), Value::Int(f.index as u64)),
                ("label".into(), Value::String(f.label.clone())),
                ("seed".into(), Value::Int(f.cell.fleet.seed)),
                (
                    "stage".into(),
                    f.stage()
                        .map_or(Value::Null, |s| Value::String(s.label().into())),
                ),
                ("kind".into(), Value::String(f.kind_label().into())),
                ("message".into(), Value::String(f.message())),
            ])
        })
        .collect();
    let totals = sweep.cache_totals();
    Value::Object(vec![
        ("threads".into(), Value::Int(sweep.threads as u64)),
        ("cells_total".into(), Value::Int(sweep.total_cells() as u64)),
        (
            "cells_failed".into(),
            Value::Int(sweep.failed().len() as u64),
        ),
        (
            "plan_cache_hits".into(),
            Value::Int(totals.plan_hits as u64),
        ),
        (
            "plan_cache_misses".into(),
            Value::Int(totals.plan_misses as u64),
        ),
        (
            "forecast_cache_hits".into(),
            Value::Int(totals.forecast_hits as u64),
        ),
        (
            "forecast_cache_misses".into(),
            Value::Int(totals.forecast_misses as u64),
        ),
        ("cells".into(), Value::Array(cells)),
        ("groups".into(), Value::Array(groups)),
        ("failures".into(), Value::Array(failures)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_json::parse_value;
    use crate::SlotOutcome;
    use ntc_units::{Energy, Frequency};

    fn outcome(name: &str, slots: usize) -> WeekOutcome {
        WeekOutcome {
            policy: name.into(),
            slots: (0..slots)
                .map(|i| SlotOutcome {
                    violations: i,
                    active_servers: 10 + i,
                    migrations: i / 2,
                    energy: Energy::from_megajoules(1.0 + i as f64),
                    planned_freq: Frequency::from_ghz(1.9),
                    mean_freq: Frequency::from_ghz(1.5),
                })
                .collect(),
        }
    }

    #[test]
    fn week_csv_layout() {
        let csv = week_csv(&[outcome("EPACT", 2), outcome("COAT-OPT", 2)]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("slot,epact_violations"));
        assert!(header.contains("coat_opt_energy_mj"));
        assert_eq!(lines.count(), 2);
        assert!(csv.contains("1,1,11,0,2.0000"));
    }

    #[test]
    fn fig_csvs_have_headers() {
        assert!(series_csv("normalized_time", &[]).starts_with("workload,freq_mhz,"));
        assert!(fig7_csv(&[]).starts_with("static_w,"));
        assert!(fig1_csv(&[]).starts_with("panel,utilization_pct,"));
    }

    #[test]
    #[should_panic(expected = "same horizon")]
    fn ragged_outcomes_rejected() {
        let _ = week_csv(&[outcome("A", 2), outcome("B", 3)]);
    }

    #[test]
    fn sweep_json_reports_failures() {
        use crate::{CellStage, Engine, ExperimentSpec, FaultSpec, PolicySpec, ServerSpec};
        let mut spec = ExperimentSpec::default_sweep();
        spec.fleets[0].num_vms = 8;
        spec.policies = vec![PolicySpec::Epact, PolicySpec::Coat];
        spec.servers = vec![ServerSpec::Ntc];
        spec.max_servers = 80;
        let sweep = Engine::with_threads(2)
            .inject_fault(FaultSpec::panic_at(1, CellStage::Plan))
            .run(&spec)
            .unwrap();
        let json = sweep_json(&sweep, spec.ablation);
        let value = parse_value(&json).expect("emitted JSON must parse");
        let obj = value.as_object("root").unwrap();
        let field = |name: &str| &obj.iter().find(|(k, _)| k == name).unwrap().1;
        assert_eq!(field("cells_total").as_f64("t").unwrap(), 2.0);
        assert_eq!(field("cells_failed").as_f64("f").unwrap(), 1.0);
        assert_eq!(field("cells").as_array("cells").unwrap().len(), 1);
        let failures = field("failures").as_array("failures").unwrap();
        assert_eq!(failures.len(), 1);
        let failure = failures[0].as_object("failure").unwrap();
        let ffield = |name: &str| &failure.iter().find(|(k, _)| k == name).unwrap().1;
        assert_eq!(ffield("index").as_f64("index").unwrap(), 1.0);
        assert_eq!(ffield("label").as_string("label").unwrap(), "COAT/NTC");
        assert_eq!(ffield("stage").as_string("stage").unwrap(), "plan");
        assert_eq!(ffield("kind").as_string("kind").unwrap(), "panic");
        assert!(ffield("message")
            .as_string("message")
            .unwrap()
            .contains("injected"));
    }

    #[test]
    fn sweep_json_carries_cells_and_seed_groups() {
        use crate::{Engine, ExperimentSpec, PolicySpec, ServerSpec};
        let mut spec = ExperimentSpec::default_sweep().with_seeds(&[1, 2]);
        spec.fleets.iter_mut().for_each(|f| f.num_vms = 8);
        spec.policies = vec![PolicySpec::Epact];
        spec.servers = vec![ServerSpec::Ntc];
        spec.max_servers = 80;
        let sweep = Engine::with_threads(2).run(&spec).unwrap();
        let json = sweep_json(&sweep, spec.ablation);
        let value = parse_value(&json).expect("emitted JSON must parse");
        let obj = value.as_object("root").unwrap();
        let field = |name: &str| &obj.iter().find(|(k, _)| k == name).unwrap().1;
        let cells = field("cells").as_array("cells").unwrap();
        assert_eq!(cells.len(), 2);
        // Single-policy, single-arm sweep: nothing dedups, so the plan
        // cache reports only misses — but the counters must be present.
        let misses = field("plan_cache_misses").as_f64("misses").unwrap();
        assert!(misses > 0.0, "planning slots must be counted");
        assert_eq!(field("forecast_cache_hits").as_f64("fh").unwrap(), 0.0);
        let seed_of = |cell: &Value| {
            let fields = cell.as_object("cell").unwrap();
            fields
                .iter()
                .find(|(k, _)| k == "seed")
                .unwrap()
                .1
                .as_u64("seed")
                .unwrap()
        };
        assert_eq!(seed_of(&cells[0]), 1);
        assert_eq!(seed_of(&cells[1]), 2);
        let backend_of = |cell: &Value| {
            let fields = cell.as_object("cell").unwrap();
            fields
                .iter()
                .find(|(k, _)| k == "backend")
                .unwrap()
                .1
                .as_string("backend")
                .unwrap()
                .to_string()
        };
        assert_eq!(backend_of(&cells[0]), "analytic");
        let groups = field("groups").as_array("groups").unwrap();
        assert_eq!(groups.len(), 1);
        let group = groups[0].as_object("group").unwrap();
        let runs = &group.iter().find(|(k, _)| k == "runs").unwrap().1;
        assert_eq!(runs.as_f64("runs").unwrap(), 2.0);
        let energy = &group.iter().find(|(k, _)| k == "energy_mj").unwrap().1;
        assert!(energy.as_object("energy").is_ok(), "mean/std object");
    }

    #[test]
    fn sweep_json_groups_name_their_arm_like_its_cells() {
        use crate::{BackendSpec, Engine, ExperimentSpec, PolicySpec};
        let mut spec = ExperimentSpec::default_sweep().with_seeds(&[1, 2]);
        spec.fleets.iter_mut().for_each(|f| f.num_vms = 6);
        spec.policies = vec![PolicySpec::Epact, PolicySpec::Coat];
        spec.static_power_scales = vec![1.0, 1.5];
        spec.qos_floors_mhz = vec![None, Some(1800.0)];
        spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
        spec.max_servers = 60;
        let sweep = Engine::with_threads(2).run(&spec).unwrap();
        let value = parse_value(&sweep_json(&sweep, spec.ablation)).unwrap();
        let root = value.as_object("root").unwrap();
        let list = |name: &str| {
            let v = &root.iter().find(|(k, _)| k == name).unwrap().1;
            v.as_array(name).unwrap().to_vec()
        };
        const IDENTITY: [&str; 6] = [
            "label",
            "policy",
            "server",
            "qos_floor_mhz",
            "static_power_scale",
            "backend",
        ];
        let identity = |obj: &Value| -> Vec<Value> {
            let fields = obj.as_object("object").unwrap();
            IDENTITY
                .iter()
                .map(|name| fields.iter().find(|(k, _)| k == name).unwrap().1.clone())
                .collect()
        };
        let (cells, groups) = (list("cells"), list("groups"));
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 2 * 2);
        assert_eq!(groups.len(), cells.len() / 2);
        for group in &groups {
            let want = identity(group);
            let cell = cells
                .iter()
                .find(|c| identity(c)[0] == want[0])
                .expect("every group label names a cell");
            assert_eq!(identity(cell), want);
        }
    }
}
