//! Subcommand implementations for the `ntc-dc` binary.

use ntc_datacenter::{
    experiments, export, spec_json, BackendSpec, Engine, ExperimentSpec, FailurePolicy, FleetSpec,
    PredictorSpec, SweepResult,
};
use ntc_power::ServerPowerModel;
use ntc_units::Percent;
use ntc_workload::{ClusterTraceGenerator, FleetStats};

/// Parses `--name value` style options from `args`.
fn opt_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{name} requires a value"))?
            .parse()
            .map_err(|e| format!("{name}: {e}")),
    }
}

/// Parses a `--name a,b,c` comma-separated list, `None` when absent.
fn opt_list<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<Vec<T>>, String>
where
    T::Err: std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} requires a comma-separated list"))?;
    raw.split(',')
        .map(|item| {
            let item = item.trim();
            // Catch `1,2,` and `1,,2` here: an empty item would reach
            // `parse` and report an opaque type-specific error.
            if item.is_empty() {
                return Err(format!("{name}: empty entry in list {raw:?}"));
            }
            item.parse::<T>()
                .map_err(|e| format!("{name}: {item:?}: {e}"))
        })
        .collect::<Result<Vec<T>, String>>()
        .map(Some)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `ntc-dc table1`
pub fn table1() -> Result<(), String> {
    println!(
        "{:<10} {:>13} {:>15} {:>13} {:>13}",
        "workload", "x86@2.66 (s)", "QoS limit (s)", "Cavium@2 (s)", "NTC@2 (s)"
    );
    for r in experiments::table1() {
        println!(
            "{:<10} {:>13.3} {:>15.3} {:>13.3} {:>13.3}",
            r.workload, r.x86_secs, r.qos_limit_secs, r.cavium_secs, r.ntc_secs
        );
    }
    Ok(())
}

/// `ntc-dc fig1 [--servers N]`
pub fn fig1(args: &[String]) -> Result<(), String> {
    let servers = opt_usize(args, "--servers", 80)?;
    for (label, model) in [
        ("(a) NTC", ServerPowerModel::ntc()),
        ("(b) E5-2620", ServerPowerModel::conventional_e5_2620()),
    ] {
        println!("== Fig. 1{label}, {servers} servers ==");
        let curves = experiments::fig1(model, servers);
        if flag(args, "--csv") {
            print!("{}", export::fig1_csv(&curves));
        } else {
            for c in &curves {
                let cells: Vec<String> = c
                    .points
                    .iter()
                    .map(|(f, p)| match p {
                        Some(p) => format!("{:.1}G:{:.2}kW", f.as_ghz(), p.as_kilowatts()),
                        None => format!("{:.1}G:-", f.as_ghz()),
                    })
                    .collect();
                println!("util {:>3.0}%  {}", c.utilization, cells.join("  "));
            }
        }
    }
    Ok(())
}

/// `ntc-dc fig2`
pub fn fig2() -> Result<(), String> {
    print!("{}", export::fig2_csv(&experiments::fig2()));
    Ok(())
}

/// `ntc-dc fig3`
pub fn fig3() -> Result<(), String> {
    print!("{}", export::fig3_csv(&experiments::fig3()));
    Ok(())
}

/// `ntc-dc week [--vms N] [--csv]`
pub fn week(args: &[String]) -> Result<(), String> {
    let vms = opt_usize(args, "--vms", 120)?;
    let fleet = ClusterTraceGenerator::google_like(vms, 2018).generate();
    let outcomes = experiments::fig4_5_6(&fleet, 600);
    if flag(args, "--csv") {
        print!("{}", export::week_csv(&outcomes));
        return Ok(());
    }
    println!(
        "{:<10} {:>11} {:>11} {:>14} {:>14}",
        "policy", "violations", "migrations", "mean servers", "energy (MJ)"
    );
    for o in &outcomes {
        println!(
            "{:<10} {:>11} {:>11} {:>14.1} {:>14.1}",
            o.policy,
            o.total_violations(),
            o.total_migrations(),
            o.mean_active_servers(),
            o.total_energy().as_megajoules()
        );
    }
    let epact = &outcomes[0];
    for other in &outcomes[1..] {
        println!(
            "EPACT saving vs {}: {:.1}%",
            other.policy,
            epact.energy_saving_vs(other) * 100.0
        );
    }
    Ok(())
}

/// `ntc-dc sweep [--spec FILE] [--vms N] [--seed S] [--seeds A,B,C]
/// [--static-power-scales X,Y] [--backends analytic,archsim]
/// [--threads N] [--arima] [--fail-fast] [--emit-spec] [--json]
/// [--no-cache] [--cache-stats]`
///
/// A sweep with failed cells prints (or, with `--json`, emits) the
/// per-cell failures and returns an error, so the process exits
/// non-zero while the completed cells' results are still reported.
pub fn sweep(args: &[String]) -> Result<(), String> {
    let mut spec = match args.iter().position(|a| a == "--spec") {
        Some(i) => {
            let path = args
                .get(i + 1)
                .ok_or_else(|| "--spec requires a file path".to_string())?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            spec_json::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?
        }
        None => ExperimentSpec::default_sweep(),
    };
    if let Some(seeds) = opt_list::<u64>(args, "--seeds")? {
        spec = spec.with_seeds(&seeds);
    }
    if let Some(scales) = opt_list::<f64>(args, "--static-power-scales")? {
        // `f64::from_str` accepts "nan" and "inf", which no spec can
        // carry: JSON has no such numbers.
        if let Some(bad) = scales.iter().find(|s| !s.is_finite()) {
            return Err(format!(
                "--static-power-scales: {bad} is not a finite number"
            ));
        }
        spec.static_power_scales = scales;
    }
    if let Some(backends) = opt_list::<BackendSpec>(args, "--backends")? {
        spec.backends = backends;
    }
    // --vms and --seed apply across the whole fleet set.
    if let Some(i) = args.iter().position(|a| a == "--vms") {
        let vms = opt_usize(&args[i..], "--vms", 0)?;
        spec.fleets.iter_mut().for_each(|f| f.num_vms = vms);
    }
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        let seed = opt_usize(&args[i..], "--seed", 0)? as u64;
        spec.fleets.iter_mut().for_each(|f| f.seed = seed);
    }
    spec.max_servers = opt_usize(args, "--max-servers", spec.max_servers)?;
    if flag(args, "--arima") {
        spec.predictor = PredictorSpec::Arima;
    }
    if flag(args, "--fail-fast") {
        spec.failure_policy = FailurePolicy::FailFast;
    }
    if flag(args, "--emit-spec") {
        print!("{}", spec_json::to_json(&spec));
        return Ok(());
    }

    let engine = match args.iter().position(|a| a == "--threads") {
        Some(_) => Engine::with_threads(opt_usize(args, "--threads", 1)?),
        None => Engine::new(),
    }
    .caching(!flag(args, "--no-cache"));
    let sweep = engine.run(&spec).map_err(|e| e.to_string())?;

    if flag(args, "--json") {
        print!("{}", export::sweep_json(&sweep, spec.ablation));
        return fail_summary(&sweep);
    }

    println!(
        "sweep {:?}: {} of {} cells on {} threads, {:.2}s wall",
        spec.name,
        sweep.cells.len(),
        sweep.total_cells(),
        sweep.threads,
        sweep.wall.as_secs_f64()
    );
    println!(
        "{:<24} {:>6} {:>10} {:>14} {:>11} {:>14}",
        "cell", "seed", "wall (ms)", "energy (MJ)", "violations", "mean servers"
    );
    for cell in &sweep.cells {
        println!(
            "{:<24} {:>6} {:>10.0} {:>14.1} {:>11} {:>14.1}",
            cell.cell.label(spec.ablation),
            cell.cell.fleet.seed,
            cell.wall.as_secs_f64() * 1e3,
            cell.outcome.total_energy().as_megajoules(),
            cell.outcome.total_violations(),
            cell.outcome.mean_active_servers()
        );
    }
    if spec.fleets.len() > 1 {
        println!(
            "\nseed-averaged over {} fleets (mean±std):",
            spec.fleets.len()
        );
        println!(
            "{:<24} {:>5} {:>16} {:>14} {:>16}",
            "group", "runs", "energy (MJ)", "violations", "mean servers"
        );
        for g in sweep.seed_groups() {
            println!(
                "{:<24} {:>5} {:>16} {:>14} {:>16}",
                g.label(spec.ablation),
                g.runs,
                g.energy_mj.to_string(),
                g.violations.to_string(),
                g.mean_active_servers.to_string()
            );
        }
    }
    if flag(args, "--cache-stats") {
        let t = sweep.cache_totals();
        println!(
            "cache: plans {} hit / {} miss, forecasts {} hit / {} miss",
            t.plan_hits, t.plan_misses, t.forecast_hits, t.forecast_misses
        );
    }
    let serial: f64 = sweep.cells.iter().map(|c| c.wall.as_secs_f64()).sum();
    if sweep.wall.as_secs_f64() > 0.0 {
        println!(
            "cell time {:.2}s total, speedup {:.2}x",
            serial,
            serial / sweep.wall.as_secs_f64()
        );
    }
    if !sweep.failed().is_empty() {
        println!(
            "\nfailed cells ({} of {}):",
            sweep.failed().len(),
            sweep.total_cells()
        );
        println!(
            "{:<5} {:<24} {:>6} {:>9} {:>8}  error",
            "cell", "label", "seed", "stage", "kind"
        );
        for f in sweep.failed() {
            println!(
                "{:<5} {:<24} {:>6} {:>9} {:>8}  {}",
                f.index,
                f.label,
                f.cell.fleet.seed,
                f.stage().map_or("-", |s| s.label()),
                f.kind_label(),
                f.message()
            );
        }
    }
    fail_summary(&sweep)
}

/// `Ok` for a complete sweep, `Err` (→ non-zero process exit) when any
/// cell failed — after its results and failure table have already been
/// printed.
fn fail_summary(sweep: &SweepResult) -> Result<(), String> {
    if sweep.is_complete() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} cells failed",
            sweep.failed().len(),
            sweep.total_cells()
        ))
    }
}

/// `ntc-dc fig7 [--vms N] [--csv]`
pub fn fig7(args: &[String]) -> Result<(), String> {
    let fleet = FleetSpec {
        num_vms: opt_usize(args, "--vms", 120)?,
        seed: 7,
        weeks: 2,
    };
    let pts = experiments::fig7(fleet, 600, &[5.0, 15.0, 25.0, 35.0, 45.0]);
    if flag(args, "--csv") {
        print!("{}", export::fig7_csv(&pts));
        return Ok(());
    }
    println!(
        "{:<11} {:>13} {:>13} {:>11}",
        "static (W)", "EPACT (MJ)", "COAT (MJ)", "saving (%)"
    );
    for p in &pts {
        println!(
            "{:<11.0} {:>13.1} {:>13.1} {:>11.1}",
            p.static_power.as_watts(),
            p.epact_energy.as_megajoules(),
            p.coat_energy.as_megajoules(),
            p.saving_pct
        );
    }
    Ok(())
}

/// `ntc-dc validate`
pub fn validate() -> Result<(), String> {
    println!("{}", ntc_power::validation::report());
    println!(
        "600-server DC peak at Fmax: {}",
        ntc_power::validation::full_dc_peak()
    );
    let dc = ntc_power::DataCenterPowerModel::new(ServerPowerModel::ntc(), 80);
    let (f, p) = dc.optimal_frequency(Percent::new(20.0));
    println!("optimal frequency at 20% utilization: {f} ({p})");
    Ok(())
}

/// `ntc-dc fleet-stats [--vms N]`
pub fn fleet_stats(args: &[String]) -> Result<(), String> {
    let vms = opt_usize(args, "--vms", 600)?;
    let fleet = ClusterTraceGenerator::google_like(vms, 2018).generate();
    let s = FleetStats::compute(&fleet);
    println!("VMs:                     {}", s.num_vms);
    println!("horizon (samples):       {}", s.horizon);
    println!("mean CPU (% of server):  {:.2}", s.mean_cpu);
    println!("peak aggregate CPU (%):  {:.1}", s.peak_aggregate_cpu);
    println!("mean mem (% of server):  {:.2}", s.mean_mem);
    println!("peak aggregate mem (%):  {:.1}", s.peak_aggregate_mem);
    println!(
        "classes (low/mid/high):  {}/{}/{}",
        s.class_counts[0], s.class_counts[1], s.class_counts[2]
    );
    println!(
        "mean pairwise CPU corr:  {:.3}",
        s.mean_pairwise_correlation
    );
    println!(
        "DC utilization on 600 servers: {:.1}%",
        s.dc_utilization_pct(600)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn opt_parsing() {
        assert_eq!(opt_usize(&s(&["--vms", "42"]), "--vms", 7).unwrap(), 42);
        assert_eq!(opt_usize(&s(&[]), "--vms", 7).unwrap(), 7);
        assert!(opt_usize(&s(&["--vms"]), "--vms", 7).is_err());
        assert!(opt_usize(&s(&["--vms", "x"]), "--vms", 7).is_err());
    }

    #[test]
    fn list_parsing() {
        assert_eq!(
            opt_list::<u64>(&s(&["--seeds", "1,2, 3"]), "--seeds").unwrap(),
            Some(vec![1, 2, 3])
        );
        assert_eq!(
            opt_list::<f64>(
                &s(&["--static-power-scales", "0.5,1.5"]),
                "--static-power-scales"
            )
            .unwrap(),
            Some(vec![0.5, 1.5])
        );
        assert_eq!(
            opt_list::<BackendSpec>(&s(&["--backends", "analytic, archsim"]), "--backends")
                .unwrap(),
            Some(vec![BackendSpec::Analytic, BackendSpec::Archsim])
        );
        assert!(opt_list::<BackendSpec>(&s(&["--backends", "gem5"]), "--backends").is_err());
        assert_eq!(opt_list::<u64>(&s(&[]), "--seeds").unwrap(), None);
        assert!(opt_list::<u64>(&s(&["--seeds"]), "--seeds").is_err());
        assert!(opt_list::<u64>(&s(&["--seeds", "1,x"]), "--seeds").is_err());
    }

    #[test]
    fn list_parsing_rejects_empty_entries_clearly() {
        // `1,2,` and `1,,2` used to flow into parse::<u64> and report
        // an opaque "cannot parse integer from empty string".
        for bad in ["1,2,", "1,,2", ",1,2", " , "] {
            let err = opt_list::<u64>(&s(&["--seeds", bad]), "--seeds").unwrap_err();
            assert!(
                err.contains("empty entry") && err.contains("--seeds"),
                "{bad:?} must report a clear error, got {err:?}"
            );
        }
    }

    #[test]
    fn flags() {
        assert!(flag(&s(&["--csv"]), "--csv"));
        assert!(!flag(&s(&["--vms", "3"]), "--csv"));
    }

    #[test]
    fn cheap_commands_succeed() {
        assert!(table1().is_ok());
        assert!(validate().is_ok());
        assert!(fig2().is_ok());
    }
}
