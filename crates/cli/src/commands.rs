//! Subcommand implementations for the `ntcdc` binary.

use std::io::Write;
use std::time::Duration;

use ntc_datacenter::{
    experiments, export, spec_json, BackendSpec, Engine, ExperimentSpec, FailurePolicy, FleetSpec,
    PredictorSpec, ServerSpec, SweepResult,
};
use ntc_power::ServerPowerModel;
use ntc_units::Percent;
use ntc_workload::{ClusterTraceGenerator, FleetStats};

/// What a subcommand returns. It prints through the writer it is given,
/// so a write that fails (say, because the reader of standard output
/// went away) ends it with that [`std::io::Error`] instead of a panic; any
/// other failure is a message for the user.
pub type Outcome = Result<(), Box<dyn std::error::Error>>;

/// Whether a flag stands alone or takes the next argument as its value.
#[derive(Debug, Clone, Copy)]
enum Arity {
    Switch,
    Value,
}

/// The flags one subcommand accepts; anything else is an error.
type FlagTable = &'static [(&'static str, Arity)];

/// A subcommand's arguments checked against its [`FlagTable`]: every
/// argument is a known flag (followed by its value, if it takes one),
/// and no flag is given twice.
#[derive(Debug)]
struct Flags<'a> {
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Checks `args` of subcommand `command` against `table`.
    fn parse(command: &str, args: &'a [String], table: FlagTable) -> Result<Self, String> {
        let mut given: Vec<(&'static str, Option<&'a str>)> = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let Some(&(name, arity)) = table.iter().find(|(name, _)| name == arg) else {
                return Err(format!(
                    "unknown flag {arg:?} for {command} (see ntcdc --help)"
                ));
            };
            if given.iter().any(|&(seen, _)| seen == name) {
                return Err(format!("{name} given more than once"));
            }
            let value = match arity {
                Arity::Switch => None,
                Arity::Value => Some(
                    rest.next()
                        .ok_or_else(|| format!("{name} requires a value"))?
                        .as_str(),
                ),
            };
            given.push((name, value));
        }
        Ok(Self { given })
    }

    /// Whether switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|&(seen, _)| seen == name)
    }

    /// The raw value of `name`, `None` when absent.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.given
            .iter()
            .find(|&&(seen, _)| seen == name)
            .and_then(|&(_, value)| value)
    }

    /// The value of `name` parsed as `T`, `None` when absent.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|raw| raw.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// The value of `name` as a positive count, `default` when absent.
    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.parsed(name)? {
            Some(0) => Err(format!("{name} must be at least 1")),
            n => Ok(n.unwrap_or(default)),
        }
    }

    /// The value of `name` as a comma-separated list, `None` when absent.
    fn list<T: std::str::FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: std::fmt::Display,
    {
        let Some(raw) = self.value(name) else {
            return Ok(None);
        };
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
}

/// `ntcdc table1`
pub fn table1(args: &[String], out: &mut impl Write) -> Outcome {
    Flags::parse("table1", args, &[])?;
    writeln!(
        out,
        "{:<10} {:>13} {:>15} {:>13} {:>13}",
        "workload", "x86@2.66 (s)", "QoS limit (s)", "Cavium@2 (s)", "NTC@2 (s)"
    )?;
    for r in experiments::table1() {
        writeln!(
            out,
            "{:<10} {:>13.3} {:>15.3} {:>13.3} {:>13.3}",
            r.workload, r.x86_secs, r.qos_limit_secs, r.cavium_secs, r.ntc_secs
        )?;
    }
    Ok(())
}

/// `ntcdc fig1 [--servers N] [--csv]`
pub fn fig1(args: &[String], out: &mut impl Write) -> Outcome {
    const FLAGS: FlagTable = &[("--servers", Arity::Value), ("--csv", Arity::Switch)];
    let flags = Flags::parse("fig1", args, FLAGS)?;
    let servers = flags.count("--servers", 80)?;
    let ntc = experiments::fig1(ServerSpec::Ntc.model(), servers);
    let conv = experiments::fig1(ServerSpec::Conventional.model(), servers);
    if flags.switch("--csv") {
        let panels = [
            (ServerSpec::Ntc, &ntc[..]),
            (ServerSpec::Conventional, &conv[..]),
        ];
        write!(out, "{}", export::fig1_csv(&panels))?;
        return Ok(());
    }
    for (label, curves) in [("(a) NTC", &ntc), ("(b) E5-2620", &conv)] {
        writeln!(out, "== Fig. 1{label}, {servers} servers ==")?;
        for c in curves {
            let cells: Vec<String> = c
                .points
                .iter()
                .map(|(f, p)| match p {
                    Some(p) => format!("{:.1}G:{:.2}kW", f.as_ghz(), p.as_kilowatts()),
                    None => format!("{:.1}G:-", f.as_ghz()),
                })
                .collect();
            writeln!(out, "util {:>3.0}%  {}", c.utilization, cells.join("  "))?;
        }
    }
    Ok(())
}

/// `ntcdc fig2`
pub fn fig2(args: &[String], out: &mut impl Write) -> Outcome {
    Flags::parse("fig2", args, &[])?;
    let csv = export::series_csv("normalized_time", &experiments::fig2());
    write!(out, "{csv}")?;
    Ok(())
}

/// `ntcdc fig3`
pub fn fig3(args: &[String], out: &mut impl Write) -> Outcome {
    Flags::parse("fig3", args, &[])?;
    let csv = export::series_csv("buips_per_watt", &experiments::fig3());
    write!(out, "{csv}")?;
    Ok(())
}

/// `ntcdc week [--vms N] [--csv]`
pub fn week(args: &[String], out: &mut impl Write) -> Outcome {
    const FLAGS: FlagTable = &[("--vms", Arity::Value), ("--csv", Arity::Switch)];
    let flags = Flags::parse("week", args, FLAGS)?;
    let fleet = FleetSpec {
        num_vms: flags.count("--vms", 120)?,
        seed: 2018,
        weeks: 2,
    };
    let outcomes = experiments::fig4_5_6(fleet, 600);
    if flags.switch("--csv") {
        write!(out, "{}", export::week_csv(&outcomes))?;
        return Ok(());
    }
    writeln!(
        out,
        "{:<10} {:>11} {:>11} {:>14} {:>14}",
        "policy", "violations", "migrations", "mean servers", "energy (MJ)"
    )?;
    for o in &outcomes {
        writeln!(
            out,
            "{:<10} {:>11} {:>11} {:>14.1} {:>14.1}",
            o.policy,
            o.total_violations(),
            o.total_migrations(),
            o.mean_active_servers(),
            o.total_energy().as_megajoules()
        )?;
    }
    let epact = &outcomes[0];
    for other in &outcomes[1..] {
        writeln!(
            out,
            "EPACT saving vs {}: {:.1}%",
            other.policy,
            epact.energy_saving_vs(other) * 100.0
        )?;
    }
    Ok(())
}

/// `ntcdc sweep [--spec FILE] [--vms N] [--seed S] [--seeds A,B,C]
/// [--static-power-scales X,Y] [--backends analytic,archsim]
/// [--threads N] [--arima] [--fail-fast] [--emit-spec] [--json]
/// [--cache-stats]`
///
/// A sweep with failed cells prints (or, with `--json`, emits) the
/// per-cell failures and returns an error, so the process exits
/// non-zero while the completed cells' results are still reported.
pub fn sweep(args: &[String], out: &mut impl Write) -> Outcome {
    const FLAGS: FlagTable = &[
        ("--spec", Arity::Value),
        ("--vms", Arity::Value),
        ("--seed", Arity::Value),
        ("--seeds", Arity::Value),
        ("--static-power-scales", Arity::Value),
        ("--max-servers", Arity::Value),
        ("--backends", Arity::Value),
        ("--threads", Arity::Value),
        ("--arima", Arity::Switch),
        ("--fail-fast", Arity::Switch),
        ("--emit-spec", Arity::Switch),
        ("--json", Arity::Switch),
        ("--cache-stats", Arity::Switch),
    ];
    let flags = Flags::parse("sweep", args, FLAGS)?;
    if flags.value("--seed").is_some() && flags.value("--seeds").is_some() {
        return Err("--seed and --seeds cannot be combined".into());
    }
    let mut spec = match flags.value("--spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            spec_json::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?
        }
        None => ExperimentSpec::default_sweep(),
    };
    if let Some(seeds) = flags.list::<u64>("--seeds")? {
        if spec.fleets.is_empty() {
            return Err("--seeds: the spec has no fleet to copy for each seed".into());
        }
        spec = spec.with_seeds(&seeds);
    }
    if let Some(scales) = flags.list::<f64>("--static-power-scales")? {
        // `f64::from_str` accepts "nan" and "inf", which no spec can
        // carry: JSON has no such numbers.
        if let Some(bad) = scales.iter().find(|s| !s.is_finite()) {
            return Err(format!("--static-power-scales: {bad} is not a finite number").into());
        }
        spec.static_power_scales = scales;
    }
    if let Some(backends) = flags.list::<BackendSpec>("--backends")? {
        spec.backends = backends;
    }
    // --vms and --seed apply across the whole fleet set.
    if let Some(vms) = flags.parsed("--vms")? {
        spec.fleets.iter_mut().for_each(|f| f.num_vms = vms);
    }
    if let Some(seed) = flags.parsed("--seed")? {
        spec.fleets.iter_mut().for_each(|f| f.seed = seed);
    }
    if let Some(max_servers) = flags.parsed("--max-servers")? {
        spec.max_servers = max_servers;
    }
    if flags.switch("--arima") {
        spec.predictor = PredictorSpec::Arima;
    }
    if flags.switch("--fail-fast") {
        spec.failure_policy = FailurePolicy::FailFast;
    }
    if flags.switch("--emit-spec") {
        write!(out, "{}", spec_json::to_json(&spec))?;
        return Ok(());
    }

    let engine = match flags.parsed("--threads")? {
        Some(threads) => Engine::with_threads(threads),
        None => Engine::new(),
    };
    let sweep = engine.run(&spec).map_err(|e| e.to_string())?;

    if flags.switch("--json") {
        write!(out, "{}", export::sweep_json(&sweep, spec.ablation))?;
        return fail_summary(&sweep);
    }

    writeln!(
        out,
        "sweep {:?}: {} of {} cells on {} threads, {:.2}s wall ({:.2}s up front), {} predictor",
        spec.name,
        sweep.cells.len(),
        sweep.total_cells(),
        sweep.threads,
        sweep.wall.as_secs_f64(),
        sweep.up_front.as_secs_f64(),
        spec.predictor.label()
    )?;
    writeln!(
        out,
        "{:<24} {:>6} {:>10} {:>14} {:>11} {:>14}",
        "cell", "seed", "wall (ms)", "energy (MJ)", "violations", "mean servers"
    )?;
    for cell in &sweep.cells {
        writeln!(
            out,
            "{:<24} {:>6} {:>10.0} {:>14.1} {:>11} {:>14.1}",
            cell.cell.label(spec.ablation),
            cell.cell.fleet.seed,
            cell.wall.as_secs_f64() * 1e3,
            cell.outcome.total_energy().as_megajoules(),
            cell.outcome.total_violations(),
            cell.outcome.mean_active_servers()
        )?;
    }
    if spec.fleets.len() > 1 {
        writeln!(
            out,
            "\nseed-averaged over {} fleets (mean±std):",
            spec.fleets.len()
        )?;
        writeln!(
            out,
            "{:<24} {:>5} {:>16} {:>14} {:>16}",
            "group", "runs", "energy (MJ)", "violations", "mean servers"
        )?;
        for g in sweep.seed_groups() {
            writeln!(
                out,
                "{:<24} {:>5} {:>16} {:>14} {:>16}",
                g.label(spec.ablation),
                g.runs,
                g.energy_mj.to_string(),
                g.violations.to_string(),
                g.mean_active_servers.to_string()
            )?;
        }
    }
    if flags.switch("--cache-stats") {
        let t = sweep.cache_totals();
        writeln!(
            out,
            "cache: plans {} hit / {} miss, forecasts {} hit / {} miss",
            t.plan_hits, t.plan_misses, t.forecast_hits, t.forecast_misses
        )?;
    }
    // Speedup is cell work over wall: the summed cell walls over the
    // sweep's wall, up-front step included. Fleets and forecasts are
    // made before any cell starts, so no cell wall holds a wait for one.
    // Summed as `Duration`s, whose empty sum is zero; an empty `f64`
    // sum is −0.0 and would print as "-0.00s".
    let serial: Duration = sweep.cells.iter().map(|c| c.wall).sum();
    if sweep.wall.as_secs_f64() > 0.0 {
        writeln!(
            out,
            "cell time {:.2}s total, speedup {:.2}x",
            serial.as_secs_f64(),
            serial.div_duration_f64(sweep.wall)
        )?;
    }
    if !sweep.failed().is_empty() {
        writeln!(
            out,
            "\nfailed cells ({} of {}):",
            sweep.failed().len(),
            sweep.total_cells()
        )?;
        writeln!(
            out,
            "{:<5} {:<24} {:>6} {:>9} {:>8}  error",
            "cell", "label", "seed", "stage", "kind"
        )?;
        for f in sweep.failed() {
            writeln!(
                out,
                "{:<5} {:<24} {:>6} {:>9} {:>8}  {}",
                f.index,
                f.label,
                f.cell.fleet.seed,
                f.stage().map_or("-", |s| s.label()),
                f.kind_label(),
                f.message()
            )?;
        }
    }
    fail_summary(&sweep)
}

/// `Ok` for a complete sweep, `Err` (→ non-zero process exit) when any
/// cell failed — after its results and failure table have already been
/// printed.
fn fail_summary(sweep: &SweepResult) -> Outcome {
    if sweep.is_complete() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} cells failed",
            sweep.failed().len(),
            sweep.total_cells()
        )
        .into())
    }
}

/// `ntcdc fig7 [--vms N] [--csv]`
pub fn fig7(args: &[String], out: &mut impl Write) -> Outcome {
    const FLAGS: FlagTable = &[("--vms", Arity::Value), ("--csv", Arity::Switch)];
    let flags = Flags::parse("fig7", args, FLAGS)?;
    let fleet = FleetSpec {
        num_vms: flags.count("--vms", 120)?,
        seed: 7,
        weeks: 2,
    };
    let pts = experiments::fig7(fleet, 600, &[5.0, 15.0, 25.0, 35.0, 45.0]);
    if flags.switch("--csv") {
        write!(out, "{}", export::fig7_csv(&pts))?;
        return Ok(());
    }
    writeln!(
        out,
        "{:<11} {:>13} {:>13} {:>11}",
        "static (W)", "EPACT (MJ)", "COAT (MJ)", "saving (%)"
    )?;
    for p in &pts {
        writeln!(
            out,
            "{:<11.0} {:>13.1} {:>13.1} {:>11.1}",
            p.static_power.as_watts(),
            p.epact_energy.as_megajoules(),
            p.coat_energy.as_megajoules(),
            p.saving_pct
        )?;
    }
    Ok(())
}

/// `ntcdc validate`
pub fn validate(args: &[String], out: &mut impl Write) -> Outcome {
    Flags::parse("validate", args, &[])?;
    writeln!(out, "{}", ntc_power::validation::report())?;
    writeln!(
        out,
        "600-server DC peak at Fmax: {}",
        ntc_power::validation::full_dc_peak()
    )?;
    let dc = ntc_power::DataCenterPowerModel::new(ServerPowerModel::ntc(), 80);
    let (f, p) = dc.optimal_frequency(Percent::new(20.0));
    writeln!(out, "optimal frequency at 20% utilization: {f} ({p})")?;
    Ok(())
}

/// `ntcdc fleet-stats [--vms N]`
pub fn fleet_stats(args: &[String], out: &mut impl Write) -> Outcome {
    const FLAGS: FlagTable = &[("--vms", Arity::Value)];
    let vms = Flags::parse("fleet-stats", args, FLAGS)?.count("--vms", 600)?;
    let fleet = ClusterTraceGenerator::google_like(vms, 2018).generate();
    let s = FleetStats::compute(&fleet);
    writeln!(out, "VMs:                     {}", s.num_vms)?;
    writeln!(out, "horizon (samples):       {}", s.horizon)?;
    writeln!(out, "mean CPU (% of server):  {:.2}", s.mean_cpu)?;
    writeln!(out, "peak aggregate CPU (%):  {:.1}", s.peak_aggregate_cpu)?;
    writeln!(out, "mean mem (% of server):  {:.2}", s.mean_mem)?;
    writeln!(out, "peak aggregate mem (%):  {:.1}", s.peak_aggregate_mem)?;
    writeln!(
        out,
        "classes (low/mid/high):  {}/{}/{}",
        s.class_counts[0], s.class_counts[1], s.class_counts[2]
    )?;
    writeln!(
        out,
        "mean pairwise CPU corr:  {:.3}",
        s.mean_pairwise_correlation
    )?;
    writeln!(
        out,
        "DC utilization on 600 servers: {:.1}%",
        s.dc_utilization_pct(600)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    const TABLE: FlagTable = &[
        ("--vms", Arity::Value),
        ("--seeds", Arity::Value),
        ("--static-power-scales", Arity::Value),
        ("--backends", Arity::Value),
        ("--csv", Arity::Switch),
    ];

    fn parse(args: &[String]) -> Result<Flags<'_>, String> {
        Flags::parse("test", args, TABLE)
    }

    #[test]
    fn opt_parsing() {
        let vms = |args: &[&str]| parse(&s(args))?.parsed::<usize>("--vms");
        assert_eq!(vms(&["--vms", "42"]).unwrap(), Some(42));
        assert_eq!(vms(&[]).unwrap(), None);
        assert!(vms(&["--vms"]).unwrap_err().contains("requires a value"));
        assert!(vms(&["--vms", "x"]).unwrap_err().starts_with("--vms"));
        let count = |args: &[&str]| parse(&s(args))?.count("--vms", 7);
        assert_eq!(count(&["--vms", "42"]).unwrap(), 42);
        assert_eq!(count(&[]).unwrap(), 7);
        assert!(count(&["--vms", "0"]).unwrap_err().starts_with("--vms"));
    }

    #[test]
    fn list_parsing() {
        let seeds = |args: &[&str]| parse(&s(args))?.list::<u64>("--seeds");
        assert_eq!(seeds(&["--seeds", "1,2, 3"]).unwrap(), Some(vec![1, 2, 3]));
        let args = s(&["--static-power-scales", "0.5,1.5"]);
        assert_eq!(
            parse(&args)
                .unwrap()
                .list::<f64>("--static-power-scales")
                .unwrap(),
            Some(vec![0.5, 1.5])
        );
        let backends = |args: &[&str]| parse(&s(args))?.list::<BackendSpec>("--backends");
        assert_eq!(
            backends(&["--backends", "analytic, archsim"]).unwrap(),
            Some(vec![BackendSpec::Analytic, BackendSpec::Archsim])
        );
        assert!(backends(&["--backends", "gem5"]).is_err());
        assert_eq!(seeds(&[]).unwrap(), None);
        assert!(seeds(&["--seeds"]).is_err());
        assert!(seeds(&["--seeds", "1,x"]).is_err());
    }

    #[test]
    fn list_parsing_rejects_empty_entries_clearly() {
        // `1,2,` and `1,,2` used to flow into parse::<u64> and report
        // an opaque "cannot parse integer from empty string".
        for bad in ["1,2,", "1,,2", ",1,2", " , "] {
            let args = s(&["--seeds", bad]);
            let err = parse(&args).unwrap().list::<u64>("--seeds").unwrap_err();
            assert!(
                err.contains("empty entry") && err.contains("--seeds"),
                "{bad:?} must report a clear error, got {err:?}"
            );
        }
    }

    #[test]
    fn flags() {
        let args = s(&["--csv", "--vms", "3"]);
        let flags = parse(&args).unwrap();
        assert!(flags.switch("--csv"));
        assert_eq!(flags.value("--vms"), Some("3"));
        let args = s(&["--vms", "3"]);
        assert!(!parse(&args).unwrap().switch("--csv"));
        // A misspelt, unknown or positional argument is an error, never
        // silently ignored; so is a flag given twice.
        for bad in [&["--vms", "3", "--vm", "4"][..], &["--sed", "5"], &["24"]] {
            let err = parse(&s(bad)).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{bad:?}: {err}");
        }
        let err = parse(&s(&["--csv", "--vms", "3", "--csv"])).unwrap_err();
        assert_eq!(err, "--csv given more than once");
        assert!(Flags::parse("table1", &s(&["--csv"]), &[]).is_err());
    }

    #[test]
    fn cheap_commands_succeed() {
        let mut out = Vec::new();
        assert!(table1(&[], &mut out).is_ok());
        assert!(validate(&[], &mut out).is_ok());
        assert!(fig2(&[], &mut out).is_ok());
        assert!(!out.is_empty());
    }
}
