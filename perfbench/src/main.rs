//! Command line of the repository benchmark; see `README.md`.
//!
//! ```text
//! perfbench --workload <paper-600|arima-120x3|toy-grid-60|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--quick]
//! perfbench --write-reference [--quick]
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the run's metadata. The same object, with the spans of
//! a traced run, is written under `out/` in this package.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use ntc_datacenter::{Engine, SweepResult};
use ntc_perfbench::check::{reference_path, render_reference, CellRecord};
use ntc_perfbench::report::{json_string, Outcome};
use ntc_perfbench::workload::{Size, Workload, DEFAULT_SEED};
use ntc_perfbench::{run_traced, run_untraced, Options};

const USAGE: &str = "usage: perfbench --workload <paper-600|arima-120x3|toy-grid-60|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--quick] | --write-reference [--quick]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    write_reference: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
        write_reference: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let size = if args.quick { Size::Quick } else { Size::Full };
    if args.write_reference {
        return write_references(size);
    }
    let result = match args.workload.as_deref() {
        Some("all") => run_all(&raw),
        Some(name) => match Workload::parse(name) {
            Some(workload) => {
                let opts = Options {
                    workload,
                    seed: args.seed,
                    seconds: args.seconds,
                    size,
                };
                run_one(&opts, args.trace)
            }
            None => Err(format!("unknown workload {name}")),
        },
        None => Err("--workload is required".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload, prints metadata and result, and writes both
/// (with the spans of a traced run) under `out/`.
fn run_one(opts: &Options, trace: bool) -> Result<(), String> {
    let (outcome, spans) = if trace {
        let (outcome, setup, replay) = run_traced(opts);
        (outcome, Some((setup, replay)))
    } else {
        (run_untraced(opts), None)
    };
    summarize(&outcome);
    let result = outcome.result_json();
    let meta = outcome.meta_json();
    let mut file = format!("{{\n\"meta\": {meta},\n\"result\": {result}");
    if let Some((setup, replay)) = &spans {
        file.push_str(&format!(
            ",\n\"setup_spans\": {},\n\"replay_spans\": {}",
            setup.to_json(),
            replay.to_json()
        ));
    }
    file.push_str("\n}\n");
    let name = format!(
        "{}-seed{}-trace{}{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(trace),
        if opts.size == Size::Quick {
            "-quick"
        } else {
            ""
        }
    );
    write_out(&name, &file)?;
    println!("{meta}");
    println!("{result}");
    Ok(())
}

/// Human-readable summary on standard error.
fn summarize(outcome: &Outcome) {
    let mut err = std::io::stderr().lock();
    for m in &outcome.metrics {
        let _ = writeln!(err, "  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in outcome.problems.iter().take(20) {
        let _ = writeln!(err, "  problem: {p}");
    }
}

/// `--workload all`: every workload in a process of its own (so each
/// reports its own peak memory), one `{"workload", "result"}` line each.
fn run_all(raw: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut lines = Vec::new();
    for workload in Workload::ALL {
        let mut args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                args.push(a.clone());
            }
        }
        args.extend(["--workload".to_string(), workload.name().to_string()]);
        let child = Command::new(&exe)
            .args(&args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !child.status.success() || !last.starts_with('{') {
            return Err(format!("{} exited with {}", workload.name(), child.status));
        }
        lines.push(format!(
            "{{\"workload\": {}, \"result\": {last}}}",
            json_string(workload.name())
        ));
    }
    write_out("all.json", &format!("[\n{}\n]\n", lines.join(",\n")))?;
    for line in lines {
        println!("{line}");
    }
    Ok(())
}

fn write_out(name: &str, text: &str) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Stores the reference outcomes of every workload at the default seed.
fn write_references(size: Size) -> ExitCode {
    for workload in Workload::ALL {
        let spec = workload.spec(DEFAULT_SEED, size);
        let sweep: SweepResult = match Engine::new().run(&spec) {
            Ok(sweep) if sweep.is_complete() => sweep,
            Ok(sweep) => {
                eprintln!(
                    "error: {} has failed cells: {:?}",
                    workload.name(),
                    sweep.failed()
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let records: Vec<CellRecord> = sweep
            .succeeded()
            .iter()
            .map(|c| CellRecord::of(c, spec.ablation))
            .collect();
        let path = reference_path(workload, size);
        if let Err(e) = std::fs::create_dir_all(path.parent().expect("reference dir"))
            .and_then(|()| std::fs::write(&path, render_reference(&records)))
        {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} ({} cells)", path.display(), records.len());
    }
    ExitCode::SUCCESS
}
