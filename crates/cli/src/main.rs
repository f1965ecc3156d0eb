//! `ntcdc` — regenerate any experiment of the paper from the command
//! line.
//!
//! ```text
//! ntcdc table1                      Table I
//! ntcdc fig1 [--servers N]          Fig. 1(a)+(b)
//! ntcdc fig2                        Fig. 2
//! ntcdc fig3                        Fig. 3
//! ntcdc week [--vms N] [--csv]      Figs. 4-6
//! ntcdc sweep [--spec FILE]         parallel policy/config sweep
//! ntcdc fig7 [--vms N] [--csv]      Fig. 7
//! ntcdc validate                    power-model constants vs the paper
//! ntcdc fleet-stats [--vms N]       generated-workload statistics
//! ```

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    // A sweep reports each failed cell in its failure table, so a panic
    // the engine catches is not printed a second time. Any other panic
    // goes to the default hook and prints in full.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !ntc_datacenter::fault::in_catch_scope() {
            default_hook(info);
        }
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let mut out = io::stdout().lock();
    let result = match cmd.as_str() {
        "table1" => commands::table1(rest, &mut out),
        "fig1" => commands::fig1(rest, &mut out),
        "fig2" => commands::fig2(rest, &mut out),
        "fig3" => commands::fig3(rest, &mut out),
        "week" => commands::week(rest, &mut out),
        "sweep" => commands::sweep(rest, &mut out),
        "fig7" => commands::fig7(rest, &mut out),
        "validate" => commands::validate(rest, &mut out),
        "fleet-stats" => commands::fleet_stats(rest, &mut out),
        "--help" | "-h" | "help" => writeln!(out, "{}", usage()).map_err(Into::into),
        other => Err(format!("unknown command {other:?}\n{}", usage()).into()),
    };
    match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`ntcdc ... | head`): nobody is left to
        // read the rest, and that is no failure.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "ntcdc — reproduce 'Energy Proportionality in NTC Servers and Cloud Data \
     Centers: Consolidating or Not?' (DATE 2018)\n\
     \n\
     commands:\n\
     \x20 table1                     Table I: cross-platform execution times\n\
     \x20 fig1   [--servers N]       Fig. 1: worst-case DC power surfaces\n\
     \x20 fig2                       Fig. 2: QoS-normalized execution time\n\
     \x20 fig3                       Fig. 3: efficiency (BUIPS/W)\n\
     \x20 week   [--vms N] [--csv]   Figs. 4-6: EPACT vs COAT vs COAT-OPT\n\
     \x20 sweep  [--spec FILE] [--vms N] [--seed S] [--seeds A,B,C]\n\
     \x20        [--static-power-scales X,Y] [--max-servers N]\n\
     \x20        [--backends analytic,archsim] [--threads N] [--arima]\n\
     \x20        [--fail-fast] [--emit-spec] [--json] [--cache-stats]\n\
     \x20                            parallel sweep over an ExperimentSpec;\n\
     \x20                            multiple seeds print mean±std groups;\n\
     \x20                            --backends sweeps the accounting\n\
     \x20                            backend (analytic power model vs the\n\
     \x20                            archsim interval simulator with QoS);\n\
     \x20                            --cache-stats prints plan/forecast\n\
     \x20                            cache hit/miss totals; failed cells\n\
     \x20                            are reported per cell and exit non-\n\
     \x20                            zero (--fail-fast aborts the rest)\n\
     \x20 fig7   [--vms N] [--csv]   Fig. 7: static-power sweep\n\
     \x20 validate                   power-model constants vs the paper\n\
     \x20 fleet-stats [--vms N]      generated-workload statistics"
}
