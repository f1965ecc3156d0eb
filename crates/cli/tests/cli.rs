//! End-to-end tests of the `ntcdc` binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ntcdc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_command_fails_with_usage() {
    let (ok, _, err) = run(&[]);
    assert!(!ok);
    assert!(err.contains("commands:"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, err) = run(&["fig99"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn help_succeeds() {
    let (ok, out, _) = run(&["--help"]);
    assert!(ok);
    assert!(out.contains("Consolidating or Not"));
}

#[test]
fn table1_prints_all_classes() {
    let (ok, out, _) = run(&["table1"]);
    assert!(ok);
    for class in ["low-mem", "mid-mem", "high-mem"] {
        assert!(out.contains(class), "missing {class}:\n{out}");
    }
}

#[test]
fn validate_reports_zero_deviation() {
    let (ok, out, _) = run(&["validate"]);
    assert!(ok);
    assert!(out.contains("F_NTC_opt off by 0 MHz"), "{out}");
}

#[test]
fn fig2_emits_csv() {
    let (ok, out, _) = run(&["fig2"]);
    assert!(ok);
    assert!(out.starts_with("workload,freq_mhz,normalized_time"));
    assert!(out.lines().count() > 20);
}

#[test]
fn week_small_fleet_runs() {
    let (ok, out, _) = run(&["week", "--vms", "24"]);
    assert!(ok, "{out}");
    assert!(out.contains("EPACT"));
    assert!(out.contains("saving vs COAT"));
}

#[test]
fn week_csv_mode() {
    let (ok, out, _) = run(&["week", "--vms", "24", "--csv"]);
    assert!(ok);
    assert!(out.starts_with("slot,epact_violations"));
}

#[test]
fn bad_option_value_fails_cleanly() {
    let (ok, _, err) = run(&["week", "--vms", "banana"]);
    assert!(!ok);
    assert!(err.contains("--vms"));
}

#[test]
fn fleet_stats_prints_classes() {
    let (ok, out, _) = run(&["fleet-stats", "--vms", "30"]);
    assert!(ok);
    assert!(out.contains("classes (low/mid/high):  10/10/10"), "{out}");
}

#[test]
fn emit_spec_carries_the_new_axes() {
    let (ok, out, _) = run(&[
        "sweep",
        "--seeds",
        "1,2,3",
        "--static-power-scales",
        "0.5,1.0",
        "--emit-spec",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("\"fleets\""), "{out}");
    assert!(out.contains("\"static_power_scales\": [0.5, 1]"), "{out}");
    // 3 fleets in the set
    assert_eq!(out.matches("\"seed\"").count(), 3, "{out}");
}

#[test]
fn emit_spec_keeps_seeds_above_two_to_the_53() {
    // 2^53 + 1 has no f64 form; it must not round to 2^53.
    let (ok, out, err) = run(&["sweep", "--seeds", "9007199254740993", "--emit-spec"]);
    assert!(ok, "{err}");
    assert!(out.contains("\"seed\": 9007199254740993"), "{out}");
}

#[test]
fn non_finite_static_power_scales_are_refused() {
    let (ok, out, err) = run(&["sweep", "--static-power-scales", "nan,inf", "--emit-spec"]);
    assert!(!ok, "{out}");
    assert!(out.is_empty(), "no spec may be emitted: {out}");
    assert!(err.starts_with("error: --static-power-scales"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
}

#[test]
fn seed_averaged_sweep_prints_mean_std_groups() {
    let (ok, out, _) = run(&[
        "sweep",
        "--vms",
        "10",
        "--seeds",
        "1,2",
        "--max-servers",
        "100",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("seed-averaged over 2 fleets"), "{out}");
    assert!(out.contains("±"), "{out}");
    // 2 seeds x 6 configs = 12 cells
    assert!(out.contains("12 cells"), "{out}");
}

#[test]
fn sweep_json_mode_emits_cells_and_groups() {
    let (ok, out, _) = run(&[
        "sweep",
        "--vms",
        "8",
        "--seeds",
        "1,2",
        "--static-power-scales",
        "1.0,1.5",
        "--max-servers",
        "80",
        "--json",
    ]);
    assert!(ok, "{out}");
    assert!(out.trim_start().starts_with('{'), "{out}");
    assert!(out.contains("\"cells\""), "{out}");
    assert!(out.contains("\"groups\""), "{out}");
    assert!(out.contains("\"static_power_scale\": 1.5"), "{out}");
}

#[test]
fn legacy_single_fleet_spec_file_still_runs() {
    let dir = std::env::temp_dir();
    let path = dir.join("ntcdc_legacy_spec.json");
    std::fs::write(
        &path,
        r#"{
  "name": "legacy",
  "fleet": {"num_vms": 10, "seed": 3, "weeks": 2},
  "policies": ["epact"],
  "servers": ["ntc"],
  "max_servers": 100
}"#,
    )
    .unwrap();
    let (ok, out, err) = run(&["sweep", "--spec", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("1 cells"), "{out}");
    assert!(out.contains("EPACT/NTC"), "{out}");
}

#[test]
fn unknown_flags_fail_instead_of_running_defaults() {
    // `--backend` (for `--backends`) and `--sed` (for `--seed`) used to
    // be ignored: the sweep ran the analytic backend on the default
    // seed and exited 0.
    let (ok, out, err) = run(&[
        "sweep",
        "--vms",
        "8",
        "--max-servers",
        "50",
        "--backend",
        "archsim",
        "--sed",
        "5",
    ]);
    assert!(!ok, "{out}");
    assert!(out.is_empty(), "nothing may run: {out}");
    assert!(
        err.starts_with("error: unknown flag \"--backend\""),
        "{err}"
    );
    assert_eq!(err.lines().count(), 1, "{err}");
    // Subcommands without flags take none.
    let (ok, out, err) = run(&["table1", "--csv"]);
    assert!(!ok, "{out}");
    assert!(err.starts_with("error: unknown flag \"--csv\""), "{err}");
}

#[test]
fn repeated_flags_fail() {
    let (ok, out, err) = run(&["sweep", "--vms", "8", "--vms", "9", "--emit-spec"]);
    assert!(!ok, "{out}");
    assert!(out.is_empty(), "no spec may be emitted: {out}");
    assert_eq!(err, "error: --vms given more than once\n");
}
