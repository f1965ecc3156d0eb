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
fn fig1_csv_is_one_table() {
    // Both panels share one header; a `panel` column tells them apart,
    // with no banner lines or second header in between.
    let (ok, out, err) = run(&["fig1", "--csv", "--servers", "40"]);
    assert!(ok, "{err}");
    let mut lines = out.lines();
    assert_eq!(
        lines.next(),
        Some("panel,utilization_pct,freq_mhz,power_kw")
    );
    let panels: Vec<&str> = lines
        .map(|line| {
            assert_eq!(line.split(',').count(), 4, "{line}");
            line.split(',').next().unwrap()
        })
        .collect();
    assert!(panels.contains(&"ntc") && panels.contains(&"conventional"));
    assert!(panels.iter().all(|p| ["ntc", "conventional"].contains(p)));
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

/// Asserts `text` is one JSON object: brackets balance outside string
/// literals and nothing follows the closing brace.
fn assert_one_json_object(text: &str) {
    let text = text.trim();
    assert!(text.starts_with('{'), "{text}");
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in text.char_indices() {
        match (in_string, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (true, false, '"') => in_string = false,
            (true, false, _) => {}
            (false, _, '"') => in_string = true,
            (false, _, '{' | '[') => depth += 1,
            (false, _, '}' | ']') => {
                depth = depth.checked_sub(1).expect("unbalanced close");
                assert!(depth > 0 || i + 1 == text.len(), "text after the object");
            }
            (false, _, _) => {}
        }
    }
    assert_eq!((depth, in_string), (0, false), "unterminated JSON");
}

#[test]
fn sweep_arima_json_fits_each_day_forecast_once() {
    let (ok, out, err) = run(&[
        "sweep",
        "--arima",
        "--seeds",
        "1,2",
        "--vms",
        "12",
        "--max-servers",
        "100",
        "--json",
    ]);
    assert!(ok, "{err}");
    assert_one_json_object(&out);
    // 2 fleets x 3 policies x 2 servers, all complete.
    assert!(out.contains("\"cells_total\": 12"), "{out}");
    assert!(out.contains("\"cells_failed\": 0"), "{out}");
    assert!(out.contains("\"failures\": []"), "{out}");
    // One forecast per (fleet, day), fitted before the cells ran.
    assert!(out.contains("\"forecast_cache_misses\": 14"), "{out}");
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
    // `--seed` would set every fleet of the `--seeds` set to one seed,
    // running duplicate cells.
    let (ok, out, err) = run(&["sweep", "--seeds", "1,2", "--seed", "5"]);
    assert!(!ok, "{out}");
    assert!(out.is_empty(), "nothing may run: {out}");
    assert_eq!(err, "error: --seed and --seeds cannot be combined\n");
}

#[test]
fn zero_counts_and_fleetless_seed_lists_exit_1() {
    // Each of these used to panic (exit 101 with a backtrace); the
    // negative QoS floor panicked inside a cell's setup stage. A fleet
    // of 2^59 + 2 weeks overflows its sample count, which unchecked
    // release arithmetic wraps to a runnable two weeks.
    let path = std::env::temp_dir().join("ntcdc_fleetless_spec.json");
    std::fs::write(
        &path,
        r#"{
  "name": "fleetless",
  "fleets": [],
  "policies": ["epact"],
  "servers": ["ntc"],
  "max_servers": 100
}"#,
    )
    .unwrap();
    let floor_path = std::env::temp_dir().join("ntcdc_negative_floor_spec.json");
    std::fs::write(
        &floor_path,
        r#"{
  "name": "negative-floor",
  "fleets": [{"num_vms": 10, "seed": 3}],
  "policies": ["epact"],
  "servers": ["ntc"],
  "qos_floors_mhz": [-500],
  "max_servers": 100
}"#,
    )
    .unwrap();
    let long_path = std::env::temp_dir().join("ntcdc_overlong_spec.json");
    std::fs::write(
        &long_path,
        r#"{"fleets": [{"num_vms": 10, "seed": 3, "weeks": 576460752303423490}],
  "policies": ["epact"], "servers": ["ntc"], "max_servers": 100}"#,
    )
    .unwrap();
    // A spec fleet must name its seed: none defaults to 0.
    let seedless_path = std::env::temp_dir().join("ntcdc_seedless_spec.json");
    std::fs::write(&seedless_path, r#"{"fleets": [{"num_vms": 10}]}"#).unwrap();
    let spec = path.to_str().unwrap();
    let floor_spec = floor_path.to_str().unwrap();
    let long_spec = long_path.to_str().unwrap();
    let seedless_spec = seedless_path.to_str().unwrap();
    let cases: [&[&str]; 8] = [
        &["sweep", "--spec", spec, "--seeds", "1,2"],
        &["sweep", "--spec", floor_spec],
        &["sweep", "--spec", long_spec, "--json"],
        &["sweep", "--spec", seedless_spec],
        &["fig1", "--servers", "0"],
        &["week", "--vms", "0"],
        &["fig7", "--vms", "0"],
        &["fleet-stats", "--vms", "0"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ntcdc"))
            .args(args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        if args.contains(&seedless_spec) {
            assert!(err.contains("missing field fleets[0].seed"), "{err}");
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&floor_path).ok();
    std::fs::remove_file(&long_path).ok();
    std::fs::remove_file(&seedless_path).ok();
}
