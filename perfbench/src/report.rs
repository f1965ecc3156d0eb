//! Metrics, run metadata and the JSON the benchmark prints.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Cells attempted over every sweep of the run.
    pub attempted: usize,
    /// Cells that errored, were skipped or failed the output check.
    pub failed: usize,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
    /// Run metadata, as `(key, JSON value)` pairs.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Whether every check of the run passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a duration metric in `unit` (`s`, `ms`, `us` or `ns`).
    pub fn time(&mut self, name: impl Into<String>, d: Duration, unit: &'static str) {
        let scale = match unit {
            "s" => 1.0,
            "ms" => 1e3,
            "us" => 1e6,
            "ns" => 1e9,
            _ => panic!("not a time unit: {unit}"),
        };
        self.metric(name, d.as_secs_f64() * scale, unit);
    }

    /// Records a failed check.
    pub fn problem(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// `metrics`. A non-finite value renders as `null` and makes the
    /// run incorrect.
    pub fn result_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(&m.name),
                json_string(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The metadata as one JSON object.
    pub fn meta_json(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Durations as a JSON array of seconds.
pub fn json_seconds(values: &[Duration]) -> String {
    let items: Vec<String> = values.iter().map(|d| d.as_secs_f64().to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[Duration]) -> Duration {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[Duration], p: f64) -> Duration {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `unknown` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Lines of Rust under `root`, skipping `vendor/`, `target/`, hidden
/// directories and the directories named in `skip`.
pub fn rust_loc(root: &Path, skip: &[&str]) -> usize {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    let mut lines = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if !(name.starts_with('.')
                || name == "vendor"
                || name == "target"
                || skip.contains(&name.as_str()))
            {
                lines += rust_loc(&path, &[]);
            }
        } else if kind.is_file() && name.ends_with(".rs") {
            lines += std::fs::read_to_string(&path).map_or(0, |t| t.lines().count());
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 6,
            ..Outcome::default()
        };
        o.time("setup_s", Duration::from_millis(1500), "s");
        o.metric("a\"b", 2.0, "count");
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 6, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"a\\\"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.metric("x", f64::NAN, "ms");
        assert!(o.result_json().starts_with("{\"correct\": false"));
        assert!(o.result_json().contains("\"value\": null"));
    }

    #[test]
    fn median_and_percentile() {
        let ms = |v: &[u64]| {
            v.iter()
                .map(|&m| Duration::from_millis(m))
                .collect::<Vec<_>>()
        };
        assert_eq!(median(&ms(&[3, 1, 2])), Duration::from_millis(2));
        assert_eq!(median(&ms(&[4, 1, 2, 3])), Duration::from_micros(2500));
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&ms(&hundred), 90.0), Duration::from_millis(90));
        assert_eq!(percentile(&ms(&[5]), 90.0), Duration::from_millis(5));
    }

    #[test]
    fn json_strings_escape_controls() {
        assert_eq!(json_string("a\nb\\"), "\"a\\u000ab\\\\\"");
    }
}
