//! Self-test: every workload once at quick size, through the output
//! check, the traced replay's bit-identity check and the JSON writer.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;

use ntc_datacenter::Engine;
use ntc_perfbench::check::{load_reference, Checker};
use ntc_perfbench::report::Outcome;
use ntc_perfbench::workload::{Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use ntc_perfbench::{run_traced, run_untraced, Options};

fn quick(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        size: Size::Quick,
    }
}

/// A parsed JSON value, just enough to read the benchmark's output.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing input after JSON value");
    value
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(fields);
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos) else {
                    panic!("object key")
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':');
                *pos += 1;
                fields.push((key, parse_value(b, pos)));
                skip_ws(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => continue,
                    b'}' => return Json::Obj(fields),
                    c => panic!("unexpected {}", c as char),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => continue,
                    b']' => return Json::Arr(items),
                    c => panic!("unexpected {}", c as char),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut s = String::new();
            loop {
                let c = b[*pos];
                *pos += 1;
                match c {
                    b'"' => return Json::Str(s),
                    b'\\' => {
                        let e = b[*pos];
                        *pos += 1;
                        match e {
                            b'u' => {
                                let hex = std::str::from_utf8(&b[*pos..*pos + 4]).unwrap();
                                s.push(
                                    char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                                );
                                *pos += 4;
                            }
                            b'n' => s.push('\n'),
                            other => s.push(other as char),
                        }
                    }
                    c => s.push(c as char),
                }
            }
        }
        b't' | b'f' | b'n' => {
            for (word, value) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(word.as_bytes()) {
                    *pos += word.len();
                    return value;
                }
            }
            panic!("bad literal");
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            Json::Num(
                std::str::from_utf8(&b[start..*pos])
                    .unwrap()
                    .parse()
                    .expect("number"),
            )
        }
    }
}

/// Metric names of one `BENCHMARK.json` list.
fn listed(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let Json::Arr(items) = parse(&text).get(list).clone() else {
        panic!("{list} is a list")
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Json::Str(s) => s.clone(),
            _ => panic!("metric name"),
        })
        .collect()
}

/// Parses a result line and checks it has exactly the contract's keys;
/// returns its metrics by name.
fn result_metrics(outcome: &Outcome) -> BTreeMap<String, (f64, String)> {
    let json = parse(&outcome.result_json());
    assert_eq!(json.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct"), &Json::Bool(outcome.correct()));
    assert_eq!(json.get("attempted"), &Json::Num(outcome.attempted as f64));
    let Json::Obj(metrics) = json.get("metrics").clone() else {
        panic!("metrics object")
    };
    metrics
        .into_iter()
        .map(|(name, m)| {
            let (Json::Num(v), Json::Str(u)) = (m.get("value").clone(), m.get("unit").clone())
            else {
                panic!("{name}: value and unit")
            };
            (name, (v, u))
        })
        .collect()
}

#[test]
fn untraced_quick_runs_pass_and_print_the_end_to_end_metrics() {
    let want = listed("end_to_end");
    for workload in Workload::ALL {
        let outcome = run_untraced(&quick(workload, DEFAULT_SEED));
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        let cells = workload.spec(DEFAULT_SEED, Size::Quick).cells().len();
        assert_eq!(
            outcome.attempted,
            3 * cells,
            "one round: a single-worker and two parallel sweeps"
        );
        let metrics = result_metrics(&outcome);
        let mut names: Vec<&String> = metrics.keys().collect();
        let mut wanted: Vec<&String> = want.iter().collect();
        names.sort();
        wanted.sort();
        assert_eq!(names, wanted);
        for name in &want {
            let (value, _) = metrics[name];
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
        assert!(parse(&outcome.meta_json()).keys().contains(&"git_commit"));
    }
}

#[test]
fn traced_quick_replays_match_weeksim_bit_for_bit() {
    let mut want = listed("per_layer");
    want.sort();
    for workload in Workload::ALL {
        let (outcome, setup, replay) = run_traced(&quick(workload, DEFAULT_SEED));
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        // Quick size probes planning at 8 and 24 VMs instead of 60 and 600.
        let mut names: Vec<String> = result_metrics(&outcome)
            .into_keys()
            .map(|n| n.replace(".vm8.", ".vm60.").replace(".vm24.", ".vm600."))
            .collect();
        names.sort();
        assert_eq!(names, want, "{}", workload.name());
        assert!(outcome.value("plan.calls").is_some_and(|c| c > 0.0));
        assert!(matches!(parse(&setup.to_json()), Json::Arr(ref s) if !s.is_empty()));
        assert!(matches!(parse(&replay.to_json()), Json::Arr(ref s) if !s.is_empty()));
    }
}

#[test]
fn held_out_seed_passes_the_invariants() {
    for workload in Workload::ALL {
        let outcome = run_untraced(&quick(workload, HELD_OUT_SEED));
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
    }
}

#[test]
fn the_check_catches_a_perturbed_outcome() {
    let workload = Workload::Paper600;
    let spec = workload.spec(DEFAULT_SEED, Size::Quick);
    let reference = load_reference(workload, Size::Quick).expect("stored quick reference");
    let sweep = Engine::with_threads(1).run(&spec).expect("valid spec");
    assert_eq!(
        Checker::new(Some(reference.clone()))
            .check(&spec, &sweep)
            .failed,
        0
    );

    let mut moved = sweep.clone();
    moved.cells[1].outcome.slots[7].active_servers += 1;
    let checked = Checker::new(Some(reference.clone())).check(&spec, &moved);
    assert_eq!(checked.failed, 1, "{:?}", checked.problems);

    let mut heavier = sweep.clone();
    for slot in &mut heavier.cells[2].outcome.slots {
        slot.energy = slot.energy * 1.01;
    }
    let checked = Checker::new(Some(reference)).check(&spec, &heavier);
    assert_eq!(checked.failed, 1, "{:?}", checked.problems);

    // Without a reference, a sweep differing from the run's first one
    // still fails, and so does EPACT costing more than COAT.
    let mut checker = Checker::new(None);
    assert_eq!(checker.check(&spec, &sweep).failed, 0);
    let mut drifted = sweep.clone();
    drifted.cells[4].outcome.slots[0].migrations += 1;
    assert_eq!(checker.check(&spec, &drifted).failed, 1);
    let mut swapped = sweep.clone();
    swapped.cells[0].outcome.slots = sweep.cells[1].outcome.slots.clone();
    swapped.cells[0].outcome.slots[0].energy = swapped.cells[0].outcome.slots[0].energy * 2.0;
    assert!(Checker::new(None)
        .check(&spec, &swapped)
        .problems
        .iter()
        .any(|p| p.contains("COAT")));
}
