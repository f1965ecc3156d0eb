//! The repository benchmark: three sweep workloads run through the
//! public `ntc_datacenter::Engine` API, timed end to end, plus a
//! separate traced run that times each layer from outside the program.
//!
//! * An **untraced** run ([`run_untraced`]) measures set-up (the spec's
//!   JSON round trip plus fleet generation) several times, then
//!   alternates parallel ([`Engine::new`]) and single-worker sweeps for
//!   the requested seconds, checking every sweep's output. It reports
//!   medians and the process's peak resident memory.
//! * A **traced** run ([`run_traced`]) runs one parallel sweep for the
//!   engine's counters, replays one representative cell through the
//!   layers' public calls with spans around each call
//!   ([`replay`](mod@replay)), checks the replay against `WeekSim` bit
//!   for bit and probes planning, accounting and forecasting one call at
//!   a time ([`probe`]).
//!
//! See `README.md` next to this package for the command line, the
//! workloads and the seeds.

pub mod check;
pub mod probe;
pub mod replay;
pub mod report;
pub mod span;
pub mod workload;

use std::hint::black_box;
use std::time::{Duration, Instant};

use ntc_datacenter::{
    export, spec_json, BackendSpec, CellSpec, Engine, ExperimentSpec, FleetSpec, PolicySpec,
    SweepResult,
};
use ntc_forecast::ArimaPredictor;
use ntc_workload::Fleet;

use crate::check::{bit_identical, load_reference, Checker};
use crate::report::{median, median_f64, percentile, ratio, Outcome};
use crate::span::Tracer;
use crate::workload::{fleet_seed, policy_tag, probe_scales, Size, Workload, DEFAULT_SEED};

/// One benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Benchmark seed; every fleet seed derives from it.
    pub seed: u64,
    /// How long the untraced run keeps sweeping.
    pub seconds: f64,
    /// Full or quick (self-test) size.
    pub size: Size,
}

/// Set-up measurements per round of an untraced run.
const SETUP_PER_ROUND: usize = 3;

/// Replay / untraced-week pairs per traced run; medians are reported.
const REPLAY_PAIRS: usize = 3;

/// Runs `opts` untraced: set-up and sweep timings, end-to-end metrics.
pub fn run_untraced(opts: &Options) -> Outcome {
    let spec = opts.workload.spec(opts.seed, opts.size);
    let mut out = Outcome::default();
    let mut checker = checker(opts, &mut out);

    // Each round measures set-up, one single-worker sweep and two
    // parallel ones (which take about half as long), so a slow phase of
    // the machine touches a few samples of every metric instead of most
    // samples of one. Another round starts only if it would end
    // before `--seconds`, which bounds the run's length.
    let begin = Instant::now();
    let (mut setup, mut sequential, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = None;
    let mut rounds = 0;
    loop {
        for _ in 0..SETUP_PER_ROUND {
            let t = Instant::now();
            let parsed = spec_json::from_json(&spec_json::to_json(&spec));
            let fleets: Vec<Fleet> = parsed
                .iter()
                .flat_map(|p| p.fleets.iter().map(FleetSpec::generate))
                .collect();
            black_box(&fleets);
            setup.push(t.elapsed());
            if parsed.as_ref() != Ok(&spec) {
                out.problem(format!(
                    "spec did not survive its JSON round trip: {parsed:?}"
                ));
            }
        }
        for parallel_engine in [false, true, true] {
            let engine = if parallel_engine {
                Engine::new()
            } else {
                Engine::with_threads(1)
            };
            let t = Instant::now();
            let sweep = engine.run(&spec);
            let wall = t.elapsed();
            record_sweep(&spec, sweep.as_ref(), &mut checker, &mut out);
            if parallel_engine {
                parallel.push(wall);
            } else {
                sequential.push(wall);
                // Read before any parallel sweep: how the workers'
                // memory peaks overlap would otherwise move it.
                peak_rss = peak_rss.or_else(report::peak_rss_mb);
            }
        }
        rounds += 1;
        let elapsed = begin.elapsed().as_secs_f64();
        let per_round = elapsed / rounds as f64;
        if opts.size == Size::Quick || elapsed + per_round > opts.seconds {
            break;
        }
    }

    out.time("sweep_wall_s", median(&parallel), "s");
    out.time("sweep_seq_wall_s", median(&sequential), "s");
    out.time("setup_s", median(&setup), "s");
    match peak_rss {
        Some(mb) => out.metric("peak_rss_mb", mb, "MB"),
        None => out.problem("peak RSS unavailable (no /proc/self/status)"),
    }
    add_meta(&mut out, opts, false, rounds);
    out.meta.extend([
        ("sweep_wall_samples_s", report::json_seconds(&parallel)),
        (
            "sweep_seq_wall_samples_s",
            report::json_seconds(&sequential),
        ),
        ("setup_samples_s", report::json_seconds(&setup)),
    ]);
    out
}

/// Runs `opts` traced: one parallel sweep for the engine's counters, the
/// replay of the workload's representative cell, and the layer probes.
pub fn run_traced(opts: &Options) -> (Outcome, Tracer, Tracer) {
    let spec = opts.workload.spec(opts.seed, opts.size);
    let mut out = Outcome::default();
    let mut checker = checker(opts, &mut out);
    let mut setup = Tracer::new();

    // Set-up layers: spec codec and fleet generation.
    let s = setup.enter("spec_json");
    let parsed = spec_json::from_json(&spec_json::to_json(&spec));
    setup.exit(s);
    if parsed.as_ref() != Ok(&spec) {
        out.problem("spec did not survive its JSON round trip");
    }
    let fleets: Vec<Fleet> = spec
        .fleets
        .iter()
        .map(|f| setup.time("workload", || f.generate()))
        .collect();
    out.time(
        "workload.generate_ms",
        setup.layer_self_time("workload"),
        "ms",
    );
    let samples: usize = fleets.iter().map(|f| 2 * f.len() * f.grid().len()).sum();
    out.metric("workload.samples", samples as f64, "count");
    out.time(
        "spec_json.roundtrip_ms",
        setup.layer_self_time("spec_json"),
        "ms",
    );

    // The engine, as a user runs it.
    let s = setup.enter("engine");
    let sweep = Engine::new().run(&spec);
    setup.exit(s);
    record_sweep(&spec, sweep.as_ref(), &mut checker, &mut out);
    if let Ok(sweep) = &sweep {
        let s = setup.enter("export");
        let json = export::sweep_json(sweep, spec.ablation);
        setup.exit(s);
        if !json.trim_start().starts_with('{') {
            out.problem("sweep JSON is not an object");
        }
        out.time(
            "export.sweep_json_ms",
            setup.layer_self_time("export"),
            "ms",
        );
        engine_metrics(sweep, &mut out);
    }
    out.metric(
        "check.failed_cell_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );

    // The replay and the untraced week it must match, alternated so
    // drift hits both alike; the median replay's spans are reported.
    let cell = opts.workload.traced_cell(&spec);
    let fleet = &fleets[0];
    let policy = cell.policy.build(spec.ablation);
    let mut replays = Vec::with_capacity(REPLAY_PAIRS);
    let mut weeks = Vec::with_capacity(REPLAY_PAIRS);
    for _ in 0..REPLAY_PAIRS {
        let replay = replay::replay(fleet, &spec, &cell);
        let t = Instant::now();
        let week = replay::run_week(fleet, &spec, &cell, policy.as_ref());
        weeks.push(t.elapsed());
        if !bit_identical(&week, &replay.outcome) {
            out.problem("traced replay differs from WeekSim: trace invalid");
        }
        replays.push(replay);
    }
    replays.sort_by_key(replay::Replay::week_time);
    let replay = replays.swap_remove(REPLAY_PAIRS / 2);
    let engine_cell = sweep
        .as_ref()
        .ok()
        .and_then(|s| s.succeeded().iter().find(|c| c.cell == cell));
    if !engine_cell.is_some_and(|c| bit_identical(&c.outcome, &replay.outcome)) {
        out.problem("traced replay differs from the engine's cell");
    }
    let cell_week = median(&weeks);
    for &other in &spec.policies {
        let wall = if other == cell.policy {
            cell_week
        } else {
            let arm = CellSpec {
                policy: other,
                ..cell
            };
            let t = Instant::now();
            black_box(replay::run_week(
                fleet,
                &spec,
                &arm,
                other.build(spec.ablation).as_ref(),
            ));
            t.elapsed()
        };
        out.time(format!("week.{}_ms", policy_tag(other)), wall, "ms");
    }
    replay_metrics(&replay, cell_week, &mut out);

    // Probes, one public call at a time.
    let (day, calls) = probe::forecast_day(
        fleet,
        &ArimaPredictor::daily(fleet.grid().samples_per_day()),
    );
    out.time("forecast.arima_day_ms", day, "ms");
    out.time("forecast.series_us", median(&calls), "us");
    let blocks = fleet.grid().samples_per_day() / fleet.grid().samples_per_slot();
    let plane = probe::daycache_plane_bytes(fleet.len(), blocks) as f64;
    out.metric(
        "trace.daycache_plane_mb_computed",
        plane / (1024.0 * 1024.0),
        "MB",
    );
    for backend in [BackendSpec::Analytic, BackendSpec::Archsim] {
        let times = probe::account_week(fleet, &cell, &replay.plans, backend);
        out.time(
            format!("account.{}_slot_us", backend.label()),
            median(&times),
            "us",
        );
    }
    for vms in probe_scales(opts.size) {
        let probe_fleet = FleetSpec {
            num_vms: vms,
            seed: fleet_seed(opts.seed, 0),
            weeks: 2,
        }
        .generate();
        for policy in [PolicySpec::Epact, PolicySpec::Coat, PolicySpec::CoatOpt] {
            for (day_cache, suffix) in [(true, ""), (false, "_rebuild")] {
                let times = probe::plan_week(&probe_fleet, policy, day_cache, spec.max_servers);
                let base = format!("plan.vm{vms}.{}", policy_tag(policy));
                if policy == PolicySpec::Epact {
                    out.time(format!("{base}_slot_ms{suffix}.p50"), median(&times), "ms");
                    out.time(
                        format!("{base}_slot_ms{suffix}.p90"),
                        percentile(&times, 90.0),
                        "ms",
                    );
                } else {
                    out.time(format!("{base}_day_ms{suffix}"), median(&times), "ms");
                }
            }
        }
    }
    add_meta(&mut out, opts, true, 1);
    (out, setup, replay.tracer)
}

/// The checker of one run: at the default seed it compares against the
/// stored reference, which must then exist.
fn checker(opts: &Options, out: &mut Outcome) -> Checker {
    if opts.seed != DEFAULT_SEED {
        return Checker::new(None);
    }
    match load_reference(opts.workload, opts.size) {
        Ok(reference) => Checker::new(Some(reference)),
        Err(e) => {
            out.problem(e);
            Checker::new(None)
        }
    }
}

/// Checks one sweep (or its start-up error) into `out`.
fn record_sweep(
    spec: &ExperimentSpec,
    sweep: Result<&SweepResult, &ntc_core::Error>,
    checker: &mut Checker,
    out: &mut Outcome,
) {
    match sweep {
        Ok(sweep) => {
            let checked = checker.check(spec, sweep);
            out.attempted += checked.attempted;
            out.failed += checked.failed;
            out.problems.extend(checked.problems);
        }
        Err(e) => {
            let cells = spec.cells().len();
            out.attempted += cells;
            out.failed += cells;
            out.problem(format!("sweep did not start: {e}"));
        }
    }
}

/// The engine-layer metrics of one sweep.
fn engine_metrics(sweep: &SweepResult, out: &mut Outcome) {
    let cache = sweep.cache_totals();
    let plan_lookups = (cache.plan_hits + cache.plan_misses) as f64;
    let forecast_lookups = (cache.forecast_hits + cache.forecast_misses) as f64;
    out.metric(
        "engine.plan_hit_ratio",
        ratio(cache.plan_hits as f64, plan_lookups),
        "ratio",
    );
    out.metric("engine.plan_hits", cache.plan_hits as f64, "count");
    out.metric("engine.plan_misses", cache.plan_misses as f64, "count");
    out.metric(
        "engine.forecast_hit_ratio",
        ratio(cache.forecast_hits as f64, forecast_lookups),
        "ratio",
    );
    out.metric("engine.forecast_hits", cache.forecast_hits as f64, "count");
    out.metric(
        "engine.forecast_misses",
        cache.forecast_misses as f64,
        "count",
    );
    let walls: Vec<Duration> = sweep.succeeded().iter().map(|c| c.wall).collect();
    let busy: Duration = walls.iter().sum();
    out.time("engine.cell_time_sum_s", busy, "s");
    let capacity = sweep.wall.as_secs_f64() * sweep.threads as f64;
    out.metric("engine.idle_s", capacity - busy.as_secs_f64(), "s");
    if !walls.is_empty() {
        out.time("engine.cell_wall_p50_ms", median(&walls), "ms");
        out.time("engine.cell_wall_p90_ms", percentile(&walls, 90.0), "ms");
    }
    out.metric("engine.workers", sweep.threads as f64, "count");
    out.metric("engine.cells", sweep.total_cells() as f64, "count");
}

/// Layers whose spans the replay records, in stage order.
const REPLAY_LAYERS: [&str; 6] = ["forecast", "trace", "plan", "migrate", "govern", "account"];

/// The replay's per-layer metrics. `untraced_week` is the same cell's
/// `WeekSim` time; the residual and the tracing overhead are measured
/// against it.
fn replay_metrics(replay: &replay::Replay, untraced_week: Duration, out: &mut Outcome) {
    let tracer = &replay.tracer;
    let week = replay.week_time();
    let mut spanned = Duration::ZERO;
    for layer in REPLAY_LAYERS {
        let own = tracer.layer_self_time(layer);
        spanned += own;
        out.time(format!("{layer}.self_ms"), own, "ms");
        out.metric(
            format!("{layer}.share"),
            ratio(own.as_secs_f64(), week.as_secs_f64()),
            "ratio",
        );
    }
    out.metric("forecast.calls", replay.forecast_calls as f64, "count");
    out.metric(
        "trace.daycache_builds",
        replay.daycache_builds as f64,
        "count",
    );
    let builds = tracer.durations("trace");
    if !builds.is_empty() {
        out.time("trace.daycache_build_ms", median(&builds), "ms");
    }
    out.metric("plan.calls", replay.plan_calls as f64, "count");
    let governs = tracer.durations("govern");
    let per_sample: Vec<f64> = governs
        .iter()
        .zip(&replay.outcome.slots)
        .filter(|(_, slot)| slot.active_servers > 0)
        .map(|(d, slot)| {
            d.as_secs_f64() * 1e9 / (slot.active_servers * replay.samples_per_slot) as f64
        })
        .collect();
    if !per_sample.is_empty() {
        out.metric("govern.sample_ns", median_f64(&per_sample), "ns");
    }
    out.metric("govern.samples", replay.governed_samples as f64, "count");
    out.metric("account.slots", replay.accounted_slots as f64, "count");
    out.time("week.replay_ms", week, "ms");
    out.metric(
        "week.residual_ms",
        (untraced_week.as_secs_f64() - spanned.as_secs_f64()) * 1e3,
        "ms",
    );
    out.metric(
        "week.trace_overhead_ms",
        (week.as_secs_f64() - untraced_week.as_secs_f64()) * 1e3,
        "ms",
    );
}

/// Records the run's metadata.
fn add_meta(out: &mut Outcome, opts: &Options, traced: bool, rounds: usize) {
    let root = report::repo_root();
    let own_dir = env!("CARGO_MANIFEST_DIR")
        .rsplit(['/', '\\'])
        .next()
        .unwrap_or("");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let size = match opts.size {
        Size::Full => "full",
        Size::Quick => "quick",
    };
    out.meta = vec![
        ("workload", report::json_string(opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("size", report::json_string(size)),
        ("traced", traced.to_string()),
        (
            "git_commit",
            report::json_string(&report::git_commit(&root)),
        ),
        ("nproc", nproc.to_string()),
        ("profile", report::json_string(profile)),
        ("rounds", rounds.to_string()),
        (
            "rust_loc_non_vendor",
            report::rust_loc(&root, &[own_dir]).to_string(),
        ),
    ];
}
