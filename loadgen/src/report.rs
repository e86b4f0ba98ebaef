//! One measured run of one workload, and the documents built from runs: the
//! human report, the JSON result file, and the driver's one-line contract.

use std::time::Duration;

use crate::drive::{self, Outcome};
use crate::fixture;
use crate::json::Json;
use crate::oracle::Oracle;
use crate::schedule::{Schedule, Workload, CLIENTS, KINDS};
use crate::stats::{self, median, percentile, quartiles, spread};
use crate::trace;
use crate::Args;

/// Measured window per workload, seconds (what `BENCHMARK.json` runs).
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Unmeasured warm-up before the window, as a share of it (3 s per 20 s).
const WARM_SHARE: f64 = 0.15;
/// Setups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The end-to-end metrics: name, unit, whether higher is better, and the share
/// of the parent's median by which it may worsen. `BENCHMARK.json` carries the
/// same table (a test holds the two together). `failed_share` is end-to-end
/// too, with "any increase" as its bound; the driver reads it from the
/// `failed`/`attempted` keys, because a gated metric may never be 0.
pub const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("setup_s", "s", false, 0.25),
    ("throughput_ops_s", "ops/s", true, 0.25),
    ("p50_us", "us", false, 0.25),
    ("p99_us", "us", false, 0.25),
];

pub struct RunOptions {
    pub seconds: f64,
    pub trace: bool,
    pub tolerate_sparse: bool,
}

/// Named values with units, in report order.
pub type Metrics = Vec<(String, f64, &'static str)>;

pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Metrics,
    /// Reported, never gated: whole-run p99.9, the worst stall, per-kind
    /// medians, sample counts.
    pub diagnostics: Metrics,
    /// Filled by a traced run only.
    pub per_layer: Metrics,
}

pub fn put(metrics: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    metrics.push((name.into(), value, unit));
}

/// Measure `workload` once under `seed`.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    options: &RunOptions,
) -> Result<RunResult, String> {
    measure(workload, seed, options, Oracle::build(workload, seed)?)
}

/// Schedule first (untimed), then setup (timed, repeated), the window, and
/// the checks at quiesce, every answer held against `oracle`.
fn measure(
    workload: Workload,
    seed: u64,
    options: &RunOptions,
    mut oracle: Oracle,
) -> Result<RunResult, String> {
    let window = Duration::from_secs_f64(options.seconds);
    let warm = window.mul_f64(WARM_SHARE);
    let schedule = Schedule::generate(
        workload,
        seed,
        (warm + window).as_secs_f64(),
        &oracle.pools.sizes(),
    );
    let seeded_log = (workload == Workload::MixedRw)
        .then(|| fixture::out_dir().join(format!("mixed_rw-{}.seed.wal", std::process::id())));
    if let Some(path) = &seeded_log {
        fixture::seed_log(workload.rows(), path)?;
    }

    // A traced run keeps its time for the ledger: one setup, not nine.
    let reps = if options.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..reps {
        if let Some(previous) = running.take() {
            remove(drive::Running::teardown(previous));
        }
        let next = drive::setup(workload, &oracle.pools.params, seeded_log.as_deref())?;
        setups.push(next.setup_s);
        running = Some(next);
    }
    let mut running = running.expect("at least one setup");

    let (mut outcome, acked) = if workload.open_loop() {
        drive::open_loop(&mut running, &schedule, warm, window)?
    } else {
        drive::closed_loop(&mut running, &schedule, &oracle, warm, window)?
    };
    let mut misses = if acked.is_empty() {
        Vec::new()
    } else {
        drive::quiesce_check(&mut running, &mut oracle, acked)?
    };
    let min_rtt_us = if options.trace {
        Some(drive::min_rtt_us(&mut running.control.client, 2_000)?)
    } else {
        None
    };
    let stages = running.stages;
    let log = running.teardown();
    if let Some(log) = &log {
        misses.extend(drive::reopen_check(workload, log, &oracle)?);
    }
    remove(log);
    remove(seeded_log);
    for miss in misses {
        outcome.failed += 1;
        if outcome.errors.len() < 5 {
            outcome.errors.push(miss);
        }
    }

    let mut result = RunResult {
        workload,
        seed,
        correct: outcome.failed == 0,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        errors: std::mem::take(&mut outcome.errors),
        end_to_end: Vec::new(),
        diagnostics: Vec::new(),
        per_layer: Vec::new(),
    };
    put(&mut result.end_to_end, "setup_s", median(&setups), "s");
    let window_stats = match stats::summarise(&outcome.samples, window.as_nanos() as u64) {
        Ok(s) => Some(s),
        Err(e) if options.tolerate_sparse => {
            eprintln!("loadgen: {}: {e}", workload.name());
            None
        }
        Err(e) => return Err(format!("{}: {e}", workload.name())),
    };
    if let Some(s) = &window_stats {
        put(
            &mut result.end_to_end,
            "throughput_ops_s",
            s.throughput_ops_s,
            "ops/s",
        );
        put(&mut result.end_to_end, "p50_us", s.p50_us, "us");
        put(&mut result.end_to_end, "p99_us", s.p99_us, "us");
        let d = &mut result.diagnostics;
        put(d, "samples", s.samples as f64, "count");
        put(d, "sub_windows", s.sub_windows as f64, "count");
        if let Some(p999) = s.p999_us {
            put(d, "p999_us", p999, "us");
        }
        put(d, "max_stall_ms", s.max_stall_ms, "ms");
    }
    put(
        &mut result.end_to_end,
        "failed_share",
        result.failed as f64 / result.attempted as f64,
        "ratio",
    );
    diagnostics(&mut result.diagnostics, &outcome, &setups, &stages);
    if options.trace {
        let p50_us = window_stats.as_ref().map(|s| s.p50_us);
        result.per_layer = trace::ledger(
            workload,
            &schedule,
            &oracle,
            &outcome,
            &stages,
            p50_us,
            min_rtt_us.expect("measured on traced runs"),
        )?;
    }
    Ok(result)
}

fn remove(path: Option<std::path::PathBuf>) {
    if let Some(path) = path {
        std::fs::remove_file(path).ok();
    }
}

/// Everything worth printing that is not gated.
fn diagnostics(d: &mut Metrics, outcome: &Outcome, setups: &[f64], stages: &fixture::Stages) {
    put(d, "setup_repeats", setups.len() as f64, "count");
    put(d, "setup_replay_s", stages.replay_s, "s");
    // Median latency per operation kind: what p50/p99 per opcode look like.
    for (kind, name) in KINDS.iter().enumerate() {
        let mut lat: Vec<u64> = outcome
            .samples
            .iter()
            .filter(|s| s.kind as usize == kind)
            .map(|s| s.lat_ns)
            .collect();
        if lat.is_empty() {
            continue;
        }
        lat.sort_unstable();
        put(
            d,
            format!("p50_us.{name}"),
            percentile(&lat, 500) as f64 / 1e3,
            "us",
        );
        put(d, format!("ops.{name}"), lat.len() as f64, "count");
    }
    if !outcome.checkpoints.is_empty() {
        // Worst latency of an operation that overlapped a checkpoint against
        // the worst that did not: what a checkpoint spike looks like.
        let overlaps = |s: &&stats::Sample| {
            let start = s.done_ns.saturating_sub(s.lat_ns);
            outcome
                .checkpoints
                .iter()
                .any(|(a, b)| start < *b && s.done_ns > *a)
        };
        let worst = |inside: bool| {
            outcome
                .samples
                .iter()
                .filter(|s| s.kind != crate::schedule::KIND_CHECKPOINT && overlaps(s) == inside)
                .map(|s| s.lat_ns)
                .max()
                .unwrap_or(0) as f64
                / 1e3
        };
        put(d, "relational.checkpoint_stall_us", worst(true), "us");
        put(
            d,
            "relational.outside_checkpoint_max_us",
            worst(false),
            "us",
        );
        let durations: Vec<f64> = outcome
            .checkpoints
            .iter()
            .map(|(a, b)| (b - a) as f64 / 1e6)
            .collect();
        put(d, "relational.checkpoint_wire_ms", median(&durations), "ms");
        put(d, "checkpoints", durations.len() as f64, "count");
    }
    if !outcome.lateness_ns.is_empty() {
        let mut late = outcome.lateness_ns.clone();
        late.sort_unstable();
        put(
            d,
            "generator_lateness_p50_us",
            percentile(&late, 500) as f64 / 1e3,
            "us",
        );
        put(
            d,
            "generator_lateness_p99_us",
            percentile(&late, 990) as f64 / 1e3,
            "us",
        );
        put(
            d,
            "generator_lateness_max_us",
            *late.last().expect("non-empty") as f64 / 1e3,
            "us",
        );
        let mut lag = outcome.push_lag_ns.clone();
        lag.sort_unstable();
        put(
            d,
            "server.push_lag_us",
            percentile(&lag, 500) as f64 / 1e3,
            "us",
        );
    }
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    )
}

/// The last line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics` — the gated end-to-end metrics untraced, the per-layer
/// metrics `BENCHMARK.json` lists traced.
pub fn contract_line(run: &RunResult, trace: bool) -> Json {
    let (from, names): (&Metrics, Vec<&str>) = if trace {
        (
            &run.per_layer,
            trace::PER_LAYER.iter().map(|(n, _)| *n).collect(),
        )
    } else {
        (
            &run.end_to_end,
            END_TO_END.iter().map(|(n, ..)| *n).collect(),
        )
    };
    let metrics: Metrics = names
        .iter()
        .filter_map(|name| from.iter().find(|(n, ..)| n == name).cloned())
        .collect();
    Json::obj([
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ])
}

/// The result file: machine metadata, every run, and per workload × metric
/// the median, quartiles and spread across the repeats.
pub fn document(runs: &[RunResult], args: &Args, nproc: usize, options: &RunOptions) -> Json {
    let mut summary = Vec::new();
    for workload in Workload::ALL {
        let of: Vec<&RunResult> = runs.iter().filter(|r| r.workload == workload).collect();
        let Some(first) = of.first() else { continue };
        for (name, _, unit) in &first.end_to_end {
            let values: Vec<f64> = of
                .iter()
                .filter_map(|r| r.end_to_end.iter().find(|(n, ..)| n == name))
                .map(|(_, v, _)| *v)
                .collect();
            let q = quartiles(&values);
            summary.push(Json::obj([
                ("workload", Json::str(workload.name())),
                ("metric", Json::str(name.as_str())),
                ("unit", Json::str(*unit)),
                ("runs", Json::Num(values.len() as f64)),
                ("median", Json::Num(median(&values))),
                ("q1", q.map_or(Json::Null, |q| Json::Num(q.0))),
                ("q3", q.map_or(Json::Null, |q| Json::Num(q.1))),
                ("spread", spread(&values).map_or(Json::Null, Json::Num)),
            ]));
        }
    }
    Json::obj([
        ("schema", Json::str("loadgen-result-v1")),
        ("commit", Json::str(args.commit.as_str())),
        ("date", Json::str(today_utc())),
        ("nproc", Json::Num(nproc as f64)),
        ("clients", Json::Num(CLIENTS as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("window_s", Json::Num(options.seconds)),
        ("warmup_s", Json::Num(options.seconds * WARM_SHARE)),
        ("wal_fsync", Json::Bool(false)),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::str(r.workload.name())),
                            ("seed", Json::Num(r.seed as f64)),
                            ("correct", Json::Bool(r.correct)),
                            ("attempted", Json::Num(r.attempted as f64)),
                            ("failed", Json::Num(r.failed as f64)),
                            (
                                "errors",
                                Json::Arr(r.errors.iter().map(|e| Json::str(e.as_str())).collect()),
                            ),
                            ("end_to_end", metrics_json(&r.end_to_end)),
                            ("diagnostics", metrics_json(&r.diagnostics)),
                            ("per_layer", metrics_json(&r.per_layer)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("summary", Json::Arr(summary)),
    ])
}

/// Every metric by name with its unit, run by run, then the summary.
pub fn print_human(runs: &[RunResult], document: &Json) {
    let text = |key: &str| document.get(key).map(Json::encode).unwrap_or_default();
    println!(
        "loadgen: commit {} date {} nproc {} clients {} seed {} window {} s wal_fsync {}",
        text("commit"),
        text("date"),
        text("nproc"),
        text("clients"),
        text("seed"),
        text("window_s"),
        text("wal_fsync"),
    );
    for run in runs {
        println!(
            "\n== {} (seed {}): {} — attempted {} failed {}",
            run.workload.name(),
            run.seed,
            if run.correct { "correct" } else { "INCORRECT" },
            run.attempted,
            run.failed
        );
        for error in &run.errors {
            println!("   ! {error}");
        }
        for (title, metrics) in [
            ("end to end", &run.end_to_end),
            ("diagnostics (not gated)", &run.diagnostics),
            ("per layer (traced run)", &run.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            println!("  {title}:");
            for (name, value, unit) in metrics {
                println!("    {name:<44} {value:>16.4} {unit}");
            }
        }
    }
    let summary = document
        .get("summary")
        .map(Json::as_array)
        .unwrap_or_default();
    if summary
        .iter()
        .any(|row| row.get("runs").and_then(Json::as_f64) > Some(1.0))
    {
        println!("\n== medians and quartiles across repeats");
        println!(
            "  {:<12} {:<18} {:>14} {:>14} {:>14} {:>8}",
            "workload", "metric", "median", "q1", "q3", "spread"
        );
        for row in summary {
            let num = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "  {:<12} {:<18} {:>14.4} {:>14.4} {:>14.4} {:>8}",
                row.get("workload").and_then(Json::as_str).unwrap_or("?"),
                row.get("metric").and_then(Json::as_str).unwrap_or("?"),
                num("median"),
                num("q1"),
                num("q3"),
                match row.get("spread").and_then(Json::as_f64) {
                    Some(spread) => format!("{:.2}%", spread * 100.0),
                    None => "n/a".into(),
                }
            );
        }
    }
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no calendar crate).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + (month <= 2) as i64;
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: RunOptions = RunOptions {
        seconds: 0.4,
        trace: false,
        tolerate_sparse: true,
    };

    #[test]
    fn a_clean_run_fails_nothing_and_a_corrupted_expected_answer_is_caught() {
        let clean = run_workload(Workload::PointRead, 3, &QUICK).unwrap();
        assert!(clean.correct, "{:?}", clean.errors);
        assert_eq!(clean.failed, 0);
        assert!(clean.attempted > 100);

        // The oracle is live: spoil what it expects of every Q1 binding and
        // the Q1 replies — three in four operations — must all be refused.
        let mut oracle = Oracle::build(Workload::PointRead, 3).unwrap();
        for expected in &mut oracle.answers[0] {
            expected.push(iql::Value::Int(-1));
        }
        let spoiled = measure(Workload::PointRead, 3, &QUICK, oracle).unwrap();
        assert!(!spoiled.correct);
        let share = spoiled.failed as f64 / spoiled.attempted as f64;
        assert!((share - 0.75).abs() < 0.05, "failed share {share}");
        assert!(
            spoiled.errors[0].contains("wrong answer"),
            "{:?}",
            spoiled.errors
        );
    }

    #[test]
    fn the_write_workloads_pass_their_quiesce_and_reopen_checks() {
        for workload in [Workload::MixedRw, Workload::PushFanout] {
            let run = run_workload(workload, 5, &QUICK).unwrap();
            assert!(run.correct, "{}: {:?}", workload.name(), run.errors);
            assert!(run.attempted > 50, "{}: {}", workload.name(), run.attempted);
        }
    }

    /// `BENCHMARK.json` and the tables in the source describe one benchmark.
    #[test]
    fn benchmark_json_matches_the_tables_in_the_source() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|m| m.get(field).and_then(Json::as_str).map(str::to_string))
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads", "name"), workloads);
        for entry in doc
            .get("end_to_end")
            .map(Json::as_array)
            .unwrap_or_default()
        {
            let name = entry.get("name").and_then(Json::as_str).unwrap();
            let (_, unit, higher, bound) = END_TO_END
                .iter()
                .find(|(n, ..)| *n == name)
                .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(*bound));
            let better = if *higher { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        assert_eq!(names("end_to_end", "name").len(), END_TO_END.len());
        let per_layer: Vec<&str> = trace::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("per_layer", "name"), per_layer);
        let units: Vec<&str> = trace::PER_LAYER.iter().map(|(_, u)| *u).collect();
        assert_eq!(names("per_layer", "unit"), units);
    }
}
