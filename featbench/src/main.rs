//! End-to-end benchmark of the FeatAug workspace: fit time and quality, and
//! serving latency, throughput and freshness, on generated workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path featbench/Cargo.toml -- \
//!     --workload tmall_wide_lr --seed 1 --seconds 24 --trace 0
//! ```
//!
//! With `--trace 0` the run is untraced and prints the end-to-end metrics.
//! With `--trace 1` it replays one fit and the serving phases with spans
//! around each call into a layer, prints the per-layer metrics, and writes
//! the spans to `featbench/traces/`. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `BENCHMARK.json` at the repository root declares every metric, its unit
//! and direction, and why each workload exists.

mod fit;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::time::{Duration, Instant};

use feataug::fit_schema;

use crate::fit::Counters;
use crate::serve::Served;
use crate::stats::{fast_third_mean, peak_rss_mb};
use crate::trace::Tracer;
use crate::workload::{Scale, Workload};

/// Set-ups per timed run; `setup_s` is the mean of their fastest third.
const SETUPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run reports.
struct Report {
    attempted: usize,
    failed: usize,
    /// False when an output check failed, or the replay diverged from the fit.
    correct: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN; a non-finite value also marks the run incorrect.
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The untraced run: end-to-end metrics.
fn run_timed(workload: &Workload, seed: u64, seconds: f64, scale: Scale) -> Report {
    let mut report = Report::new();
    let setups = if scale == Scale::Full { SETUPS } else { 1 };
    let mut setup_s = Vec::with_capacity(setups);
    let mut served: Option<Served> = None;
    for _ in 0..setups {
        // Drop the previous set-up (and join its tier) before the next one.
        drop(served.take());
        let (s, secs, _) = serve::setup(workload, seed, scale);
        setup_s.push(secs);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");

    let cfg = workload.config(scale);
    let fits = if scale == Scale::Full {
        workload.fits
    } else {
        1
    };
    let mut fit_s = Vec::with_capacity(fits);
    let mut auc = Vec::with_capacity(fits);
    // The fits are spread over the serving rounds, so every metric samples the
    // whole run and a slow minute of a shared host does not land on one.
    let fit_schedule = |round: usize, rounds: usize| {
        while fit_s.len() < ((round + 1) * fits).div_ceil(rounds) {
            let scenario = workload.scenario(seed, fit_s.len(), scale);
            let start = Instant::now();
            let model = fit_schema(&cfg, &scenario.task);
            fit_s.push(start.elapsed().as_secs_f64());
            let Ok(model) = model else {
                report.ops(1, 1);
                continue;
            };
            let failed = fit::check_plans(&scenario.task, &model, &scenario.train);
            report.ops(1 + model.models().len(), failed);
            auc.push(fit::test_auc(&scenario.task, &cfg, &model, &scenario.train));
        }
    };
    let serving = serve::serve_rounds(
        &served,
        seconds,
        workload.ingest_batches(scale),
        seed,
        None,
        fit_schedule,
    );
    report.ops(serving.attempted, serving.failed);
    eprintln!(
        "{}: setups {setup_s:.4?} fits {fit_s:.3?} auc {auc:.4?}; tier shed {} late max {:.0}us",
        workload.name, serving.tier_shed, serving.tier_late_max_us,
    );

    report.metric("setup_s", fast_third_mean(&setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    report.metric("fit_s", fast_third_mean(&fit_s), "s");
    report.metric(
        "test_auc",
        auc.iter().sum::<f64>() / auc.len().max(1) as f64,
        "auc",
    );
    report.metric(
        "transform_rows_per_s",
        serving.transform_rows_per_s,
        "rows/s",
    );
    report.metric("lookup_p50_us", serving.tier_p50_us, "us");
    report.metric("lookup_p90_us", serving.tier_p90_us, "us");
    report.metric("lookup_ok_ratio", serving.tier_ok_ratio, "ratio");
    report.metric("ingest_rows_per_s", serving.ingest_rows_per_s, "rows/s");
    report.metric("staleness_ms", serving.staleness_ms, "ms");
    report.metric("ingest_lookup_p99_us", serving.reader_p99_us, "us");
    report
}

/// The traced run: per-layer metrics from a replayed fit and traced serving.
fn run_traced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace_file: Option<&Path>,
) -> Report {
    let mut report = Report::new();
    let mut tr = Tracer::new();
    let (served, _, cold_s) = serve::setup(workload, seed, scale);
    tr.begin_trace();
    let now = Instant::now();
    tr.record(
        "pipeline",
        "transform_cold",
        now - Duration::from_secs_f64(cold_s),
        now,
    );

    // The fit, untraced and then replayed.
    let cfg = workload.config(scale);
    let task = &served.scenario.task;
    let start = Instant::now();
    let model = fit_schema(&cfg, task).expect("fit_schema");
    let fit_s = start.elapsed().as_secs_f64();
    let mut c = Counters::default();
    let start = Instant::now();
    let replayed = fit::replay_fit_schema(&cfg, task, &mut tr, &mut c);
    let traced_fit_s = start.elapsed().as_secs_f64();
    let matches = replayed == fit::selection_of(&model);
    report.ops(2, usize::from(!matches));
    let fit_layers = tr.self_seconds();
    drop(model);

    let direct = serve::direct_lookups(&served, Duration::from_secs_f64(seconds * 0.1), &mut tr);
    report.ops(direct.lookups, 0);
    let serving = serve::serve_rounds(
        &served,
        seconds,
        workload.ingest_batches(scale),
        seed,
        Some(&mut tr),
        |_, _| {},
    );
    report.ops(serving.attempted, serving.failed);

    if let Some(path) = trace_file {
        if let Err(e) = tr.write_jsonl(path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    report.metric("trace.matches_fit", f64::from(u8::from(matches)), "bool");
    if !matches {
        // Per-layer numbers of a replay that diverged describe another program.
        report.correct = false;
        return report;
    }
    let layer = |name: &str| fit_layers.get(name).copied().unwrap_or(0.0);
    let ratio = |num: usize, den: usize| num as f64 / den.max(1) as f64;
    report.metric("trace.fit_s", traced_fit_s, "s");
    report.metric("trace.overhead_s", traced_fit_s - fit_s, "s");
    report.metric("trace.unattributed_s", layer("fit"), "s");
    report.metric("template_id.busy_s", layer("template_id"), "s");
    report.metric("template_id.nodes", c.template_nodes as f64, "count");
    report.metric("hpo.busy_s", layer("hpo"), "s");
    report.metric("hpo.calls", c.hpo_calls as f64, "count");
    report.metric("exec.busy_s", layer("exec"), "s");
    report.metric("exec.calls", c.exec_calls as f64, "count");
    report.metric(
        "exec.empty_ratio",
        ratio(c.exec_empty, c.exec_calls),
        "ratio",
    );
    report.metric("exec.append_ms", serving.append_ms, "ms");
    report.metric("proxy.busy_s", layer("proxy"), "s");
    report.metric("proxy.calls", c.proxy_calls as f64, "count");
    report.metric("evaluation.busy_s", layer("evaluation"), "s");
    report.metric("evaluation.trainings", c.trainings as f64, "count");
    report.metric(
        "evaluation.distinct_ratio",
        ratio(c.distinct_trainings, c.trainings),
        "ratio",
    );
    report.metric("generation.self_s", layer("generation"), "s");
    report.metric("schema.busy_s", layer("schema"), "s");
    report.metric("schema.paths", c.schema_paths as f64, "count");
    report.metric("schema.promoted", c.schema_promoted as f64, "count");
    report.metric("pipeline.transform_cold_s", cold_s, "s");
    report.metric("pipeline.transform_s", serving.transform_s, "s");
    report.metric("serving.lookup_p50_ns", direct.p50_ns, "ns");
    report.metric("serving.lookup_p99_ns", direct.p99_ns, "ns");
    report.metric(
        "serving.tier.overhead_p50_us",
        serving.tier_submit_p50_us - direct.p50_ns / 1e3,
        "us",
    );
    report.metric("serving.tier.p99_us", serving.tier_p99_us, "us");
    report.metric("serving.tier.shed", serving.tier_shed as f64, "count");
    report.metric(
        "serving.tier.degraded",
        serving.tier_degraded as f64,
        "count",
    );
    report.metric(
        "serving.tier.generator_late_max_us",
        serving.tier_late_max_us,
        "us",
    );
    report
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("featbench: {e}");
            eprintln!("usage: featbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let seconds = args.seconds.max(1) as f64;
    let report = if args.trace {
        let file = format!(
            "featbench/traces/{}-seed{}.jsonl",
            args.workload.name, args.seed
        );
        run_traced(
            &args.workload,
            args.seed,
            seconds,
            Scale::Full,
            Some(Path::new(&file)),
        )
    } else {
        run_timed(&args.workload, args.seed, seconds, Scale::Full)
    };
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The objects of one array section of BENCHMARK.json, as raw text.
    fn objects(section: &str) -> Vec<&'static str> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{').skip(1).collect()
    }

    /// The string value of `key` in one object's raw text.
    fn field(object: &str, key: &str) -> String {
        let at = object.find(&format!("\"{key}\"")).expect("field present");
        let rest = &object[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes") + open;
        rest[open..close].to_string()
    }

    /// (name, unit) of every metric declared in one section.
    fn declared(section: &str) -> Vec<(String, String)> {
        objects(section)
            .into_iter()
            .map(|object| (field(object, "name"), field(object, "unit")))
            .collect()
    }

    fn printed(report: &Report) -> Vec<(String, String)> {
        report
            .metrics
            .iter()
            .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    /// Every printed metric is declared with its unit, and every declared
    /// metric is printed, on every workload, at tiny scale.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        for workload in workload::WORKLOADS {
            let timed = run_timed(&workload, 3, 1.0, Scale::Tiny);
            assert!(
                timed.to_json().starts_with("{\"correct\": true"),
                "{}",
                timed.to_json()
            );
            assert_eq!(printed(&timed), declared("end_to_end"), "{}", workload.name);

            let traced = run_traced(&workload, 3, 1.0, Scale::Tiny, None);
            assert!(
                traced.to_json().starts_with("{\"correct\": true"),
                "{}",
                traced.to_json()
            );
            assert_eq!(printed(&traced), declared("per_layer"), "{}", workload.name);
        }
        let names: Vec<String> = workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        let declared_workloads: Vec<String> = objects("workloads")
            .into_iter()
            .map(|object| field(object, "name"))
            .collect();
        assert_eq!(names, declared_workloads);
    }
}
