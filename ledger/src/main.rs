//! The `ledger` benchmark: verified SQL over TCP end to end, every crate
//! timed from outside. See README.md for the metric catalogue, the
//! workloads and how to read the output.

mod alloc;
mod catalogue;
mod compare;
mod env;
mod inputs;
mod json;
mod layers;
mod oracle;
mod replay;
mod stats;
mod trace;
mod workloads;

use json::Json;
use stats::{median, supported_percentile};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;
use workloads::{Outcome, Stop, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// How long one run measures unless `--seconds` says otherwise; the value
/// `BENCHMARK.json` gives as `run_seconds`. Sixteen seconds end between
/// two requests of every workload (a cold Q1 takes about 6.6 s, a cold Q5
/// 9.5 s, an append cycle 6.7 s), so a small change in speed does not
/// change how many requests a run holds.
pub const RUN_SECONDS: u64 = 16;

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       ledger compare A B
workloads: q1_cold q5_cold hit_verified append_requery (default: each in turn)";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not understood");
        match flag.as_str() {
            "--workload" => parsed.workloads = vec![Workload::from_name(value).ok_or_else(bad)?],
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.0..=60.0).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        let read = |path: &String| {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("ledger: {path}: {e}");
                std::process::exit(2);
            })
        };
        std::process::exit(if compare::compare(&read(a), &read(b)) {
            0
        } else {
            1
        });
    }
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("ledger: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let env = env::block(args.seed);
    let mut all_correct = true;
    for &workload in &args.workloads {
        let run = if args.trace {
            traced_run(workload, args.seed)
        } else {
            workloads::run(
                workload,
                args.seed,
                Stop::Deadline(Duration::from_secs_f64(args.seconds)),
            )
            .map(|out| untraced_result(&out))
        };
        let result = run.unwrap_or_else(|e| {
            eprintln!("ledger: {}: {e}", workload.name());
            std::process::exit(1);
        });
        all_correct &= result.correct;
        for failure in &result.failures {
            eprintln!("ledger: {}: FAILED: {failure}", workload.name());
        }
        println!("{}", result.report(workload, &args, &env).render());
        println!("{}", result.contract_line().render());
    }
    if !all_correct {
        std::process::exit(1);
    }
}

/// One run's result, in both forms it is printed in.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Sample counts, extremes, tail percentile, counters: beside the
    /// metrics in the report line, absent from the contract line.
    detail: Json,
}

impl RunResult {
    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|(name, value)| {
            let unit = catalogue::find(name)
                .expect("metric is in the catalogue")
                .unit;
            (
                *name,
                Json::obj([("value", Json::from(*value)), ("unit", Json::str(unit))]),
            )
        }))
    }

    /// The last line of a run: exactly the keys the driver reads.
    fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// The line before it: the same metrics with everything needed to
    /// interpret them. `compare` reads these lines.
    fn report(&self, workload: Workload, args: &Args, env: &Json) -> Json {
        Json::obj([
            ("ledger", Json::from(1u64)),
            ("workload", Json::str(workload.name())),
            ("why", Json::str(workload.why())),
            ("trace", Json::Bool(args.trace)),
            ("seconds", Json::from(args.seconds)),
            ("correct", Json::Bool(self.correct)),
            ("ops", Json::from(self.attempted)),
            ("failed_ops", Json::from(self.failed)),
            ("metrics", self.metrics_json()),
            ("detail", self.detail.clone()),
            ("env", env.clone()),
        ])
    }
}

/// `n`, extremes, median and the highest percentile the sample supports.
fn distribution(samples: &[f64]) -> Json {
    if samples.is_empty() {
        return Json::obj([("n", Json::from(0u64))]);
    }
    let mut fields = vec![
        ("n".to_string(), Json::from(samples.len())),
        (
            "min".to_string(),
            Json::from(samples.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("p50".to_string(), Json::from(median(samples))),
        (
            "max".to_string(),
            Json::from(samples.iter().copied().fold(0.0, f64::max)),
        ),
    ];
    if let Some((p, value)) = supported_percentile(samples) {
        fields.push((format!("p{p}"), Json::from(value)));
    }
    Json::Obj(fields)
}

fn outcome_detail(out: &Outcome) -> Json {
    Json::obj([
        ("k", Json::from(out.k as usize)),
        ("query_s", distribution(&out.query_s)),
        ("append_ms", distribution(&out.append_ms)),
        (
            "setup_samples_s",
            Json::Arr(out.setup_samples_s.iter().map(|s| Json::from(*s)).collect()),
        ),
        ("warmup_s", Json::from(out.warmup_s)),
        ("busy_s", Json::from(out.busy_s)),
        ("proofs_generated", Json::from(out.service.proofs_generated)),
        ("cache_hits", Json::from(out.service.cache_hits)),
        ("cache_misses", Json::from(out.service.cache_misses)),
        ("mutations", Json::from(out.service.mutations)),
        ("verifier_keygens", Json::from(out.verifier_keygens)),
        (
            "verifier_key_cache_hits",
            Json::from(out.verifier_key_cache_hits),
        ),
    ])
}

fn untraced_result(out: &Outcome) -> RunResult {
    let mut metrics = BTreeMap::new();
    // A failed run prints no numbers rather than ones from half a phase.
    if out.failed == 0 {
        metrics.insert("setup_s", out.setup_s());
        metrics.insert("query_p50_s", median(&out.query_s));
        metrics.insert("verified_qps", out.verified_qps());
        metrics.insert("append_p50_ms", median(&out.append_ms));
        metrics.insert("proof_bytes", out.proof_bytes);
        metrics.insert("peak_heap_mb", out.peak_heap_mb);
    }
    RunResult {
        correct: out.failed == 0,
        attempted: out.attempted.max(1),
        failed: out.failed,
        failures: out.failures.clone(),
        metrics,
        detail: outcome_detail(out),
    }
}

fn traced_run(workload: Workload, seed: u64) -> Result<RunResult, String> {
    let traced = replay::run(workload, seed)?;
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, traced.trace_json(workload, seed).render()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let complete = catalogue::PER_LAYER
        .iter()
        .all(|m| traced.metrics.contains_key(m.name));
    Ok(RunResult {
        correct: complete && traced.wire.failed == 0,
        // The wire phase's operations and the two replays.
        attempted: traced.wire.attempted + 2,
        failed: traced.wire.failed,
        failures: traced.wire.failures.clone(),
        detail: Json::obj([
            ("trace_file", Json::str(path.display().to_string())),
            ("spans", Json::from(traced.tracer.spans().len())),
            ("wire", outcome_detail(&traced.wire)),
            (
                "calls_by_size",
                Json::obj(
                    traced
                        .by_size
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v))),
                ),
            ),
        ]),
        metrics: traced.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = args(&[
            "--workload",
            "q5_cold",
            "--seed",
            "42",
            "--seconds",
            "16",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, [Workload::Q5Cold]);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 16.0, true));
        let d = args(&[]).unwrap();
        assert_eq!(d.workloads, Workload::ALL);
        assert_eq!((d.seed, d.seconds, d.trace), (1, RUN_SECONDS as f64, false));
        for bad in [
            &["--workload", "q9"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--trace", "2"],
            &["--seconds", "600"],
            &["--verbose", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_contract_line_has_exactly_the_driver_s_keys() {
        let out = Outcome {
            setup_samples_s: vec![0.3, 0.28, 0.31],
            query_s: vec![6.6, 6.5, 6.7],
            append_ms: vec![2.0; 60],
            busy_s: 19.8,
            peak_heap_mb: 40.5,
            proof_bytes: 61_840.0,
            k: 9,
            attempted: 64,
            ..Outcome::default()
        };
        let result = untraced_result(&out);
        assert!(result.correct);
        let line = Json::parse(&result.contract_line().render()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        let mut names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut expect: Vec<&str> = catalogue::END_TO_END.iter().map(|m| m.name).collect();
        names.sort_unstable();
        expect.sort_unstable();
        assert_eq!(names, expect);
        assert_eq!(
            line.get("metrics").unwrap().get("query_p50_s"),
            Some(&Json::obj([
                ("value", Json::Num(6.6)),
                ("unit", Json::str("s"))
            ]))
        );
        assert!(metrics
            .iter()
            .all(|(_, m)| m.get("value").and_then(Json::as_f64).unwrap() > 0.0));

        let failed = untraced_result(&Outcome {
            failed: 1,
            attempted: 1,
            failures: vec!["boom".into()],
            ..Outcome::default()
        });
        assert!(!failed.correct && failed.metrics.is_empty());
    }

    #[test]
    fn distributions_report_a_tail_only_with_support() {
        let few = distribution(&[3.0, 1.0, 2.0]);
        assert_eq!(few.get("n"), Some(&Json::Num(3.0)));
        assert_eq!(few.get("p50"), Some(&Json::Num(2.0)));
        assert_eq!(
            (few.get("min"), few.get("max")),
            (Some(&Json::Num(1.0)), Some(&Json::Num(3.0)))
        );
        assert!(few.get("p90").is_none());
        let many: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(distribution(&many).get("p90"), Some(&Json::Num(108.0)));
    }
}
