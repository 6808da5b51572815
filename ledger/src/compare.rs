//! `ledger compare a b`: two files of ledger output, side by side.
//!
//! Each file holds the standard output of any number of runs. Per workload
//! and metric the runs of a file are reduced to their median; `b` is then
//! judged against `a` by the catalogue's bound, or by equality for the
//! counts the program makes itself.

use crate::catalogue::{self, Better, Metric};
use crate::json::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// `(workload, metric) -> one value per run`.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Every report line of `text`; lines that are not reports (the contract
/// line, cargo's chatter) are skipped.
pub fn parse_runs(text: &str) -> Runs {
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| l.starts_with("{\"ledger\"")) {
        let Ok(report) = Json::parse(line) else {
            continue;
        };
        let (Some(workload), Some(metrics)) = (
            report.get("workload").and_then(Json::as_str),
            report.get("metrics").and_then(Json::as_obj),
        ) else {
            continue;
        };
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    runs
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows, or an exact count that differs.
    Regression,
    /// One side's spread between runs is wider than the bound, so the
    /// medians cannot tell a regression from noise.
    Unresolved,
}

/// By how much of `a` is `b` worse; negative when it is better.
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0; // also when both are zero
    }
    let change = (b - a) / a.abs();
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if m.exact {
        return if ma == mb {
            Verdict::Ok
        } else {
            Verdict::Regression
        };
    }
    let Some(bound) = m.bound else {
        return Verdict::Ok; // a layer's timing: shown, not gated
    };
    if worsening(m, ma, mb) > bound {
        return Verdict::Regression;
    }
    let noisy = |runs: &[f64]| spread(runs).is_some_and(|s| s > bound);
    if noisy(a) || noisy(b) {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Print the table; `true` when nothing regressed.
pub fn compare(a: &str, b: &str) -> bool {
    let (runs_a, runs_b) = (parse_runs(a), parse_runs(b));
    let mut clean = true;
    println!(
        "{:<15} {:<26} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "a (median)",
        "b (median)",
        "worse by",
        "bound",
        "spread a",
        "spread b"
    );
    for ((workload, name), a) in &runs_a {
        let (Some(b), Some(m)) = (
            runs_b.get(&(workload.clone(), name.clone())),
            catalogue::find(name),
        ) else {
            continue;
        };
        let verdict = judge(m, a, b);
        clean &= verdict != Verdict::Regression;
        let pct = |x: Option<f64>| x.map_or("-".into(), |v| format!("{:.1}%", v * 100.0));
        println!(
            "{workload:<15} {name:<26} {:>14.6} {:>14.6} {:>9} {:>7} {:>8} {:>8}  {}",
            median(a),
            median(b),
            pct(Some(worsening(m, median(a), median(b)))),
            if m.exact {
                "exact".into()
            } else {
                pct(m.bound)
            },
            pct(spread(a)),
            pct(spread(b)),
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, metric: &str, value: f64) -> String {
        format!(
            "{{\"ledger\":1,\"workload\":\"{workload}\",\"metrics\":{{\"{metric}\":{{\"value\":{value},\"unit\":\"s\"}}}}}}\n"
        )
    }

    #[test]
    fn runs_are_grouped_by_workload_and_metric() {
        let text = report("q1_cold", "query_p50_s", 6.5)
            + "   Compiling something\n"
            + &report("q1_cold", "query_p50_s", 6.7)
            + "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{}}\n"
            + &report("q5_cold", "query_p50_s", 9.5);
        let runs = parse_runs(&text);
        assert_eq!(runs[&("q1_cold".into(), "query_p50_s".into())], [6.5, 6.7]);
        assert_eq!(runs[&("q5_cold".into(), "query_p50_s".into())], [9.5]);
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn bounds_follow_the_metric_s_direction() {
        let latency = catalogue::find("query_p50_s").unwrap(); // lower, 15 %
        assert_eq!(judge(latency, &[1.0], &[1.14]), Verdict::Ok);
        assert_eq!(judge(latency, &[1.0], &[1.16]), Verdict::Regression);
        assert_eq!(judge(latency, &[1.0], &[0.5]), Verdict::Ok);
        let qps = catalogue::find("verified_qps").unwrap(); // higher, 15 %
        assert_eq!(judge(qps, &[10.0], &[8.6]), Verdict::Ok);
        assert_eq!(judge(qps, &[10.0], &[8.4]), Verdict::Regression);
        assert_eq!(judge(qps, &[10.0], &[20.0]), Verdict::Ok);
    }

    #[test]
    fn exact_counts_must_be_equal_and_layer_timings_are_not_gated() {
        let bytes = catalogue::find("proof_bytes").unwrap();
        assert_eq!(judge(bytes, &[61840.0], &[61840.0]), Verdict::Ok);
        assert_eq!(judge(bytes, &[61840.0], &[61808.0]), Verdict::Regression);
        let ffts = catalogue::find("obs.fft_count").unwrap();
        assert_eq!(judge(ffts, &[300.0], &[301.0]), Verdict::Regression);
        let layer = catalogue::find("plonkish.keygen_pk_ms").unwrap();
        assert_eq!(judge(layer, &[100.0], &[900.0]), Verdict::Ok);
        assert_eq!(worsening(ffts, 0.0, 0.0), 0.0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let latency = catalogue::find("query_p50_s").unwrap();
        let steady = [1.0, 1.01, 0.99, 1.0, 1.0];
        let noisy = [0.8, 1.0, 1.25, 0.7, 1.3];
        assert_eq!(judge(latency, &steady, &steady), Verdict::Ok);
        assert_eq!(judge(latency, &steady, &noisy), Verdict::Unresolved);
        assert!(compare(
            &report("w", "query_p50_s", 1.0),
            &report("w", "query_p50_s", 1.05)
        ));
        assert!(!compare(
            &report("w", "query_p50_s", 1.0),
            &report("w", "query_p50_s", 1.5)
        ));
    }
}
