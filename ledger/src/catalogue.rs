//! The metric catalogue: every name the ledger prints, with its unit, the
//! direction that is better, and for end-to-end metrics the share of the
//! parent's median by which it may worsen. `BENCHMARK.json` repeats it.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` for end-to-end metrics only.
    pub bound: Option<f64>,
    /// A count the program makes that must repeat exactly between runs of
    /// one commit on one seed; `compare` demands equality, not a bound.
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timing(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// What the analyst and the data host wait for or pay for.
pub const END_TO_END: [Metric; 6] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("query_p50_s", "s", Better::Lower, 0.15),
    gated("verified_qps", "1/s", Better::Higher, 0.15),
    gated("append_p50_ms", "ms", Better::Lower, 0.25),
    Metric {
        exact: true,
        ..gated("proof_bytes", "bytes", Better::Lower, 0.0)
    },
    gated("peak_heap_mb", "MiB", Better::Lower, 0.05),
];

/// One metric per layer, where a layer is a crate; the README says which
/// end-to-end metric each should move, and on which workload.
pub const PER_LAYER: [Metric; 46] = [
    timing("pcs.setup_ms", "ms"),
    timing("core.commit_db_ms", "ms"),
    timing("sql.parse_plan_ms", "ms"),
    timing("sql.execute_ms", "ms"),
    timing("core.compile_ms", "ms"),
    count("core.k", "count", Better::Lower),
    count("core.advice_columns", "count", Better::Lower),
    count("core.fixed_columns", "count", Better::Lower),
    count("core.gates", "count", Better::Lower),
    count("core.lookups", "count", Better::Lower),
    timing("plonkish.keygen_pk_ms", "ms"),
    timing("plonkish.prove_commit_ms", "ms"),
    timing("plonkish.prove_quotient_ms", "ms"),
    timing("plonkish.prove_open_ms", "ms"),
    timing("core.encode_ms", "ms"),
    timing("core.decode_ms", "ms"),
    count("core.response_bytes", "bytes", Better::Lower),
    timing("core.verify_cold_ms", "ms"),
    timing("core.verify_warm_ms", "ms"),
    timing("core.append_ms", "ms"),
    timing("service.fetch_ms", "ms"),
    count("service.proofs_generated", "count", Better::Lower),
    count("service.cache_hits", "count", Better::Higher),
    count("service.cache_misses", "count", Better::Lower),
    count("service.mutations", "count", Better::Lower),
    count("client.keygens", "count", Better::Lower),
    count("client.key_cache_hits", "count", Better::Higher),
    timing("arith.fq_mul_ns", "ns"),
    timing("arith.fq_inv_ns", "ns"),
    timing("poly.ifft_ms", "ms"),
    timing("poly.coset_fft_ms", "ms"),
    timing("pcs.commit_full_ms", "ms"),
    timing("pcs.commit_small_ms", "ms"),
    timing("pcs.open_ms", "ms"),
    timing("pcs.verify_ms", "ms"),
    count("obs.fft_count", "count", Better::Lower),
    count("obs.fft_points", "count", Better::Lower),
    count("obs.msm_count", "count", Better::Lower),
    count("obs.msm_terms", "count", Better::Lower),
    count("obs.keygens", "count", Better::Lower),
    timing("wire.query_ms", "ms"),
    timing("wire.append_ms", "ms"),
    timing("replay.traced_ms", "ms"),
    timing("replay.untraced_ms", "ms"),
    timing("untimed_ms", "ms"),
    timing("trace_overhead_pct", "%"),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn direction(better: Better) -> Json {
        Json::str(match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        })
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        // Set-up time has the largest bound.
        let setup = find("setup_s").unwrap().bound;
        assert!(END_TO_END.iter().all(|m| m.bound <= setup));
    }

    /// `BENCHMARK.json` sits outside this package, so it can drift: when
    /// the repository is around it, it must say what this file says.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).unwrap();
        let listed = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |item: &Json, key: &str| item.get(key).cloned().unwrap_or(Json::Null);

        let end_to_end = listed("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name"), Json::str(m.name));
            assert_eq!(field(item, "unit"), Json::str(m.unit));
            assert_eq!(field(item, "better"), direction(m.better));
            assert_eq!(field(item, "bound"), Json::Num(m.bound.unwrap()));
        }
        let per_layer = listed("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name"), Json::str(m.name));
            assert_eq!(field(item, "unit"), Json::str(m.unit));
            assert_eq!(field(item, "better"), direction(m.better));
        }
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (item, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(item, "name"), Json::str(w.name()));
            assert_eq!(field(item, "why"), Json::str(w.why()));
        }
        assert_eq!(
            field(&doc, "run_seconds"),
            Json::Num(crate::RUN_SECONDS as f64)
        );
    }
}
