//! The offline source linter.
//!
//! A deliberately small rule engine that scans workspace sources for
//! forbidden patterns the compiler cannot express: panicking operators in
//! wire-decode paths (a remote peer controls those bytes — PR 2's
//! "panic-free decoders" invariant), ad-hoc thread spawning outside the
//! `poneglyph-par` budget (PR 5's determinism invariant), and relaxed
//! atomic orderings on shared counters (cross-thread reads become racy).
//!
//! The engine is substring-based on comment-stripped lines, skips each
//! file's `#[cfg(test)]` tail region (tests may unwrap freely), and honors
//! inline waivers of the form `lint:allow(rule-name)` placed in a comment
//! on the offending line.

use crate::analyzer::Severity;
use std::fmt;

/// One lint rule: forbidden substrings plus path filters.
#[derive(Clone, Debug)]
pub struct LintRule {
    /// Stable kebab-case rule name (used by `lint:allow(...)` waivers).
    pub name: &'static str,
    /// Deny fails the `srclint` binary; Warn only reports.
    pub severity: Severity,
    /// Forbidden substrings (matched on comment-stripped source lines).
    pub patterns: Vec<String>,
    /// Path fragments the rule applies to; empty means every file.
    pub include: Vec<&'static str>,
    /// Path fragments the rule never applies to.
    pub exclude: Vec<&'static str>,
    /// Why the pattern is forbidden (echoed in findings).
    pub rationale: &'static str,
}

impl LintRule {
    /// Whether this rule applies to the file at `path` (normalized with
    /// forward slashes).
    pub fn applies_to(&self, path: &str) -> bool {
        if self.exclude.iter().any(|frag| path.contains(frag)) {
            return false;
        }
        self.include.is_empty() || self.include.iter().any(|frag| path.contains(frag))
    }
}

/// One source-lint finding with file/line provenance.
#[derive(Clone, Debug)]
pub struct LintFinding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Severity inherited from the rule.
    pub severity: Severity,
    /// File the finding is in.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// The forbidden pattern that matched.
    pub pattern: String,
    /// The rule's rationale.
    pub rationale: &'static str,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {}:{}: forbidden `{}` ({})",
            self.severity, self.rule, self.file, self.line, self.pattern, self.rationale
        )
    }
}

// The pattern literals are assembled with `concat!` so this file does not
// trip its own rules when the linter scans the analyzer crate.

/// The workspace rule set enforced by the `srclint` binary.
pub fn default_rules() -> Vec<LintRule> {
    vec![
        LintRule {
            name: "decode-panic",
            severity: Severity::Deny,
            patterns: vec![
                concat!(".unwrap", "()").to_string(),
                concat!(".expect", "(").to_string(),
                concat!("panic!", "(").to_string(),
                concat!("unreachable!", "(").to_string(),
                concat!("todo!", "(").to_string(),
                concat!("unimplemented!", "(").to_string(),
            ],
            include: vec![
                "crates/core/src/wire.rs",
                "crates/sql/src/wire.rs",
                "crates/service/src/protocol.rs",
                "crates/obs/src/http.rs",
            ],
            exclude: vec![],
            rationale: "wire decoders parse bytes a remote peer controls; malformed input \
                        must surface as an error, never a panic",
        },
        LintRule {
            name: "ad-hoc-thread",
            severity: Severity::Deny,
            patterns: vec![
                concat!("thread::", "spawn", "(").to_string(),
                concat!("thread::", "scope", "(").to_string(),
            ],
            include: vec![],
            exclude: vec!["crates/par/"],
            rationale: "all parallelism flows through the poneglyph-par thread budget so \
                        proofs stay deterministic and thread counts stay bounded",
        },
        LintRule {
            name: "relaxed-ordering",
            severity: Severity::Deny,
            patterns: vec![concat!("Ordering::", "Relaxed").to_string()],
            include: vec![],
            exclude: vec![],
            rationale: "relaxed atomics on shared counters make cross-thread observations \
                        racy; these counters are cold, use SeqCst",
        },
    ]
}

/// Strip `//` line comments and the inside of `/* ... */` block comments.
/// String literals are not tracked — the workspace's style keeps forbidden
/// tokens out of strings, and a false positive is a visible, fixable event.
fn strip_comments(line: &str, in_block: &mut bool) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < bytes.len() {
        if *in_block {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if bytes[i] == b'/' && i + 1 < bytes.len() {
            match bytes[i + 1] {
                b'/' => break, // rest of the line is a comment
                b'*' => {
                    *in_block = true;
                    i += 2;
                    continue;
                }
                _ => {}
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// Lint one source file's text. `path` is used for rule filtering and
/// finding provenance; pass it normalized with forward slashes.
pub fn lint_source(path: &str, source: &str, rules: &[LintRule]) -> Vec<LintFinding> {
    let active: Vec<&LintRule> = rules.iter().filter(|r| r.applies_to(path)).collect();
    if active.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let mut in_block = false;
    for (idx, raw) in source.lines().enumerate() {
        // Workspace convention keeps unit tests in a `#[cfg(test)]` module
        // at the file tail; everything from its attribute on is test code
        // where unwraps are fine.
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let code = strip_comments(raw, &mut in_block);
        if code.trim().is_empty() {
            continue;
        }
        for rule in &active {
            if raw.contains(&format!("lint:allow({})", rule.name)) {
                continue;
            }
            for pat in &rule.patterns {
                if code.contains(pat.as_str()) {
                    findings.push(LintFinding {
                        rule: rule.name,
                        severity: rule.severity,
                        file: path.to_string(),
                        line: idx + 1,
                        pattern: pat.clone(),
                        rationale: rule.rationale,
                    });
                }
            }
        }
    }
    findings
}

/// How many comment-stripped lines after a `REQ_*` match arm may pass
/// before its `record_request(` call (the arm line itself counts).
const REQUEST_COUNTER_WINDOW: usize = 4;

/// Structural lint: every `REQ_*` handler arm in the TCP server's frame
/// dispatch must record its request counter before doing anything else,
/// so `poneglyph_requests_total` stays complete as the protocol grows.
///
/// Applies only to `crates/service/src/server.rs`. A match arm line
/// (contains `REQ_` and `=>`) must be followed within
/// `REQUEST_COUNTER_WINDOW` lines by a `record_request(` call. Honors
/// `lint:allow(request-counter)` on the arm line; skips the
/// `#[cfg(test)]` tail like the pattern rules.
pub fn lint_request_counters(path: &str, source: &str) -> Vec<LintFinding> {
    if !path.contains("crates/service/src/server.rs") {
        return Vec::new();
    }
    // The recorder itself: a line that *calls* record_request.
    let call = concat!("record_request", "(");
    let mut stripped = Vec::new();
    let mut in_block = false;
    for raw in source.lines() {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        stripped.push((strip_comments(raw, &mut in_block), raw));
    }
    let mut findings = Vec::new();
    for (idx, (code, raw)) in stripped.iter().enumerate() {
        let is_arm = code.contains("REQ_")
            && code.contains("=>")
            // The dispatch arms, not the recorder's own doc or the
            // `use` list of REQ_ constants.
            && !code.trim_start().starts_with("use ")
            && !code.contains("fn ");
        if !is_arm || raw.contains("lint:allow(request-counter)") {
            continue;
        }
        let counted = stripped
            .iter()
            .skip(idx)
            .take(REQUEST_COUNTER_WINDOW)
            .any(|(later, _)| later.contains(call));
        if !counted {
            findings.push(LintFinding {
                rule: "request-counter",
                severity: Severity::Deny,
                file: path.to_string(),
                line: idx + 1,
                pattern: format!("REQ_* arm without {call}"),
                rationale: "every wire-request handler arm must count itself in \
                            poneglyph_requests_total so the metrics endpoint stays complete \
                            as the protocol grows",
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_path() -> &'static str {
        "crates/sql/src/wire.rs"
    }

    #[test]
    fn flags_unwrap_in_decode_path() {
        let src = "fn f(b: &[u8]) -> u16 {\n    u16::from_le_bytes(b.try_into().unwrap())\n}\n";
        let f = lint_source(wire_path(), src, &default_rules());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "decode-panic");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].severity, Severity::Deny);
    }

    #[test]
    fn ignores_files_outside_include_set() {
        let src = "fn f() { None::<u8>.unwrap(); }\n";
        assert!(lint_source("crates/poly/src/domain.rs", src, &default_rules()).is_empty());
    }

    #[test]
    fn skips_test_tail_region() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint_source(wire_path(), src, &default_rules()).is_empty());
    }

    #[test]
    fn skips_comments_but_honors_waivers() {
        let src = "// a comment mentioning .unwrap() is fine\nfn f() {}\n";
        assert!(lint_source(wire_path(), src, &default_rules()).is_empty());
        let waived = "fn f(b: &[u8]) { b.first().unwrap(); } // lint:allow(decode-panic)\n";
        assert!(lint_source(wire_path(), waived, &default_rules()).is_empty());
        let mut in_block = false;
        assert_eq!(strip_comments("a /* b */ c", &mut in_block), "a  c");
        assert!(!in_block);
        assert_eq!(strip_comments("x /* open", &mut in_block), "x ");
        assert!(in_block);
        assert_eq!(strip_comments("still closed */ y", &mut in_block), " y");
    }

    #[test]
    fn flags_spawn_and_relaxed_everywhere_except_par() {
        let spawn = "fn go() { std::thread::spawn(|| {}); }\n";
        let f = lint_source("crates/service/src/server.rs", spawn, &default_rules());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ad-hoc-thread");
        assert!(lint_source("crates/par/src/lib.rs", spawn, &default_rules()).is_empty());

        // Scoped threads count too; long-lived named `thread::Builder`
        // threads (acceptor, workers, scrape endpoint) do not.
        let scope = concat!(
            "fn go() { std::thread::",
            "scope(|s| { s.spawn(|| {}); }); }\n"
        );
        let f = lint_source("crates/curve/src/msm.rs", scope, &default_rules());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ad-hoc-thread");
        assert!(lint_source("crates/par/src/lib.rs", scope, &default_rules()).is_empty());
        let named = "fn go() { std::thread::Builder::new().name(n).spawn(f); }\n";
        assert!(lint_source("crates/service/src/server.rs", named, &default_rules()).is_empty());

        let relaxed = "fn n() -> usize { C.load(std::sync::atomic::Ordering::Relaxed) }\n";
        let f = lint_source("crates/bench/src/lib.rs", relaxed, &default_rules());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "relaxed-ordering");
    }

    #[test]
    fn http_responder_is_in_the_decode_panic_set() {
        let src = "fn f(b: &[u8]) -> u8 { *b.first().unwrap() }\n";
        let f = lint_source("crates/obs/src/http.rs", src, &default_rules());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "decode-panic");
    }

    #[test]
    fn request_counter_rule_flags_uncounted_arms() {
        let counted = "match t {\n    REQ_INFO => {\n        record_request(\"info\");\n        reply();\n    }\n}\n";
        assert!(lint_request_counters("crates/service/src/server.rs", counted).is_empty());

        let uncounted = "match t {\n    REQ_INFO => {\n        reply();\n    }\n    REQ_SQL => {\n        record_request(\"sql\");\n    }\n}\n";
        let f = lint_request_counters("crates/service/src/server.rs", uncounted);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "request-counter");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].severity, Severity::Deny);

        // Out of scope: other files, waived arms, the test tail.
        assert!(lint_request_counters("crates/service/src/client.rs", uncounted).is_empty());
        let waived =
            "match t {\n    REQ_INFO => { // lint:allow(request-counter)\n        reply();\n    }\n}\n";
        assert!(lint_request_counters("crates/service/src/server.rs", waived).is_empty());
        let test_tail =
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { match t { REQ_X => {} } }\n}\n";
        assert!(lint_request_counters("crates/service/src/server.rs", test_tail).is_empty());

        // The counter call must land inside the window.
        let too_late = "match t {\n    REQ_INFO => {\n        a();\n        b();\n        c();\n        record_request(\"info\");\n    }\n}\n";
        assert_eq!(
            lint_request_counters("crates/service/src/server.rs", too_late).len(),
            1
        );
    }

    #[test]
    fn request_counter_rule_accepts_the_live_server_source() {
        // The real dispatch must stay clean — this is the regression the
        // rule exists to catch, so check it against the actual file when
        // the workspace layout is available (it is, in-tree).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../service/src/server.rs");
        if let Ok(src) = std::fs::read_to_string(path) {
            let findings = lint_request_counters("crates/service/src/server.rs", &src);
            assert!(findings.is_empty(), "live server.rs violates: {findings:?}");
        }
    }
}
