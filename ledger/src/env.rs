//! The environment block printed with every result: what the numbers were
//! measured on, and how much code produced them.

use crate::json::Json;
use crate::layers::PROVER_THREADS;
use crate::workloads::{PARAMS_K, SCALE};
use std::path::Path;

/// The repository root: the directory above this package.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the ledger sits in a directory of the repository")
}

pub fn block(seed: u64) -> Json {
    let crates = line_counts();
    let total: usize = crates.iter().map(|(_, n)| n).sum();
    Json::obj([
        ("nproc", Json::from(cpuinfo_processors())),
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("prover_workers", Json::from(1usize)),
        ("prover_threads", Json::from(PROVER_THREADS)),
        ("clients", Json::from(1usize)),
        ("seed", Json::from(seed)),
        ("scale_lineitem_rows", Json::from(SCALE)),
        ("params_k", Json::from(PARAMS_K as usize)),
        ("rustc", Json::str(rustc_version())),
        ("git_commit", Json::str(git_commit())),
        ("non_test_lines_total", Json::from(total)),
        (
            "non_test_lines",
            Json::obj(crates.into_iter().map(|(name, n)| (name, Json::from(n)))),
        ),
    ])
}

/// Processors the kernel lists, which a container's CPU quota (what
/// `available_parallelism` reports) may cut below.
fn cpuinfo_processors() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// `HEAD` resolved by reading `.git`, so no process is started; `unknown`
/// in a checkout that is not a repository.
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached
    };
    read(&git.join(reference))
        .or_else(|| {
            let packed = read(&git.join("packed-refs"))?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split(' ').next()?.to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Lines of each `crates/*/src` up to a file's first `#[cfg(test)]`: the
/// repository keeps unit tests at the bottom of the file they test.
fn line_counts() -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let Ok(crates) = std::fs::read_dir(repo_root().join("crates")) else {
        return out;
    };
    for entry in crates.flatten() {
        let mut lines = 0;
        count_rs(&entry.path().join("src"), &mut lines);
        out.push((entry.file_name().to_string_lossy().into_owned(), lines));
    }
    out.sort();
    out
}

fn count_rs(dir: &Path, lines: &mut usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            count_rs(&path, lines);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                *lines += non_test_lines(&text);
            }
        }
    }
}

fn non_test_lines(source: &str) -> usize {
    source
        .lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_stops_at_the_test_module() {
        let source = "fn a() {}\n\nfn b() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(source), 4);
        assert_eq!(non_test_lines("fn only() {}\n"), 1);
    }

    #[test]
    fn the_block_names_every_crate() {
        let block = block(3);
        assert_eq!(block.get("seed"), Some(&Json::Num(3.0)));
        let crates = block.get("non_test_lines").and_then(Json::as_obj).unwrap();
        for name in ["arith", "core", "plonkish", "service", "sql"] {
            let lines = crates
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_f64());
            assert!(lines.is_some_and(|n| n > 100.0), "{name}: {lines:?}");
        }
    }
}
