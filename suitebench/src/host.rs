//! What a result is stamped with: host, worker count, revision, compiler,
//! seed — plus the process's peak resident memory.

use pp_petri::Parallelism;
use pp_serve::Json;
use std::path::Path;

/// Hardware threads the process may use (`nproc`).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out revision, read from `.git` under the working directory
/// (no `git` process, nothing outside the checkout); `"unknown"` when the
/// checkout is not a repository.
#[must_use]
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the compiler on the path (the one that built the
/// benchmark), or `"unknown"`.
#[must_use]
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp printed with every result.
#[must_use]
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    Json::object([
        ("workload".to_string(), Json::str(workload)),
        ("seed".to_string(), Json::uint(seed)),
        ("seconds".to_string(), Json::uint(seconds)),
        ("trace".to_string(), Json::Bool(trace)),
        ("nproc".to_string(), Json::uint(nproc() as u64)),
        (
            "auto_workers".to_string(),
            Json::uint(Parallelism::auto().workers() as u64),
        ),
        ("git_revision".to_string(), Json::str(git_revision())),
        ("rustc".to_string(), Json::str(rustc_version())),
    ])
}
