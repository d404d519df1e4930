//! Host fingerprint and memory high-water mark, so figures from different
//! hosts can be told apart.

use std::path::Path;
use std::process::Command;

pub struct Manifest {
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Manifest {
    pub fn collect() -> Manifest {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        // Only ask git inside a git checkout of its own, so it never walks
        // up into the enclosing directories.
        let git_rev = if Path::new(".git").exists() {
            first_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".to_owned()
        };
        Manifest {
            cpu_model,
            rustc: first_line("rustc", &["--version"]),
            git_rev,
        }
    }
}

/// Peak resident set size of this process in KiB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .expect("/proc/self/status reports VmHWM")
}
