//! Host fingerprint and `/proc` memory readings.
//!
//! Every result file carries the fingerprint, so a number is never read
//! without the machine, toolchain and commit that produced it.

use std::process::Command;
use tensorkmc_compat::json::Json;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First `model name` line of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Trimmed stdout of a command, or `"unknown"` when it cannot run (the
/// driver's checkout is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fingerprint object embedded in every run and set file.
pub fn fingerprint(seed: u64, repetitions: usize) -> Json {
    Json::obj([
        ("nproc", Json::UInt(nproc() as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::UInt(seed)),
        ("repetitions", Json::UInt(repetitions as u64)),
    ])
}

/// Peak resident set (`VmHWM`) of process `pid` in bytes; `None` once the
/// process is gone or on hosts without `/proc`.
pub fn vm_hwm_bytes(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// `VmHWM` of this process. The harness runs one workload per process, so
/// the high-water mark belongs to that run alone.
pub fn self_vm_hwm_bytes() -> Option<u64> {
    vm_hwm_bytes(std::process::id())
}
