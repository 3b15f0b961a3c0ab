//! The host fingerprint every result file carries, so a number is never
//! read without the machine, toolchain and commit that produced it.

use std::process::Command;

use crate::json::Json;

/// First line of a command's standard output, or `None` when the command
/// is missing or fails (a checkout without git, a stripped container).
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_string())
}

/// Worker threads the host can run at once; the ledger never starts more.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fingerprint object: every field falls back to `"unknown"` rather
/// than failing the run.
pub fn fingerprint() -> Json {
    let unknown = || "unknown".to_string();
    Json::obj()
        .with("cpu_model", Json::Str(cpu_model().unwrap_or_else(unknown)))
        .with("nproc", Json::Int(nproc() as i64))
        .with("os", Json::str(std::env::consts::OS))
        .with("arch", Json::str(std::env::consts::ARCH))
        .with(
            "rustc",
            Json::Str(first_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        )
        .with(
            "cargo_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        )
        // The ledger package declares no features; the engine crates are
        // built with the ones their manifests name.
        .with("cargo_features", Json::str("default"))
        .with(
            "git_commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        )
        // `offline/config.toml` sets the variable when it swaps the
        // engine's third-party crates for the stand-ins under `stubs/`: a
        // number is never read without knowing which it was built on.
        .with(
            "third_party",
            Json::str(option_env!("SCUBA_LEDGER_THIRD_PARTY").unwrap_or("crates.io")),
        )
}
