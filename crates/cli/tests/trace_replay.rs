//! `--trace` refuses a trace it cannot replay whole.
//!
//! Records a 10-tick trace with the real binary, then replays a copy cut
//! at 60 % and a 16-byte file that is not a trace through every command
//! that reads `--trace` (`simulate`, `compare`, `serve`). Each must exit
//! non-zero and name the tick the replay stopped at; the intact trace
//! must still replay cleanly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SIZE: [&str; 6] = ["--objects", "250", "--queries", "50", "--duration", "10"];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scuba-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scuba-sim"))
        .args(args)
        .args(SIZE)
        .output()
        .expect("scuba-sim runs")
}

fn record(dir: &Path) -> PathBuf {
    let path = dir.join("full.sctr");
    let out = sim(&["record", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "record failed: {out:?}");
    path
}

/// Runs each replaying command over `trace`; returns (command, output).
fn replay_all(dir: &Path, trace: &Path) -> Vec<(&'static str, Output)> {
    let trace = trace.to_str().unwrap();
    let ckpt = dir.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    vec![
        ("simulate", sim(&["simulate", "--trace", trace])),
        ("compare", sim(&["compare", "--trace", trace])),
        (
            "serve",
            sim(&[
                "serve",
                "--trace",
                trace,
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
            ]),
        ),
    ]
}

fn assert_refused(dir: &Path, trace: &Path, expected: &str) {
    for (command, out) in replay_all(dir, trace) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{command} accepted {trace:?}");
        assert!(
            stderr.contains(expected),
            "{command}: stderr {stderr:?} should contain {expected:?}"
        );
    }
}

#[test]
fn truncated_trace_is_refused_naming_the_tick() {
    let dir = tmp_dir("cut");
    let full = record(&dir);
    for (command, out) in replay_all(&dir, &full) {
        assert!(
            out.status.success(),
            "{command} on the whole trace: {out:?}"
        );
    }

    let bytes = std::fs::read(&full).unwrap();
    let cut = dir.join("cut.sctr");
    std::fs::write(&cut, &bytes[..bytes.len() * 6 / 10]).unwrap();
    assert_refused(
        &dir,
        &cut,
        "after 5 whole ticks: trace truncated inside tick 5",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_file_is_refused_as_a_bad_header() {
    let dir = tmp_dir("bad");
    let bad = dir.join("bad.sctr");
    std::fs::write(&bad, b"NOT A TRACE 1234").unwrap();
    assert_refused(
        &dir,
        &bad,
        "after 0 whole ticks: not a SCTR trace (bad header)",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
