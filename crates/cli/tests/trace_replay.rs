//! `--trace` refuses a trace it cannot replay whole.
//!
//! Records a 10-tick trace with the real binary, then replays a copy cut
//! at 60 % and a 16-byte file that is not a trace through every command
//! that reads `--trace` (`simulate`, `compare`, `serve`). Each must exit
//! non-zero and name the tick the replay stopped at; the intact trace
//! must still replay cleanly. A `serve` over the cut copy must also leave
//! no durable state past the tear, so a rerun over the intact trace
//! resumes at the last whole tick and ingests the rest.

use std::collections::BTreeMap;
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

/// A copy of `full` cut at 60 % of the bytes before its 12-byte trailer:
/// five whole ticks, then a torn sixth.
fn cut(dir: &Path, full: &Path) -> PathBuf {
    let bytes = std::fs::read(full).unwrap();
    let cut = dir.join("cut.sctr");
    std::fs::write(&cut, &bytes[..(bytes.len() - 12) * 6 / 10]).unwrap();
    cut
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

    let cut = cut(&dir, &full);
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

/// `serve --trace --checkpoint-dir D --checkpoint-every 4 --out D/E`
/// over `trace`, with `extra` flags last (a repeated flag's last value
/// wins).
fn serve(dir: &Path, trace: &Path, state: &str, extra: &[&str]) -> Output {
    let (ckpt, events) = (dir.join(state), dir.join(format!("{state}.ndjson")));
    Command::new(env!("CARGO_BIN_EXE_scuba-sim"))
        .args(["serve", "--trace", trace.to_str().unwrap()])
        .args(["--checkpoint-dir", ckpt.to_str().unwrap()])
        .args(["--checkpoint-every", "4"])
        .args(["--out", events.to_str().unwrap()])
        .args(SIZE)
        .args(extra)
        .output()
        .expect("scuba-sim runs")
}

/// The updates a successful `serve` reports having ingested live.
fn updates_served(out: &Output) -> u64 {
    assert!(out.status.success(), "serve failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("served "))
        .unwrap_or_else(|| panic!("no summary line in {stdout:?}"));
    let (before, _) = line.split_once(" updates").unwrap();
    before.rsplit(' ').next().unwrap().parse().unwrap()
}

/// The event log of `state`, deduplicated keeping the last line per tick
/// (a resumed run re-emits the ticks it replays).
fn events(dir: &Path, state: &str) -> BTreeMap<u64, String> {
    let text = std::fs::read_to_string(dir.join(format!("{state}.ndjson"))).unwrap();
    text.lines()
        .map(|line| {
            let t = line["{\"t\":".len()..].split(',').next().unwrap();
            (t.parse().unwrap(), line.to_string())
        })
        .collect()
}

#[test]
fn serve_commits_no_tick_past_a_tear() {
    let dir = tmp_dir("serve-tear");
    let full = record(&dir);
    let cut = cut(&dir, &full);
    let total = updates_served(&serve(&dir, &full, "whole", &[]));

    let torn = serve(&dir, &cut, "torn", &[]);
    let stderr = String::from_utf8_lossy(&torn.stderr);
    assert!(!torn.status.success(), "serve accepted the cut trace");
    assert!(stderr.contains("after 5 whole ticks"), "{stderr}");
    let mut checkpoints: Vec<String> = std::fs::read_dir(dir.join("torn"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".ckpt"))
        .collect();
    checkpoints.sort();
    assert_eq!(
        checkpoints,
        [
            "checkpoint-000000000000.ckpt",
            "checkpoint-000000000004.ckpt"
        ],
        "a checkpoint covers ticks past the tear"
    );

    // The rerun over the intact trace resumes at the last whole tick and
    // ingests everything after it: with the five whole ticks before the
    // tear, that is every update of the trace.
    let resumed = serve(&dir, &full, "torn", &[]);
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout.contains("resumed from durable state at t=5 (1 journal frames replayed)"),
        "{stdout}"
    );
    let head = updates_served(&serve(&dir, &cut, "head", &["--duration", "5"]));
    assert_eq!(head + updates_served(&resumed), total);
    assert_eq!(events(&dir, "torn"), events(&dir, "whole"));
    let _ = std::fs::remove_dir_all(&dir);
}
