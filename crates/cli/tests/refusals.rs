//! What `scuba-sim` refuses, and what `simulate` reports about the
//! shedding ladder, through the real binary.
//!
//! Stripes (`--shards N`, N > 1) refuse the single-store features with
//! exit code 2 and a message naming the feature, instead of running with
//! them ignored; so does `serve` with `--budget`, which only `simulate`
//! honours. A `--budget` run reports how many evaluations ended over the
//! budget, so a budget the ladder cannot meet is visible.

use std::process::{Command, Output};

fn scuba_sim(command: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scuba-sim"))
        .arg(command)
        .args(args)
        .output()
        .expect("scuba-sim runs")
}

fn sim(args: &[&str]) -> Output {
    scuba_sim("simulate", args)
}

#[test]
fn stripes_refuse_shedding_with_exit_2() {
    let size = ["--objects", "300", "--queries", "60", "--duration", "4"];
    let out = sim(&[&size[..], &["--shards", "2", "--eta", "0.5"]].concat());
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shedding is not supported with shards > 1"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");

    // Each half alone runs.
    for extra in [&["--shards", "2"][..], &["--eta", "0.5"]] {
        let out = sim(&[&size[..], extra].concat());
        assert!(out.status.success(), "{extra:?}: {out:?}");
    }
}

#[test]
fn serve_refuses_budget_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("scuba-refusals-{}", std::process::id()));
    let out = scuba_sim(
        "serve",
        &[
            "--objects",
            "100",
            "--queries",
            "10",
            "--duration",
            "2",
            "--budget",
            "1",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--budget is a simulate option"), "{stderr}");
    assert!(!dir.exists(), "refused before any durable state is written");
}

#[test]
fn budget_run_reports_evaluations_over_budget() {
    let args = [
        "--objects",
        "500",
        "--queries",
        "50",
        "--duration",
        "10",
        "--budget",
        "1",
    ];
    let out = sim(&args);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("overload(budget=1B): 5 ticks, 5 over budget, 4 escalations"),
        "{stdout}"
    );

    let out = sim(&[&args[..], &["--json"]].concat());
    assert!(out.status.success(), "{out:?}");
    let json = scuba_spatial::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("json");
    let overload = json.get("overload").expect("overload section");
    assert_eq!(
        overload.get("budget_bytes").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(overload.get("ticks").and_then(|v| v.as_u64()), Some(5));
    assert_eq!(
        overload.get("over_budget").and_then(|v| v.as_u64()),
        Some(5)
    );
    assert!(overload.get("misses").is_none(), "no deadline, no misses");
}
