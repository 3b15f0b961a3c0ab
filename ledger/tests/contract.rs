//! The benchmark contract: `BENCHMARK.json` and the binary agree on the
//! workloads and metrics, and the binary's last line has the shape the
//! driver reads.

use std::path::{Path, PathBuf};
use std::process::Command;

use scuba_ledger::json::{self, Json};
use scuba_ledger::metrics::{contract_end_to_end, Bound, MetricDef, END_TO_END, PER_LAYER};
use scuba_ledger::workload;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(table: &Json) -> Vec<&str> {
    table
        .items()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap())
        .collect()
}

fn assert_table(listed: &Json, catalogue: &[&MetricDef], bounded: bool) {
    assert_eq!(
        names(listed),
        catalogue.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (row, def) in listed.items().iter().zip(catalogue) {
        let keys: Vec<&str> = row.fields().iter().map(|(k, _)| k.as_str()).collect();
        let expected: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys, expected, "{}", def.name);
        assert_eq!(
            row.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            row.get("better").and_then(Json::as_str),
            Some(def.better.label()),
            "{}",
            def.name
        );
        assert_eq!(
            row.get("bound").and_then(Json::as_f64).map(Bound::Share),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let end_to_end: Vec<_> = contract_end_to_end().collect();
    assert_table(doc.get("end_to_end").unwrap(), &end_to_end, true);
    let per_layer: Vec<_> = PER_LAYER.iter().collect();
    assert_table(doc.get("per_layer").unwrap(), &per_layer, false);

    // `serve_churn_k2` is the one workload the driver does not gate on: it
    // refuses a benchmark whose ten-seed spread exceeds a bound, and two
    // stripe workers on the reference host's two cores spread 20-27 %
    // (README, "Observed spread"). The ledger itself runs and diffs it.
    let listed = doc.get("workloads").unwrap().items();
    let known: Vec<_> = workload::all()
        .into_iter()
        .filter(|w| w.name != "serve_churn_k2")
        .collect();
    assert_eq!(listed.len(), known.len());
    for (row, spec) in listed.iter().zip(&known) {
        assert_eq!(row.get("name").and_then(Json::as_str), Some(spec.name));
        assert_eq!(row.get("why").and_then(Json::as_str), Some(spec.why));
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }

    let paths: Vec<_> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["ledger"]);
    let command: Vec<_> = doc
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.contains(&"ledger/Cargo.toml") && command.last() == Some(&"run"));
    // Built on the stand-ins: the driver's checkout has no registry.
    assert!(command.contains(&"ledger/offline/config.toml"));
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds));
}

fn ledger(args: &[&str], out_dir: &Path) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_scuba-ledger"))
        .args(args)
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("the ledger binary runs");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("output is UTF-8"),
    )
}

#[test]
fn last_line_is_the_contract_object() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("contract-cli");
    let end_to_end: Vec<MetricDef> = contract_end_to_end().copied().collect();
    for (trace, printed, table) in [
        ("0", END_TO_END, end_to_end.as_slice()),
        ("1", PER_LAYER, PER_LAYER),
    ] {
        let (ok, stdout) = ledger(
            &[
                "run",
                "--workload",
                "hotspot_join",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--scale",
                "0.03",
                "--trace",
                trace,
            ],
            &out_dir,
        );
        assert!(ok, "{stdout}");
        // Every metric is printed by name with its unit …
        for def in printed {
            assert!(
                stdout.contains(def.name),
                "{} missing from the table",
                def.name
            );
        }
        // … and the last line is one JSON object with exactly these keys.
        let last = json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = last.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed"), Some(&Json::Int(0)));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = last.get("metrics").unwrap();
        let reported: Vec<&str> = metrics.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(reported, table.iter().map(|m| m.name).collect::<Vec<_>>());
        for (def, (_, value)) in table.iter().zip(metrics.fields()) {
            assert!(
                value.get("value").and_then(Json::as_f64).is_some(),
                "{}",
                def.name
            );
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(def.unit));
        }
    }
}

#[test]
fn result_files_diff_against_themselves_cleanly() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("contract-diff");
    let file = out_dir.join("a.json");
    let (ok, stdout) = ledger(
        &[
            "run",
            "--workload",
            "serve_churn_k1",
            "--seed",
            "4",
            "--ticks",
            "40",
            "--scale",
            "0.03",
            "--repeat",
            "2",
            "--trace",
            "--out",
            file.to_str().unwrap(),
        ],
        &out_dir,
    );
    assert!(ok, "{stdout}");
    let doc = json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    // Self-contained: fingerprint, seed, scale and per-percentile samples.
    for key in [
        "cpu_model",
        "nproc",
        "rustc",
        "cargo_features",
        "git_commit",
    ] {
        assert!(doc.get("host").unwrap().get(key).is_some(), "host.{key}");
    }
    assert_eq!(doc.get("claim"), Some(&Json::Null));
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(4.0));
    let p95 = doc.get("workloads").unwrap().items()[0]
        .get("end_to_end")
        .unwrap()
        .items()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("cycle_ms_p95"))
        .unwrap();
    assert_eq!(p95.get("values").unwrap().items().len(), 2);
    assert!(p95
        .get("samples")
        .unwrap()
        .items()
        .iter()
        .all(|s| s.as_f64() > Some(0.0)));

    let path = file.to_str().unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_scuba-ledger"))
        .args(["diff", path, path])
        .output()
        .unwrap();
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "{text}");
    assert!(
        text.contains("0 regressed") && text.contains("0 counts changed"),
        "{text}"
    );
}
