//! `scuba-sim` — command-line driver for the SCUBA continuous-query
//! engine.
//!
//! Subcommands, all operating on a [`SimConfig`] assembled from a
//! JSON config file (`--config sim.json`) and/or individual flag
//! overrides:
//!
//! * `simulate` — run SCUBA over a generated workload and print one line
//!   per evaluation interval (optionally incremental `+added/-removed`
//!   deltas instead of full counts);
//! * `compare` — run SCUBA and the paper's REGULAR grid baseline over the
//!   identical workload and print a comparison table plus a
//!   result-equality verdict;
//! * `shed` — sweep load-shedding levels and print the time/accuracy
//!   trade-off;
//! * `render` — draw an ASCII map of the final cluster state;
//! * `serve` — long-lived supervised loop with durable checkpoints, a
//!   write-ahead journal, crash recovery, and periodic health lines.
//!
//! The binary is a thin `main`; everything is implemented (and tested)
//! here in the library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod commands;
pub mod config;

pub use config::SimConfig;

/// Entry point shared by the binary and the tests: parses `args` (without
/// the program name) and runs the selected command, writing human-readable
/// output to `out`.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage());
    };
    match command.as_str() {
        "simulate" => {
            let (config, opts) = config::SimConfig::from_args(rest)?;
            commands::simulate::run(&config, &opts, out).map_err(|e| e.to_string())
        }
        "compare" => {
            let (config, opts) = config::SimConfig::from_args(rest)?;
            commands::compare::run(&config, &opts, out).map_err(|e| e.to_string())
        }
        "shed" => {
            let (config, opts) = config::SimConfig::from_args(rest)?;
            commands::shed::run(&config, &opts, out).map_err(|e| e.to_string())
        }
        "render" => {
            let (config, opts) = config::SimConfig::from_args(rest)?;
            commands::render::run(&config, &opts, out).map_err(|e| e.to_string())
        }
        "serve" => {
            let (config, opts) = config::SimConfig::from_args(rest)?;
            commands::serve::run(&config, &opts, out).map_err(|e| e.to_string())
        }
        "record" => {
            let (config, opts) = config::SimConfig::from_args(rest)?;
            commands::record::run(&config, &opts, out).map_err(|e| e.to_string())
        }
        "city" => {
            let (config, opts) = config::SimConfig::from_args(rest)?;
            commands::city::run(&config, &opts, out).map_err(|e| e.to_string())
        }
        "help" | "--help" | "-h" => out.write_all(usage().as_bytes()).map_err(|e| e.to_string()),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
scuba-sim — SCUBA continuous spatio-temporal query engine (EDBT 2006 reproduction)

USAGE:
    scuba-sim <COMMAND> [OPTIONS]

COMMANDS:
    simulate    run SCUBA over a generated workload
    compare     SCUBA vs the REGULAR baseline over the same workload
    shed        sweep load-shedding levels (time / accuracy trade-off)
    render      draw an ASCII map of the final cluster state
    serve       durable supervised loop (checkpoints + WAL, crash recovery)
    record      capture a generated workload as a replayable trace file
    city        describe the synthetic city (stats; --out exports edge list)
    help        show this message

OPTIONS (all commands):
    --config <FILE>      JSON config (see SimConfig; flags override it)
    --objects <N>        number of moving objects
    --queries <N>        number of range queries
    --skew <N>           entities per behaviour group
    --grid <N>           grid cells per side
    --delta <N>          evaluation interval in time units
    --duration <N>       simulated time units
    --range <F>          query range side, spatial units
    --seed <N>           workload seed
    --theta-d <F>        clustering distance threshold
    --theta-s <F>        clustering speed threshold
    --eta <F>            load-shedding nucleus fraction η (0 = off, 1 = full)
    --shards <N>         stripe-owned executor shards (1 = single store;
                         the way to ingest in parallel); N > 1 refuses
                         --eta, --validate, --deadline-us and --budget
    --validate <POLICY>  ingestion hardening: off|reject|clamp|abort
    --deadline-us <N>    per-evaluation deadline budget in µs; misses
                         escalate load shedding adaptively (simulate)
    --budget <BYTES>     adaptive shedding memory budget (simulate)
    --out <FILE>         trace output path (record); ndjson event log (serve)
    --trace <FILE>       replay updates from a trace (simulate, compare)
    --snapshot-out <F>   write an engine snapshot after the run (simulate)
    --snapshot-in <F>    restore the engine from a snapshot first (simulate)
    --deltas             print incremental +added/-removed (simulate)
    --json               machine-readable output
    --checkpoint-dir <D> durable state directory (serve; required there)
    --checkpoint-every <N> ticks between checkpoints (serve; default 8)
    --max-restarts <N>   worker restart budget before aborting (serve)
    --panic-prob <F>     injected worker panic probability, fault drills (serve)
    --dead-letter-out <F> export quarantined updates as JSON on shutdown
                         (simulate, serve; needs --validate)
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_spatial::json::{self, Json};

    fn run_to_string(args: &[&str]) -> Result<String, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run_to_string(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn no_command_is_an_error() {
        assert!(run_to_string(&[]).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&["help"]).unwrap();
        assert!(out.contains("simulate"));
        assert!(out.contains("compare"));
        assert!(out.contains("shed"));
    }

    #[test]
    fn simulate_smoke() {
        let out = run_to_string(&[
            "simulate",
            "--objects",
            "60",
            "--queries",
            "40",
            "--duration",
            "4",
        ])
        .unwrap();
        assert!(out.contains("t="), "expected per-interval lines: {out}");
        assert!(out.contains("clusters"));
    }

    #[test]
    fn simulate_with_deltas() {
        let out = run_to_string(&[
            "simulate",
            "--objects",
            "60",
            "--queries",
            "40",
            "--duration",
            "4",
            "--deltas",
        ])
        .unwrap();
        assert!(out.contains('+'), "expected delta output: {out}");
    }

    #[test]
    fn compare_reports_identical_results() {
        let out = run_to_string(&[
            "compare",
            "--objects",
            "80",
            "--queries",
            "60",
            "--duration",
            "4",
        ])
        .unwrap();
        assert!(out.contains("SCUBA"));
        assert!(out.contains("REGULAR"));
        assert!(out.contains("identical: true"), "{out}");
    }

    #[test]
    fn shed_sweeps_levels() {
        let out = run_to_string(&[
            "shed",
            "--objects",
            "80",
            "--queries",
            "60",
            "--duration",
            "4",
        ])
        .unwrap();
        assert!(out.contains("100"), "expected maintained% rows: {out}");
        assert!(out.contains("accuracy"));
    }

    #[test]
    fn simulate_with_validation_reports_dead_letters() {
        let out = run_to_string(&[
            "simulate",
            "--objects",
            "60",
            "--queries",
            "40",
            "--duration",
            "4",
            "--validate",
            "reject",
        ])
        .unwrap();
        // A well-formed generated workload: everything is accepted.
        assert!(out.contains("validation(reject)"), "{out}");
        assert!(out.contains("0 rejected"), "{out}");
        assert!(out.contains("validate"), "stage row present: {out}");
    }

    #[test]
    fn simulate_with_deadline_reports_overload() {
        let out = run_to_string(&[
            "simulate",
            "--objects",
            "60",
            "--queries",
            "40",
            "--duration",
            "4",
            "--deadline-us",
            "1000000",
        ])
        .unwrap();
        assert!(out.contains("overload(deadline=1000000µs)"), "{out}");
        assert!(out.contains("ticks"), "{out}");
        assert!(out.contains("overload-control"), "stage row present: {out}");
    }

    #[test]
    fn bad_params_exit_with_message() {
        let err = run_to_string(&["simulate", "--theta-d", "-3"]).unwrap_err();
        assert!(err.contains("theta_d must be positive"), "{err}");
        let err = run_to_string(&["simulate", "--deadline-us", "0"]).unwrap_err();
        assert!(err.contains("deadline_us"), "{err}");
        let err = run_to_string(&["simulate", "--validate", "sometimes"]).unwrap_err();
        assert!(err.contains("unknown validation policy"), "{err}");
    }

    #[test]
    fn json_output_parses() {
        let out = run_to_string(&[
            "simulate",
            "--objects",
            "40",
            "--queries",
            "30",
            "--duration",
            "4",
            "--json",
        ])
        .unwrap();
        let value = json::parse(&out).expect("valid json");
        assert!(value.get("evaluations").is_some());
    }

    #[test]
    fn render_draws_a_map() {
        let out = run_to_string(&[
            "render",
            "--objects",
            "100",
            "--queries",
            "60",
            "--duration",
            "4",
        ])
        .unwrap();
        assert!(out.contains("cluster map"), "{out}");
        assert!(out.contains("legend"));
        // The frame is present and the canvas holds cluster glyphs.
        assert!(out.lines().filter(|l| l.starts_with('|')).count() >= 20);
        assert!(out.contains('o') || out.contains('q') || out.contains('#'));
    }

    #[test]
    fn record_then_replay_matches_live_run() {
        let dir = std::env::temp_dir().join("scuba-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.sctr");
        let path_str = path.to_str().unwrap();
        let flags = ["--objects", "80", "--queries", "60", "--duration", "4"];

        // Record the deterministic workload.
        let mut record_args = vec!["record", "--out", path_str];
        record_args.extend_from_slice(&flags);
        let out = run_to_string(&record_args).unwrap();
        assert!(out.contains("recorded 4 ticks"), "{out}");

        // Live run vs trace replay must agree exactly (JSON comparison).
        let mut live_args = vec!["simulate", "--json"];
        live_args.extend_from_slice(&flags);
        let live = run_to_string(&live_args).unwrap();
        let mut replay_args = vec!["simulate", "--json", "--trace", path_str];
        replay_args.extend_from_slice(&flags);
        let replay = run_to_string(&replay_args).unwrap();
        // Wall-clock fields (`join_us`, the stages' `wall_us`, …) differ
        // run to run; everything else must match.
        fn strip_timings(v: &mut Json) {
            match v {
                Json::Obj(fields) => {
                    fields.retain(|(key, _)| !key.ends_with("_us"));
                    fields.iter_mut().for_each(|(_, v)| strip_timings(v));
                }
                Json::Arr(items) => items.iter_mut().for_each(strip_timings),
                _ => {}
            }
        }
        let strip = |text: &str| {
            let mut v = json::parse(text).unwrap();
            strip_timings(&mut v);
            v
        };
        assert_eq!(strip(&live), strip(&replay));
        assert!(strip(&live).get("evaluations").is_some());
    }

    #[test]
    fn record_without_out_is_an_error() {
        let err = run_to_string(&["record", "--objects", "10", "--queries", "10"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn snapshot_out_then_in_resumes() {
        let dir = std::env::temp_dir().join("scuba-cli-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.ckpt");
        let path_str = path.to_str().unwrap();
        let flags = ["--objects", "80", "--queries", "60", "--duration", "4"];

        let mut save_args = vec!["simulate", "--snapshot-out", path_str];
        save_args.extend_from_slice(&flags);
        run_to_string(&save_args).unwrap();
        assert!(path.exists());

        // Resume from the snapshot: the engine starts with live clusters.
        let mut resume_args = vec!["simulate", "--snapshot-in", path_str, "--json"];
        resume_args.extend_from_slice(&flags);
        let out = run_to_string(&resume_args).unwrap();
        let v = json::parse(&out).unwrap();
        assert!(v.get("clusters_final").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn snapshot_in_refuses_json_and_sharded_checkpoints() {
        let dir = std::env::temp_dir().join("scuba-cli-snap-refuse");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let flags = ["--objects", "40", "--queries", "30", "--duration", "2"];
        let resume = |path: &std::path::Path| {
            let mut args = vec!["simulate", "--snapshot-in", path.to_str().unwrap()];
            args.extend_from_slice(&flags);
            run_to_string(&args).unwrap_err()
        };

        // The JSON engine snapshots of older builds are not checkpoints.
        let old = dir.join("engine.json");
        std::fs::write(&old, r#"{"params": {}, "area": {}, "clusters": []}"#).unwrap();
        let err = resume(&old);
        assert!(err.contains("not a checkpoint file"), "{err}");

        // A two-stripe checkpoint cannot seed the single-store engine.
        let stripe = scuba::EngineSnapshot::capture(&scuba::clustering::ClusterEngine::new(
            scuba::ScubaParams::default(),
            scuba_spatial::Rect::square(100.0),
        ));
        let sharded = dir.join("sharded.ckpt");
        let bytes = scuba::durability::encode_checkpoint(
            4,
            &[stripe.clone(), stripe],
            &scuba::QueryRegistry::default(),
        );
        std::fs::write(&sharded, bytes).unwrap();
        let err = resume(&sharded);
        assert!(err.contains("2 stripe snapshots"), "{err}");
    }

    #[test]
    fn serve_checkpoint_seeds_simulate() {
        let dir = std::env::temp_dir().join("scuba-cli-serve-seeds-simulate");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let flags = ["--objects", "80", "--queries", "60", "--duration", "4"];
        let mut serve = vec!["serve", "--checkpoint-dir", dir.to_str().unwrap()];
        serve.extend_from_slice(&["--checkpoint-every", "2"]);
        serve.extend_from_slice(&flags);
        run_to_string(&serve).unwrap();
        let checkpoint = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .max()
            .expect("serve wrote a checkpoint");

        let mut resume = vec!["simulate", "--json", "--snapshot-in"];
        resume.push(checkpoint.to_str().unwrap());
        resume.extend_from_slice(&flags);
        let v = json::parse(&run_to_string(&resume).unwrap()).unwrap();
        assert!(v.get("clusters_final").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn non_finite_range_is_an_invalid_workload() {
        for range in ["NaN", "inf", "-inf"] {
            let err = run_to_string(&["simulate", "--range", range]).unwrap_err();
            assert!(err.contains("invalid workload"), "{range}: {err}");
        }
    }

    #[test]
    fn compare_over_trace_still_identical() {
        let dir = std::env::temp_dir().join("scuba-cli-cmp-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cmp.sctr");
        let path_str = path.to_str().unwrap();
        let flags = ["--objects", "80", "--queries", "60", "--duration", "4"];
        let mut rec = vec!["record", "--out", path_str];
        rec.extend_from_slice(&flags);
        run_to_string(&rec).unwrap();

        let mut cmp = vec!["compare", "--trace", path_str];
        cmp.extend_from_slice(&flags);
        let out = run_to_string(&cmp).unwrap();
        assert!(out.contains("identical: true"), "{out}");
        let regular_row = format!("{:<24}", "REGULAR");
        assert!(out.lines().any(|l| l.starts_with(&regular_row)), "{out}");
    }

    #[test]
    fn serve_requires_checkpoint_dir() {
        let err = run_to_string(&["serve", "--objects", "10", "--queries", "10"]).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
    }

    #[test]
    fn serve_fresh_then_resume_over_same_dir() {
        let dir = std::env::temp_dir().join("scuba-cli-serve-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap().to_string();
        let args = [
            "serve",
            "--objects",
            "60",
            "--queries",
            "40",
            "--duration",
            "6",
            "--checkpoint-dir",
            &dir_str,
            "--checkpoint-every",
            "2",
        ];

        let first = run_to_string(&args).unwrap();
        assert!(first.contains("fresh start"), "{first}");
        assert!(first.contains("served 6 ticks"), "{first}");
        assert!(first.contains("health t="), "{first}");

        // A second run over the same directory resumes from durable state
        // instead of starting over.
        let second = run_to_string(&args).unwrap();
        assert!(second.contains("resumed from durable state"), "{second}");
        assert!(second.contains("served 6 ticks"), "{second}");
    }

    #[test]
    fn serve_exports_dead_letters() {
        let dir = std::env::temp_dir().join("scuba-cli-serve-dl-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("state");
        let dl = dir.join("dead.json");
        let out = run_to_string(&[
            "serve",
            "--objects",
            "40",
            "--queries",
            "30",
            "--duration",
            "4",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--validate",
            "reject",
            "--dead-letter-out",
            dl.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("exported"), "{out}");
        let text = std::fs::read_to_string(&dl).unwrap();
        // A well-formed generated workload yields an empty (but valid) array.
        assert!(text.trim_start().starts_with('['), "{text}");
    }

    #[test]
    fn city_reports_stats_and_exports() {
        let dir = std::env::temp_dir().join("scuba-cli-city-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("city.edges");
        let out = run_to_string(&["city", "--out", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("connection nodes"), "{out}");
        assert!(out.contains("highway share"));
        // The exported edge list names nodes and edges.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().any(|l| l.starts_with("n 0 ")), "{text}");
        assert!(text.lines().any(|l| l.starts_with("e ")), "{text}");

        let json = run_to_string(&["city", "--json"]).unwrap();
        let v = json::parse(&json).unwrap();
        assert_eq!(v.get("connected"), Some(&Json::Bool(true)));
        assert_eq!(v.get("length_by_class").unwrap().items().len(), 3);
    }
}
