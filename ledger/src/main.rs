//! `scuba-ledger run` / `scuba-ledger diff` — see README.md.

use std::path::PathBuf;
use std::process::ExitCode;

use scuba_ledger::report::{self, RunSummary};
use scuba_ledger::run::{default_out_dir, run_workload, RunOptions};
use scuba_ledger::workload::{self, WorkloadSpec, DEFAULT_SEED, HELD_OUT_SEED};
use scuba_ledger::{diff, host, json};

const USAGE: &str = "\
scuba-ledger — the SCUBA performance ledger

USAGE:
  scuba-ledger run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
                   [--repeat N] [--scale F] [--ticks N] [--out-dir DIR] [--out FILE]
  scuba-ledger diff A.json B.json
  scuba-ledger list

run    Generates each workload from its seed, drives the real loop, checks
       the answers against the oracle and prints every metric by name with
       its unit. The last line of standard output is one JSON object:
       end-to-end metrics untraced, per-layer metrics with --trace.
       A seed selects the window of the workload's trajectory that is
       measured. Without --workload every workload runs; --repeat N runs
       seeds S, S+1, … and records each value (what `diff` needs for
       spreads). A traced run splits --seconds between an untraced and a
       traced pass over the same ticks.
       --scale shrinks populations for smoke use and is never recorded;
       --ticks fixes the timed ticks instead of deriving them from --seconds.
diff   Compares two result files; exits 1 if any end-to-end metric regressed.
list   Prints the workloads and why each exists, and the default and the
       held-out seed with the window each selects.
";

struct RunArgs {
    workload: Option<String>,
    repeat: u64,
    out_file: Option<PathBuf>,
    opts: RunOptions,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse '{value}'"))
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        repeat: 1,
        out_file: None,
        opts: RunOptions {
            seed: DEFAULT_SEED,
            seconds: 10,
            scale: 1.0,
            ticks: None,
            trace: false,
            out_dir: default_out_dir(),
        },
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        i += 2;
        match flag {
            "--workload" => parsed.workload = Some(parse_value(flag, value)?),
            "--seed" => parsed.opts.seed = parse_value(flag, value)?,
            "--seconds" => {
                parsed.opts.seconds = parse_value(flag, value)?;
                if !(1..=60).contains(&parsed.opts.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--scale" => {
                parsed.opts.scale = parse_value(flag, value)?;
                if !(parsed.opts.scale > 0.0 && parsed.opts.scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            "--ticks" => parsed.opts.ticks = Some(parse_value(flag, value)?),
            "--repeat" => parsed.repeat = parse_value::<u64>(flag, value)?.max(1),
            "--out-dir" => parsed.opts.out_dir = parse_value(flag, value)?,
            "--out" => parsed.out_file = Some(parse_value(flag, value)?),
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => match value.map(String::as_str) {
                Some("0") => parsed.opts.trace = false,
                Some("1") => parsed.opts.trace = true,
                _ => {
                    parsed.opts.trace = true;
                    i -= 1;
                }
            },
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args = parse_run_args(args)?;
    let specs: Vec<WorkloadSpec> = match &args.workload {
        Some(name) => vec![workload::by_name(name).ok_or_else(|| {
            let known: Vec<_> = workload::all().iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (known: {})", known.join(", "))
        })?],
        None => workload::all(),
    };
    // The durable `k2` workload starts two stripe workers; never start
    // more threads than the host has cores.
    for spec in &specs {
        if spec.params.shards > host::nproc() {
            return Err(format!(
                "{} needs {} cores, the host has {}",
                spec.name,
                spec.params.shards,
                host::nproc()
            )
            .into());
        }
    }
    std::fs::create_dir_all(&args.opts.out_dir)?;

    let mut all_correct = true;
    let mut summaries: Vec<(WorkloadSpec, Vec<RunSummary>)> = Vec::new();
    let mut last_line = String::new();
    for spec in specs {
        let mut runs = Vec::new();
        for r in 0..args.repeat {
            let opts = RunOptions {
                seed: args.opts.seed + r,
                ..args.opts.clone()
            };
            let summary = RunSummary::of(&run_workload(spec, &opts)?);
            print!("{}", report::render_run(&spec, &summary));
            all_correct &= summary.failed == 0;
            last_line = report::contract_line(&summary, opts.trace);
            runs.push(summary);
        }
        summaries.push((spec, runs));
    }

    // Free exactness check when both durable workloads ran: identical
    // input, so identical per-cycle answers at any stripe count.
    let crcs_of = |name: &str| {
        summaries
            .iter()
            .find(|(s, _)| s.name == name)
            .map(|(_, runs)| runs.iter().map(|r| &r.crcs).collect::<Vec<_>>())
    };
    if let (Some(k1), Some(k2)) = (crcs_of("serve_churn_k1"), crcs_of("serve_churn_k2")) {
        if k1 == k2 {
            println!("serve_churn_k1 and serve_churn_k2 emitted identical per-cycle result CRCs");
        } else {
            println!("FAILED: serve_churn_k2's per-cycle result CRCs differ from serve_churn_k1's");
            all_correct = false;
        }
    }

    let sections = summaries
        .iter()
        .map(|(spec, runs)| report::workload_json(spec, runs))
        .collect();
    let doc = report::result_json(host::fingerprint(), &args.opts, args.repeat, sections);
    let out_file = args
        .out_file
        .unwrap_or_else(|| args.opts.out_dir.join("ledger-result.json"));
    if let Some(parent) = out_file.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&out_file, doc.pretty())?;
    println!("result file: {}", out_file.display());
    println!("{last_line}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let [a, b] = args else {
        return Err("diff takes exactly two result files".into());
    };
    let load = |path: &String| -> Result<json::Json, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let rows = diff::compare(&load(a)?, &load(b)?)?;
    print!("{}", diff::render(&rows));
    Ok(if diff::any_regressed(&rows) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("list") => {
            for w in workload::all() {
                println!("{:<16} {}", w.name, w.why);
                println!(
                    "{:<16} window from tick {} (default seed {DEFAULT_SEED}), {} (held-out seed {HELD_OUT_SEED})",
                    "",
                    w.window(DEFAULT_SEED).start,
                    w.window(HELD_OUT_SEED).start
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("help" | "--help" | "-h") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}").into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
