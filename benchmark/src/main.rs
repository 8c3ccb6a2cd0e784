//! `orthrus-benchmark`: the fixed suite behind `BENCHMARK.json`.
//!
//! ```text
//! orthrus-benchmark [--workload <name>] [--seed <n>] [--seconds <n>]
//!                   [--trace [0|1]] [--repeat <n>] [--smoke]
//! ```
//!
//! With `--trace 0` a run prints the gated end-to-end metrics; with
//! `--trace 1` (or a bare `--trace`) the per-layer metrics, and writes
//! `benchmark/out/trace-<workload>.json`. Without `--trace` it does both
//! passes. Without `--workload` it runs all six. The last line printed
//! for a workload is one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! run's context (`nproc`, git revision, seed, log directory).

mod layers;
mod load;
mod names;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use names::{Metrics, END_TO_END, RUN_SECONDS};
use run::{run_pass, Outcome, Pass};
use workloads::{Workload, WORKLOADS};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes.
    trace: Option<bool>,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: None,
        repeat: 0,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {name:?}; known: {}", known.join(", "))
                    })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
            }
            // One-second windows: exercises the harness and every
            // output check in seconds; the numbers mean nothing.
            "--smoke" => args.seconds = 3.0,
            "--trace" => {
                args.trace = Some(match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Best effort: the checkout the driver runs in is not a git repository.
fn git_revision() -> String {
    let root = run::bench_dir().join("..");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(root.join(".git/HEAD")) else {
        return "unknown".into();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(root.join(".git").join(reference))
            .map_or_else(|| reference.to_string(), |rev| rev.trim().to_string()),
        None => head.trim().to_string(),
    }
}

fn metrics_json(tables: &[&Metrics]) -> String {
    let rows: Vec<String> = tables
        .iter()
        .flat_map(|m| m.iter())
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Run the asked-for passes of one workload and print its context and
/// result lines. Returns whether everything was correct.
fn run_and_print(w: &Workload, args: &Args) -> bool {
    let passes: &[Pass] = match args.trace {
        Some(false) => &[Pass::EndToEnd],
        Some(true) => &[Pass::Traced],
        None => &[Pass::EndToEnd, Pass::Traced],
    };
    let mut outcomes: Vec<Outcome> = Vec::new();
    for &pass in passes {
        match run_pass(w, args.seed, args.seconds, pass) {
            Ok(outcome) => outcomes.push(outcome),
            Err(why) => {
                eprintln!("{}: {why}", w.name);
                return false;
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"why\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"git\": \"{}\", \"log_dir\": \"{}\", \"paced_samples\": {}}}}}",
        w.name,
        w.why,
        args.seed,
        args.seconds,
        git_revision(),
        if w.durability.is_on() {
            "benchmark/out (in the checkout)"
        } else {
            "none"
        },
        outcomes[0].paced_samples,
    );
    let correct = outcomes.iter().all(|o| o.failed == 0);
    let tables: Vec<&Metrics> = outcomes.iter().map(|o| &o.metrics).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics_json(&tables)
    );
    correct
}

/// `--repeat n`: run the end-to-end pass n times and report, per gated
/// metric, median, quartiles, and whether max − min stays inside the
/// declared bound — the "same code agrees with itself" check.
fn repeat_and_print(w: &Workload, args: &Args) -> bool {
    let mut runs: Vec<Metrics> = Vec::new();
    for i in 0..args.repeat {
        match run_pass(w, args.seed, args.seconds, Pass::EndToEnd) {
            Ok(o) if o.failed == 0 => runs.push(o.metrics),
            Ok(o) => {
                eprintln!(
                    "{}: run {i}: {} of {} failed",
                    w.name, o.failed, o.attempted
                );
                return false;
            }
            Err(why) => {
                eprintln!("{}: run {i}: {why}", w.name);
                return false;
            }
        }
    }
    for def in END_TO_END {
        let values: Vec<f64> = runs.iter().map(|m| m.get(def.name)).collect();
        let med = stats::median(&values);
        let (q1, q3) = stats::quartiles(&values);
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let range_share = stats::ratio(max - min, med);
        let inside = range_share <= def.bound;
        println!(
            "{{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"runs\": {}, \
             \"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"iqr_share\": {}, \"min\": {min}, \
             \"max\": {max}, \"range_share\": {range_share}, \"bound\": {}, \"inside_bound\": {inside}}}",
            w.name,
            def.name,
            def.unit,
            def.better,
            values.len(),
            stats::ratio(q3 - q1, med),
            def.bound,
        );
    }
    true
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("orthrus-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut ok = true;
    for w in selected {
        ok &= if args.repeat > 0 {
            repeat_and_print(w, &args)
        } else {
            run_and_print(w, &args)
        };
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
