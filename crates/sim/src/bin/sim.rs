//! The simulation harness CLI.
//!
//! ```text
//! sim explore --seeds N [--base B] [--txns T] [--guided] [--verbose]
//! sim run --seed S [--budget B] [--txns T] [--keep I,J,K] [--plan SPEC] [--trace]
//! sim crash --seeds N [--base B]
//! sim coverage --seeds N [--base B] [--txns T] [--out FILE]
//! sim net --seeds N [--base B]
//! sim part --seeds N [--base B]
//! ```
//!
//! `explore` sweeps seeds and exits nonzero if any run violates an
//! invariant, printing each failure with its shrunken transaction list,
//! minimized fault budget, and a replayable trace tail; `--guided`
//! biases every seed's scheduler toward handoff transitions the sweep
//! has not covered yet. `run` replays one reproduction line. `crash`
//! sweeps the mid-run crash-restart corpus (kill one engine thread,
//! recover in-sim; see `orthrus_sim::crash`). `coverage` runs the same
//! seed range uniform *and* guided and fails unless guidance covered
//! strictly more transitions — the CI gate for the guided picker. `net`
//! sweeps the TCP front-door corpus, `part` the partitioned-deployment
//! corpus.

use orthrus_sim::{
    explore, run_crash_sim, run_net_sim, run_part_sim, run_sim, CrashSimConfig, FaultPlan,
    NetSimConfig, PartSimConfig, SimConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  sim explore --seeds N [--base B] [--txns T] [--guided] [--verbose]\n  \
         sim run --seed S [--budget B] [--txns T] [--keep I,J,K] [--plan SPEC] [--trace]\n  \
         sim crash --seeds N [--base B]\n  \
         sim coverage --seeds N [--base B] [--txns T] [--out FILE]\n  \
         sim net --seeds N [--base B]\n  \
         sim part --seeds N [--base B]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a valid argument");
        usage()
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage());
    let mut seeds: Option<u64> = None;
    let mut base: u64 = 1;
    let mut seed: Option<u64> = None;
    let mut budget: Option<u64> = None;
    let mut txns: Option<usize> = None;
    let mut keep: Option<Vec<u32>> = None;
    let mut plan: Option<FaultPlan> = None;
    let mut out_file: Option<String> = None;
    let mut trace = false;
    let mut verbose = false;
    let mut guided = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seeds" => seeds = Some(parse(&flag, args.next())),
            "--base" => base = parse(&flag, args.next()),
            "--seed" => seed = Some(parse(&flag, args.next())),
            "--budget" => budget = Some(parse(&flag, args.next())),
            "--txns" => txns = Some(parse(&flag, args.next())),
            "--keep" => {
                let list: String = parse(&flag, args.next());
                let parsed: Result<Vec<u32>, _> = list.split(',').map(str::parse::<u32>).collect();
                keep = Some(parsed.unwrap_or_else(|_| {
                    eprintln!("--keep wants a comma-separated index list, got {list:?}");
                    usage()
                }));
            }
            "--plan" => {
                let spec: String = parse(&flag, args.next());
                plan = Some(spec.parse().unwrap_or_else(|e| {
                    eprintln!("--plan: {e}");
                    usage()
                }));
            }
            "--out" => out_file = Some(parse(&flag, args.next())),
            "--trace" => trace = true,
            "--verbose" => verbose = true,
            "--guided" => guided = true,
            _ => usage(),
        }
    }

    match cmd.as_str() {
        "explore" => {
            let count = seeds.unwrap_or_else(|| usage());
            let report = explore(base, count, txns, verbose, guided);
            let mode = if guided { "guided" } else { "uniform" };
            let plateau = if report.plateau {
                " (coverage plateaued — consider a different corpus)"
            } else {
                ""
            };
            if report.ok() {
                println!(
                    "explored {} seeds ({base}..{}, {mode}, {} at depth ≥ 16): all invariants \
                     held, {} transitions covered{plateau}",
                    report.seeds_run,
                    base + count,
                    report.deep_seeds,
                    report.transitions_covered,
                );
            } else {
                for failure in &report.failures {
                    println!("{failure}");
                }
                println!(
                    "explored {} seeds ({mode}, {} transitions covered{plateau}): {} FAILED",
                    report.seeds_run,
                    report.transitions_covered,
                    report.failures.len()
                );
                std::process::exit(1);
            }
        }
        "run" => {
            let seed = seed.unwrap_or_else(|| usage());
            let mut cfg = SimConfig::from_seed(seed);
            if let Some(t) = txns {
                cfg.txns = t;
            }
            if let Some(p) = plan {
                cfg.plan = p;
            }
            if let Some(b) = budget {
                cfg.plan = cfg.plan.with_budget(b);
            }
            cfg.keep = keep;
            let out = run_sim(&cfg, trace);
            println!(
                "seed {seed}: {} steps, {} faults, {} committed, trace hash {:#018x}",
                out.steps, out.perturbations, out.committed, out.trace_hash
            );
            if trace {
                print!("{}", out.report.render_tail(&out.thread_names, 40));
            }
            if !out.violations.is_empty() {
                for v in &out.violations {
                    println!("violation: {v}");
                }
                std::process::exit(1);
            }
        }
        "crash" => {
            let count = seeds.unwrap_or_else(|| usage());
            let (mut failed, mut fired, mut deep) = (0u64, 0u64, 0u64);
            for seed in base..base + count {
                let cfg = CrashSimConfig::from_seed(seed);
                deep += u64::from(cfg.max_inflight >= 16);
                let victim = cfg
                    .plan
                    .crash
                    .as_ref()
                    .map_or_else(|| "?".to_string(), |c| c.victim.clone());
                let out = run_crash_sim(&cfg, false);
                println!(
                    "seed {seed}: {} steps, victim {victim}, crashed={}, {} replayed",
                    out.steps, out.crashed, out.replayed
                );
                for v in &out.violations {
                    println!("violation: {v}");
                }
                fired += u64::from(out.crashed);
                failed += u64::from(!out.violations.is_empty());
            }
            if failed > 0 {
                println!("crash corpus: {failed} of {count} seeds FAILED");
                std::process::exit(1);
            }
            println!(
                "crash corpus: {count} seeds ({base}..{}, {deep} at depth ≥ 16): {fired} \
                 crashes fired and recovered, all invariants held",
                base + count
            );
        }
        "coverage" => {
            let count = seeds.unwrap_or_else(|| usage());
            let uniform = explore(base, count, txns, false, false);
            let guided_sweep = explore(base, count, txns, false, true);
            let lines = format!(
                "coverage at {count} seeds (base {base}):\n  uniform: {} transitions\n  \
                 guided:  {} transitions\n  uniform growth: {:?}\n  guided growth:  {:?}\n",
                uniform.transitions_covered,
                guided_sweep.transitions_covered,
                uniform.growth,
                guided_sweep.growth,
            );
            print!("{lines}");
            if let Some(path) = out_file {
                if let Err(e) = std::fs::write(&path, &lines) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
            }
            if !uniform.ok() || !guided_sweep.ok() {
                println!("coverage: invariant FAILURES during the sweeps");
                std::process::exit(1);
            }
            if guided_sweep.transitions_covered <= uniform.transitions_covered {
                println!(
                    "coverage: guided sweep must cover strictly more transitions \
                     than uniform at equal seeds"
                );
                std::process::exit(1);
            }
            println!("coverage: guided strictly exceeds uniform");
        }
        "net" => {
            let count = seeds.unwrap_or_else(|| usage());
            let (mut failed, mut deep) = (0u64, 0u64);
            for seed in base..base + count {
                let cfg = NetSimConfig::from_seed(seed);
                deep += u64::from(cfg.max_inflight >= 16);
                let out = run_net_sim(&cfg);
                println!(
                    "seed {seed}: {} steps, {} faults, {} committed, {} delivered over TCP, \
                     {} transitions",
                    out.steps,
                    out.perturbations,
                    out.committed,
                    out.delivered,
                    out.report.transitions.len()
                );
                for v in &out.violations {
                    println!("violation: {v}");
                }
                failed += u64::from(!out.violations.is_empty());
            }
            if failed > 0 {
                println!("net corpus: {failed} of {count} seeds FAILED");
                std::process::exit(1);
            }
            println!(
                "net corpus: {count} seeds ({base}..{}, {deep} at depth ≥ 16): \
                 all invariants held",
                base + count
            );
        }
        "part" => {
            let count = seeds.unwrap_or_else(|| usage());
            let (mut failed, mut deep) = (0u64, 0u64);
            for seed in base..base + count {
                let cfg = PartSimConfig::from_seed(seed);
                deep += u64::from(cfg.max_inflight >= 16);
                let out = run_part_sim(&cfg);
                println!(
                    "seed {seed}: {} steps, {} faults, {} accepted ({} cross-partition), \
                     {} epochs logged, {} transitions",
                    out.steps,
                    out.perturbations,
                    out.accepted,
                    out.cross,
                    out.epochs_logged,
                    out.report.transitions.len()
                );
                for v in &out.violations {
                    println!("violation: {v}");
                }
                failed += u64::from(!out.violations.is_empty());
            }
            if failed > 0 {
                println!("part corpus: {failed} of {count} seeds FAILED");
                std::process::exit(1);
            }
            println!(
                "part corpus: {count} seeds ({base}..{}, {deep} at depth ≥ 16): \
                 all invariants held",
                base + count
            );
        }
        _ => usage(),
    }
}
