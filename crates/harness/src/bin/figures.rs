//! CLI to regenerate any figure of the paper:
//!
//! ```text
//! cargo run --release -p orthrus-harness --bin figures -- fig08 fig09
//! cargo run --release -p orthrus-harness --bin figures -- all
//! ```
//!
//! Scales come from `ORTHRUS_*` environment variables (see
//! `orthrus_harness::BenchConfig`).

use orthrus_harness::{ablations, figures, BenchConfig};

const ALL: &[&str] = &[
    "fig01", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "abl01", "abl02", "abl03", "abl05", "abl06", "abl08", "abl09", "abl10", "abl11", "abl12",
    "ext01", "ext02", "ext03", "ext04", "ext05", "ext06",
];

fn run_one(id: &str, bc: &BenchConfig) {
    match id {
        "fig01" => figures::fig01_2pl_readonly(bc).print(),
        "fig04" => {
            println!("== panel (a): 10 threads ==");
            figures::fig04_deadlock_overhead(bc, 10).print();
            println!("== panel (b): 80 threads ==");
            figures::fig04_deadlock_overhead(bc, 80).print();
        }
        "fig05" => figures::fig05_thread_allocation(bc).print(),
        "fig06" => figures::fig06_multipartition_count(bc).print(),
        "fig07" => figures::fig07_multipartition_fraction(bc).print(),
        "fig08" => figures::fig08_tpcc_warehouses(bc).print(),
        "fig09" => figures::fig09_tpcc_scalability(bc).print(),
        "fig10" => {
            let rows = figures::fig10_breakdown(bc);
            print!("{}", figures::BreakdownRow::render(&rows));
        }
        "fig11" => {
            figures::fig11_ycsb_readonly(bc, false).print();
            figures::fig11_ycsb_readonly(bc, true).print();
        }
        "fig12" => {
            figures::fig12_ycsb_rmw(bc, false).print();
            figures::fig12_ycsb_rmw(bc, true).print();
        }
        "abl01" => ablations::abl01_forwarding(bc).print(),
        "abl02" => ablations::abl02_queue_capacity(bc).print(),
        "abl03" => ablations::abl03_inflight_cap(bc).print(),
        "abl05" => ablations::abl05_batching(bc).print(),
        "abl06" => ablations::abl06_admission(bc).print(),
        "abl08" => ablations::abl08_openloop(bc).print(),
        "abl09" => ablations::abl09_durability(bc).print(),
        "abl10" => ablations::abl10_durability2(bc).print(),
        "abl11" => ablations::abl11_net(bc).print(),
        "abl12" => ablations::abl12_partition(bc).print(),
        "ext01" => figures::ext01_tpcc_fullmix(bc).print(),
        "ext02" => figures::ext02_fullmix_scalability(bc).print(),
        "ext03" => {
            println!("== panel (a): 10 threads ==");
            figures::ext03_deadlock_policies(bc, 10).print();
            println!("== panel (b): 80 threads ==");
            figures::ext03_deadlock_policies(bc, 80).print();
        }
        "ext04" => figures::ext04_skew(bc).print(),
        "ext05" => figures::ext05_cc_split(bc).print(),
        "ext06" => {
            let rows = figures::ext06_latency(bc);
            print!(
                "{}",
                figures::LatencyRow::render(&rows, "commit latency, high-contention 10RMW")
            );
        }
        other => unreachable!("{other:?} was checked against ALL before any run"),
    }
    println!();
}

fn main() {
    let bc = BenchConfig::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: figures <figNN|ablNN|all> ...");
        eprintln!("known ids: {ALL:?}");
        std::process::exit(2);
    }
    // Every id is checked before anything runs: a script that names a
    // removed figure fails at once instead of printing the others and
    // exiting 0.
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && !ALL.contains(&a.as_str()))
    {
        eprintln!("unknown figure id {bad:?}; known: {ALL:?} or 'all'");
        std::process::exit(2);
    }
    for arg in &args {
        if arg == "all" {
            for id in ALL {
                run_one(id, &bc);
            }
        } else {
            run_one(arg, &bc);
        }
    }
}
