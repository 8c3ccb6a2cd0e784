//! Criterion microbenches for durability rung 2: the device-flush
//! amortization of the cross-thread group-fsync coordinator, and
//! recovery's replay throughput.
//!
//! - `append_fsync_per_run`: rung 1's inline discipline — every
//!   appended run pays its own `fdatasync` before returning.
//! - `append_group_commit`: the appender only publishes its watermark;
//!   a background coordinator coalesces outstanding appends into one
//!   flush, and the bench waits for its record's LSN to be covered —
//!   the full append→durable round trip a committing exec thread sees.
//! - `replay_serial`: recovery throughput over a pre-built log (one
//!   serial pass in log order, the only replay there is).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use orthrus_common::TempDir;
use orthrus_durability::{recover, run_sync_coordinator, CommandLog, DurabilityMode, LoggedCommit};
use orthrus_storage::Table;
use orthrus_txn::{Database, Program};

fn commit(ticket: u64, keys: Vec<u64>) -> LoggedCommit {
    LoggedCommit {
        ticket: Some(ticket),
        program: Program::Rmw { keys },
    }
}

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("log_append");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.throughput(Throughput::Elements(1));

    g.bench_function("append_fsync_per_run", |b| {
        let t = TempDir::new("bench-log-perrun");
        let log = CommandLog::open(t.path(), DurabilityMode::LogFsync).unwrap();
        let mut ticket = 0u64;
        b.iter(|| {
            let mut batch = vec![commit(ticket, vec![ticket % 64, (ticket + 1) % 64])];
            ticket += 1;
            std::hint::black_box(log.append_run(&mut batch).unwrap());
        });
    });
    g.finish();

    // A burst of outstanding appends, then one wait for the last LSN —
    // the shape the coordinator actually sees (several exec threads'
    // appends in flight per flush). A single append-then-wait loop
    // would instead measure the solo worst case: one transaction
    // paying a whole coordinator pause alone.
    const BURST: u64 = 16;
    let mut gb = c.benchmark_group("log_append_burst");
    gb.sample_size(20);
    gb.measurement_time(std::time::Duration::from_secs(2));
    gb.warm_up_time(std::time::Duration::from_millis(300));
    gb.throughput(Throughput::Elements(BURST));
    gb.bench_function("append_group_commit", |b| {
        let t = TempDir::new("bench-log-group");
        let log = Arc::new(
            CommandLog::open(t.path(), DurabilityMode::LogFsync)
                .unwrap()
                .with_group_sync(true),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let coord = {
            let (log, stop) = (Arc::clone(&log), Arc::clone(&stop));
            std::thread::spawn(move || run_sync_coordinator(&log, &stop))
        };
        let mut ticket = 0u64;
        b.iter(|| {
            let mut last = 0;
            for _ in 0..BURST {
                let mut batch = vec![commit(ticket, vec![ticket % 64, (ticket + 1) % 64])];
                ticket += 1;
                last = log.append_run(&mut batch).unwrap().lsn;
            }
            // Wait for durability, as a gated exec completion would;
            // yield so the coordinator gets the core on small hosts.
            while log.sync_state().synced() < last {
                std::thread::yield_now();
            }
        });
        stop.store(true, Ordering::Release);
        let stats = coord.join().unwrap();
        std::hint::black_box(stats);
    });
    gb.finish();
}

fn bench_replay(c: &mut Criterion) {
    const RECORDS: u64 = 4096;
    let t = TempDir::new("bench-log-replay");
    {
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        for i in 0..RECORDS {
            let mut batch = vec![commit(i, vec![i % 97, (i * 31) % 97])];
            log.append_run(&mut batch).unwrap();
        }
        log.sync().unwrap();
    }

    let mut g = c.benchmark_group("log_replay");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.throughput(Throughput::Elements(RECORDS));

    g.bench_function("replay_serial", |b| {
        b.iter(|| {
            let db = Database::Flat(Table::new(128, 64));
            let report = recover(&db, t.path()).unwrap();
            assert_eq!(report.txns, RECORDS);
            std::hint::black_box(report);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_append, bench_replay);
criterion_main!(benches);
