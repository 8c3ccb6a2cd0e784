//! Steady state allocates nothing on an engine thread.
//!
//! A counting global allocator sees every allocation in the process;
//! the thread that drives the engine marks itself exempt (it generates
//! the programs — the client's own memory), so what is counted is what
//! the `cc*` and `exec*` threads ask the allocator for. Recycled buffers
//! only ever grow, each when it first meets a footprint, a run or a
//! convoy larger than any it has held, so warming up is a finite number
//! of allocations whose last may come late; after it, `N` more commits
//! and `2N` more commits leave the count where it was. The test reads
//! the count every `N` commits and asks for two such windows in a row
//! within a bounded number of them: anything allocated per transaction,
//! even once in a thousand, never shows one. Frees are not counted: one
//! per commit remains, the client's `Program`, allocated by the submitter
//! and dropped on the execution thread (DESIGN.md, "Nothing is allocated
//! per transaction").
//!
//! The submitting thread's own allocations are counted apart, around the
//! submit calls themselves: entering an ingest lane allocates nothing,
//! one request or a queue of them.
//!
//! One `#[test]`, so that the harness's own threads sit still while it
//! runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus::common::TempDir;
use orthrus::core::{
    AdmissionPolicy, CcAssignment, DurabilityMode, EngineHandle, OrthrusConfig, OrthrusEngine,
    Session, TrySubmitError,
};
use orthrus::storage::tpcc::{TpccConfig, TpccDb};
use orthrus::storage::Table;
use orthrus::txn::{Database, Program};
use orthrus::workload::{Gen, MicroSpec, Spec, TpccSpec};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Const-initialised and without a destructor: reading it never
    /// allocates, so the allocator may.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
    /// What this thread allocated while exempt.
    static OWN: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if EXEMPT.try_with(Cell::get) == Ok(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    } else {
        let _ = OWN.try_with(|n| n.set(n.get() + 1));
    }
}

/// `f()`, and how many allocations the calling (exempt) thread made in it.
fn own_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = OWN.with(Cell::get);
    let out = f();
    (out, OWN.with(Cell::get) - before)
}

// SAFETY: every request goes to `System` unchanged; counting touches an
// atomic and a const-initialised thread-local only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Commits between two readings of the counter.
const N: u64 = 20_000;
/// Windows of `N` commits within which the two quiet ones must come.
const MAX_WINDOWS: usize = 25;
/// Submissions kept outstanding: more than the engine admits at once, so
/// its in-flight slots and admission queues stay full.
const WINDOW: u64 = 256;

/// A closed loop over one session: `WINDOW` outstanding, until `commits`
/// more have completed.
struct Driver {
    handle: EngineHandle,
    session: Session,
    gen: Gen,
    outstanding: u64,
    drained: Vec<orthrus::core::Completion>,
    /// Programs of the kinds the full mix adds, submitted so far.
    extension_programs: u64,
}

impl Driver {
    fn commit(&mut self, commits: u64) {
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut done = 0;
        while done < commits {
            while self.outstanding < WINDOW {
                let program = self.gen.next_program();
                let extension = matches!(
                    program,
                    Program::Delivery(_) | Program::StockLevel(_) | Program::OrderStatus(_)
                );
                match self.session.try_submit(program) {
                    Ok(_) => {
                        self.outstanding += 1;
                        self.extension_programs += u64::from(extension);
                    }
                    Err(TrySubmitError::Full(_)) => break,
                    Err(TrySubmitError::Shutdown(_)) => panic!("engine shut down"),
                }
            }
            let n = self.handle.drain_completions(&mut self.drained) as u64;
            self.drained.clear();
            self.outstanding -= n;
            done += n;
            if n == 0 {
                assert!(Instant::now() < deadline, "the engine stopped answering");
                std::thread::yield_now();
            }
        }
    }
}

/// Start the engine and read the allocation count every `N` commits.
/// Returns what the engine threads allocated in each window and how many
/// full-mix extension programs went in during it, stopping after two
/// windows in a row without an allocation, or after `at_most`.
fn windows(db: Database, cfg: OrthrusConfig, spec: Spec, at_most: usize) -> Vec<(u64, u64)> {
    let handle = OrthrusEngine::service(Arc::new(db), cfg).start(7);
    let mut driver = Driver {
        session: handle.session(),
        handle,
        gen: spec.generator(7, 0),
        outstanding: 0,
        drained: Vec::new(),
        extension_programs: 0,
    };
    let mut seen: Vec<(u64, u64)> = Vec::new();
    while seen.len() < at_most && !matches!(seen[..], [.., (0, _), (0, _)]) {
        let before = (
            ALLOCATIONS.load(Ordering::Relaxed),
            driver.extension_programs,
        );
        driver.commit(N);
        seen.push((
            ALLOCATIONS.load(Ordering::Relaxed) - before.0,
            driver.extension_programs - before.1,
        ));
    }
    driver.handle.shutdown();
    seen
}

/// `try_submit` and a queue submit allocate nothing: the lane push
/// stages a queue's run in a buffer sized for a full lane, and moves the
/// caller's programs, which it allocated beforehand.
fn submit_calls_allocate_nothing() {
    let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
    let db = Arc::new(Database::Flat(Table::new(1_000, 64)));
    let mut handle = OrthrusEngine::service(db, cfg).start(7);
    let session = handle.session();
    let rmw = |key: u64| Program::Rmw { keys: vec![key] };
    let mut queue: VecDeque<(u64, Program)> = VecDeque::with_capacity(64);
    let mut drained = Vec::with_capacity(1_024);
    for round in 0..4 {
        // Requests for both lanes, in runs of every length.
        queue.extend((0..64).map(|i| (i, rmw(i * i % 97))));
        let (taken, n) = own_allocations(|| session.try_submit_queue(&mut queue, 1));
        assert_eq!((taken, n), (Ok(64), 0), "queue submit, round {round}");
        let program = rmw(round);
        let (ticket, n) = own_allocations(|| session.try_submit(program));
        assert!(ticket.is_ok(), "round {round}: {ticket:?}");
        assert_eq!(n, 0, "try_submit, round {round}");
        // Both lanes drain before the next round.
        let deadline = Instant::now() + Duration::from_secs(10);
        while (drained.len() as u64) < session.accepted() {
            assert!(Instant::now() < deadline, "the engine stopped answering");
            handle.wait_completions(Duration::from_millis(10), || false);
            handle.drain_completions(&mut drained);
        }
    }
    handle.shutdown();
}

fn tpcc_config() -> TpccConfig {
    TpccConfig {
        customers_per_district: 300,
        order_slots_per_district: 512,
        items: 1_000,
        ..TpccConfig::with_warehouses(2)
    }
}

#[test]
fn steady_state_allocates_nothing_on_engine_threads() {
    EXEMPT.with(|e| e.set(true));
    submit_calls_allocate_nothing();
    type Case = (&'static str, fn() -> (Database, OrthrusConfig, Spec));
    let zero: [Case; 4] = [
        ("10-key Rmw, 2 CC + 1 exec, forwarding", || {
            let cfg = OrthrusConfig::with_threads(2, 1, CcAssignment::KeyModulo);
            assert!(cfg.forwarding);
            let spec = Spec::Micro(MicroSpec::uniform(20_000, 10, false));
            (Database::Flat(Table::new(20_000, 64)), cfg, spec)
        }),
        ("Transfer on ten accounts, fused runs", || {
            let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
            assert_eq!(cfg.admission, AdmissionPolicy::conflict_batch());
            let spec = Spec::Micro(MicroSpec::uniform(10, 2, false).with_transfers(100));
            (Database::Flat(Table::new(20_000, 64)), cfg, spec)
        }),
        // Every grant waits, so each execution thread stays at its floor
        // of sixteen in flight whatever the ceiling: 64 transfers queue
        // on ten accounts, one CC thread's convoys far deeper than
        // sixteen, and they live in its node slab.
        (
            "Transfer on ten accounts, FIFO, 4 exec, ceiling 256",
            || {
                let mut cfg = OrthrusConfig::with_threads(1, 4, CcAssignment::KeyModulo);
                cfg.max_inflight = 256;
                cfg.admission = AdmissionPolicy::Fifo;
                let spec = Spec::Micro(MicroSpec::uniform(10, 2, false).with_transfers(100));
                (Database::Flat(Table::new(20_000, 64)), cfg, spec)
            },
        ),
        ("TPC-C paper mix", || {
            let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::Warehouse);
            let spec = Spec::Tpcc(TpccSpec::paper_mix(tpcc_config()));
            (Database::Tpcc(TpccDb::load(tpcc_config(), 3)), cfg, spec)
        }),
    ];
    for (what, build) in zero {
        for durable in [false, true] {
            let dir = TempDir::new("alloc");
            let (db, mut cfg, spec) = build();
            if durable {
                cfg = cfg.with_durability(DurabilityMode::Log, dir.path());
            }
            let seen = windows(db, cfg, spec, MAX_WINDOWS);
            assert!(
                matches!(seen[..], [.., (0, _), (0, _)]),
                "{what}, log {durable}: no {N} commits and {N} more without an allocation \
                 on an engine thread; (allocations, extension programs) per window: {seen:?}"
            );
        }
    }

    // The full mix adds the three transactions whose footprint is read
    // from the database. Planning a Delivery allocates its per-district
    // estimate (`Annotation::Delivery`'s vector, which rides the plan);
    // executing a Delivery or a StockLevel allocates a working vector
    // (`txn::exec`: the legs; the distinct items seen, which grows as it
    // fills); a transaction whose estimate another one invalidated waits
    // for its retry in a vector of its own. That is a property of those
    // programs, not of the engine's path: a handful per extension
    // program, and nothing for the NewOrders and Payments around them.
    let cfg_full = tpcc_config().with_initial_orders(100);
    let seen = windows(
        Database::Tpcc(TpccDb::load(cfg_full, 3)),
        OrthrusConfig::with_threads(1, 1, CcAssignment::Warehouse),
        Spec::Tpcc(TpccSpec::full_mix(cfg_full)),
        3,
    );
    let &(allocations, extension) = seen.last().expect("at least one window");
    assert!(extension > N / 20, "12 % of the full mix: {seen:?}");
    assert!(
        0 < allocations && allocations <= 4 * extension,
        "full mix: (allocations, extension programs) per window of {N} commits: {seen:?}"
    );
}
