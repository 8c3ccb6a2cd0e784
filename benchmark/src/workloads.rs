//! The six workloads: what each one runs, and how its system under test
//! is set up, driven, shut down and checked.
//!
//! The engine shape is fixed per workload, never derived from `nproc`:
//! a result is comparable between two commits only if both ran the same
//! threads.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus_common::{HubBreakdown, RunStats, ThreadStats};
use orthrus_core::{
    AdmissionPolicy, CcAssignment, Completion, DurabilityMode, EngineHandle, OrthrusConfig,
    OrthrusEngine, Session, SyncInterval, Ticket, TrySubmitError,
};
use orthrus_net::{NetClient, NetConfig, NetServer};
use orthrus_part::{PartSession, PartitionedConfig, PartitionedEngine, PartitionedHandle};
use orthrus_storage::tpcc::{TpccConfig, TpccDb};
use orthrus_storage::Table;
use orthrus_txn::{Database, Program};
use orthrus_workload::{MicroSpec, PartitionConstraint, Spec, TpccSpec};

use crate::load::{
    drive, quiesce, Clock, InProc, Mode, Recorder, TcpConn, WindowRaw, NET_POLL_SPAN, NET_SEND_SPAN,
};
use crate::trace::Tracer;

pub const N_RECORDS: u64 = 200_000;
pub const RECORD_SIZE: usize = 100;
/// Partitions of `part_cross10`; also the map the `part.map.*` call
/// costs are taken on for every workload.
pub const PARTITIONS: usize = 2;
/// Connections of `tcp_zipf`: one driver thread each.
const TCP_CONNS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// `Session` + `EngineHandle`, one driver thread.
    Session,
    /// `PartSession` + `PartitionedHandle`, one driver thread.
    Part,
    /// `NetClient` connections to a `NetServer` on loopback.
    Tcp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `Program::Transfer` between 10 accounts.
    Payments,
    /// Uniform 10-key read-modify-write.
    Uniform,
    /// Scrambled-Zipf θ = 0.9 10-key read-modify-write.
    Zipf,
    /// 2 of 8 keys from a 64-key hot set; 10 % of transactions span
    /// both partitions.
    HotColdCross,
    /// TPC-C NewOrder + Payment, 2 warehouses.
    Tpcc,
}

/// What the counters must add up to once every transaction committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumRule {
    /// Transfers conserve money: the wrapping sum stays 0.
    Zero,
    /// Every commit bumps this many distinct counters by one.
    PerCommit(u64),
    /// Not a counter workload.
    None,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub door: Door,
    pub source: Source,
    pub n_cc: usize,
    pub conflict_batch: bool,
    /// `Off`, or `Log` for the durable workload (see the README on why
    /// the gated windows keep fsync off the commit path).
    pub durability: DurabilityMode,
    /// In-flight window per generator (per connection over TCP).
    pub window: usize,
    /// Open-loop rate, transactions per second over all generators:
    /// about 40 % of the workload's closed-loop capacity at the seed.
    pub paced_rate: u64,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "payments_hot10",
        why: "25x more transfers in flight than accounts: CC queueing and fused admission runs do all the work",
        door: Door::Session,
        source: Source::Payments,
        n_cc: 1,
        conflict_batch: true,
        durability: DurabilityMode::Off,
        window: 256,
        paced_rate: 150_000,
    },
    Workload {
        name: "uniform_rmw10",
        why: "no lock waits, batching off: only the per-transaction constant; a contention fix must not move it",
        door: Door::Session,
        source: Source::Uniform,
        n_cc: 2,
        conflict_batch: false,
        durability: DurabilityMode::Off,
        window: 64,
        paced_rate: 80_000,
    },
    Workload {
        name: "tpcc_w2",
        why: "the paper's workload: OLLP reconnaissance, real transaction logic, warehouse-partitioned CC",
        door: Door::Session,
        source: Source::Tpcc,
        n_cc: 1,
        conflict_batch: false,
        durability: DurabilityMode::Off,
        window: 64,
        paced_rate: 70_000,
    },
    Workload {
        name: "zipf_durable",
        why: "command log appended under held locks, then recovery: the only workload where durability does the work",
        door: Door::Session,
        source: Source::Zipf,
        n_cc: 1,
        conflict_batch: true,
        durability: DurabilityMode::Log,
        window: 256,
        paced_rate: 80_000,
    },
    Workload {
        name: "tcp_zipf",
        why: "2 loopback connections: codec, connection threads and wire batching do the work, the engine idles",
        door: Door::Tcp,
        source: Source::Zipf,
        n_cc: 1,
        conflict_batch: false,
        durability: DurabilityMode::Off,
        window: 64,
        paced_rate: 4_000,
    },
    Workload {
        name: "part_cross10",
        why: "2 partitions, 10% cross-partition: routing, ticket maps and the epoch barrier do the work",
        door: Door::Part,
        source: Source::HotColdCross,
        n_cc: 1,
        conflict_batch: false,
        durability: DurabilityMode::Off,
        window: 64,
        paced_rate: 80_000,
    },
];

impl Workload {
    pub fn spec(&self) -> Spec {
        match self.source {
            Source::Payments => Spec::Micro(MicroSpec::uniform(10, 2, false).with_transfers(100)),
            Source::Uniform => Spec::Micro(MicroSpec::uniform(N_RECORDS, 10, false)),
            Source::Zipf => Spec::Micro(MicroSpec::zipf(N_RECORDS, 10, 0.9, false)),
            Source::HotColdCross => Spec::Micro(
                MicroSpec::hot_cold(N_RECORDS, 64, 2, 8, false).with_constraint(
                    PartitionConstraint::MultiFraction {
                        pct: 10,
                        of: PARTITIONS as u32,
                    },
                ),
            ),
            Source::Tpcc => Spec::Tpcc(TpccSpec::paper_mix(tpcc_config())),
        }
    }

    pub fn sum_rule(&self) -> SumRule {
        match self.source {
            Source::Payments => SumRule::Zero,
            Source::Uniform | Source::Zipf => SumRule::PerCommit(10),
            Source::HotColdCross => SumRule::PerCommit(8),
            Source::Tpcc => SumRule::None,
        }
    }

    pub fn build_db(&self, seed: u64) -> Database {
        match self.source {
            Source::Tpcc => Database::Tpcc(TpccDb::load(tpcc_config(), seed)),
            _ => Database::Flat(Table::new(N_RECORDS as usize, RECORD_SIZE)),
        }
    }

    /// The engine every instance of this workload runs: `n_cc` CC
    /// threads and one execution thread.
    pub fn engine_config(&self, log_dir: &Path) -> OrthrusConfig {
        let assignment = match self.source {
            Source::Tpcc => CcAssignment::Warehouse,
            _ => CcAssignment::KeyModulo,
        };
        let mut cfg = OrthrusConfig::with_threads(self.n_cc, 1, assignment);
        if self.conflict_batch {
            cfg.admission = AdmissionPolicy::conflict_batch();
        }
        if self.durability.is_on() {
            cfg = cfg.with_durability(self.durability, log_dir);
            // Only `LogFsync` (the group-fsync probe) reads this.
            cfg.sync_interval = SyncInterval::Adaptive;
        }
        cfg
    }

    fn generators(&self) -> usize {
        match self.door {
            Door::Tcp => TCP_CONNS,
            _ => 1,
        }
    }
}

fn tpcc_config() -> TpccConfig {
    TpccConfig {
        customers_per_district: 300,
        order_slots_per_district: 512,
        ..TpccConfig::with_warehouses(2)
    }
}

pub struct EngineDoor {
    handle: EngineHandle,
    session: Session,
}

impl InProc for EngineDoor {
    const SUBMIT_SPAN: &'static str = "core.session.submit";
    const DRAIN_SPAN: &'static str = "core.session.drain";

    fn try_submit(&mut self, program: Program) -> Result<Ticket, TrySubmitError> {
        self.session.try_submit(program)
    }

    fn drain(&mut self, out: &mut Vec<Completion>) -> usize {
        self.handle.drain_completions(out)
    }
}

pub struct PartDoor {
    handle: PartitionedHandle,
    session: PartSession,
}

impl InProc for PartDoor {
    const SUBMIT_SPAN: &'static str = "part.session.submit";
    const DRAIN_SPAN: &'static str = "part.session.drain";

    fn try_submit(&mut self, program: Program) -> Result<Ticket, TrySubmitError> {
        self.session.try_submit(program)
    }

    fn drain(&mut self, out: &mut Vec<Completion>) -> usize {
        self.handle.drain_completions(out)
    }
}

/// A started system that has committed its first transaction.
enum Front {
    Engine(EngineDoor),
    Part(PartDoor),
    Tcp(NetServer, Vec<NetClient>),
}

pub struct SetUp {
    front: Front,
    /// One database per partition (one in all, except `part_cross10`).
    pub dbs: Vec<Arc<Database>>,
    /// Table build, engine/server start, connect and first commit.
    pub total_s: f64,
}

/// Submit `first` and wait for its completion.
fn first_commit<D: InProc>(door: &mut D, first: Program) -> Result<(), String> {
    door.try_submit(first)
        .map_err(|e| format!("first submission refused: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut out = Vec::new();
    while door.drain(&mut out) == 0 {
        if Instant::now() >= deadline {
            return Err("first transaction never completed".into());
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// Build the tables, start the system, connect, and commit `first`.
/// Everything the system does before it can serve is inside `total_s`;
/// generating `first` and clearing the log directory are the
/// benchmark's own work and happen outside it.
pub fn set_up(w: &Workload, seed: u64, log_dir: &Path, first: Program) -> Result<SetUp, String> {
    if w.durability.is_on() {
        let _ = std::fs::remove_dir_all(log_dir);
    }
    let started = Instant::now();
    let n_dbs = if w.door == Door::Part { PARTITIONS } else { 1 };
    let dbs: Vec<Arc<Database>> = (0..n_dbs).map(|_| Arc::new(w.build_db(seed))).collect();
    let cfg = w.engine_config(log_dir);
    let front = match w.door {
        Door::Session => {
            let handle = OrthrusEngine::service(Arc::clone(&dbs[0]), cfg).start(seed);
            let session = handle.session();
            let mut door = EngineDoor { handle, session };
            first_commit(&mut door, first)?;
            Front::Engine(door)
        }
        Door::Part => {
            let handle = PartitionedEngine::start(
                dbs.clone(),
                PartitionedConfig::new(PARTITIONS, cfg),
                seed,
            );
            let session = handle.session();
            let mut door = PartDoor { handle, session };
            first_commit(&mut door, first)?;
            Front::Part(door)
        }
        Door::Tcp => {
            let handle = OrthrusEngine::service(Arc::clone(&dbs[0]), cfg).start(seed);
            let server = NetServer::start(handle, NetConfig::default())
                .map_err(|e| format!("bind loopback: {e}"))?;
            let mut clients = (0..TCP_CONNS)
                .map(|_| NetClient::connect(server.addr()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("connect: {e}"))?;
            clients[0]
                .send_batch(vec![first])
                .and_then(|_| clients[0].recv_exact(1, Duration::from_secs(10), &mut Vec::new()))
                .map_err(|e| format!("first transaction over TCP: {e}"))?;
            Front::Tcp(server, clients)
        }
    };
    Ok(SetUp {
        front,
        dbs,
        total_s: started.elapsed().as_secs_f64(),
    })
}

impl SetUp {
    /// Stop a system that was only set up to be timed.
    pub fn discard(self) {
        match self.front {
            Front::Engine(mut d) => drop(d.handle.shutdown()),
            Front::Part(mut d) => drop(d.handle.shutdown()),
            Front::Tcp(server, clients) => {
                drop(clients);
                let (mut handle, _) = server.shutdown();
                handle.shutdown();
            }
        }
    }

    /// Attach generators, recorders and tracers: ready to drive.
    pub fn into_rig(self, w: &Workload, seed: u64, clock: Clock) -> Rig {
        let spec = w.spec();
        let inner = match self.front {
            Front::Engine(door) => RigKind::Engine(InProcRig::new(door, &spec, seed, clock)),
            Front::Part(door) => RigKind::Part(InProcRig::new(door, &spec, seed, clock)),
            Front::Tcp(server, clients) => RigKind::Tcp(
                Some(server),
                clients
                    .into_iter()
                    .enumerate()
                    .map(|(i, client)| TcpConn {
                        client,
                        gen: spec.generator(seed, i),
                        rec: Recorder::new(clock, NET_SEND_SPAN, NET_POLL_SPAN),
                        tr: Tracer::off(),
                    })
                    .collect(),
            ),
        };
        let mut rig = Rig {
            inner,
            window: w.window,
            generators: w.generators() as u64,
        };
        // The set-up's first commit used ticket (request id) 0.
        match &mut rig.inner {
            RigKind::Engine(r) => r.rec.note_external(),
            RigKind::Part(r) => r.rec.note_external(),
            RigKind::Tcp(_, conns) => conns[0].rec.note_external(),
        }
        rig
    }
}

struct InProcRig<D: InProc> {
    door: D,
    gen: orthrus_workload::Gen,
    rec: Recorder,
    tr: Tracer,
}

impl<D: InProc> InProcRig<D> {
    fn new(door: D, spec: &Spec, seed: u64, clock: Clock) -> Self {
        InProcRig {
            door,
            gen: spec.generator(seed, 0),
            rec: Recorder::new(clock, D::SUBMIT_SPAN, D::DRAIN_SPAN),
            tr: Tracer::off(),
        }
    }

    fn window(&mut self, mode: Mode, window: usize, dur: Duration) -> Result<WindowRaw, String> {
        drive(
            &mut self.door,
            &mut self.gen,
            &mut self.rec,
            &mut self.tr,
            mode,
            window,
            dur,
        );
        if !quiesce(
            &mut self.door,
            &mut self.rec,
            &mut self.tr,
            Duration::from_secs(10),
        ) {
            return Err(format!("{} tickets never completed", self.rec.inflight));
        }
        Ok(self.rec.end_window())
    }
}

enum RigKind {
    Engine(InProcRig<EngineDoor>),
    Part(InProcRig<PartDoor>),
    Tcp(Option<NetServer>, Vec<TcpConn>),
}

/// A running system with its load generators attached.
pub struct Rig {
    inner: RigKind,
    window: usize,
    generators: u64,
}

/// The exactly-once audit over every generator of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Audit {
    pub accepted: u64,
    pub completed: u64,
    pub anomalies: u64,
    pub rejected: u64,
}

impl Audit {
    /// Submissions refused for a reason other than backpressure, plus
    /// tickets that did not complete exactly once.
    pub fn wrong(&self) -> u64 {
        let never_completed = self.accepted - self.completed.min(self.accepted);
        self.rejected + self.anomalies + never_completed
    }
}

/// What shutting the system down returned.
pub struct Stopped {
    pub stats: RunStats,
    pub net: ThreadStats,
    pub hub: Vec<HubBreakdown>,
    /// Submissions the system itself counts as accepted.
    pub engine_accepted: u64,
    pub shutdown_s: f64,
    pub audit: Audit,
    pub tracer: Tracer,
}

impl Rig {
    /// Run one window in `mode` (`rate` 0 = closed loop) and wait until
    /// nothing is in flight.
    pub fn window(&mut self, rate: u64, dur: Duration) -> Result<WindowRaw, String> {
        let mode = |offset: u64| match rate {
            0 => Mode::Closed,
            rate => Mode::Paced {
                rate,
                stride: self.generators,
                offset,
            },
        };
        let window = self.window;
        match &mut self.inner {
            RigKind::Engine(r) => r.window(mode(0), window, dur),
            RigKind::Part(r) => r.window(mode(0), window, dur),
            RigKind::Tcp(_, conns) => {
                // A common start a little ahead, so the connections'
                // buckets line up.
                let start_ns = conns[0].rec.clock.now_ns() + 2_000_000;
                std::thread::scope(|s| {
                    let threads: Vec<_> = conns
                        .iter_mut()
                        .enumerate()
                        .map(|(i, conn)| {
                            let mode = mode(i as u64);
                            s.spawn(move || {
                                conn.drive(mode, window, start_ns, dur)
                                    .map(|()| conn.rec.end_window())
                            })
                        })
                        .collect();
                    let mut merged: Option<WindowRaw> = None;
                    for t in threads {
                        let raw = t
                            .join()
                            .map_err(|_| "TCP driver thread panicked".to_string())?
                            .map_err(|e| format!("TCP connection failed: {e}"))?;
                        match &mut merged {
                            Some(m) => m.merge(raw),
                            None => merged = Some(raw),
                        }
                    }
                    merged.ok_or_else(|| "no TCP connection".to_string())
                })
            }
        }
    }

    /// Switch span and call recording on (fresh buffers) or off.
    pub fn set_tracing(&mut self, on: bool) {
        let fresh = || if on { Tracer::on() } else { Tracer::off() };
        match &mut self.inner {
            RigKind::Engine(r) => r.tr = fresh(),
            RigKind::Part(r) => r.tr = fresh(),
            RigKind::Tcp(_, conns) => conns.iter_mut().for_each(|c| c.tr = fresh()),
        }
    }

    /// Shut the system down (timed), collect what it still owed, and
    /// return its statistics with the generators' audit.
    pub fn shutdown(self) -> Stopped {
        fn in_proc<D: InProc>(
            mut r: InProcRig<D>,
            stop: impl FnOnce(&mut D) -> (RunStats, u64),
        ) -> Stopped {
            let started = Instant::now();
            let (stats, engine_accepted) = stop(&mut r.door);
            let shutdown_s = started.elapsed().as_secs_f64();
            quiesce(&mut r.door, &mut r.rec, &mut r.tr, Duration::ZERO);
            Stopped {
                hub: stats.hub.clone(),
                stats,
                net: ThreadStats::default(),
                engine_accepted,
                shutdown_s,
                audit: audit([&r.rec]),
                tracer: r.tr,
            }
        }
        match self.inner {
            RigKind::Engine(r) => in_proc(r, |d| (d.handle.shutdown(), d.handle.accepted())),
            RigKind::Part(r) => in_proc(r, |d| (d.handle.shutdown(), d.handle.accepted())),
            RigKind::Tcp(server, conns) => {
                let server = server.expect("shutdown is once");
                let audit = audit(conns.iter().map(|c| &c.rec));
                let mut tracer = match conns.iter().any(|c| c.tr.enabled()) {
                    true => Tracer::on(),
                    false => Tracer::off(),
                };
                // Dropping a connection closes its socket.
                for c in conns {
                    if tracer.enabled() {
                        tracer.absorb(c.tr);
                    }
                }
                let started = Instant::now();
                let hub = vec![server.hub().breakdown()];
                let (mut handle, net) = server.shutdown();
                let stats = handle.shutdown();
                Stopped {
                    stats,
                    net,
                    hub,
                    engine_accepted: handle.accepted(),
                    shutdown_s: started.elapsed().as_secs_f64(),
                    audit,
                    tracer,
                }
            }
        }
    }
}

fn audit<'a>(recs: impl IntoIterator<Item = &'a Recorder>) -> Audit {
    let mut a = Audit::default();
    for r in recs {
        a.accepted += r.accepted;
        a.completed += r.completed;
        a.anomalies += r.anomalies;
        a.rejected += r.rejected;
    }
    a
}

/// Wrapping sum of every counter, each key read from the partition that
/// owns it. Call only after shutdown: nothing holds a lock any more.
pub fn counter_sum(dbs: &[Arc<Database>]) -> u64 {
    (0..N_RECORDS).fold(0u64, |sum, key| {
        let owner = &dbs[(key % dbs.len() as u64) as usize];
        // SAFETY: every engine thread has been joined, so this thread is
        // the only one touching the tables.
        sum.wrapping_add(unsafe { owner.read_counter(key) })
    })
}

/// Whether two flat tables hold the same bytes, record for record.
pub fn tables_equal(a: &Database, b: &Database) -> bool {
    let (Database::Flat(a), Database::Flat(b)) = (a, b) else {
        return false;
    };
    if a.len() != b.len() {
        return false;
    }
    let (mut ra, mut rb) = (vec![0u8; RECORD_SIZE], vec![0u8; RECORD_SIZE]);
    (0..a.len()).all(|rid| {
        // SAFETY: both engines are shut down; no other thread exists
        // that could write either table.
        unsafe {
            a.store().read_into(rid, &mut ra);
            b.store().read_into(rid, &mut rb);
        }
        ra == rb
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_programs_its_sum_rule_describes() {
        for w in &WORKLOADS {
            let mut gen = w.spec().generator(7, 0);
            for _ in 0..200 {
                let p = gen.next_program();
                match (w.sum_rule(), &p) {
                    (SumRule::Zero, Program::Transfer { from, to, .. }) => {
                        assert!(*from < 10 && *to < 10 && from != to)
                    }
                    (SumRule::PerCommit(n), Program::Rmw { keys }) => {
                        assert_eq!(keys.len() as u64, n, "{}", w.name);
                        assert!(keys.iter().all(|&k| k < N_RECORDS));
                    }
                    (SumRule::None, Program::NewOrder(_) | Program::Payment(_)) => {}
                    (rule, p) => panic!("{}: {rule:?} does not describe {p:?}", w.name),
                }
            }
        }
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        for w in &WORKLOADS {
            let (mut a, mut b) = (w.spec().generator(11, 0), w.spec().generator(11, 0));
            let mut other = w.spec().generator(12, 0);
            let mut differs = false;
            for _ in 0..50 {
                let p = a.next_program();
                assert_eq!(p, b.next_program(), "{}", w.name);
                differs |= p != other.next_program();
            }
            assert!(differs, "{}: the seed must drive the generator", w.name);
        }
    }

    #[test]
    fn engine_shapes_are_fixed_per_workload() {
        let dir = Path::new("unused");
        for w in &WORKLOADS {
            let cfg = w.engine_config(dir);
            assert_eq!((cfg.n_cc, cfg.n_exec), (w.n_cc, 1), "{}", w.name);
            assert_eq!(cfg.durability, w.durability);
            cfg.validate().expect(w.name);
        }
    }
}
