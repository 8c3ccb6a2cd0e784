//! The isolation oracle: every committed transaction's reads must match
//! a serial replay.
//!
//! Conservation checks cannot see a transaction that ran without one of
//! its locks: RMW increments commute, so the final counters come out
//! right whatever order the increments landed in. A fused run makes that
//! failure easy to write — one key missing from the union footprint —
//! so the oracle checks reads, not totals.
//!
//! Under the scheduler every CC thread stamps the grant that completes a
//! lock set with the next number of one global sequence
//! ([`orthrus_common::sim::on_grant`]), and every execution thread
//! records, per ticket it commits, the stamp of the lock set it ran
//! under and a digest of the values it read
//! ([`orthrus_common::sim::on_commit`]). Locks are held from that grant
//! until after execution, so two transactions that conflict execute in
//! stamp order; members of one fused run share a stamp and execute back
//! to back. Replaying the tickets serially in stamp order on a fresh
//! database must therefore reproduce every digest. The stamp is the
//! grant's, not the execution's: under the scheduler a run executes
//! between two scheduling points, so an execution-order replay would
//! agree with itself whatever the locks did.
//!
//! A mismatch names the first ticket, in stamp order, whose reads differ,
//! and the first key of its footprint on which the execution order and
//! the stamp order disagree.

use std::collections::HashMap;

use orthrus_common::rng::XorShift64;
use orthrus_txn::{execute, plan_accesses, Database, Program, Unguarded};

use crate::run::{build_db, WorkloadKind};
use crate::sched::Committed;

/// Replay `commits` (execution order, as [`crate::SchedReport::commits`]
/// lists them) serially in grant-stamp order on a fresh `workload`
/// database, with each ticket's program from `programs`, and return the
/// first violation.
pub fn check(
    commits: &[Committed],
    programs: &HashMap<u64, Program>,
    workload: WorkloadKind,
) -> Result<(), String> {
    for c in commits {
        if !programs.contains_key(&c.ticket) {
            return Err(format!(
                "isolation: ticket {} committed but was never submitted",
                c.ticket
            ));
        }
        if c.stamp == Some(None) {
            return Err(format!(
                "isolation: ticket {} committed under a lock set no CC thread granted",
                c.ticket
            ));
        }
    }
    let db = build_db(workload);
    // Serial order: by stamp; a run's members keep their execution order
    // (the sort is stable). Lock-free transactions read nothing: first.
    let mut serial: Vec<usize> = (0..commits.len()).collect();
    serial.sort_by_key(|&i| commits[i].stamp.flatten());
    // Each footprint is planned against the replay's state just before
    // the ticket runs: the state a correctly locked execution saw.
    let mut footprints: HashMap<u64, Vec<u64>> = HashMap::new();
    for (pos, &i) in serial.iter().enumerate() {
        let c = &commits[i];
        let program = &programs[&c.ticket];
        let keys = footprint(program, &db);
        if c.stamp.is_none() && !keys.is_empty() {
            return Err(format!(
                "isolation: ticket {} touched records without a lock set",
                c.ticket
            ));
        }
        footprints.insert(c.ticket, keys);
        let got = execute(program, &db, &mut Unguarded, None).map_err(|e| {
            format!(
                "isolation: ticket {} aborts in the serial replay: {e:?}",
                c.ticket
            )
        })?;
        if got != c.digest {
            // The tickets not replayed yet are planned against the state
            // the replay stopped at.
            for &k in &serial[pos + 1..] {
                let t = commits[k].ticket;
                footprints.insert(t, footprint(&programs[&t], &db));
            }
            return Err(mismatch(commits, &serial, pos, &footprints));
        }
    }
    Ok(())
}

/// The keys `program` locks when planned against `db` as it stands.
fn footprint(program: &Program, db: &Database) -> Vec<u64> {
    let plan = plan_accesses(program, db, 0, &mut XorShift64::new(1));
    plan.accesses.entries().iter().map(|&(k, _)| k).collect()
}

/// Explain the first mismatch, the ticket at `serial[pos]`: the first key
/// of its footprint whose earlier transactions differ between execution
/// order and stamp order.
fn mismatch(
    commits: &[Committed],
    serial: &[usize],
    pos: usize,
    footprints: &HashMap<u64, Vec<u64>>,
) -> String {
    let me = serial[pos];
    let ticket = commits[me].ticket;
    let touches = |i: usize, key: u64| footprints[&commits[i].ticket].contains(&key);
    for &key in &footprints[&ticket] {
        let mut ran: Vec<u64> = (0..me)
            .filter(|&i| touches(i, key))
            .map(|i| commits[i].ticket)
            .collect();
        let mut granted_before: Vec<u64> = serial[..pos]
            .iter()
            .filter(|&&i| touches(i, key))
            .map(|&i| commits[i].ticket)
            .collect();
        ran.sort_unstable();
        granted_before.sort_unstable();
        if ran != granted_before {
            return format!(
                "isolation: ticket {ticket} read values a serial replay in grant order does not \
                 reproduce; on key {key} it executed after tickets {ran:?}, its grant came \
                 after tickets {granted_before:?}"
            );
        }
    }
    format!(
        "isolation: ticket {ticket} read values a serial replay in grant order does not \
         reproduce, though every key of its footprint saw the same predecessors"
    )
}

#[cfg(test)]
mod tests {
    use orthrus_storage::tpcc::TpccLayout;
    use orthrus_txn::{CustomerSelector, PaymentInput};

    use super::*;

    /// Execute `order` (tickets) live on a fresh micro database and
    /// record each commit with the stamp `stamps[ticket]`.
    fn live(programs: &HashMap<u64, Program>, order: &[u64], stamps: &[u64]) -> Vec<Committed> {
        live_on(WorkloadKind::MicroHot, programs, order, stamps)
    }

    /// [`live`] on a fresh `workload` database.
    fn live_on(
        workload: WorkloadKind,
        programs: &HashMap<u64, Program>,
        order: &[u64],
        stamps: &[u64],
    ) -> Vec<Committed> {
        let db = build_db(workload);
        order
            .iter()
            .map(|&t| Committed {
                ticket: t,
                stamp: Some(Some(stamps[t as usize])),
                digest: execute(&programs[&t], &db, &mut Unguarded, None).unwrap(),
            })
            .collect()
    }

    fn programs() -> HashMap<u64, Program> {
        HashMap::from([
            (0, Program::Rmw { keys: vec![1, 2] }),
            (1, Program::Rmw { keys: vec![2, 3] }),
            (2, Program::Rmw { keys: vec![4] }),
        ])
    }

    #[test]
    fn grant_order_that_matches_execution_passes() {
        let p = programs();
        // Ticket 2 conflicts with nobody: its stamp may fall anywhere.
        let commits = live(&p, &[0, 2, 1], &[0, 1, 2]);
        assert_eq!(check(&commits, &p, WorkloadKind::MicroHot), Ok(()));
        let commits = live(&p, &[2, 0, 1], &[1, 2, 0]);
        assert_eq!(check(&commits, &p, WorkloadKind::MicroHot), Ok(()));
    }

    #[test]
    fn a_conflict_executed_against_grant_order_names_ticket_and_key() {
        let p = programs();
        // Ticket 1 executed first though its grant came after ticket
        // 0's: ticket 0, first in grant order, read on key 2 a value
        // the serial order does not produce.
        let commits = live(&p, &[1, 0], &[0, 1]);
        let err = check(&commits, &p, WorkloadKind::MicroHot).unwrap_err();
        assert!(
            err.contains("ticket 0 ") && err.contains("key 2 it executed after tickets [1]"),
            "{err}"
        );
    }

    /// Two Payments in different districts share only the warehouse
    /// row, whose ytd each folds into its result: executed against grant
    /// order, the first in grant order is named, on the warehouse key.
    #[test]
    fn payments_executed_against_grant_order_name_the_warehouse() {
        let payment = |d, c| {
            Program::Payment(PaymentInput {
                w: 0,
                d,
                amount_cents: 100 + u64::from(d),
                customer: CustomerSelector::ById { c_w: 0, c_d: d, c },
            })
        };
        let p = HashMap::from([(0, payment(0, 3)), (1, payment(1, 4))]);
        let commits = live_on(WorkloadKind::Tpcc, &p, &[0, 1], &[0, 1]);
        assert_eq!(check(&commits, &p, WorkloadKind::Tpcc), Ok(()));
        let commits = live_on(WorkloadKind::Tpcc, &p, &[1, 0], &[0, 1]);
        let err = check(&commits, &p, WorkloadKind::Tpcc).unwrap_err();
        let warehouse = TpccLayout::warehouse_key_of(0);
        assert!(
            err.contains("ticket 0 ") && err.contains(&format!("key {warehouse} ")),
            "{err}"
        );
    }

    #[test]
    fn an_ungranted_lock_set_is_reported() {
        let p = programs();
        let mut commits = live(&p, &[0], &[0]);
        commits[0].stamp = Some(None);
        let err = check(&commits, &p, WorkloadKind::MicroHot).unwrap_err();
        assert!(err.contains("no CC thread granted"), "{err}");
    }
}
