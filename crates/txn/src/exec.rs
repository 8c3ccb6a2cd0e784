//! The transaction interpreter.
//!
//! One implementation of each program's logic, shared by every engine.
//! Each record access first calls [`AccessGuard::access`]; dynamic 2PL
//! acquires the lock right there (and may abort), while planned engines
//! pass a no-op guard because every lock is already held.

use orthrus_common::{Key, LockMode};
use orthrus_storage::tpcc::{CustomerOrders, DistrictCursors, OrderSummary, TpccDb, TpccLayout};

use crate::db::Database;
use crate::plan::{Annotation, DistrictDelivery, Plan};
use crate::program::{
    CustomerSelector, DeliveryInput, NewOrderInput, OrderStatusInput, PaymentInput, Program,
    StockLevelInput,
};

/// Why execution could not complete. The engine reacts by releasing locks
/// and retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortKind {
    /// Dynamic 2PL: wait-die refused a wait.
    WaitDie,
    /// Dynamic 2PL: deadlock detection fired.
    Deadlock,
    /// Planned engines: the OLLP access estimate was wrong; re-plan and
    /// restart (Section 3.2).
    OllpMismatch,
}

/// Interposed on every record access.
pub trait AccessGuard {
    /// About to touch `key` with `mode`. Dynamic engines acquire the lock
    /// here; planned engines validate (debug builds) that the plan covered
    /// it.
    fn access(&mut self, key: Key, mode: LockMode) -> Result<(), AbortKind>;
}

/// Guard for engines that acquired the whole plan before execution.
/// Access checks compile to nothing in release builds.
pub struct PreLocked<'a> {
    plan: &'a Plan,
}

impl<'a> PreLocked<'a> {
    pub fn new(plan: &'a Plan) -> Self {
        PreLocked { plan }
    }
}

impl AccessGuard for PreLocked<'_> {
    #[inline]
    fn access(&mut self, key: Key, mode: LockMode) -> Result<(), AbortKind> {
        debug_assert!(
            self.plan.accesses.covers(key, mode),
            "plan is missing {key:#x} ({mode:?}) — access analysis bug"
        );
        let _ = (key, mode);
        Ok(())
    }
}

/// Guard for engines whose isolation is coarser than record locks
/// (Partitioned-store holds partition spinlocks covering every access).
pub struct Unguarded;

impl AccessGuard for Unguarded {
    #[inline]
    fn access(&mut self, _key: Key, _mode: LockMode) -> Result<(), AbortKind> {
        Ok(())
    }
}

/// Execute a program whose whole plan is already locked.
///
/// Constructs the [`PreLocked`] guard over `plan` itself, so the plan the
/// admission layer produced is the single source for both the coverage
/// checks and the OLLP annotation — callers cannot pair a program with a
/// guard built from a different plan.
pub fn execute_planned(program: &Program, db: &Database, plan: &Plan) -> Result<u64, AbortKind> {
    let mut guard = PreLocked::new(plan);
    execute(program, db, &mut guard, Some(plan))
}

/// Execute `program` against `db`.
///
/// `plan` carries OLLP annotations for planned engines; dynamic engines
/// pass `None` and resolve data-dependent accesses inline. Returns an
/// opaque result value so the computation cannot be optimized away. The
/// counter programs, NewOrder and Payment fold every value they read or
/// wrote under a lock into it (NewOrder: the taxes, the district's next
/// order id and delivery cursor, the discount, each stock row's quantity
/// and ytd; Payment: the warehouse and district ytd, the history slot,
/// the customer's balance), which the simulator's isolation oracle
/// compares against a serial replay.
///
/// # Safety contract (enforced by the caller's guard)
/// The guard must ensure the locking discipline before each access; see
/// `orthrus-storage`'s safety model.
pub fn execute(
    program: &Program,
    db: &Database,
    guard: &mut impl AccessGuard,
    plan: Option<&Plan>,
) -> Result<u64, AbortKind> {
    match program {
        Program::ReadOnly { keys } => {
            let mut sum = 0u64;
            for &k in keys {
                guard.access(k, LockMode::Shared)?;
                // SAFETY: guard established shared access.
                sum = sum.wrapping_add(unsafe { db.read_counter(k) });
            }
            Ok(sum)
        }
        Program::Rmw { keys } => {
            let mut read = 0u64;
            for &k in keys {
                guard.access(k, LockMode::Exclusive)?;
                // SAFETY: guard established exclusive access.
                read = fold(read, unsafe { db.rmw(k) });
            }
            Ok(read)
        }
        Program::NewOrder(input) => execute_new_order(input, db, guard),
        Program::Payment(input) => execute_payment(input, db, guard, plan),
        Program::OrderStatus(input) => execute_order_status(input, db, guard, plan),
        Program::Delivery(input) => execute_delivery(input, db, guard, plan),
        Program::StockLevel(input) => execute_stock_level(input, db, guard, plan),
        Program::Transfer { from, to, amount } => {
            guard.access(*from, LockMode::Exclusive)?;
            guard.access(*to, LockMode::Exclusive)?;
            // SAFETY: guard established exclusive access to both
            // endpoints. Debit + credit wrap, so the sum of all counters
            // is conserved modulo 2⁶⁴ (money invariant).
            unsafe {
                let debited = db.add_counter(*from, amount.wrapping_neg());
                Ok(fold(debited, db.add_counter(*to, *amount)))
            }
        }
        Program::Adjust { key, delta } => {
            guard.access(*key, LockMode::Exclusive)?;
            // SAFETY: guard established exclusive access.
            Ok(unsafe { db.add_counter(*key, *delta) })
        }
        Program::Fused { parts, .. } => {
            // One partition's epoch slice: the constituents run
            // back-to-back under the union plan, in sequencer order —
            // the same order every other partition uses for this epoch.
            let mut read = 0u64;
            for part in parts {
                read = fold(read, execute(part, db, guard, plan)?);
            }
            Ok(read)
        }
    }
}

/// Fold one value a program read into its result, order-sensitively
/// (FNV-1a over 64-bit words): the result digests every value read, so
/// two executions that read different values return different results.
#[inline]
fn fold(acc: u64, value: u64) -> u64 {
    (acc ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Resolve a by-last-name customer during execution and validate it
/// against the plan's annotation (planned engines hold locks for the
/// *estimated* customer; a mismatch means the estimate was wrong).
fn resolve_customer_validated(
    tpcc: &TpccDb,
    selector: &CustomerSelector,
    plan: Option<&Plan>,
) -> Result<(u32, u32, u32), AbortKind> {
    match *selector {
        CustomerSelector::ById { c_w, c_d, c } => Ok((c_w, c_d, c)),
        CustomerSelector::ByLastName { c_w, c_d, name_id } => {
            let resolved = tpcc
                .middle_customer_by_name(c_w, c_d, name_id as usize)
                .expect("generator drew a last name with no customers");
            if let Some(plan) = plan {
                let estimated = plan
                    .annotation
                    .customer()
                    .expect("by-name plan lacks a customer annotation");
                if estimated != resolved {
                    return Err(AbortKind::OllpMismatch);
                }
            }
            Ok((c_w, c_d, resolved))
        }
    }
}

fn execute_new_order(
    input: &NewOrderInput,
    db: &Database,
    guard: &mut impl AccessGuard,
) -> Result<u64, AbortKind> {
    let tpcc = db.tpcc();
    let l = tpcc.layout;

    // Warehouse: read tax rate.
    let wk = l.warehouse_key(input.w);
    guard.access(wk, LockMode::Shared)?;
    // SAFETY: shared access established by the guard.
    let w_tax = unsafe {
        tpcc.warehouses
            .read_with(orthrus_storage::tpcc::TpccLayout::slot(wk), |r| r.tax_bp)
    };
    let mut read = fold(0, w_tax as u64);

    // District: read tax, allocate o_id. Publish the advanced cursor to
    // the reconnaissance board (still under the district X lock).
    let dk = l.district_key(input.w, input.d);
    guard.access(dk, LockMode::Exclusive)?;
    // SAFETY: exclusive access established by the guard.
    let (d_tax, o_id, next_deliv) = unsafe {
        tpcc.districts
            .write_with(orthrus_storage::tpcc::TpccLayout::slot(dk), |r| {
                let o_id = r.next_o_id;
                r.next_o_id = r.next_o_id.wrapping_add(1);
                (r.tax_bp, o_id, r.next_deliv_o_id)
            })
    };
    read = fold(
        fold(fold(read, d_tax as u64), o_id as u64),
        next_deliv as u64,
    );
    let dn = TpccLayout::slot(dk);
    tpcc.recon.publish_district(
        dn,
        DistrictCursors {
            next_o_id: o_id.wrapping_add(1),
            next_deliv_o_id: next_deliv,
        },
    );

    // Customer: read discount.
    let ck = l.customer_key(input.w, input.d, input.c);
    guard.access(ck, LockMode::Shared)?;
    // SAFETY: shared access established by the guard.
    let discount = unsafe {
        tpcc.customers
            .read_with(orthrus_storage::tpcc::TpccLayout::slot(ck), |r| {
                r.discount_bp
            })
    };
    read = fold(read, discount as u64);

    // Lines: read item (read-only table: no CC), update stock.
    let mut total = 0u64;
    let mut all_local = true;
    for (line_no, line) in input.lines.iter().enumerate() {
        // SAFETY: Item is read-only after load; no lock required (paper:
        // "none of our baselines perform any concurrency control on reads
        // to Item table's rows").
        let price = unsafe { tpcc.items.read_with(line.i_id as usize, |r| r.price_cents) };
        let sk = l.stock_key(line.supply_w, line.i_id);
        guard.access(sk, LockMode::Exclusive)?;
        let remote = line.supply_w != input.w;
        all_local &= !remote;
        // SAFETY: exclusive access established by the guard.
        let (quantity, ytd) = unsafe {
            tpcc.stock
                .write_with(orthrus_storage::tpcc::TpccLayout::slot(sk), |s| {
                    let read = (s.quantity, s.ytd);
                    if s.quantity >= line.qty + 10 {
                        s.quantity -= line.qty;
                    } else {
                        s.quantity = s.quantity + 91 - line.qty;
                    }
                    s.ytd += line.qty;
                    s.order_cnt += 1;
                    if remote {
                        s.remote_cnt += 1;
                    }
                    read
                })
        };
        read = fold(fold(read, quantity as u64), ytd as u64);
        let amount = line.qty as u64 * price as u64;
        total += amount;

        // Insert the order line: slot privately owned via o_id.
        let olk = l.order_line_key(input.w, input.d, o_id, line_no as u32);
        let ol_slot = orthrus_storage::tpcc::TpccLayout::slot(olk);
        // SAFETY: slot ownership is unique to this transaction (o_id was
        // allocated under the district's exclusive lock).
        unsafe {
            tpcc.order_lines.write_with(ol_slot, |ol| {
                ol.i_id = line.i_id;
                ol.supply_w = line.supply_w;
                ol.qty = line.qty;
                ol.delivered = false;
                ol.amount_cents = amount;
            })
        };
        tpcc.recon.publish_line_item(ol_slot, line.i_id);
    }

    // Insert order header + NewOrder marker (private slots, see above),
    // publishing the header summary and the customer's latest order to the
    // reconnaissance board (the customer entry is serialized by the
    // district X lock this transaction still holds).
    let ok = l.order_key(input.w, input.d, o_id);
    let o_slot = orthrus_storage::tpcc::TpccLayout::slot(ok);
    // SAFETY: private slot, see order-line comment.
    unsafe {
        tpcc.orders.write_with(o_slot, |o| {
            o.o_id = o_id;
            o.c_id = input.c;
            o.ol_cnt = input.lines.len() as u32;
            o.all_local = all_local;
            o.carrier_id = 0;
        })
    };
    tpcc.recon.publish_order(
        o_slot,
        OrderSummary {
            c_id: input.c,
            ol_cnt: input.lines.len() as u32,
        },
    );
    let nok = l.new_order_key(input.w, input.d, o_id);
    // SAFETY: private slot, see order-line comment.
    unsafe {
        tpcc.new_orders
            .write_with(orthrus_storage::tpcc::TpccLayout::slot(nok), |n| {
                n.o_id = o_id;
                n.valid = true;
            })
    };
    let c_slot = TpccLayout::slot(ck);
    let prior = tpcc.recon.customer(c_slot);
    tpcc.recon.publish_customer(
        c_slot,
        CustomerOrders {
            order_cnt: prior.order_cnt.wrapping_add(1),
            last_o_id: o_id,
        },
    );

    // total * (1 - discount) * (1 + w_tax + d_tax), in basis points.
    let after_discount = total * (10_000 - discount as u64) / 10_000;
    let with_tax = after_discount * (10_000 + w_tax as u64 + d_tax as u64) / 10_000;
    Ok(fold(read, with_tax))
}

fn execute_payment(
    input: &PaymentInput,
    db: &Database,
    guard: &mut impl AccessGuard,
    plan: Option<&Plan>,
) -> Result<u64, AbortKind> {
    let tpcc = db.tpcc();
    let l = tpcc.layout;

    // Resolve the customer FIRST (index read, no locks), so an OLLP
    // mismatch aborts before any write is applied — the prototype has no
    // undo log, and neither does the paper's.
    let (c_w, c_d, c) = resolve_customer_validated(tpcc, &input.customer, plan)?;

    // Warehouse: ytd update (hot!).
    let wk = l.warehouse_key(input.w);
    guard.access(wk, LockMode::Exclusive)?;
    // SAFETY: exclusive access established by the guard.
    let w_ytd = unsafe {
        tpcc.warehouses
            .write_with(orthrus_storage::tpcc::TpccLayout::slot(wk), |w| {
                w.ytd_cents += input.amount_cents;
                w.ytd_cents
            })
    };

    // District: ytd update + private history slot allocation.
    let dk = l.district_key(input.w, input.d);
    guard.access(dk, LockMode::Exclusive)?;
    // SAFETY: exclusive access established by the guard.
    let (d_ytd, h_slot) = unsafe {
        tpcc.districts
            .write_with(orthrus_storage::tpcc::TpccLayout::slot(dk), |d| {
                d.ytd_cents += input.amount_cents;
                let h = d.history_ctr;
                d.history_ctr = d.history_ctr.wrapping_add(1);
                (d.ytd_cents, h)
            })
    };

    // Customer: balance update.
    let ck = l.customer_key(c_w, c_d, c);
    guard.access(ck, LockMode::Exclusive)?;
    // SAFETY: exclusive access established by the guard.
    let balance = unsafe {
        tpcc.customers
            .write_with(orthrus_storage::tpcc::TpccLayout::slot(ck), |cust| {
                cust.balance_cents -= input.amount_cents as i64;
                cust.ytd_payment_cents += input.amount_cents;
                cust.payment_cnt += 1;
                if cust.bad_credit {
                    // BC customers append payment details to c_data; model
                    // the extra write traffic on the row.
                    let tag = (input.amount_cents as u8).wrapping_add(c as u8);
                    for b in cust.pad.iter_mut().step_by(16) {
                        *b = tag;
                    }
                }
                cust.balance_cents
            })
    };

    // History insert: private slot allocated under the district lock.
    let hk = l.history_key(input.w, input.d, h_slot);
    // SAFETY: private slot (h_slot unique under the district X lock).
    unsafe {
        tpcc.history
            .write_with(orthrus_storage::tpcc::TpccLayout::slot(hk), |h| {
                h.amount_cents = input.amount_cents;
                h.c_w = c_w;
                h.c_d = c_d;
                h.c_id = c;
            })
    };

    Ok(fold(
        fold(fold(fold(w_ytd, d_ytd), h_slot as u64), balance as u64),
        input.amount_cents,
    ))
}

/// OrderStatus (TPC-C 2.6): read the customer's balance and their most
/// recent order's lines. The home-district lock (shared) covers the order
/// and line slots; the customer-order board entry read under it is ground
/// truth. Returns the order's total line amount (0 when the customer has
/// no surviving orders).
fn execute_order_status(
    input: &OrderStatusInput,
    db: &Database,
    guard: &mut impl AccessGuard,
    plan: Option<&Plan>,
) -> Result<u64, AbortKind> {
    let tpcc = db.tpcc();
    let l = tpcc.layout;
    let (c_w, c_d, c) = resolve_customer_validated(tpcc, &input.customer, plan)?;

    let ck = l.customer_key(c_w, c_d, c);
    guard.access(ck, LockMode::Shared)?;
    // SAFETY: shared access established by the guard.
    let balance = unsafe {
        tpcc.customers
            .read_with(TpccLayout::slot(ck), |r| r.balance_cents)
    };
    std::hint::black_box(balance);

    let dk = l.district_key(c_w, c_d);
    guard.access(dk, LockMode::Shared)?;
    // Under the district lock the board entry is ground truth (its only
    // writer, NewOrder, holds the district exclusively).
    let co = tpcc.recon.customer(TpccLayout::slot(ck));
    if co.order_cnt == 0 {
        return Ok(0);
    }
    let o_id = co.last_o_id;
    let o_slot = TpccLayout::slot(l.order_key(c_w, c_d, o_id));
    // SAFETY: the district lock covers the district's order arena slots.
    let (slot_o_id, ol_cnt) = unsafe { tpcc.orders.read_with(o_slot, |r| (r.o_id, r.ol_cnt)) };
    if slot_o_id != o_id {
        // The customer's latest order was overwritten by arena wraparound
        // (they have not ordered for a whole arena cycle). The order no
        // longer exists; report "no surviving orders".
        return Ok(0);
    }
    let mut total = 0u64;
    for line in 0..ol_cnt.min(tpcc.cfg().max_lines) {
        let l_slot = TpccLayout::slot(l.order_line_key(c_w, c_d, o_id, line));
        // SAFETY: covered by the district lock (see above).
        let (amount, delivered) = unsafe {
            tpcc.order_lines
                .read_with(l_slot, |r| (r.amount_cents, r.delivered))
        };
        std::hint::black_box(delivered);
        total += amount;
    }
    Ok(total)
}

/// What one Delivery leg resolved to during its validation phase.
enum DeliveryLeg {
    Nothing,
    Advance { to: u32 },
    Deliver { o_id: u32, c_id: u32, ol_cnt: u32 },
}

/// Delivery (TPC-C 2.7): for every district of the warehouse, deliver the
/// oldest undelivered order — stamp the carrier, flag the lines, clear the
/// NewOrder marker, advance the district cursor, and credit the customer
/// with the order's line total. Structured in two phases so every abort
/// (lock acquisition or OLLP validation) happens before any write: phase 1
/// acquires all locks and validates the annotation, phase 2 applies the
/// writes. Returns the total amount credited.
fn execute_delivery(
    input: &DeliveryInput,
    db: &Database,
    guard: &mut impl AccessGuard,
    plan: Option<&Plan>,
) -> Result<u64, AbortKind> {
    let tpcc = db.tpcc();
    let l = tpcc.layout;
    let cfg = tpcc.cfg();
    let slots = cfg.order_slots_per_district;
    let legs_annotated = plan.map(|p| match &p.annotation {
        Annotation::Delivery(legs) => legs,
        other => panic!("Delivery plan carries {other:?}"),
    });

    // Phase 1: take every lock, read the cursors, validate the estimates.
    let mut legs: Vec<DeliveryLeg> = Vec::with_capacity(cfg.districts_per_wh as usize);
    for d in 0..cfg.districts_per_wh {
        let dk = l.district_key(input.w, d);
        guard.access(dk, LockMode::Exclusive)?;
        // SAFETY: exclusive access established by the guard.
        let (next_o, next_deliv) = unsafe {
            tpcc.districts
                .read_with(TpccLayout::slot(dk), |r| (r.next_o_id, r.next_deliv_o_id))
        };
        let lag = next_o.wrapping_sub(next_deliv);
        let actual = if lag == 0 {
            DeliveryLeg::Nothing
        } else if lag > slots {
            DeliveryLeg::Advance { to: next_o - slots }
        } else {
            let o_id = next_deliv;
            let o_slot = TpccLayout::slot(l.order_key(input.w, d, o_id));
            // SAFETY: the district X lock covers the order arena.
            let (slot_o_id, c_id, ol_cnt) = unsafe {
                tpcc.orders
                    .read_with(o_slot, |r| (r.o_id, r.c_id, r.ol_cnt))
            };
            if slot_o_id != o_id {
                // A hole: the allocating NewOrder advanced the order
                // cursor but aborted before writing the slot (dynamic 2PL
                // has no undo log, Section 2.2). The order never existed;
                // step the cursor past it without crediting anyone.
                DeliveryLeg::Advance {
                    to: o_id.wrapping_add(1),
                }
            } else {
                DeliveryLeg::Deliver {
                    o_id,
                    c_id,
                    ol_cnt: ol_cnt.min(cfg.max_lines),
                }
            }
        };
        if let Some(annotated) = legs_annotated {
            // The plan locked customers from the reconnaissance estimate;
            // any divergence means a lock we need may not be held. An
            // Advance where the plan expected a Deliver at the same cursor
            // is fine — the order turned out to be a hole, and the extra
            // customer lock the plan took simply goes unused.
            let matches = match (&actual, &annotated[d as usize]) {
                (DeliveryLeg::Nothing, DistrictDelivery::Empty) => true,
                (DeliveryLeg::Advance { .. }, DistrictDelivery::Skip { from, .. }) => {
                    *from == next_deliv
                }
                (DeliveryLeg::Advance { .. }, DistrictDelivery::Deliver { o_id: est_o, .. }) => {
                    *est_o == next_deliv
                }
                (
                    DeliveryLeg::Deliver { o_id, c_id, .. },
                    DistrictDelivery::Deliver {
                        o_id: est_o,
                        c_id: est_c,
                    },
                ) => o_id == est_o && c_id == est_c,
                _ => false,
            };
            if !matches {
                return Err(AbortKind::OllpMismatch);
            }
        }
        if let DeliveryLeg::Deliver { c_id, .. } = actual {
            guard.access(l.customer_key(input.w, d, c_id), LockMode::Exclusive)?;
        }
        legs.push(actual);
    }

    // Phase 2: apply. No aborts can occur past this point.
    let mut total = 0u64;
    for (d, leg) in legs.iter().enumerate() {
        let d = d as u32;
        let dk = l.district_key(input.w, d);
        let dn = TpccLayout::slot(dk);
        match *leg {
            DeliveryLeg::Nothing => {}
            DeliveryLeg::Advance { to } => {
                // SAFETY: district X lock held (phase 1).
                let next_o = unsafe {
                    tpcc.districts.write_with(dn, |r| {
                        r.next_deliv_o_id = to;
                        r.next_o_id
                    })
                };
                tpcc.recon.publish_district(
                    dn,
                    DistrictCursors {
                        next_o_id: next_o,
                        next_deliv_o_id: to,
                    },
                );
            }
            DeliveryLeg::Deliver { o_id, c_id, ol_cnt } => {
                let mut amount = 0u64;
                for line in 0..ol_cnt {
                    let l_slot = TpccLayout::slot(l.order_line_key(input.w, d, o_id, line));
                    // SAFETY: the district X lock covers the line slots.
                    amount += unsafe {
                        tpcc.order_lines.write_with(l_slot, |r| {
                            r.delivered = true;
                            r.amount_cents
                        })
                    };
                }
                let o_slot = TpccLayout::slot(l.order_key(input.w, d, o_id));
                // SAFETY: the district X lock covers the order slot.
                unsafe {
                    tpcc.orders
                        .write_with(o_slot, |r| r.carrier_id = input.carrier)
                };
                let no_slot = TpccLayout::slot(l.new_order_key(input.w, d, o_id));
                // SAFETY: the district X lock covers the marker slot.
                unsafe { tpcc.new_orders.write_with(no_slot, |r| r.valid = false) };
                // SAFETY: district X lock held.
                let next_o = unsafe {
                    tpcc.districts.write_with(dn, |r| {
                        r.next_deliv_o_id = o_id.wrapping_add(1);
                        r.delivered_cents += amount;
                        r.delivered_cnt += 1;
                        r.next_o_id
                    })
                };
                tpcc.recon.publish_district(
                    dn,
                    DistrictCursors {
                        next_o_id: next_o,
                        next_deliv_o_id: o_id.wrapping_add(1),
                    },
                );
                let ck = l.customer_key(input.w, d, c_id);
                // SAFETY: customer X lock acquired in phase 1.
                unsafe {
                    tpcc.customers.write_with(TpccLayout::slot(ck), |r| {
                        r.balance_cents += amount as i64;
                        r.delivery_cnt += 1;
                    })
                };
                total += amount;
            }
        }
    }
    Ok(total)
}

/// StockLevel (TPC-C 2.8): count the distinct items of the district's
/// recent orders whose stock quantity sits below the threshold. The
/// district lock (shared) covers the order/line reads; each distinct item's
/// stock row is read under a shared lock. Planned engines examine the
/// window the annotation pinned and abort if any item falls outside the
/// planned lock set (the window was overwritten since reconnaissance).
fn execute_stock_level(
    input: &StockLevelInput,
    db: &Database,
    guard: &mut impl AccessGuard,
    plan: Option<&Plan>,
) -> Result<u64, AbortKind> {
    let tpcc = db.tpcc();
    let l = tpcc.layout;
    let cfg = tpcc.cfg();
    let slots = cfg.order_slots_per_district;

    let dk = l.district_key(input.w, input.d);
    guard.access(dk, LockMode::Shared)?;
    // SAFETY: shared access established by the guard.
    let next_o = unsafe {
        tpcc.districts
            .read_with(TpccLayout::slot(dk), |r| r.next_o_id)
    };
    let o_hi = match plan {
        Some(p) => match p.annotation {
            Annotation::StockLevel { o_hi } => {
                if o_hi > next_o {
                    // Estimate beyond the truth: the board can never lead
                    // the row, so this only happens under injected noise.
                    return Err(AbortKind::OllpMismatch);
                }
                o_hi
            }
            ref other => panic!("StockLevel plan carries {other:?}"),
        },
        None => next_o,
    };
    let depth = input.depth.min(slots);
    let lo = o_hi.saturating_sub(depth);
    if next_o.wrapping_sub(lo) > slots {
        // Part of the pinned window has been overwritten since
        // reconnaissance; the annotated item set is stale.
        return Err(AbortKind::OllpMismatch);
    }

    let mut seen: Vec<u32> = Vec::with_capacity(2 * depth as usize);
    let mut below = 0u64;
    for o in lo..o_hi {
        let o_slot = TpccLayout::slot(l.order_key(input.w, input.d, o));
        // SAFETY: the district lock covers the order arena.
        let ol_cnt = unsafe { tpcc.orders.read_with(o_slot, |r| r.ol_cnt) };
        for line in 0..ol_cnt.min(cfg.max_lines) {
            let l_slot = TpccLayout::slot(l.order_line_key(input.w, input.d, o, line));
            // SAFETY: covered by the district lock.
            let i_id = unsafe { tpcc.order_lines.read_with(l_slot, |r| r.i_id) };
            if seen.contains(&i_id) {
                continue;
            }
            seen.push(i_id);
            let sk = l.stock_key(input.w, i_id);
            if let Some(p) = plan {
                // The explicit coverage gate for planned engines: the
                // debug-only assertion in `PreLocked` is not a release-mode
                // safety net, this is.
                if !p.accesses.covers(sk, LockMode::Shared) {
                    return Err(AbortKind::OllpMismatch);
                }
            }
            guard.access(sk, LockMode::Shared)?;
            // SAFETY: shared access established by the guard.
            let qty = unsafe { tpcc.stock.read_with(TpccLayout::slot(sk), |r| r.quantity) };
            if qty < input.threshold {
                below += 1;
            }
        }
    }
    Ok(below)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_accesses;
    use crate::program::OrderLineInput;
    use orthrus_common::XorShift64;
    use orthrus_storage::tpcc::{TpccConfig, TpccDb, TpccLayout};
    use orthrus_storage::Table;

    /// A guard that always allows (single-threaded tests hold an implicit
    /// global lock).
    struct AllowAll;
    impl AccessGuard for AllowAll {
        fn access(&mut self, _: Key, _: LockMode) -> Result<(), AbortKind> {
            Ok(())
        }
    }

    fn tpcc() -> Database {
        Database::Tpcc(TpccDb::load(TpccConfig::tiny(2), 3))
    }

    #[test]
    fn rmw_then_read_roundtrip() {
        let db = Database::Flat(Table::new(10, 64));
        let rmw = Program::Rmw {
            keys: vec![1, 2, 1],
        };
        execute(&rmw, &db, &mut AllowAll, None).unwrap();
        let ro = Program::ReadOnly {
            keys: vec![1, 2, 3],
        };
        let sum = execute(&ro, &db, &mut AllowAll, None).unwrap();
        assert_eq!(sum, 2 + 1); // key 1 twice, key 2 once, key 3 zero
    }

    #[test]
    fn new_order_applies_all_effects() {
        let db = tpcc();
        let t = db.tpcc();
        let input = NewOrderInput {
            w: 0,
            d: 1,
            c: 3,
            lines: vec![
                OrderLineInput {
                    i_id: 7,
                    supply_w: 0,
                    qty: 2,
                },
                OrderLineInput {
                    i_id: 9,
                    supply_w: 1,
                    qty: 1,
                },
            ],
        };
        let l = t.layout;
        let stock_before = unsafe {
            t.stock
                .read_with(TpccLayout::slot(l.stock_key(0, 7)), |s| s.quantity)
        };
        execute(&Program::NewOrder(input.clone()), &db, &mut AllowAll, None).unwrap();

        // District allocated o_id 0 and advanced.
        let next = unsafe {
            t.districts
                .read_with(TpccLayout::slot(l.district_key(0, 1)), |d| d.next_o_id)
        };
        assert_eq!(next, 1);
        // Stock updated, remote counted.
        let s0 = unsafe {
            t.stock.read_with(TpccLayout::slot(l.stock_key(0, 7)), |s| {
                (s.quantity, s.ytd, s.order_cnt, s.remote_cnt)
            })
        };
        assert_eq!(s0.1, 2);
        assert_eq!(s0.2, 1);
        assert_eq!(s0.3, 0);
        assert!(s0.0 == stock_before - 2 || s0.0 == stock_before + 91 - 2);
        let s1 = unsafe {
            t.stock
                .read_with(TpccLayout::slot(l.stock_key(1, 9)), |s| s.remote_cnt)
        };
        assert_eq!(s1, 1, "line from warehouse 1 is remote for home 0");
        // Order header + marker + lines written at o_id 0.
        let o = unsafe {
            t.orders
                .read_with(TpccLayout::slot(l.order_key(0, 1, 0)), |o| {
                    (o.o_id, o.c_id, o.ol_cnt, o.all_local)
                })
        };
        assert_eq!(o, (0, 3, 2, false));
        let no = unsafe {
            t.new_orders
                .read_with(TpccLayout::slot(l.new_order_key(0, 1, 0)), |n| n.valid)
        };
        assert!(no);
        let ol = unsafe {
            t.order_lines
                .read_with(TpccLayout::slot(l.order_line_key(0, 1, 0, 1)), |ol| {
                    (ol.i_id, ol.supply_w, ol.qty)
                })
        };
        assert_eq!(ol, (9, 1, 1));
    }

    #[test]
    fn sequential_new_orders_get_distinct_o_ids() {
        let db = tpcc();
        let t = db.tpcc();
        let mk = |_i: u32| {
            Program::NewOrder(NewOrderInput {
                w: 1,
                d: 0,
                c: 0,
                lines: vec![OrderLineInput {
                    i_id: 1,
                    supply_w: 1,
                    qty: 1,
                }],
            })
        };
        for i in 0..3 {
            execute(&mk(i), &db, &mut AllowAll, None).unwrap();
        }
        let l = t.layout;
        for o_id in 0..3u32 {
            let got = unsafe {
                t.orders
                    .read_with(TpccLayout::slot(l.order_key(1, 0, o_id)), |o| o.o_id)
            };
            assert_eq!(got, o_id);
        }
    }

    #[test]
    fn payment_by_id_applies_all_effects() {
        let db = tpcc();
        let t = db.tpcc();
        let l = t.layout;
        let input = PaymentInput {
            w: 0,
            d: 0,
            amount_cents: 700,
            customer: CustomerSelector::ById {
                c_w: 1,
                c_d: 1,
                c: 2,
            },
        };
        let w_before = unsafe {
            t.warehouses
                .read_with(TpccLayout::slot(l.warehouse_key(0)), |w| w.ytd_cents)
        };
        execute(&Program::Payment(input), &db, &mut AllowAll, None).unwrap();
        let w_after = unsafe {
            t.warehouses
                .read_with(TpccLayout::slot(l.warehouse_key(0)), |w| w.ytd_cents)
        };
        assert_eq!(w_after, w_before + 700);
        let (bal, cnt) = unsafe {
            t.customers
                .read_with(TpccLayout::slot(l.customer_key(1, 1, 2)), |c| {
                    (c.balance_cents, c.payment_cnt)
                })
        };
        assert_eq!(bal, -1000 - 700);
        assert_eq!(cnt, 2);
        // History row landed in district (0,0), slot 0.
        let h = unsafe {
            t.history
                .read_with(TpccLayout::slot(l.history_key(0, 0, 0)), |h| {
                    (h.amount_cents, h.c_w, h.c_d, h.c_id)
                })
        };
        assert_eq!(h, (700, 1, 1, 2));
    }

    #[test]
    fn payment_by_name_matches_plan() {
        let db = tpcc();
        let mut rng = XorShift64::new(5);
        let program = Program::Payment(PaymentInput {
            w: 0,
            d: 0,
            amount_cents: 100,
            customer: CustomerSelector::ByLastName {
                c_w: 0,
                c_d: 0,
                name_id: 8,
            },
        });
        let plan = plan_accesses(&program, &db, 0, &mut rng);
        let mut guard = PreLocked::new(&plan);
        execute(&program, &db, &mut guard, Some(&plan)).unwrap();
        let t = db.tpcc();
        let l = t.layout;
        let cnt = unsafe {
            t.customers
                .read_with(TpccLayout::slot(l.customer_key(0, 0, 8)), |c| c.payment_cnt)
        };
        assert_eq!(cnt, 2, "by-name resolved customer 8 must be paid");
    }

    #[test]
    fn ollp_mismatch_aborts_before_any_write() {
        let db = tpcc();
        let mut rng = XorShift64::new(5);
        let program = Program::Payment(PaymentInput {
            w: 1,
            d: 1,
            amount_cents: 100,
            customer: CustomerSelector::ByLastName {
                c_w: 0,
                c_d: 0,
                name_id: 8,
            },
        });
        // Force a wrong estimate with 100% noise.
        let bad_plan = plan_accesses(&program, &db, 100, &mut rng);
        let t = db.tpcc();
        let l = t.layout;
        let w_before = unsafe {
            t.warehouses
                .read_with(TpccLayout::slot(l.warehouse_key(1)), |w| w.ytd_cents)
        };
        let res = execute(&program, &db, &mut AllowAll, Some(&bad_plan));
        assert_eq!(res, Err(AbortKind::OllpMismatch));
        let w_after = unsafe {
            t.warehouses
                .read_with(TpccLayout::slot(l.warehouse_key(1)), |w| w.ytd_cents)
        };
        assert_eq!(w_before, w_after, "no write may precede OLLP validation");
        // Retry with a corrected plan (noise 0) succeeds — the OLLP loop.
        let good_plan = plan_accesses(&program, &db, 0, &mut rng);
        execute(&program, &db, &mut AllowAll, Some(&good_plan)).unwrap();
    }

    #[test]
    fn dynamic_execution_resolves_by_name_without_plan() {
        let db = tpcc();
        let program = Program::Payment(PaymentInput {
            w: 0,
            d: 1,
            amount_cents: 50,
            customer: CustomerSelector::ByLastName {
                c_w: 0,
                c_d: 1,
                name_id: 3,
            },
        });
        execute(&program, &db, &mut AllowAll, None).unwrap();
        let t = db.tpcc();
        let l = t.layout;
        let cnt = unsafe {
            t.customers
                .read_with(TpccLayout::slot(l.customer_key(0, 1, 3)), |c| c.payment_cnt)
        };
        assert_eq!(cnt, 2);
    }

    #[test]
    fn bad_credit_customer_touches_data() {
        // Find a bad-credit customer in the loaded db and pay them; the
        // pad must change.
        let db = tpcc();
        let t = db.tpcc();
        let mut target = None;
        for c in 0..t.cfg().customers_per_district {
            let bad = unsafe {
                t.customers
                    .read_with(TpccLayout::slot(t.layout.customer_key(0, 0, c)), |r| {
                        r.bad_credit
                    })
            };
            if bad {
                target = Some(c);
                break;
            }
        }
        let Some(c) = target else {
            return; // no BC customer at this tiny scale+seed; fine
        };
        execute(
            &Program::Payment(PaymentInput {
                w: 0,
                d: 0,
                amount_cents: 1234,
                customer: CustomerSelector::ById { c_w: 0, c_d: 0, c },
            }),
            &db,
            &mut AllowAll,
            None,
        )
        .unwrap();
        let pad0 = unsafe {
            t.customers
                .read_with(TpccLayout::slot(t.layout.customer_key(0, 0, c)), |r| {
                    r.pad[0]
                })
        };
        assert_ne!(pad0, 0);
    }

    // ---- Full-mix extension transactions --------------------------------

    use crate::program::{DeliveryInput, OrderStatusInput, StockLevelInput};
    use orthrus_storage::tpcc::DistrictCursors;

    /// A TPC-C database pre-loaded with historical orders so the read-side
    /// transactions have data.
    fn tpcc_with_orders() -> Database {
        Database::Tpcc(TpccDb::load(TpccConfig::tiny(2).with_initial_orders(20), 3))
    }

    #[test]
    fn new_order_publishes_recon_board() {
        let db = tpcc();
        let t = db.tpcc();
        let l = t.layout;
        let input = NewOrderInput {
            w: 0,
            d: 1,
            c: 3,
            lines: vec![
                OrderLineInput {
                    i_id: 7,
                    supply_w: 0,
                    qty: 2,
                },
                OrderLineInput {
                    i_id: 9,
                    supply_w: 1,
                    qty: 1,
                },
            ],
        };
        execute(&Program::NewOrder(input), &db, &mut AllowAll, None).unwrap();
        let dn = l.district_no(0, 1) as usize;
        assert_eq!(
            t.recon.district(dn),
            DistrictCursors {
                next_o_id: 1,
                next_deliv_o_id: 0
            }
        );
        let c_slot = TpccLayout::slot(l.customer_key(0, 1, 3));
        let co = t.recon.customer(c_slot);
        assert_eq!((co.order_cnt, co.last_o_id), (1, 0));
        let o_slot = TpccLayout::slot(l.order_key(0, 1, 0));
        let s = t.recon.order(o_slot);
        assert_eq!((s.c_id, s.ol_cnt), (3, 2));
        assert_eq!(
            t.recon
                .line_item(TpccLayout::slot(l.order_line_key(0, 1, 0, 1))),
            9
        );
    }

    #[test]
    fn order_status_reads_latest_order_total() {
        let db = tpcc();
        let t = db.tpcc();
        // Customer (0,0,5) places an order of known amounts.
        let lines = vec![
            OrderLineInput {
                i_id: 2,
                supply_w: 0,
                qty: 3,
            },
            OrderLineInput {
                i_id: 4,
                supply_w: 0,
                qty: 1,
            },
        ];
        let expected: u64 = lines
            .iter()
            .map(|ln| {
                ln.qty as u64
                    * unsafe { t.items.read_with(ln.i_id as usize, |r| r.price_cents) } as u64
            })
            .sum();
        execute(
            &Program::NewOrder(NewOrderInput {
                w: 0,
                d: 0,
                c: 5,
                lines,
            }),
            &db,
            &mut AllowAll,
            None,
        )
        .unwrap();
        let got = execute(
            &Program::OrderStatus(OrderStatusInput {
                customer: CustomerSelector::ById {
                    c_w: 0,
                    c_d: 0,
                    c: 5,
                },
            }),
            &db,
            &mut AllowAll,
            None,
        )
        .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn order_status_without_orders_returns_zero() {
        let db = tpcc();
        let got = execute(
            &Program::OrderStatus(OrderStatusInput {
                customer: CustomerSelector::ById {
                    c_w: 1,
                    c_d: 1,
                    c: 2,
                },
            }),
            &db,
            &mut AllowAll,
            None,
        )
        .unwrap();
        assert_eq!(got, 0);
    }

    #[test]
    fn order_status_by_name_planned_matches_and_mismatches() {
        let db = tpcc_with_orders();
        let mut rng = XorShift64::new(5);
        let program = Program::OrderStatus(OrderStatusInput {
            customer: CustomerSelector::ByLastName {
                c_w: 0,
                c_d: 0,
                name_id: 8,
            },
        });
        let plan = plan_accesses(&program, &db, 0, &mut rng);
        let mut guard = PreLocked::new(&plan);
        execute(&program, &db, &mut guard, Some(&plan)).unwrap();

        let bad = plan_accesses(&program, &db, 100, &mut rng);
        let res = execute(&program, &db, &mut AllowAll, Some(&bad));
        assert_eq!(res, Err(AbortKind::OllpMismatch));
    }

    #[test]
    fn delivery_delivers_oldest_and_credits_customer() {
        let db = tpcc_with_orders();
        let t = db.tpcc();
        let l = t.layout;
        let cfg = *t.cfg();
        let delivered_upto = 20 - 20 * 3 / 10; // loader's ~70% rule

        // Ground truth before: per district, order `delivered_upto` is the
        // oldest undelivered; note its customer and line total.
        let mut expected_total = 0u64;
        let mut expected: Vec<(usize, u32, i64, u64)> = Vec::new(); // (c_slot, c, bal, amount)
        for d in 0..cfg.districts_per_wh {
            let o_slot = TpccLayout::slot(l.order_key(0, d, delivered_upto));
            let (c, ol_cnt) = unsafe { t.orders.read_with(o_slot, |r| (r.c_id, r.ol_cnt)) };
            let mut amount = 0u64;
            for line in 0..ol_cnt {
                let ls = TpccLayout::slot(l.order_line_key(0, d, delivered_upto, line));
                amount += unsafe { t.order_lines.read_with(ls, |r| r.amount_cents) };
            }
            let c_slot = TpccLayout::slot(l.customer_key(0, d, c));
            let bal = unsafe { t.customers.read_with(c_slot, |r| r.balance_cents) };
            expected.push((c_slot, c, bal, amount));
            expected_total += amount;
        }

        let program = Program::Delivery(DeliveryInput { w: 0, carrier: 7 });
        let mut rng = XorShift64::new(9);
        let plan = plan_accesses(&program, &db, 0, &mut rng);
        let mut guard = PreLocked::new(&plan);
        let total = execute(&program, &db, &mut guard, Some(&plan)).unwrap();
        assert_eq!(total, expected_total);

        for (d, (c_slot, _c, bal, amount)) in expected.iter().enumerate() {
            let d = d as u32;
            // Customer credited and delivery counted.
            let (new_bal, dcnt) = unsafe {
                t.customers
                    .read_with(*c_slot, |r| (r.balance_cents, r.delivery_cnt))
            };
            assert_eq!(new_bal, bal + *amount as i64);
            assert_eq!(dcnt, 1);
            // Order stamped, marker cleared, lines flagged, cursor moved.
            let o_slot = TpccLayout::slot(l.order_key(0, d, delivered_upto));
            assert_eq!(unsafe { t.orders.read_with(o_slot, |r| r.carrier_id) }, 7);
            let no_slot = TpccLayout::slot(l.new_order_key(0, d, delivered_upto));
            assert!(!unsafe { t.new_orders.read_with(no_slot, |r| r.valid) });
            let dn = l.district_no(0, d) as usize;
            let (next_deliv, next_o) = unsafe {
                t.districts
                    .read_with(dn, |r| (r.next_deliv_o_id, r.next_o_id))
            };
            assert_eq!(next_deliv, delivered_upto + 1);
            assert_eq!(
                t.recon.district(dn),
                DistrictCursors {
                    next_o_id: next_o,
                    next_deliv_o_id: next_deliv
                }
            );
            let ol0 = TpccLayout::slot(l.order_line_key(0, d, delivered_upto, 0));
            assert!(unsafe { t.order_lines.read_with(ol0, |r| r.delivered) });
        }
        // Warehouse 1 untouched.
        let dn1 = l.district_no(1, 0) as usize;
        let nd = unsafe { t.districts.read_with(dn1, |r| r.next_deliv_o_id) };
        assert_eq!(nd, delivered_upto);
    }

    #[test]
    fn delivery_on_empty_districts_is_a_noop() {
        let db = tpcc(); // no initial orders
        let t = db.tpcc();
        let program = Program::Delivery(DeliveryInput { w: 1, carrier: 2 });
        let mut rng = XorShift64::new(3);
        let plan = plan_accesses(&program, &db, 0, &mut rng);
        // Empty districts need no customer locks.
        assert_eq!(plan.accesses.len(), t.cfg().districts_per_wh as usize);
        let mut guard = PreLocked::new(&plan);
        let total = execute(&program, &db, &mut guard, Some(&plan)).unwrap();
        assert_eq!(total, 0);
    }

    #[test]
    fn delivery_mismatch_aborts_before_any_write() {
        let db = tpcc_with_orders();
        let t = db.tpcc();
        let l = t.layout;
        let delivered_upto = 20 - 20 * 3 / 10;
        let program = Program::Delivery(DeliveryInput { w: 0, carrier: 4 });
        let mut rng = XorShift64::new(11);
        let bad = plan_accesses(&program, &db, 100, &mut rng);
        let res = execute(&program, &db, &mut AllowAll, Some(&bad));
        assert_eq!(res, Err(AbortKind::OllpMismatch));
        // Nothing moved.
        for d in 0..t.cfg().districts_per_wh {
            let dn = l.district_no(0, d) as usize;
            let nd = unsafe { t.districts.read_with(dn, |r| r.next_deliv_o_id) };
            assert_eq!(nd, delivered_upto);
        }
        // Retry with a corrected plan succeeds — the OLLP loop.
        let good = plan_accesses(&program, &db, 0, &mut rng);
        let mut guard = PreLocked::new(&good);
        assert!(execute(&program, &db, &mut guard, Some(&good)).unwrap() > 0);
    }

    #[test]
    fn delivery_skips_wrapped_backlog() {
        let db = tpcc(); // slots = 64 at tiny scale
        let t = db.tpcc();
        let l = t.layout;
        let dn = l.district_no(0, 0) as usize;
        // Simulate a district whose undelivered backlog outran the arena:
        // 100 orders created, none delivered (single-threaded test setup).
        unsafe {
            t.districts.write_with(dn, |r| {
                r.next_o_id = 100;
                r.next_deliv_o_id = 0;
            })
        };
        t.recon.publish_district(
            dn,
            DistrictCursors {
                next_o_id: 100,
                next_deliv_o_id: 0,
            },
        );
        let program = Program::Delivery(DeliveryInput { w: 0, carrier: 1 });
        let mut rng = XorShift64::new(2);
        let plan = plan_accesses(&program, &db, 0, &mut rng);
        assert!(matches!(
            plan.annotation,
            crate::plan::Annotation::Delivery(ref legs)
                if legs[0] == crate::plan::DistrictDelivery::Skip { from: 0, to: 36 }
        ));
        let mut guard = PreLocked::new(&plan);
        execute(&program, &db, &mut guard, Some(&plan)).unwrap();
        let nd = unsafe { t.districts.read_with(dn, |r| r.next_deliv_o_id) };
        assert_eq!(nd, 36, "cursor catches up to the surviving window");
        assert_eq!(t.recon.district(dn).next_deliv_o_id, 36);
    }

    #[test]
    fn delivery_steps_past_allocation_holes() {
        // An aborted NewOrder (dynamic 2PL, no undo log) can advance a
        // district's order cursor without writing the slot. Delivery must
        // step past the hole without crediting anyone.
        let db = tpcc();
        let t = db.tpcc();
        let l = t.layout;
        let dn = l.district_no(0, 0) as usize;
        unsafe {
            t.districts.write_with(dn, |r| {
                r.next_o_id = 5;
                r.next_deliv_o_id = 4;
            })
        };
        t.recon.publish_district(
            dn,
            DistrictCursors {
                next_o_id: 5,
                next_deliv_o_id: 4,
            },
        );
        // Slot 4 was never written: default o_id (0) != 4 marks the hole.
        let program = Program::Delivery(DeliveryInput { w: 0, carrier: 9 });
        let total = execute(&program, &db, &mut AllowAll, None).unwrap();
        assert_eq!(total, 0, "holes credit nothing");
        let (next_deliv, delivered) = unsafe {
            t.districts
                .read_with(dn, |r| (r.next_deliv_o_id, r.delivered_cnt))
        };
        assert_eq!(next_deliv, 5, "cursor steps past the hole");
        assert_eq!(delivered, 0);

        // Planned path: a plan that estimated a Deliver at the hole cursor
        // must execute as an Advance, not abort.
        unsafe { t.districts.write_with(dn, |r| r.next_deliv_o_id = 4) };
        t.recon.publish_district(
            dn,
            DistrictCursors {
                next_o_id: 5,
                next_deliv_o_id: 4,
            },
        );
        let mut rng = XorShift64::new(7);
        let plan = plan_accesses(&program, &db, 0, &mut rng);
        let mut guard = PreLocked::new(&plan);
        let total = execute(&program, &db, &mut guard, Some(&plan)).unwrap();
        assert_eq!(total, 0);
        let next_deliv = unsafe { t.districts.read_with(dn, |r| r.next_deliv_o_id) };
        assert_eq!(next_deliv, 5);
    }

    #[test]
    fn stock_level_counts_match_manual_scan() {
        let db = tpcc_with_orders();
        let t = db.tpcc();
        let l = t.layout;
        let cfg = *t.cfg();
        let threshold = 40u32;
        let depth = 8u32;

        // Manual recount over the last `depth` orders of district (1, 1).
        let dn = l.district_no(1, 1) as usize;
        let next_o = unsafe { t.districts.read_with(dn, |r| r.next_o_id) };
        let mut items: Vec<u32> = Vec::new();
        for o in next_o.saturating_sub(depth)..next_o {
            let o_slot = TpccLayout::slot(l.order_key(1, 1, o));
            let ol_cnt = unsafe { t.orders.read_with(o_slot, |r| r.ol_cnt) };
            for line in 0..ol_cnt {
                let ls = TpccLayout::slot(l.order_line_key(1, 1, o, line));
                let i = unsafe { t.order_lines.read_with(ls, |r| r.i_id) };
                if !items.contains(&i) {
                    items.push(i);
                }
            }
        }
        let expected = items
            .iter()
            .filter(|&&i| {
                let sk = l.stock_key(1, i);
                let qty = unsafe { t.stock.read_with(TpccLayout::slot(sk), |r| r.quantity) };
                qty < threshold
            })
            .count() as u64;
        assert!(!items.is_empty(), "window has items at this scale");
        let _ = cfg;

        let program = Program::StockLevel(StockLevelInput {
            w: 1,
            d: 1,
            threshold,
            depth,
        });
        // Dynamic path.
        let dynamic = execute(&program, &db, &mut AllowAll, None).unwrap();
        assert_eq!(dynamic, expected);
        // Planned path.
        let mut rng = XorShift64::new(6);
        let plan = plan_accesses(&program, &db, 0, &mut rng);
        let mut guard = PreLocked::new(&plan);
        let planned = execute(&program, &db, &mut guard, Some(&plan)).unwrap();
        assert_eq!(planned, expected);
    }

    #[test]
    fn stock_level_noise_mismatches_then_recovers() {
        let db = tpcc_with_orders();
        let program = Program::StockLevel(StockLevelInput {
            w: 0,
            d: 0,
            threshold: 15,
            depth: 5,
        });
        let mut rng = XorShift64::new(14);
        let bad = plan_accesses(&program, &db, 100, &mut rng);
        let res = execute(&program, &db, &mut AllowAll, Some(&bad));
        assert_eq!(res, Err(AbortKind::OllpMismatch));
        let good = plan_accesses(&program, &db, 0, &mut rng);
        let mut guard = PreLocked::new(&good);
        execute(&program, &db, &mut guard, Some(&good)).unwrap();
    }

    #[test]
    fn stock_level_on_empty_district_is_zero() {
        let db = tpcc();
        let program = Program::StockLevel(StockLevelInput {
            w: 0,
            d: 1,
            threshold: 100,
            depth: 20,
        });
        assert_eq!(execute(&program, &db, &mut AllowAll, None).unwrap(), 0);
        let mut rng = XorShift64::new(1);
        let plan = plan_accesses(&program, &db, 0, &mut rng);
        assert_eq!(plan.accesses.len(), 1, "district lock only");
        let mut guard = PreLocked::new(&plan);
        assert_eq!(execute(&program, &db, &mut guard, Some(&plan)).unwrap(), 0);
    }

    #[test]
    fn stock_level_detects_window_invalidation() {
        // Pin a window, then let enough NewOrders wrap the arena past it:
        // execution must refuse the stale plan.
        let db = tpcc_with_orders();
        let t = db.tpcc();
        let program = Program::StockLevel(StockLevelInput {
            w: 0,
            d: 0,
            threshold: 15,
            depth: 5,
        });
        let mut rng = XorShift64::new(4);
        let plan = plan_accesses(&program, &db, 0, &mut rng);
        // 64 slots; push next_o far beyond the pinned window (single-
        // threaded test shortcut for "many NewOrders ran since").
        let dn = t.layout.district_no(0, 0) as usize;
        unsafe { t.districts.write_with(dn, |r| r.next_o_id += 80) };
        let res = execute(&program, &db, &mut AllowAll, Some(&plan));
        assert_eq!(res, Err(AbortKind::OllpMismatch));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "plan is missing")]
    fn prelocked_guard_catches_plan_gaps() {
        let db = Database::Flat(Table::new(10, 64));
        let program = Program::Rmw { keys: vec![1, 2] };
        let mut rng = XorShift64::new(1);
        // Plan for a DIFFERENT program: missing key 2.
        let wrong = plan_accesses(&Program::Rmw { keys: vec![1] }, &db, 0, &mut rng);
        let mut guard = PreLocked::new(&wrong);
        let _ = execute(&program, &db, &mut guard, Some(&wrong));
    }
}
