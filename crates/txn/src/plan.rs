//! Access-set analysis: what the planned (deadlock-free) engines know
//! before execution.
//!
//! "An execution thread cannot start to make lock requests ... until it
//! knows the complete set of lock requests that it will make for a
//! particular transaction" (Section 3.2). For most programs the set falls
//! out of the inputs; for by-last-name Payment it requires **OLLP
//! reconnaissance**: an unlocked, speculative read of the secondary index
//! whose result is annotated onto the transaction and re-validated during
//! execution.

use orthrus_common::{Key, LockMode, XorShift64};
use orthrus_storage::tpcc::{TpccDb, TpccLayout};

use crate::db::Database;
use crate::program::{CustomerSelector, DeliveryInput, OrderStatusInput, Program, StockLevelInput};

/// A sorted, deduplicated set of `(key, mode)` pairs. Duplicate keys merge
/// to the stronger mode (no lock upgrades at runtime).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessSet {
    entries: Vec<(Key, LockMode)>,
}

impl AccessSet {
    /// Build from accesses in any order, in the vector it was given.
    pub fn from_unsorted(raw: Vec<(Key, LockMode)>) -> Self {
        let mut set = AccessSet { entries: raw };
        set.normalize();
        set
    }

    /// Replace the contents with `raw` (any order), in this set's own
    /// buffer: what a thread does to a set it keeps between
    /// transactions.
    pub fn refill(&mut self, raw: impl IntoIterator<Item = (Key, LockMode)>) {
        self.entries.clear();
        self.entries.extend(raw);
        self.normalize();
    }

    /// Sort by key and merge duplicates to the stronger mode, in place.
    fn normalize(&mut self) {
        self.entries.sort_unstable_by_key(|&(k, _)| k);
        // `dedup_by` hands over (later, kept): the later duplicate goes,
        // its mode survives in the kept entry if it was the stronger.
        self.entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same && later.1 == LockMode::Exclusive {
                kept.1 = LockMode::Exclusive;
            }
            same
        });
    }

    /// The entries, ascending by key.
    #[inline]
    pub fn entries(&self) -> &[(Key, LockMode)] {
        &self.entries
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is covered with at least `mode`.
    pub fn covers(&self, key: Key, mode: LockMode) -> bool {
        match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => mode == LockMode::Shared || self.entries[i].1 == LockMode::Exclusive,
            Err(_) => false,
        }
    }
}

/// What a district's Delivery leg will do, as estimated by reconnaissance
/// and re-validated under the district's exclusive lock during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistrictDelivery {
    /// Nothing undelivered.
    Empty,
    /// Deliver order `o_id`, crediting customer `c_id` (whose lock the
    /// plan therefore includes).
    Deliver { o_id: u32, c_id: u32 },
    /// The undelivered backlog was overwritten by order-arena wraparound;
    /// advance the cursor from `from` to `to` without delivering.
    Skip { from: u32, to: u32 },
}

/// The OLLP "access estimate annotation" (Section 3.2): the data-dependent
/// part of a transaction's access set, resolved by reconnaissance and
/// re-validated during execution. A mismatch aborts and re-plans.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Annotation {
    /// No data-dependent accesses.
    #[default]
    None,
    /// By-last-name customer selection (Payment, OrderStatus): the
    /// estimated customer offset.
    Customer(u32),
    /// Delivery: one estimate per district of the home warehouse.
    Delivery(Vec<DistrictDelivery>),
    /// StockLevel: the examined order window is `[o_hi - depth, o_hi)`.
    StockLevel { o_hi: u32 },
}

impl Annotation {
    /// The estimated customer, for annotations that carry one.
    pub fn customer(&self) -> Option<u32> {
        match self {
            Annotation::Customer(c) => Some(*c),
            _ => None,
        }
    }
}

/// A planned transaction: its access set plus OLLP annotations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Plan {
    pub accesses: AccessSet,
    /// The access estimate annotation; execution re-resolves the
    /// data-dependent accesses under locks and aborts on mismatch.
    pub annotation: Annotation,
}

/// Analyze a program's accesses against `db`.
///
/// `ollp_noise_percent` perturbs reconnaissance results with the given
/// probability, exercising the paper's "estimate was incorrect →
/// abort-and-restart" path (the index is static in this reproduction, so
/// mismatches would otherwise never occur; the paper reports they are
/// "rare in practice"). Pass `0` on retries so the corrected annotation is
/// used, as OLLP prescribes.
pub fn plan_accesses(
    program: &Program,
    db: &Database,
    ollp_noise_percent: u32,
    rng: &mut XorShift64,
) -> Plan {
    let mut plan = Plan::default();
    plan_accesses_into(program, db, ollp_noise_percent, rng, &mut plan);
    plan
}

/// [`plan_accesses`] into a plan the caller keeps: whatever `plan` held
/// is overwritten, and its access-set buffer is reused — an execution
/// thread plans every transaction into the plan of one that committed.
pub fn plan_accesses_into(
    program: &Program,
    db: &Database,
    ollp_noise_percent: u32,
    rng: &mut XorShift64,
    plan: &mut Plan,
) {
    plan.accesses.entries.clear();
    plan.annotation = collect_accesses(
        program,
        db,
        ollp_noise_percent,
        rng,
        &mut plan.accesses.entries,
    );
    plan.accesses.normalize();
}

/// Push `program`'s accesses onto `raw`, in any order and with
/// duplicates, and return its annotation.
fn collect_accesses(
    program: &Program,
    db: &Database,
    ollp_noise_percent: u32,
    rng: &mut XorShift64,
    raw: &mut Vec<(Key, LockMode)>,
) -> Annotation {
    match program {
        Program::ReadOnly { keys } => {
            raw.extend(keys.iter().map(|&k| (k, LockMode::Shared)));
            Annotation::None
        }
        Program::Rmw { keys } => {
            raw.extend(keys.iter().map(|&k| (k, LockMode::Exclusive)));
            Annotation::None
        }
        Program::NewOrder(input) => {
            let l = &db.tpcc().layout;
            raw.reserve(3 + input.lines.len());
            raw.push((l.warehouse_key(input.w), LockMode::Shared));
            raw.push((l.district_key(input.w, input.d), LockMode::Exclusive));
            raw.push((l.customer_key(input.w, input.d, input.c), LockMode::Shared));
            for line in &input.lines {
                raw.push((l.stock_key(line.supply_w, line.i_id), LockMode::Exclusive));
            }
            // Order/NewOrder/OrderLine inserts go to slots privately owned
            // by this transaction (allocated under the district X lock):
            // no logical locks, hence absent from the plan.
            Annotation::None
        }
        Program::Payment(input) => {
            let tpcc = db.tpcc();
            let l = &tpcc.layout;
            let (c_w, c_d, c, estimated) =
                resolve_customer_estimate(tpcc, &input.customer, ollp_noise_percent, rng);
            raw.extend([
                (l.warehouse_key(input.w), LockMode::Exclusive),
                (l.district_key(input.w, input.d), LockMode::Exclusive),
                (l.customer_key(c_w, c_d, c), LockMode::Exclusive),
            ]);
            customer_annotation(c, estimated)
        }
        Program::OrderStatus(input) => {
            plan_order_status(db.tpcc(), input, ollp_noise_percent, rng, raw)
        }
        Program::Delivery(input) => plan_delivery(db.tpcc(), input, ollp_noise_percent, rng, raw),
        Program::StockLevel(input) => {
            plan_stock_level(db.tpcc(), input, ollp_noise_percent, rng, raw)
        }
        Program::Transfer { from, to, .. } => {
            raw.extend([(*from, LockMode::Exclusive), (*to, LockMode::Exclusive)]);
            Annotation::None
        }
        Program::Adjust { key, .. } => {
            raw.push((*key, LockMode::Exclusive));
            Annotation::None
        }
        Program::Fused { parts, .. } => {
            // The fused plan is the pure union of the parts' access sets.
            // Parts are restricted to static footprints (the sequencer
            // only fuses counter programs), so there is no annotation to
            // compose — a data-dependent part would silently lose its
            // estimate, hence the assert.
            for part in parts {
                let annotation = collect_accesses(part, db, ollp_noise_percent, rng, raw);
                assert!(
                    matches!(annotation, Annotation::None),
                    "fused part {} has a data-dependent footprint",
                    part.kind()
                );
            }
            Annotation::None
        }
    }
}

/// The annotation of a customer selection: by-name results are estimates
/// that execution re-validates.
fn customer_annotation(c: u32, estimated: bool) -> Annotation {
    if estimated {
        Annotation::Customer(c)
    } else {
        Annotation::None
    }
}

/// Resolve a customer selector. For by-last-name selection this is OLLP
/// reconnaissance: a speculative (unlocked) read of the secondary index;
/// the returned flag says whether the result is an estimate that must be
/// annotated and re-validated.
fn resolve_customer_estimate(
    tpcc: &TpccDb,
    selector: &CustomerSelector,
    ollp_noise_percent: u32,
    rng: &mut XorShift64,
) -> (u32, u32, u32, bool) {
    match *selector {
        CustomerSelector::ById { c_w, c_d, c } => (c_w, c_d, c, false),
        CustomerSelector::ByLastName { c_w, c_d, name_id } => {
            let mut c = tpcc
                .middle_customer_by_name(c_w, c_d, name_id as usize)
                .expect("generator drew a last name with no customers");
            if ollp_noise_percent > 0 && rng.chance_percent(ollp_noise_percent) {
                // Simulate a stale estimate: point at a different customer
                // with the same name when one exists, else at a
                // neighbouring customer.
                let list = tpcc.customers_by_last_name(c_w, c_d, name_id as usize);
                c = if list.len() >= 2 {
                    list[(list.len() / 2 + 1) % list.len()]
                } else {
                    (c + 1) % tpcc.cfg().customers_per_district
                };
            }
            (c_w, c_d, c, true)
        }
    }
}

/// OrderStatus plan: customer (shared) plus the home district (shared —
/// the district lock is the arena lock covering the order/line slots the
/// transaction reads). Which *order* gets read is data-dependent but does
/// not change the lock set, so only by-name customer selection needs an
/// annotation.
fn plan_order_status(
    tpcc: &TpccDb,
    input: &OrderStatusInput,
    ollp_noise_percent: u32,
    rng: &mut XorShift64,
    raw: &mut Vec<(Key, LockMode)>,
) -> Annotation {
    let l = &tpcc.layout;
    let (c_w, c_d, c, estimated) =
        resolve_customer_estimate(tpcc, &input.customer, ollp_noise_percent, rng);
    raw.extend([
        (l.customer_key(c_w, c_d, c), LockMode::Shared),
        (l.district_key(c_w, c_d), LockMode::Shared),
    ]);
    customer_annotation(c, estimated)
}

/// Delivery plan: reconnaissance reads each district's cursors and the
/// oldest undelivered order's customer from the board, then locks every
/// district (exclusive) plus the estimated customers (exclusive).
fn plan_delivery(
    tpcc: &TpccDb,
    input: &DeliveryInput,
    ollp_noise_percent: u32,
    rng: &mut XorShift64,
    raw: &mut Vec<(Key, LockMode)>,
) -> Annotation {
    let l = &tpcc.layout;
    let cfg = tpcc.cfg();
    let slots = cfg.order_slots_per_district;
    raw.reserve(2 * cfg.districts_per_wh as usize);
    let mut legs = Vec::with_capacity(cfg.districts_per_wh as usize);
    for d in 0..cfg.districts_per_wh {
        raw.push((l.district_key(input.w, d), LockMode::Exclusive));
        let cur = tpcc.recon.district(l.district_no(input.w, d) as usize);
        let lag = cur.next_o_id.wrapping_sub(cur.next_deliv_o_id);
        let leg = if lag == 0 {
            DistrictDelivery::Empty
        } else if lag > slots {
            DistrictDelivery::Skip {
                from: cur.next_deliv_o_id,
                to: cur.next_o_id - slots,
            }
        } else {
            let o_id = cur.next_deliv_o_id;
            let o_slot = TpccLayout::slot(l.order_key(input.w, d, o_id));
            let mut c_id = tpcc.recon.order(o_slot).c_id;
            if ollp_noise_percent > 0 && rng.chance_percent(ollp_noise_percent) {
                c_id = (c_id + 1) % cfg.customers_per_district;
            }
            raw.push((l.customer_key(input.w, d, c_id), LockMode::Exclusive));
            DistrictDelivery::Deliver { o_id, c_id }
        };
        legs.push(leg);
    }
    Annotation::Delivery(legs)
}

/// StockLevel plan: reconnaissance pins the examined window at the
/// district's current order cursor and collects the distinct items of the
/// window's order lines from the board; the plan locks the district
/// (shared, covering the order/line reads) plus each item's stock row
/// (shared).
fn plan_stock_level(
    tpcc: &TpccDb,
    input: &StockLevelInput,
    ollp_noise_percent: u32,
    rng: &mut XorShift64,
    raw: &mut Vec<(Key, LockMode)>,
) -> Annotation {
    let l = &tpcc.layout;
    let cfg = tpcc.cfg();
    let dn = l.district_no(input.w, input.d) as usize;
    let mut o_hi = tpcc.recon.district(dn).next_o_id;
    if ollp_noise_percent > 0 && rng.chance_percent(ollp_noise_percent) {
        // A stale-forward estimate: pretend one more order exists.
        o_hi = o_hi.wrapping_add(1);
    }
    let depth = input.depth.min(cfg.order_slots_per_district);
    let lo = o_hi.saturating_sub(depth);
    raw.push((l.district_key(input.w, input.d), LockMode::Shared));
    for o in lo..o_hi {
        let o_slot = TpccLayout::slot(l.order_key(input.w, input.d, o));
        let ol_cnt = tpcc.recon.order(o_slot).ol_cnt.min(cfg.max_lines);
        for line in 0..ol_cnt {
            let l_slot = TpccLayout::slot(l.order_line_key(input.w, input.d, o, line));
            let i_id = tpcc.recon.line_item(l_slot);
            raw.push((l.stock_key(input.w, i_id), LockMode::Shared));
        }
    }
    Annotation::StockLevel { o_hi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::*;
    use orthrus_storage::tpcc::{TpccConfig, TpccDb};
    use orthrus_storage::Table;

    fn flat() -> Database {
        Database::Flat(Table::new(100, 64))
    }

    fn tpcc() -> Database {
        Database::Tpcc(TpccDb::load(TpccConfig::tiny(2), 3))
    }

    #[test]
    fn access_set_sorts_and_dedupes() {
        let s = AccessSet::from_unsorted(vec![
            (5, LockMode::Shared),
            (1, LockMode::Exclusive),
            (5, LockMode::Exclusive),
            (3, LockMode::Shared),
            (5, LockMode::Shared),
        ]);
        assert_eq!(
            s.entries(),
            &[
                (1, LockMode::Exclusive),
                (3, LockMode::Shared),
                (5, LockMode::Exclusive), // merged to the stronger mode
            ]
        );
    }

    #[test]
    fn covers_respects_modes() {
        let s = AccessSet::from_unsorted(vec![(1, LockMode::Shared), (2, LockMode::Exclusive)]);
        assert!(s.covers(1, LockMode::Shared));
        assert!(!s.covers(1, LockMode::Exclusive));
        assert!(s.covers(2, LockMode::Shared));
        assert!(s.covers(2, LockMode::Exclusive));
        assert!(!s.covers(3, LockMode::Shared));
    }

    #[test]
    fn rmw_plans_exclusive() {
        let mut rng = XorShift64::new(1);
        let p = plan_accesses(
            &Program::Rmw {
                keys: vec![9, 2, 2],
            },
            &flat(),
            0,
            &mut rng,
        );
        assert_eq!(
            p.accesses.entries(),
            &[(2, LockMode::Exclusive), (9, LockMode::Exclusive)]
        );
        assert_eq!(p.annotation, Annotation::None);
    }

    #[test]
    fn new_order_plan_shape() {
        let db = tpcc();
        let mut rng = XorShift64::new(1);
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
        let plan = plan_accesses(&Program::NewOrder(input.clone()), &db, 0, &mut rng);
        let l = &db.tpcc().layout;
        assert_eq!(plan.accesses.len(), 5);
        assert!(plan.accesses.covers(l.warehouse_key(0), LockMode::Shared));
        assert!(!plan
            .accesses
            .covers(l.warehouse_key(0), LockMode::Exclusive));
        assert!(plan
            .accesses
            .covers(l.district_key(0, 1), LockMode::Exclusive));
        assert!(plan
            .accesses
            .covers(l.customer_key(0, 1, 3), LockMode::Shared));
        assert!(plan.accesses.covers(l.stock_key(0, 7), LockMode::Exclusive));
        assert!(plan.accesses.covers(l.stock_key(1, 9), LockMode::Exclusive));
    }

    #[test]
    fn payment_by_id_plan_shape() {
        let db = tpcc();
        let mut rng = XorShift64::new(1);
        let plan = plan_accesses(
            &Program::Payment(PaymentInput {
                w: 1,
                d: 0,
                amount_cents: 500,
                customer: CustomerSelector::ById {
                    c_w: 0,
                    c_d: 1,
                    c: 2,
                },
            }),
            &db,
            0,
            &mut rng,
        );
        let l = &db.tpcc().layout;
        assert_eq!(plan.accesses.len(), 3);
        assert!(plan
            .accesses
            .covers(l.warehouse_key(1), LockMode::Exclusive));
        assert!(plan
            .accesses
            .covers(l.district_key(1, 0), LockMode::Exclusive));
        assert!(plan
            .accesses
            .covers(l.customer_key(0, 1, 2), LockMode::Exclusive));
        assert_eq!(
            plan.annotation,
            Annotation::None,
            "by-id Payment has no data-dependent access"
        );
    }

    #[test]
    fn payment_by_name_reconnaissance_resolves_middle() {
        let db = tpcc();
        let mut rng = XorShift64::new(1);
        let plan = plan_accesses(
            &Program::Payment(PaymentInput {
                w: 0,
                d: 0,
                amount_cents: 100,
                customer: CustomerSelector::ByLastName {
                    c_w: 0,
                    c_d: 0,
                    name_id: 4,
                },
            }),
            &db,
            0,
            &mut rng,
        );
        // tiny scale: name 4 maps to exactly customer 4.
        assert_eq!(plan.annotation, Annotation::Customer(4));
        let l = &db.tpcc().layout;
        assert!(plan
            .accesses
            .covers(l.customer_key(0, 0, 4), LockMode::Exclusive));
    }

    #[test]
    fn order_status_plan_shape() {
        let db = tpcc();
        let mut rng = XorShift64::new(1);
        let l = &db.tpcc().layout;
        let by_id = plan_accesses(
            &Program::OrderStatus(OrderStatusInput {
                customer: CustomerSelector::ById {
                    c_w: 1,
                    c_d: 0,
                    c: 7,
                },
            }),
            &db,
            0,
            &mut rng,
        );
        assert_eq!(by_id.accesses.len(), 2);
        assert!(by_id
            .accesses
            .covers(l.customer_key(1, 0, 7), LockMode::Shared));
        assert!(!by_id
            .accesses
            .covers(l.customer_key(1, 0, 7), LockMode::Exclusive));
        assert!(by_id
            .accesses
            .covers(l.district_key(1, 0), LockMode::Shared));
        assert_eq!(by_id.annotation, Annotation::None);

        let by_name = plan_accesses(
            &Program::OrderStatus(OrderStatusInput {
                customer: CustomerSelector::ByLastName {
                    c_w: 0,
                    c_d: 1,
                    name_id: 4,
                },
            }),
            &db,
            0,
            &mut rng,
        );
        assert_eq!(by_name.annotation, Annotation::Customer(4));
        assert!(by_name
            .accesses
            .covers(l.customer_key(0, 1, 4), LockMode::Shared));
    }

    #[test]
    fn delivery_plan_covers_all_districts() {
        let db = Database::Tpcc(TpccDb::load(TpccConfig::tiny(2).with_initial_orders(20), 3));
        let mut rng = XorShift64::new(2);
        let t = db.tpcc();
        let l = &t.layout;
        let plan = plan_accesses(
            &Program::Delivery(DeliveryInput { w: 1, carrier: 3 }),
            &db,
            0,
            &mut rng,
        );
        let Annotation::Delivery(ref legs) = plan.annotation else {
            panic!("wrong annotation {:?}", plan.annotation);
        };
        assert_eq!(legs.len(), t.cfg().districts_per_wh as usize);
        for (d, leg) in legs.iter().enumerate() {
            let d = d as u32;
            assert!(plan
                .accesses
                .covers(l.district_key(1, d), LockMode::Exclusive));
            let DistrictDelivery::Deliver { o_id, c_id } = *leg else {
                panic!("initial orders leave undelivered backlog, got {leg:?}");
            };
            assert_eq!(o_id, 20 - 20 * 3 / 10, "oldest undelivered");
            assert!(plan
                .accesses
                .covers(l.customer_key(1, d, c_id), LockMode::Exclusive));
        }
    }

    #[test]
    fn stock_level_plan_pins_window_and_items() {
        let db = Database::Tpcc(TpccDb::load(TpccConfig::tiny(1).with_initial_orders(20), 5));
        let mut rng = XorShift64::new(3);
        let t = db.tpcc();
        let l = &t.layout;
        let plan = plan_accesses(
            &Program::StockLevel(StockLevelInput {
                w: 0,
                d: 0,
                threshold: 15,
                depth: 6,
            }),
            &db,
            0,
            &mut rng,
        );
        assert_eq!(plan.annotation, Annotation::StockLevel { o_hi: 20 });
        assert!(plan.accesses.covers(l.district_key(0, 0), LockMode::Shared));
        // Every item of the window's lines must be covered shared.
        for o in 14..20u32 {
            let o_slot = TpccLayout::slot(l.order_key(0, 0, o));
            let ol_cnt = t.recon.order(o_slot).ol_cnt;
            assert!(ol_cnt > 0);
            for line in 0..ol_cnt {
                let i = t
                    .recon
                    .line_item(TpccLayout::slot(l.order_line_key(0, 0, o, line)));
                assert!(
                    plan.accesses.covers(l.stock_key(0, i), LockMode::Shared),
                    "item {i} of order {o} uncovered"
                );
            }
        }
    }

    /// Planning into a plan that still holds another transaction's
    /// footprint and annotation gives the plan a fresh one would hold,
    /// and draws the same numbers from the planning RNG.
    #[test]
    fn planning_into_a_used_plan_equals_a_fresh_plan() {
        let db = Database::Tpcc(TpccDb::load(TpccConfig::tiny(2).with_initial_orders(20), 3));
        let by_name = CustomerSelector::ByLastName {
            c_w: 0,
            c_d: 1,
            name_id: 4,
        };
        let programs = [
            Program::Delivery(DeliveryInput { w: 1, carrier: 3 }),
            Program::Payment(PaymentInput {
                w: 0,
                d: 1,
                amount_cents: 100,
                customer: by_name,
            }),
            Program::NewOrder(NewOrderInput {
                w: 0,
                d: 1,
                c: 3,
                lines: vec![OrderLineInput {
                    i_id: 7,
                    supply_w: 0,
                    qty: 2,
                }],
            }),
            Program::StockLevel(StockLevelInput {
                w: 0,
                d: 0,
                threshold: 15,
                depth: 6,
            }),
            Program::OrderStatus(OrderStatusInput { customer: by_name }),
            Program::Rmw { keys: vec![] },
        ];
        let (mut fresh_rng, mut reused_rng) = (XorShift64::new(5), XorShift64::new(5));
        let mut reused = Plan::default();
        for noise in [0, 50, 100] {
            for program in &programs {
                let fresh = plan_accesses(program, &db, noise, &mut fresh_rng);
                plan_accesses_into(program, &db, noise, &mut reused_rng, &mut reused);
                assert_eq!(reused, fresh, "{} at noise {noise}", program.kind());
            }
        }
        assert_eq!(fresh_rng.next_u64(), reused_rng.next_u64());
    }

    #[test]
    fn delivery_noise_perturbs_customer_estimates() {
        let db = Database::Tpcc(TpccDb::load(TpccConfig::tiny(1).with_initial_orders(20), 7));
        let mut rng = XorShift64::new(8);
        let program = Program::Delivery(DeliveryInput { w: 0, carrier: 1 });
        let clean = plan_accesses(&program, &db, 0, &mut rng);
        let noisy = plan_accesses(&program, &db, 100, &mut rng);
        assert_ne!(
            clean.annotation, noisy.annotation,
            "100% noise must mislead"
        );
    }

    #[test]
    fn ollp_noise_perturbs_estimate() {
        let db = tpcc();
        let mut rng = XorShift64::new(1);
        let program = Program::Payment(PaymentInput {
            w: 0,
            d: 0,
            amount_cents: 100,
            customer: CustomerSelector::ByLastName {
                c_w: 0,
                c_d: 0,
                name_id: 4,
            },
        });
        let noisy = plan_accesses(&program, &db, 100, &mut rng);
        assert_ne!(
            noisy.annotation,
            Annotation::Customer(4),
            "100% noise must mislead"
        );
        let clean = plan_accesses(&program, &db, 0, &mut rng);
        assert_eq!(clean.annotation, Annotation::Customer(4));
    }
}
