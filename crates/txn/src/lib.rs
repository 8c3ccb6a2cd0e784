//! Transaction programs, access-set planning, and execution.
//!
//! The paper's engines all run the same transaction *logic* and differ
//! only in concurrency control. This crate is that shared logic:
//!
//! - [`Program`]: the one-shot stored procedures of the evaluation
//!   (YCSB read-only / RMW, microbench hot+cold RMW, TPC-C NewOrder and
//!   Payment), with data accesses in the order the paper prescribes (hot
//!   records first) — plus the full-mix extension transactions
//!   (OrderStatus, Delivery, StockLevel).
//! - [`plan`]: access-set analysis for the planned (deadlock-free) engines
//!   — including **OLLP reconnaissance** (Section 3.2) for the 60% of
//!   Payment transactions whose write set is only deducible via the
//!   customer-last-name secondary index, and for the data-dependent
//!   order/item sets of Delivery and StockLevel (read lock-free from the
//!   [`orthrus_storage::tpcc::ReconBoard`], validated under locks).
//! - [`codec`]: the shared little-endian wire encoding of [`Program`]s,
//!   used by both the command log (`orthrus-durability`) and the TCP
//!   front-end (`orthrus-net`); tags are append-only for version safety.
//! - [`exec`]: the interpreter. Data accesses are funneled through an
//!   [`exec::AccessGuard`], which is how one interpreter serves both
//!   dynamic 2PL (guard acquires locks as accesses happen) and the planned
//!   engines (guard is a no-op because all locks are already held).

pub mod codec;
pub mod db;
pub mod exec;
pub mod plan;
pub mod program;

#[cfg(test)]
mod proptests;

pub use db::Database;
pub use exec::{execute, execute_planned, AbortKind, AccessGuard, PreLocked, Unguarded};
pub use plan::{plan_accesses, plan_accesses_into, AccessSet, Annotation, DistrictDelivery, Plan};
pub use program::{
    CustomerSelector, DeliveryInput, NewOrderInput, OrderLineInput, OrderStatusInput, PaymentInput,
    Program, StockLevelInput,
};
