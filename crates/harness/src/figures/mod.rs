//! One function per figure of the paper's evaluation.
//!
//! Every function returns a [`crate::report::FigureResult`] (or breakdown
//! rows for Figure 10) containing the same series the paper plots, at the
//! scales configured by [`crate::BenchConfig`]. Each `fig*` function
//! runs [`crate::BenchConfig::paper`]: FIFO admission, the paper's, unless
//! `ORTHRUS_ADMISSION` names a policy.

mod ext;
mod micro;
mod partition;
mod tpcc;

pub use ext::{
    ext01_tpcc_fullmix, ext02_fullmix_scalability, ext03_deadlock_policies, ext04_skew,
    ext05_cc_split, ext06_latency, LatencyRow,
};
pub use micro::{
    fig01_2pl_readonly, fig04_deadlock_overhead, fig05_thread_allocation, fig11_ycsb_readonly,
    fig12_ycsb_rmw,
};
pub use partition::{fig06_multipartition_count, fig07_multipartition_fraction};
pub use tpcc::{fig08_tpcc_warehouses, fig09_tpcc_scalability, fig10_breakdown, BreakdownRow};
