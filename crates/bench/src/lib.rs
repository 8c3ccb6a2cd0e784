//! Bench crate: the criterion microbenches under `benches/`
//! (`micro_locktable`, `micro_log`) — the two whose numbers the benchmark's
//! direct-call layer metrics do not have (EXPERIMENTS.md says why). The
//! paper's figures, the extensions and the ablations are not bench
//! targets: run them with
//! `cargo run --release -p orthrus-harness --bin figures -- <id>`.
