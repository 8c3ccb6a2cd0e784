//! Bench crate: the criterion microbenches under `benches/` (`micro_spsc`,
//! `micro_locktable`, `micro_log`, `micro_ingest`). The paper's figures,
//! the extensions and the ablations are not bench targets: run them with
//! `cargo run --release -p orthrus-harness --bin figures -- <id>`.
