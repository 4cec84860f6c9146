//! # ccr-bench — shared helpers and the benchmark harness.
//!
//! Protocol microbenchmarks (`benches/microbench.rs`). The layered,
//! repeated benchmark of the whole stack is the separate `perfbench`
//! package at the repository root.
//!
//! The [`harness`] module is a minimal, dependency-free replacement for the
//! Criterion API surface the benches use (the workspace builds with no
//! registry access): `Criterion`, benchmark groups, `iter`/`iter_batched`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros.

pub mod harness;

use ccr_edf::config::NetworkConfig;
use ccr_edf::connection::ConnectionSpec;
use ccr_edf::network::RingNetwork;
use ccr_sim::SeedSequence;
use ccr_traffic::PeriodicSetBuilder;

/// Standard benchmark configuration: N nodes, 2 KiB slots (auto-enlarged).
pub fn bench_config(n: u16) -> NetworkConfig {
    NetworkConfig::builder(n)
        .slot_bytes(2048)
        .build_auto_slot()
        .expect("bench config valid")
}

/// A deterministic random periodic set at `load` fraction of `u_max`.
pub fn bench_set(cfg: &NetworkConfig, load: f64, seed: u64) -> Vec<ConnectionSpec> {
    let model = ccr_edf::analysis::AnalyticModel::new(cfg);
    let mut rng = SeedSequence::new(seed).stream("bench", 0);
    PeriodicSetBuilder::new(
        cfg.n_nodes,
        cfg.n_nodes as usize * 2,
        load * model.u_max(),
        cfg.slot_time(),
    )
    .periods(50, 2_000)
    .generate(&mut rng)
}

/// A CCR-EDF network pre-loaded with an admitted set at `load`·u_max.
pub fn loaded_network(n: u16, load: f64, seed: u64) -> RingNetwork {
    let cfg = bench_config(n);
    let set = bench_set(&cfg, load, seed);
    let mut net = RingNetwork::new_ccr_edf(cfg);
    for spec in set {
        let _ = net.open_connection(spec);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_runnable_networks() {
        let mut net = loaded_network(8, 0.5, 1);
        net.run_slots(500);
        assert!(net.metrics().delivered.get() > 0);
    }
}
