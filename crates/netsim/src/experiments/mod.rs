//! The experiment registry — one runner per reproduced table/figure.
//!
//! See DESIGN.md §4 for the experiment index. Every runner is a pure
//! function of [`ExpOptions`] (seeded, deterministic) returning rendered
//! tables; the `ccr-experiments` binary prints them and EXPERIMENTS.md
//! records the measured results against the paper's claims.

pub mod e01_priority;
pub mod e02_handover;
pub mod e03_slot_length;
pub mod e04_umax;
pub mod e05_latency_bound;
pub mod e06_shootout;
pub mod e07_spatial_reuse;
pub mod e08_admission;
pub mod e09_services;
pub mod e10_slot_sweep;
pub mod e11_mapping;
pub mod e12_bounds;
pub mod e13_fairness;
pub mod e14_three_way;
pub mod e15_dbf;
pub mod e16_hetero;
pub mod e17_multiring;
pub mod e18_chaos;
pub mod e19_calculus;
pub mod e20_churn;
pub mod e21_gateway;
pub mod e22_survivability;
pub mod e23_synthesis;

use ccr_edf::config::{NetworkConfig, NetworkConfigBuilder};
use ccr_sim::report::Table;

/// Options shared by all experiment runners.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Shrink sweeps/horizons for CI and tests.
    pub quick: bool,
    /// Worker threads for parallel sweeps.
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            seed: 0x000C_CEDF_2002,
            quick: false,
            threads: ccr_sim::parallel::default_threads(),
        }
    }
}

impl ExpOptions {
    /// A quick configuration for tests.
    pub fn quick(seed: u64) -> Self {
        ExpOptions {
            seed,
            quick: true,
            threads: 2,
        }
    }

    /// Simulation horizon in slots for full/quick mode.
    pub fn slots(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(2_000)
        } else {
            full
        }
    }

    /// Seeds per sweep point.
    pub fn reps(&self, full: u64) -> u64 {
        if self.quick {
            1
        } else {
            full
        }
    }
}

/// Result of one experiment.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Rendered tables (printed by the CLI, dumped as CSV on request).
    pub tables: Vec<Table>,
    /// Free-form observations the runner wants recorded.
    pub notes: Vec<String>,
}

/// The registry entry type.
pub type Runner = fn(&ExpOptions) -> ExperimentResult;

/// All experiments: `(id, title, runner)`.
pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        (
            "e1",
            "Table 1: priority-level allocation and laxity mapping",
            e01_priority::run,
        ),
        (
            "e2",
            "Eq. 1 / Figs. 6-7: clock hand-over time vs hop distance",
            e02_handover::run,
        ),
        (
            "e3",
            "Eq. 2: minimum slot length and control-phase budget",
            e03_slot_length::run,
        ),
        (
            "e4",
            "Eqs. 5-6: U_max and the admission boundary",
            e04_umax::run,
        ),
        (
            "e5",
            "Eqs. 3-4: worst-case latency bound vs measured maxima",
            e05_latency_bound::run,
        ),
        (
            "e6",
            "Headline: CCR-EDF vs CC-FPR deadline misses vs offered load",
            e06_shootout::run,
        ),
        (
            "e7",
            "Spatial reuse: aggregate throughput vs traffic locality",
            e07_spatial_reuse::run,
        ),
        (
            "e8",
            "Runtime admission control over best-effort messages",
            e08_admission::run,
        ),
        (
            "e9",
            "Services: barrier, reduction, short messages, reliability",
            e09_services::run,
        ),
        (
            "e10",
            "Ablation: slot length vs latency and utilisation",
            e10_slot_sweep::run,
        ),
        (
            "e11",
            "Ablation: logarithmic vs linear laxity mapping",
            e11_mapping::run,
        ),
        (
            "e12",
            "CC-FPR pessimistic bound vs CCR-EDF guarantee",
            e12_bounds::run,
        ),
        (
            "e13",
            "Ablation: tie-break rule and per-node fairness",
            e13_fairness::run,
        ),
        (
            "e14",
            "Three-way: CCR-EDF vs CC-FPR vs static TDMA",
            e14_three_way::run,
        ),
        (
            "e15",
            "Extension: constrained deadlines and demand-bound admission",
            e15_dbf::run,
        ),
        (
            "e16",
            "Extension: heterogeneous link lengths",
            e16_hetero::run,
        ),
        (
            "e17",
            "Extension: multi-ring fabric with end-to-end EDF admission",
            e17_multiring::run,
        ),
        (
            "e18",
            "Robustness: chaos soak, self-healing, and bridge failover",
            e18_chaos::run,
        ),
        (
            "e19",
            "Extension: network-calculus certified bounds on cyclic fabrics",
            e19_calculus::run,
        ),
        (
            "e20",
            "Extension: incremental admission-churn soak at 10k-scale resident sets",
            e20_churn::run,
        ),
        (
            "e21",
            "Extension: real-wire gateway — virtual links paced through EDF admission",
            e21_gateway::run,
        ),
        (
            "e22",
            "Robustness: edge survivability — chaos, link churn, record/replay",
            e22_survivability::run,
        ),
        (
            "e23",
            "Extension: calculus-certified topology synthesis from traffic matrices",
            e23_synthesis::run,
        ),
    ]
}

/// Write experiment artefacts into `results/`, one `(file name, contents)`
/// pair each, and note what was written. Quick runs write nothing: the
/// files under `results/` are the published full-run numbers, and a smoke
/// run must not replace them.
pub(crate) fn write_results(opts: &ExpOptions, files: &[(&str, &str)], notes: &mut Vec<String>) {
    if opts.quick {
        return;
    }
    for &(file, contents) in files {
        let path = format!("results/{file}");
        match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents)) {
            Ok(()) => notes.push(format!("wrote {path}")),
            Err(e) => notes.push(format!("{path} export skipped ({e})")),
        }
    }
}

/// Look up one experiment by id.
pub fn by_id(id: &str) -> Option<(&'static str, &'static str, Runner)> {
    registry().into_iter().find(|(eid, _, _)| *eid == id)
}

/// Standard network-config builder used by most experiments.
pub fn base_config(n: u16, slot_bytes: u32) -> NetworkConfigBuilder {
    NetworkConfig::builder(n).slot_bytes(slot_bytes)
}

/// The standard ring sizes swept by N-dependent experiments.
pub fn ring_sizes(opts: &ExpOptions) -> Vec<u16> {
    if opts.quick {
        vec![4, 8, 16]
    } else {
        vec![4, 8, 16, 32, 64]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_runs_leave_results_alone() {
        let path = std::path::Path::new("results/e21_gateway.csv");
        let before = std::fs::read_to_string(path).ok();
        let r = e21_gateway::run(&ExpOptions::quick(21));
        assert_eq!(
            std::fs::read_to_string(path).ok(),
            before,
            "a quick run rewrote {}",
            path.display()
        );
        assert!(
            r.notes.iter().all(|n| !n.starts_with("wrote ")),
            "a quick run wrote results: {:?}",
            r.notes
        );
    }
}
