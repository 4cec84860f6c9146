//! E11 — ablation of the laxity → priority mapping function.
//!
//! Section 3 mandates a mapping with "higher resolution of laxity, the
//! closer to its deadline a packet gets" and assumes a logarithmic
//! function, deferring details. This experiment justifies that choice: the
//! same near-saturation workloads run under the paper's logarithmic map and
//! under linear maps with wide and narrow horizons. Coarse resolution near
//! the deadline turns the per-slot priority into a lottery among almost-due
//! messages and misses rise.

use super::{base_config, ExpOptions, ExperimentResult};
use crate::runner::{run_with_mac, Workload};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::arbitration::CcrEdfMac;
use ccr_edf::priority::MapperKind;
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, fmt_pct, Table};
use ccr_sim::SeedSequence;
use ccr_traffic::PeriodicSetBuilder;

/// Run E11.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let n = 16u16;
    let base = base_config(n, 2_048).build_auto_slot().unwrap();
    let model = AnalyticModel::new(&base);
    let seq = SeedSequence::new(opts.seed);
    let mappers: Vec<(&str, MapperKind)> = vec![
        ("log (paper)", MapperKind::Logarithmic),
        (
            "linear wide",
            MapperKind::Linear {
                horizon_slots: 1 << 14,
            },
        ),
        ("linear narrow", MapperKind::Linear { horizon_slots: 64 }),
    ];
    let loads: Vec<f64> = if opts.quick {
        vec![0.8, 1.0]
    } else {
        vec![0.6, 0.8, 0.9, 0.95, 1.0, 1.05]
    };
    let reps = opts.reps(3);
    let slots = opts.slots(150_000);

    let cases: Vec<(usize, f64, u64)> = (0..mappers.len())
        .flat_map(|mi| {
            loads
                .iter()
                .flat_map(move |&l| (0..reps).map(move |r| (mi, l, r)))
                .collect::<Vec<_>>()
        })
        .collect();
    let mappers_ref = &mappers;
    let base_ref = &base;
    let rows = parallel_map(cases, opts.threads, |&(mi, load, rep)| {
        let mut cfg = base_ref.clone();
        cfg.mapper = mappers_ref[mi].1;
        let target = load * model.u_max();
        // Same traffic for every mapper at a given (load, rep).
        let mut rng = seq
            .subsequence("e11", (load * 1000.0) as u64)
            .stream("traffic", rep);
        let set = PeriodicSetBuilder::new(n, n as usize * 2, target, cfg.slot_time())
            .periods(50, 2_000)
            .generate(&mut rng);
        let s = run_with_mac(cfg, CcrEdfMac, &Workload::raw(set), slots);
        (mi, load, s.rt_miss_ratio, s.rt_latency_p99_us)
    });

    let mut table = Table::new(
        "E11 — miss ratio by laxity mapper at rising load (N = 16, identical traffic)",
        &["load/u_max", "log_miss", "lin_wide_miss", "lin_narrow_miss"],
    );
    let mut notes = vec![];
    for &load in &loads {
        let miss = |mi: usize| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.0 == mi && (r.1 - load).abs() < 1e-9)
                .map(|r| r.2)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        table.row(&[
            fmt_f64(load, 2),
            fmt_pct(miss(0)),
            fmt_pct(miss(1)),
            fmt_pct(miss(2)),
        ]);
    }
    // Aggregate comparison across the near-saturation region.
    let agg = |mi: usize| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.0 == mi && r.1 >= 0.9 && r.1 <= 1.0)
            .map(|r| r.2)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    notes.push(format!(
        "mean miss ratio for load in [0.9, 1.0]·u_max — log: {:.4}, linear-wide: {:.4}, \
         linear-narrow: {:.4}",
        agg(0),
        agg(1),
        agg(2)
    ));

    ExperimentResult {
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mapping_ablation() {
        let r = run(&ExpOptions::quick(11));
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.tables[0].n_rows(), 2);
    }
}
