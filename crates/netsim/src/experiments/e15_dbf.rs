//! E15 — extension: constrained deadlines and the demand-bound admission
//! test.
//!
//! Section 5 assumes relative deadline = period, making the Equation 5
//! utilisation test exact. This experiment extends the framework to
//! constrained deadlines (D < P) and shows:
//!
//! 1. the utilisation test becomes **unsound** — it admits
//!    constrained-deadline sets whose messages then miss even on an
//!    otherwise idle ring;
//! 2. the processor-demand test (`ccr_edf::dbf`) refuses exactly those
//!    sets, and everything it admits runs clean;
//! 3. the price of sound admission: acceptance ratio vs deadline tightness.

use super::{base_config, ExpOptions, ExperimentResult};
use ccr_edf::admission::AdmissionPolicy;
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::connection::ConnectionSpec;
use ccr_edf::network::RingNetwork;
use ccr_edf::{NodeId, TimeDelta};
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, fmt_pct, Table};
use ccr_sim::rng::DetRng;
use ccr_sim::SeedSequence;

/// Build a random constrained-deadline set: n_conns connections at total
/// utilisation `u`, each with deadline `D = tightness · P`.
fn constrained_set(
    rng: &mut DetRng,
    n: u16,
    n_conns: usize,
    u_total: f64,
    tightness: f64,
    slot: TimeDelta,
) -> Vec<ConnectionSpec> {
    let shares = ccr_traffic::uunifast(rng, n_conns, u_total);
    shares
        .into_iter()
        .map(|u| {
            let src = NodeId(rng.gen_range(0..n));
            let hops = rng.gen_range(1..n);
            let dst = NodeId((src.0 + hops) % n);
            let p_slots = rng.gen_range(30.0..400.0_f64);
            let e = ((u * p_slots).round() as u32).clamp(1, 12);
            let period_ps = if u > 0.0 {
                ((e as f64 * slot.as_ps() as f64) / u).round() as u64
            } else {
                slot.as_ps() * 400
            }
            .max(slot.as_ps() * 2);
            let period = TimeDelta::from_ps(period_ps);
            let d_ps = ((period_ps as f64 * tightness) as u64).max(slot.as_ps());
            ConnectionSpec::unicast(src, dst)
                .period(period)
                .size_slots(e)
                .deadline(TimeDelta::from_ps(d_ps.min(period_ps)))
        })
        .collect()
}

/// Run E15.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let n = 16u16;
    let cfg = base_config(n, 2_048).build_auto_slot().unwrap();
    let model = AnalyticModel::new(&cfg);
    let seq = SeedSequence::new(opts.seed);
    let slots = opts.slots(120_000);
    let tightnesses: Vec<f64> = if opts.quick {
        vec![0.1, 0.5]
    } else {
        vec![0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let load = 0.6; // fixed moderate utilisation — the misses come from D, not U

    let cfg_ref = &cfg;
    let rows = parallel_map(tightnesses.clone(), opts.threads, |&tight| {
        let mut rng = seq
            .subsequence("e15", (tight * 1000.0) as u64)
            .stream("traffic", 0);
        let set = constrained_set(
            &mut rng,
            n,
            n as usize * 2,
            load * model.u_max(),
            tight,
            cfg_ref.slot_time(),
        );

        // Utilisation-policy network: admits on ΣU alone (paper's test).
        let mut util_cfg = cfg_ref.clone();
        util_cfg.admission_policy = AdmissionPolicy::Utilisation;
        let mut util_net = RingNetwork::new_ccr_edf(util_cfg);
        let mut util_admitted = 0u32;
        for spec in &set {
            if util_net.open_connection(spec.clone()).is_ok() {
                util_admitted += 1;
            }
        }
        util_net.run_slots(slots);

        // Demand-bound-policy network on the same candidate set.
        let mut dbf_cfg = cfg_ref.clone();
        dbf_cfg.admission_policy = AdmissionPolicy::DemandBound;
        let mut dbf_net = RingNetwork::new_ccr_edf(dbf_cfg);
        let mut dbf_admitted = 0u32;
        for spec in &set {
            if dbf_net.open_connection(spec.clone()).is_ok() {
                dbf_admitted += 1;
            }
        }
        dbf_net.run_slots(slots);

        let um = util_net.metrics();
        let dm = dbf_net.metrics();
        (
            tight,
            set.len() as u32,
            util_admitted,
            um.rt_miss_ratio(),
            dbf_admitted,
            dm.rt_miss_ratio(),
            dm.delivered_rt.get(),
        )
    });

    let mut table = Table::new(
        "E15 — constrained deadlines (D = tightness·P, ΣU = 0.6·u_max, N = 16)",
        &[
            "tightness",
            "offered",
            "util_admitted",
            "util_miss",
            "dbf_admitted",
            "dbf_miss",
            "dbf_delivered",
        ],
    );
    let mut notes = vec![];
    for (tight, offered, ua, umiss, da, dmiss, ddel) in &rows {
        table.row(&[
            fmt_f64(*tight, 2),
            offered.to_string(),
            ua.to_string(),
            fmt_pct(*umiss),
            da.to_string(),
            fmt_pct(*dmiss),
            ddel.to_string(),
        ]);
        // The extension's soundness claim: everything dbf admits runs
        // clean at every tightness.
        assert!(
            *dmiss < 1e-9,
            "demand-bound-admitted set missed at tightness {tight}"
        );
        assert!(da <= ua, "dbf can never admit more than the util test");
    }
    // The unsoundness claim: at some tight setting the util test admits
    // a set that misses.
    if let Some((t, ..)) = rows.iter().find(|r| r.3 > 0.001) {
        notes.push(format!(
            "utilisation test admitted a missing set at tightness {t:.2} — unsound for D < P"
        ));
    }
    notes.push(
        "demand-bound admission: zero misses at every tightness; acceptance \
         falls as deadlines tighten — the price of a sound guarantee"
            .into(),
    );

    ExperimentResult {
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_dbf_soundness() {
        let r = run(&ExpOptions::quick(15));
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.tables[0].n_rows(), 2);
    }
}
