//! `synthesis`: `synthesize` over a seeded family of clustered traffic
//! matrices — three neighbourhoods of heavy local traffic plus a few
//! cross-cluster flows, which force multi-ring topologies and give the
//! refiner real work. Set-up renders each matrix in the synthesiser's TOML
//! subset and loads it back with `TrafficMatrix::parse`, so the program
//! receives only the generated text. Every synthesized fabric must
//! re-certify bit for bit from a cold, forced-full solve.

use std::fmt::Write as _;
use std::time::Instant;

use ccr_sim::TimeDelta;
use ccr_synth::{synthesize, SynthConfig, TrafficMatrix};

use crate::trace::{Call, Tracer};
use crate::util::Rng;
use crate::{Names, Rep, Scale, Windows, Workload};

/// Matrices per window of the end-to-end time per matrix: two cycles of
/// the nine size combinations [`clustered`] steps through.
const WINDOW_MATRICES: u64 = 18;

pub struct State {
    matrices: Vec<TrafficMatrix>,
    violations: Vec<String>,
}

/// The `i`-th matrix: clusters of 4, 5 or 6 stations and 2, 3 or 4
/// cross-cluster flows, in turn, so every family holds the same mix of
/// sizes and only periods, deadlines and endpoints vary with the seed.
fn clustered(rng: &mut Rng, i: u64) -> TrafficMatrix {
    let per_cluster = 4 + (i % 3) as u16;
    let mut m = TrafficMatrix::new(3 * per_cluster);
    for c in 0..3u16 {
        let base = c * per_cluster;
        for j in 0..per_cluster {
            let period = rng.range(400, 800);
            let f = m.flow(
                base + j,
                base + (j + 1) % per_cluster,
                TimeDelta::from_us(period),
            );
            f.deadline = TimeDelta::from_us(period * rng.range(50, 95) / 100);
            f.size_slots = rng.range(1, 3) as u32;
        }
    }
    for k in 0..2 + (i / 3) % 3 {
        let c_src = (k % 3) as u16;
        let c_dst = (c_src + rng.range(1, 3) as u16) % 3;
        let src = c_src * per_cluster + rng.range(0, per_cluster as u64) as u16;
        let dst = c_dst * per_cluster + rng.range(0, per_cluster as u64) as u16;
        let f = m.flow(src, dst, TimeDelta::from_us(2_000));
        f.deadline = TimeDelta::from_us(rng.range(1_000, 1_500));
        f.size_slots = 1;
    }
    m
}

/// `m` in the TOML subset `TrafficMatrix::parse` reads.
fn toml(m: &TrafficMatrix) -> String {
    let us = |t: TimeDelta| t.as_ps() / 1_000_000;
    let mut text = format!("[[matrix]]\nstations = {}\n", m.stations);
    for f in &m.flows {
        let _ = write!(
            text,
            "\n[[flow]]\nsrc = {}\ndst = {}\nperiod_us = {}\nsize_slots = {}\ndeadline_us = {}\n",
            f.src.0,
            f.dst.0,
            us(f.period),
            f.size_slots,
            us(f.deadline)
        );
    }
    text
}

fn setup(seed: u64, scale: Scale) -> State {
    let mut rng = Rng::new(seed, 0x5E17);
    let n = match scale {
        Scale::Full => 162,
        Scale::Tiny => 3,
    };
    let mut violations = Vec::new();
    let mut matrices = Vec::with_capacity(n);
    for i in 0..n {
        let generated = clustered(&mut rng, i as u64);
        match TrafficMatrix::parse(&toml(&generated)) {
            Ok(m) if m == generated => matrices.push(m),
            other => violations.push(format!("matrix {i} does not load back: {other:?}")),
        }
    }
    State {
        matrices,
        violations,
    }
}

fn run(st: State, tr: &mut Tracer) -> Rep {
    let mut rep = Rep {
        violations: st.violations,
        ..Rep::default()
    };
    let mut windows = Windows::new(WINDOW_MATRICES);
    let cfg = SynthConfig::default();
    let (mut calls, mut moves, mut cost, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for (i, m) in st.matrices.iter().enumerate() {
        let t = Instant::now();
        let r = tr.leaf(Call::Synthesize, i as u64, || synthesize(m, &cfg));
        let secs = t.elapsed().as_secs_f64();
        rep.measured_s += secs;
        rep.latencies_us.push(secs * 1e6);
        windows.add(&mut rep, 1, secs);
        match r {
            Ok(s) => {
                let r = &s.report;
                calls += r.certifier_calls;
                moves += r.moves_accepted;
                cost += r.cost;
                rep.digest.bytes(r.to_json().as_bytes());
                for (k, b) in &s.bounds {
                    rep.digest.u64(*k as u64);
                    rep.digest.u64(b.as_ps());
                }
                match s.recertify_full() {
                    Ok(reference) => rep.check(reference == s.search_bounds, || {
                        format!("matrix {i}: re-certified bounds differ from the search's")
                    }),
                    Err(e) => rep.violations.push(format!(
                        "matrix {i}: synthesized fabric does not re-certify: {e:?}"
                    )),
                }
            }
            Err(e) => {
                failed += 1;
                rep.digest.debug(&e);
            }
        }
    }
    windows.finish(&mut rep);
    rep.ops = st.matrices.len() as u64;
    rep.attempted = rep.ops;
    rep.failed = failed;
    rep.check(failed < rep.ops, || "no matrix synthesized".into());
    let c = &mut rep.counts;
    c.insert("synth.certifier_calls", calls as f64);
    c.insert("synth.moves_accepted", moves as f64);
    c.insert("synth.cost_total", cost as f64);
    rep
}

/// The clustered matrix family.
pub struct Family;

impl Workload for Family {
    type State = State;
    const NAMES: Names = Names {
        rate: "synth_matrices_per_s",
        latency: "matrix",
    };
    fn setup(seed: u64, scale: Scale, _tr: &mut Tracer) -> State {
        setup(seed, scale)
    }
    fn run(state: State, tr: &mut Tracer) -> Rep {
        run(state, tr)
    }
}
