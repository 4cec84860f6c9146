//! `admission_churn`: one closed-loop caller churning admissions on a
//! calculus-certified cyclic fabric, with no slot stepping.
//!
//! Eight 8-node rings are bridged into a cycle
//! (`allow_cycles_with(CycleBound::Calculus)`), so every admission runs the
//! certifier's cyclic fixed point. A few hundred ring-local resident flows
//! and one flow across each bridge are batch-admitted at set-up. A seeded
//! sequence then runs single opens that admit, opens that must be refused
//! (deadlines just above the segment floors, which the certified bound
//! cannot meet), four-flow `open_connections` batches, and closes; it ends
//! by closing every probe, which must leave the residents' certified bounds
//! exactly as they were.

use std::time::Instant;

use ccr_multiring::prelude::*;
use ccr_sim::TimeDelta;

use crate::trace::{Call, Tracer};
use crate::util::Rng;
use crate::{Names, Rep, Scale, Windows, Workload};

const RINGS: u16 = 8;
const NODES: u16 = 8;
/// Probes held open at most; beyond this the sequence closes.
const MAX_OPEN: usize = 48;
const BATCH: usize = 4;
/// Operations per window of the end-to-end time per operation: two
/// periods of [`MIX`], so each window holds every kind of operation.
const WINDOW_OPS: u64 = 40;

enum Op {
    Admit(FabricConnectionSpec),
    /// Index into the calibrated refusal templates.
    Refuse(usize),
    Batch(Vec<FabricConnectionSpec>),
    /// Close the open probe at this position (modulo the open count).
    Close(u64),
}

pub struct State {
    fabric: Fabric,
    residents: Vec<FabricConnectionId>,
    /// Certified bounds of every 16th resident after set-up.
    sentinels: Vec<(FabricConnectionId, Option<TimeDelta>)>,
    refuse: Vec<FabricConnectionSpec>,
    ops: Vec<Op>,
    violations: Vec<String>,
}

fn topology() -> FabricTopology {
    let mut b = FabricTopology::builder();
    for _ in 0..RINGS {
        b.ring(NODES);
    }
    for r in 0..RINGS {
        b.bridge(
            GlobalNodeId::new(r, NODES - 1),
            GlobalNodeId::new((r + 1) % RINGS, 0),
        );
    }
    b.allow_cycles_with(CycleBound::Calculus);
    b.build()
        .expect("ring of rings with calculus-bounded cycles")
}

/// A flow from a random node of ring `r` to a random node of the same ring
/// or, when `cross`, of the next ring. Bridge ports (the first and last
/// node of each ring) are never endpoints: a route entering and leaving a
/// ring at one node is degenerate.
fn endpoints(rng: &mut Rng, r: u16, cross: bool) -> (GlobalNodeId, GlobalNodeId) {
    let inner = NODES as u64 - 2;
    let src = rng.range(0, inner) as u16;
    let (dst_ring, dst) = if cross {
        ((r + 1) % RINGS, rng.range(0, inner) as u16)
    } else {
        (r, (src + 1 + rng.range(0, inner - 1) as u16) % inner as u16)
    };
    (
        GlobalNodeId::new(r, 1 + src),
        GlobalNodeId::new(dst_ring, 1 + dst),
    )
}

/// The `k`-th churn probe: rings in turn, three in ten crossing a bridge.
fn probe(rng: &mut Rng, k: u64) -> FabricConnectionSpec {
    let (s, d) = endpoints(rng, (k % RINGS as u64) as u16, k % 10 < 3);
    FabricConnectionSpec::unicast(s, d).period(TimeDelta::from_ms(rng.range(20, 60)))
}

/// One period of the op mix: A admit, R refusal, B batch, C close. Seven
/// admits, four refusals and a four-flow batch open eleven flows against
/// eight closes; the generator closes early whenever a batch might not
/// fit under [`MAX_OPEN`].
const MIX: &[u8; 20] = b"AARCACRBCACARCRCACAC";

fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> State {
    let mut rng = Rng::new(seed, 0xAD17);
    let cfg = FabricConfig::uniform(topology(), 2_048, seed).expect("uniform config");
    let mut fabric = tr
        .leaf(Call::FabricNew, 0, || Fabric::new(cfg))
        .expect("cyclic fabric builds");
    let mut violations = Vec::new();

    let residents_n = match scale {
        Scale::Full => 320,
        Scale::Tiny => 64,
    };
    // Ring-local residents spread evenly over the rings, plus one flow
    // crossing each bridge: those close the cycle the certifier's fixed
    // point iterates over.
    let specs: Vec<FabricConnectionSpec> = (0..residents_n + RINGS as usize)
        .map(|i| {
            let (s, d) = endpoints(&mut rng, (i % RINGS as usize) as u16, i >= residents_n);
            FabricConnectionSpec::unicast(s, d).period(TimeDelta::from_ms(rng.range(40, 120)))
        })
        .collect();
    tr.enter(Call::Batch, 0);
    let residents = fabric.open_connections(&specs);
    tr.exit(Call::Batch, specs.len() as u64);
    let residents = residents.unwrap_or_else(|e| {
        violations.push(format!("residents refused: {e}"));
        Vec::new()
    });
    let sentinels = residents
        .iter()
        .step_by(16)
        .map(|&f| (f, fabric.e2e_bound(f)))
        .collect();

    // Refusal templates, one per ring, alternately local and crossing:
    // deadlines a hair above the sum of the segment floors. Kept only if
    // the gate refuses them now; the churn only ever adds load to the
    // residents, which loosens no bound, so they stay refused.
    let envs = fabric.segment_envs().to_vec();
    let mut refuse = Vec::new();
    for r in 0..RINGS {
        let (s, d) = endpoints(&mut rng, r, r % 2 == 1);
        let hops = if s.ring == d.ring { 1 } else { 2 };
        let floor = envs[r as usize].floor(1).as_ps() * hops;
        let spec = FabricConnectionSpec::unicast(s, d)
            .period(TimeDelta::from_ms(20))
            .e2e_deadline(TimeDelta::from_ps(floor + floor / 50));
        tr.enter(Call::Admit, r as u64);
        let outcome = fabric.open_connection(spec.clone());
        tr.exit(
            if outcome.is_ok() {
                Call::Admit
            } else {
                Call::Refuse
            },
            1,
        );
        match outcome {
            Ok(fid) => {
                tr.leaf(Call::Close, r as u64, || fabric.close_connection(fid));
            }
            Err(_) => refuse.push(spec),
        }
    }
    if refuse.is_empty() {
        violations.push("no refusal template was refused".into());
    }

    let n_ops = match scale {
        Scale::Full => 240,
        Scale::Tiny => 60,
    };
    // Ops are drawn against a model of the open-probe count so the
    // sequence never over-fills and never closes from an empty set.
    let (mut open, mut probes) = (0usize, 0u64);
    let mut ops = Vec::with_capacity(n_ops);
    for i in 0..n_ops {
        let kind = MIX[i % MIX.len()];
        let op = if open + BATCH > MAX_OPEN || (kind == b'C' && open > 0) {
            open -= 1;
            Op::Close(rng.next_u64())
        } else if kind == b'B' {
            open += BATCH;
            probes += BATCH as u64;
            Op::Batch(
                (0..BATCH as u64)
                    .map(|j| probe(&mut rng, probes - j))
                    .collect(),
            )
        } else if kind == b'R' && !refuse.is_empty() {
            Op::Refuse(rng.range(0, refuse.len() as u64) as usize)
        } else {
            open += 1;
            probes += 1;
            Op::Admit(probe(&mut rng, probes))
        };
        ops.push(op);
    }
    State {
        fabric,
        residents,
        sentinels,
        refuse,
        ops,
        violations,
    }
}

fn run(st: State, tr: &mut Tracer) -> Rep {
    let State {
        mut fabric,
        residents,
        sentinels,
        refuse,
        ops,
        violations,
    } = st;
    let mut rep = Rep {
        violations,
        ..Rep::default()
    };
    let mut open: Vec<(FabricConnectionId, TimeDelta)> = Vec::new();
    let (mut calls, mut refused, mut closes) = (0u64, 0u64, 0u64);
    let mut windows = Windows::new(WINDOW_OPS);
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64;
        // Host time of this op's call into the fabric; the checks after it
        // are not timed.
        let t = Instant::now();
        match op {
            Op::Admit(spec) => {
                tr.enter(Call::Admit, id);
                let r = fabric.open_connection(spec.clone());
                tr.exit(if r.is_ok() { Call::Admit } else { Call::Refuse }, 1);
                rep.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                calls += 1;
                match r {
                    Ok(fid) => open.push((fid, spec.e2e_deadline)),
                    Err(e) => rep.violations.push(format!("op {i}: admit refused: {e}")),
                }
            }
            Op::Refuse(k) => {
                tr.enter(Call::Refuse, id);
                let r = fabric.open_connection(refuse[*k].clone());
                tr.exit(if r.is_ok() { Call::Admit } else { Call::Refuse }, 1);
                rep.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                calls += 1;
                refused += 1;
                match r {
                    Ok(fid) => {
                        rep.violations
                            .push(format!("op {i}: refusal template {k} was admitted"));
                        fabric.close_connection(fid);
                    }
                    Err(e) => rep.digest.debug(&e),
                }
            }
            Op::Batch(specs) => {
                tr.enter(Call::Batch, id);
                let r = fabric.open_connections(specs);
                tr.exit(Call::Batch, specs.len() as u64);
                rep.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                calls += 1;
                match r {
                    Ok(fids) => {
                        open.extend(fids.into_iter().zip(specs.iter().map(|s| s.e2e_deadline)))
                    }
                    Err(e) => rep.violations.push(format!("op {i}: batch refused: {e}")),
                }
            }
            Op::Close(pick) => {
                if open.is_empty() {
                    continue;
                }
                let (fid, _) = open.swap_remove((*pick % open.len() as u64) as usize);
                let ok = tr.leaf(Call::Close, id, || fabric.close_connection(fid));
                closes += 1;
                rep.check(ok, || format!("op {i}: close of {fid:?} failed"));
            }
        }
        windows.add(&mut rep, 1, t.elapsed().as_secs_f64());
        // Every open probe keeps a certificate within its deadline.
        for &(fid, deadline) in &open {
            match fabric.e2e_bound(fid) {
                Some(b) if b <= deadline => rep.digest.u64(b.as_ps()),
                other => rep.violations.push(format!(
                    "op {i}: {fid:?} bound {other:?} vs deadline {deadline}"
                )),
            }
        }
    }
    windows.finish(&mut rep);
    for (j, (fid, _)) in open.drain(..).enumerate() {
        let ok = tr.leaf(Call::Close, (ops.len() + j) as u64, || {
            fabric.close_connection(fid)
        });
        closes += 1;
        rep.check(ok, || format!("final close of {fid:?} failed"));
    }
    rep.measured_s = t0.elapsed().as_secs_f64();
    rep.ops = calls + closes;

    rep.check(fabric.active_connections() == residents.len(), || {
        format!(
            "{} connections left, {} residents",
            fabric.active_connections(),
            residents.len()
        )
    });
    for (fid, before) in &sentinels {
        let after = fabric.e2e_bound(*fid);
        rep.digest.u64(after.map_or(u64::MAX, |b| b.as_ps()));
        rep.check(after == *before, || {
            format!("resident {fid:?}: bound {before:?} became {after:?} after churn")
        });
    }
    let m = fabric.metrics();
    rep.digest.u64(m.calc_admit_incremental.get());
    rep.digest.u64(m.calc_admit_full.get());
    rep.counts.insert(
        "calculus.admit_incremental",
        m.calc_admit_incremental.get() as f64,
    );
    rep.counts
        .insert("calculus.admit_full", m.calc_admit_full.get() as f64);
    rep.attempted = calls;
    rep.failed = refused;
    rep
}

/// Admission churn on the cyclic fabric.
pub struct Churn;

impl Workload for Churn {
    type State = State;
    const NAMES: Names = Names {
        rate: "admit_ops_per_s",
        latency: "admit",
    };
    fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> State {
        setup(seed, scale, tr)
    }
    fn run(state: State, tr: &mut Tracer) -> Rep {
        run(state, tr)
    }
}
