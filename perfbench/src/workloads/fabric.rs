//! `fabric_soak` and `fabric_sparse`: a calculus-certified 6-ring × 16-node
//! chain driven by `Fabric::run_slots` in fixed chunks.
//!
//! * soak — seeded periodic guaranteed connections, most ring-local and
//!   the rest crossing bridges, are opened in batches until the admission
//!   gate refuses one.
//!   More than one message is released per fabric slot, so ring stepping
//!   and the fabric glue take almost all the time.
//! * sparse — about a dozen connections with periods of thousands of
//!   slots: more than 99% of fabric slots are idle, so per-slot fabric
//!   overhead dominates. The only workload where an idle fast-forward of
//!   the fabric can show.

use std::time::Instant;

use ccr_multiring::prelude::*;

use super::fabric_counts;
use crate::trace::{Call, Tracer};
use crate::util::Rng;
use crate::{Names, Rep, Scale, Windows, Workload};

const RINGS: u16 = 6;
const NODES: u16 = 16;
const SLOT_BYTES: u32 = 2_048;

/// Shape of one fabric workload.
struct Shape {
    /// Input stream of the seed.
    stream: u64,
    /// Connection periods, in slots: `lo..hi`.
    period_slots: (u64, u64),
    /// Opens the workload's connections.
    fill: fn(&mut Fabric, &mut dyn FnMut() -> FabricConnectionSpec, &mut Tracer) -> Fill,
    /// Fabric slots per timed `run_slots` chunk.
    chunk: u64,
    /// Chunks per repetition (full scale).
    chunks: u64,
    /// Chunks per window of the end-to-end time per slot: short enough for
    /// a run to collect hundreds of windows. A soak window holds several
    /// releases of every connection; a sparse one, about 8 000 mostly idle
    /// slots.
    window: u64,
}

const SOAK: Shape = Shape {
    stream: 0x50AC,
    period_slots: (100, 200),
    fill: fill_soak,
    chunk: 512,
    chunks: 600,
    window: 10,
};

const SPARSE: Shape = Shape {
    stream: 0x5BA5,
    period_slots: (2_000, 8_000),
    fill: fill_sparse,
    chunk: 4_096,
    chunks: 100,
    window: 2,
};

/// Connections per soak `open_connections` batch.
const SOAK_BATCH: usize = 8;
/// Connections of the sparse fabric.
const SPARSE_CONNECTIONS: usize = 12;

/// The connections a fill opened.
#[derive(Default)]
struct Fill {
    fids: Vec<FabricConnectionId>,
    violations: Vec<String>,
}

/// Soak: batches until the gate refuses one, so the fabric is filled to
/// the point where admission starts refusing. Stopping at the first refused
/// batch, rather than trying single opens after it, keeps the set-up work
/// alike across seeds.
fn fill_soak(
    fabric: &mut Fabric,
    next: &mut dyn FnMut() -> FabricConnectionSpec,
    tr: &mut Tracer,
) -> Fill {
    let mut fill = Fill::default();
    let mut op = 0u64;
    loop {
        let specs: Vec<_> = (0..SOAK_BATCH).map(|_| next()).collect();
        tr.enter(Call::Batch, op);
        let r = fabric.open_connections(&specs);
        tr.exit(Call::Batch, specs.len() as u64);
        op += 1;
        match r {
            Ok(batch) => fill.fids.extend(batch),
            Err(_) => return fill,
        }
    }
}

/// Sparse: one batch of [`SPARSE_CONNECTIONS`], which must be admitted.
fn fill_sparse(
    fabric: &mut Fabric,
    next: &mut dyn FnMut() -> FabricConnectionSpec,
    tr: &mut Tracer,
) -> Fill {
    let specs: Vec<_> = (0..SPARSE_CONNECTIONS).map(|_| next()).collect();
    tr.enter(Call::Batch, 0);
    let r = fabric.open_connections(&specs);
    tr.exit(Call::Batch, specs.len() as u64);
    match r {
        Ok(fids) => Fill {
            fids,
            ..Fill::default()
        },
        Err(e) => Fill {
            violations: vec![format!("sparse connections refused: {e}")],
            ..Fill::default()
        },
    }
}

/// A built fabric, ready to run.
pub struct State {
    fabric: Fabric,
    fill: Fill,
    chunk: u64,
    chunks: u64,
    window: u64,
}

/// The `k`-th one-slot connection: from ring `k mod 6`, ring-local except
/// for every fifth, which crosses one or two bridges. Spreading the
/// connections evenly over the rings keeps the load at which admission
/// starts refusing alike across seeds.
fn spec(rng: &mut Rng, k: u64, slot: ccr_sim::TimeDelta, shape: &Shape) -> FabricConnectionSpec {
    let src_ring = (k % RINGS as u64) as u16;
    let dst_ring = if k % 5 != 4 {
        src_ring
    } else {
        let hops = rng.range(1, 3) as i32;
        let up = rng.chance(0.5);
        let r = src_ring as i32 + if up { hops } else { -hops };
        if (0..RINGS as i32).contains(&r) {
            r as u16
        } else {
            (src_ring as i32 + if up { -hops } else { hops }) as u16
        }
    };
    // Bridge ports (the first and last node of each ring) are never
    // endpoints: a route entering and leaving a ring at one node is
    // degenerate.
    let src = rng.range(1, NODES as u64 - 1) as u16;
    let mut dst = rng.range(1, NODES as u64 - 1) as u16;
    if dst_ring == src_ring && dst == src {
        dst = 1 + (dst + rng.range(0, NODES as u64 - 3) as u16) % (NODES - 2);
    }
    let p = shape.period_slots;
    // Crossing connections get proportionally longer periods (and so
    // deadlines): every hop adds a ring's worst-case latency to their bound.
    let hops = (src_ring as i32 - dst_ring as i32).unsigned_abs() as u64;
    let period = slot.times(rng.range(p.0, p.1) * (1 + hops));
    FabricConnectionSpec::unicast(
        GlobalNodeId::new(src_ring, src),
        GlobalNodeId::new(dst_ring, dst),
    )
    .period(period)
}

fn setup(shape: &Shape, seed: u64, scale: Scale, tr: &mut Tracer) -> State {
    let topo = FabricTopology::chain(RINGS, NODES);
    let cfg = FabricConfig::uniform(topo, SLOT_BYTES, seed)
        .expect("uniform chain config")
        .calculus(true);
    let mut fabric = tr
        .leaf(Call::FabricNew, 0, || Fabric::new(cfg))
        .expect("chain fabric builds");
    let slot = fabric.segment_envs()[0].slot;
    let mut rng = Rng::new(seed, shape.stream);
    let mut k = 0;
    let mut next = || {
        k += 1;
        spec(&mut rng, k - 1, slot, shape)
    };
    let fill = (shape.fill)(&mut fabric, &mut next, tr);
    // Warm-up: every connection has released at least once (a period
    // scales with the rings crossed, at most three).
    fabric.run_slots(3 * shape.period_slots.1);
    let chunks = match scale {
        Scale::Full => shape.chunks,
        Scale::Tiny => 4,
    };
    State {
        fabric,
        fill,
        chunk: shape.chunk,
        chunks,
        window: shape.window,
    }
}

fn run(mut st: State, tr: &mut Tracer) -> Rep {
    let mut rep = Rep {
        violations: std::mem::take(&mut st.fill.violations),
        ..Rep::default()
    };
    rep.latencies_us.reserve(st.chunks as usize);
    let mut windows = Windows::new(st.window * st.chunk);
    for c in 0..st.chunks {
        let t = Instant::now();
        tr.enter(Call::RunSlots, c);
        st.fabric.run_slots(st.chunk);
        tr.exit(Call::RunSlots, st.chunk);
        let secs = t.elapsed().as_secs_f64();
        rep.measured_s += secs;
        rep.latencies_us.push(secs * 1e6 / st.chunk as f64);
        windows.add(&mut rep, st.chunk, secs);
    }
    windows.finish(&mut rep);
    rep.ops = st.chunks * st.chunk;

    let f = &st.fabric;
    let fm = f.metrics();
    rep.check(fm.e2e_delivered.get() > 0, || {
        "no end-to-end delivery".into()
    });
    rep.check(fm.e2e_missed.get() == 0, || {
        format!("{} guaranteed end-to-end misses", fm.e2e_missed.get())
    });
    rep.check(fm.bridge_drops.get() == 0, || {
        format!("{} bridge drops", fm.bridge_drops.get())
    });
    for r in 0..RINGS {
        let misses = f.ring_metrics(RingId(r)).rt_deadline_misses.get();
        rep.check(misses == 0, || {
            format!("ring {r}: {misses} deadline misses")
        });
    }
    for &fid in &st.fill.fids {
        let bound = f.e2e_bound(fid);
        let seen = f.observed_e2e_max(fid);
        rep.digest.u64(bound.map_or(u64::MAX, |b| b.as_ps()));
        rep.digest.u64(seen.map_or(u64::MAX, |b| b.as_ps()));
        match (bound, seen) {
            (None, _) => rep
                .violations
                .push(format!("{fid:?} has no certified bound")),
            (Some(b), Some(s)) if b < s => rep
                .violations
                .push(format!("{fid:?}: observed {s} exceeds certified bound {b}")),
            _ => {}
        }
    }
    rep.digest.u64(st.fill.fids.len() as u64);
    rep.counts
        .insert("fabric.connections", st.fill.fids.len() as f64);
    fabric_counts(f, &mut rep);
    rep.attempted = fm.e2e_delivered.get() + fm.bridge_drops.get();
    rep.failed = fm.e2e_missed.get() + fm.bridge_drops.get();
    rep
}

/// The loaded fabric.
pub struct Soak;

impl Workload for Soak {
    type State = State;
    const NAMES: Names = Names {
        rate: "slots_per_s",
        latency: "slot_us",
    };
    fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> State {
        setup(&SOAK, seed, scale, tr)
    }
    fn run(state: State, tr: &mut Tracer) -> Rep {
        run(state, tr)
    }
}

/// The idle fabric.
pub struct Sparse;

impl Workload for Sparse {
    type State = State;
    const NAMES: Names = Names {
        rate: "slots_per_s",
        latency: "slot_us",
    };
    fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> State {
        setup(&SPARSE, seed, scale, tr)
    }
    fn run(state: State, tr: &mut Tracer) -> Rep {
        run(state, tr)
    }
}
