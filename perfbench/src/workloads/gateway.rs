//! `gateway_overload`: an in-process loopback edge on a 2-ring × 8-node
//! chain.
//!
//! Thirty-two virtual links are opened with `Gateway::open`. Half are
//! guaranteed queuing links offered just under their admitted rate; half
//! are best-effort links with mixed `Shed`/`Defer` policies and
//! `Queuing`/`Sampling` ports, offered at 10–20× their token rate.
//! Datagrams carry 64-byte payloads and about 1% of headers are corrupted.
//! The slot-indexed schedule is generated at set-up; each slot the
//! benchmark calls `reconcile`, `ingress` for every due frame, `pace`,
//! `Fabric::step_slot` and `poll_egress` — the loop `LoopbackBackend::run`
//! runs — with no sockets and no threads.

use std::collections::VecDeque;
use std::time::Instant;

use ccr_gateway::prelude::*;
use ccr_multiring::prelude::*;

use super::fabric_counts;
use crate::trace::{Call, Tracer};
use crate::util::Rng;
use crate::{Names, Rep, Scale, Windows, Workload};

const LINKS: u16 = 32;
const PAYLOAD: usize = 64;
/// Frames per timed codec span.
const CODEC_RUN: usize = 256;
/// Offered frames per window of the end-to-end time per frame: a few
/// thousand slots, so every link offers frames in each.
const WINDOW_FRAMES: u64 = 20_000;
/// Slots stepped after the schedule ends so every datagram in flight
/// reaches egress.
const DRAIN_SLOTS: u64 = 2_000;

/// Bytes of every scheduled frame: header plus payload.
const FRAME_LEN: usize = HEADER_LEN + PAYLOAD;

/// The slot-indexed schedule, frames in offer order, stored flat.
struct Schedule {
    /// Slot each frame is offered in (ascending).
    slot: Vec<u64>,
    /// Index into the link table.
    link: Vec<usize>,
    corrupt: Vec<bool>,
    /// Frame `i` is `bytes[i * FRAME_LEN..(i + 1) * FRAME_LEN]`.
    bytes: Vec<u8>,
}

impl Schedule {
    fn len(&self) -> usize {
        self.slot.len()
    }

    fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[i * FRAME_LEN..(i + 1) * FRAME_LEN]
    }
}

/// Per-link bookkeeping of the benchmark.
struct LinkPlan {
    id: u16,
    guaranteed: bool,
}

pub struct State {
    fabric: Fabric,
    gateway: Gateway,
    links: Vec<LinkPlan>,
    frames: Schedule,
    slots: u64,
    violations: Vec<String>,
}

fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> State {
    let mut rng = Rng::new(seed, 0x6A7E);
    let topo = FabricTopology::chain(2, 8);
    let cfg = FabricConfig::uniform(topo, 2_048, seed).expect("uniform chain config");
    let mut fabric = tr
        .leaf(Call::FabricNew, 0, || Fabric::new(cfg))
        .expect("chain fabric builds");
    let slot = fabric.segment_envs()[0].slot;

    // Links: even ids guaranteed, odd ids best-effort. `gap` is the offered
    // inter-arrival in slots.
    let mut links = Vec::new();
    let mut vlinks = Vec::new();
    let mut gaps = Vec::new();
    for i in 0..LINKS {
        let id = i + 1;
        // Nodes 1..=6: the bridge ports (node 7 of ring 0, node 0 of
        // ring 1) would make degenerate routes.
        let (sr, sn) = (rng.range(0, 2) as u16, rng.range(1, 7) as u16);
        let (dr, mut dn) = (rng.range(0, 2) as u16, rng.range(1, 7) as u16);
        if (dr, dn) == (sr, sn) {
            dn = 1 + dn % 6;
        }
        let (src, dst) = (GlobalNodeId::new(sr, sn), GlobalNodeId::new(dr, dn));
        let guaranteed = i % 2 == 0;
        let (vl, gap) = if guaranteed {
            let period = rng.range(120, 240);
            let vl = VirtualLink::new(id, src, dst).period(slot.times(period));
            // Just under the admitted rate: one datagram per period plus a
            // slot, so a token is always waiting.
            (vl, period + 1)
        } else {
            let period = rng.range(40, 80);
            let over = rng.range(10, 21);
            let port = if rng.chance(0.5) {
                PortSemantics::Queuing { depth: 4 }
            } else {
                PortSemantics::Sampling {
                    validity: slot.times(2 * period),
                }
            };
            let policy = if rng.chance(0.5) {
                OverloadPolicy::Shed
            } else {
                OverloadPolicy::Defer
            };
            let vl = VirtualLink::new(id, src, dst)
                .period(slot.times(period))
                .class(DeadlineClass::BestEffort)
                .port(port)
                .policy(policy);
            (vl, (period / over).max(1))
        };
        links.push(LinkPlan { id, guaranteed });
        vlinks.push(vl);
        gaps.push(gap);
    }
    let gw_cfg = GatewayConfig::new(vlinks).expect("generated links are valid");
    tr.enter(Call::Batch, 0);
    let (gateway, admission) = Gateway::open(&gw_cfg, &mut fabric);
    tr.exit(Call::Batch, LINKS as u64);
    let mut violations = Vec::new();
    if admission.admitted.len() != LINKS as usize {
        violations.push(format!("links refused at set-up: {:?}", admission.rejected));
    }

    // The slot-indexed schedule: links in table order within a slot, up
    // to a fixed number of frames so the work is alike across seeds.
    let n_frames = match scale {
        Scale::Full => 240_000,
        Scale::Tiny => 12_000,
    };
    let mut next: Vec<u64> = gaps.iter().map(|&g| rng.range(0, g)).collect();
    let mut seq = vec![0u32; links.len()];
    let mut frames = Schedule {
        slot: Vec::new(),
        link: Vec::new(),
        corrupt: Vec::new(),
        bytes: Vec::new(),
    };
    let mut batch: Vec<(Header, [u8; PAYLOAD])> = Vec::with_capacity(CODEC_RUN);
    let mut buf = Vec::with_capacity(FRAME_LEN);
    let mut encode = |batch: &mut Vec<(Header, [u8; PAYLOAD])>, bytes: &mut Vec<u8>, run: u64| {
        tr.enter(Call::Encode, run);
        for (h, payload) in batch.iter() {
            h.encode_into(payload, &mut buf);
            bytes.extend_from_slice(&buf);
        }
        tr.exit(Call::Encode, batch.len() as u64);
        batch.clear();
    };
    let mut slot = 0;
    while frames.len() < n_frames {
        for li in 0..links.len() {
            if next[li] != slot || frames.len() == n_frames {
                continue;
            }
            next[li] += gaps[li];
            let mut payload = [0u8; PAYLOAD];
            for (k, word) in payload.chunks_mut(8).enumerate() {
                let v = if k == 0 {
                    frames.len() as u64
                } else {
                    rng.next_u64()
                };
                word.copy_from_slice(&v.to_le_bytes());
            }
            let header = Header {
                kind: PacketKind::Data,
                link: links[li].id,
                seq: seq[li],
                len: 0,
                budget_us: 0,
            };
            seq[li] += 1;
            frames.slot.push(slot);
            frames.link.push(li);
            frames.corrupt.push(rng.chance(0.01));
            batch.push((header, payload));
            if batch.len() == CODEC_RUN {
                let run = frames.len() as u64;
                encode(&mut batch, &mut frames.bytes, run);
            }
        }
        slot += 1;
    }
    let slots = slot;
    let run = frames.len() as u64;
    encode(&mut batch, &mut frames.bytes, run);
    for i in 0..frames.len() {
        if frames.corrupt[i] {
            let bit = rng.range(0, 8 * HEADER_LEN as u64) as usize;
            frames.bytes[i * FRAME_LEN + bit / 8] ^= 1 << (bit % 8);
        }
    }
    // Every clean frame must decode to what was encoded, and every
    // corrupted header must be refused.
    for run in (0..frames.len()).step_by(CODEC_RUN) {
        let end = (run + CODEC_RUN).min(frames.len());
        tr.enter(Call::Decode, run as u64);
        for i in run..end {
            let ok = Header::decode(frames.frame(i))
                .is_ok_and(|(h, p)| h.link == links[frames.link[i]].id && p.len() == PAYLOAD);
            if ok == frames.corrupt[i] {
                violations.push(format!(
                    "frame {i}: decoded {ok}, corrupted {}",
                    frames.corrupt[i]
                ));
            }
        }
        tr.exit(Call::Decode, (end - run) as u64);
    }
    State {
        fabric,
        gateway,
        links,
        frames,
        slots,
        violations,
    }
}

fn run(st: State, tr: &mut Tracer) -> Rep {
    let State {
        mut fabric,
        mut gateway,
        links,
        frames,
        slots,
        violations,
    } = st;
    let mut rep = Rep {
        violations,
        ..Rep::default()
    };
    // Guaranteed datagrams in flight per link: (frame index, start of the
    // slot iteration that offered it).
    let mut in_flight: Vec<VecDeque<(usize, Instant)>> = vec![VecDeque::new(); links.len()];
    let mut egress: Vec<EgressFrame> = Vec::new();
    let mut control: Vec<ControlFrame> = Vec::new();
    let mut cursor = 0usize;
    let mut window = 0.0;
    let mut unexpected = 0u64;
    let mut windows = Windows::new(WINDOW_FRAMES);
    let t0 = Instant::now();
    for slot in 0..slots + DRAIN_SLOTS {
        if slot == slots {
            window = t0.elapsed().as_secs_f64();
        }
        let iter_start = Instant::now();
        let offered = cursor;
        tr.enter(Call::SlotIter, slot);
        let now = fabric.now();
        tr.leaf(Call::Reconcile, slot, || gateway.reconcile(&mut fabric));
        while cursor < frames.len() && frames.slot[cursor] <= slot {
            let (li, corrupt) = (frames.link[cursor], frames.corrupt[cursor]);
            let outcome = tr.leaf(Call::Ingress, cursor as u64, || {
                gateway.ingress(now, frames.frame(cursor), &mut fabric)
            });
            let plan = &links[li];
            match outcome {
                IngressOutcome::Injected { .. } if plan.guaranteed && !corrupt => {
                    in_flight[li].push_back((cursor, iter_start));
                }
                IngressOutcome::Malformed(_) if corrupt => {}
                _ if !plan.guaranteed && !corrupt => {}
                other => {
                    unexpected += 1;
                    if unexpected <= 5 {
                        rep.violations.push(format!(
                            "link {} frame {cursor}: unexpected {other:?}",
                            plan.id
                        ));
                    }
                }
            }
            cursor += 1;
        }
        tr.leaf(Call::Pace, slot, || gateway.pace(now, &mut fabric));
        tr.leaf(Call::StepSlot, slot, || fabric.step_slot());
        egress.clear();
        tr.leaf(Call::PollEgress, slot, || {
            gateway.poll_egress(&mut fabric, &mut egress)
        });
        if !egress.is_empty() {
            let done = Instant::now();
            for e in &egress {
                rep.digest.u64(u64::from(e.link));
                rep.digest.u64(e.seq);
                rep.digest.u64(e.latency.as_ps());
                rep.digest
                    .u64(u64::from(e.met_deadline) << 1 | u64::from(e.fresh));
                let li = usize::from(e.link - 1);
                if !links[li].guaranteed {
                    continue;
                }
                match in_flight[li].pop_front() {
                    Some((fi, start)) => {
                        rep.latencies_us
                            .push(done.duration_since(start).as_secs_f64() * 1e6);
                        if e.payload[..] != frames.frame(fi)[HEADER_LEN..] {
                            rep.violations
                                .push(format!("link {}: payload of frame {fi} changed", e.link));
                        }
                        if !e.met_deadline {
                            rep.violations
                                .push(format!("link {}: frame {fi} missed its deadline", e.link));
                        }
                    }
                    None => rep
                        .violations
                        .push(format!("link {}: egress with nothing in flight", e.link)),
                }
            }
        }
        gateway.drain_control(&mut control);
        tr.exit(Call::SlotIter, 1);
        if slot < slots {
            let secs = iter_start.elapsed().as_secs_f64();
            windows.add(&mut rep, (cursor - offered) as u64, secs);
        }
    }
    windows.finish(&mut rep);
    rep.measured_s = window;
    rep.ops = frames.len() as u64;
    for (li, q) in in_flight.iter().enumerate() {
        rep.check(q.is_empty(), || {
            format!("link {}: {} datagrams never left", links[li].id, q.len())
        });
    }
    rep.check(unexpected == 0, || {
        format!("{unexpected} unexpected ingress outcomes")
    });

    let m = gateway.metrics();
    for c in &control {
        rep.digest
            .u64(u64::from(c.link) << 40 | u64::from(c.seq) << 8 | c.kind as u64);
    }
    rep.digest.debug(m);
    for l in &links {
        rep.digest.debug(&gateway.link_metrics(l.id));
    }
    let g = &mut rep.counts;
    g.insert("gateway.frames_in", m.frames_in.get() as f64);
    g.insert("gateway.injected", m.injected.get() as f64);
    g.insert("gateway.shed", m.shed.get() as f64);
    g.insert("gateway.expired", m.expired.get() as f64);
    g.insert("gateway.decode_errors", m.decode_errors.get() as f64);
    g.insert("gateway.nacks_sent", m.nacks_sent.get() as f64);
    g.insert("gateway.backoffs_sent", m.backoffs_sent.get() as f64);
    g.insert("gateway.delivered", m.delivered.get() as f64);
    g.insert("gateway.deadline_missed", m.deadline_missed.get() as f64);
    rep.attempted = m.frames_in.get();
    rep.failed = m.shed.get()
        + m.nacks_sent.get()
        + m.expired.get()
        + m.decode_errors.get()
        + m.deadline_missed.get();
    fabric_counts(&fabric, &mut rep);
    rep
}

/// The overloaded edge.
pub struct Overload;

impl Workload for Overload {
    type State = State;
    const NAMES: Names = Names {
        rate: "frames_per_s",
        latency: "datagram",
    };
    fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> State {
        setup(seed, scale, tr)
    }
    fn run(state: State, tr: &mut Tracer) -> Rep {
        run(state, tr)
    }
}
