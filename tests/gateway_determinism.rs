//! Differential determinism of the gateway path: datagrams entering the
//! fabric through the full gateway pipeline (wire decode → token-bucket
//! pacing → injection → deadline-ordered egress) must behave exactly like
//! the same injections made directly on the fabric API, and the whole
//! pipeline must replay bit-identically and match the recorded egress.

use ccr_edf_suite::gateway::{ControlFrame, EgressFrame, GatewayMetrics, Header, PacketKind};
use ccr_edf_suite::multiring::engine::EgressDelivery;
use ccr_edf_suite::prelude::*;
use ccr_edf_suite::sim::TimeDelta;

const PERIOD: TimeDelta = TimeDelta::from_ms(2);
const DATAGRAMS: u64 = 12;

fn fabric() -> Fabric {
    let topo = FabricTopology::chain(2, 6);
    let cfg = FabricConfig::uniform(topo, 2_048, 7).unwrap();
    Fabric::new(cfg).unwrap()
}

fn link() -> VirtualLink {
    VirtualLink::new(5, GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3)).period(PERIOD)
}

/// Frames encoded back to back, as they would leave on the wire.
fn wire<T>(frames: &[T], encode: impl Fn(&T, &mut Vec<u8>)) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut frame = Vec::new();
    for f in frames {
        encode(f, &mut frame);
        bytes.extend_from_slice(&frame);
    }
    bytes
}

/// FNV-1a digest, so a test can pin wire bytes without spelling them out.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Per-datagram end-to-end latency (ps) of the scenario, as recorded.
fn recorded_latencies() -> Vec<u64> {
    let mut ps = vec![20_830_000; DATAGRAMS as usize];
    ps[0] = 20_880_000;
    ps
}

/// Slots per admitted period on this fabric.
fn gap(fabric: &Fabric) -> u64 {
    let slot = fabric.segment_envs()[0].slot;
    PERIOD.as_ps().div_ceil(slot.as_ps()) + 1
}

/// Drive the gateway pipeline over loopback; returns the egress frames
/// and the total slots run.
fn gateway_run() -> (Vec<EgressFrame>, u64) {
    let mut fabric = fabric();
    let g = gap(&fabric);
    let gw_cfg = GatewayConfig::new(vec![link()]).unwrap();
    let (mut gateway, report) = Gateway::open(&gw_cfg, &mut fabric);
    assert_eq!(report.admitted, vec![5]);

    let schedule: Vec<(u64, Vec<u8>)> = (0..DATAGRAMS)
        .map(|k| {
            let h = Header {
                kind: PacketKind::Data,
                link: 5,
                seq: k as u32,
                len: 0,
                budget_us: 0,
            };
            (k * g, h.encode(format!("payload-{k}").as_bytes()))
        })
        .collect();
    let horizon = (DATAGRAMS + 4) * g;
    let mut backend = ccr_edf_suite::gateway::LoopbackBackend::new(schedule);
    let mut out = Vec::new();
    backend.run(&mut gateway, &mut fabric, horizon, &mut out);
    assert_eq!(out.len() as u64, DATAGRAMS, "all datagrams delivered");
    (out, horizon)
}

/// Make the same injections straight on the fabric API — no gateway, no
/// wire format, no pacing (the schedule already respects the rate).
fn direct_run(horizon: u64) -> Vec<EgressDelivery> {
    let mut fabric = fabric();
    let g = gap(&fabric);
    let slot_bytes = fabric.with_ring(link().src.ring, |r| r.config().slot_bytes);
    let fid = fabric
        .open_external_connection(link().spec(slot_bytes))
        .unwrap();
    let mut out = Vec::new();
    for s in 0..horizon {
        if s % g == 0 && s / g < DATAGRAMS {
            fabric.inject(fid).unwrap();
        }
        fabric.step_slot();
        fabric.drain_egress(&mut out);
    }
    assert_eq!(out.len() as u64, DATAGRAMS);
    out
}

#[test]
fn gateway_loopback_equals_direct_injection() {
    let (frames, horizon) = gateway_run();
    let direct = direct_run(horizon);
    for (f, d) in frames.iter().zip(&direct) {
        assert_eq!(f.seq, d.seq);
        assert_eq!(f.latency, d.latency);
        assert_eq!(f.met_deadline, d.met_deadline);
        assert_eq!(f.slack, d.slack);
    }
}

#[test]
fn gateway_pipeline_replays_pinned_values() {
    let (frames, _) = gateway_run();
    assert_eq!(frames, gateway_run().0, "same seed, same egress frames");
    let latencies: Vec<u64> = frames.iter().map(|f| f.latency.as_ps()).collect();
    assert_eq!(latencies, recorded_latencies(), "egress latencies moved");
    let bytes = wire(&frames, EgressFrame::encode_into);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (302, 0x425f_2fba_8309_8c5b),
        "wire bytes moved"
    );
}

#[test]
fn direct_injection_replays_pinned_values() {
    let horizon = (DATAGRAMS + 4) * gap(&fabric());
    let out = direct_run(horizon);
    assert_eq!(out, direct_run(horizon), "same seed, same deliveries");
    let latencies: Vec<u64> = out.iter().map(|d| d.latency.as_ps()).collect();
    assert_eq!(latencies, recorded_latencies(), "delivery latencies moved");
}

/// Drive the gateway pipeline under wire chaos (loss, duplication,
/// reordering, corruption, a blackout) at an overdriven rate; returns
/// everything observable — egress frames, control frames, gateway and
/// chaos counters.
fn chaotic_run() -> (
    Vec<EgressFrame>,
    Vec<ControlFrame>,
    GatewayMetrics,
    ccr_edf_suite::gateway::ChaosMetrics,
) {
    use ccr_edf_suite::gateway::{ChaosConfig, ChaosScript, LoopbackBackend, WireChaos};
    let mut fabric = fabric();
    let g = gap(&fabric);
    let gw_cfg = GatewayConfig::new(vec![link()]).unwrap();
    let (mut gateway, report) = Gateway::open(&gw_cfg, &mut fabric);
    assert_eq!(report.admitted, vec![5]);

    // Twice the admitted rate, so pacing sheds and flow control talks.
    let schedule: Vec<(u64, Vec<u8>)> = (0..DATAGRAMS * 2)
        .map(|k| {
            let h = Header {
                kind: PacketKind::Data,
                link: 5,
                seq: k as u32,
                len: 0,
                budget_us: 0,
            };
            (k * g / 2, h.encode(format!("chaos-{k}").as_bytes()))
        })
        .collect();
    let horizon = (DATAGRAMS + 6) * g;
    let chaos = WireChaos::new(
        ChaosConfig::uniform(0xE22, 0.15),
        ChaosScript::new().blackout(3 * g, g),
    );
    let mut backend = LoopbackBackend::new(schedule).with_chaos(chaos);
    let mut out = Vec::new();
    backend.run(&mut gateway, &mut fabric, horizon, &mut out);
    (
        out,
        backend.controls().to_vec(),
        gateway.metrics().clone(),
        backend.chaos().unwrap().metrics().clone(),
    )
}

#[test]
fn chaotic_gateway_replays_pinned_values() {
    let (out, ctl, gm, cm) = chaotic_run();
    let (out_r, ctl_r, gm_r, cm_r) = chaotic_run();
    assert_eq!(out, out_r, "chaotic egress replays bit for bit");
    assert_eq!(ctl, ctl_r, "control frames too");
    assert_eq!(gm, gm_r, "and the gateway counters");
    assert_eq!(cm, cm_r, "and the chaos counters");
    // The chaos actually bit: something was mangled, something was told
    // to the client, and something still got through.
    assert!(cm.dropped.get() + cm.corrupted.get() + cm.delayed.get() > 0);
    assert!(cm.blacked_out.get() > 0, "the blackout swallowed frames");
    assert!(gm.shed.get() > 0, "overdrive was shed at the edge");
    assert!(!ctl.is_empty(), "sheds were answered with control frames");
    assert!(!out.is_empty(), "survivors were still delivered");
    assert!(
        out.iter().all(|f| f.met_deadline),
        "chaos never made an admitted flow late — drops, not delays"
    );
    // And the run matches the recorded one, on the wire and in the tallies.
    let egress = wire(&out, EgressFrame::encode_into);
    let controls = wire(&ctl, ControlFrame::encode_into);
    assert_eq!(
        (out.len(), fnv1a(&egress), ctl.len(), fnv1a(&controls)),
        (11, 0x57d8_7036_05bf_f7d0, 17, 0xf4ea_b789_d334_ea79),
        "egress and control wire bytes moved"
    );
    assert_eq!(
        (
            gm.frames_in.get(),
            gm.injected.get(),
            gm.shed.get(),
            gm.delivered.get()
        ),
        (23, 11, 12, 11),
        "gateway counters moved"
    );
    assert_eq!(
        (
            cm.dropped.get(),
            cm.duplicated.get(),
            cm.delayed.get(),
            cm.corrupted.get(),
            cm.blacked_out.get(),
        ),
        (3, 4, 3, 0, 2),
        "chaos counters moved"
    );
}
