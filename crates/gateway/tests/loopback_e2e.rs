//! End-to-end gateway tests over the socket-free loopback backend: wire
//! frames in, admission + pacing + fabric traversal, deadline-ordered
//! frames out — and the whole pipeline bit-identical under replay. Also
//! the runtime link changes: what `add_link` refuses before the fabric
//! sees it, and what `remove_link` gives back.

use ccr_gateway::prelude::*;
use ccr_multiring::admission::FabricAdmissionError;
use ccr_multiring::engine::{Fabric, FabricConfig, RevokeReason};
use ccr_multiring::topology::{FabricTopology, GlobalNodeId};
use ccr_sim::TimeDelta;

const PERIOD: TimeDelta = TimeDelta::from_ms(2);

fn build() -> (Fabric, Gateway, AdmissionReport) {
    let topo = FabricTopology::chain(2, 6);
    let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
    let mut fabric = Fabric::new(cfg).unwrap();
    let gw_cfg = GatewayConfig::new(vec![
        VirtualLink::new(1, GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3)).period(PERIOD),
        VirtualLink::new(2, GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 4))
            .period(PERIOD)
            .class(DeadlineClass::BestEffort),
    ])
    .unwrap();
    let (gateway, report) = Gateway::open(&gw_cfg, &mut fabric);
    (fabric, gateway, report)
}

fn data(link: u16, seq: u32, payload: &[u8]) -> Vec<u8> {
    Header {
        kind: PacketKind::Data,
        link,
        seq,
        len: 0, // encode overrides with payload.len()
        budget_us: 0,
    }
    .encode(payload)
}

/// Slots per admitted period, from the fabric's own segment environment.
fn period_slots(fabric: &Fabric) -> u64 {
    let slot = fabric.segment_envs()[0].slot;
    (PERIOD.as_ps()).div_ceil(slot.as_ps()) + 1
}

#[test]
fn datagrams_ride_the_certified_fabric_end_to_end() {
    let (mut fabric, mut gateway, report) = build();
    assert_eq!(report.admitted, vec![1, 2]);
    assert!(report.rejected.is_empty());
    assert!(report.batched, "a feasible config admits as one batch");

    let gap = period_slots(&fabric);
    let schedule = vec![
        (0, data(1, 0, b"alpha")),
        (gap, data(1, 1, b"bravo")),
        (2 * gap, data(1, 2, b"charlie")),
        // Oversize payload: violates the admitted MTU, refused with a
        // Nack regardless of tokens or policy.
        (3 * gap, data(1, 3, &[0u8; 300])),
        // Unknown link and a truncated frame: counted, never panicked on.
        (3 * gap, data(9, 0, b"lost")),
        (3 * gap, b"tiny".to_vec()),
    ];
    let mut backend = LoopbackBackend::new(schedule);
    let mut out = Vec::new();
    backend.run(&mut gateway, &mut fabric, 5 * gap, &mut out);
    assert_eq!(backend.pending(), 0);

    let payloads: Vec<&[u8]> = out.iter().map(|f| f.payload.as_slice()).collect();
    assert_eq!(payloads, vec![&b"alpha"[..], b"bravo", b"charlie"]);
    assert_eq!(
        out.iter().map(|f| (f.link, f.seq)).collect::<Vec<_>>(),
        vec![(1, 0), (1, 1), (1, 2)],
        "per-link egress is FIFO"
    );
    assert!(out.iter().all(|f| f.met_deadline && f.fresh));

    let m = gateway.metrics();
    assert_eq!(m.frames_in.get(), 6);
    assert_eq!(m.injected.get(), 3);
    assert_eq!(m.shed.get(), 0);
    assert_eq!(m.nacks_sent.get(), 1, "the oversize datagram is nacked");
    assert_eq!(m.unknown_link.get(), 1);
    assert_eq!(m.decode_errors.get(), 1);
    assert_eq!(m.delivered.get(), 3);
    assert_eq!(m.deadline_missed.get(), 0);
    let lm = gateway.link_metrics(1).unwrap();
    assert_eq!(lm.injected.get(), 3);
    assert_eq!(lm.nacks.get(), 1);
    assert_eq!(lm.delivered.get(), 3);
    // The backend recorded the Nack as a transmittable control frame.
    let nacks: Vec<_> = backend
        .controls()
        .iter()
        .filter(|c| c.kind == PacketKind::Nack)
        .collect();
    assert_eq!(nacks.len(), 1);
    assert_eq!((nacks[0].link, nacks[0].seq), (1, 3));
}

#[test]
fn overload_is_paced_at_the_edge_not_inside_the_fabric() {
    let (mut fabric, mut gateway, _) = build();
    let gap = period_slots(&fabric);
    // Link 2 (best-effort, burst 1, shed policy) is driven at 5× its
    // admitted rate in slot 0; link 1 sends exactly its admitted load.
    let mut schedule = vec![(0, data(1, 0, b"guaranteed")), (gap, data(1, 1, b"again"))];
    for seq in 0..5 {
        schedule.push((0, data(2, seq, b"flood")));
    }
    let mut backend = LoopbackBackend::new(schedule);
    let mut out = Vec::new();
    backend.run(&mut gateway, &mut fabric, 4 * gap, &mut out);

    // One token's worth of the flood got through; the rest was shed at
    // ingress and never touched the fabric.
    let be = gateway.link_metrics(2).unwrap();
    assert_eq!(be.injected.get(), 1);
    assert_eq!(be.shed.get(), 4);
    // The guaranteed link is untouched by its neighbour's overload.
    let g = gateway.link_metrics(1).unwrap();
    assert_eq!(g.delivered.get(), 2);
    assert_eq!(g.deadline_met.get(), 2);
    assert_eq!(g.deadline_missed.get(), 0);
    assert_eq!(gateway.metrics().deadline_missed.get(), 0);
}

#[test]
fn deferred_datagrams_drain_in_order_as_tokens_mature() {
    // A fresh fabric with link 1 reconfigured to the Defer policy.
    let topo = FabricTopology::chain(2, 6);
    let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
    let mut fabric = Fabric::new(cfg).unwrap();
    let gap = period_slots(&fabric);
    let gw_cfg = GatewayConfig::new(vec![VirtualLink::new(
        1,
        GlobalNodeId::new(0, 1),
        GlobalNodeId::new(1, 3),
    )
    .period(PERIOD)
    .policy(OverloadPolicy::Defer)])
    .unwrap();
    let (mut gateway, report) = Gateway::open(&gw_cfg, &mut fabric);
    assert_eq!(report.admitted, vec![1]);

    // Three datagrams land in the same slot; burst is 1, so two defer
    // and drain on later tokens, preserving order.
    let schedule = (0..3u32).map(|s| (0, data(1, s, &[s as u8; 4]))).collect();
    let mut backend = LoopbackBackend::new(schedule);
    let mut out = Vec::new();
    backend.run(&mut gateway, &mut fabric, 4 * gap, &mut out);

    assert_eq!(out.len(), 3);
    assert_eq!(
        out.iter().map(|f| f.payload[0]).collect::<Vec<_>>(),
        vec![0, 1, 2],
        "deferred datagrams keep FIFO order"
    );
    let lm = gateway.link_metrics(1).unwrap();
    assert_eq!(lm.deferred.get(), 2);
    assert_eq!(lm.shed.get(), 0);
    // Latency is injection→delivery, so each paced datagram still makes
    // its per-message deadline even though it waited for a token.
    assert!(out.iter().all(|f| f.met_deadline));
}

#[test]
fn loopback_replay_is_bit_identical() {
    let run = || {
        let (mut fabric, mut gateway, _) = build();
        let gap = period_slots(&fabric);
        let mut schedule = vec![
            (0, data(1, 0, b"one")),
            (gap, data(1, 1, b"two")),
            (gap / 2, data(2, 0, b"sampled")),
        ];
        for seq in 0..3 {
            schedule.push((gap + seq as u64, data(2, 1 + seq, b"burst")));
        }
        let mut backend = LoopbackBackend::new(schedule);
        let mut out = Vec::new();
        backend.run(&mut gateway, &mut fabric, 4 * gap, &mut out);
        let wire: Vec<Vec<u8>> = out
            .iter()
            .map(|f| {
                let mut buf = Vec::new();
                f.encode_into(&mut buf);
                buf
            })
            .collect();
        (out, wire, gateway.metrics().clone())
    };
    let (out_a, wire_a, metrics_a) = run();
    let (out_b, wire_b, metrics_b) = run();
    assert_eq!(out_a, out_b, "egress frames replay identically");
    assert_eq!(wire_a, wire_b, "wire encodings are byte-identical");
    assert_eq!(metrics_a, metrics_b, "so do the counters");
}

#[test]
fn add_link_refuses_what_a_config_refuses_before_the_fabric_sees_it() {
    let (mut fabric, mut gateway, _) = build();
    let before = fabric.active_connections();
    let link = || VirtualLink::new(7, GlobalNodeId::new(0, 3), GlobalNodeId::new(1, 2));
    let zero = TimeDelta::ZERO;
    let invalid = [
        link().mtu(0),
        link().mtu(70_000),
        link().burst(0),
        link().period(zero),
        link().port(PortSemantics::Queuing { depth: 0 }),
        link().port(PortSemantics::Sampling { validity: zero }),
        link().deadline(PERIOD + PERIOD),
        link().deadline(zero),
    ];
    for l in invalid {
        let err = GatewayConfig::new(vec![l.clone()]).expect_err("the config refuses it");
        assert_eq!(
            gateway.add_link(l.clone(), &mut fabric),
            Err(LinkChangeError::Invalid(err)),
            "{l:?}"
        );
        assert_eq!(
            fabric.active_connections(),
            before,
            "{l:?} reached the fabric"
        );
        assert_eq!(gateway.link_health(7), None);
    }
    // A valid link still goes through, and errors read as text.
    assert_eq!(gateway.add_link(link(), &mut fabric), Ok(()));
    assert_eq!(fabric.active_connections(), before + 1);
    let refused = FabricAdmissionError::InvalidSpec("zero period".into());
    assert_eq!(
        LinkChangeError::Refused(refused.clone()).to_string(),
        format!("admission refused: {refused}")
    );
    assert_eq!(
        LinkChangeError::Invalid(GatewayConfig::new(vec![link().burst(0)]).unwrap_err())
            .to_string(),
        "invalid link 7: burst must be positive"
    );
}

#[test]
fn removing_a_revoked_link_keeps_the_repair_from_reclaiming_it() {
    let (mut fabric, mut gateway, report) = build();
    assert_eq!(report.admitted, [1, 2]);
    // A third link stays on ring 0, clear of the bridge.
    let local =
        VirtualLink::new(3, GlobalNodeId::new(0, 2), GlobalNodeId::new(0, 4)).period(PERIOD);
    gateway.add_link(local, &mut fabric).unwrap();
    assert_eq!(fabric.active_connections(), 3);
    // The chain's only bridge dies: both crossing links are revoked.
    assert!(fabric.kill_bridge(0));
    gateway.reconcile(&mut fabric);
    let revoked = Some(LinkHealth::Revoked {
        reason: RevokeReason::NoRoute,
    });
    assert_eq!(gateway.link_health(1), revoked);
    assert_eq!(gateway.link_health(2), revoked);
    assert_eq!(fabric.active_connections(), 1);
    // Link 1 is given up while revoked; the repair brings back link 2 only.
    assert!(gateway.remove_link(1, &mut fabric));
    assert!(fabric.repair_bridge(0));
    gateway.reconcile(&mut fabric);
    assert_eq!(gateway.link_health(1), None);
    assert_eq!(gateway.link_health(2), Some(LinkHealth::Up));
    assert_eq!(gateway.link_health(3), Some(LinkHealth::Up));
    assert_eq!(
        fabric.active_connections(),
        2,
        "one connection per live link"
    );
    assert_eq!(gateway.metrics().links_reclaimed.get(), 1);
}
