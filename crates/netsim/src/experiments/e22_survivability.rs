//! E22 — robustness: edge survivability — chaos, link churn, and
//! record/replay on the certified triangle fabric.
//!
//! E21 established that the gateway paces real-wire traffic to the
//! admitted envelope on a healthy fabric. This experiment takes the
//! same promise into hostile territory: the wire misbehaves (loss,
//! duplication, reordering, corruption, a blackout), the fabric loses
//! and regains bridges mid-run, links are added and removed at runtime,
//! and a best-effort neighbour floods at twice its admitted rate — all
//! at once. The paper's guarantee must survive unchanged: **no
//! guaranteed delivery is ever late**. Faults convert traffic into
//! counted losses (sheds, nacks, abandoned in-flight payloads), never
//! into deadline misses. Three parts:
//!
//! 1. **Headline chaos soak** — a calculus-certified cyclic triangle
//!    carries two guaranteed links and a flooded best-effort link under
//!    wire chaos. Mid-run, the victim link's bridge dies (link walks to
//!    `Degraded` on a detour), then its detour dies too (`Revoked`,
//!    ingress answers `Nack`), then both repairs land and the reclaim
//!    pass restores it (`Up`). Time-to-recovery after each repair is
//!    measured in pacing windows and asserted bounded; the untouched
//!    guaranteed link must never leave `Up`.
//! 2. **Runtime link churn** — links admitted with
//!    [`Gateway::add_link`] while traffic flows, driven, then removed
//!    with [`Gateway::remove_link`]; the freed capacity must re-admit
//!    the next round every time, duplicate ids are refused with a typed
//!    error, and the resident guaranteed link never misses.
//! 3. **Record/replay** — the headline arrival trace pushed through the
//!    [`Capture`] codec (bytes → parse → schedule) and replayed under
//!    identical chaos: egress wire bytes, control frames, gateway
//!    counters, and chaos counters must equal the original run's.
//!
//! CSV artefacts (full runs only; best-effort, skipped on read-only
//! checkouts):
//! `results/e22_survivability.csv`, `results/e22_churn.csv`.

use super::{write_results, ExpOptions, ExperimentResult};
use crate::trace::GatewayTraceRecorder;
use ccr_gateway::prelude::*;
use ccr_multiring::prelude::*;
use ccr_multiring::topology::CycleBound;
use ccr_sim::report::Table;
use ccr_sim::{SeedSequence, TimeDelta};

/// Admitted period of every link in the scenario.
const PERIOD: TimeDelta = TimeDelta::from_ms(2);

/// The victim guaranteed link: crosses bridge 0, detours over 2+1.
const VICTIM: u16 = 1;
/// The control guaranteed link: rides bridge 1, untouched by the faults.
const CONTROL: u16 = 2;
/// The best-effort flood: stays inside ring 0, immune to bridge faults.
const FLOOD: u16 = 3;

/// The cyclic 3-ring triangle with a certified cycle bound — the only
/// topology where killing one bridge leaves a detour and killing two
/// severs a ring pair outright.
fn triangle() -> FabricTopology {
    let mut b = FabricTopology::builder();
    for _ in 0..3 {
        b.ring(8);
    }
    b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0)); // bridge 0
    b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0)); // bridge 1
    b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1)); // bridge 2
    b.allow_cycles_with(CycleBound::Calculus);
    b.build().expect("triangle with calculus bound builds")
}

fn links() -> Vec<VirtualLink> {
    vec![
        VirtualLink::new(VICTIM, GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3)).period(PERIOD),
        VirtualLink::new(CONTROL, GlobalNodeId::new(1, 4), GlobalNodeId::new(2, 3)).period(PERIOD),
        VirtualLink::new(FLOOD, GlobalNodeId::new(0, 3), GlobalNodeId::new(0, 6))
            .period(PERIOD)
            .class(DeadlineClass::BestEffort),
    ]
}

fn build(seed: u64) -> (Fabric, Gateway, AdmissionReport) {
    let cfg = FabricConfig::uniform(triangle(), 2_048, seed).expect("fabric config");
    let mut fabric = Fabric::new(cfg).expect("fabric builds");
    let gw_cfg = GatewayConfig::new(links()).expect("gateway config");
    let (gateway, report) = Gateway::open(&gw_cfg, &mut fabric);
    (fabric, gateway, report)
}

/// Slots per admitted period, from the fabric's own slot length.
fn period_slots(fabric: &Fabric) -> u64 {
    let slot = fabric.segment_envs()[0].slot;
    PERIOD.as_ps().div_ceil(slot.as_ps()) + 1
}

/// A `Data` wire frame for `link` with a deterministic payload.
fn data(link: u16, seq: u32) -> Vec<u8> {
    let payload = format!("e22-l{link}-{seq}");
    Header {
        kind: PacketKind::Data,
        link,
        seq,
        len: 0, // encode overrides with payload.len()
        budget_us: 0,
    }
    .encode(payload.as_bytes())
}

/// Guaranteed links at their admitted rate, the flood at 2×, stopping
/// two windows early so in-flight datagrams can land.
fn schedule(gap: u64, horizon: u64) -> Vec<(u64, Vec<u8>)> {
    let stop = horizon.saturating_sub(2 * gap);
    let mut out = Vec::new();
    for id in [VICTIM, CONTROL] {
        let mut seq = 0u32;
        let mut slot = 0;
        while slot < stop {
            out.push((slot, data(id, seq)));
            seq += 1;
            slot += gap;
        }
    }
    let mut seq = 0u32;
    let mut slot = 0;
    while slot < stop {
        out.push((slot, data(FLOOD, seq)));
        seq += 1;
        slot += (gap / 2).max(1);
    }
    out
}

/// The wire chaos both the headline soak and the replay runs share.
fn chaos(seed: u64, gap: u64) -> WireChaos {
    WireChaos::new(
        ChaosConfig::uniform(seed, 0.05),
        // One scripted outage early on, before the bridge faults start.
        ChaosScript::new().blackout(2 * gap, gap),
    )
}

/// Run E22.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let seq = SeedSequence::new(opts.seed).subsequence("e22", 0);
    let mut notes = vec![];

    let headline = headline_table(opts, &seq, &mut notes);
    let churn = churn_table(opts, &seq, &mut notes);

    write_results(
        opts,
        &[
            ("e22_survivability.csv", &headline.to_csv()),
            ("e22_churn.csv", &churn.to_csv()),
        ],
        &mut notes,
    );

    ExperimentResult {
        tables: vec![headline, churn],
        notes,
    }
}

/// Outcome of one headline soak, enough to compare runs bit-for-bit.
struct Soak {
    gateway: Gateway,
    egress_wire: Vec<u8>,
    chaos_metrics: ccr_gateway::ChaosMetrics,
    controls: Vec<ControlFrame>,
    /// Victim health sampled at the end of each window.
    health: Vec<LinkHealth>,
}

/// Drive the fault storyboard: kill bridge 0 at `n/4` windows (degrade),
/// kill bridge 2 at `n/2` (revoke), repair bridge 2 at `5n/8` (reclaim),
/// repair bridge 0 at `3n/4` (back on the preferred route).
fn storyboard(n_windows: u64) -> [u64; 4] {
    [
        n_windows / 4,
        n_windows / 2,
        5 * n_windows / 8,
        3 * n_windows / 4,
    ]
}

fn soak(
    seed: u64,
    n_windows: u64,
    sched: &[(u64, Vec<u8>)],
    mut recorder: Option<&mut GatewayTraceRecorder>,
) -> Soak {
    let (mut fabric, mut gateway, report) = build(seed);
    assert!(
        report.rejected.is_empty() && report.admitted.len() == 3,
        "the scenario's three links all fit the triangle: {report:?}"
    );
    let gap = period_slots(&fabric);
    let [kill_w, cut_w, heal_w, heal2_w] = storyboard(n_windows);
    let mut backend = LoopbackBackend::new(sched.to_vec()).with_chaos(chaos(seed ^ 0xE22, gap));
    let mut egress = Vec::new();
    let mut health = Vec::new();
    for w in 0..n_windows {
        if w == kill_w {
            assert!(fabric.kill_bridge(0), "bridge 0 was alive");
        }
        if w == cut_w {
            assert!(fabric.kill_bridge(2), "bridge 2 was alive");
        }
        if w == heal_w {
            assert!(fabric.repair_bridge(2), "bridge 2 was dead");
        }
        if w == heal2_w {
            assert!(fabric.repair_bridge(0), "bridge 0 was dead");
        }
        backend.run(&mut gateway, &mut fabric, gap, &mut egress);
        health.push(gateway.link_health(VICTIM).expect("victim is resident"));
        if let Some(r) = recorder.as_deref_mut() {
            r.observe((w + 1) * gap, gateway.metrics());
        }
    }
    assert_eq!(backend.pending(), 0, "every scheduled arrival was offered");
    let mut egress_wire = Vec::new();
    let mut frame = Vec::new();
    for f in &egress {
        f.encode_into(&mut frame);
        egress_wire.extend_from_slice(&frame);
    }
    Soak {
        gateway,
        egress_wire,
        chaos_metrics: backend.chaos().expect("chaos interposed").metrics().clone(),
        controls: backend.controls().to_vec(),
        health,
    }
}

/// E22a: the chaos × fault storyboard, plus the capture replay check.
fn headline_table(opts: &ExpOptions, seq: &SeedSequence, notes: &mut Vec<String>) -> Table {
    let seed = seq.child_seed("headline", 0);
    let n_windows: u64 = if opts.quick { 16 } else { 48 };
    let [kill_w, cut_w, heal_w, heal2_w] = storyboard(n_windows);

    // The schedule depends only on the pacing gap, which is a property
    // of the (deterministic) fabric config — build a probe to read it.
    let gap = period_slots(&build(seed).0);
    let mut sched = schedule(gap, n_windows * gap);
    // The capture format (and the wire it models) is slot-ordered; the
    // backend applies the same stable sort, so pre-sorting changes nothing.
    sched.sort_by_key(|(slot, _)| *slot);

    let mut recorder = GatewayTraceRecorder::new(8);
    let s = soak(seed, n_windows, &sched, Some(&mut recorder));

    // --- The degradation ladder, window by window -------------------
    assert!(
        s.health[..kill_w as usize]
            .iter()
            .all(|h| *h == LinkHealth::Up),
        "victim healthy before the first fault"
    );
    assert!(
        s.health[kill_w as usize..cut_w as usize]
            .iter()
            .all(|h| matches!(h, LinkHealth::Degraded { .. })),
        "one dead bridge: detoured, not dead — got {:?}",
        &s.health[kill_w as usize..cut_w as usize]
    );
    assert!(
        s.health[cut_w as usize..heal_w as usize]
            .iter()
            .all(|h| matches!(h, LinkHealth::Revoked { .. })),
        "both routes dead: revoked with a typed reason — got {:?}",
        &s.health[cut_w as usize..heal_w as usize]
    );
    // Bounded recovery: back in service within two windows of the repair.
    let recovery = s.health[heal_w as usize..]
        .iter()
        .position(|h| !matches!(h, LinkHealth::Revoked { .. }))
        .expect("the repair brought the victim back") as u64;
    assert!(
        recovery < 2,
        "time-to-recovery {recovery} windows >= bound 2"
    );
    assert_eq!(
        *s.health.last().unwrap(),
        LinkHealth::Up,
        "preferred route restored by the final repair"
    );

    // --- Zero guaranteed misses; losses are counted, not silent -----
    let vm = s.gateway.link_metrics(VICTIM).expect("victim").clone();
    let cm = s.gateway.link_metrics(CONTROL).expect("control").clone();
    let fm = s.gateway.link_metrics(FLOOD).expect("flood").clone();
    for (id, m) in [(VICTIM, &vm), (CONTROL, &cm)] {
        assert_eq!(
            m.deadline_missed.get(),
            0,
            "guaranteed link {id}: faults cause counted losses, never late deliveries"
        );
        assert!(m.delivered.get() > 0, "guaranteed link {id} delivered");
    }
    assert!(vm.reroutes.get() >= 1, "the kill detoured the victim");
    assert!(vm.revocations.get() >= 1, "the cut revoked it");
    assert!(vm.reclaims.get() >= 1, "the repair reclaimed it");
    assert!(vm.nacks.get() >= 1, "revoked ingress answered Nack");
    assert_eq!(
        cm.reroutes.get() + cm.revocations.get(),
        0,
        "control untouched"
    );
    assert!(fm.shed.get() > 0, "the 2x flood was shed at the edge");
    assert!(
        s.gateway.metrics().backoffs_sent.get() >= 1,
        "shedding streaks raised Backoff advisories"
    );
    assert!(
        s.controls.iter().any(|c| c.kind == PacketKind::Shed)
            && s.controls.iter().any(|c| c.kind == PacketKind::Nack)
            && s.controls.iter().any(|c| c.kind == PacketKind::Backoff),
        "all three control kinds reached the wire"
    );
    assert!(
        s.chaos_metrics.dropped.get() + s.chaos_metrics.corrupted.get() > 0
            && s.chaos_metrics.blacked_out.get() > 0,
        "the chaos layer actually interfered"
    );

    // --- Record/replay through the capture codec --------------------
    let mut cap = Capture::new();
    for (slot, frame) in &sched {
        cap.record(*slot, frame);
    }
    let bytes = cap.to_bytes();
    let replay_sched = Capture::from_bytes(&bytes)
        .expect("the capture codec round-trips")
        .into_schedule();
    assert_eq!(replay_sched, sched, "capture preserves the arrival trace");
    let replay = soak(seed, n_windows, &replay_sched, None);
    assert_eq!(replay.egress_wire, s.egress_wire, "replay == original run");
    assert_eq!(replay.controls, s.controls, "control frames too");
    assert_eq!(
        replay.gateway.metrics(),
        s.gateway.metrics(),
        "and the counters"
    );
    assert_eq!(
        replay.chaos_metrics, s.chaos_metrics,
        "and the chaos tallies"
    );

    let mut t = Table::new(
        format!(
            "E22a survivability soak: chaos + bridge storyboard over {} windows",
            n_windows
        ),
        &[
            "link",
            "class",
            "offered",
            "injected",
            "shed",
            "nack",
            "reroute",
            "revoke",
            "reclaim",
            "lost",
            "delivered",
            "missed",
        ],
    );
    for (id, class, m) in [(VICTIM, "G", &vm), (CONTROL, "G", &cm), (FLOOD, "BE", &fm)] {
        t.row(&[
            id.to_string(),
            class.to_string(),
            m.ingress_frames.get().to_string(),
            m.injected.get().to_string(),
            m.shed.get().to_string(),
            m.nacks.get().to_string(),
            m.reroutes.get().to_string(),
            m.revocations.get().to_string(),
            m.reclaims.get().to_string(),
            m.lost_in_flight.get().to_string(),
            m.delivered.get().to_string(),
            m.deadline_missed.get().to_string(),
        ]);
    }
    notes.push(format!(
        "storyboard windows: kill@{kill_w} cut@{cut_w} heal@{heal_w} heal2@{heal2_w}; \
         victim recovery {recovery} window(s) after repair; replay bit-identical \
         through the capture codec"
    ));
    notes.push(recorder.render());
    t
}

/// E22b: runtime link churn through the incremental admission gate.
fn churn_table(opts: &ExpOptions, seq: &SeedSequence, notes: &mut Vec<String>) -> Table {
    let seed = seq.child_seed("churn", 0);
    let rounds: u32 = if opts.quick { 3 } else { 6 };
    let (mut fabric, mut gateway, report) = build(seed);
    assert_eq!(report.admitted.len(), 3);
    let gap = period_slots(&fabric);

    // Each round occupies 3 windows: the churn link is admitted at the
    // round's start, driven at its admitted rate for two windows, and
    // removed after a drain window. Frames for round k are pre-scheduled
    // into its windows; the resident links run throughout.
    let horizon = (u64::from(rounds) * 3 + 2) * gap;
    let mut sched = schedule(gap, horizon);
    for k in 0..rounds {
        let start = u64::from(k) * 3 * gap;
        for (i, slot) in [start, start + gap].into_iter().enumerate() {
            sched.push((slot, data(100 + k as u16, i as u32)));
        }
    }
    let mut backend = LoopbackBackend::new(sched);
    let mut egress = Vec::new();

    let churn_link = |k: u32| {
        VirtualLink::new(
            100 + k as u16,
            GlobalNodeId::new(2, 4),
            GlobalNodeId::new(0, 5),
        )
        .period(PERIOD)
    };

    let mut t = Table::new(
        format!("E22b runtime link churn: {rounds} add/drive/remove rounds"),
        &["round", "id", "admitted", "injected", "delivered", "missed"],
    );
    for k in 0..rounds {
        let id = 100 + k as u16;
        gateway
            .add_link(churn_link(k), &mut fabric)
            .expect("freed capacity re-admits every round");
        // A duplicate id is refused with a typed error, not admitted twice.
        assert!(matches!(
            gateway.add_link(churn_link(k), &mut fabric),
            Err(LinkChangeError::DuplicateId { .. })
        ));
        backend.run(&mut gateway, &mut fabric, 3 * gap, &mut egress);
        let m = gateway
            .link_metrics(id)
            .expect("resident this round")
            .clone();
        assert_eq!(m.injected.get(), 2, "both scheduled frames injected");
        assert_eq!(m.delivered.get(), 2, "and delivered before removal");
        assert_eq!(m.deadline_missed.get(), 0);
        assert!(gateway.remove_link(id, &mut fabric), "known id removes");
        assert!(gateway.link_metrics(id).is_none(), "state is gone with it");
        t.row(&[
            k.to_string(),
            id.to_string(),
            "yes".to_string(),
            m.injected.get().to_string(),
            m.delivered.get().to_string(),
            m.deadline_missed.get().to_string(),
        ]);
    }
    backend.run(&mut gateway, &mut fabric, 2 * gap, &mut egress);
    assert_eq!(backend.pending(), 0);
    for id in [VICTIM, CONTROL] {
        let m = gateway.link_metrics(id).expect("resident");
        assert_eq!(
            m.deadline_missed.get(),
            0,
            "resident guaranteed link {id} unperturbed by the churn"
        );
        assert!(m.delivered.get() > 0);
    }
    assert!(!gateway.remove_link(999, &mut fabric), "unknown id refused");
    notes.push(format!(
        "churn: {rounds} rounds admitted through the incremental gate, \
         duplicate ids refused, resident guaranteed links 0 misses"
    ));
    t
}
