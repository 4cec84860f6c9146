//! E21 — extension: the real-wire gateway — paced virtual links over the
//! certified fabric.
//!
//! `ccr-gateway` lets external UDP clients ride the fabric as *virtual
//! links*: each link is admitted through the same EDF + calculus gate as
//! any native connection, then a token bucket at ingress paces the wire
//! to the admitted envelope. The paper's promise is that admitted
//! real-time traffic keeps its deadlines *no matter what the wire does*;
//! this experiment holds the gateway to that promise using the
//! deterministic loopback backend (identical code path to UDP minus the
//! socket), three ways:
//!
//! 1. **Headline soak** — guaranteed links driven exactly at their
//!    admitted rate while a best-effort link is flooded at 1.5× its
//!    admitted rate. The guaranteed links must finish with **zero**
//!    deadline misses; the overload shows up only as counted sheds on
//!    the best-effort link — nothing is silently dropped and nothing
//!    uncommitted enters the fabric.
//! 2. **Overload sweep** — the best-effort drive factor swept from 1×
//!    to 4×. Injections stay pinned at the admitted rate (the bucket is
//!    the clamp), sheds absorb the excess, and the guaranteed links'
//!    miss count stays zero at every factor.
//! 3. **Replay** — the headline scenario run twice must produce
//!    byte-identical egress wire frames and `==`-equal metrics: the
//!    gateway adds no nondeterminism to the fabric it fronts.
//!
//! A [`GatewayTraceRecorder`](crate::trace::GatewayTraceRecorder)
//! timeline of the headline run is included so the shed bursts are
//! visible per window.
//!
//! CSV artefacts (full runs only; best-effort, skipped on read-only
//! checkouts):
//! `results/e21_gateway.csv`, `results/e21_overload.csv`.

use super::{write_results, ExpOptions, ExperimentResult};
use crate::sweep::parallel_map;
use crate::trace::GatewayTraceRecorder;
use ccr_gateway::prelude::*;
use ccr_multiring::prelude::*;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::{SeedSequence, TimeDelta};

/// Admitted period of every link in the scenario.
const PERIOD: TimeDelta = TimeDelta::from_ms(2);

/// A scenario link: `(wire id, src (ring, node), dst (ring, node))`.
type LinkSite = (u16, (u16, u16), (u16, u16));

/// Guaranteed links on the 2×6 chain fabric.
const GUARANTEED: [LinkSite; 2] = [(1, (0, 1), (1, 3)), (3, (0, 3), (1, 5))];

/// The best-effort link driven into overload.
const BEST_EFFORT: LinkSite = (2, (0, 2), (1, 4));

fn build(seed: u64) -> (Fabric, Gateway, AdmissionReport) {
    let topo = FabricTopology::chain(2, 6);
    let cfg = FabricConfig::uniform(topo, 2_048, seed).expect("fabric config");
    let mut fabric = Fabric::new(cfg).expect("fabric builds");
    let mut links: Vec<VirtualLink> = GUARANTEED
        .iter()
        .map(|&(id, (sr, sn), (dr, dn))| {
            VirtualLink::new(id, GlobalNodeId::new(sr, sn), GlobalNodeId::new(dr, dn))
                .period(PERIOD)
        })
        .collect();
    let (id, (sr, sn), (dr, dn)) = BEST_EFFORT;
    links.push(
        VirtualLink::new(id, GlobalNodeId::new(sr, sn), GlobalNodeId::new(dr, dn))
            .period(PERIOD)
            .class(DeadlineClass::BestEffort),
    );
    let gw_cfg = GatewayConfig::new(links).expect("gateway config");
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
    let payload = format!("e21-l{link}-{seq}");
    Header {
        kind: PacketKind::Data,
        link,
        seq,
        len: 0, // encode overrides with payload.len()
        budget_us: 0,
    }
    .encode(payload.as_bytes())
}

/// The slot-indexed arrival schedule: guaranteed links at exactly their
/// admitted rate, the best-effort link at `factor`× it. Arrivals stop
/// two periods before the horizon so in-flight datagrams can land.
fn schedule(gap: u64, horizon: u64, factor: f64) -> Vec<(u64, Vec<u8>)> {
    let stop = horizon.saturating_sub(2 * gap);
    let mut out = Vec::new();
    for &(id, _, _) in &GUARANTEED {
        let mut seq = 0u32;
        let mut slot = 0;
        while slot < stop {
            out.push((slot, data(id, seq)));
            seq += 1;
            slot += gap;
        }
    }
    let be_gap = ((gap as f64 / factor) as u64).max(1);
    let mut seq = 0u32;
    let mut slot = 0;
    while slot < stop {
        out.push((slot, data(BEST_EFFORT.0, seq)));
        seq += 1;
        slot += be_gap;
    }
    out
}

/// One soak: build, drive, and return the egress plus final gateway,
/// recording windowed activity into `recorder` when given.
fn soak(
    seed: u64,
    horizon: u64,
    factor: f64,
    mut recorder: Option<&mut GatewayTraceRecorder>,
) -> (Gateway, Vec<EgressFrame>) {
    let (mut fabric, mut gateway, report) = build(seed);
    assert!(
        report.rejected.is_empty() && report.admitted.len() == 3,
        "the scenario's three links all fit the fabric: {report:?}"
    );
    let gap = period_slots(&fabric);
    let mut backend = LoopbackBackend::new(schedule(gap, horizon, factor));
    let mut egress = Vec::new();
    let window = 2_048u64.min(horizon);
    let mut done = 0;
    while done < horizon {
        let n = window.min(horizon - done);
        backend.run(&mut gateway, &mut fabric, n, &mut egress);
        done += n;
        if let Some(r) = recorder.as_deref_mut() {
            r.observe(done, gateway.metrics());
        }
    }
    assert_eq!(backend.pending(), 0, "every scheduled arrival was offered");
    (gateway, egress)
}

/// Run E21.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let seq = SeedSequence::new(opts.seed).subsequence("e21", 0);
    let mut notes = vec![];

    let headline = headline_table(opts, &seq, &mut notes);
    let overload = overload_table(opts, &seq, &mut notes);

    write_results(
        opts,
        &[
            ("e21_gateway.csv", &headline.to_csv()),
            ("e21_overload.csv", &overload.to_csv()),
        ],
        &mut notes,
    );

    ExperimentResult {
        tables: vec![headline, overload],
        notes,
    }
}

/// E21a: the 1.5× overload soak, replayed twice for bit-identity.
fn headline_table(opts: &ExpOptions, seq: &SeedSequence, notes: &mut Vec<String>) -> Table {
    let seed = seq.child_seed("headline", 0);
    let horizon = opts.slots(60_000);
    let mut recorder = GatewayTraceRecorder::new(8);
    let (gateway, egress) = soak(seed, horizon, 1.5, Some(&mut recorder));

    // Replay: same scenario, fresh state — the egress wire bytes and
    // every counter must be identical.
    let (gateway2, egress2) = soak(seed, horizon, 1.5, None);
    let wire = |frames: &[EgressFrame]| -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut frame = Vec::new();
        for f in frames {
            f.encode_into(&mut frame);
            bytes.extend_from_slice(&frame);
        }
        bytes
    };
    assert_eq!(
        wire(&egress),
        wire(&egress2),
        "loopback egress replays byte-identically"
    );
    assert_eq!(gateway.metrics(), gateway2.metrics());

    let mut t = Table::new(
        format!("E21a gateway soak: best-effort at 1.5x over {horizon} slots"),
        &[
            "link",
            "class",
            "offered",
            "injected",
            "shed",
            "delivered",
            "met",
            "missed",
        ],
    );
    let mut rows: Vec<(u16, &str)> = GUARANTEED.iter().map(|&(id, _, _)| (id, "G")).collect();
    rows.push((BEST_EFFORT.0, "BE"));
    for (id, class) in rows {
        let m = gateway.link_metrics(id).expect("admitted link");
        if class == "G" {
            assert_eq!(
                m.deadline_missed.get(),
                0,
                "guaranteed link {id} misses no deadline under overload"
            );
            assert_eq!(m.shed.get(), 0, "guaranteed link {id} is never overdriven");
        } else {
            assert!(
                m.shed.get() > 0,
                "the 1.5x drive exceeds the bucket: sheds must be counted"
            );
            assert_eq!(
                m.ingress_frames.get(),
                m.injected.get() + m.shed.get(),
                "every best-effort datagram is accounted for: injected or shed"
            );
        }
        t.row(&[
            id.to_string(),
            class.to_string(),
            m.ingress_frames.get().to_string(),
            m.injected.get().to_string(),
            m.shed.get().to_string(),
            m.delivered.get().to_string(),
            m.deadline_met.get().to_string(),
            m.deadline_missed.get().to_string(),
        ]);
    }
    assert!(
        egress.iter().all(|f| f.fresh),
        "queuing-port deliveries are never stale-tagged"
    );
    notes.push(format!(
        "headline: {} egress deliveries, replay bit-identical; \
         guaranteed links 0 misses, best-effort shed {}",
        egress.len(),
        gateway
            .link_metrics(BEST_EFFORT.0)
            .map(|m| m.shed.get())
            .unwrap_or(0),
    ));
    notes.push(recorder.render());
    t
}

/// E21b: overload factor sweep — the bucket clamps injections, sheds
/// absorb the rest, guaranteed misses stay zero throughout.
fn overload_table(opts: &ExpOptions, seq: &SeedSequence, notes: &mut Vec<String>) -> Table {
    let factors = [1.0f64, 1.5, 2.0, 4.0];
    let horizon = opts.slots(24_000);
    let seed = seq.child_seed("overload", 0);
    let runs = parallel_map(factors.to_vec(), opts.threads, |&factor| {
        let (gateway, _) = soak(seed, horizon, factor, None);
        let be = gateway.link_metrics(BEST_EFFORT.0).expect("link").clone();
        let g_missed: u64 = GUARANTEED
            .iter()
            .map(|&(id, _, _)| {
                gateway
                    .link_metrics(id)
                    .expect("link")
                    .deadline_missed
                    .get()
            })
            .sum();
        (factor, be, g_missed)
    });

    let mut t = Table::new(
        format!("E21b overload sweep over {horizon} slots (best-effort link)"),
        &[
            "factor",
            "offered",
            "injected",
            "shed",
            "shed_ratio",
            "G_missed",
        ],
    );
    let mut admitted_rate = None;
    for (factor, be, g_missed) in &runs {
        assert_eq!(*g_missed, 0, "guaranteed misses at factor {factor}");
        let offered = be.ingress_frames.get();
        assert_eq!(offered, be.injected.get() + be.shed.get());
        if *factor > 1.0 {
            assert!(be.shed.get() > 0, "overdrive at {factor}x must shed");
        }
        // The bucket pins injections at the admitted rate: whatever the
        // drive factor, the injected count never grows past the 1x run's
        // (plus the one-token burst).
        match admitted_rate {
            None => admitted_rate = Some(be.injected.get()),
            Some(rate) => assert!(
                be.injected.get() <= rate + 1,
                "injections stay clamped at the admitted rate"
            ),
        }
        t.row(&[
            fmt_f64(*factor, 1),
            offered.to_string(),
            be.injected.get().to_string(),
            be.shed.get().to_string(),
            fmt_f64(be.shed.get() as f64 / offered.max(1) as f64, 3),
            g_missed.to_string(),
        ]);
    }
    notes.push(format!(
        "overload sweep: injections clamped at the admitted rate across {:?}x drives, \
         zero guaranteed misses everywhere",
        factors
    ));
    t
}
