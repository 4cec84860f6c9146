//! Randomised tests for the CCR-EDF protocol invariants.
//!
//! Formerly `proptest` properties; now driven by the seeded [`DetRng`]
//! from `ccr-sim` so the workspace needs no external dependencies. Each
//! case is derived deterministically from a master seed, so a failing
//! case reproduces exactly from the test name alone.

use ccr_edf::analysis::AnalyticModel;
use ccr_edf::arbitration::{CcrEdfMac, CcrEdfRotatingMac};
use ccr_edf::config::NetworkConfig;
use ccr_edf::mac::arbitrate;
use ccr_edf::message::{Destination, Message, MessageId, TrafficClass};
use ccr_edf::priority::{MapperKind, Priority};
use ccr_edf::queues::NodeQueues;
use ccr_edf::wire::{
    collection_bits, distribution_bits, AckWire, CollectionPacket, DistributionPacket, NodeSet,
    Request, ServiceWireConfig, ShortMsgWire,
};
use ccr_edf::{LinkSet, NodeId, RingTopology, SimTime};
use ccr_phys::PhysParams;
use ccr_sim::rng::DetRng;
use ccr_sim::SeedSequence;

/// An arbitrary valid request *from node `src`* on an n-node ring (a real
/// request's segment always starts at the requester's own egress link —
/// that is what makes the hp-never-crosses-its-own-break property of the
/// protocol hold).
fn arb_request(rng: &mut DetRng, n: u16, src: u16) -> Request {
    let topo = RingTopology::new(n);
    let src = NodeId(src);
    let prio = rng.gen_range(0u64..=31) as u8;
    let hops = rng.gen_range(1u16..n);
    let barrier = rng.gen_bool(0.5);
    let reduce = rng.gen_bool(0.5).then(|| rng.next_u64() as u32);
    let short = rng
        .gen_bool(0.5)
        .then(|| (rng.gen_range(0..n), rng.next_u64() as u16));
    let ack = rng
        .gen_bool(0.5)
        .then(|| (rng.gen_range(0..n), rng.next_u64() as u8));
    let mut r = if prio == 0 {
        Request::IDLE
    } else {
        Request::transmission(
            Priority::new(prio),
            topo.segment_hops(src, hops),
            NodeSet::single(topo.downstream(src, hops)),
        )
    };
    r.barrier = barrier;
    r.reduce = reduce;
    r.short_msg = short.map(|(d, p)| ShortMsgWire {
        dest: NodeId(d),
        payload: p,
    });
    r.ack = ack.map(|(s, q)| AckWire {
        src: NodeId(s),
        seq: q,
    });
    r
}

fn arb_requests(rng: &mut DetRng, n: u16) -> Vec<Request> {
    (0..n).map(|i| arb_request(rng, n, i)).collect()
}

/// Wire round-trip: encode ∘ decode = id for any request vector, any
/// service mix, and the encoded length matches the bit formulas.
#[test]
fn collection_roundtrip() {
    for case in 0..256u64 {
        let mut rng = SeedSequence::new(0xC0DE).stream("coll", case);
        let n = rng.gen_range(2u16..=64);
        let svc_bits = rng.gen_range(0u64..32) as u8;
        let svc = ServiceWireConfig {
            barrier: svc_bits & 1 != 0,
            reduction: svc_bits & 2 != 0,
            short_msg: svc_bits & 4 != 0,
            reliable: svc_bits & 8 != 0,
            crc: svc_bits & 16 != 0,
        };
        // strip fields the wire doesn't carry for this service mix
        let reqs: Vec<Request> = arb_requests(&mut rng, n)
            .into_iter()
            .map(|mut r| {
                if !svc.barrier {
                    r.barrier = false;
                }
                if !svc.reduction {
                    r.reduce = None;
                }
                if !svc.short_msg {
                    r.short_msg = None;
                }
                if !svc.reliable {
                    r.ack = None;
                }
                r
            })
            .collect();
        let pkt = CollectionPacket { requests: reqs };
        let bytes = pkt.encode(n, svc);
        assert_eq!(bytes.len(), (collection_bits(n, svc) as usize).div_ceil(8));
        let back = CollectionPacket::decode(&bytes, n, svc).unwrap();
        assert_eq!(back, pkt);
    }
}

/// Distribution round-trip for arbitrary grant masks and hp index.
#[test]
fn distribution_roundtrip() {
    for case in 0..256u64 {
        let mut rng = SeedSequence::new(0xD157).stream("dist", case);
        let n = rng.gen_range(2u16..=64);
        let svc = ServiceWireConfig {
            barrier: true,
            reduction: true,
            ..Default::default()
        };
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let pkt = DistributionPacket {
            grants: NodeSet(rng.next_u64() & mask),
            hp_node: NodeId(rng.gen_range(0u16..64) % n),
            barrier_done: rng.gen_bool(0.5),
            reduce_result: rng.gen_bool(0.5).then(|| rng.next_u64() as u32),
            short_msgs: vec![None; n as usize],
            acks: vec![None; n as usize],
        };
        let bytes = pkt.encode(n, svc);
        assert_eq!(
            bytes.len(),
            (distribution_bits(n, svc) as usize).div_ceil(8)
        );
        let back = DistributionPacket::decode(&bytes, n, svc).unwrap();
        assert_eq!(back, pkt);
    }
}

/// Robustness: the wire decoders must *return an error*, never panic, on
/// arbitrary garbage of any length — including buffers shorter or longer
/// than a real packet, with or without CRC protection enabled.
#[test]
fn decoders_never_panic_on_arbitrary_buffers() {
    for case in 0..512u64 {
        let mut rng = SeedSequence::new(0xF422).stream("fuzz", case);
        let n = rng.gen_range(2u16..=64);
        let svc_bits = rng.gen_range(0u64..32) as u8;
        let svc = ServiceWireConfig {
            barrier: svc_bits & 1 != 0,
            reduction: svc_bits & 2 != 0,
            short_msg: svc_bits & 4 != 0,
            reliable: svc_bits & 8 != 0,
            crc: svc_bits & 16 != 0,
        };
        let real_len = (collection_bits(n, svc) as usize).div_ceil(8);
        let len = rng.gen_range(0u64..(real_len as u64 + 16)) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Any outcome is fine — only a panic is a bug.
        let _ = CollectionPacket::decode(&buf, n, svc);
        let _ = DistributionPacket::decode(&buf, n, svc);
        let (pkt, corrupt) = CollectionPacket::decode_with_errors(&buf, n, svc);
        assert_eq!(pkt.requests.len(), n as usize);
        for node in corrupt.iter() {
            assert_eq!(pkt.requests[node.idx()], Request::IDLE);
        }
    }
}

/// Robustness: bit-flipped *valid* packets never panic the decoders, and
/// with CRC enabled a flipped collection entry is degraded to IDLE rather
/// than smuggled through as data.
#[test]
fn decoders_never_panic_on_bit_flipped_packets() {
    for case in 0..256u64 {
        let mut rng = SeedSequence::new(0xB17F).stream("flip", case);
        let n = rng.gen_range(2u16..=64);
        let svc = ServiceWireConfig {
            crc: true,
            ..ServiceWireConfig::ALL
        };
        let coll = CollectionPacket {
            requests: arb_requests(&mut rng, n),
        };
        let mut bytes = coll.encode(n, svc);
        let flips = rng.gen_range(1u64..=4);
        for _ in 0..flips {
            let bit = rng.gen_range(0u64..bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
        }
        let _ = CollectionPacket::decode(&bytes, n, svc);
        let (pkt, corrupt) = CollectionPacket::decode_with_errors(&bytes, n, svc);
        // Un-flagged entries decoded identically to what was sent.
        for (i, r) in pkt.requests.iter().enumerate() {
            if corrupt.contains(NodeId(i as u16)) {
                assert_eq!(*r, Request::IDLE);
            }
        }
        let _ = DistributionPacket::decode(&bytes, n, svc);
    }
}

/// Arbitration invariants of both CCR-EDF variants, for any request
/// population (dense, sparse or empty, with service-only entries) on rings
/// of 2 to 64 nodes:
/// 1. all granted link sets are pairwise disjoint;
/// 2. no grant uses the link entering the next master (the clock break);
/// 3. the highest-priority requester (ties by node index, or by distance
///    from the master for the rotating variant) is granted and becomes
///    master;
/// 4. without spatial reuse there is at most one grant;
/// 5. grants are a subset of the requesters.
#[test]
fn arbitration_invariants() {
    for case in 0..256u64 {
        let mut rng = SeedSequence::new(0xA5B1).stream("arb", case);
        let n = rng.gen_range(2u16..=64);
        let master = NodeId(rng.gen_range(0u16..64) % n);
        let reuse = rng.gen_bool(0.5);
        let topo = RingTopology::new(n);
        let density = [0.0, 0.05, 0.3, 1.0][rng.gen_range(0usize..4)];
        let requests: Vec<Request> = arb_requests(&mut rng, n)
            .into_iter()
            .map(|r| {
                if rng.gen_bool(density) {
                    r
                } else {
                    Request::IDLE
                }
            })
            .collect();
        let rotating = |node: NodeId| topo.hops(master, node);
        let by_index = |node: NodeId| node.0;
        let plans = [
            (
                arbitrate(&CcrEdfMac, &requests, master, topo, reuse),
                &by_index as &dyn Fn(NodeId) -> u16,
            ),
            (
                arbitrate(&CcrEdfRotatingMac, &requests, master, topo, reuse),
                &rotating,
            ),
        ];
        for (plan, tie) in plans {
            // 5 & grant sanity
            for g in &plan.grants {
                assert!(requests[g.node.idx()].wants_tx());
                assert_eq!(g.links, requests[g.node.idx()].links);
            }
            // 1: pairwise disjoint
            let mut acc = LinkSet::EMPTY;
            for g in &plan.grants {
                assert!(g.links.is_disjoint(acc));
                acc = acc.union(g.links);
            }
            // 2: clock break untouched
            let break_link = topo.ingress(plan.next_master);
            assert!(!acc.contains(break_link));
            // 3: hp granted + master
            let hp = topo
                .nodes()
                .filter(|node| requests[node.idx()].wants_tx())
                .max_by_key(|&node| (requests[node.idx()].priority, std::cmp::Reverse(tie(node))));
            match hp {
                Some(hp) => {
                    assert_eq!(plan.next_master, hp);
                    assert_eq!(plan.grants.first().map(|g| g.node), Some(hp));
                }
                None => {
                    assert_eq!(plan.next_master, master);
                    assert!(plan.grants.is_empty());
                }
            }
            // 4: no-reuse cap
            if !reuse {
                assert!(plan.grants.len() <= 1);
            }
        }
    }
}

/// Priority mapping: monotone non-increasing in laxity, always inside
/// the right band, for both mappers.
#[test]
fn mapping_monotone_and_banded() {
    let mut rng = SeedSequence::new(0x3A9).stream("map", 0);
    for _ in 0..512 {
        let lax_a = rng.gen_range(0u64..1_000_000);
        let lax_b = rng.gen_range(0u64..1_000_000);
        let horizon = rng.gen_range(15u64..100_000);
        for m in [
            MapperKind::Logarithmic,
            MapperKind::Linear {
                horizon_slots: horizon,
            },
        ] {
            let (lo, hi) = (lax_a.min(lax_b), lax_a.max(lax_b));
            assert!(m.real_time(lo) >= m.real_time(hi));
            assert!(m.best_effort(lo) >= m.best_effort(hi));
            let rt = m.real_time(lax_a);
            let be = m.best_effort(lax_a);
            assert!((17..=31).contains(&rt.level()));
            assert!((2..=16).contains(&be.level()));
            assert!(rt > be);
        }
    }
}

/// Equation 1 is additive along the ring: the `a + b` links from `f` are
/// the `a` links from `f` followed by the `b` links from `f + a`, on
/// per-link lengths as on equal ones; on equal links it is `P·L·D`.
#[test]
fn handover_linear() {
    let mut rng = SeedSequence::new(0x9407).stream("handover", 0);
    for _ in 0..256 {
        let n = rng.gen_range(2u16..=64);
        let len_m = rng.gen_range(1.0f64..500.0);
        let lengths: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0f64..500.0)).collect();
        let a = rng.gen_range(0u16..=64) % (n + 1);
        let b = rng.gen_range(0u16..=64) % (n + 1 - a);
        let f = NodeId(rng.gen_range(0..n));
        let builder = || NetworkConfig::builder(n).slot_bytes(2048);
        let equal = AnalyticModel::new(&builder().link_length_m(len_m).build_auto_slot().unwrap());
        let per_link =
            AnalyticModel::new(&builder().link_lengths_m(lengths).build_auto_slot().unwrap());
        let mid = RingTopology::new(n).downstream(f, a);
        for m in [&equal, &per_link] {
            assert_eq!(
                m.segment_prop(f, a) + m.segment_prop(mid, b),
                m.segment_prop(f, a + b)
            );
        }
        assert_eq!(
            equal.segment_prop(f, a),
            equal.segment_prop(f, 1) * a as u64
        );
    }
}

/// Equation 2 grows monotonically in N and t_node, and the minimum
/// feasible slot bytes always produce a feasible slot.
#[test]
fn min_slot_monotone() {
    let mut rng = SeedSequence::new(0x9407).stream("minslot", 0);
    for _ in 0..256 {
        let n = rng.gen_range(2u16..=63);
        let len_m = rng.gen_range(1.0f64..100.0);
        let model = |n: u16, services: ServiceWireConfig| {
            let cfg = NetworkConfig::builder(n)
                .link_length_m(len_m)
                .services(services)
                .build_auto_slot()
                .unwrap();
            AnalyticModel::new(&cfg)
        };
        let small = model(n, ServiceWireConfig::default());
        let large = model(n + 1, ServiceWireConfig::default());
        let wider_t_node = model(n, ServiceWireConfig::ALL);
        assert!(small.collection_time() < large.collection_time());
        assert!(small.collection_time() < wider_t_node.collection_time());
        let bytes = small.min_slot_bytes() as u64;
        let per_byte = PhysParams::default().clock_period;
        assert!(per_byte * bytes >= small.control_phases_time());
        if bytes > 0 {
            assert!(per_byte * (bytes - 1) < small.control_phases_time());
        }
    }
}

/// Queue head is always the earliest deadline of the strongest
/// non-empty class, and draining yields deadlines in EDF order per
/// class.
#[test]
fn queue_edf_order() {
    for case in 0..128u64 {
        let mut rng = SeedSequence::new(0xEDF0).stream("q", case);
        let len = rng.gen_range(1usize..100);
        let deadlines: Vec<u64> = (0..len).map(|_| rng.gen_range(1u64..1_000_000)).collect();
        let mut q = NodeQueues::new();
        for (i, &d) in deadlines.iter().enumerate() {
            let mut m = Message::best_effort(
                NodeId(0),
                Destination::Unicast(NodeId(1)),
                1,
                SimTime::ZERO,
                SimTime::from_ps(d),
            );
            m.id = MessageId(i as u64);
            q.push(m);
        }
        let mut drained: Vec<SimTime> = vec![];
        while let Some(h) = q.head() {
            assert_eq!(h.msg.class, TrafficClass::BestEffort);
            let key = h.key();
            drained.push(h.msg.deadline);
            let _ = q.record_sent_slot(key);
        }
        assert_eq!(drained.len(), deadlines.len());
        assert!(drained.windows(2).all(|w| w[0] <= w[1]));
    }
}

/// Soundness of the demand-bound admission extension: any random
/// constrained-deadline set the dbf test admits runs without a single
/// deadline miss — against the *constrained* deadlines.
#[test]
fn dbf_admitted_sets_never_miss() {
    for case in 0..24u64 {
        let mut rng = SeedSequence::new(0xDBF).stream("dbf", case);
        let seed = rng.next_u64();
        let n_params = rng.gen_range(1usize..10);
        let params: Vec<(u64, u32, u64)> = (0..n_params)
            .map(|_| {
                (
                    rng.gen_range(30u64..300),
                    rng.gen_range(1u32..6),
                    rng.gen_range(20u64..100),
                )
            })
            .collect();
        use ccr_edf::admission::AdmissionPolicy;
        let cfg = ccr_edf::config::NetworkConfig::builder(8)
            .slot_bytes(2048)
            .admission_policy(AdmissionPolicy::DemandBound)
            .build_auto_slot()
            .unwrap();
        let slot = cfg.slot_time();
        let mut net = ccr_edf::network::RingNetwork::new_ccr_edf(cfg);
        let mut admitted = 0;
        for (i, &(p_slots, e, tight_pct)) in params.iter().enumerate() {
            let src = NodeId(((seed as usize + i) % 8) as u16);
            let dst = NodeId((src.0 + 1 + (i as u16 % 6)) % 8);
            let period = slot * p_slots;
            let d =
                ccr_sim::TimeDelta::from_ps((period.as_ps() * tight_pct / 100).max(slot.as_ps()));
            let spec = ccr_edf::connection::ConnectionSpec::unicast(src, dst)
                .period(period)
                .size_slots(e)
                .deadline(d.min(period));
            if net.open_connection(spec).is_ok() {
                admitted += 1;
            }
        }
        net.run_slots(20_000);
        let m = net.metrics();
        if admitted > 0 {
            assert!(m.delivered_rt.get() > 0);
        }
        assert_eq!(m.rt_deadline_misses.get(), 0, "dbf admitted a missing set");
    }
}

/// The demand-bound test never admits more than the utilisation test.
#[test]
fn dbf_is_at_most_util() {
    for case in 0..64u64 {
        let mut rng = SeedSequence::new(0xDBF).stream("dbf_util", case);
        let p_slots = rng.gen_range(10u64..500);
        let e = rng.gen_range(1u32..8);
        let tight_pct = rng.gen_range(10u64..100);
        use ccr_edf::admission::{AdmissionController, AdmissionPolicy};
        let cfg = NetworkConfig::builder(8)
            .slot_bytes(2048)
            .build_auto_slot()
            .unwrap();
        let model = AnalyticModel::new(&cfg);
        let slot = cfg.slot_time();
        let period = slot * p_slots;
        let spec = ccr_edf::connection::ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(period)
            .size_slots(e)
            .deadline(ccr_sim::TimeDelta::from_ps(
                (period.as_ps() * tight_pct / 100).max(1),
            ));
        let mut util = AdmissionController::new(model.clone(), cfg.topology());
        let mut dbfc =
            AdmissionController::with_policy(model, cfg.topology(), AdmissionPolicy::DemandBound);
        loop {
            let u_ok = util.admit(&spec).is_ok();
            let d_ok = dbfc.admit(&spec).is_ok();
            assert!(u_ok || !d_ok, "dbf admitted what util refused");
            if !u_ok {
                break;
            }
            if util.admitted_count() > 200 {
                break;
            }
        }
        assert!(dbfc.admitted_count() <= util.admitted_count());
    }
}

/// End-to-end conservation: everything submitted is eventually either
/// delivered or still queued; nothing is duplicated or lost (no faults).
#[test]
fn message_conservation() {
    for case in 0..24u64 {
        let mut rng = SeedSequence::new(0xC04).stream("conserve", case);
        let n = rng.gen_range(3u16..=12);
        let n_msgs = rng.gen_range(1usize..40);
        let cfg = ccr_edf::config::NetworkConfig::builder(n)
            .slot_bytes(2048)
            .build_auto_slot()
            .unwrap();
        let mut net = ccr_edf::network::RingNetwork::new_ccr_edf(cfg);
        let mut submitted = 0u64;
        let mut total_slots = 0u64;
        for _ in 0..n_msgs {
            let src = NodeId(rng.gen_range(0u16..12) % n);
            let hop = rng.gen_range(1u16..12);
            let size = rng.gen_range(1u32..4);
            let dst = ccr_edf::RingTopology::new(n).downstream(src, 1 + hop % (n - 1));
            net.submit_message(
                SimTime::ZERO,
                Message::non_real_time(src, Destination::Unicast(dst), size, SimTime::ZERO),
            );
            submitted += 1;
            total_slots += size as u64;
        }
        // enough slots to drain everything serially, plus pipeline slack
        net.run_slots(total_slots * 2 + 10);
        let m = net.metrics();
        assert_eq!(m.delivered.get(), submitted);
        assert_eq!(net.queued_messages(), 0);
        assert_eq!(m.grants.get(), total_slots);
    }
}
