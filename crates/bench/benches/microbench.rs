//! Protocol microbenchmarks: the hot kernels of the simulator.

use cc_fpr::{CcFprMac, TdmaMac};
use ccr_bench::harness::{
    black_box, criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion,
};
use ccr_bench::{bench_config, loaded_network};
use ccr_calculus::{ArrivalCurve, FlowSpec, IncrementalSolver, ServiceCurve};
use ccr_edf::arbitration::{CcrEdfMac, CcrEdfRotatingMac};
use ccr_edf::mac::{ArbScratch, Collection, MacProtocol, SlotPlan};
use ccr_edf::message::{Destination, Message, MessageId, TrafficClass};
use ccr_edf::network::RingNetwork;
use ccr_edf::priority::{MapperKind, Priority};
use ccr_edf::queues::NodeQueues;
use ccr_edf::wire::{BitSink, CollectionPacket, Crc16, NodeSet, Request, ServiceWireConfig};
use ccr_edf::{LinkSet, NodeId, RingTopology, SimTime};
use ccr_sim::rng::DetRng;
use ccr_sim::stats::Histogram;

fn requests_for(n: u16, density: f64) -> Vec<Request> {
    let topo = RingTopology::new(n);
    (0..n)
        .map(|i| {
            if (i as f64) < density * n as f64 {
                Request::transmission(
                    Priority::new(17 + (i % 15) as u8),
                    topo.segment(NodeId(i), NodeId((i + 1 + i % 3) % n)),
                    NodeSet::single(NodeId((i + 1) % n)),
                )
            } else {
                Request::IDLE
            }
        })
        .collect()
}

/// One `arbitration/*` row: `mac` arbitrates `requests` into a reused
/// plan, as the slot engine calls it every slot.
fn bench_mac(
    g: &mut BenchmarkGroup<'_>,
    name: String,
    mac: &impl MacProtocol,
    requests: &Collection,
) {
    let topo = RingTopology::new(requests.entries().len() as u16);
    let mut scratch = ArbScratch::default();
    let mut plan = SlotPlan::idle(NodeId(0));
    g.bench_function(name, |b| {
        b.iter(|| {
            mac.arbitrate_into(
                black_box(requests),
                NodeId(0),
                topo,
                true,
                &mut scratch,
                &mut plan,
            );
            plan.grants.len()
        })
    });
}

fn bench_arbitration(c: &mut Criterion) {
    let mut g = c.benchmark_group("arbitration");
    for n in [8u16, 16, 64] {
        let requests: Collection = requests_for(n, 0.8).into_iter().collect();
        bench_mac(&mut g, format!("ccr_edf_n{n}"), &CcrEdfMac, &requests);
        bench_mac(
            &mut g,
            format!("ccr_edf_rot_n{n}"),
            &CcrEdfRotatingMac,
            &requests,
        );
        bench_mac(&mut g, format!("cc_fpr_n{n}"), &CcFprMac, &requests);
        bench_mac(&mut g, format!("tdma_n{n}"), &TdmaMac, &requests);
    }
    g.finish();
}

fn bench_edf_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("edf_queue");
    g.bench_function("push_pop_1k", |b| {
        b.iter_batched(
            NodeQueues::new,
            |mut q| {
                for i in 0..1_000u64 {
                    let mut m = Message::best_effort(
                        NodeId(0),
                        Destination::Unicast(NodeId(1)),
                        1,
                        SimTime::ZERO,
                        SimTime::from_us((i * 37) % 1000 + 1),
                    );
                    m.id = MessageId(i);
                    q.push(m);
                }
                while let Some(head) = q.head() {
                    let key = head.key();
                    let _ = q.record_sent_slot(key);
                }
                q
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    for n in [8u16, 64] {
        let svc = ServiceWireConfig::ALL;
        let pkt = CollectionPacket {
            requests: requests_for(n, 1.0),
        };
        g.bench_function(format!("collection_encode_n{n}"), |b| {
            b.iter(|| pkt.encode(black_box(n), svc))
        });
        let bytes = pkt.encode(n, svc);
        g.bench_function(format!("collection_decode_n{n}"), |b| {
            b.iter(|| CollectionPacket::decode(black_box(&bytes), n, svc).unwrap())
        });
    }
    // The 14 bytes a gateway header's CRC covers: the bit-serial oracle
    // against the byte table.
    let header = [
        0xC5u8, 0x11, 0, 7, 0xDE, 0xAD, 0xBE, 0xEF, 0, 3, 0, 0, 5, 0xDC,
    ];
    g.bench_function("crc16_header_bit_serial", |b| {
        b.iter(|| {
            let mut crc = Crc16::new();
            for &byte in black_box(&header) {
                crc.put(byte as u64, 8);
            }
            crc.value()
        })
    });
    g.bench_function("crc16_header_table", |b| {
        b.iter(|| {
            let mut crc = Crc16::new();
            crc.put_bytes(black_box(&header));
            crc.value()
        })
    });
    g.finish();
}

fn bench_slot_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("slot_engine");
    g.sample_size(20);
    for (label, load) in [("idle", 0.0), ("half", 0.5), ("full", 0.95)] {
        g.bench_function(format!("1k_slots_n16_{label}"), |b| {
            b.iter_batched(
                || loaded_network(16, load, 7),
                |mut net| {
                    net.run_slots(1_000);
                    net
                },
                BatchSize::SmallInput,
            )
        });
    }
    // One idle slot: the full step against `run_slots(1)`'s O(1) idle
    // path, the per-slot entry the fabric's ring phase takes.
    let mut net = RingNetwork::new_ccr_edf(bench_config(16));
    g.bench_function("idle_slot_n16_step", |b| {
        b.iter(|| net.step_slot().slot_index)
    });
    for n in [16u16, 64] {
        let mut net = RingNetwork::new_ccr_edf(bench_config(n));
        g.bench_function(format!("idle_slot_n{n}_advance"), |b| {
            b.iter(|| {
                net.run_slots(1);
                net.last_outcome().slot_index
            })
        });
    }
    // One busy slot: node 1 keeps a backlog (one message longer than any
    // run) and every other node is empty, so the slot should cost what its
    // one occupied node costs, whatever the ring size.
    for n in [16u16, 64] {
        let mut net = RingNetwork::new_ccr_edf(bench_config(n));
        let backlog = Message::non_real_time(
            NodeId(1),
            Destination::Unicast(NodeId(2)),
            u32::MAX,
            SimTime::ZERO,
        );
        net.submit_message(SimTime::ZERO, backlog);
        g.bench_function(format!("busy_slot_n{n}_one_sender"), |b| {
            b.iter(|| net.step_slot().grant_count)
        });
    }
    g.finish();
}

fn bench_priority_mapping(c: &mut Criterion) {
    let m = MapperKind::Logarithmic;
    c.bench_function("laxity_mapping_log", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for lax in 0..1_000u64 {
                acc += m.real_time(black_box(lax * 13)).level() as u32;
            }
            acc
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram_record_1k", |b| {
        b.iter_batched(
            Histogram::for_latency,
            |mut h| {
                for i in 0..1_000u64 {
                    h.record(i.wrapping_mul(0x9E37_79B9) % 10_000_000);
                }
                h
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_admission(c: &mut Criterion) {
    let cfg = bench_config(16);
    let model = ccr_edf::analysis::AnalyticModel::new(&cfg);
    let topo = cfg.topology();
    let spec = ccr_edf::connection::ConnectionSpec::unicast(NodeId(0), NodeId(1))
        .period(ccr_sim::TimeDelta::from_ms(1))
        .size_slots(1);
    c.bench_function("admission_check", |b| {
        let ctl = ccr_edf::admission::AdmissionController::new(model.clone(), topo);
        b.iter(|| ctl.check(black_box(&spec)))
    });
    // demand-bound feasibility over a 20-connection constrained set
    let slot = cfg.slot_time();
    let set: Vec<ccr_edf::connection::ConnectionSpec> = (0..20u64)
        .map(|i| {
            ccr_edf::connection::ConnectionSpec::unicast(
                NodeId((i % 16) as u16),
                NodeId(((i + 1) % 16) as u16),
            )
            .period(slot * (100 + i * 10))
            .size_slots(2)
            .deadline(slot * (50 + i * 5))
        })
        .collect();
    c.bench_function("dbf_feasible_20conns", |b| {
        b.iter(|| ccr_edf::dbf::feasible(black_box(&model), black_box(&set)))
    });
}

/// The certifier on `admission_churn`'s shape: eight ring servers (8 µs
/// per slot, 10 µs latency), each feeding a bridge-queue server into the
/// next ring; 40 ring-local flows per ring classed by their own deadline,
/// plus one flow across each bridge, so the fixed point iterates a cycle.
fn churn_certifier() -> IncrementalSolver {
    const RINGS: usize = 8;
    let per_slot_ps = 8e6;
    let ring = ServiceCurve::rate_latency(1.0 / per_slot_ps, 1e7).unwrap();
    let queue = ServiceCurve::rate_latency(1.0 / per_slot_ps, per_slot_ps).unwrap();
    let mut services = vec![ring; RINGS];
    services.extend(vec![queue; RINGS]);
    let mut rng = DetRng::new(0xC4C1E);
    let flows: Vec<(u64, FlowSpec)> = (0..328usize)
        .map(|i| {
            let r = i % RINGS;
            let period_ps = (40 + rng.gen_range(0..80u64)) as f64 * 1e9;
            let arrival = ArrivalCurve::token_bucket(1.0, 1.0 / period_ps).unwrap();
            let spec = if i < 320 {
                let mut spec = FlowSpec::blind(vec![r], arrival, vec![0.0]);
                spec.classes = vec![period_ps];
                spec
            } else {
                let path = vec![r, RINGS + r, (r + 1) % RINGS];
                let mut spec = FlowSpec::blind(path, arrival, vec![0.0; 3]);
                spec.classes = vec![period_ps / 2.0, f64::INFINITY, period_ps / 2.0];
                spec
            };
            (i as u64, spec)
        })
        .collect();
    let mut solver = IncrementalSolver::new(&services);
    solver.admit(&flows).expect("churn residents certify");
    solver
}

fn bench_certifier(c: &mut Criterion) {
    let base = churn_certifier();
    let arrival = ArrivalCurve::token_bucket(1.0, 1.0 / 5e10).unwrap();
    let mut probe = FlowSpec::blind(vec![3], arrival, vec![0.0]);
    probe.classes = vec![5e10];
    let probe = [(1_000u64, probe)];
    let mut with_probe = base.clone();
    with_probe.admit(&probe).unwrap();
    let mut g = c.benchmark_group("certifier");
    g.sample_size(30);
    // Finished solvers are kept, so their deallocation stays untimed.
    let mut done = Vec::new();
    g.bench_function("churn_admit", |b| {
        b.iter_batched(
            || base.clone(),
            |mut s| {
                s.admit(&probe).unwrap();
                done.push(s);
            },
            BatchSize::SmallInput,
        )
    });
    // Admitted inside a session that is then dropped: what a refusal by
    // the deadline gate costs.
    let mut solver = base.clone();
    g.bench_function("churn_refused_admit", |b| {
        b.iter(|| solver.session().admit(&probe).unwrap().iterations)
    });
    g.bench_function("churn_close", |b| {
        b.iter_batched(
            || with_probe.clone(),
            |mut s| {
                s.remove(&[1_000]);
                done.push(s);
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_parallel_map(c: &mut Criterion) {
    use ccr_sim::parallel::parallel_map;
    // The sweep workload: one short simulation per input, the shape every
    // experiment's parameter sweep has, over the per-item atomic cursor.
    let mut g = c.benchmark_group("parallel_map");
    g.sample_size(10);
    let inputs: Vec<u64> = (0..32).collect();
    let work = |seed: &u64| {
        let mut net = loaded_network(8, 0.5, *seed);
        net.run_slots(200);
        net.metrics().delivered.get()
    };
    g.bench_function("sweep32_per_item", |b| {
        b.iter(|| parallel_map(black_box(inputs.clone()), 4, work))
    });
    g.finish();
}

fn bench_class_queue_types(c: &mut Criterion) {
    // mixed-class head selection under churn
    c.bench_function("queue_mixed_head", |b| {
        b.iter_batched(
            || {
                let mut q = NodeQueues::new();
                for i in 0..300u64 {
                    let class = match i % 3 {
                        0 => TrafficClass::RealTime,
                        1 => TrafficClass::BestEffort,
                        _ => TrafficClass::NonRealTime,
                    };
                    let mut m = match class {
                        TrafficClass::RealTime => Message::real_time(
                            NodeId(0),
                            Destination::Unicast(NodeId(1)),
                            1,
                            SimTime::ZERO,
                            SimTime::from_us(i + 1),
                            ccr_edf::connection::ConnectionId(0),
                        ),
                        TrafficClass::BestEffort => Message::best_effort(
                            NodeId(0),
                            Destination::Unicast(NodeId(1)),
                            1,
                            SimTime::ZERO,
                            SimTime::from_us(i + 1),
                        ),
                        TrafficClass::NonRealTime => Message::non_real_time(
                            NodeId(0),
                            Destination::Unicast(NodeId(1)),
                            1,
                            SimTime::ZERO,
                        ),
                    };
                    m.id = MessageId(i);
                    q.push(m);
                }
                q
            },
            |q| {
                let mut n = 0usize;
                let mut cur = q;
                while let Some(h) = cur.head() {
                    let key = h.key();
                    let _ = cur.record_sent_slot(key);
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    let _ = LinkSet::EMPTY; // keep import meaningful under cfg changes
}

criterion_group!(
    benches,
    bench_arbitration,
    bench_edf_queue,
    bench_wire_codec,
    bench_slot_engine,
    bench_priority_mapping,
    bench_histogram,
    bench_admission,
    bench_certifier,
    bench_parallel_map,
    bench_class_queue_types,
);
criterion_main!(benches);
