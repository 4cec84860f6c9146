//! Protocol microbenchmarks: the hot kernels of the simulator.

use cc_fpr::{CcFprMac, TdmaMac};
use ccr_bench::harness::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ccr_bench::{bench_config, loaded_network};
use ccr_edf::arbitration::{CcrEdfMac, CcrEdfRotatingMac};
use ccr_edf::mac::MacProtocol;
use ccr_edf::message::{Destination, Message, MessageId, TrafficClass};
use ccr_edf::priority::{MapperKind, Priority};
use ccr_edf::queues::NodeQueues;
use ccr_edf::wire::{CollectionPacket, NodeSet, Request, ServiceWireConfig};
use ccr_edf::{LinkSet, NodeId, RingTopology, SimTime};
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

fn bench_arbitration(c: &mut Criterion) {
    let mut g = c.benchmark_group("arbitration");
    for n in [8u16, 16, 64] {
        let topo = RingTopology::new(n);
        let reqs = requests_for(n, 0.8);
        g.bench_function(format!("ccr_edf_n{n}"), |b| {
            b.iter(|| CcrEdfMac.arbitrate(black_box(&reqs), NodeId(0), topo, true))
        });
        g.bench_function(format!("ccr_edf_rot_n{n}"), |b| {
            b.iter(|| CcrEdfRotatingMac.arbitrate(black_box(&reqs), NodeId(0), topo, true))
        });
        g.bench_function(format!("cc_fpr_n{n}"), |b| {
            b.iter(|| CcFprMac.arbitrate(black_box(&reqs), NodeId(0), topo, true))
        });
        g.bench_function(format!("tdma_n{n}"), |b| {
            b.iter(|| TdmaMac.arbitrate(black_box(&reqs), NodeId(0), topo, true))
        });
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
                    let id = head.msg.id;
                    let _ = q.record_sent_slot(id);
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
        let ctl = ccr_edf::admission::AdmissionController::new(model, topo);
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

fn bench_parallel_map(c: &mut Criterion) {
    use ccr_sim::parallel::{parallel_map, parallel_map_chunked};
    // The sweep workload: one short simulation per input, the shape every
    // experiment's parameter sweep has. Compares the per-item atomic
    // cursor against chunked stealing (see ccr_sim::parallel docs).
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
    g.bench_function("sweep32_chunk4", |b| {
        b.iter(|| parallel_map_chunked(black_box(inputs.clone()), 4, 4, work))
    });
    g.bench_function("sweep32_chunk8", |b| {
        b.iter(|| parallel_map_chunked(black_box(inputs.clone()), 4, 8, work))
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
                    let id = h.msg.id;
                    let _ = cur.record_sent_slot(id);
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
    bench_parallel_map,
    bench_class_queue_types,
);
criterion_main!(benches);
