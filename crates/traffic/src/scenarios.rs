//! Application scenarios from the paper's introduction.
//!
//! * **Radar signal processing** (Section 1, refs \[1], \[2]): a pipeline of
//!   processing stages mapped around the ring — pulse compression →
//!   Doppler filtering → envelope detection → CFAR → tracking. Each stage
//!   forwards a data cube to the next stage every coherent processing
//!   interval (CPI); all transfers are hard real-time connections. Because
//!   consecutive stages are ring neighbours, the workload is highly local
//!   and benefits maximally from spatial reuse.
//! * **Distributed multimedia**: a mix of periodic voice channels (hard
//!   connections), bursty video (best effort) and background file traffic
//!   (non-real-time).

use crate::bursty::BurstyGen;
use ccr_edf::connection::ConnectionSpec;
use ccr_edf::{NodeId, TimeDelta};

/// Parameters of the radar pipeline scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadarScenario {
    /// Nodes in the ring (pipeline stages occupy nodes `0..stages`).
    pub n_nodes: u16,
    /// Number of pipeline stages (≥ 2, ≤ n_nodes).
    pub stages: u16,
    /// Coherent processing interval — the period of every transfer.
    pub cpi: TimeDelta,
    /// Data-cube size in slots transferred between consecutive stages.
    pub cube_slots: u32,
    /// Extra corner-turn transfer: stage `s` also broadcasts a reduced
    /// result every `report_every` CPIs (0 = disabled).
    pub report_every: u32,
}

impl RadarScenario {
    /// A default five-stage pipeline on an 8-node ring, 2 ms CPI.
    pub fn default_on(n_nodes: u16) -> Self {
        RadarScenario {
            n_nodes,
            stages: 5.min(n_nodes),
            cpi: TimeDelta::from_ms(2),
            cube_slots: 8,
            report_every: 0,
        }
    }

    /// The hard real-time connections of the pipeline: stage *i* (node i)
    /// → stage *i+1* (node i+1), staggered phases so the cube "flows".
    pub fn connections(&self) -> Vec<ConnectionSpec> {
        assert!(self.stages >= 2 && self.stages <= self.n_nodes);
        let stagger = TimeDelta::from_ps(self.cpi.as_ps() / u64::from(self.stages));
        (0..self.stages - 1)
            .map(|s| {
                ConnectionSpec::unicast(NodeId(s), NodeId(s + 1))
                    .period(self.cpi)
                    .size_slots(self.cube_slots)
                    .phase(stagger * s as u64)
            })
            .collect()
    }

    /// Total utilisation of the pipeline at slot length `slot`.
    pub fn utilisation(&self, slot: TimeDelta) -> f64 {
        self.connections().iter().map(|c| c.utilisation(slot)).sum()
    }
}

/// Parameters of the distributed multimedia scenario.
#[derive(Debug, Clone)]
pub struct MultimediaScenario {
    /// Ring size.
    pub n_nodes: u16,
    /// Number of periodic voice channels (RT connections, 1 slot / 20 ms
    /// scaled down to simulation time below).
    pub voice_channels: usize,
    /// Voice packet period.
    pub voice_period: TimeDelta,
    /// Number of bursty video streams (best effort).
    pub video_streams: usize,
    /// Video burst rate during ON periods (messages/s).
    pub video_on_rate: f64,
}

impl MultimediaScenario {
    /// A small default mix.
    pub fn default_on(n_nodes: u16) -> Self {
        MultimediaScenario {
            n_nodes,
            voice_channels: n_nodes as usize,
            voice_period: TimeDelta::from_us(125), // scaled-down 8 kHz frame
            video_streams: (n_nodes / 2) as usize,
            video_on_rate: 100_000.0,
        }
    }

    /// The guaranteed voice connections: channel *i* runs node *i mod N* →
    /// node *(i + N/2) mod N* (long spans — worst case for spatial reuse).
    pub fn voice_connections(&self) -> Vec<ConnectionSpec> {
        let n = self.n_nodes;
        (0..self.voice_channels)
            .map(|i| {
                let src = NodeId(i as u16 % n);
                let dst = NodeId((src.0 + n / 2).max(src.0 + 1) % n);
                let dst = if dst == src {
                    NodeId((src.0 + 1) % n)
                } else {
                    dst
                };
                ConnectionSpec::unicast(src, dst)
                    .period(self.voice_period)
                    .size_slots(1)
                    .phase(TimeDelta::from_ps(
                        (i as u64 * self.voice_period.as_ps()) / self.voice_channels.max(1) as u64,
                    ))
            })
            .collect()
    }

    /// The bursty video generators (one per stream).
    pub fn video_generators(&self) -> Vec<BurstyGen> {
        let n = self.n_nodes;
        (0..self.video_streams)
            .map(|i| BurstyGen {
                src: NodeId((2 * i as u16 + 1) % n),
                dst: NodeId((2 * i as u16 + 3) % n),
                on_rate_per_s: self.video_on_rate,
                mean_on: TimeDelta::from_us(200),
                mean_off: TimeDelta::from_us(600),
                size_slots: 4,
                rel_deadline: TimeDelta::from_ms(2),
            })
            .filter(|g| g.src != g.dst)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_phys::RingTopology;

    #[test]
    fn radar_pipeline_connects_consecutive_stages() {
        let r = RadarScenario::default_on(8);
        let conns = r.connections();
        assert_eq!(conns.len(), 4); // 5 stages → 4 transfers
        let topo = RingTopology::new(8);
        for (i, c) in conns.iter().enumerate() {
            c.validate(topo).unwrap();
            assert_eq!(c.src, NodeId(i as u16));
            assert_eq!(c.dest.span_hops(topo, c.src), 1, "neighbour transfer");
            assert_eq!(c.period, r.cpi);
        }
        // staggered phases strictly increasing
        assert!(conns.windows(2).all(|w| w[0].phase < w[1].phase));
    }

    #[test]
    fn radar_utilisation_scales_with_cube() {
        let slot = TimeDelta::from_us(2);
        let mut small = RadarScenario::default_on(8);
        small.cube_slots = 2;
        let mut big = small;
        big.cube_slots = 20;
        assert!(big.utilisation(slot) > small.utilisation(slot) * 9.0);
    }

    #[test]
    fn multimedia_specs_valid() {
        let m = MultimediaScenario::default_on(8);
        let topo = RingTopology::new(8);
        let voice = m.voice_connections();
        assert_eq!(voice.len(), 8);
        for c in &voice {
            c.validate(topo).unwrap();
        }
        let vids = m.video_generators();
        assert!(!vids.is_empty());
        for g in &vids {
            assert_ne!(g.src, g.dst);
            assert!(g.src.0 < 8 && g.dst.0 < 8);
        }
    }

    #[test]
    fn tiny_ring_still_works() {
        let r = RadarScenario {
            n_nodes: 2,
            stages: 2,
            cpi: TimeDelta::from_ms(1),
            cube_slots: 1,
            report_every: 0,
        };
        assert_eq!(r.connections().len(), 1);
        let m = MultimediaScenario::default_on(3);
        let topo = RingTopology::new(3);
        for c in m.voice_connections() {
            c.validate(topo).unwrap();
        }
    }
}
