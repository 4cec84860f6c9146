//! Simulation runners: drive a network with a workload and summarise.

use ccr_edf::config::NetworkConfig;
use ccr_edf::connection::{ConnectionId, ConnectionSpec};
use ccr_edf::mac::MacProtocol;
use ccr_edf::message::Message;
use ccr_edf::metrics::Metrics;
use ccr_edf::network::RingNetwork;
use ccr_edf::{SimTime, TimeDelta};

/// Synthetic connection ids used when periodic traffic bypasses admission
/// (overload experiments); kept far from real ids to avoid collisions.
pub const RAW_CONN_BASE: u64 = 1_000_000;

/// A complete workload for one run.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Connections opened through admission control; rejected ones are
    /// counted in the summary and generate no traffic.
    pub connections: Vec<ConnectionSpec>,
    /// Periodic connections injected *without* admission (their releases
    /// are pre-expanded over the horizon) — used to drive the network past
    /// `U_max` in overload experiments.
    pub raw_connections: Vec<ConnectionSpec>,
    /// One-shot messages.
    pub messages: Vec<(SimTime, Message)>,
}

impl Workload {
    /// A workload of admitted connections only.
    pub fn admitted(connections: Vec<ConnectionSpec>) -> Self {
        Workload {
            connections,
            ..Default::default()
        }
    }

    /// A workload of admission-bypassing periodic connections only.
    pub fn raw(raw_connections: Vec<ConnectionSpec>) -> Self {
        Workload {
            raw_connections,
            ..Default::default()
        }
    }
}

/// Expand a periodic spec into concrete real-time messages over
/// `[0, horizon)`, tagged with synthetic connection id `RAW_CONN_BASE +
/// index` so per-connection statistics still work.
pub fn expand_periodic(
    spec: &ConnectionSpec,
    index: u64,
    horizon: TimeDelta,
) -> Vec<(SimTime, Message)> {
    let mut out = Vec::new();
    let mut t = SimTime::ZERO + spec.phase;
    let end = SimTime::ZERO + horizon;
    let conn = ConnectionId(RAW_CONN_BASE + index);
    while t < end {
        let deadline = t + spec.period;
        out.push((
            t,
            Message::real_time(spec.src, spec.dest, spec.size_slots, t, deadline, conn),
        ));
        t += spec.period;
    }
    out
}

/// The serialisable result of one run — one row of an experiment table.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// MAC protocol name.
    pub protocol: String,
    /// Ring size.
    pub n_nodes: u16,
    /// Slots executed.
    pub slots: u64,
    /// Simulated wall time, seconds.
    pub sim_seconds: f64,
    /// Messages delivered (all classes).
    pub delivered: u64,
    /// Real-time messages delivered.
    pub delivered_rt: u64,
    /// RT deadline misses.
    pub rt_misses: u64,
    /// RT deadline-miss ratio.
    pub rt_miss_ratio: f64,
    /// RT user-bound (Eq. 3/4) violations.
    pub rt_bound_violations: u64,
    /// Best-effort deadline misses.
    pub be_misses: u64,
    /// Mean RT latency, µs.
    pub rt_latency_mean_us: f64,
    /// 99th-percentile RT latency, µs.
    pub rt_latency_p99_us: f64,
    /// Maximum RT latency, µs.
    pub rt_latency_max_us: f64,
    /// Mean hand-over gap, ns.
    pub gap_mean_ns: f64,
    /// Maximum hand-over gap, ns.
    pub gap_max_ns: f64,
    /// Mean grants per slot (spatial-reuse factor).
    pub reuse_factor: f64,
    /// Fraction of slots with at least one grant.
    pub busy_fraction: f64,
    /// Fraction of wall time inside slots.
    pub slot_time_fraction: f64,
    /// Delivered payload, Gbit/s.
    pub goodput_gbps: f64,
    /// Utilisation admitted by admission control.
    pub admitted_utilisation: f64,
    /// Connections rejected by admission control.
    pub rejected_connections: u64,
    /// Messages still queued at the end (backlog).
    pub backlog: u64,
    /// Simulated slots per wall-clock second (engine speed, not a network
    /// property; 0.0 when nothing was timed).
    pub slots_per_sec: f64,
}

impl RunSummary {
    /// Extract a summary from a finished network.
    pub fn from_network<P: MacProtocol>(
        net: &RingNetwork<P>,
        protocol: &str,
        rejected: u64,
    ) -> Self {
        let m: &Metrics = net.metrics();
        let sim_seconds = m.ended_at.saturating_since(m.started_at).as_secs_f64();
        RunSummary {
            protocol: protocol.to_string(),
            n_nodes: net.config().n_nodes,
            slots: m.slots.get(),
            sim_seconds,
            delivered: m.delivered.get(),
            delivered_rt: m.delivered_rt.get(),
            rt_misses: m.rt_deadline_misses.get(),
            rt_miss_ratio: m.rt_miss_ratio(),
            rt_bound_violations: m.rt_bound_violations.get(),
            be_misses: m.be_deadline_misses.get(),
            rt_latency_mean_us: m.latency_rt.mean().unwrap_or(f64::NAN) / 1e6,
            rt_latency_p99_us: m
                .latency_rt
                .quantile(0.99)
                .map_or(f64::NAN, |v| v as f64 / 1e6),
            rt_latency_max_us: m.latency_rt.max().map_or(f64::NAN, |v| v as f64 / 1e6),
            gap_mean_ns: m.handover_gap.mean().unwrap_or(f64::NAN) / 1e3,
            gap_max_ns: m.handover_gap.max().map_or(f64::NAN, |v| v as f64 / 1e3),
            reuse_factor: m.reuse_factor(),
            busy_fraction: m.busy_fraction(),
            slot_time_fraction: m.slot_time_fraction(net.config().slot_time()),
            goodput_gbps: m.goodput_bps() / 1e9,
            admitted_utilisation: net.admission().admitted_utilisation(),
            rejected_connections: rejected,
            backlog: net.queued_messages() as u64,
            slots_per_sec: net.throughput().slots_per_sec().unwrap_or(0.0),
        }
    }
}

/// Build a network with MAC `mac`, load `workload`, run `slots` slots and
/// summarise.
pub fn run_with_mac<P: MacProtocol>(
    cfg: NetworkConfig,
    mac: P,
    workload: &Workload,
    slots: u64,
) -> RunSummary {
    let slot = cfg.slot_time();
    let horizon = slot * slots;
    let mut net = RingNetwork::with_mac(cfg, mac);
    let name = net.mac_name().to_string();

    let mut rejected = 0u64;
    for spec in &workload.connections {
        if net.open_connection(spec.clone()).is_err() {
            rejected += 1;
        }
    }
    for (i, spec) in workload.raw_connections.iter().enumerate() {
        for (at, msg) in expand_periodic(spec, i as u64, horizon) {
            net.submit_message(at, msg);
        }
    }
    for (at, msg) in &workload.messages {
        net.submit_message(*at, *msg);
    }
    net.run_slots(slots);
    RunSummary::from_network(&net, &name, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_edf::arbitration::CcrEdfMac;
    use ccr_edf::NodeId;

    fn cfg(n: u16) -> NetworkConfig {
        NetworkConfig::builder(n)
            .slot_bytes(1024)
            .build_auto_slot()
            .unwrap()
    }

    #[test]
    fn expand_periodic_generates_expected_count() {
        let spec = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_us(100))
            .size_slots(2);
        let msgs = expand_periodic(&spec, 3, TimeDelta::from_ms(1));
        assert_eq!(msgs.len(), 10);
        for (t, m) in &msgs {
            assert_eq!(m.released, *t);
            assert_eq!(m.deadline, *t + TimeDelta::from_us(100));
            assert_eq!(m.connection, Some(ConnectionId(RAW_CONN_BASE + 3)));
            assert_eq!(m.size_slots, 2);
        }
    }

    #[test]
    fn expand_periodic_respects_phase() {
        let spec = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_us(100))
            .phase(TimeDelta::from_us(30));
        let msgs = expand_periodic(&spec, 0, TimeDelta::from_us(250));
        let times: Vec<u64> = msgs.iter().map(|(t, _)| t.as_ps() / 1_000_000).collect();
        assert_eq!(times, vec![30, 130, 230]);
    }

    #[test]
    fn run_with_mac_counts_rejections() {
        let c = cfg(4);
        let slot = c.slot_time();
        // Three hogs of u = 0.5 each; u_max ≈ 0.94 at N = 4, so only the
        // first fits and the other two are rejected.
        let hog = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_ps(slot.as_ps() * 2))
            .size_slots(1); // u = 0.5
        let s = run_with_mac(
            c,
            CcrEdfMac,
            &Workload::admitted(vec![hog.clone(), hog.clone(), hog]),
            2_000,
        );
        assert_eq!(s.rejected_connections, 2);
        assert!(s.delivered_rt > 0);
        assert_eq!(s.protocol, "ccr-edf");
        assert!(s.sim_seconds > 0.0);
    }

    #[test]
    fn raw_workload_can_exceed_umax() {
        let c = cfg(4);
        let slot = c.slot_time();
        // Aggregate utilisation 1.5 — impossible; misses must appear.
        let mk = |src: u16, dst: u16| {
            ConnectionSpec::unicast(NodeId(src), NodeId(dst))
                .period(TimeDelta::from_ps(slot.as_ps() * 2))
                .size_slots(1)
        };
        let s = run_with_mac(
            c,
            CcrEdfMac,
            &Workload::raw(vec![mk(0, 2), mk(1, 3), mk(2, 0)]),
            3_000,
        );
        assert!(s.delivered_rt > 0);
        // With spatial reuse some of this overload actually fits, but the
        // backlog or misses must reveal the overload somewhere.
        assert!(
            s.rt_misses > 0 || s.backlog > 0,
            "overload invisible: {s:?}"
        );
    }
}
