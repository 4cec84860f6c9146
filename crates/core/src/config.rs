//! Network configuration and validation.
//!
//! A [`NetworkConfig`] fixes everything about a ring instance: size,
//! physical constants, slot payload, the laxity mapper, which services ride
//! the control channel, and fault-injection knobs. `build()` validates the
//! timing constraints of Section 4 — in particular that a slot is long
//! enough for the collection *and* distribution phases to complete
//! (Equation 2 and Figure 3: arbitration for slot N+1 happens entirely
//! within slot N).

use crate::admission::AdmissionPolicy;
use crate::analysis::AnalyticModel;
use crate::fault::{FaultKind, FaultScript};
use crate::priority::MapperKind;
use crate::wire::{self, ServiceWireConfig};
use ccr_phys::ring::MAX_NODES;
use ccr_phys::{NodeId, PhysParams, RingTopology};
use ccr_sim::TimeDelta;

/// Fault-injection parameters (Section 8 "future work", implemented here as
/// an extension — see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability that a slot's distribution packet is lost (clock/token
    /// loss). Recovered by the designated restart node after
    /// `recovery_timeout_slots`.
    pub token_loss_prob: f64,
    /// Probability that one data packet is corrupted/lost in transit
    /// (exercises the reliable-transmission service).
    pub data_loss_prob: f64,
    /// Probability that a control-channel bit error hits one node's
    /// collection entry in a slot (the victim is drawn uniformly). With
    /// CRC enabled the master drops that request; without CRC the error is
    /// modelled the same way (the entry is unusable either way).
    pub control_error_prob: f64,
    /// Slots a lost token takes to recover (timeout at the restart node).
    ///
    /// Must be ≥ 1 whenever clock faults are possible: a zero timeout would
    /// silently alias to 1 inside `ClockRecovery::token_lost`, so `validate`
    /// rejects the combination instead.
    pub recovery_timeout_slots: u32,
}

impl FaultConfig {
    /// Validate probabilities and the recovery timeout.
    fn validate(&self) -> Result<(), ConfigError> {
        for (p, what) in [
            (self.token_loss_prob, "token_loss_prob"),
            (self.data_loss_prob, "data_loss_prob"),
            (self.control_error_prob, "control_error_prob"),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(ConfigError::BadProbability(what));
            }
        }
        if self.recovery_timeout_slots == 0
            && (self.token_loss_prob > 0.0 || self.control_error_prob > 0.0)
        {
            return Err(ConfigError::ZeroRecoveryTimeout);
        }
        Ok(())
    }

    /// True when any stochastic fault injection is active.
    pub fn any(&self) -> bool {
        self.token_loss_prob > 0.0 || self.data_loss_prob > 0.0 || self.control_error_prob > 0.0
    }
}

/// Why a configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The slot is too short for the control phases; holds the minimum
    /// feasible slot payload in bytes.
    SlotTooShort {
        /// Configured payload.
        got_bytes: u32,
        /// Minimum payload that satisfies the timing constraint.
        need_bytes: u32,
    },
    /// A probability was outside `[0, 1]`.
    BadProbability(&'static str),
    /// Clock faults are enabled (stochastically or via script) but
    /// `recovery_timeout_slots` is 0, which would alias to 1 at run time.
    ZeroRecoveryTimeout,
    /// Zero-byte slots are meaningless.
    EmptySlot,
    /// The ring size is outside `2..=64` (the link and node sets are
    /// 64-bit masks); holds the requested size.
    RingSize(u16),
    /// The per-link length vector is malformed.
    BadLinkLengths(String),
    /// The physical parameters violate their own invariants (degenerate
    /// link length or zero clock period).
    BadPhysParams(String),
    /// A fault-script event names a node the ring does not have.
    FaultNodeOutOfRange {
        /// Slot of the offending event.
        slot: u64,
        /// The node it targets.
        node: NodeId,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::SlotTooShort {
                got_bytes,
                need_bytes,
            } => write!(
                f,
                "slot payload {got_bytes} B too short for the control phases; \
                 need at least {need_bytes} B (Equation 2)"
            ),
            ConfigError::BadProbability(w) => write!(f, "{w} outside [0,1]"),
            ConfigError::ZeroRecoveryTimeout => write!(
                f,
                "recovery_timeout_slots must be >= 1 when clock faults \
                 (token loss, control errors, or scripted faults) are enabled"
            ),
            ConfigError::EmptySlot => write!(f, "slot_bytes must be > 0"),
            ConfigError::RingSize(n) => write!(
                f,
                "ring size {n} outside the supported range 2..={MAX_NODES}"
            ),
            ConfigError::BadLinkLengths(why) => write!(f, "bad link lengths: {why}"),
            ConfigError::BadPhysParams(why) => write!(f, "bad phys params: {why}"),
            ConfigError::FaultNodeOutOfRange { slot, node } => write!(
                f,
                "fault script event at slot {slot} targets node {node}, which is not on the ring"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete, validated configuration of one ring network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Number of nodes (2..=64).
    pub n_nodes: u16,
    /// Physical constants.
    pub phys: PhysParams,
    /// Data payload carried per slot, in bytes.
    pub slot_bytes: u32,
    /// Laxity → priority mapping.
    pub mapper: MapperKind,
    /// Which feasibility test admission control runs (the paper's
    /// utilisation test by default; the demand-bound test is required for
    /// constrained-deadline connections to be guaranteed).
    pub admission_policy: AdmissionPolicy,
    /// Whether the master grants non-overlapping extra transmissions
    /// (Section 3 "spatial reuse"; the analysis of Section 5 assumes it
    /// off, run time turns it on).
    pub spatial_reuse: bool,
    /// Which services ride the control channel.
    pub services: ServiceWireConfig,
    /// Stochastic fault injection.
    pub faults: FaultConfig,
    /// Scripted fault injection: a slot-indexed schedule of discrete
    /// fault events, replayed deterministically. Empty by default.
    pub fault_script: FaultScript,
    /// Optional per-link lengths in metres (extension — the paper assumes
    /// all links equal, `phys.link_length_m`). When set, must have exactly
    /// `n_nodes` entries; hand-over gaps, propagation and the Eq. 2/6
    /// bounds all become segment-exact (experiment E16).
    pub link_lengths_m: Option<Vec<f64>>,
    /// Master seed for any stochastic behaviour inside the network
    /// (fault injection only — traffic randomness lives in generators).
    pub seed: u64,
    /// Encode + decode every control packet through the bit-level wire
    /// codec each slot and assert the round trip (protocol-honesty check;
    /// costs CPU, default off — tests enable it).
    pub wire_check: bool,
}

impl NetworkConfig {
    /// Start building a config for an `n`-node ring with defaults.
    pub fn builder(n_nodes: u16) -> NetworkConfigBuilder {
        NetworkConfigBuilder {
            cfg: NetworkConfig {
                n_nodes,
                phys: PhysParams::default(),
                slot_bytes: 1024,
                mapper: MapperKind::Logarithmic,
                admission_policy: AdmissionPolicy::default(),
                spatial_reuse: true,
                services: ServiceWireConfig::default(),
                faults: FaultConfig::default(),
                fault_script: FaultScript::default(),
                link_lengths_m: None,
                seed: 0xCC_EDF,
                wire_check: false,
            },
        }
    }

    /// The ring topology.
    pub fn topology(&self) -> RingTopology {
        RingTopology::new(self.n_nodes)
    }

    /// Per-node control-packet delay `t_node` (Equation 2): fixed
    /// processing latency plus serialisation of one request.
    pub fn t_node(&self) -> TimeDelta {
        self.phys.node_proc_delay()
            + self
                .phys
                .control_tx_time(wire::request_bits(self.n_nodes, self.services))
    }

    /// Duration of the data part of a slot (`t_slot`).
    pub fn slot_time(&self) -> TimeDelta {
        self.phys.data_tx_time(self.slot_bytes)
    }

    /// Validate all constraints.
    // ccr-verify: event_path -- config validation runs once at network build
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.slot_bytes == 0 {
            return Err(ConfigError::EmptySlot);
        }
        let model = AnalyticModel::try_new(self)?;
        self.faults.validate()?;
        if self.faults.recovery_timeout_slots == 0 && self.fault_script.has_clock_faults() {
            return Err(ConfigError::ZeroRecoveryTimeout);
        }
        for e in self.fault_script.events() {
            if let FaultKind::FailNode(node) | FaultKind::CorruptCollection { victim: node } =
                e.kind
            {
                if node.0 >= self.n_nodes {
                    return Err(ConfigError::FaultNodeOutOfRange { slot: e.slot, node });
                }
            }
        }
        let need = model.min_slot_bytes();
        if self.slot_bytes < need {
            return Err(ConfigError::SlotTooShort {
                got_bytes: self.slot_bytes,
                need_bytes: need,
            });
        }
        Ok(())
    }
}

/// Builder for [`NetworkConfig`].
#[derive(Debug, Clone)]
pub struct NetworkConfigBuilder {
    cfg: NetworkConfig,
}

impl NetworkConfigBuilder {
    /// Set the slot payload in bytes.
    pub fn slot_bytes(mut self, b: u32) -> Self {
        self.cfg.slot_bytes = b;
        self
    }

    /// Set the link length in metres, keeping other physical defaults.
    pub fn link_length_m(mut self, m: f64) -> Self {
        self.cfg.phys.link_length_m = m;
        self
    }

    /// Choose the admission feasibility policy.
    pub fn admission_policy(mut self, p: AdmissionPolicy) -> Self {
        self.cfg.admission_policy = p;
        self
    }

    /// Enable/disable spatial reuse.
    pub fn spatial_reuse(mut self, on: bool) -> Self {
        self.cfg.spatial_reuse = on;
        self
    }

    /// Enable services on the control channel.
    pub fn services(mut self, s: ServiceWireConfig) -> Self {
        self.cfg.services = s;
        self
    }

    /// Configure stochastic fault injection.
    pub fn faults(mut self, f: FaultConfig) -> Self {
        self.cfg.faults = f;
        self
    }

    /// Install a deterministic fault script.
    pub fn fault_script(mut self, s: FaultScript) -> Self {
        self.cfg.fault_script = s;
        self
    }

    /// Give every link its own length in metres (must supply exactly N).
    pub fn link_lengths_m(mut self, lengths: Vec<f64>) -> Self {
        self.cfg.link_lengths_m = Some(lengths);
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Enable the per-slot wire-codec round-trip check.
    pub fn wire_check(mut self, on: bool) -> Self {
        self.cfg.wire_check = on;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<NetworkConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Build, automatically enlarging the slot to the minimum feasible
    /// size if the requested one is too short.
    pub fn build_auto_slot(mut self) -> Result<NetworkConfig, ConfigError> {
        let need = AnalyticModel::try_new(&self.cfg)?.min_slot_bytes();
        self.cfg.slot_bytes = self.cfg.slot_bytes.max(need);
        self.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = NetworkConfig::builder(8).build().unwrap();
        assert_eq!(cfg.n_nodes, 8);
        assert!(cfg.slot_time() >= AnalyticModel::new(&cfg).control_phases_time());
    }

    #[test]
    fn t_node_includes_request_serialisation() {
        let cfg = NetworkConfig::builder(8).build().unwrap();
        // proc 4 ticks + (5 + 16) request bits = 25 ticks of 2.5 ns
        assert_eq!(cfg.t_node(), TimeDelta::from_ps(25 * 2_500));
    }

    #[test]
    fn equation2_collection_time() {
        let cfg = NetworkConfig::builder(4).build().unwrap();
        let expect = cfg.t_node() * 4 + cfg.phys.link_prop() * 4;
        assert_eq!(AnalyticModel::new(&cfg).collection_time(), expect);
    }

    #[test]
    fn too_short_slot_rejected_with_fix() {
        let err = NetworkConfig::builder(16)
            .slot_bytes(10)
            .build()
            .unwrap_err();
        match err {
            ConfigError::SlotTooShort {
                got_bytes,
                need_bytes,
            } => {
                assert_eq!(got_bytes, 10);
                assert!(need_bytes > 10);
                // and the suggested size works
                let ok = NetworkConfig::builder(16)
                    .slot_bytes(need_bytes)
                    .build()
                    .unwrap();
                assert_eq!(ok.slot_bytes, need_bytes);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn build_auto_slot_fixes_size() {
        let cfg = NetworkConfig::builder(32)
            .slot_bytes(1)
            .build_auto_slot()
            .unwrap();
        assert_eq!(cfg.slot_bytes, AnalyticModel::new(&cfg).min_slot_bytes());
    }

    #[test]
    fn zero_slot_rejected() {
        assert_eq!(
            NetworkConfig::builder(4).slot_bytes(0).build().unwrap_err(),
            ConfigError::EmptySlot
        );
    }

    #[test]
    fn ring_size_outside_range_is_a_typed_error() {
        for n in [0u16, 1, 65] {
            let b = NetworkConfig::builder(n).slot_bytes(4096);
            assert_eq!(b.clone().build(), Err(ConfigError::RingSize(n)));
            assert_eq!(b.build_auto_slot(), Err(ConfigError::RingSize(n)));
        }
        for n in [2u16, 64] {
            let cfg = NetworkConfig::builder(n).build_auto_slot().unwrap();
            assert_eq!(cfg.topology().n_nodes(), n);
        }
    }

    #[test]
    fn bad_probability_rejected() {
        let err = NetworkConfig::builder(4)
            .faults(FaultConfig {
                token_loss_prob: 1.5,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::BadProbability("token_loss_prob"));
    }

    #[test]
    fn fault_script_nodes_outside_the_ring_rejected() {
        let script = |kind| {
            NetworkConfig::builder(8)
                .faults(FaultConfig {
                    recovery_timeout_slots: 4,
                    ..Default::default()
                })
                .fault_script(FaultScript::new().at(30, kind))
                .build()
        };
        assert_eq!(
            script(FaultKind::FailNode(NodeId(8))).unwrap_err(),
            ConfigError::FaultNodeOutOfRange {
                slot: 30,
                node: NodeId(8)
            }
        );
        // A victim past bit 63 would overflow the node-set mask at run time.
        let err = script(FaultKind::CorruptCollection { victim: NodeId(70) }).unwrap_err();
        assert_eq!(
            err,
            ConfigError::FaultNodeOutOfRange {
                slot: 30,
                node: NodeId(70)
            }
        );
        assert!(err.to_string().contains("slot 30"));
        // The last node on the ring is a fine target.
        script(FaultKind::FailNode(NodeId(7))).unwrap();
        script(FaultKind::CorruptCollection { victim: NodeId(7) }).unwrap();
    }

    #[test]
    fn zero_recovery_timeout_with_clock_faults_rejected() {
        // token_loss_prob > 0 with timeout 0 would silently alias to 1.
        let err = NetworkConfig::builder(4)
            .faults(FaultConfig {
                token_loss_prob: 0.1,
                recovery_timeout_slots: 0,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroRecoveryTimeout);
        // Same for stochastic control errors…
        let err = NetworkConfig::builder(4)
            .faults(FaultConfig {
                control_error_prob: 0.1,
                recovery_timeout_slots: 0,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroRecoveryTimeout);
        // …and for scripted clock faults.
        let err = NetworkConfig::builder(4)
            .fault_script(FaultScript::new().at(10, FaultKind::LoseToken))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroRecoveryTimeout);
        assert!(err.to_string().contains("recovery_timeout_slots"));
        // With a timeout the same configs are fine; data loss alone never
        // needs a timeout.
        NetworkConfig::builder(4)
            .faults(FaultConfig {
                token_loss_prob: 0.1,
                recovery_timeout_slots: 1,
                ..Default::default()
            })
            .build()
            .unwrap();
        NetworkConfig::builder(4)
            .faults(FaultConfig {
                data_loss_prob: 0.1,
                ..Default::default()
            })
            .build()
            .unwrap();
    }

    #[test]
    fn services_widen_minimum_slot() {
        let plain = NetworkConfig::builder(16).build_auto_slot().unwrap();
        let all = NetworkConfig::builder(16)
            .services(ServiceWireConfig::ALL)
            .build_auto_slot()
            .unwrap();
        assert!(
            AnalyticModel::new(&all).min_slot_bytes() > AnalyticModel::new(&plain).min_slot_bytes()
        );
        assert!(all.t_node() > plain.t_node());
    }

    #[test]
    fn longer_links_need_longer_slots() {
        let short = NetworkConfig::builder(8)
            .link_length_m(1.0)
            .build()
            .unwrap();
        let long = NetworkConfig::builder(8)
            .link_length_m(500.0)
            .build_auto_slot()
            .unwrap();
        assert!(
            AnalyticModel::new(&long).min_slot_bytes()
                > AnalyticModel::new(&short).min_slot_bytes()
        );
    }

    #[test]
    fn error_messages_render() {
        let e = ConfigError::SlotTooShort {
            got_bytes: 1,
            need_bytes: 9,
        };
        assert!(e.to_string().contains("Equation 2"));
        assert!(ConfigError::EmptySlot.to_string().contains("slot_bytes"));
    }
}
