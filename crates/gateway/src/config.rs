//! Virtual-link configuration: which external flows exist, how fast they
//! may go, and what happens when they go faster.
//!
//! A [`VirtualLink`] is the gateway's unit of admission — one logical
//! real-time flow from a fabric source node to a destination node, with a
//! rate (token bucket of `burst` datagrams refilling one per `period`),
//! an MTU, a deadline class, and ARINC-653-style port semantics: a
//! *queuing* port delivers every datagram in order through a bounded
//! FIFO, a *sampling* port only cares about the freshest value and tags
//! deliveries older than their validity window as stale.
//!
//! [`GatewayConfig::parse`] reads the dependency-free TOML subset below so
//! deployments work offline:
//!
//! ```toml
//! [[link]]
//! id = 1
//! src = "0:1"          # ring:node
//! dst = "1:3"
//! period_us = 500      # one datagram per period is the admitted rate
//! deadline_us = 400    # optional constrained e2e deadline (<= period)
//! mtu = 256            # bytes per datagram
//! burst = 4            # token-bucket depth
//! class = "guaranteed" # or "best-effort"
//! port = "queuing"     # or "sampling"
//! depth = 8            # queuing: bounded FIFO depth
//! validity_us = 1000   # sampling: freshness window
//! policy = "shed"      # or "defer"
//! ```

use ccr_multiring::admission::FabricConnectionSpec;
use ccr_multiring::topology::GlobalNodeId;
use ccr_sim::toml::{self, Item};
use ccr_sim::TimeDelta;

/// How much the fabric promises this link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineClass {
    /// Deadline misses are a contract violation; the pacer never lets
    /// this link exceed its admitted envelope.
    Guaranteed,
    /// Admitted like any flow, but expected to be driven past its rate —
    /// overload is answered by the link's [`OverloadPolicy`].
    BestEffort,
}

/// ARINC-653-style port semantics of a virtual link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortSemantics {
    /// Latest-value semantics: a newer datagram waiting for a token
    /// replaces the older one (counted, never silent), and a delivery
    /// older than `validity` end-to-end is tagged stale.
    Sampling {
        /// Freshness window measured against end-to-end latency.
        validity: TimeDelta,
    },
    /// Every datagram matters: a bounded FIFO of at most `depth`
    /// datagrams waits for tokens; beyond that the overload policy rules.
    Queuing {
        /// Bounded FIFO depth for datagrams awaiting pacing.
        depth: usize,
    },
}

/// What ingress does with a datagram that cannot be paced in right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Drop it and count it (clients get a `Shed` frame on UDP).
    Shed,
    /// Park it in the port's bounded queue until a token matures; when
    /// even that queue is full, shed.
    Defer,
}

/// One externally reachable real-time flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualLink {
    /// Wire-visible link id (the `link` field of every frame header).
    pub id: u16,
    /// Fabric ingress node.
    pub src: GlobalNodeId,
    /// Fabric egress node.
    pub dst: GlobalNodeId,
    /// Admitted period: the token refill interval.
    pub period: TimeDelta,
    /// Optional constrained end-to-end deadline (defaults to the period).
    pub deadline: Option<TimeDelta>,
    /// Largest datagram payload in bytes.
    pub mtu: u32,
    /// Token-bucket depth in datagrams.
    pub burst: u32,
    /// Guarantee level.
    pub class: DeadlineClass,
    /// Sampling or queuing port semantics.
    pub port: PortSemantics,
    /// Overload behaviour at the pacing stage.
    pub policy: OverloadPolicy,
}

impl VirtualLink {
    /// A link with workable defaults: 1 ms period, 256-byte MTU, burst 1,
    /// guaranteed, queuing port of depth 8, shed on overload.
    pub fn new(id: u16, src: GlobalNodeId, dst: GlobalNodeId) -> Self {
        VirtualLink {
            id,
            src,
            dst,
            period: TimeDelta::from_ms(1),
            deadline: None,
            mtu: 256,
            burst: 1,
            class: DeadlineClass::Guaranteed,
            port: PortSemantics::Queuing { depth: 8 },
            policy: OverloadPolicy::Shed,
        }
    }

    /// Set the admitted period.
    pub fn period(mut self, p: TimeDelta) -> Self {
        self.period = p;
        self
    }

    /// Set a constrained end-to-end deadline.
    pub fn deadline(mut self, d: TimeDelta) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the MTU in bytes.
    pub fn mtu(mut self, bytes: u32) -> Self {
        self.mtu = bytes;
        self
    }

    /// Set the token-bucket burst depth.
    pub fn burst(mut self, tokens: u32) -> Self {
        self.burst = tokens;
        self
    }

    /// Set the deadline class.
    pub fn class(mut self, c: DeadlineClass) -> Self {
        self.class = c;
        self
    }

    /// Set the port semantics.
    pub fn port(mut self, p: PortSemantics) -> Self {
        self.port = p;
        self
    }

    /// Set the overload policy.
    pub fn policy(mut self, p: OverloadPolicy) -> Self {
        self.policy = p;
        self
    }

    /// The fabric connection this link maps to: MTU rounded up to whole
    /// slots of `slot_bytes` payload each, period and deadline carried
    /// through to the EDF + calculus admission gate.
    pub fn spec(&self, slot_bytes: u32) -> FabricConnectionSpec {
        let size_slots = self.mtu.div_ceil(slot_bytes).max(1);
        let mut spec = FabricConnectionSpec::unicast(self.src, self.dst)
            .period(self.period)
            .size_slots(size_slots);
        if let Some(d) = self.deadline {
            spec = spec.e2e_deadline(d);
        }
        spec
    }
}

/// The full gateway configuration: every virtual link it serves.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GatewayConfig {
    /// The served links, in admission order.
    pub links: Vec<VirtualLink>,
}

/// Why a configuration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A line the TOML-subset parser could not make sense of.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// Two links share a wire id.
    DuplicateLink {
        /// The contested id.
        id: u16,
    },
    /// A link's fields are inconsistent.
    InvalidLink {
        /// The offending link.
        id: u16,
        /// What is wrong with it.
        msg: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            ConfigError::DuplicateLink { id } => write!(f, "duplicate link id {id}"),
            ConfigError::InvalidLink { id, msg } => write!(f, "link {id}: {msg}"),
        }
    }
}

impl GatewayConfig {
    /// Build and validate a configuration.
    pub fn new(links: Vec<VirtualLink>) -> Result<Self, ConfigError> {
        let cfg = GatewayConfig { links };
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        let mut seen = std::collections::BTreeSet::new();
        for l in &self.links {
            if !seen.insert(l.id) {
                return Err(ConfigError::DuplicateLink { id: l.id });
            }
            let bad = |msg: &str| {
                Err(ConfigError::InvalidLink {
                    id: l.id,
                    msg: msg.to_string(),
                })
            };
            if l.mtu == 0 {
                return bad("mtu must be positive");
            }
            if l.burst == 0 {
                return bad("burst must be positive");
            }
            if l.period <= TimeDelta::ZERO {
                return bad("period must be positive");
            }
            match l.port {
                PortSemantics::Queuing { depth: 0 } => {
                    return bad("queuing depth must be positive")
                }
                PortSemantics::Sampling { validity } if validity <= TimeDelta::ZERO => {
                    return bad("sampling validity must be positive")
                }
                _ => {}
            }
            if let Some(d) = l.deadline {
                if d > l.period {
                    return bad("deadline must not exceed the period");
                }
                if d <= TimeDelta::ZERO {
                    return bad("deadline must be positive");
                }
            }
        }
        Ok(())
    }

    /// Parse the dependency-free TOML subset documented at module level.
    ///
    /// The lexical layer (headers, `key = value` lines, comments, value
    /// grammar) is the shared, fuzzed [`ccr_sim::toml`] scanner; this
    /// function owns only the gateway semantics — which table names
    /// exist, which keys a `[[link]]` accepts, cross-field validation.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut links: Vec<VirtualLink> = Vec::new();
        let mut cur: Option<LinkDraft> = None;
        for item in toml::scan(text) {
            let spanned = item.map_err(scan_err)?;
            match spanned.item {
                Item::Table { name: "link" } => {
                    if let Some(d) = cur.take() {
                        links.push(d.finish()?);
                    }
                    cur = Some(LinkDraft::new(spanned.line));
                }
                Item::Table { name } => {
                    return Err(ConfigError::Parse {
                        line: spanned.line,
                        msg: format!("unknown table `[[{name}]]` (expected `[[link]]`)"),
                    });
                }
                Item::KeyValue { key, value } => {
                    let Some(d) = cur.as_mut() else {
                        return Err(ConfigError::Parse {
                            line: spanned.line,
                            msg: format!("`{key}` before the first [[link]] header"),
                        });
                    };
                    d.set(key, value, spanned.line)?;
                }
            }
        }
        if let Some(d) = cur.take() {
            links.push(d.finish()?);
        }
        GatewayConfig::new(links)
    }
}

/// A `[[link]]` block in mid-parse.
struct LinkDraft {
    header_line: usize,
    id: Option<u16>,
    src: Option<GlobalNodeId>,
    dst: Option<GlobalNodeId>,
    period: Option<TimeDelta>,
    deadline: Option<TimeDelta>,
    mtu: Option<u32>,
    burst: Option<u32>,
    class: Option<DeadlineClass>,
    sampling: Option<bool>,
    depth: Option<usize>,
    validity: Option<TimeDelta>,
    policy: Option<OverloadPolicy>,
}

/// Lift a lexical [`toml::ScanError`] into the gateway's error type,
/// preserving the line number and message verbatim.
fn scan_err(e: toml::ScanError) -> ConfigError {
    ConfigError::Parse {
        line: e.line,
        msg: e.msg,
    }
}

fn parse_bounded(value: &str, key: &str, line: usize, max: u64) -> Result<u64, ConfigError> {
    toml::parse_bounded(value, key, line, max).map_err(scan_err)
}

fn parse_us(value: &str, key: &str, line: usize) -> Result<TimeDelta, ConfigError> {
    toml::parse_us(value, key, line).map_err(scan_err)
}

fn parse_node(value: &str, key: &str, line: usize) -> Result<GlobalNodeId, ConfigError> {
    let bad = || ConfigError::Parse {
        line,
        msg: format!("`{key}` expects \"ring:node\", got `{value}`"),
    };
    let s = toml::parse_quoted(value, key, line).map_err(|_| bad())?;
    let (ring, node) = s.split_once(':').ok_or_else(bad)?;
    let ring: u16 = ring.trim().parse().map_err(|_| bad())?;
    let node: u16 = node.trim().parse().map_err(|_| bad())?;
    Ok(GlobalNodeId::new(ring, node))
}

fn parse_str<'v>(value: &'v str, key: &str, line: usize) -> Result<&'v str, ConfigError> {
    toml::parse_quoted(value, key, line).map_err(scan_err)
}

impl LinkDraft {
    fn new(header_line: usize) -> Self {
        LinkDraft {
            header_line,
            id: None,
            src: None,
            dst: None,
            period: None,
            deadline: None,
            mtu: None,
            burst: None,
            class: None,
            sampling: None,
            depth: None,
            validity: None,
            policy: None,
        }
    }

    fn set(&mut self, key: &str, value: &str, line: usize) -> Result<(), ConfigError> {
        match key {
            "id" => self.id = Some(parse_bounded(value, key, line, u16::MAX as u64)? as u16),
            "src" => self.src = Some(parse_node(value, key, line)?),
            "dst" => self.dst = Some(parse_node(value, key, line)?),
            "period_us" => self.period = Some(parse_us(value, key, line)?),
            "deadline_us" => self.deadline = Some(parse_us(value, key, line)?),
            "mtu" => self.mtu = Some(parse_bounded(value, key, line, u32::MAX as u64)? as u32),
            "burst" => self.burst = Some(parse_bounded(value, key, line, u32::MAX as u64)? as u32),
            "depth" => {
                // Queue depths beyond u16 are configuration mistakes,
                // not workloads; refuse before they reserve memory.
                self.depth = Some(parse_bounded(value, key, line, u16::MAX as u64)? as usize)
            }
            "validity_us" => self.validity = Some(parse_us(value, key, line)?),
            "class" => {
                self.class = Some(match parse_str(value, key, line)? {
                    "guaranteed" => DeadlineClass::Guaranteed,
                    "best-effort" => DeadlineClass::BestEffort,
                    other => {
                        return Err(ConfigError::Parse {
                            line,
                            msg: format!("unknown class `{other}`"),
                        })
                    }
                })
            }
            "port" => {
                self.sampling = Some(match parse_str(value, key, line)? {
                    "sampling" => true,
                    "queuing" => false,
                    other => {
                        return Err(ConfigError::Parse {
                            line,
                            msg: format!("unknown port semantics `{other}`"),
                        })
                    }
                })
            }
            "policy" => {
                self.policy = Some(match parse_str(value, key, line)? {
                    "shed" => OverloadPolicy::Shed,
                    "defer" => OverloadPolicy::Defer,
                    other => {
                        return Err(ConfigError::Parse {
                            line,
                            msg: format!("unknown policy `{other}`"),
                        })
                    }
                })
            }
            other => {
                return Err(ConfigError::Parse {
                    line,
                    msg: format!("unknown key `{other}`"),
                })
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<VirtualLink, ConfigError> {
        let missing = |what: &str| ConfigError::Parse {
            line: self.header_line,
            msg: format!("[[link]] is missing required key `{what}`"),
        };
        let id = self.id.ok_or_else(|| missing("id"))?;
        let src = self.src.ok_or_else(|| missing("src"))?;
        let dst = self.dst.ok_or_else(|| missing("dst"))?;
        let mut link = VirtualLink::new(id, src, dst);
        if let Some(p) = self.period {
            link.period = p;
        }
        link.deadline = self.deadline;
        if let Some(m) = self.mtu {
            link.mtu = m;
        }
        if let Some(b) = self.burst {
            link.burst = b;
        }
        if let Some(c) = self.class {
            link.class = c;
        }
        if let Some(p) = self.policy {
            link.policy = p;
        }
        match self.sampling {
            Some(true) => {
                link.port = PortSemantics::Sampling {
                    validity: self.validity.unwrap_or(link.period),
                }
            }
            Some(false) | None => {
                link.port = PortSemantics::Queuing {
                    depth: self.depth.unwrap_or(8),
                }
            }
        }
        Ok(link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # two links, one of each port flavour
        [[link]]
        id = 1
        src = "0:1"
        dst = "1:3"
        period_us = 500
        deadline_us = 400
        mtu = 256
        burst = 4
        class = "guaranteed"
        port = "queuing"
        depth = 16
        policy = "defer"

        [[link]]
        id = 2
        src = "0:2"
        dst = "1:4"
        period_us = 1000
        class = "best-effort"
        port = "sampling"
        validity_us = 2000
    "#;

    #[test]
    fn parses_the_toml_subset() {
        let cfg = GatewayConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.links.len(), 2);
        let a = &cfg.links[0];
        assert_eq!(a.id, 1);
        assert_eq!(a.src, GlobalNodeId::new(0, 1));
        assert_eq!(a.period, TimeDelta::from_us(500));
        assert_eq!(a.deadline, Some(TimeDelta::from_us(400)));
        assert_eq!(a.burst, 4);
        assert_eq!(a.port, PortSemantics::Queuing { depth: 16 });
        assert_eq!(a.policy, OverloadPolicy::Defer);
        let b = &cfg.links[1];
        assert_eq!(b.class, DeadlineClass::BestEffort);
        assert_eq!(
            b.port,
            PortSemantics::Sampling {
                validity: TimeDelta::from_us(2000)
            }
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = GatewayConfig::parse("id = 3\n").unwrap_err();
        assert!(matches!(err, ConfigError::Parse { line: 1, .. }));
        let err = GatewayConfig::parse("[[link]]\nid = 1\nsrc = \"0:1\"\n").unwrap_err();
        assert!(
            matches!(&err, ConfigError::Parse { line: 1, msg } if msg.contains("dst")),
            "unexpected: {err:?}"
        );
        let err =
            GatewayConfig::parse("[[link]]\nid = 1\nsrc = \"0:1\"\ndst = \"zap\"\n").unwrap_err();
        assert!(matches!(err, ConfigError::Parse { line: 4, .. }));
    }

    #[test]
    fn validation_rejects_inconsistent_links() {
        let mk = || VirtualLink::new(1, GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3));
        assert!(GatewayConfig::new(vec![mk(), mk()]).is_err(), "dup ids");
        assert!(GatewayConfig::new(vec![mk().mtu(0)]).is_err());
        let late = mk().deadline(TimeDelta::from_ms(5)); // > default 1 ms period
        assert!(matches!(
            GatewayConfig::new(vec![late]),
            Err(ConfigError::InvalidLink { id: 1, .. })
        ));
    }

    #[test]
    fn spec_rounds_mtu_up_to_slots() {
        let l = VirtualLink::new(1, GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3)).mtu(300);
        assert_eq!(l.spec(256).size_slots, 2);
        assert_eq!(l.spec(2048).size_slots, 1);
    }

    #[test]
    fn out_of_range_values_are_typed_errors_not_truncation() {
        // id = 70000 must not silently wrap to link 4464.
        let err = GatewayConfig::parse("[[link]]\nid = 70000\n").unwrap_err();
        assert!(
            matches!(&err, ConfigError::Parse { line: 2, msg } if msg.contains("at most 65535")),
            "unexpected: {err:?}"
        );
        // A µs count whose picosecond conversion overflows u64.
        let cfg = format!("[[link]]\nid = 1\nperiod_us = {}\n", u64::MAX / 1_000);
        let err = GatewayConfig::parse(&cfg).unwrap_err();
        assert!(
            matches!(&err, ConfigError::Parse { line: 3, msg } if msg.contains("at most")),
            "unexpected: {err:?}"
        );
        // The largest representable period parses fine.
        let max_us = ccr_sim::toml::MAX_US;
        let cfg = format!("[[link]]\nid = 1\nsrc = \"0:1\"\ndst = \"1:3\"\nperiod_us = {max_us}\n");
        assert!(GatewayConfig::parse(&cfg).is_ok());
        for key in ["mtu", "burst"] {
            let cfg = format!("[[link]]\nid = 1\n{key} = 4294967296\n");
            assert!(GatewayConfig::parse(&cfg).is_err(), "{key} wraps u32");
        }
        let err = GatewayConfig::parse("[[link]]\nid = 1\ndepth = 100000\n").unwrap_err();
        assert!(matches!(err, ConfigError::Parse { line: 3, .. }));
    }

    /// DetRng-driven fuzz over the parser's error paths: random mutations
    /// of a valid config — corrupted keys, values, structure — must
    /// always yield `Ok` or a typed [`ConfigError`], never a panic, and
    /// whatever parses must re-validate cleanly.
    #[test]
    fn fuzzed_configs_never_panic() {
        use ccr_sim::rng::DetRng;
        let mut rng = DetRng::new(0xC0F1_6F22);
        let keys = [
            "id",
            "src",
            "dst",
            "period_us",
            "deadline_us",
            "mtu",
            "burst",
            "depth",
            "validity_us",
            "class",
            "port",
            "policy",
            "bogus",
            "",
            "id id",
        ];
        let values = [
            "1",
            "0",
            "70000",
            "18446744073709551615",
            "999999999999999999999999",
            "-3",
            "\"0:1\"",
            "\"9:\"",
            "\"guaranteed\"",
            "\"sampling\"",
            "\"shed\"",
            "\"zap\"",
            "q",
            "",
            "= =",
        ];
        for _ in 0..2_000 {
            let mut text = String::new();
            let blocks = rng.gen_range(0u32..4);
            for _ in 0..blocks {
                text.push_str("[[link]]\n");
                let lines = rng.gen_range(0u32..8);
                for _ in 0..lines {
                    let key = keys[rng.gen_range(0..keys.len())];
                    let value = values[rng.gen_range(0..values.len())];
                    match rng.gen_range(0u32..10) {
                        0 => text.push_str(&format!("{key} {value}\n")), // no `=`
                        1 => text.push_str(&format!("{key} = {value} # noise\n")),
                        2 => text.push_str("[[link]\n"),
                        _ => text.push_str(&format!("{key} = {value}\n")),
                    }
                }
            }
            match GatewayConfig::parse(&text) {
                Ok(cfg) => assert!(GatewayConfig::new(cfg.links).is_ok(), "re-validates"),
                Err(e) => {
                    let _ = e.to_string(); // Display never panics either
                }
            }
        }
    }
}
