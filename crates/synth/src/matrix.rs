//! Traffic matrices: the synthesizer's input.
//!
//! A [`TrafficMatrix`] names a set of *stations* (end systems the fabric
//! must place on rings) and the periodic flows between them. Flows carry a
//! criticality class: [`Criticality::Guaranteed`] flows must end up with a
//! network-calculus certificate on the synthesized fabric,
//! [`Criticality::BestEffort`] flows only need a route — the engine serves
//! them from leftover ring slots
//! ([`ccr_multiring::engine::Fabric::open_best_effort`]).
//!
//! Matrices load from the same dependency-free TOML subset the gateway
//! uses ([`ccr_sim::toml`]): `[[matrix]]` for the station count, one
//! `[[flow]]` table per flow.
//!
//! ```toml
//! [[matrix]]
//! stations = 12
//!
//! [[flow]]
//! src = 0
//! dst = 5
//! period_us = 1000
//! size_slots = 1          # optional, default 1
//! deadline_us = 800       # optional, default = period
//! criticality = "guaranteed"  # optional; or "best-effort"
//! ```

use ccr_sim::toml::{self, Item};
use ccr_sim::TimeDelta;

/// Identity of a station (an end system the synthesizer must place).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StationId(pub u16);

impl std::fmt::Display for StationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Which guarantees a flow demands from the synthesized fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Criticality {
    /// The flow must carry a network-calculus certificate: the synthesizer
    /// only returns topologies on which its bound fits its deadline.
    #[default]
    Guaranteed,
    /// The flow is placed (a route must exist) but never certified: it
    /// rides capacity the guaranteed set leaves unused.
    BestEffort,
}

/// One periodic flow of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficFlow {
    /// Originating station.
    pub src: StationId,
    /// Destination station.
    pub dst: StationId,
    /// Message period.
    pub period: TimeDelta,
    /// Message size in slots.
    pub size_slots: u32,
    /// End-to-end relative deadline (≤ period, per the constrained-deadline
    /// ring model).
    pub deadline: TimeDelta,
    /// Guarantee class.
    pub criticality: Criticality,
}

impl TrafficFlow {
    /// Long-run demand in slots per picosecond — the unit the calculus
    /// layer prices service in.
    pub fn rate(&self) -> f64 {
        f64::from(self.size_slots) / self.period.as_ps() as f64
    }
}

/// A complete synthesis input: stations and the flows between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMatrix {
    /// Number of stations; flows address `0..stations`.
    pub stations: u16,
    /// The flows, in declaration order (this order is the deterministic
    /// admission order everywhere downstream).
    pub flows: Vec<TrafficFlow>,
}

/// Why a traffic matrix was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The text failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The parsed matrix is semantically invalid.
    Validation(String),
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            MatrixError::Validation(msg) => write!(f, "invalid matrix: {msg}"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// Most stations a matrix may declare. Keeps synthesis search spaces (and
/// the 64-node-per-ring fabric limit) honest: a matrix this wide already
/// needs ≥ `4` rings.
pub const MAX_STATIONS: u16 = 256;

impl TrafficMatrix {
    /// Start an empty matrix over `stations` stations (build flows with
    /// [`TrafficMatrix::flow`]).
    pub fn new(stations: u16) -> Self {
        TrafficMatrix {
            stations,
            flows: Vec::new(),
        }
    }

    /// Append a guaranteed flow with deadline = period and 1-slot
    /// messages; refine with the [`TrafficFlow`] fields directly or the
    /// builder-style helpers on the returned reference.
    pub fn flow(&mut self, src: u16, dst: u16, period: TimeDelta) -> &mut TrafficFlow {
        self.flows.push(TrafficFlow {
            src: StationId(src),
            dst: StationId(dst),
            period,
            size_slots: 1,
            deadline: period,
            criticality: Criticality::Guaranteed,
        });
        self.flows.last_mut().expect("just pushed")
    }

    /// Parse a matrix from the TOML subset (see the module docs for the
    /// grammar). The result is validated.
    pub fn parse(text: &str) -> Result<Self, MatrixError> {
        let mut stations: Option<u16> = None;
        let mut flows: Vec<TrafficFlow> = Vec::new();
        let mut draft: Option<FlowDraft> = None;
        let mut in_matrix = false;
        for item in toml::scan(text) {
            let spanned = item.map_err(scan_err)?;
            match spanned.item {
                Item::Table { name: "matrix" } => {
                    if let Some(d) = draft.take() {
                        flows.push(d.finish(spanned.line)?);
                    }
                    in_matrix = true;
                }
                Item::Table { name: "flow" } => {
                    if let Some(d) = draft.take() {
                        flows.push(d.finish(spanned.line)?);
                    }
                    in_matrix = false;
                    draft = Some(FlowDraft::new(spanned.line));
                }
                Item::Table { name } => {
                    return Err(MatrixError::Parse {
                        line: spanned.line,
                        msg: format!(
                            "unknown table `[[{name}]]` (expected `[[matrix]]` or `[[flow]]`)"
                        ),
                    });
                }
                Item::KeyValue { key, value } => {
                    if let Some(d) = draft.as_mut() {
                        d.set(key, value, spanned.line)?;
                    } else if in_matrix {
                        match key {
                            "stations" => {
                                stations = Some(
                                    toml::parse_bounded(
                                        value,
                                        key,
                                        spanned.line,
                                        u64::from(MAX_STATIONS),
                                    )
                                    .map_err(scan_err)? as u16,
                                );
                            }
                            other => {
                                return Err(MatrixError::Parse {
                                    line: spanned.line,
                                    msg: format!("unknown `[[matrix]]` key `{other}`"),
                                });
                            }
                        }
                    } else {
                        return Err(MatrixError::Parse {
                            line: spanned.line,
                            msg: "key before the first `[[matrix]]` or `[[flow]]` header".into(),
                        });
                    }
                }
            }
        }
        if let Some(d) = draft.take() {
            let line = d.line;
            flows.push(d.finish(line)?);
        }
        let matrix = TrafficMatrix {
            stations: stations.ok_or_else(|| {
                MatrixError::Validation("no `[[matrix]]` table with a `stations` count".into())
            })?,
            flows,
        };
        matrix.validate()?;
        Ok(matrix)
    }

    /// Semantic validation: station references in range, periods and
    /// deadlines sane, at least one flow.
    pub fn validate(&self) -> Result<(), MatrixError> {
        let bad = |msg: String| Err(MatrixError::Validation(msg));
        if self.stations < 2 {
            return bad(format!(
                "{} station(s); a fabric needs at least 2",
                self.stations
            ));
        }
        if self.stations > MAX_STATIONS {
            return bad(format!(
                "{} stations exceeds the {MAX_STATIONS}-station limit",
                self.stations
            ));
        }
        if self.flows.is_empty() {
            return bad("no flows".into());
        }
        for (i, f) in self.flows.iter().enumerate() {
            if f.src.0 >= self.stations || f.dst.0 >= self.stations {
                return bad(format!(
                    "flow #{i} references station {} outside 0..{}",
                    f.src.0.max(f.dst.0),
                    self.stations
                ));
            }
            if f.src == f.dst {
                return bad(format!("flow #{i} connects {} to itself", f.src));
            }
            if f.period.is_zero() {
                return bad(format!("flow #{i} has a zero period"));
            }
            if f.size_slots == 0 {
                return bad(format!("flow #{i} has zero-size messages"));
            }
            if f.deadline.is_zero() {
                return bad(format!("flow #{i} has a zero deadline"));
            }
            if f.deadline > f.period {
                return bad(format!(
                    "flow #{i} deadline {} exceeds its period {} (the ring model requires D \u{2264} P)",
                    f.deadline, f.period
                ));
            }
        }
        Ok(())
    }

    /// The guaranteed flows, with their matrix indices (the deterministic
    /// certification keys).
    pub fn guaranteed(&self) -> impl Iterator<Item = (usize, &TrafficFlow)> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.criticality == Criticality::Guaranteed)
    }

    /// The best-effort flows, with their matrix indices.
    pub fn best_effort(&self) -> impl Iterator<Item = (usize, &TrafficFlow)> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.criticality == Criticality::BestEffort)
    }

    /// Aggregate guaranteed demand touching station `s` (slots/ps) — the
    /// load its ring must carry no matter how the fabric is shaped.
    pub fn station_demand(&self, s: StationId) -> f64 {
        self.guaranteed()
            .filter(|(_, f)| f.src == s || f.dst == s)
            .map(|(_, f)| f.rate())
            .sum()
    }
}

fn scan_err(e: toml::ScanError) -> MatrixError {
    MatrixError::Parse {
        line: e.line,
        msg: e.msg,
    }
}

/// Accumulates one `[[flow]]` table.
struct FlowDraft {
    line: usize,
    src: Option<u16>,
    dst: Option<u16>,
    period: Option<TimeDelta>,
    size_slots: u32,
    deadline: Option<TimeDelta>,
    criticality: Criticality,
}

impl FlowDraft {
    fn new(line: usize) -> Self {
        FlowDraft {
            line,
            src: None,
            dst: None,
            period: None,
            size_slots: 1,
            deadline: None,
            criticality: Criticality::Guaranteed,
        }
    }

    fn set(&mut self, key: &str, value: &str, line: usize) -> Result<(), MatrixError> {
        match key {
            "src" => {
                self.src = Some(
                    toml::parse_bounded(value, key, line, u64::from(u16::MAX)).map_err(scan_err)?
                        as u16,
                )
            }
            "dst" => {
                self.dst = Some(
                    toml::parse_bounded(value, key, line, u64::from(u16::MAX)).map_err(scan_err)?
                        as u16,
                )
            }
            "period_us" => self.period = Some(toml::parse_us(value, key, line).map_err(scan_err)?),
            "deadline_us" => {
                self.deadline = Some(toml::parse_us(value, key, line).map_err(scan_err)?)
            }
            "size_slots" => {
                self.size_slots = toml::parse_bounded(value, key, line, u64::from(u32::MAX))
                    .map_err(scan_err)? as u32
            }
            "criticality" => {
                let v = toml::parse_quoted(value, key, line).map_err(scan_err)?;
                self.criticality = match v {
                    "guaranteed" => Criticality::Guaranteed,
                    "best-effort" => Criticality::BestEffort,
                    other => {
                        return Err(MatrixError::Parse {
                            line,
                            msg: format!(
                                "unknown criticality `{other}` (expected \"guaranteed\" or \"best-effort\")"
                            ),
                        })
                    }
                };
            }
            other => {
                return Err(MatrixError::Parse {
                    line,
                    msg: format!("unknown `[[flow]]` key `{other}`"),
                })
            }
        }
        Ok(())
    }

    fn finish(self, end_line: usize) -> Result<TrafficFlow, MatrixError> {
        let missing = |field: &str| MatrixError::Parse {
            line: end_line,
            msg: format!(
                "`[[flow]]` starting at line {} is missing `{field}`",
                self.line
            ),
        };
        let period = self.period.ok_or_else(|| missing("period_us"))?;
        Ok(TrafficFlow {
            src: StationId(self.src.ok_or_else(|| missing("src"))?),
            dst: StationId(self.dst.ok_or_else(|| missing("dst"))?),
            period,
            size_slots: self.size_slots,
            deadline: self.deadline.unwrap_or(period),
            criticality: self.criticality,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
# a 4-station matrix
[[matrix]]
stations = 4

[[flow]]
src = 0
dst = 2
period_us = 1000
deadline_us = 800

[[flow]]
src = 1
dst = 3
period_us = 500
size_slots = 2

[[flow]]
src = 3
dst = 0
period_us = 2000
criticality = "best-effort"
"#;

    #[test]
    fn parses_a_full_matrix() {
        let m = TrafficMatrix::parse(DOC).unwrap();
        assert_eq!(m.stations, 4);
        assert_eq!(m.flows.len(), 3);
        assert_eq!(m.flows[0].deadline, TimeDelta::from_us(800));
        assert_eq!(
            m.flows[1].deadline, m.flows[1].period,
            "deadline defaults to period"
        );
        assert_eq!(m.flows[1].size_slots, 2);
        assert_eq!(m.flows[2].criticality, Criticality::BestEffort);
        assert_eq!(m.guaranteed().count(), 2);
        assert_eq!(m.best_effort().count(), 1);
    }

    #[test]
    fn structural_and_semantic_errors_are_typed() {
        assert!(matches!(
            TrafficMatrix::parse("[[flow]]\nzap\n"),
            Err(MatrixError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            TrafficMatrix::parse("[[matrix]]\nstations = 4\n[[flow]]\nsrc = 0\ndst = 1\n"),
            Err(MatrixError::Parse { .. }) // missing period_us
        ));
        assert!(matches!(
            TrafficMatrix::parse("[[widget]]\n"),
            Err(MatrixError::Parse { .. })
        ));
        // Out-of-range station reference.
        let err = TrafficMatrix::parse(
            "[[matrix]]\nstations = 2\n[[flow]]\nsrc = 0\ndst = 9\nperiod_us = 100\n",
        )
        .unwrap_err();
        assert!(matches!(err, MatrixError::Validation(_)));
        // Deadline beyond the period is refused, not clamped.
        let err = TrafficMatrix::parse(
            "[[matrix]]\nstations = 2\n[[flow]]\nsrc = 0\ndst = 1\nperiod_us = 100\ndeadline_us = 200\n",
        )
        .unwrap_err();
        assert!(matches!(err, MatrixError::Validation(_)));
    }

    #[test]
    fn station_demand_sums_guaranteed_rates_only() {
        let m = TrafficMatrix::parse(DOC).unwrap();
        let d0 = m.station_demand(StationId(0));
        // flow 0 (rate 1/1000µs) touches station 0; the best-effort flow
        // to station 0 must not count.
        let expect = 1.0 / TimeDelta::from_us(1000).as_ps() as f64;
        assert!((d0 - expect).abs() < 1e-18);
    }
}
