//! Physical-layer parameters.
//!
//! Defaults model the hardware the paper assumes: Motorola OPTOBUS
//! fibre-ribbon links at 400 Mbit/s per fibre (ref \[10] of the paper quotes
//! parallel optical links at 3 Gbit/s aggregate over ten fibres, i.e.
//! several hundred Mbit/s per fibre). One clock tick moves one *byte* on the
//! 8-fibre data channel and one *bit* on the serial control fibre
//! (Section 1: "The clock signal … that is used to clock data also clocks
//! each bit in the control-packets").

use ccr_sim::time::{TimeDelta, TimeFromF64Error};
use std::fmt;

/// Why a [`PhysParams`] construction was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhysParamsError {
    /// `link_length_m` was NaN or ±infinity.
    NonFiniteLinkLength(f64),
    /// `link_length_m` was negative (a fibre cannot have negative length).
    NegativeLinkLength(f64),
    /// `link_length_m` is so long that its propagation delay does not fit
    /// the picosecond clock.
    UnrepresentableLinkDelay(f64),
    /// `clock_period` was zero (bandwidth would be infinite).
    ZeroClockPeriod,
}

impl fmt::Display for PhysParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysParamsError::NonFiniteLinkLength(l) => {
                write!(f, "link_length_m must be finite, got {l}")
            }
            PhysParamsError::NegativeLinkLength(l) => {
                write!(f, "link_length_m must be non-negative, got {l}")
            }
            PhysParamsError::UnrepresentableLinkDelay(l) => {
                write!(
                    f,
                    "link_length_m {l:e} gives a propagation delay beyond u64 picoseconds"
                )
            }
            PhysParamsError::ZeroClockPeriod => write!(f, "clock_period must be non-zero"),
        }
    }
}

impl std::error::Error for PhysParamsError {}

/// Physical constants of the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysParams {
    /// Clock period: time for one byte on the data channel / one bit on the
    /// control channel. Default 2.5 ns (400 MHz, OPTOBUS-class).
    pub clock_period: TimeDelta,
    /// Propagation delay per metre of fibre (`P` in Equation 1).
    /// Default 5 ns/m (group index ≈ 1.5).
    pub prop_per_m: TimeDelta,
    /// Length of each link in metres (`L` in Equation 1; the paper assumes
    /// all links equal). Default 10 m (SAN scale).
    pub link_length_m: f64,
    /// Fixed per-node processing latency experienced by the circulating
    /// control packet, *excluding* the serialisation of the node's own
    /// request bits (those depend on N and are counted by the protocol
    /// layer). Default 4 clock ticks of combinational/FIFO delay.
    pub node_proc_ticks: u32,
}

impl Default for PhysParams {
    fn default() -> Self {
        PhysParams {
            clock_period: TimeDelta::from_ps(2_500),
            prop_per_m: TimeDelta::from_ps(5_000),
            link_length_m: 10.0,
            node_proc_ticks: 4,
        }
    }
}

impl PhysParams {
    /// OPTOBUS-style defaults at a given link length.
    ///
    /// # Panics
    /// Panics on NaN, infinite or negative lengths; use
    /// [`PhysParams::try_with_link_length`] to handle those as errors.
    #[cfg(test)]
    pub fn with_link_length(link_length_m: f64) -> Self {
        Self::try_with_link_length(link_length_m)
            .expect("invariant: link_length_m is finite and non-negative")
    }

    /// OPTOBUS-style defaults at a given link length, rejecting degenerate
    /// lengths (NaN, ±∞, negative) instead of letting them wrap into
    /// garbage propagation delays downstream.
    #[cfg(test)]
    pub fn try_with_link_length(link_length_m: f64) -> Result<Self, PhysParamsError> {
        let p = PhysParams {
            link_length_m,
            ..Default::default()
        };
        p.validate()?;
        Ok(p)
    }

    /// Check the invariants every constructor must uphold. Fields are
    /// public (struct-literal construction is allowed for tests and
    /// exotic hardware models), so consumers that accept a caller-built
    /// `PhysParams` — e.g. `NetworkConfig::validate` — re-run this.
    pub fn validate(&self) -> Result<(), PhysParamsError> {
        if !self.link_length_m.is_finite() {
            return Err(PhysParamsError::NonFiniteLinkLength(self.link_length_m));
        }
        if self.link_length_m < 0.0 {
            return Err(PhysParamsError::NegativeLinkLength(self.link_length_m));
        }
        if self.try_prop_over(self.link_length_m).is_err() {
            return Err(PhysParamsError::UnrepresentableLinkDelay(
                self.link_length_m,
            ));
        }
        if self.clock_period.is_zero() {
            return Err(PhysParamsError::ZeroClockPeriod);
        }
        Ok(())
    }

    /// Data-channel bandwidth in bits per second (8 fibres × clock rate).
    pub fn data_bandwidth_bps(&self) -> f64 {
        8.0 / self.clock_period.as_secs_f64()
    }

    /// Propagation delay across one link.
    ///
    /// # Panics
    /// Panics when `link_length_m` violates [`PhysParams::validate`] (the
    /// struct was built by hand with a degenerate length) — loudly, rather
    /// than wrapping NaN/negative lengths into a garbage delay.
    pub fn link_prop(&self) -> TimeDelta {
        self.try_prop_over(self.link_length_m)
            .expect("invariant: validated link_length_m yields a representable delay")
    }

    /// Propagation delay across `length_m` metres of fibre, rounded to the
    /// picosecond; an error for a NaN, negative or unrepresentable delay.
    pub fn try_prop_over(&self, length_m: f64) -> Result<TimeDelta, TimeFromF64Error> {
        TimeDelta::try_from_ps_f64(self.prop_per_m.as_ps() as f64 * length_m)
    }

    /// Serialisation time for `bytes` on the 8-fibre data channel.
    pub fn data_tx_time(&self, bytes: u32) -> TimeDelta {
        self.clock_period * bytes as u64
    }

    /// Serialisation time for `bits` on the control fibre.
    pub fn control_tx_time(&self, bits: u32) -> TimeDelta {
        self.clock_period * bits as u64
    }

    /// Fixed per-node control-packet processing delay.
    pub fn node_proc_delay(&self) -> TimeDelta {
        self.clock_period * self.node_proc_ticks as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_optobus_era() {
        let p = PhysParams::default();
        // 400 MHz clock → 3.2 Gbit/s data channel.
        assert!((p.data_bandwidth_bps() - 3.2e9).abs() < 1e3);
    }

    #[test]
    fn link_prop_scales_with_length() {
        let p = PhysParams::with_link_length(100.0);
        assert_eq!(p.link_prop(), TimeDelta::from_ns(500));
        assert_eq!(p.link_prop() * 3, TimeDelta::from_ns(1_500));
    }

    #[test]
    fn fractional_length_rounds_to_ps() {
        let p = PhysParams::with_link_length(0.3333);
        // 0.3333 m * 5000 ps/m = 1666.5 ps → 1667 (round half up)
        assert_eq!(p.link_prop(), TimeDelta::from_ps(1_667));
    }

    #[test]
    fn degenerate_link_lengths_are_rejected_at_construction() {
        assert!(matches!(
            PhysParams::try_with_link_length(f64::NAN),
            Err(PhysParamsError::NonFiniteLinkLength(_))
        ));
        assert!(matches!(
            PhysParams::try_with_link_length(f64::INFINITY),
            Err(PhysParamsError::NonFiniteLinkLength(_))
        ));
        assert!(matches!(
            PhysParams::try_with_link_length(-3.0),
            Err(PhysParamsError::NegativeLinkLength(_))
        ));
        assert!(matches!(
            PhysParams::try_with_link_length(1e300),
            Err(PhysParamsError::UnrepresentableLinkDelay(_))
        ));
        assert!(PhysParams::try_with_link_length(0.0).is_ok());
        assert!(PhysParams::try_with_link_length(10.0).is_ok());
    }

    #[test]
    fn validate_catches_hand_built_garbage() {
        let mut p = PhysParams {
            link_length_m: f64::NAN,
            ..PhysParams::default()
        };
        assert!(p.validate().is_err());
        p.link_length_m = 10.0;
        p.clock_period = TimeDelta::ZERO;
        assert_eq!(p.validate(), Err(PhysParamsError::ZeroClockPeriod));
    }

    #[test]
    #[should_panic(expected = "invariant")]
    fn link_prop_panics_loudly_on_hand_built_nan() {
        let p = PhysParams {
            link_length_m: f64::NAN,
            ..PhysParams::default()
        };
        let _ = p.link_prop();
    }

    #[test]
    fn serialisation_times() {
        let p = PhysParams::default();
        assert_eq!(p.data_tx_time(1_024), TimeDelta::from_ns(2_560));
        assert_eq!(p.control_tx_time(1), TimeDelta::from_ps(2_500));
        assert_eq!(p.node_proc_delay(), TimeDelta::from_ns(10));
    }
}
