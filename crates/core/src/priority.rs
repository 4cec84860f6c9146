//! Priority levels and the laxity → priority mapping (Table 1, Section 3).
//!
//! The 5-bit priority field of a request encodes both the traffic class and
//! the urgency within the class:
//!
//! | level  | meaning                        |
//! |--------|--------------------------------|
//! | 0      | nothing to send                |
//! | 1      | non-real-time                  |
//! | 2–16   | best effort                    |
//! | 17–31  | logical real-time connection   |
//!
//! Higher numeric level = more urgent; messages of a logical real-time
//! connection always outrank best effort, which always outranks
//! non-real-time. Within the real-time and best-effort bands the *laxity*
//! (time until deadline, measured in slots) is mapped to one of the 15
//! levels. The paper mandates a mapping that gives "higher resolution of
//! laxity, the closer to its deadline a packet gets" and assumes a
//! logarithmic function; the exact shape is left open, so the mapper is a
//! trait with the paper's logarithmic map as default and a linear map as an
//! ablation (experiment E11).

/// Number of urgency levels inside each deadline-scheduled band.
pub const LEVELS_PER_BAND: u64 = 15;

/// Lowest level of the best-effort band.
pub const BE_BASE: u8 = 2;
/// Lowest level of the real-time band.
pub const RT_BASE: u8 = 17;
/// Highest priority level (most urgent real-time).
pub const MAX_LEVEL: u8 = 31;
/// Level used by the non-real-time class.
pub const NRT_LEVEL: u8 = 1;
/// Level meaning "nothing to send".
pub const IDLE_LEVEL: u8 = 0;

/// A 5-bit request priority as carried in the collection-phase packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(u8);

impl Priority {
    /// The reserved "nothing to send" level (0).
    pub const IDLE: Priority = Priority(IDLE_LEVEL);
    /// The single non-real-time level (1).
    pub const NON_REAL_TIME: Priority = Priority(NRT_LEVEL);
    /// The most urgent representable priority (31).
    pub const HIGHEST: Priority = Priority(MAX_LEVEL);

    /// Construct from a raw level.
    ///
    /// # Panics
    /// Panics if `level > 31` (the field is 5 bits wide).
    pub fn new(level: u8) -> Self {
        assert!(level <= MAX_LEVEL, "priority level {level} exceeds 5 bits");
        Priority(level)
    }

    /// Raw 5-bit level.
    #[inline]
    pub const fn level(self) -> u8 {
        self.0
    }

    /// True when this is the reserved "no request" level.
    #[inline]
    pub const fn is_idle(self) -> bool {
        self.0 == IDLE_LEVEL
    }

    /// The traffic class this level belongs to (`None` for level 0).
    pub fn class(self) -> Option<crate::message::TrafficClass> {
        use crate::message::TrafficClass::*;
        match self.0 {
            IDLE_LEVEL => None,
            NRT_LEVEL => Some(NonRealTime),
            l if l < RT_BASE => Some(BestEffort),
            _ => Some(RealTime),
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Strategy mapping a laxity (in whole slots) to a level offset in
/// `0..LEVELS_PER_BAND` — 0 is *most urgent*, 14 least.
pub trait PriorityMapper: std::fmt::Debug + Send + Sync {
    /// Map `laxity_slots` (0 = deadline is now/passed) to a band offset.
    fn band_offset(&self, laxity_slots: u64) -> u8;

    /// Map a real-time message's laxity to its wire priority.
    fn real_time(&self, laxity_slots: u64) -> Priority {
        Priority::new(MAX_LEVEL - self.band_offset(laxity_slots))
    }

    /// Map a best-effort message's laxity to its wire priority.
    fn best_effort(&self, laxity_slots: u64) -> Priority {
        Priority::new(BE_BASE + (LEVELS_PER_BAND as u8 - 1) - self.band_offset(laxity_slots))
    }
}

/// The paper's logarithmic mapping: band offset = ⌊log2(laxity + 1)⌋,
/// clamped to the band. Resolution is finest near the deadline — laxities
/// 0, 1, 2–3, 4–7, … share successive levels — exactly the "higher
/// resolution … closer to its deadline" property of Section 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogarithmicMapper;

impl PriorityMapper for LogarithmicMapper {
    fn band_offset(&self, laxity_slots: u64) -> u8 {
        // ⌊log2(x+1)⌋ via bit length; saturating at the top of the band.
        let bits = 64 - laxity_slots.saturating_add(1).leading_zeros() as u64 - 1;
        bits.min(LEVELS_PER_BAND - 1) as u8
    }
}

/// Ablation mapper: linear quantisation of laxity over a fixed horizon.
/// Wastes resolution far from the deadline and saturates early — used by
/// experiment E11 to show why the paper picks a logarithmic map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearMapper {
    /// Laxity (in slots) mapped to the least-urgent level; larger laxities
    /// saturate there.
    pub horizon_slots: u64,
}

impl Default for LinearMapper {
    fn default() -> Self {
        LinearMapper {
            horizon_slots: 1 << 14,
        }
    }
}

impl PriorityMapper for LinearMapper {
    fn band_offset(&self, laxity_slots: u64) -> u8 {
        let h = self.horizon_slots.max(LEVELS_PER_BAND);
        ((laxity_slots.min(h - 1) * LEVELS_PER_BAND) / h) as u8
    }
}

/// Which mapper a network uses (config-level enum to stay `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapperKind {
    /// The paper's logarithmic map.
    #[default]
    Logarithmic,
    /// Linear ablation map with the given horizon in slots.
    Linear {
        /// Saturation horizon in slots.
        horizon_slots: u64,
    },
}

impl MapperKind {
    /// Band offset under this mapper.
    pub fn band_offset(&self, laxity_slots: u64) -> u8 {
        match *self {
            MapperKind::Logarithmic => LogarithmicMapper.band_offset(laxity_slots),
            MapperKind::Linear { horizon_slots } => {
                LinearMapper { horizon_slots }.band_offset(laxity_slots)
            }
        }
    }

    /// Real-time wire priority under this mapper.
    pub fn real_time(&self, laxity_slots: u64) -> Priority {
        Priority::new(MAX_LEVEL - self.band_offset(laxity_slots))
    }

    /// Best-effort wire priority under this mapper.
    pub fn best_effort(&self, laxity_slots: u64) -> Priority {
        Priority::new(BE_BASE + (LEVELS_PER_BAND as u8 - 1) - self.band_offset(laxity_slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TrafficClass;

    #[test]
    fn table1_band_layout() {
        // Table 1 of the paper.
        assert_eq!(Priority::IDLE.level(), 0);
        assert_eq!(Priority::NON_REAL_TIME.level(), 1);
        assert_eq!(Priority::new(2).class(), Some(TrafficClass::BestEffort));
        assert_eq!(Priority::new(16).class(), Some(TrafficClass::BestEffort));
        assert_eq!(Priority::new(17).class(), Some(TrafficClass::RealTime));
        assert_eq!(Priority::new(31).class(), Some(TrafficClass::RealTime));
        assert_eq!(Priority::IDLE.class(), None);
        assert_eq!(
            Priority::NON_REAL_TIME.class(),
            Some(TrafficClass::NonRealTime)
        );
    }

    #[test]
    fn classes_never_interleave() {
        // Any real-time priority beats any best-effort beats non-real-time.
        let m = MapperKind::Logarithmic;
        for rt_lax in [0u64, 1, 100, u64::MAX / 2] {
            for be_lax in [0u64, 1, 100] {
                assert!(m.real_time(rt_lax) > m.best_effort(be_lax));
                assert!(m.best_effort(be_lax) > Priority::NON_REAL_TIME);
            }
        }
        assert!(Priority::NON_REAL_TIME > Priority::IDLE);
    }

    #[test]
    fn log_mapper_is_monotone_decreasing_in_laxity() {
        let m = LogarithmicMapper;
        let mut last = m.real_time(0);
        for lax in 1..5_000u64 {
            let p = m.real_time(lax);
            assert!(p <= last, "priority increased with laxity at {lax}");
            last = p;
        }
    }

    #[test]
    fn log_mapper_resolution_finest_near_deadline() {
        let m = LogarithmicMapper;
        // Levels change at laxity 1, 3, 7, 15, ... (2^k - 1 boundaries).
        assert_eq!(m.band_offset(0), 0);
        assert_eq!(m.band_offset(1), 1);
        assert_eq!(m.band_offset(2), 1);
        assert_eq!(m.band_offset(3), 2);
        assert_eq!(m.band_offset(6), 2);
        assert_eq!(m.band_offset(7), 3);
        // saturation at the band edge
        assert_eq!(m.band_offset(u64::MAX), (LEVELS_PER_BAND - 1) as u8);
        assert_eq!(m.band_offset((1 << 14) - 2), 13);
        assert_eq!(m.band_offset((1 << 14) - 1), 14);
    }

    #[test]
    fn urgent_rt_is_highest_priority() {
        assert_eq!(MapperKind::Logarithmic.real_time(0), Priority::HIGHEST);
        assert_eq!(
            MapperKind::Logarithmic.best_effort(0).level(),
            BE_BASE + LEVELS_PER_BAND as u8 - 1
        );
    }

    #[test]
    fn linear_mapper_spreads_uniformly() {
        let m = LinearMapper { horizon_slots: 150 };
        assert_eq!(m.band_offset(0), 0);
        assert_eq!(m.band_offset(9), 0);
        assert_eq!(m.band_offset(10), 1);
        assert_eq!(m.band_offset(149), 14);
        assert_eq!(m.band_offset(1_000_000), 14);
    }

    #[test]
    fn linear_mapper_tiny_horizon_is_safe() {
        let m = LinearMapper { horizon_slots: 1 };
        assert_eq!(m.band_offset(0), 0);
        assert!(m.band_offset(u64::MAX) <= 14);
    }

    #[test]
    fn mapper_kind_dispatch_matches_impls() {
        for lax in [0u64, 5, 63, 64, 10_000] {
            assert_eq!(
                MapperKind::Logarithmic.band_offset(lax),
                LogarithmicMapper.band_offset(lax)
            );
            assert_eq!(
                MapperKind::Linear { horizon_slots: 64 }.band_offset(lax),
                LinearMapper { horizon_slots: 64 }.band_offset(lax)
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 5 bits")]
    fn oversized_level_rejected() {
        let _ = Priority::new(32);
    }

    #[test]
    fn priorities_order_numerically() {
        assert!(Priority::new(31) > Priority::new(17));
        assert!(Priority::new(17) > Priority::new(16));
        assert!(Priority::new(2) > Priority::new(1));
    }
}
