//! Recorded-datagram capture: a length-prefixed binary log of
//! slot-stamped wire frames, written at the UDP edge and replayed
//! bit-identically through the loopback backend.
//!
//! The UDP backend quantises every arrival to a fabric slot index — the
//! only timestamp the deterministic core accepts — so a capture is
//! exactly a [`LoopbackBackend`] schedule serialised to bytes. Record a
//! real overload session once, then soak it offline under any chaos
//! config; E22 pins the replay down to identical egress bytes and
//! `==`-equal metrics.
//!
//! Layout (all integers big-endian, like the wire header):
//!
//! ```text
//! offset  width  field
//!   0       4    magic "CCRC"
//!   4       1    version (= 1)
//!   then per record:
//!   +0      8    fabric slot index, u64
//!   +8      4    frame length in bytes, u32
//!   +12     n    the raw frame
//! ```
//!
//! Truncation anywhere — mid-header, mid-record, mid-frame — is a typed
//! [`CaptureError`], never a panic and never a silently shortened log.
//!
//! [`LoopbackBackend`]: crate::loopback::LoopbackBackend

use std::io;
use std::path::Path;

/// First four bytes of every capture.
pub const CAPTURE_MAGIC: [u8; 4] = *b"CCRC";
/// Capture format version.
pub const CAPTURE_VERSION: u8 = 1;

/// Why a capture failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureError {
    /// Shorter than the 5-byte file header.
    TooShort {
        /// Bytes actually present.
        got: usize,
    },
    /// The first four bytes are not [`CAPTURE_MAGIC`].
    BadMagic {
        /// The bytes found where the magic belongs.
        got: [u8; 4],
    },
    /// Version byte differs from [`CAPTURE_VERSION`].
    BadVersion {
        /// The version byte found.
        got: u8,
    },
    /// A record header or frame body is cut off.
    Truncated {
        /// Byte offset at which the log ran out.
        at: usize,
    },
    /// Records must be sorted by slot (the writer emits them in arrival
    /// order, which is slot order); a decreasing slot means corruption.
    OutOfOrder {
        /// Index of the offending record.
        record: usize,
    },
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::TooShort { got } => write!(f, "capture too short: {got} bytes"),
            CaptureError::BadMagic { got } => write!(f, "bad capture magic {got:02x?}"),
            CaptureError::BadVersion { got } => write!(f, "unsupported capture version {got}"),
            CaptureError::Truncated { at } => write!(f, "capture truncated at byte {at}"),
            CaptureError::OutOfOrder { record } => {
                write!(f, "capture record {record} goes backwards in time")
            }
        }
    }
}

/// A recorded sequence of `(fabric slot, raw frame)` arrivals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Capture {
    records: Vec<(u64, Vec<u8>)>,
}

impl Capture {
    /// An empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one frame observed at `slot`. Slots must be offered
    /// non-decreasing (arrival order *is* slot order at the UDP edge).
    ///
    /// # Panics
    /// Debug builds assert the slot monotonicity; release builds rely on
    /// the decoder's [`CaptureError::OutOfOrder`] check instead.
    pub fn record(&mut self, slot: u64, frame: &[u8]) {
        debug_assert!(
            self.records.last().is_none_or(|(s, _)| *s <= slot),
            "captures are recorded in slot order"
        );
        self.records.push((slot, frame.to_vec()));
    }

    /// Recorded `(slot, frame)` pairs, in order.
    pub fn records(&self) -> &[(u64, Vec<u8>)] {
        &self.records
    }

    /// Number of recorded frames.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Convert into a loopback schedule (consumes the capture; the
    /// replay path allocates nothing beyond this move).
    pub fn into_schedule(self) -> Vec<(u64, Vec<u8>)> {
        self.records
    }

    /// Serialise to the length-prefixed binary layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = self.records.iter().map(|(_, f)| 12 + f.len()).sum();
        let mut out = Vec::with_capacity(5 + body);
        out.extend_from_slice(&CAPTURE_MAGIC);
        out.push(CAPTURE_VERSION);
        for (slot, frame) in &self.records {
            out.extend_from_slice(&slot.to_be_bytes());
            out.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            out.extend_from_slice(frame);
        }
        out
    }

    /// Decode a capture from bytes, rejecting truncation, bad
    /// magic/version, and time going backwards.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CaptureError> {
        if bytes.len() < 5 {
            return Err(CaptureError::TooShort { got: bytes.len() });
        }
        if bytes[..4] != CAPTURE_MAGIC {
            return Err(CaptureError::BadMagic {
                got: [bytes[0], bytes[1], bytes[2], bytes[3]],
            });
        }
        if bytes[4] != CAPTURE_VERSION {
            return Err(CaptureError::BadVersion { got: bytes[4] });
        }
        let mut records = Vec::new();
        let mut at = 5;
        let mut last_slot = 0u64;
        while at < bytes.len() {
            if bytes.len() - at < 12 {
                return Err(CaptureError::Truncated { at });
            }
            let slot = u64::from_be_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
            let len =
                u32::from_be_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes")) as usize;
            at += 12;
            if bytes.len() - at < len {
                return Err(CaptureError::Truncated { at });
            }
            if slot < last_slot {
                return Err(CaptureError::OutOfOrder {
                    record: records.len(),
                });
            }
            last_slot = slot;
            records.push((slot, bytes[at..at + len].to_vec()));
            at += len;
        }
        Ok(Capture { records })
    }

    /// Write the capture to `path`.
    ///
    /// The codec itself is `to_bytes`/`from_bytes` (pure, fully swept);
    /// `save`/`load` only move those bytes to and from disk for operators
    /// and never sit on a simulation path.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        // ccr-verify: allow(nondeterminism) -- persistence edge over the pure codec
        std::fs::write(path, self.to_bytes())
    }

    /// Read a capture back from `path`.
    pub fn load(path: &Path) -> io::Result<Result<Self, CaptureError>> {
        // ccr-verify: allow(nondeterminism) -- persistence edge over the pure codec
        Ok(Self::from_bytes(&std::fs::read(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Capture {
        let mut c = Capture::new();
        c.record(3, b"alpha");
        c.record(3, b"beta");
        c.record(10, b"");
        c.record(250, &[0xC5; 40]);
        c
    }

    #[test]
    fn roundtrips_bit_identically() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = Capture::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.len(), 4);
        let sched = back.into_schedule();
        assert_eq!(sched[0], (3, b"alpha".to_vec()));
        assert_eq!(sched[2], (10, Vec::new()));
    }

    #[test]
    fn empty_capture_is_just_the_header() {
        let c = Capture::new();
        assert!(c.is_empty());
        let bytes = c.to_bytes();
        assert_eq!(bytes.len(), 5);
        assert_eq!(Capture::from_bytes(&bytes).unwrap(), c);
    }

    #[test]
    fn rejects_damage_with_typed_errors() {
        let bytes = sample().to_bytes();
        assert!(matches!(
            Capture::from_bytes(&bytes[..3]),
            Err(CaptureError::TooShort { got: 3 })
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Capture::from_bytes(&bad),
            Err(CaptureError::BadMagic { .. })
        ));
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(
            Capture::from_bytes(&bad),
            Err(CaptureError::BadVersion { got: 9 })
        ));
        // Cut mid-record-header and mid-frame.
        assert!(matches!(
            Capture::from_bytes(&bytes[..5 + 6]),
            Err(CaptureError::Truncated { at: 5 })
        ));
        assert!(matches!(
            Capture::from_bytes(&bytes[..5 + 12 + 2]),
            Err(CaptureError::Truncated { at: 17 })
        ));
    }

    #[test]
    fn rejects_time_going_backwards() {
        // Hand-build a log whose second record precedes the first.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&CAPTURE_MAGIC);
        bytes.push(CAPTURE_VERSION);
        for slot in [9u64, 4u64] {
            bytes.extend_from_slice(&slot.to_be_bytes());
            bytes.extend_from_slice(&0u32.to_be_bytes());
        }
        assert!(matches!(
            Capture::from_bytes(&bytes),
            Err(CaptureError::OutOfOrder { record: 1 })
        ));
    }

    #[test]
    fn save_and_load_through_a_file() {
        let dir = std::env::temp_dir().join("ccr-capture-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("soak.ccrc");
        let c = sample();
        c.save(&path).unwrap();
        let back = Capture::load(&path).unwrap().unwrap();
        assert_eq!(back, c);
        std::fs::remove_file(&path).ok();
    }
}
