//! The gateway wire format: a fixed-layout, CRC-guarded datagram header.
//!
//! Every frame crossing the gateway — UDP or loopback — starts with a
//! 16-byte bit-packed header, in the spirit of EtherCAT's fixed-layout
//! sync-manager channel words: every field at a hard-coded offset, no
//! self-describing framing, so encode/decode are branch-light and the
//! layout is auditable against the constants below. The trailer CRC is
//! the same CRC-16-CCITT the ring's control channel uses
//! ([`ccr_edf::wire::Crc16`]), so a gateway frame is rejected by the same
//! arithmetic that guards slot-control packets; the header is whole
//! bytes, so it takes the byte-table path (one lookup per byte) where
//! control packets stream their odd-width fields bit by bit.
//!
//! ```text
//! offset  width  field
//!   0       1    magic (0xC5)
//!   1       1    version (high nibble, = 1) | kind (low nibble)
//!   2       2    virtual-link id, big-endian u16
//!   4       4    sequence number, big-endian u32
//!   8       2    payload length in bytes, big-endian u16
//!  10       4    deadline budget in µs, big-endian u32
//!  14       2    CRC-16/CCITT over bytes 0..14, big-endian
//! ```
//!
//! The payload follows immediately; `len` must match exactly — trailing
//! slack in a datagram is a decode error, not ignored padding.

use ccr_edf::wire::Crc16;

/// Header length in bytes; the payload starts at this offset.
pub const HEADER_LEN: usize = 16;
/// Largest payload a frame can carry: the header's `len` field is a
/// `u16`.
pub const MAX_PAYLOAD: usize = u16::MAX as usize;
/// First header byte of every gateway frame.
pub const MAGIC: u8 = 0xC5;
/// Wire-format version encoded in the high nibble of byte 1.
pub const VERSION: u8 = 1;

/// What a frame is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PacketKind {
    /// Client → gateway: a datagram to carry over the virtual link.
    Data = 0x1,
    /// Gateway → client: an end-to-end delivery leaving the fabric.
    Deliver = 0x2,
    /// Gateway → client: a datagram was shed by the link's drop policy.
    Shed = 0x3,
    /// Either direction: liveness/echo control, no fabric traversal.
    Probe = 0x4,
    /// Gateway → client: the named datagram can never be carried — the
    /// link is unknown, revoked, or the datagram violates its contract
    /// (oversize). Unlike `Shed`, retrying without a config change is
    /// pointless.
    Nack = 0x5,
    /// Gateway → client: flow-control advisory. `budget_us` carries the
    /// suggested quiet time in µs (exponential per overload streak);
    /// a compliant client stops sending on the link for that long.
    Backoff = 0x6,
}

impl PacketKind {
    fn from_nibble(n: u8) -> Option<PacketKind> {
        match n {
            0x1 => Some(PacketKind::Data),
            0x2 => Some(PacketKind::Deliver),
            0x3 => Some(PacketKind::Shed),
            0x4 => Some(PacketKind::Probe),
            0x5 => Some(PacketKind::Nack),
            0x6 => Some(PacketKind::Backoff),
            _ => None,
        }
    }
}

/// The decoded fixed-layout header of a gateway frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Frame purpose.
    pub kind: PacketKind,
    /// The virtual link this frame belongs to.
    pub link: u16,
    /// Per-link sequence number (ingress: client-assigned; egress: the
    /// fabric's per-connection delivery sequence).
    pub seq: u32,
    /// Payload bytes following the header.
    pub len: u16,
    /// Deadline budget in µs. On `Deliver` frames this is the remaining
    /// slack the fabric left (0 when the e2e deadline was missed).
    pub budget_us: u32,
}

/// Why a frame failed to decode. Every variant is counted by the gateway
/// rather than panicking — a hostile peer must not take the pacer down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Shorter than the fixed header.
    TooShort {
        /// Bytes actually present.
        got: usize,
    },
    /// First byte is not [`MAGIC`].
    BadMagic {
        /// The byte found where the magic belongs.
        got: u8,
    },
    /// Version nibble differs from [`VERSION`].
    BadVersion {
        /// The version nibble found.
        got: u8,
    },
    /// Kind nibble does not name a [`PacketKind`].
    BadKind {
        /// The kind nibble found.
        got: u8,
    },
    /// Trailer CRC does not match the header bytes.
    BadCrc {
        /// CRC carried by the frame.
        got: u16,
        /// CRC recomputed over bytes 0..14.
        want: u16,
    },
    /// `len` disagrees with the bytes actually present after the header.
    LengthMismatch {
        /// Payload length the header claims.
        claimed: u16,
        /// Payload bytes actually present.
        got: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooShort { got } => write!(f, "frame too short: {got} bytes"),
            WireError::BadMagic { got } => write!(f, "bad magic byte 0x{got:02x}"),
            WireError::BadVersion { got } => write!(f, "unsupported version {got}"),
            WireError::BadKind { got } => write!(f, "unknown packet kind 0x{got:x}"),
            WireError::BadCrc { got, want } => {
                write!(f, "crc mismatch: frame 0x{got:04x}, computed 0x{want:04x}")
            }
            WireError::LengthMismatch { claimed, got } => {
                write!(
                    f,
                    "length mismatch: header claims {claimed}, frame carries {got}"
                )
            }
        }
    }
}

/// CRC-16/CCITT over the first 14 header bytes.
fn header_crc(bytes: &[u8]) -> u16 {
    let mut crc = Crc16::new();
    crc.put_bytes(&bytes[..HEADER_LEN - 2]);
    crc.value()
}

impl Header {
    /// Encode this header followed by `payload` into `out` (cleared
    /// first). `self.len` is overridden by the actual payload length.
    pub fn encode_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        debug_assert!(payload.len() <= MAX_PAYLOAD, "payload fits u16");
        out.clear();
        out.reserve(HEADER_LEN + payload.len());
        out.push(MAGIC);
        out.push((VERSION << 4) | (self.kind as u8));
        out.extend_from_slice(&self.link.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.budget_us.to_be_bytes());
        let crc = header_crc(out);
        out.extend_from_slice(&crc.to_be_bytes());
        out.extend_from_slice(payload);
    }

    /// Encode into a fresh buffer (convenience for tests and clients).
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(payload, &mut out);
        out
    }

    /// Decode a frame, returning the header and a borrow of its payload.
    /// Rejects truncation, bad magic/version/kind, CRC damage, and any
    /// disagreement between the claimed and actual payload length.
    pub fn decode(frame: &[u8]) -> Result<(Header, &[u8]), WireError> {
        if frame.len() < HEADER_LEN {
            return Err(WireError::TooShort { got: frame.len() });
        }
        if frame[0] != MAGIC {
            return Err(WireError::BadMagic { got: frame[0] });
        }
        let version = frame[1] >> 4;
        if version != VERSION {
            return Err(WireError::BadVersion { got: version });
        }
        let kind = PacketKind::from_nibble(frame[1] & 0x0F).ok_or(WireError::BadKind {
            got: frame[1] & 0x0F,
        })?;
        let got_crc = u16::from_be_bytes([frame[14], frame[15]]);
        let want_crc = header_crc(frame);
        if got_crc != want_crc {
            return Err(WireError::BadCrc {
                got: got_crc,
                want: want_crc,
            });
        }
        let len = u16::from_be_bytes([frame[8], frame[9]]);
        let payload = &frame[HEADER_LEN..];
        if payload.len() != len as usize {
            return Err(WireError::LengthMismatch {
                claimed: len,
                got: payload.len(),
            });
        }
        Ok((
            Header {
                kind,
                link: u16::from_be_bytes([frame[2], frame[3]]),
                seq: u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]),
                len,
                budget_us: u32::from_be_bytes([frame[10], frame[11], frame[12], frame[13]]),
            },
            payload,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Header {
        Header {
            kind: PacketKind::Data,
            link: 7,
            seq: 0xDEAD_BEEF,
            len: 0,
            budget_us: 1_500,
        }
    }

    #[test]
    fn roundtrip() {
        let payload = b"hello fabric";
        let frame = sample().encode(payload);
        assert_eq!(frame.len(), HEADER_LEN + payload.len());
        let (h, p) = Header::decode(&frame).unwrap();
        assert_eq!(h.kind, PacketKind::Data);
        assert_eq!(h.link, 7);
        assert_eq!(h.seq, 0xDEAD_BEEF);
        assert_eq!(h.len as usize, payload.len());
        assert_eq!(h.budget_us, 1_500);
        assert_eq!(p, payload);
    }

    #[test]
    fn control_kinds_roundtrip() {
        for kind in [PacketKind::Shed, PacketKind::Nack, PacketKind::Backoff] {
            let frame = Header { kind, ..sample() }.encode(b"");
            let (h, p) = Header::decode(&frame).unwrap();
            assert_eq!(h.kind, kind);
            assert!(p.is_empty());
        }
    }

    #[test]
    fn rejects_truncation_and_damage() {
        let frame = sample().encode(b"xyz");
        assert!(matches!(
            Header::decode(&frame[..10]),
            Err(WireError::TooShort { got: 10 })
        ));
        let mut bad = frame.clone();
        bad[0] = 0x00;
        assert!(matches!(
            Header::decode(&bad),
            Err(WireError::BadMagic { got: 0 })
        ));
        let mut bad = frame.clone();
        bad[4] ^= 0x80; // flip a seq bit: CRC must catch it
        assert!(matches!(
            Header::decode(&bad),
            Err(WireError::BadCrc { .. })
        ));
        let mut long = frame.clone();
        long.push(0); // trailing slack is an error, not padding
        assert!(matches!(
            Header::decode(&long),
            Err(WireError::LengthMismatch { claimed: 3, got: 4 })
        ));
    }

    #[test]
    fn encoded_frame_is_pinned_byte_for_byte() {
        // Each field at its documented offset, the CRC of bytes 0..14
        // big-endian, then the payload.
        assert_eq!(
            sample().encode(b"xyz"),
            [
                0xC5, 0x11, 0x00, 0x07, 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x03, 0x00, 0x00, 0x05, 0xDC,
                0xF8, 0xA4, b'x', b'y', b'z',
            ]
        );
    }
}
