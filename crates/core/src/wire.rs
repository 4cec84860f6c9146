//! Control-channel wire formats (Figures 4 and 5 of the paper).
//!
//! The control channel is bit-serial, clocked by the same clock as the data
//! bytes, so every bit counts directly as time: the *sizes* computed here
//! feed the timing model (`t_node` of Equation 2 includes the serialisation
//! of one request). The codecs are real bit-level encoders/decoders — the
//! simulator carries decoded structs for speed, but the wire layer keeps the
//! bit accounting honest and is exercised by tests and benches.
//!
//! Collection-phase packet (Figure 4): a start bit, then one request per
//! node appended in ring order. Each request is
//! `priority(5) | link-reservation(N) | destination(N)` plus the optional
//! service fields enabled in [`ServiceWireConfig`].
//!
//! Distribution-phase packet (Figure 5): a start bit, the grant bitmap
//! (result of requests, N bits), the index of the highest-priority node
//! (`⌈log2 N⌉` bits), plus "other fields" (acknowledgement/service echoes).

use crate::priority::Priority;
use ccr_phys::{LinkSet, NodeId};

/// A set of nodes as an N-bit mask (the destination field of a request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeSet(pub u64);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// Set with a single node.
    pub fn single(n: NodeId) -> Self {
        NodeSet(1 << n.0)
    }

    /// Insert a node.
    pub fn insert(&mut self, n: NodeId) {
        self.0 |= 1 << n.0;
    }

    /// Remove a node.
    pub fn remove(&mut self, n: NodeId) {
        self.0 &= !(1 << n.0);
    }

    /// Membership test.
    pub const fn contains(self, n: NodeId) -> bool {
        self.0 & (1 << n.0) != 0
    }

    /// Number of members.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True when empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as u16;
                bits &= bits - 1;
                Some(NodeId(i))
            }
        })
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = NodeSet::EMPTY;
        for n in iter {
            s.insert(n);
        }
        s
    }
}

/// Which optional service fields ride in the control packets.
///
/// Enabling a service widens every request (and the distribution packet),
/// which lengthens `t_node` and hence the minimum slot (Equation 2) — the
/// trade-off explored by experiment E3/E9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceWireConfig {
    /// Barrier-synchronisation flag bit in each request + done bit in the
    /// distribution packet.
    pub barrier: bool,
    /// Global-reduction participation flag + 32-bit operand per request,
    /// valid flag + 32-bit result in the distribution packet.
    pub reduction: bool,
    /// Piggy-backed short message per request: flag + destination index +
    /// 16-bit payload; echoed for all nodes in the distribution packet.
    pub short_msg: bool,
    /// Reliable-transmission acknowledgement per request: flag + source
    /// index + 8-bit sequence number; echoed in the distribution packet.
    pub reliable: bool,
    /// CRC protection of the control channel: an 8-bit CRC (poly 0x07)
    /// appended to every collection entry and a 16-bit CRC-CCITT
    /// (poly 0x1021) appended to the distribution packet. Off by default —
    /// the paper's Figures 4/5 carry no checksum; enabling it widens the
    /// control packets and therefore `t_node` and the minimum slot.
    pub crc: bool,
}

impl ServiceWireConfig {
    /// All paper services enabled (CRC stays off — it is a robustness
    /// extension, not one of the paper's Figure 4/5 services).
    pub const ALL: ServiceWireConfig = ServiceWireConfig {
        barrier: true,
        reduction: true,
        short_msg: true,
        reliable: true,
        crc: false,
    };

    /// Same configuration with CRC protection enabled.
    #[cfg(test)]
    pub const fn with_crc(mut self) -> Self {
        self.crc = true;
        self
    }

    /// True when a service that keeps per-node state rides the packets
    /// (the CRC alone keeps none).
    pub(crate) const fn any_service(self) -> bool {
        self.barrier || self.reduction || self.short_msg || self.reliable
    }

    /// Extra bits appended to one request.
    pub fn request_extra_bits(&self, n_nodes: u16) -> u32 {
        let idx = log2_ceil(n_nodes);
        let mut bits = 0;
        if self.barrier {
            bits += 1;
        }
        if self.reduction {
            bits += 1 + 32;
        }
        if self.short_msg {
            bits += 1 + idx + 16;
        }
        if self.reliable {
            bits += 1 + idx + 8;
        }
        if self.crc {
            bits += 8;
        }
        bits
    }

    /// Extra bits appended to the distribution packet.
    pub fn distribution_extra_bits(&self, n_nodes: u16) -> u32 {
        let n = n_nodes as u32;
        let idx = log2_ceil(n_nodes);
        let mut bits = 0;
        if self.barrier {
            bits += 1;
        }
        if self.reduction {
            bits += 1 + 32;
        }
        if self.short_msg {
            bits += n * (1 + idx + 16);
        }
        if self.reliable {
            bits += n * (1 + idx + 8);
        }
        if self.crc {
            bits += 16;
        }
        bits
    }
}

/// `⌈log2 n⌉`, with `log2_ceil(1) = 1` (an index field is never 0 bits).
pub fn log2_ceil(n: u16) -> u32 {
    debug_assert!(n >= 1);
    (u16::BITS - (n - 1).leading_zeros()).max(1)
}

/// Bits of one request in the collection packet (Figure 4):
/// `5 (priority) + N (link reservation) + N (destination)` + services.
pub fn request_bits(n_nodes: u16, services: ServiceWireConfig) -> u32 {
    5 + 2 * n_nodes as u32 + services.request_extra_bits(n_nodes)
}

/// Total bits of the collection packet: start bit + N requests.
pub fn collection_bits(n_nodes: u16, services: ServiceWireConfig) -> u32 {
    1 + n_nodes as u32 * request_bits(n_nodes, services)
}

/// Total bits of the distribution packet (Figure 5): start bit, N-bit grant
/// bitmap, `⌈log2 N⌉`-bit hp-node index, plus service echoes.
pub fn distribution_bits(n_nodes: u16, services: ServiceWireConfig) -> u32 {
    1 + n_nodes as u32 + log2_ceil(n_nodes) + services.distribution_extra_bits(n_nodes)
}

/// A piggy-backed short message (service of ref \[11]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortMsgWire {
    /// Receiver.
    pub dest: NodeId,
    /// 16-bit payload.
    pub payload: u16,
}

/// A piggy-backed acknowledgement for the reliable-transmission service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckWire {
    /// The node whose packet is being acknowledged.
    pub src: NodeId,
    /// Acknowledged sequence number (modulo 256).
    pub seq: u8,
}

/// One node's request in the collection phase (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// 5-bit priority; [`Priority::IDLE`] means "nothing to send".
    pub priority: Priority,
    /// Links the node wants for its transmission.
    pub links: LinkSet,
    /// Destination node set.
    pub dests: NodeSet,
    /// Barrier-arrived flag (when the barrier service is enabled).
    pub barrier: bool,
    /// Reduction operand (when the reduction service is enabled).
    pub reduce: Option<u32>,
    /// Piggy-backed short message.
    pub short_msg: Option<ShortMsgWire>,
    /// Piggy-backed acknowledgement.
    pub ack: Option<AckWire>,
}

impl Request {
    /// The "nothing to send" request (priority 0, all fields zero —
    /// Section 3: "writes zeros in the other fields").
    pub const IDLE: Request = Request {
        priority: Priority::IDLE,
        links: LinkSet::EMPTY,
        dests: NodeSet::EMPTY,
        barrier: false,
        reduce: None,
        short_msg: None,
        ack: None,
    };

    /// A transmission request with the given priority, links and receivers.
    pub fn transmission(priority: Priority, links: LinkSet, dests: NodeSet) -> Self {
        Request {
            priority,
            links,
            dests,
            ..Request::IDLE
        }
    }

    /// True when this request asks for a data transmission.
    pub fn wants_tx(&self) -> bool {
        !self.priority.is_idle()
    }
}

/// The decoded collection packet: the start bit plus one request per node,
/// in ring order starting with the master.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionPacket {
    /// Requests indexed by *ring position from the master* — position 0 is
    /// the master's own request.
    pub requests: Vec<Request>,
}

/// The decoded distribution packet (Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionPacket {
    /// Grant bit per node (by absolute node index).
    pub grants: NodeSet,
    /// Index of the node with the highest-priority message — the next
    /// master.
    pub hp_node: NodeId,
    /// Barrier-complete flag.
    pub barrier_done: bool,
    /// Reduction result, when complete this slot.
    pub reduce_result: Option<u32>,
    /// Echo of short messages, by sender node index.
    pub short_msgs: Vec<Option<ShortMsgWire>>,
    /// Echo of acknowledgements, by sender node index.
    pub acks: Vec<Option<AckWire>>,
}

impl Default for DistributionPacket {
    /// An empty packet (no grants, master index 0) — the starting point for
    /// the slot engine's reusable distribution scratch buffer.
    fn default() -> Self {
        DistributionPacket {
            grants: NodeSet::EMPTY,
            hp_node: NodeId(0),
            barrier_done: false,
            reduce_result: None,
            short_msgs: Vec::new(),
            acks: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-level codec
// ---------------------------------------------------------------------------

/// Anything field bits can be streamed into, MSB first. Implemented by
/// [`BitWriter`] (producing wire bytes) and by the CRC accumulators
/// ([`Crc8`], [`Crc16`]) — so the checksum is computed by replaying the
/// *same* field-serialisation code that produced (or would reproduce) the
/// wire bits, keeping the two layouts impossible to desynchronise.
pub trait BitSink {
    /// Append the low `width` bits of `value`, MSB first.
    fn put(&mut self, value: u64, width: u32);

    /// Append one flag bit.
    fn put_bool(&mut self, b: bool) {
        self.put(b as u64, 1);
    }
}

/// Bit-serial CRC-8 accumulator, polynomial x⁸+x²+x+1 (0x07), init 0.
#[derive(Debug, Default, Clone, Copy)]
pub struct Crc8 {
    crc: u8,
}

impl Crc8 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The checksum over everything streamed so far.
    pub fn value(&self) -> u8 {
        self.crc
    }
}

impl BitSink for Crc8 {
    fn put(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        for i in (0..width).rev() {
            let bit = ((value >> i) & 1) as u8;
            let top = (self.crc >> 7) ^ bit;
            self.crc <<= 1;
            if top != 0 {
                self.crc ^= 0x07;
            }
        }
    }
}

/// The CRC-16-CCITT generator polynomial, x¹⁶+x¹²+x⁵+1.
const CRC16_POLY: u16 = 0x1021;

/// [`Crc16::put_bytes`]'s lookup table: entry `i` is the register after
/// feeding byte `i` MSB first into a zeroed register.
const CRC16_TABLE: [u16; 256] = crc16_table();

const fn crc16_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ CRC16_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-16-CCITT accumulator, polynomial 0x1021, init 0xFFFF, MSB first:
/// bit-serial through [`BitSink::put`] for fields of any width, one table
/// lookup per byte through [`Crc16::put_bytes`].
#[derive(Debug, Clone, Copy)]
pub struct Crc16 {
    crc: u16,
}

impl Default for Crc16 {
    fn default() -> Self {
        Crc16 { crc: 0xFFFF }
    }
}

impl Crc16 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The checksum over everything streamed so far.
    pub fn value(&self) -> u16 {
        self.crc
    }

    /// Stream whole bytes: the same checksum as `put(b as u64, 8)` for
    /// each byte in turn.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let i = (self.crc >> 8) as u8 ^ b;
            self.crc = (self.crc << 8) ^ CRC16_TABLE[i as usize];
        }
    }
}

impl BitSink for Crc16 {
    fn put(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        for i in (0..width).rev() {
            let bit = ((value >> i) & 1) as u16;
            let top = (self.crc >> 15) ^ bit;
            self.crc <<= 1;
            if top != 0 {
                self.crc ^= CRC16_POLY;
            }
        }
    }
}

/// MSB-first bit writer over a plain `Vec<u8>`.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    cur: u8,
    used: u32,
    bits: u64,
}

impl BitWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `width` bits of `value`, MSB first.
    pub fn put(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value overflows width"
        );
        for i in (0..width).rev() {
            let bit = ((value >> i) & 1) as u8;
            self.cur = (self.cur << 1) | bit;
            self.used += 1;
            if self.used == 8 {
                self.buf.push(self.cur);
                self.cur = 0;
                self.used = 0;
            }
        }
        self.bits += width as u64;
    }

    /// Append a boolean flag.
    pub fn put_bool(&mut self, b: bool) {
        self.put(b as u64, 1);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bits
    }

    /// Finish, padding the final byte with zeros.
    pub fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            self.buf.push(self.cur << (8 - self.used));
        }
        self.buf
    }
}

impl BitSink for BitWriter {
    fn put(&mut self, value: u64, width: u32) {
        BitWriter::put(self, value, width);
    }
}

/// MSB-first bit reader.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: u64,
}

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bits while decoding.
    Truncated,
    /// A field held an out-of-range value.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl<'a> BitReader<'a> {
    /// Read from a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Read `width` bits, MSB first.
    pub fn get(&mut self, width: u32) -> Result<u64, WireError> {
        debug_assert!(width <= 64);
        if self.pos + width as u64 > self.data.len() as u64 * 8 {
            return Err(WireError::Truncated);
        }
        let mut v = 0u64;
        for _ in 0..width {
            let byte = self.data[(self.pos / 8) as usize];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            v = (v << 1) | bit as u64;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Read one flag bit.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        Ok(self.get(1)? == 1)
    }

    /// Bits consumed so far.
    #[cfg(test)]
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Position the cursor at an absolute bit offset (used to resynchronise
    /// on the next fixed-width field after a corrupted one).
    pub fn seek(&mut self, bit_pos: u64) {
        self.pos = bit_pos;
    }
}

/// Stream one request's fields (everything except the trailing CRC, which
/// is computed *over* these bits) into any [`BitSink`].
fn put_request_fields<S: BitSink>(w: &mut S, r: &Request, n: u16, svc: ServiceWireConfig) {
    let idx = log2_ceil(n);
    w.put(r.priority.level() as u64, 5);
    w.put(r.links.0, n as u32);
    w.put(r.dests.0, n as u32);
    if svc.barrier {
        w.put_bool(r.barrier);
    }
    if svc.reduction {
        w.put_bool(r.reduce.is_some());
        w.put(r.reduce.unwrap_or(0) as u64, 32);
    }
    if svc.short_msg {
        w.put_bool(r.short_msg.is_some());
        let m = r.short_msg.unwrap_or(ShortMsgWire {
            dest: NodeId(0),
            payload: 0,
        });
        w.put(m.dest.0 as u64, idx);
        w.put(m.payload as u64, 16);
    }
    if svc.reliable {
        w.put_bool(r.ack.is_some());
        let a = r.ack.unwrap_or(AckWire {
            src: NodeId(0),
            seq: 0,
        });
        w.put(a.src.0 as u64, idx);
        w.put(a.seq as u64, 8);
    }
}

/// CRC-8 over one request's field bits.
fn request_crc(r: &Request, n: u16, svc: ServiceWireConfig) -> u8 {
    let mut c = Crc8::new();
    put_request_fields(&mut c, r, n, svc);
    c.value()
}

fn put_request(w: &mut BitWriter, r: &Request, n: u16, svc: ServiceWireConfig) {
    put_request_fields(w, r, n, svc);
    if svc.crc {
        BitSink::put(w, request_crc(r, n, svc) as u64, 8);
    }
}

fn get_request(
    rd: &mut BitReader<'_>,
    n: u16,
    svc: ServiceWireConfig,
) -> Result<Request, WireError> {
    let idx = log2_ceil(n);
    let level = rd.get(5)? as u8;
    let priority = Priority::new(level);
    let links = LinkSet(rd.get(n as u32)?);
    let dests = NodeSet(rd.get(n as u32)?);
    let barrier = if svc.barrier { rd.get_bool()? } else { false };
    let reduce = if svc.reduction {
        let valid = rd.get_bool()?;
        let v = rd.get(32)? as u32;
        valid.then_some(v)
    } else {
        None
    };
    let short_msg = if svc.short_msg {
        let valid = rd.get_bool()?;
        let dest = NodeId(rd.get(idx)? as u16);
        let payload = rd.get(16)? as u16;
        if valid && dest.0 >= n {
            return Err(WireError::Invalid("short-msg dest"));
        }
        valid.then_some(ShortMsgWire { dest, payload })
    } else {
        None
    };
    let ack = if svc.reliable {
        let valid = rd.get_bool()?;
        let src = NodeId(rd.get(idx)? as u16);
        let seq = rd.get(8)? as u8;
        if valid && src.0 >= n {
            return Err(WireError::Invalid("ack src"));
        }
        valid.then_some(AckWire { src, seq })
    } else {
        None
    };
    let req = Request {
        priority,
        links,
        dests,
        barrier,
        reduce,
        short_msg,
        ack,
    };
    if svc.crc {
        // The encoder zeroes every gated-off optional field, so replaying
        // the decoded values through the same serialiser reproduces the
        // exact protected bits; any flip in them (or in the CRC itself)
        // mismatches here.
        let wire_crc = rd.get(8)? as u8;
        if wire_crc != request_crc(&req, n, svc) {
            return Err(WireError::Invalid("request crc"));
        }
    }
    Ok(req)
}

impl CollectionPacket {
    /// Encode to wire bytes (Figure 4 layout).
    pub fn encode(&self, n: u16, svc: ServiceWireConfig) -> Vec<u8> {
        debug_assert_eq!(self.requests.len(), n as usize);
        let mut w = BitWriter::new();
        w.put(1, 1); // start bit
        for r in &self.requests {
            put_request(&mut w, r, n, svc);
        }
        debug_assert_eq!(w.bit_len(), collection_bits(n, svc) as u64);
        w.finish()
    }

    /// Decode from wire bytes.
    pub fn decode(data: &[u8], n: u16, svc: ServiceWireConfig) -> Result<Self, WireError> {
        let mut rd = BitReader::new(data);
        if !rd.get_bool()? {
            return Err(WireError::Invalid("missing start bit"));
        }
        // ccr-verify: allow(alloc-in-hot-path) -- decode materialises an owned packet; the slot loop only decodes under wire_check
        let mut requests = Vec::with_capacity(n as usize);
        for _ in 0..n {
            requests.push(get_request(&mut rd, n, svc)?);
        }
        Ok(CollectionPacket { requests })
    }

    /// Decode degrading gracefully: a corrupted entry (CRC mismatch,
    /// out-of-range field, or truncation) becomes [`Request::IDLE`] and its
    /// ring position is reported in the returned [`NodeSet`], instead of
    /// failing the whole packet. Entries are fixed-width, so decoding
    /// resynchronises on the next entry boundary after a bad one. A missing
    /// or corrupted start bit poisons every entry (nothing downstream can
    /// be framed).
    ///
    /// This is the master's receive path under control-channel bit errors:
    /// a node whose entry fails its CRC simply has no request this slot.
    pub fn decode_with_errors(data: &[u8], n: u16, svc: ServiceWireConfig) -> (Self, NodeSet) {
        let rb = request_bits(n, svc) as u64;
        let mut rd = BitReader::new(data);
        let start_ok = rd.get_bool() == Ok(true);
        let mut requests = Vec::with_capacity(n as usize);
        let mut corrupt = NodeSet::EMPTY;
        for i in 0..n {
            rd.seek(1 + i as u64 * rb);
            match get_request(&mut rd, n, svc) {
                Ok(req) if start_ok => requests.push(req),
                _ => {
                    requests.push(Request::IDLE);
                    corrupt.insert(NodeId(i));
                }
            }
        }
        (CollectionPacket { requests }, corrupt)
    }
}

impl DistributionPacket {
    /// Stream the packet's fields (start bit through service echoes,
    /// everything the trailing CRC protects) into any [`BitSink`].
    fn put_fields<S: BitSink>(&self, w: &mut S, n: u16, svc: ServiceWireConfig) {
        let idx = log2_ceil(n);
        w.put(1, 1); // start bit
        w.put(self.grants.0, n as u32);
        w.put(self.hp_node.0 as u64, idx);
        if svc.barrier {
            w.put_bool(self.barrier_done);
        }
        if svc.reduction {
            w.put_bool(self.reduce_result.is_some());
            w.put(self.reduce_result.unwrap_or(0) as u64, 32);
        }
        if svc.short_msg {
            debug_assert_eq!(self.short_msgs.len(), n as usize);
            for m in &self.short_msgs {
                w.put_bool(m.is_some());
                let m = m.unwrap_or(ShortMsgWire {
                    dest: NodeId(0),
                    payload: 0,
                });
                w.put(m.dest.0 as u64, idx);
                w.put(m.payload as u64, 16);
            }
        }
        if svc.reliable {
            debug_assert_eq!(self.acks.len(), n as usize);
            for a in &self.acks {
                w.put_bool(a.is_some());
                let a = a.unwrap_or(AckWire {
                    src: NodeId(0),
                    seq: 0,
                });
                w.put(a.src.0 as u64, idx);
                w.put(a.seq as u64, 8);
            }
        }
    }

    /// CRC-16 over the packet's field bits.
    fn crc(&self, n: u16, svc: ServiceWireConfig) -> u16 {
        let mut c = Crc16::new();
        self.put_fields(&mut c, n, svc);
        c.value()
    }

    /// Encode to wire bytes (Figure 5 layout).
    pub fn encode(&self, n: u16, svc: ServiceWireConfig) -> Vec<u8> {
        let mut w = BitWriter::new();
        self.put_fields(&mut w, n, svc);
        if svc.crc {
            BitSink::put(&mut w, self.crc(n, svc) as u64, 16);
        }
        debug_assert_eq!(w.bit_len(), distribution_bits(n, svc) as u64);
        w.finish()
    }

    /// Decode from wire bytes.
    pub fn decode(data: &[u8], n: u16, svc: ServiceWireConfig) -> Result<Self, WireError> {
        let idx = log2_ceil(n);
        let mut rd = BitReader::new(data);
        if !rd.get_bool()? {
            return Err(WireError::Invalid("missing start bit"));
        }
        let grants = NodeSet(rd.get(n as u32)?);
        let hp = rd.get(idx)? as u16;
        if hp >= n {
            return Err(WireError::Invalid("hp index"));
        }
        let barrier_done = if svc.barrier { rd.get_bool()? } else { false };
        let reduce_result = if svc.reduction {
            let valid = rd.get_bool()?;
            let v = rd.get(32)? as u32;
            valid.then_some(v)
        } else {
            None
        };
        // ccr-verify: allow(alloc-in-hot-path) -- decode materialises an owned packet; the slot loop only decodes under wire_check
        let mut short_msgs = vec![None; n as usize];
        if svc.short_msg {
            for slot in short_msgs.iter_mut() {
                let valid = rd.get_bool()?;
                let dest = NodeId(rd.get(idx)? as u16);
                let payload = rd.get(16)? as u16;
                if valid && dest.0 >= n {
                    return Err(WireError::Invalid("short-msg dest"));
                }
                *slot = valid.then_some(ShortMsgWire { dest, payload });
            }
        }
        // ccr-verify: allow(alloc-in-hot-path) -- decode materialises an owned packet; the slot loop only decodes under wire_check
        let mut acks = vec![None; n as usize];
        if svc.reliable {
            for slot in acks.iter_mut() {
                let valid = rd.get_bool()?;
                let src = NodeId(rd.get(idx)? as u16);
                let seq = rd.get(8)? as u8;
                if valid && src.0 >= n {
                    return Err(WireError::Invalid("ack src"));
                }
                *slot = valid.then_some(AckWire { src, seq });
            }
        }
        let pkt = DistributionPacket {
            grants,
            hp_node: NodeId(hp),
            barrier_done,
            reduce_result,
            short_msgs,
            acks,
        };
        if svc.crc {
            let wire_crc = rd.get(16)? as u16;
            if wire_crc != pkt.crc(n, svc) {
                return Err(WireError::Invalid("distribution crc"));
            }
        }
        Ok(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_phys::LinkId;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 1);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(16), 4);
        assert_eq!(log2_ceil(17), 5);
        assert_eq!(log2_ceil(64), 6);
    }

    #[test]
    fn figure4_request_size_without_services() {
        // Figure 4: priority 5 bits + link reservation N + destination N.
        assert_eq!(request_bits(8, ServiceWireConfig::default()), 5 + 16);
        assert_eq!(collection_bits(8, ServiceWireConfig::default()), 1 + 8 * 21);
    }

    #[test]
    fn figure5_distribution_size_without_services() {
        // Start 1 + grants N + hp index log2 N.
        assert_eq!(
            distribution_bits(8, ServiceWireConfig::default()),
            1 + 8 + 3
        );
        assert_eq!(
            distribution_bits(5, ServiceWireConfig::default()),
            1 + 5 + 3
        );
    }

    #[test]
    fn service_bits_accounted() {
        let n = 16;
        let all = ServiceWireConfig::ALL;
        let base = request_bits(n, ServiceWireConfig::default());
        // barrier 1, reduction 33, short 1+4+16, reliable 1+4+8
        assert_eq!(request_bits(n, all), base + 1 + 33 + 21 + 13);
    }

    #[test]
    fn bitwriter_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0xFFFF, 16);
        w.put_bool(false);
        w.put(42, 17);
        assert_eq!(w.bit_len(), 37);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(3).unwrap(), 0b101);
        assert_eq!(r.get(16).unwrap(), 0xFFFF);
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get(17).unwrap(), 42);
        assert_eq!(r.bit_pos(), 37);
        assert!(r.get(8).is_err()); // only padding left (3 bits)
    }

    fn sample_requests(n: u16) -> Vec<Request> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    Request::IDLE
                } else {
                    Request {
                        priority: Priority::new(17 + (i % 15) as u8),
                        links: LinkSet::single(LinkId(i % n)),
                        dests: NodeSet::single(NodeId((i + 1) % n)),
                        barrier: i % 2 == 0,
                        reduce: (i % 4 == 1).then_some(0xDEAD_0000 + i as u32),
                        short_msg: (i % 5 == 2).then_some(ShortMsgWire {
                            dest: NodeId((i + 2) % n),
                            payload: 0xBEEF,
                        }),
                        ack: (i % 2 == 1).then_some(AckWire {
                            src: NodeId((i + 3) % n),
                            seq: i as u8,
                        }),
                    }
                }
            })
            .collect()
    }

    #[test]
    fn collection_roundtrip_all_services() {
        for n in [2u16, 5, 8, 16, 33, 64] {
            let pkt = CollectionPacket {
                requests: sample_requests(n),
            };
            let svc = ServiceWireConfig::ALL;
            let bytes = pkt.encode(n, svc);
            assert_eq!(bytes.len(), (collection_bits(n, svc) as usize).div_ceil(8));
            let back = CollectionPacket::decode(&bytes, n, svc).unwrap();
            assert_eq!(back, pkt);
        }
    }

    #[test]
    fn collection_roundtrip_no_services() {
        let n = 10;
        let svc = ServiceWireConfig::default();
        let mut reqs = sample_requests(n);
        // strip service fields the wire won't carry
        for r in &mut reqs {
            r.barrier = false;
            r.reduce = None;
            r.short_msg = None;
            r.ack = None;
        }
        let pkt = CollectionPacket { requests: reqs };
        let back = CollectionPacket::decode(&pkt.encode(n, svc), n, svc).unwrap();
        assert_eq!(back, pkt);
    }

    #[test]
    fn distribution_roundtrip() {
        for n in [2u16, 7, 32] {
            let pkt = DistributionPacket {
                grants: NodeSet(0b101 % (1 << n)),
                hp_node: NodeId(n - 1),
                barrier_done: true,
                reduce_result: Some(123456),
                short_msgs: (0..n)
                    .map(|i| {
                        (i % 2 == 0).then_some(ShortMsgWire {
                            dest: NodeId((i + 1) % n),
                            payload: i,
                        })
                    })
                    .collect(),
                acks: (0..n)
                    .map(|i| {
                        (i % 3 == 0).then_some(AckWire {
                            src: NodeId(i % n),
                            seq: (i * 7) as u8,
                        })
                    })
                    .collect(),
            };
            let svc = ServiceWireConfig::ALL;
            let bytes = pkt.encode(n, svc);
            assert_eq!(
                bytes.len(),
                (distribution_bits(n, svc) as usize).div_ceil(8)
            );
            let back = DistributionPacket::decode(&bytes, n, svc).unwrap();
            assert_eq!(back, pkt);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let svc = ServiceWireConfig::default();
        // zero start bit
        assert_eq!(
            CollectionPacket::decode(&[0x00; 32], 4, svc),
            Err(WireError::Invalid("missing start bit"))
        );
        // truncated
        assert_eq!(
            CollectionPacket::decode(&[0x80], 8, svc),
            Err(WireError::Truncated)
        );
        // hp index out of range: n=5 → idx 3 bits; craft grants=0, hp=7
        let mut w = BitWriter::new();
        w.put(1, 1);
        w.put(0, 5);
        w.put(7, 3);
        let bytes = w.finish();
        assert_eq!(
            DistributionPacket::decode(&bytes, 5, svc),
            Err(WireError::Invalid("hp index"))
        );
    }

    #[test]
    fn crc_widens_both_packets() {
        let n = 8;
        let plain = ServiceWireConfig::default();
        let crc = plain.with_crc();
        assert_eq!(request_bits(n, crc), request_bits(n, plain) + 8);
        assert_eq!(
            collection_bits(n, crc),
            collection_bits(n, plain) + 8 * n as u32
        );
        assert_eq!(distribution_bits(n, crc), distribution_bits(n, plain) + 16);
        // ALL is the paper's service set — CRC is orthogonal.
        let all = ServiceWireConfig::ALL;
        assert!(!all.crc);
        assert!(all.with_crc().crc);
    }

    #[test]
    fn crc_roundtrips_clean_packets() {
        for n in [2u16, 8, 33] {
            let svc = ServiceWireConfig::ALL.with_crc();
            let pkt = CollectionPacket {
                requests: sample_requests(n),
            };
            let bytes = pkt.encode(n, svc);
            assert_eq!(bytes.len(), (collection_bits(n, svc) as usize).div_ceil(8));
            assert_eq!(CollectionPacket::decode(&bytes, n, svc).unwrap(), pkt);
            let (degraded, corrupt) = CollectionPacket::decode_with_errors(&bytes, n, svc);
            assert_eq!(degraded, pkt);
            assert!(corrupt.is_empty());
        }
    }

    #[test]
    fn request_crc_detects_any_single_bit_flip() {
        let n = 8u16;
        let svc = ServiceWireConfig::default().with_crc();
        let pkt = CollectionPacket {
            requests: sample_requests(n),
        };
        let clean = pkt.encode(n, svc);
        // Gated-off service fields are not serialised, so compare survivors
        // against what the wire actually carries, not the in-memory packet.
        let canon = CollectionPacket::decode(&clean, n, svc).unwrap();
        let total_bits = collection_bits(n, svc) as usize;
        let rb = request_bits(n, svc) as usize;
        for bit in 1..total_bits {
            // skip the start bit; every entry bit (fields or CRC) is covered
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 0x80 >> (bit % 8);
            let entry = (bit - 1) / rb;
            let (got, corrupt) = CollectionPacket::decode_with_errors(&bytes, n, svc);
            assert!(
                corrupt.contains(NodeId(entry as u16)),
                "flip of bit {bit} (entry {entry}) undetected"
            );
            assert_eq!(got.requests[entry], Request::IDLE, "bad entry not dropped");
            // Every other entry survives intact.
            for (i, r) in got.requests.iter().enumerate() {
                if i != entry {
                    assert_eq!(*r, canon.requests[i], "entry {i} damaged by flip at {bit}");
                }
            }
        }
    }

    #[test]
    fn corrupt_start_bit_poisons_all_entries() {
        let n = 4u16;
        let svc = ServiceWireConfig::default().with_crc();
        let pkt = CollectionPacket {
            requests: sample_requests(n),
        };
        let mut bytes = pkt.encode(n, svc);
        bytes[0] ^= 0x80;
        let (got, corrupt) = CollectionPacket::decode_with_errors(&bytes, n, svc);
        assert_eq!(corrupt.len(), n as u32);
        assert!(got.requests.iter().all(|r| *r == Request::IDLE));
    }

    #[test]
    fn decode_with_errors_never_panics_on_short_input() {
        let n = 8u16;
        let svc = ServiceWireConfig::ALL.with_crc();
        for len in 0..8usize {
            let (got, corrupt) = CollectionPacket::decode_with_errors(&vec![0xA5; len], n, svc);
            assert_eq!(got.requests.len(), n as usize);
            assert!(!corrupt.is_empty());
        }
    }

    #[test]
    fn distribution_crc_detects_flips() {
        // No optional services: every wire bit is semantic, so the CRC must
        // catch a flip anywhere (with services enabled, flips inside a
        // zeroed don't-care echo field are harmless and pass by design).
        let n = 7u16;
        let svc = ServiceWireConfig::default().with_crc();
        let pkt = DistributionPacket {
            grants: NodeSet(0b101_1010),
            hp_node: NodeId(3),
            barrier_done: false,
            reduce_result: None,
            short_msgs: vec![None; n as usize],
            acks: vec![None; n as usize],
        };
        let clean = pkt.encode(n, svc);
        assert_eq!(DistributionPacket::decode(&clean, n, svc).unwrap(), pkt);
        for bit in 0..distribution_bits(n, svc) as usize {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 0x80 >> (bit % 8);
            assert!(
                DistributionPacket::decode(&bytes, n, svc).is_err(),
                "flip of bit {bit} undetected"
            );
        }
    }

    #[test]
    fn nodeset_behaves_like_set() {
        let mut s = NodeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(NodeId(3));
        s.insert(NodeId(3));
        s.insert(NodeId(0));
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(3)));
        assert!(!s.contains(NodeId(1)));
        let v: Vec<NodeId> = s.iter().collect();
        assert_eq!(v, vec![NodeId(0), NodeId(3)]);
        let c: NodeSet = [NodeId(0), NodeId(3)].into_iter().collect();
        assert_eq!(c, s);
        assert_eq!(NodeSet::single(NodeId(5)).len(), 1);
        s.remove(NodeId(3));
        s.remove(NodeId(3));
        s.remove(NodeId(1));
        assert_eq!(s, NodeSet::single(NodeId(0)));
    }

    #[test]
    fn idle_request_is_all_zero_after_priority() {
        // Section 3: idle nodes write zeros in all other fields.
        let pkt = CollectionPacket {
            requests: vec![Request::IDLE; 4],
        };
        let bytes = pkt.encode(4, ServiceWireConfig::default());
        // start bit then zeros: first byte = 0b1000_0000
        assert_eq!(bytes[0], 0x80);
        assert!(bytes[1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn crc16_table_matches_bit_serial_oracle() {
        let mut rng = ccr_sim::rng::DetRng::new(0xC3C);
        for len in 0..=64 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut serial = Crc16::new();
            for &b in &bytes {
                serial.put(b as u64, 8);
            }
            let mut table = Crc16::new();
            table.put_bytes(&bytes);
            assert_eq!(table.value(), serial.value(), "length {len}: {bytes:02x?}");
        }
    }

    #[test]
    fn crc16_is_ccitt_false() {
        // The CRC-16/CCITT-FALSE catalogue check value.
        let mut crc = Crc16::new();
        crc.put_bytes(b"123456789");
        assert_eq!(crc.value(), 0x29B1);
    }
}
