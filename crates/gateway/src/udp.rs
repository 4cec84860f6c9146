//! The UDP backend: real datagrams from real clients, paced into the
//! deterministic fabric.
//!
//! Architecture mirrors how EtherCAT stacks split the PDU loop from
//! protocol state: a dedicated socket thread does nothing but
//! `recv_from` and push `(frame, peer)` pairs into the bounded
//! [`handoff`](crate::handoff); the driver thread owns the fabric and,
//! once per wall slot, drains the handoff, quantises the arrivals to the
//! current slot, runs the pacing tick, steps the fabric, and answers
//! each link's egress to the peer that most recently used that link.
//! The DES core never touches a socket and never blocks on one.
//!
//! Edge survivability on the real wire:
//!
//! - Control frames (`Shed`/`Nack`/`Backoff`) queued by the gateway are
//!   transmitted to each link's most recent peer every slot — a client
//!   pushed past its envelope is *told*, not silently rate-limited.
//! - [`WallClock::sleep_until_slot`] lateness is aggregated into
//!   [`JitterStats`] (p50/p99/max) on [`UdpRunStats`], so drift between
//!   dilated sim time and the wall deadline is observable.
//!
//! Wire chaos and capture replay are exercised on the deterministic
//! [`LoopbackBackend`](crate::loopback::LoopbackBackend), not here.
//!
//! The workspace carries no async runtime (zero external dependencies —
//! a tokio/io_uring backend slots in behind the same [`handoff`]
//! boundary if one is ever vendored), so this backend is plain
//! `std::net` + one thread. That is not a limitation of the model: the
//! determinism boundary is the handoff, not the I/O style.
//!
//! This file is wall-clock territory and sits in `ccr-verify`'s
//! `det_exempt` list; everything behind [`Gateway::ingress`] is swept.
//!
//! [`Gateway::ingress`]: crate::gateway::Gateway::ingress

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ccr_multiring::engine::Fabric;
use ccr_sim::TimeDelta;

use crate::clock::{JitterStats, WallClock};
use crate::gateway::{ControlFrame, EgressFrame, Gateway};
use crate::handoff::{handoff, HandoffReceiver, Stamped};
use crate::wire::{Header, PacketKind};

/// Largest datagram the socket thread will accept (header + MTU-sized
/// payloads of any reasonable link config fit comfortably).
const MAX_DATAGRAM: usize = 65_536;

/// Wall-run statistics returned by [`UdpBackend::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpRunStats {
    /// Wall slots driven.
    pub slots: u64,
    /// Frames drained from the handoff and offered to ingress.
    pub frames_in: u64,
    /// Egress frames sent back out the socket.
    pub frames_out: u64,
    /// Control frames (`Shed`/`Nack`/`Backoff`) sent to peers.
    pub controls_out: u64,
    /// Frames dropped at the handoff because the driver fell behind.
    pub handoff_dropped: u64,
    /// Losses the driver observed as sequence gaps (should equal
    /// `handoff_dropped` once drained).
    pub handoff_lost: u64,
    /// Slot-boundary lateness of the pacer over this run.
    pub jitter: JitterStats,
}

/// A running UDP gateway edge: socket, reader thread, and wall clock.
#[derive(Debug)]
pub struct UdpBackend {
    socket: UdpSocket,
    rx: HandoffReceiver<(Vec<u8>, SocketAddr)>,
    reader: Option<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    clock: WallClock,
    /// Reply route: the peer that most recently sent a well-formed
    /// `Data` frame on each link.
    peers: HashMap<u16, SocketAddr>,
    arrivals: Vec<Stamped<(Vec<u8>, SocketAddr)>>,
    egress: Vec<EgressFrame>,
    controls: Vec<ControlFrame>,
    lateness_ns: Vec<u64>,
    wire_buf: Vec<u8>,
}

impl UdpBackend {
    /// Bind `addr` (e.g. `"127.0.0.1:4500"`) and start the socket
    /// thread. `slot` is the fabric slot length, `dilation` the
    /// wall-time stretch factor (see [`WallClock::new`]), `depth` the
    /// handoff capacity in datagrams.
    pub fn bind(addr: &str, slot: TimeDelta, dilation: u64, depth: usize) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        let reader_socket = socket.try_clone()?;
        // A finite read timeout lets the reader notice the stop flag.
        reader_socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let stop = Arc::new(AtomicBool::new(false));
        let (mut tx, rx) = handoff::<(Vec<u8>, SocketAddr)>(depth);
        let reader_stop = Arc::clone(&stop);
        let reader = std::thread::Builder::new()
            .name("gateway-udp-rx".into())
            .spawn(move || {
                let mut buf = vec![0u8; MAX_DATAGRAM];
                while !reader_stop.load(Ordering::Relaxed) {
                    match reader_socket.recv_from(&mut buf) {
                        Ok((n, peer)) => {
                            // Drop-and-count when the driver lags; never block.
                            tx.send((buf[..n].to_vec(), peer));
                        }
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut => {}
                        Err(_) => break,
                    }
                }
            })?;
        Ok(UdpBackend {
            socket,
            rx,
            reader: Some(reader),
            stop,
            clock: WallClock::new(slot, dilation),
            peers: HashMap::new(),
            arrivals: Vec::new(),
            egress: Vec::new(),
            controls: Vec::new(),
            lateness_ns: Vec::new(),
            wire_buf: Vec::new(),
        })
    }

    /// The bound local address (useful when binding port 0 in tests).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Drive `slots` wall slots of the gateway+fabric pair: each slot,
    /// drain the handoff, ingress the arrivals at the current sim time,
    /// pace, step the fabric, send
    /// every egress frame back to its link's most recent peer as a
    /// `Deliver` wire frame, and transmit queued control frames.
    pub fn run(
        &mut self,
        gateway: &mut Gateway,
        fabric: &mut Fabric,
        slots: u64,
    ) -> io::Result<UdpRunStats> {
        let mut stats = UdpRunStats::default();
        self.lateness_ns.clear();
        let start_slot = self.clock.slot_now();
        for k in 0..slots {
            let late = self.clock.sleep_until_slot(start_slot + k + 1);
            self.lateness_ns
                .push(late.as_nanos().min(u64::MAX as u128) as u64);
            let now = fabric.now();
            gateway.reconcile(fabric);
            self.arrivals.clear();
            self.rx.drain(&mut self.arrivals);
            for s in &self.arrivals {
                let (frame, peer) = (&s.value.0, s.value.1);
                stats.frames_in += 1;
                // Learn the reply route from every well-formed data frame.
                if let Ok((h, _)) = Header::decode(frame) {
                    if h.kind == PacketKind::Data {
                        self.peers.insert(h.link, peer);
                    }
                }
                gateway.ingress(now, frame, fabric);
            }
            gateway.pace(now, fabric);
            fabric.step_slot();
            self.egress.clear();
            gateway.poll_egress(fabric, &mut self.egress);
            for frame in &self.egress {
                if let Some(peer) = self.peers.get(&frame.link) {
                    frame.encode_into(&mut self.wire_buf);
                    self.socket.send_to(&self.wire_buf, peer)?;
                    stats.frames_out += 1;
                }
            }
            self.controls.clear();
            gateway.drain_control(&mut self.controls);
            for ctl in &self.controls {
                if let Some(peer) = self.peers.get(&ctl.link) {
                    ctl.encode_into(&mut self.wire_buf);
                    self.socket.send_to(&self.wire_buf, peer)?;
                    stats.controls_out += 1;
                }
            }
            stats.slots += 1;
        }
        stats.handoff_dropped = self.rx.producer_dropped();
        stats.handoff_lost = self.rx.lost();
        stats.jitter = JitterStats::from_samples(&mut self.lateness_ns);
        Ok(stats)
    }
}

impl Drop for UdpBackend {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}
