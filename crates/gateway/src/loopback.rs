//! In-process loopback backend: the whole gateway path — wire decode,
//! pacing, injection, fabric traversal, deadline-ordered egress — driven
//! from a slot-indexed schedule, with no sockets and no threads.
//!
//! This is the determinism anchor: a loopback run is a pure function of
//! `(fabric config, gateway config, schedule, chaos)`, so two runs must
//! produce byte-identical egress, `==`-equal metrics, and identical
//! control frames. The differential suites at the workspace root hold the
//! gateway to exactly that.
//!
//! An optional [`WireChaos`] layer sits between the schedule and
//! ingress: scheduled frames are mangled (lost, duplicated, delayed,
//! corrupted, blacked out) exactly as they would be on a lossy wire,
//! and — because the chaos layer is itself deterministic — the chaotic
//! run replays bit-identically too.

use ccr_multiring::engine::Fabric;

use crate::chaos::WireChaos;
use crate::gateway::{ControlFrame, EgressFrame, Gateway};

/// A deterministic, socket-free gateway driver.
#[derive(Debug, Clone)]
pub struct LoopbackBackend {
    /// `(fabric slot, raw frame)` arrivals; sorted by slot, stable, so
    /// same-slot frames keep their schedule order.
    schedule: Vec<(u64, Vec<u8>)>,
    cursor: usize,
    /// Optional wire-chaos layer applied to every scheduled frame.
    chaos: Option<WireChaos>,
    /// Control frames the gateway emitted, in emission order (a real
    /// backend would transmit these; loopback records them for the
    /// differential suites).
    controls: Vec<ControlFrame>,
    /// Scratch for frames surviving chaos each slot.
    chaos_out: Vec<Vec<u8>>,
}

impl LoopbackBackend {
    /// A backend that will deliver `schedule` — pairs of (fabric slot
    /// index, raw wire frame) — as the fabric reaches each slot.
    pub fn new(mut schedule: Vec<(u64, Vec<u8>)>) -> Self {
        schedule.sort_by_key(|(slot, _)| *slot);
        LoopbackBackend {
            schedule,
            cursor: 0,
            chaos: None,
            controls: Vec::new(),
            chaos_out: Vec::new(),
        }
    }

    /// Interpose `chaos` between the schedule and ingress (builder).
    pub fn with_chaos(mut self, chaos: WireChaos) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The chaos layer, if one is interposed.
    pub fn chaos(&self) -> Option<&WireChaos> {
        self.chaos.as_ref()
    }

    /// Control frames (`Shed`/`Nack`/`Backoff`) the gateway has emitted
    /// so far, in emission order.
    pub fn controls(&self) -> &[ControlFrame] {
        &self.controls
    }

    /// Frames not yet delivered.
    pub fn pending(&self) -> usize {
        self.schedule.len() - self.cursor
    }

    /// Drive `slots` fabric slots: apply connection events, deliver due
    /// arrivals (through chaos, when interposed) to ingress, run the
    /// pacing tick, step the fabric, and collect egress frames into
    /// `out` (deadline order within each slot).
    pub fn run(
        &mut self,
        gateway: &mut Gateway,
        fabric: &mut Fabric,
        slots: u64,
        out: &mut Vec<EgressFrame>,
    ) {
        for _ in 0..slots {
            let slot = fabric.metrics().slots.get();
            let now = fabric.now();
            gateway.reconcile(fabric);
            self.chaos_out.clear();
            if let Some(ch) = &mut self.chaos {
                // Reordered frames held from earlier slots land first —
                // they are older than this slot's fresh arrivals.
                ch.release_due(slot, &mut self.chaos_out);
            }
            while self.cursor < self.schedule.len() && self.schedule[self.cursor].0 <= slot {
                let frame = std::mem::take(&mut self.schedule[self.cursor].1);
                match &mut self.chaos {
                    Some(ch) => ch.offer(slot, &frame, &mut self.chaos_out),
                    None => self.chaos_out.push(frame),
                }
                self.cursor += 1;
            }
            for frame in &self.chaos_out {
                gateway.ingress(now, frame, fabric);
            }
            gateway.pace(now, fabric);
            fabric.step_slot();
            gateway.poll_egress(fabric, out);
            gateway.drain_control(&mut self.controls);
        }
    }
}
