//! Span recorder for the traced run.
//!
//! Every span wraps one call from the benchmark into a layer's public API
//! (or a harness phase that encloses such calls): its kind, start, end,
//! parent span and a datagram / op id. Spans are kept in memory and written
//! out as JSON lines when the run ends. Per-kind durations and per-layer
//! busy and self time are aggregated as spans close, so the statistics
//! cover every span even when the raw record buffer is full.
//!
//! When tracing is off every method returns at once and nothing is timed.

use std::io::Write as _;
use std::time::Instant;

use crate::util::Rng;

/// A layer of the stack, named after its workspace crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own loop: input generation, checks, bookkeeping.
    Harness,
    /// `ccr-multiring` fabric calls (the `ccr-edf` ring slot runs inside).
    Multiring,
    /// Admission through `Fabric::open_connection*` / `close_connection`,
    /// dominated by the `ccr-calculus` certifier.
    Calculus,
    /// `ccr-gateway` edge calls.
    Gateway,
    /// `ccr-gateway` wire header codec.
    Wire,
    /// `ccr-synth` topology synthesis.
    Synth,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 6] = [
    Layer::Harness,
    Layer::Multiring,
    Layer::Calculus,
    Layer::Gateway,
    Layer::Wire,
    Layer::Synth,
];

impl Layer {
    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Multiring => "multiring",
            Layer::Calculus => "calculus",
            Layer::Gateway => "gateway",
            Layer::Wire => "gateway.wire",
            Layer::Synth => "synth",
        }
    }
}

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// One repetition: set-up plus measured work.
    Rep,
    /// Building topology, admitting residents or links, generating inputs.
    Setup,
    /// The measured phase of a repetition.
    Measure,
    /// One pass of the gateway pump loop (one fabric slot).
    SlotIter,
    /// `Fabric::new`.
    FabricNew,
    /// One chunk of `Fabric::run_slots`.
    RunSlots,
    /// `Fabric::step_slot`.
    StepSlot,
    /// A single `Fabric::open_connection` that admitted.
    Admit,
    /// A single `Fabric::open_connection` that was refused.
    Refuse,
    /// A batch admission (`Fabric::open_connections`, `Gateway::open`).
    Batch,
    /// `Fabric::close_connection`.
    Close,
    /// `Gateway::reconcile`.
    Reconcile,
    /// `Gateway::ingress`.
    Ingress,
    /// `Gateway::pace`.
    Pace,
    /// `Gateway::poll_egress`.
    PollEgress,
    /// `Header::decode` over a run of schedule frames.
    Decode,
    /// `Header::encode_into` over a run of schedule frames.
    Encode,
    /// One `synthesize` call.
    Synthesize,
}

const N_CALLS: usize = 18;

impl Call {
    fn index(self) -> usize {
        self as usize
    }

    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Call::Rep => "rep",
            Call::Setup => "setup",
            Call::Measure => "measure",
            Call::SlotIter => "slot_iter",
            Call::FabricNew => "Fabric::new",
            Call::RunSlots => "Fabric::run_slots",
            Call::StepSlot => "Fabric::step_slot",
            Call::Admit => "Fabric::open_connection(admit)",
            Call::Refuse => "Fabric::open_connection(refuse)",
            Call::Batch => "open_connections(batch)",
            Call::Close => "Fabric::close_connection",
            Call::Reconcile => "Gateway::reconcile",
            Call::Ingress => "Gateway::ingress",
            Call::Pace => "Gateway::pace",
            Call::PollEgress => "Gateway::poll_egress",
            Call::Decode => "Header::decode",
            Call::Encode => "Header::encode_into",
            Call::Synthesize => "synthesize",
        }
    }

    /// The layer the call belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Call::Rep | Call::Setup | Call::Measure | Call::SlotIter => Layer::Harness,
            Call::FabricNew | Call::RunSlots | Call::StepSlot => Layer::Multiring,
            Call::Admit | Call::Refuse | Call::Batch | Call::Close => Layer::Calculus,
            Call::Reconcile | Call::Ingress | Call::Pace | Call::PollEgress => Layer::Gateway,
            Call::Decode | Call::Encode => Layer::Wire,
            Call::Synthesize => Layer::Synth,
        }
    }
}

/// Per-kind duration samples kept for percentiles; beyond this a
/// deterministic reservoir keeps the sample uniform over the whole run.
const SAMPLE_CAP: usize = 1 << 20;
/// Raw span records kept for the written trace.
const RECORD_CAP: usize = 100_000;

struct Open {
    start: Instant,
    child_ns: u64,
    record: u32,
}

/// One recorded span, as written out.
struct Record {
    call: Call,
    id: u64,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing record plus one; 0 for a root span.
    parent: u32,
}

/// Aggregated statistics of one span kind.
#[derive(Default, Clone)]
pub struct CallStats {
    /// Duration samples in ns (reservoir beyond [`SAMPLE_CAP`]).
    pub samples_ns: Vec<f64>,
    /// Spans closed.
    pub count: u64,
    /// Total ns inside the spans.
    pub total_ns: u64,
    /// Items the spans covered (flows of a batch, frames of a codec run).
    pub items: u64,
}

/// The span recorder. Disabled tracers cost one branch per call site.
pub struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<Open>,
    calls: Vec<CallStats>,
    busy_ns: [u64; LAYERS.len()],
    self_ns: [u64; LAYERS.len()],
    records: Vec<Record>,
    reservoir: Rng,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            stack: Vec::new(),
            calls: vec![CallStats::default(); N_CALLS],
            busy_ns: [0; LAYERS.len()],
            self_ns: [0; LAYERS.len()],
            records: Vec::new(),
            reservoir: Rng::new(0x5EED, 0x7AC3),
        }
    }

    /// Switch recording on or off between repetitions.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "switch tracing only between spans");
        self.on = on;
    }

    /// Open a span of kind `call` with datagram / op id `id`.
    #[inline]
    pub fn enter(&mut self, call: Call, id: u64) {
        if !self.on {
            return;
        }
        let record = if self.records.len() < RECORD_CAP {
            let parent = self.stack.last().map_or(0, |o| o.record);
            self.records.push(Record {
                call,
                id,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            self.records.len() as u32
        } else {
            0
        };
        self.stack.push(Open {
            start: Instant::now(),
            child_ns: 0,
            record,
        });
    }

    /// Close the innermost span, relabelled as `call` (an admission is only
    /// known to be an admit or a refusal once it returns), covering `items`
    /// units of work.
    #[inline]
    pub fn exit(&mut self, call: Call, items: u64) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let layer = call.layer() as usize;
        self.busy_ns[layer] += dur;
        self.self_ns[layer] += dur.saturating_sub(open.child_ns);
        let stats = &mut self.calls[call.index()];
        stats.count += 1;
        stats.total_ns += dur;
        stats.items += items;
        if stats.samples_ns.len() < SAMPLE_CAP {
            stats.samples_ns.push(dur as f64);
        } else {
            let slot = self.reservoir.range(0, stats.count) as usize;
            if slot < SAMPLE_CAP {
                stats.samples_ns[slot] = dur as f64;
            }
        }
        if open.record > 0 {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            let rec = &mut self.records[open.record as usize - 1];
            rec.call = call;
            rec.start_ns = start_ns;
            rec.end_ns = start_ns + dur;
        }
    }

    /// Wrap one call in a span of kind `call`.
    #[inline]
    pub fn leaf<T>(&mut self, call: Call, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(call, id);
        let out = f();
        self.exit(call, 1);
        out
    }

    /// Statistics of one span kind.
    pub fn stats(&self, call: Call) -> &CallStats {
        &self.calls[call.index()]
    }

    /// Total and self ns of `layer` over every closed span.
    pub fn layer_ns(&self, layer: Layer) -> (u64, u64) {
        (self.busy_ns[layer as usize], self.self_ns[layer as usize])
    }

    /// Spans closed.
    pub fn span_count(&self) -> u64 {
        self.calls.iter().map(|c| c.count).sum()
    }

    /// Write the kept raw spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.records.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                i + 1,
                r.call.name(),
                r.call.layer().name(),
                r.start_ns,
                r.end_ns,
                r.parent,
                r.id
            )?;
        }
        out.flush()
    }
}
