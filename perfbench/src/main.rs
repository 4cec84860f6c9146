//! Layered benchmark of the CCR-EDF stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! One process, one thread. Each workload builds its inputs from the seed,
//! then repeats *set-up + measured work* until `--seconds` of measured time
//! have passed, with set-up-only repetitions in between for more set-up
//! samples. Every repetition simulates exactly the same thing, so its
//! digest and counts must match the first one bit for bit; a mismatch, or
//! any broken invariant, fails the run.
//!
//! Standard output ends with two JSON lines: a full report (host
//! fingerprint, digest, counts, the workload's own end-to-end metrics and,
//! when traced, every per-layer metric) and the result record whose
//! metrics are the end-to-end set of `BENCHMARK.json` (`--trace 0`) or its
//! per-layer set (`--trace 1`). A traced run alternates untraced and traced
//! repetitions: end-to-end numbers come from the former, per-layer numbers
//! from the latter, and the difference is the tracing overhead.

mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::{Call, Layer, Tracer, LAYERS};
use util::{median, quantile, ratio, Digest, Host, Json};

/// Input size: `Full` for measuring, `Tiny` for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What one repetition produced.
#[derive(Default)]
pub struct Rep {
    /// Units of measured work (slots, frames, operations, matrices).
    pub ops: u64,
    /// Host seconds of the measured phase.
    pub measured_s: f64,
    /// Host latency of each measured operation, in µs.
    pub latencies_us: Vec<f64>,
    /// Host µs per operation over each fixed window of the measured work
    /// (see [`Windows`]).
    pub windows_us: Vec<f64>,
    /// Operations the workload offered to the system, for `failed_share`.
    pub attempted: u64,
    /// Of those, the ones the system shed, refused, dropped or served late.
    pub failed: u64,
    /// Per-layer counts read from the layers' public state.
    pub counts: BTreeMap<&'static str, f64>,
    /// Digest of every simulated statistic.
    pub digest: Digest,
    /// Broken invariants; any entry fails the run.
    pub violations: Vec<String>,
}

impl Rep {
    /// Record a broken invariant.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Groups timed operations into windows of a fixed number of operations.
/// A workload sizes its windows so that each one holds every kind of
/// operation it runs, in the same proportions on every repetition; a
/// window's time per operation then moves with the cost of any of them.
pub struct Windows {
    size: u64,
    ops: u64,
    secs: f64,
}

impl Windows {
    /// Windows of `size` operations.
    pub fn new(size: u64) -> Self {
        Windows {
            size: size.max(1),
            ops: 0,
            secs: 0.0,
        }
    }

    /// Add `ops` operations that took `secs` host seconds; closes the
    /// window into `rep.windows_us` once it holds `size` operations.
    pub fn add(&mut self, rep: &mut Rep, ops: u64, secs: f64) {
        self.ops += ops;
        self.secs += secs;
        if self.ops >= self.size {
            rep.windows_us.push(self.secs * 1e6 / self.ops as f64);
            self.ops = 0;
            self.secs = 0.0;
        }
    }

    /// End the repetition: a partial window is kept only when no window
    /// closed (tiny inputs), and dropped otherwise.
    pub fn finish(self, rep: &mut Rep) {
        if rep.windows_us.is_empty() && self.ops > 0 {
            rep.windows_us.push(self.secs * 1e6 / self.ops as f64);
        }
    }
}

/// How a workload names its own end-to-end metrics in the report.
pub struct Names {
    /// Throughput metric (`slots_per_s`, `frames_per_s`, …).
    pub rate: &'static str,
    /// Latency metric prefix (`datagram`, `admit`, …): `<prefix>_p50_us`.
    pub latency: &'static str,
}

/// One benchmark workload.
pub trait Workload {
    /// Everything set-up builds and the measured phase consumes.
    type State;
    /// The workload's own metric names.
    const NAMES: Names;
    /// Build topology, admit residents or links, generate inputs.
    fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> Self::State;
    /// Run the measured phase, then check its outputs.
    fn run(state: Self::State, tr: &mut Tracer) -> Rep;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload <fabric_soak|fabric_sparse|gateway_overload|admission_churn|synthesis> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("scale")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    use workloads::*;
    match args.workload.as_str() {
        "fabric_soak" => drive::<fabric::Soak>(&args),
        "fabric_sparse" => drive::<fabric::Sparse>(&args),
        "gateway_overload" => drive::<gateway::Overload>(&args),
        "admission_churn" => drive::<admission::Churn>(&args),
        "synthesis" => drive::<synthesis::Family>(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Set-up-only repetitions run between the measured ones while the host
/// time of all set-up samples stays under this share of the measured time
/// so far, so `setup_s` gets many samples spread over the whole run.
const SETUP_SHARE: f64 = 0.25;

fn drive<W: Workload>(args: &Args) -> ExitCode {
    let host = Host::probe();
    let mut tr = Tracer::new(false);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let (mut measured, mut setup_total) = (0.0, 0.0);
    let mut index = 0u64;
    while measured < args.seconds || (args.trace && traced.is_empty()) {
        let trace_this = args.trace && index % 2 == 1;
        tr.set_on(trace_this);
        tr.enter(Call::Rep, index);
        tr.enter(Call::Setup, index);
        let t0 = Instant::now();
        let state = W::setup(args.seed, args.scale, &mut tr);
        let setup_s = t0.elapsed().as_secs_f64();
        tr.exit(Call::Setup, 1);
        tr.enter(Call::Measure, index);
        let rep = W::run(state, &mut tr);
        tr.exit(Call::Measure, 1);
        tr.exit(Call::Rep, 1);
        measured += rep.measured_s;
        setup_total += setup_s;
        eprintln!(
            "rep {index}{}: setup {setup_s:.3} s, {} ops in {:.3} s",
            if trace_this { " (traced)" } else { "" },
            rep.ops,
            rep.measured_s
        );
        if trace_this {
            traced.push(rep);
        } else {
            setups.push(setup_s);
            plain.push(rep);
        }
        index += 1;
        tr.set_on(false);
        while setup_total < SETUP_SHARE * measured {
            let t0 = Instant::now();
            let state = W::setup(args.seed, args.scale, &mut tr);
            setups.push(t0.elapsed().as_secs_f64());
            drop(state);
            setup_total += t0.elapsed().as_secs_f64();
        }
    }
    report::<W>(args, &host, &plain, &traced, &setups, &tr)
}

/// Throughput (all ops over all measured host seconds) and the pooled,
/// sorted latencies of `reps`. Pooling, rather than a median over
/// repetitions, averages over the multi-second fast and slow phases a
/// shared host goes through.
fn aggregate(reps: &[Rep]) -> (f64, Vec<f64>) {
    let ops: u64 = reps.iter().map(|r| r.ops).sum();
    let secs: f64 = reps.iter().map(|r| r.measured_s).sum();
    let mut lat: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    (ratio(ops as f64, secs), lat)
}

fn report<W: Workload>(
    args: &Args,
    host: &Host,
    plain: &[Rep],
    traced: &[Rep],
    setups: &[f64],
    tr: &Tracer,
) -> ExitCode {
    let first = &plain[0];
    let mut violations: Vec<String> = Vec::new();
    for (i, rep) in plain.iter().chain(traced).enumerate() {
        violations.extend(rep.violations.iter().map(|v| format!("rep {i}: {v}")));
        if rep.digest.hex() != first.digest.hex() || rep.counts != first.counts {
            violations.push(format!(
                "rep {i}: digest {} differs from the first repetition's {}",
                rep.digest.hex(),
                first.digest.hex()
            ));
        }
    }
    // The first repetition warms caches and the allocator: it is checked
    // like the others but left out of the timings when others exist.
    let timed = &plain[usize::from(plain.len() > 2)..];
    let (rate, lat) = aggregate(timed);
    let (p50, p99) = (quantile(&lat, 0.50), quantile(&lat, 0.99));
    // On a shared host the same work runs at speeds up to 2× apart, in
    // phases lasting seconds to a minute; interference only ever slows it.
    // The fastest of many short samples spread over the run estimates the
    // uncontended speed, and moves less between runs than a median, a low
    // quantile or a pooled rate, which shift with the share of the run
    // spent in slow phases. So the result record carries the fastest
    // window's time per operation (windows hold every kind of operation)
    // and the fastest set-up.
    let mut windows: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.windows_us.iter().copied())
        .collect();
    windows.sort_by(f64::total_cmp);
    let op_time = quantile(&windows, 0.0);
    let mut setups = setups.to_vec();
    setups.sort_by(f64::total_cmp);
    let setup_s = quantile(&setups, 0.0);
    for (what, v) in [("op time, us", &windows), ("set-up, s", &setups)] {
        let q: Vec<String> = [0.0, 0.05, 0.10, 0.25, 0.50, 0.90]
            .iter()
            .map(|&p| format!("{:.5}", quantile(v, p)))
            .collect();
        eprintln!(
            "{what}: {} samples, min/p5/p10/p25/p50/p90 {}",
            v.len(),
            q.join(" ")
        );
    }
    let rss = util::peak_rss_mb();
    let names = W::NAMES;

    // Full report: the workload's own names, sample counts and host.
    let mut e2e = Json::default();
    let metric = |v: f64, unit: &str, samples: Option<usize>| {
        let mut j = Json::default();
        j.num("value", v).str("unit", unit);
        if let Some(n) = samples {
            j.int("samples", n as u64);
        }
        j.finish()
    };
    e2e.raw("setup_s", &metric(setup_s, "s", Some(setups.len())))
        .raw("setup_median_s", &metric(median(&setups), "s", None))
        .raw(
            "op_time_min_us",
            &metric(op_time, "us", Some(windows.len())),
        )
        .raw(names.rate, &metric(rate, "1/s", None))
        .raw(
            &format!("{}_p50_us", names.latency),
            &metric(p50, "us", Some(lat.len())),
        )
        .raw(
            &format!("{}_p99_us", names.latency),
            &metric(p99, "us", Some(lat.len())),
        )
        .raw(
            "failed_share",
            &metric(
                ratio(first.failed as f64, first.attempted as f64),
                "ratio",
                None,
            ),
        )
        .int("attempted", first.attempted)
        .int("failed", first.failed)
        .raw("peak_rss_mb", &metric(rss, "MB", None));
    let mut hostj = Json::default();
    hostj
        .str("cpu", &host.cpu)
        .int("nproc", host.nproc as u64)
        .str("rustc", host.rustc)
        .str("git_rev", &host.git_rev)
        .int("threads", host.threads as u64);
    let mut counts = Json::default();
    for (k, v) in &first.counts {
        counts.num(k, *v);
    }
    let layer_metrics = if traced.is_empty() {
        Vec::new()
    } else {
        per_layer(tr, &first.counts, traced, rate)
    };
    let mut layers = Json::default();
    for (name, v, unit) in &layer_metrics {
        layers.raw(name, &metric(*v, unit, None));
    }
    let mut full = Json::default();
    full.str("workload", &args.workload)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .str(
            "scale",
            if args.scale == Scale::Tiny {
                "tiny"
            } else {
                "full"
            },
        )
        .raw("host", &hostj.finish())
        .int("reps", plain.len() as u64)
        .int("traced_reps", traced.len() as u64)
        .str("digest", &first.digest.hex())
        .raw("counts", &counts.finish())
        .raw("end_to_end", &e2e.finish());
    if !layer_metrics.is_empty() {
        full.raw("per_layer", &layers.finish());
    }
    let viol: Vec<String> = violations
        .iter()
        .map(|v| format!("\"{}\"", util::escape(v)))
        .collect();
    full.raw("violations", &format!("[{}]", viol.join(",")));
    println!("{{\"report\":{}}}", full.finish());

    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = tr.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    for v in &violations {
        eprintln!("VIOLATION {v}");
    }

    // The result record.
    let mut metrics = Json::default();
    if args.trace {
        for (name, v, unit) in &layer_metrics {
            metrics.raw(name, &metric(*v, unit, None));
        }
    } else {
        metrics
            .raw("setup_s", &metric(setup_s, "s", None))
            .raw("op_time_min_us", &metric(op_time, "us", None))
            .raw("peak_rss_mb", &metric(rss, "MB", None));
    }
    let attempted: u64 = plain.iter().chain(traced).map(|r| r.ops).sum();
    let mut result = Json::default();
    result
        .bool("correct", violations.is_empty())
        .int("attempted", attempted.max(1))
        .int("failed", violations.len() as u64)
        .raw("metrics", &metrics.finish());
    println!("{}", result.finish());
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers the workload
/// does not call read 0.
fn per_layer(
    tr: &Tracer,
    counts: &BTreeMap<&'static str, f64>,
    traced: &[Rep],
    plain_rate: f64,
) -> Vec<(String, f64, &'static str)> {
    let count = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let pct = |call: Call, q: f64, scale: f64| {
        let mut s = tr.stats(call).samples_ns.clone();
        s.sort_by(f64::total_cmp);
        quantile(&s, q) / scale
    };
    let per_item = |call: Call| {
        let s = tr.stats(call);
        ratio(s.total_ns as f64, s.items as f64)
    };
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));

    put("edf.slots", count("edf.slots"), "count");
    put("edf.idle_share", count("edf.idle_share"), "ratio");
    put(
        "edf.grants_per_slot",
        count("edf.grants_per_slot"),
        "1/slot",
    );
    put("edf.master_changes", count("edf.master_changes"), "count");
    put(
        "edf.rt_deadline_misses",
        count("edf.rt_deadline_misses"),
        "count",
    );
    put("edf.fast_forwarded", count("edf.fast_forwarded"), "count");

    put(
        "multiring.run_slots_ns_per_slot",
        per_item(Call::RunSlots),
        "ns",
    );
    put(
        "multiring.step_slot_ns_p50",
        pct(Call::StepSlot, 0.50, 1.0),
        "ns",
    );
    put(
        "multiring.step_slot_ns_p99",
        pct(Call::StepSlot, 0.99, 1.0),
        "ns",
    );
    for k in [
        "multiring.forwarded",
        "multiring.peak_bridge_occupancy",
        "multiring.bridge_drops",
    ] {
        put(k, count(k), "count");
    }
    put(
        "multiring.bridge_wait_p99_us_sim",
        count("multiring.bridge_wait_p99_us_sim"),
        "sim_us",
    );
    put(
        "multiring.e2e_delivered",
        count("multiring.e2e_delivered"),
        "count",
    );
    put(
        "multiring.e2e_missed",
        count("multiring.e2e_missed"),
        "count",
    );

    put("calculus.admit_ns_p50", pct(Call::Admit, 0.50, 1.0), "ns");
    put("calculus.admit_ns_p99", pct(Call::Admit, 0.99, 1.0), "ns");
    put("calculus.refuse_ns_p50", pct(Call::Refuse, 0.50, 1.0), "ns");
    put("calculus.refuse_ns_p99", pct(Call::Refuse, 0.99, 1.0), "ns");
    put("calculus.batch_ns_per_flow", per_item(Call::Batch), "ns");
    put("calculus.close_ns_p50", pct(Call::Close, 0.50, 1.0), "ns");
    put("calculus.close_ns_p99", pct(Call::Close, 0.99, 1.0), "ns");
    let (inc, full) = (
        count("calculus.admit_incremental"),
        count("calculus.admit_full"),
    );
    put("calculus.admit_incremental", inc, "count");
    put("calculus.admit_full", full, "count");
    put(
        "calculus.incremental_share",
        ratio(inc, inc + full),
        "ratio",
    );

    put(
        "synth.matrix_us_p50",
        pct(Call::Synthesize, 0.50, 1e3),
        "us",
    );
    put(
        "synth.matrix_us_p99",
        pct(Call::Synthesize, 0.99, 1e3),
        "us",
    );
    let (calls, moves) = (
        count("synth.certifier_calls"),
        count("synth.moves_accepted"),
    );
    put("synth.certifier_calls", calls, "count");
    put("synth.moves_accepted", moves, "count");
    put(
        "synth.calls_per_accepted_move",
        ratio(calls, moves),
        "ratio",
    );
    put("synth.cost_total", count("synth.cost_total"), "cost");

    put(
        "gateway.reconcile_ns_p50",
        pct(Call::Reconcile, 0.50, 1.0),
        "ns",
    );
    put(
        "gateway.ingress_ns_p50",
        pct(Call::Ingress, 0.50, 1.0),
        "ns",
    );
    put(
        "gateway.ingress_ns_p99",
        pct(Call::Ingress, 0.99, 1.0),
        "ns",
    );
    put("gateway.pace_ns_p50", pct(Call::Pace, 0.50, 1.0), "ns");
    put("gateway.pace_ns_p99", pct(Call::Pace, 0.99, 1.0), "ns");
    put(
        "gateway.poll_egress_ns_p50",
        pct(Call::PollEgress, 0.50, 1.0),
        "ns",
    );
    put(
        "gateway.poll_egress_ns_p99",
        pct(Call::PollEgress, 0.99, 1.0),
        "ns",
    );
    put("gateway.wire.decode_ns", per_item(Call::Decode), "ns");
    put("gateway.wire.encode_ns", per_item(Call::Encode), "ns");
    for k in [
        "gateway.frames_in",
        "gateway.shed",
        "gateway.expired",
        "gateway.decode_errors",
        "gateway.nacks_sent",
        "gateway.backoffs_sent",
        "gateway.delivered",
        "gateway.deadline_missed",
    ] {
        put(k, count(k), "count");
    }
    put(
        "gateway.injected_share",
        ratio(count("gateway.injected"), count("gateway.frames_in")),
        "ratio",
    );

    // Busy and self time of each layer, as shares of the traced
    // repetitions' wall time. The harness spans enclose everything, so
    // only their self time (the benchmark's own work) is a share.
    let wall = tr.stats(Call::Rep).total_ns as f64;
    for layer in LAYERS {
        let (busy, own) = tr.layer_ns(layer);
        if layer != Layer::Harness {
            put(
                &format!("{}.busy_share", layer.name()),
                ratio(busy as f64, wall),
                "ratio",
            );
        }
        put(
            &format!("{}.self_share", layer.name()),
            ratio(own as f64, wall),
            "ratio",
        );
    }
    let (traced_rate, _) = aggregate(traced);
    put(
        "trace.overhead_share",
        ratio(plain_rate, traced_rate) - 1.0,
        "ratio",
    );
    put(
        "trace.spans_per_rep",
        ratio(tr.span_count() as f64, traced.len() as f64),
        "count",
    );
    out
}
