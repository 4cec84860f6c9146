//! The CCR-EDF-specific lint rules.
//!
//! Nine rule families (see `DESIGN.md` §10 for the full rationale table):
//!
//! * `alloc-in-hot-path` — no allocation or cloning in functions reachable
//!   from the slot-engine hot-path roots. The walk distinguishes steady
//!   state from rare events: `// ccr-verify: event_path -- reason` marks a
//!   function (admission, fault reconfiguration) as off the per-slot loop,
//!   pruning it and everything only reachable through it.
//! * `blocking-in-hot-path` — no sleeps, mutex locks, blocking receives or
//!   socket waits reachable from the hot roots **or** the gateway pump
//!   roots: a slot engine that can park mid-slot cannot certify deadlines.
//! * `panic-arith` — no unchecked `+ - * /` or direct indexing on
//!   time/sequence-flavoured values reachable from the hot/pump roots;
//!   overflow panics in debug and silently wraps a deadline in release.
//! * `dimension-mix` — no `+`/`-` mixing picosecond-, slot- and
//!   byte-flavoured identifiers without a named conversion; the paper's
//!   timing model makes unit confusion fatal (a slot count added to a
//!   picosecond deadline admits garbage).
//! * `nondeterminism` — no wall clocks, OS randomness, ambient I/O, or
//!   hash-order iteration in the deterministic model crates.
//! * `time-cast` — no lossy `as` casts on time-flavoured values and no raw
//!   `TimeDelta(..)`/`SimTime(..)` tuple construction outside the newtype
//!   module; use the checked `try_from_ps_f64`-style constructors.
//! * `unwrap-in-lib` — no bare `.unwrap()` (or empty-message `.expect("")`)
//!   in non-test library code; state the invariant in an `expect` message
//!   or return a typed error.
//! * `protocol-pin` — declaratively pinned code fragments (the parallel
//!   claim protocol) must appear verbatim both at their anchor and in
//!   every mirror (the loom model), so the model checker and the
//!   implementation cannot drift apart silently.
//! * `dead-pub` — every non-test `pub fn` of a library crate must be
//!   reached from a real entry point (a binary, an example, a bench, a
//!   perfbench workload, a trait impl, the facade prelude) or be declared
//!   intentional API in [`RuleConfig::workspace`].
//!
//! The hot-path walks ride on the type-aware call graph: trait-dispatched
//! calls fan out to every impl, and each finding prints the resolved chain
//! including the `trait::method → impl` edge taken.
//!
//! Every source finding can be silenced by a `// ccr-verify: allow(<rule>)
//! -- reason` marker on the offending line or the line above; the reason is
//! mandatory and unused markers are themselves findings.

use crate::callgraph::{CallGraph, FnRef, ReachMap};
use crate::model::{match_brace, FileModel, FnDef, FnOwner};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

pub const RULE_ALLOC: &str = "alloc-in-hot-path";
pub const RULE_BLOCK: &str = "blocking-in-hot-path";
pub const RULE_PANIC: &str = "panic-arith";
pub const RULE_DIM: &str = "dimension-mix";
pub const RULE_DET: &str = "nondeterminism";
pub const RULE_CAST: &str = "time-cast";
pub const RULE_UNWRAP: &str = "unwrap-in-lib";
pub const RULE_DEPS: &str = "deps";
pub const RULE_MARKER: &str = "allow-marker";
pub const RULE_PIN: &str = "protocol-pin";
pub const RULE_DEAD_PUB: &str = "dead-pub";

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// File the finding is in (workspace-relative where possible).
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// Human-readable diagnosis.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error[{}] {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )?;
        write!(f, "    | {}", self.snippet)
    }
}

/// One declaratively pinned protocol: named string fragments defined as
/// `pub const NAME: &str = "..";` in the anchor file must appear verbatim
/// at least twice in the anchor (definition + the real code) and at least
/// once in every mirror file.
#[derive(Debug, Clone)]
pub struct ProtocolPin {
    /// Display name of the pinned protocol.
    pub name: String,
    /// Workspace-relative path of the file defining the fragments.
    pub anchor: String,
    /// Workspace-relative paths (possibly outside the scanned crates, e.g.
    /// the loom model) that must embed each fragment verbatim.
    pub mirrors: Vec<String>,
}

/// Which crates each rule family applies to, and which functions root the
/// hot-path walk.
pub struct RuleConfig {
    /// Crates whose library code must be deterministic (rule 2 + 3).
    pub det_crates: BTreeSet<String>,
    /// Crates whose library code must not `unwrap()` (rule 4).
    pub lib_crates: BTreeSet<String>,
    /// `(crate, fn name)` pairs that root the hot-path walk in addition to
    /// `ccr-verify: hot_path` markers.
    pub hot_roots: Vec<(String, String)>,
    /// `(crate, fn name)` pairs rooting the gateway pump walks. Pumps join
    /// the blocking and panic-arith walks but **not** the alloc walk: the
    /// gateway copies each datagram into sim-owned buffers by design (the
    /// wire edge is allowed to allocate; the slot engine behind it is not).
    pub pump_roots: Vec<(String, String)>,
    /// Path suffixes exempt from the `time-cast` rule (the sanctioned
    /// newtype impls live here).
    pub cast_exempt: Vec<String>,
    /// Path suffixes exempt from the `nondeterminism` rule: the sim↔wall
    /// bridge files whose entire purpose is wall clocks and sockets. The
    /// deterministic core behind them stays fully swept.
    pub det_exempt: Vec<String>,
    /// Declaratively pinned protocols (see [`ProtocolPin`]).
    pub protocol_pins: Vec<ProtocolPin>,
    /// `(crate, fn name, reason)`: public functions kept although no entry
    /// point reaches them. They root the `dead-pub` walk.
    pub declared_api: &'static [(&'static str, &'static str, &'static str)],
}

impl RuleConfig {
    /// The workspace's production configuration.
    pub fn workspace() -> RuleConfig {
        let det: &[&str] = &[
            "ccr-edf",
            "ccr-sim",
            "ccr-phys",
            "ccr-multiring",
            "ccr-calculus",
            "ccr-traffic",
            "ccr-gateway",
            "ccr-synth",
            "cc-fpr",
        ];
        RuleConfig {
            det_crates: det.iter().map(|s| s.to_string()).collect(),
            lib_crates: det.iter().map(|s| s.to_string()).collect(),
            hot_roots: vec![
                ("ccr-edf".into(), "step_slot".into()),
                ("ccr-edf".into(), "arbitrate_into".into()),
                ("ccr-multiring".into(), "step_slot".into()),
            ],
            pump_roots: vec![
                ("ccr-gateway".into(), "ingress".into()),
                ("ccr-gateway".into(), "pace".into()),
                ("ccr-gateway".into(), "reconcile".into()),
                ("ccr-gateway".into(), "poll_egress".into()),
            ],
            cast_exempt: vec!["sim/src/time.rs".into()],
            det_exempt: vec![
                // The gateway's wall-time edge: clocks, sockets, and the
                // thread handoff. Everything behind Gateway::ingress is sim
                // time and stays in the sweep.
                "gateway/src/clock.rs".into(),
                "gateway/src/udp.rs".into(),
                "gateway/src/handoff.rs".into(),
            ],
            protocol_pins: vec![ProtocolPin {
                name: "parallel-claim".into(),
                anchor: "crates/sim/src/parallel.rs".into(),
                mirrors: vec!["verify/loom/src/lib.rs".into()],
            }],
            declared_api: &[
                (
                    "ccr-calculus",
                    "left_over",
                    "oracle for left_over_into in tests/laws.rs",
                ),
                (
                    "ccr-edf",
                    "admitted_count",
                    "policies compared in tests/proptests.rs",
                ),
                (
                    "ccr-edf",
                    "decode_with_errors",
                    "degraded decoder, checked by proptests",
                ),
                (
                    "ccr-multiring",
                    "repair_bridge_at",
                    "repair half of kill_bridge_at",
                ),
                (
                    "ccr-phys",
                    "intersection",
                    "LinkSet algebra, pinned by proptests",
                ),
                (
                    "ccr-phys",
                    "multicast_segment",
                    "multicast geometry, pinned by proptests",
                ),
                (
                    "ccr-phys",
                    "upstream",
                    "inverse of downstream, pinned by proptests",
                ),
                (
                    "ccr-phys",
                    "with_link_length",
                    "link length swept by the timing proptests",
                ),
                (
                    "ccr-sim",
                    "from_ns",
                    "ns member of the from_ps/us/ms constructors",
                ),
                ("ccr-sim", "merge", "stats combination, pinned by proptests"),
                (
                    "ccr-sim",
                    "n_rows",
                    "row counts asserted by ccr-netsim's tests",
                ),
                (
                    "ccr-sim",
                    "variance",
                    "Summary moment; the merge proptest reads it",
                ),
            ],
        }
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Find occurrences of `pat` in `text` honouring identifier boundaries on
/// whichever ends of the pattern are identifier characters.
fn token_positions(text: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let first_is_ident = pat.as_bytes().first().is_some_and(|&b| is_ident(b));
    let last_is_ident = pat.as_bytes().last().is_some_and(|&b| is_ident(b));
    let mut from = 0;
    while let Some(hit) = text[from..].find(pat) {
        let at = from + hit;
        from = at + 1;
        if first_is_ident && at > 0 && is_ident(text.as_bytes()[at - 1]) {
            continue;
        }
        if last_is_ident
            && text
                .as_bytes()
                .get(at + pat.len())
                .is_some_and(|&b| is_ident(b))
        {
            continue;
        }
        out.push(at);
    }
    out
}

// ---------------------------------------------------------------------
// Rule 1: alloc-in-hot-path
// ---------------------------------------------------------------------

const ALLOC_TOKENS: &[(&str, &str)] = &[
    ("vec!", "vec! allocates"),
    ("format!", "format! allocates a String"),
    ("Vec::new", "Vec::new allocates on first push"),
    ("VecDeque::new", "VecDeque::new allocates on first push"),
    ("Box::new", "Box::new heap-allocates"),
    ("String::new", "String::new allocates on first push"),
    (".to_vec(", "to_vec clones into a fresh allocation"),
    (".to_owned(", "to_owned clones into a fresh allocation"),
    (".to_string(", "to_string allocates"),
    (".collect(", "collect usually allocates its container"),
    ("with_capacity(", "with_capacity allocates"),
    (
        ".clone(",
        "clone may allocate; hot-path state must be reused",
    ),
];

/// Collect the hot-walk roots and event-path pruning set. `pumps` adds
/// the gateway pump roots (blocking / panic-arith walks) on top of the
/// slot-engine hot roots and `hot_path` markers.
fn hot_roots(files: &[FileModel], cfg: &RuleConfig, pumps: bool) -> (Vec<FnRef>, BTreeSet<FnRef>) {
    let mut roots = Vec::new();
    let mut pruned = BTreeSet::new();
    for (fi, f) in files.iter().enumerate() {
        for (gi, g) in f.fns.iter().enumerate() {
            if g.is_test {
                continue;
            }
            if g.event_path {
                pruned.insert((fi, gi));
                continue;
            }
            let named = |set: &[(String, String)]| {
                set.iter().any(|(c, n)| *c == f.crate_name && *n == g.name)
            };
            if g.hot_root || named(&cfg.hot_roots) || (pumps && named(&cfg.pump_roots)) {
                roots.push((fi, gi));
            }
        }
    }
    (roots, pruned)
}

/// Reconstruct one example call chain to `at` for a diagnostic, so the
/// reader can audit (and, if bogus, break) the edge. Trait-dispatch edges
/// print the resolution taken: `step [dyn Mac::arb -> Fast] -> arb`.
fn chain_of(files: &[FileModel], reachable: &ReachMap, mut at: FnRef) -> String {
    let mut parts = vec![files[at.0].fns[at.1].name.clone()];
    while let Some(Some((parent, label))) = reachable.get(&at) {
        if let Some(l) = label {
            parts.push(format!("[{l}]"));
        }
        at = *parent;
        parts.push(files[at.0].fns[at.1].name.clone());
        if parts.len() > 16 {
            break;
        }
    }
    parts.reverse();
    parts.join(" -> ")
}

/// Deny allocation-shaped calls in every function reachable from the
/// hot-path roots — except through `event_path`-marked functions, which
/// handle rare events (admission, faults, teardown) and are pruned from
/// the walk along with everything only reachable through them.
pub fn rule_alloc(files: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let (roots, pruned) = hot_roots(files, cfg, false);
    let reachable = graph.reachable_pruned(files, &roots, &pruned);
    let mut findings = Vec::new();
    for &(fi, gi) in reachable.keys() {
        let f = &files[fi];
        let g: &FnDef = &f.fns[gi];
        let body = &f.clean[g.body.0..=g.body.1];
        for (tok, why) in ALLOC_TOKENS {
            for at in token_positions(body, tok) {
                let line = f.line_of(g.body.0 + at);
                findings.push(Finding {
                    path: f.path.display().to_string(),
                    line,
                    rule: RULE_ALLOC,
                    message: format!(
                        "`{}` inside `{}` (hot via {}): {}",
                        tok.trim_matches(&['.', '('][..]),
                        g.name,
                        chain_of(files, &reachable, (fi, gi)),
                        why
                    ),
                    snippet: f.snippet(line).to_string(),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: blocking-in-hot-path
// ---------------------------------------------------------------------

const BLOCK_TOKENS: &[(&str, &str)] = &[
    ("sleep(", "sleeping parks the thread mid-slot"),
    (".lock(", "Mutex::lock can block on contention"),
    (".recv(", "blocking receive parks until a message arrives"),
    (".recv_timeout(", "timed receive still parks the thread"),
    (".recv_from(", "blocking socket receive"),
    (".accept(", "blocking socket accept"),
    (".wait(", "condvar/barrier wait parks the thread"),
    (
        ".wait_timeout(",
        "timed condvar wait still parks the thread",
    ),
    (".join()", "joining a thread blocks until it exits"),
    ("park(", "thread::park blocks indefinitely"),
    ("read_to_end(", "blocking stream read"),
    ("read_to_string(", "blocking stream read"),
];

/// Deny blocking-shaped calls in every function reachable from the hot
/// roots *or* the gateway pump roots: a slot engine (or the wire pump
/// feeding it) that can park mid-slot cannot certify any deadline.
pub fn rule_blocking(files: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let (roots, pruned) = hot_roots(files, cfg, true);
    let reachable = graph.reachable_pruned(files, &roots, &pruned);
    let mut findings = Vec::new();
    for &(fi, gi) in reachable.keys() {
        let f = &files[fi];
        let g: &FnDef = &f.fns[gi];
        let body = &f.clean[g.body.0..=g.body.1];
        // Method names this body calls on *workspace* receivers: a
        // `.accept(..)` on a workspace type is that type's method (whose
        // body the walk scans anyway), not the std blocking primitive.
        let local_methods = graph.workspace_method_names(files, (fi, gi));
        for (tok, why) in BLOCK_TOKENS {
            let method = tok.trim_matches(&['.', '(', ')'][..]);
            if tok.starts_with('.') && local_methods.contains(method) {
                continue;
            }
            for at in token_positions(body, tok) {
                let line = f.line_of(g.body.0 + at);
                findings.push(Finding {
                    path: f.path.display().to_string(),
                    line,
                    rule: RULE_BLOCK,
                    message: format!(
                        "`{}` inside `{}` (hot via {}): {}",
                        tok.trim_matches(&['.', '('][..]),
                        g.name,
                        chain_of(files, &reachable, (fi, gi)),
                        why
                    ),
                    snippet: f.snippet(line).to_string(),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rules: panic-arith and dimension-mix (flavoured-operand analysis)
// ---------------------------------------------------------------------

/// Identifier segments that mark a value as time- or sequence-flavoured.
const FLAVOUR_SEGS: &[&str] = &[
    "ps", "ns", "us", "ms", "seq", "slot", "slots", "deadline", "time", "stamp", "now", "tick",
    "ticks", "epoch", "horizon", "period", "budget", "laxity",
];

/// Is any `_`-separated segment of `ident` time/seq-flavoured?
fn flavoured(ident: &str) -> bool {
    ident.split('_').any(|s| FLAVOUR_SEGS.contains(&s))
}

/// The operand adjacent to a binary operator, as an identifier when one
/// can be read off the line.
fn left_operand(line: &str, op_at: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut k = op_at;
    while k > 0 && bytes[k - 1].is_ascii_whitespace() {
        k -= 1;
    }
    if k == 0 {
        return None;
    }
    if bytes[k - 1] == b')' {
        // `f(x) + y` — attribute the operand to the call `f`.
        let mut depth = 0i32;
        let mut p = k - 1;
        loop {
            match bytes[p] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if p == 0 {
                return None;
            }
            p -= 1;
        }
        let mut s = p;
        while s > 0 && is_ident(bytes[s - 1]) {
            s -= 1;
        }
        if s == p {
            return None;
        }
        return Some(line[s..p].to_string());
    }
    if !is_ident(bytes[k - 1]) {
        return None;
    }
    let end = k;
    while k > 0 && is_ident(bytes[k - 1]) {
        k -= 1;
    }
    let ident = &line[k..end];
    if ident.as_bytes()[0].is_ascii_digit() {
        return None; // numeric literal
    }
    Some(ident.to_string())
}

/// The operand to the right of a binary operator, as an identifier.
fn right_operand(line: &str, after: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut k = after;
    while k < bytes.len() && bytes[k].is_ascii_whitespace() {
        k += 1;
    }
    // Borrows/derefs don't change the flavour; `self.` prefixes peel off.
    while k < bytes.len() && (bytes[k] == b'&' || bytes[k] == b'*') {
        k += 1;
    }
    let start = k;
    while k < bytes.len() && is_ident(bytes[k]) {
        k += 1;
    }
    if k == start || bytes[start].is_ascii_digit() {
        return None;
    }
    let ident = &line[start..k];
    if ident == "self" && bytes.get(k) == Some(&b'.') {
        return right_operand(line, k + 1);
    }
    Some(ident.to_string())
}

/// Binary `+ - * /` operator positions on a line, excluding compound
/// assignment (`+=`), arrows (`->`), doubled operators and unary uses.
fn binary_op_positions(line: &str) -> Vec<(usize, char)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        let op = match b {
            b'+' | b'-' | b'*' | b'/' => b as char,
            _ => continue,
        };
        let next = bytes.get(i + 1);
        if next == Some(&b'=') || next == Some(&b'>') || next == Some(&b) {
            continue;
        }
        if i > 0 {
            let prev = bytes[i - 1];
            if matches!(
                prev,
                b'+' | b'-' | b'*' | b'/' | b'=' | b'<' | b'>' | b'(' | b','
            ) {
                continue; // unary or part of another operator
            }
        }
        out.push((i, op));
    }
    out
}

/// Lines carrying checked/saturating/wrapping evidence are exempt: the
/// author already chose an overflow policy.
fn has_overflow_policy(line: &str) -> bool {
    ["saturating_", "checked_", "wrapping_", "overflowing_"]
        .iter()
        .any(|p| line.contains(p))
}

/// Deny unchecked arithmetic and direct indexing on time/seq-flavoured
/// values in every function reachable from the hot or pump roots: in
/// release builds, an overflowing deadline silently wraps; in debug it
/// panics mid-slot. Both ends a certification.
pub fn rule_panic_arith(files: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let (roots, pruned) = hot_roots(files, cfg, true);
    let reachable = graph.reachable_pruned(files, &roots, &pruned);
    let mut findings = Vec::new();
    for &(fi, gi) in reachable.keys() {
        let f = &files[fi];
        let g: &FnDef = &f.fns[gi];
        let body = &f.clean[g.body.0..=g.body.1];
        let first_line = f.line_of(g.body.0);
        for (off, line) in body.lines().enumerate() {
            let line_no = first_line + off;
            if has_overflow_policy(line) {
                continue;
            }
            let mut hit: Option<String> = None;
            for (at, op) in binary_op_positions(line) {
                let (Some(l), Some(r)) = (left_operand(line, at), right_operand(line, at + 1))
                else {
                    continue;
                };
                if flavoured(&l) && flavoured(&r) {
                    hit = Some(format!(
                        "unchecked `{l} {op} {r}` on time/seq-flavoured values"
                    ));
                    break;
                }
            }
            if hit.is_none() {
                // Direct indexing by a single flavoured identifier:
                // `ring[seq]` panics when the sequence outruns the buffer.
                for at in token_positions(line, "[") {
                    let close = line[at..].find(']').map(|c| at + c);
                    let Some(close) = close else { continue };
                    let inner = line[at + 1..close].trim();
                    let bytes = line.as_bytes();
                    let indexed = at > 0 && is_ident(bytes[at - 1]);
                    if indexed
                        && !inner.is_empty()
                        && inner.bytes().all(is_ident)
                        && !inner.as_bytes()[0].is_ascii_digit()
                        && flavoured(inner)
                    {
                        hit = Some(format!("direct indexing by time/seq-flavoured `{inner}`"));
                        break;
                    }
                }
            }
            if let Some(what) = hit {
                findings.push(Finding {
                    path: f.path.display().to_string(),
                    line: line_no,
                    rule: RULE_PANIC,
                    message: format!(
                        "{} inside `{}` (hot via {}): overflow panics in debug and wraps a \
                         deadline in release — use checked_/saturating_ ops or a masked index",
                        what,
                        g.name,
                        chain_of(files, &reachable, (fi, gi)),
                    ),
                    snippet: f.snippet(line_no).to_string(),
                });
            }
        }
    }
    findings
}

/// The unit dimension an identifier carries, if any. Time wins over slot
/// and byte so conversion products (`slot_ps`) count as time.
fn dim_of(ident: &str) -> Option<&'static str> {
    const TIME: &[&str] = &[
        "ps", "ns", "us", "ms", "time", "stamp", "deadline", "horizon", "period", "laxity",
    ];
    const SLOT: &[&str] = &["slot", "slots"];
    const BYTE: &[&str] = &["byte", "bytes", "mtu", "octet", "octets"];
    let mut dim = None;
    for seg in ident.split('_') {
        if TIME.contains(&seg) {
            return Some("time");
        }
        if SLOT.contains(&seg) {
            dim = dim.or(Some("slot"));
        }
        if BYTE.contains(&seg) {
            dim = dim.or(Some("byte"));
        }
    }
    dim
}

/// Substrings that mark a line as a *named conversion* between dimensions
/// — the sanctioned way to cross them.
const DIM_CONVERSIONS: &[&str] = &[
    "per_slot",
    "per_byte",
    "per_frame",
    "ps_per",
    "bytes_per",
    "slots_per",
    "to_ps",
    "to_slot",
    "to_byte",
    "from_ps",
    "from_slot",
    "from_byte",
    "as_ps",
    "as_slot",
    "as_byte",
    "slot_ps",
    "slot_duration",
    "byte_ps",
    "ps_of",
];

/// Deny `+`/`-` between identifiers of different unit dimensions
/// (picoseconds, slots, bytes) anywhere in the deterministic crates:
/// adding a slot count to a picosecond deadline admits garbage, and the
/// type system cannot see it because both are plain integers.
/// Multiplication and division are exempt — they *are* the conversions.
pub fn rule_dimension_mix(files: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if !cfg.det_crates.contains(&f.crate_name) {
            continue;
        }
        for (line_no, line) in f.code_lines() {
            if DIM_CONVERSIONS.iter().any(|c| line.contains(c)) {
                continue;
            }
            for (at, op) in binary_op_positions(line) {
                if op != '+' && op != '-' {
                    continue;
                }
                let (Some(l), Some(r)) = (left_operand(line, at), right_operand(line, at + 1))
                else {
                    continue;
                };
                let (Some(dl), Some(dr)) = (dim_of(&l), dim_of(&r)) else {
                    continue;
                };
                if dl != dr {
                    findings.push(Finding {
                        path: f.path.display().to_string(),
                        line: line_no,
                        rule: RULE_DIM,
                        message: format!(
                            "`{l} {op} {r}` mixes {dl}-flavoured and {dr}-flavoured values \
                             without a named conversion — route through a *_per_*/to_* helper \
                             so the unit change is visible"
                        ),
                        snippet: f.snippet(line_no).to_string(),
                    });
                    break;
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: protocol-pin
// ---------------------------------------------------------------------

/// Parse `pub const NAME: &str = "..";` fragments from raw source text.
fn pinned_fragments(raw: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for at in token_positions(raw, "const ") {
        let rest = &raw[at + 6..];
        let bytes = rest.as_bytes();
        let mut i = 0;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let ns = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        if i == ns {
            continue;
        }
        let name = rest[ns..i].to_string();
        let Some(colon) = rest[i..].find(':') else {
            continue;
        };
        let after_colon = &rest[i + colon + 1..];
        if !after_colon.trim_start().starts_with("&str") {
            continue;
        }
        let Some(q1) = after_colon.find('"') else {
            continue;
        };
        let lit_start = i + colon + 1 + q1 + 1;
        let Some(q2) = rest[lit_start..].find('"') else {
            continue;
        };
        out.push((name, rest[lit_start..lit_start + q2].to_string()));
    }
    out
}

/// Enforce every [`ProtocolPin`]: each pinned fragment must appear at
/// least twice in the anchor (the definition plus the real code it pins)
/// and at least once in every mirror. Mirrors may live outside the
/// scanned crates (the loom model), so this rule reads them from disk.
pub fn rule_protocol_pin(root: &Path, files: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for pin in &cfg.protocol_pins {
        let anchor_model = files
            .iter()
            .find(|f| f.path.display().to_string().ends_with(&pin.anchor));
        let Some(anchor) = anchor_model else {
            findings.push(Finding {
                path: pin.anchor.clone(),
                line: 1,
                rule: RULE_PIN,
                message: format!(
                    "protocol `{}`: anchor file not found in the workspace scan",
                    pin.name
                ),
                snippet: String::new(),
            });
            continue;
        };
        let frags = pinned_fragments(&anchor.raw);
        if frags.is_empty() {
            findings.push(Finding {
                path: pin.anchor.clone(),
                line: 1,
                rule: RULE_PIN,
                message: format!(
                    "protocol `{}`: anchor defines no `pub const NAME: &str` fragments",
                    pin.name
                ),
                snippet: String::new(),
            });
            continue;
        }
        for (name, lit) in &frags {
            if anchor.raw.matches(lit.as_str()).count() < 2 {
                findings.push(Finding {
                    path: pin.anchor.clone(),
                    line: 1,
                    rule: RULE_PIN,
                    message: format!(
                        "protocol `{}`: fragment `{name}` is defined but its code \
                         (`{lit}`) no longer appears in the anchor — the pin is dead \
                         or the implementation drifted",
                        pin.name
                    ),
                    snippet: String::new(),
                });
            }
        }
        for mirror in &pin.mirrors {
            let Ok(text) = std::fs::read_to_string(root.join(mirror)) else {
                findings.push(Finding {
                    path: mirror.clone(),
                    line: 1,
                    rule: RULE_PIN,
                    message: format!("protocol `{}`: mirror file is missing", pin.name),
                    snippet: String::new(),
                });
                continue;
            };
            for (name, lit) in &frags {
                if !text.contains(lit.as_str()) {
                    findings.push(Finding {
                        path: mirror.clone(),
                        line: 1,
                        rule: RULE_PIN,
                        message: format!(
                            "protocol `{}`: mirror does not embed fragment `{name}` \
                             (`{lit}`) — the model checker no longer checks the \
                             shipped protocol",
                            pin.name
                        ),
                        snippet: String::new(),
                    });
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule 2: nondeterminism
// ---------------------------------------------------------------------

const DET_TOKENS: &[(&str, &str)] = &[
    ("Instant", "wall-clock reads make runs irreproducible"),
    ("SystemTime", "wall-clock reads make runs irreproducible"),
    ("thread_rng", "OS randomness breaks bit-identical replay"),
    (
        "rand::",
        "external RNGs break bit-identical replay; use ccr_sim::rng",
    ),
    (
        "std::fs::",
        "ambient file I/O does not belong in the model crates",
    ),
    (
        "std::env::",
        "environment reads make behaviour machine-dependent",
    ),
    ("println!", "model crates must not write to stdout"),
    ("eprintln!", "model crates must not write to stderr"),
    ("dbg!", "leftover debugging macro"),
];

const HASH_ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Identifiers bound to `HashMap`/`HashSet` in this file: struct fields
/// (`name: HashMap<..>`) and let-bindings (`let name = HashMap::new()`),
/// also when the type is path-qualified (`std::collections::HashMap`) or
/// named through a `type Alias = HashMap<..>;` of this file.
fn hash_bound_idents(clean: &str) -> BTreeSet<String> {
    let mut types = vec!["HashMap".to_string(), "HashSet".to_string()];
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < types.len() {
        for at in token_positions(clean, &types[i]) {
            match binding_of(clean, at) {
                Some(Binding::Alias(name)) if !types.contains(&name) => types.push(name),
                Some(Binding::Name(name)) => {
                    out.insert(name);
                }
                _ => {}
            }
        }
        i += 1;
    }
    out
}

/// What a hash-container type token at `at` is bound to.
enum Binding {
    /// A field, let-binding or constant (`name: T`, `name = T::new()`).
    Name(String),
    /// A type alias (`type Name = T;`), whose uses bind in turn.
    Alias(String),
}

/// The binding a type token at byte `at` belongs to: walk left over its
/// path (`std::collections::`), then over whitespace to a `:` or `=`, then
/// to the bound identifier.
fn binding_of(clean: &str, at: usize) -> Option<Binding> {
    let bytes = clean.as_bytes();
    let skip_ws = |mut j: usize| {
        while j > 0 && bytes[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        j
    };
    let skip_ident = |mut j: usize| {
        while j > 0 && is_ident(bytes[j - 1]) {
            j -= 1;
        }
        j
    };
    let mut j = at;
    while j >= 2 && &bytes[j - 2..j] == b"::" {
        j = skip_ident(j - 2);
    }
    j = skip_ws(j);
    let sep = *bytes.get(j.checked_sub(1)?)?;
    if sep != b':' && sep != b'=' || sep == b':' && j >= 2 && bytes[j - 2] == b':' {
        return None; // not a type ascription or an assignment
    }
    let end = skip_ws(j - 1);
    let start = skip_ident(end);
    if start == end {
        return None;
    }
    let name = clean[start..end].to_string();
    let before = skip_ws(start);
    let is_alias = sep == b'='
        && before >= 4
        && &bytes[before - 4..before] == b"type"
        && (before == 4 || !is_ident(bytes[before - 5]));
    Some(if is_alias {
        Binding::Alias(name)
    } else {
        Binding::Name(name)
    })
}

/// Deny wall clocks, OS randomness, ambient I/O and hash-order iteration
/// in the deterministic crates.
pub fn rule_determinism(files: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if !cfg.det_crates.contains(&f.crate_name) {
            continue;
        }
        let path_str = f.path.display().to_string();
        if cfg.det_exempt.iter().any(|suf| path_str.ends_with(suf)) {
            continue;
        }
        for (line_no, text) in f.code_lines() {
            for (tok, why) in DET_TOKENS {
                if !token_positions(text, tok).is_empty() {
                    findings.push(Finding {
                        path: f.path.display().to_string(),
                        line: line_no,
                        rule: RULE_DET,
                        message: format!("`{tok}` in a deterministic crate: {why}"),
                        snippet: f.snippet(line_no).to_string(),
                    });
                }
            }
        }
        // Hash-order iteration: only for identifiers this file binds to a
        // hash container. The receiver and the method may sit on different
        // lines (rustfmt splits long chains), so methods are matched over
        // the whole cleaned text and reported on the method's line.
        let idents = hash_bound_idents(&f.clean);
        for h in &idents {
            let mut lines = BTreeSet::new();
            for at in token_positions(&f.clean, h) {
                let rest = f.clean[at + h.len()..].trim_start();
                if HASH_ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
                    lines.insert(f.line_of(f.clean.len() - rest.len()));
                }
            }
            for (line_no, text) in f.code_lines() {
                if for_loop_over(text, h) {
                    lines.insert(line_no);
                }
            }
            for line_no in lines {
                if !f.is_test_line(line_no) {
                    findings.push(Finding {
                        path: f.path.display().to_string(),
                        line: line_no,
                        rule: RULE_DET,
                        message: format!(
                            "iteration over hash container `{h}`: hash order is \
                             nondeterministic — use a BTreeMap/BTreeSet or sort first"
                        ),
                        snippet: f.snippet(line_no).to_string(),
                    });
                }
            }
        }
    }
    findings
}

/// Does this line `for .. in ..` over identifier `h` (possibly behind
/// `&`, `&mut` or `self.`)?
fn for_loop_over(line: &str, h: &str) -> bool {
    if !line.contains("for ") {
        return false;
    }
    let Some(pos) = line.find(" in ") else {
        return false;
    };
    let mut rest = line[pos + 4..].trim_start();
    rest = rest.trim_start_matches('&');
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    rest = rest.strip_prefix("self.").unwrap_or(rest);
    let ident_len = rest.bytes().take_while(|&b| is_ident(b)).count();
    &rest[..ident_len] == h
}

// ---------------------------------------------------------------------
// Rule 3: time-cast
// ---------------------------------------------------------------------

const INT_CASTS: &[&str] = &["as u64", "as u32", "as i64"];
const FLOAT_EVIDENCE: &[&str] = &["f64", "round(", "ceil(", "floor(", ".ln("];

/// Deny lossy float→integer casts on time-flavoured lines and raw
/// `TimeDelta(..)`/`SimTime(..)` construction outside the newtype module.
pub fn rule_time_cast(files: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if !cfg.det_crates.contains(&f.crate_name) {
            continue;
        }
        let path_str = f.path.display().to_string();
        if cfg.cast_exempt.iter().any(|suf| path_str.ends_with(suf)) {
            continue;
        }
        for (line_no, text) in f.code_lines() {
            let int_cast = INT_CASTS
                .iter()
                .any(|c| !token_positions(text, c).is_empty());
            if int_cast {
                // Boundary-aware matching so `div_ceil(`/`log2_ceil(` do not
                // count as float evidence.
                let floaty = FLOAT_EVIDENCE
                    .iter()
                    .any(|e| !token_positions(text, e).is_empty());
                let psy = !token_positions(text, "from_ps(").is_empty()
                    || !token_positions(text, "from_ns(").is_empty();
                if floaty || psy {
                    findings.push(Finding {
                        path: path_str.clone(),
                        line: line_no,
                        rule: RULE_CAST,
                        message: "lossy `as` cast on a time-flavoured value: NaN/negative/huge \
                                  inputs silently wrap — use TimeDelta::try_from_ps_f64 or a \
                                  checked conversion"
                            .into(),
                        snippet: f.snippet(line_no).to_string(),
                    });
                }
            }
            for ctor in ["TimeDelta(", "SimTime("] {
                if !token_positions(text, ctor).is_empty() {
                    findings.push(Finding {
                        path: path_str.clone(),
                        line: line_no,
                        rule: RULE_CAST,
                        message: format!(
                            "raw `{}..)` tuple construction bypasses the checked newtype \
                             constructors; use from_ps/try_from_ps_f64",
                            ctor
                        ),
                        snippet: f.snippet(line_no).to_string(),
                    });
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule 4: unwrap-in-lib
// ---------------------------------------------------------------------

/// Deny bare `.unwrap()` / `.unwrap_unchecked()` / empty-message
/// `.expect("")` in non-test library code.
pub fn rule_unwrap(files: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if !cfg.lib_crates.contains(&f.crate_name) {
            continue;
        }
        for (line_no, text) in f.code_lines() {
            for pat in [".unwrap()", ".unwrap_unchecked()"] {
                if text.contains(pat) {
                    findings.push(Finding {
                        path: f.path.display().to_string(),
                        line: line_no,
                        rule: RULE_UNWRAP,
                        message: format!(
                            "bare `{pat}` in library code: state the invariant with \
                             `.expect(\"invariant: ...\")` or return a typed error"
                        ),
                        snippet: f.snippet(line_no).to_string(),
                    });
                }
            }
        }
        // Empty expect-messages need the raw text (strings are blanked in
        // the cleaned copy).
        for (i, raw_line) in f.raw.lines().enumerate() {
            let line_no = i + 1;
            if f.is_test_line(line_no) {
                continue;
            }
            if raw_line.contains(".expect(\"\")") {
                findings.push(Finding {
                    path: f.path.display().to_string(),
                    line: line_no,
                    rule: RULE_UNWRAP,
                    message: "`.expect(\"\")` with an empty message is an unwrap in disguise"
                        .into(),
                    snippet: f.snippet(line_no).to_string(),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: dead-pub
// ---------------------------------------------------------------------

/// A binary target's source: `src/main.rs` or a file under `src/bin/`.
fn is_bin(f: &FileModel) -> bool {
    let path = f.path.to_string_lossy();
    path.ends_with("src/main.rs") || path.contains("src/bin/")
}

/// The identifier tokens of `text`.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}

/// Flag every non-test `pub fn`, free or inherent, that no real entry point
/// reaches, in the `lib_crates` and in every crate that ships a binary.
///
/// The roots are every non-test fn of a binary target and of `callers`
/// (examples, benches, perfbench: parsed for this rule only), every
/// trait-impl method and trait default body, the names in the facade's
/// `prelude` (`src/lib.rs`), and `cfg.declared_api`. A reached body
/// reaches every non-test fn whose name appears in it as an identifier
/// token, which covers calls, `Type::name` paths and fns passed as values.
/// Matching by name can miss a dead fn that shares its name with a live
/// one; it never flags a reached one.
pub fn rule_dead_pub(files: &[FileModel], callers: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let all: Vec<&FileModel> = files.iter().chain(callers).collect();
    let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
    let mut todo: Vec<FnRef> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    for (fi, f) in all.iter().enumerate() {
        let entry = fi >= files.len() || is_bin(f);
        for (gi, g) in f.fns.iter().enumerate() {
            if g.is_test {
                continue;
            }
            by_name.entry(&g.name).or_default().push((fi, gi));
            let declared = cfg
                .declared_api
                .iter()
                .any(|(c, n, _)| *c == f.crate_name && *n == g.name);
            if entry || declared || !inherent(f, g) {
                todo.push((fi, gi));
            }
        }
        if f.path.as_path() == Path::new("src/lib.rs") {
            if let Some(at) = token_positions(&f.clean, "mod prelude").first() {
                let open = at + f.clean[*at..].find('{').unwrap_or(0);
                names.extend(idents(&f.clean[open..=match_brace(&f.clean, open)]));
            }
        }
    }
    let mut reached = BTreeSet::new();
    let mut expanded = BTreeSet::new();
    loop {
        while let Some(name) = names.pop() {
            if expanded.insert(name) {
                todo.extend(by_name.get(name).into_iter().flatten());
            }
        }
        let Some(at) = todo.pop() else { break };
        if reached.insert(at) {
            let (f, g) = (all[at.0], &all[at.0].fns[at.1]);
            names.extend(idents(&f.clean[g.body.0..=g.body.1]));
        }
    }

    let mut scope: BTreeSet<&str> = cfg.lib_crates.iter().map(String::as_str).collect();
    scope.extend(
        files
            .iter()
            .filter(|f| is_bin(f))
            .map(|f| f.crate_name.as_str()),
    );
    let mut findings = Vec::new();
    let mut declared_found = vec![false; cfg.declared_api.len()];
    for (fi, f) in files.iter().enumerate() {
        if !scope.contains(f.crate_name.as_str()) {
            continue;
        }
        for (gi, g) in f.fns.iter().enumerate() {
            if !g.is_pub || g.is_test || !inherent(f, g) {
                continue;
            }
            for (k, (c, n, _)) in cfg.declared_api.iter().enumerate() {
                declared_found[k] |= *c == f.crate_name && *n == g.name;
            }
            if !reached.contains(&(fi, gi)) {
                findings.push(Finding {
                    path: f.path.display().to_string(),
                    line: g.line,
                    rule: RULE_DEAD_PUB,
                    message: format!(
                        "`pub fn {}` is reached from no binary, example, bench, perfbench \
                         workload or trait impl: delete it, move it under #[cfg(test)], or \
                         declare it in RuleConfig::workspace()",
                        g.name
                    ),
                    snippet: f.snippet(g.line).to_string(),
                });
            }
        }
    }
    // A declared entry must name a live `pub fn` and say why it is kept.
    for ((c, n, reason), found) in cfg.declared_api.iter().zip(declared_found) {
        if !found || reason.trim().is_empty() {
            findings.push(Finding {
                path: format!("RuleConfig::workspace() declared_api {c}::{n}"),
                line: 1,
                rule: RULE_DEAD_PUB,
                message: "a declared entry must name a non-test `pub fn` in scope and give a \
                          reason"
                    .into(),
                snippet: String::new(),
            });
        }
    }
    findings
}

/// A free fn or an inherent method: not a trait default body or a
/// trait-impl method.
fn inherent(f: &FileModel, g: &FnDef) -> bool {
    match g.owner {
        FnOwner::Free => true,
        FnOwner::Impl(i) => f.impls[i].trait_name.is_none(),
        FnOwner::Trait(_) => false,
    }
}

// ---------------------------------------------------------------------
// Marker application
// ---------------------------------------------------------------------

/// Apply allow-markers: drop suppressed findings, then report invalid or
/// unused markers as findings of their own.
pub fn apply_markers(files: &[FileModel], findings: Vec<Finding>) -> Vec<Finding> {
    let mut used = vec![Vec::new(); files.len()];
    for (fi, f) in files.iter().enumerate() {
        used[fi] = vec![false; f.markers.len()];
    }
    let mut kept = Vec::new();
    'next: for finding in findings {
        for (fi, f) in files.iter().enumerate() {
            if f.path.display().to_string() != finding.path {
                continue;
            }
            for (mi, m) in f.markers.iter().enumerate() {
                let covers = m.line == finding.line || m.line + 1 == finding.line;
                if covers && m.rule == finding.rule && !m.reason.is_empty() {
                    used[fi][mi] = true;
                    continue 'next;
                }
            }
        }
        kept.push(finding);
    }
    for (fi, f) in files.iter().enumerate() {
        for (mi, m) in f.markers.iter().enumerate() {
            if m.rule.starts_with("<unparseable") {
                kept.push(Finding {
                    path: f.path.display().to_string(),
                    line: m.line,
                    rule: RULE_MARKER,
                    message: format!("unparseable ccr-verify directive {}", m.rule),
                    snippet: f.snippet(m.line).to_string(),
                });
            } else if m.reason.is_empty() {
                kept.push(Finding {
                    path: f.path.display().to_string(),
                    line: m.line,
                    rule: RULE_MARKER,
                    message: format!(
                        "allow({}) without a reason: every exception must explain itself",
                        m.rule
                    ),
                    snippet: f.snippet(m.line).to_string(),
                });
            } else if !used[fi][mi] {
                kept.push(Finding {
                    path: f.path.display().to_string(),
                    line: m.line,
                    rule: RULE_MARKER,
                    message: format!(
                        "allow({}) suppresses nothing — stale marker, remove it",
                        m.rule
                    ),
                    snippet: f.snippet(m.line).to_string(),
                });
            }
        }
    }
    kept.sort();
    kept.dedup();
    kept
}

/// Run every source rule (not the deps audit) over the given models.
pub fn run_all(files: &[FileModel], cfg: &RuleConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(rule_alloc(files, cfg));
    findings.extend(rule_blocking(files, cfg));
    findings.extend(rule_panic_arith(files, cfg));
    findings.extend(rule_dimension_mix(files, cfg));
    findings.extend(rule_determinism(files, cfg));
    findings.extend(rule_time_cast(files, cfg));
    findings.extend(rule_unwrap(files, cfg));
    apply_markers(files, findings)
}
