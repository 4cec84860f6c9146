//! Incremental fixed-point delay-bound solver for (possibly cyclic) ring
//! fabrics, with EDF-aware left-over service.
//!
//! Model: each ring (or bridge queue) offers one aggregate service priced by
//! its rate-latency minorant; each flow follows a fixed path of servers,
//! entering hop `i` after a constant delay `hop_delay[i]`, and carries a
//! per-hop *deadline class* (`classes[i]`, picoseconds of relative deadline;
//! `f64::INFINITY` marks a hop scheduled blindly). At every server two
//! left-over curves are formed:
//!
//! * **blind**: `β_lo = (β − Σ α_cross)⁺` — sound for any work-conserving
//!   multiplexer;
//! * **EDF**: per-class left-over where a cross flow of class `D'` competing
//!   with a flow of class `D` contributes `α_cross(t + D − D')⁺` — cross
//!   traffic with *later* deadlines is advanced (contributes less), earlier
//!   deadlines are shifted (contribute more). This is the classic EDF
//!   residual-service bound; hops whose server mixes classes get both curves
//!   and every bound takes the **min of the two branches**, so EDF pricing
//!   is never looser than blind pricing.
//!
//! The per-hop output — the arrival at the next hop — is the deconvolution
//! of the hop arrival against the rate-latency bound of the left-over curve
//! (min-envelope of both branches where EDF applies).
//!
//! Cyclic dependencies are handled as in Amari & Mifdaoui
//! (arXiv:1605.07353): iterate the propagation until the hop arrivals stop
//! changing, reject sets whose burstiness diverges. The iteration is
//! monotone from the optimistic start, so it either stabilises or blows
//! past [`BURST_CAP`] / [`MAX_ITERATIONS`].
//!
//! # Incremental operation
//!
//! [`IncrementalSolver`] keeps the converged per-flow hop arrivals as
//! state. An [`IncrementalSolver::admit`] / [`IncrementalSolver::remove`]
//! re-derives only the *dirty set*: the servers the changed flows touch,
//! closed under downstream burst propagation (if server `s` is dirty,
//! every server later on the path of any flow through `s` is dirty too).
//! Flows with no hop on a dirty server keep their stored arrivals and
//! bounds verbatim — their update inputs are untouched, so re-iterating
//! them would reproduce the stored values bit for bit.
//!
//! The dirty flows split in two. A flow with a dirty hop before its last
//! hop *iterates*: its arrivals after its first dirty hop restart from the
//! source curve and the sweeps re-derive them. Every other dirty flow is
//! *final-only*: its only dirty hop is its last, whose output feeds
//! nothing, so none of its arrivals can move. The sweeps visit only the
//! iterating flows and skip their terminal hops; the final pass re-prices
//! every dirty hop of every dirty flow. Non-convergence of a restricted
//! solve taints the solver; while tainted every operation falls back to a
//! full re-solve, and an exact full solve clears the taint.
//!
//! # Kept aggregates
//!
//! Each server keeps its cross-traffic aggregates — prefix and suffix
//! sums over its member list, sums within each deadline-class run, and
//! the cross-class EDF sum of each run — across sweeps and operations. A
//! membership change marks the server for a full refold; every arrival
//! write records the moved member, and the next build refolds only the
//! prefix sums from the lowest moved member on, the suffix sums up to the
//! highest, and the class runs between them. A run's cross-class sum is
//! folded on its first use after a refold, from two running tables over
//! the finite-class runs (the earlier runs shifted to its deadline, the
//! later ones advanced) whose entries are refolded on demand, each at
//! most once per refold: O(runs) curve operations per server. The only
//! folds skipped are those whose inputs have not changed, and every fold
//! that runs applies the same curve operations in the same order as a
//! from-scratch build, so the kept aggregates are bit-identical to
//! rebuilt ones.
//!
//! Sweep discipline (identical for full and restricted solves, which is
//! what makes `force_full` a bit-exact reference): the aggregates are
//! brought up to date at the start of each sweep (Jacobi with respect to
//! cross flows), while a flow's own chain propagates within the sweep
//! (Gauss–Seidel along its path). All aggregates and outputs are compacted
//! to [`MAX_PIECES`] pieces — a sound over-approximation that stops
//! segment-count creep.
//!
//! # Exact undo
//!
//! Every admission is one frame of a solver-owned undo log. Before it
//! re-derives anything, the frame records the taint flag and the state of
//! every resident dirty flow: arrivals after the first hop, per-hop delays
//! and backlogs, path bounds. A refused admission pops its frame, and a
//! dropped [`SolverSession`] pops all of its frames: the candidates leave
//! and the logged state is copied back, so the solver is exactly as if the
//! candidates were never tried, with no second solve.
//!
//! # Storage
//!
//! Flow states sit in one vector, and a key-ordered index maps each key
//! to its state. A server's member list is sorted by (class, key, hop);
//! each member names its flow's state, and each state stores its member's
//! position in every hop's list. An insertion finds its place once by
//! search; an insertion or removal then renumbers the tail of the list it
//! changed. So no pass searches a member list, and the dirty flows come
//! out of one walk over the index, already in key order.

use crate::curve::{backlog_bound, delay_bound, ArrivalCurve, RateLatency, ServiceCurve};
use core::cmp::Ordering;
use std::collections::BTreeMap;

/// Hard iteration ceiling: the solver provably terminates within this many
/// rounds, converged or not.
pub const MAX_ITERATIONS: usize = 64;

/// Burst ceiling (slots): any hop arrival whose burst exceeds this is
/// declared divergent immediately.
pub const BURST_CAP: f64 = 1e12;

/// Relative burst-change tolerance: an iteration that is still moving at
/// [`MAX_ITERATIONS`] but by no more than this is accepted (and taints an
/// incremental solver, forcing the next operation to re-solve fully).
pub const CONVERGENCE_TOL: f64 = 1e-9;

/// Piece budget for aggregates and propagated arrivals; exceeding curves
/// are compacted to a sound concave over-approximation.
pub const MAX_PIECES: usize = 8;

/// One flow through the fabric.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Server index per hop, in traversal order (no repeats).
    pub path: Vec<usize>,
    /// Arrival curve at the source node (slots / picoseconds).
    pub arrival: ArrivalCurve,
    /// Constant delay paid *before* entering each hop (picoseconds):
    /// `hop_delay[0]` is usually `0`, later entries model the bridge
    /// crossing from the previous ring.
    pub hop_delay: Vec<f64>,
    /// Relative deadline class per hop (picoseconds, `> 0`);
    /// `f64::INFINITY` prices the hop as a blind multiplexer.
    pub classes: Vec<f64>,
}

impl FlowSpec {
    /// A flow priced blindly at every hop (no EDF class information).
    pub fn blind(path: Vec<usize>, arrival: ArrivalCurve, hop_delay: Vec<f64>) -> FlowSpec {
        let classes = vec![f64::INFINITY; path.len()];
        FlowSpec {
            path,
            arrival,
            hop_delay,
            classes,
        }
    }
}

/// A fabric to bound: one service curve per server plus the flow set.
#[derive(Debug, Clone)]
pub struct FabricModel {
    /// Aggregate service curve offered by each server; the solver prices
    /// each by its rate-latency minorant (exact for rate-latency inputs).
    pub services: Vec<ServiceCurve>,
    /// All flows sharing the fabric.
    pub flows: Vec<FlowSpec>,
}

/// Per-flow certified bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowBounds {
    /// End-to-end delay bound (picoseconds), constant hop delays included.
    pub e2e_delay: f64,
    /// Per-hop queueing delay bounds (picoseconds), same order as the path.
    pub hop_delays: Vec<f64>,
    /// Worst per-hop backlog bound along the path (slots).
    pub backlog: f64,
}

/// A converged fixed point.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Sweeps needed to stabilise (1 for a single-hop flow set).
    pub iterations: usize,
    /// Bounds per flow, in input order.
    pub flows: Vec<FlowBounds>,
}

/// Outcome of an incremental operation that kept the solver consistent.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Sweeps executed by the fixed-point iteration.
    pub iterations: usize,
    /// `true` when the iteration stabilised exactly (bit-for-bit fixed
    /// point); `false` when it was accepted at [`CONVERGENCE_TOL`] after
    /// [`MAX_ITERATIONS`] sweeps, which taints the solver.
    pub exact: bool,
    /// `true` when the operation ran as a full re-solve (first fill,
    /// forced, or tainted) rather than a dirty-set warm start.
    pub full: bool,
    /// Keys of the flows whose bounds were re-derived; every other
    /// resident flow kept its stored bounds verbatim.
    pub dirty_flows: Vec<u64>,
    /// How many of the dirty flows the sweeps iterated (those with a dirty
    /// hop before their last); the rest were only re-priced.
    pub iterated_flows: usize,
}

/// Why the solver rejected the set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveError {
    /// A flow's path references a server outside `services` or visits a
    /// server twice, the path/delay/class lengths disagree, a key is
    /// duplicated, or a class is not positive.
    MalformedFlow {
        /// Index into the batch (for [`solve`], the index into
        /// [`FabricModel::flows`]).
        flow: usize,
    },
    /// The long-run rates alone overload a server: `Σ αᵢ.rate ≥ R`.
    Utilisation {
        /// Server index.
        ring: usize,
        /// Aggregate long-run demand (slots per picosecond).
        demand: f64,
        /// The server's guaranteed long-run rate.
        capacity: f64,
    },
    /// Output burstiness did not converge: it crossed [`BURST_CAP`] or was
    /// still moving after [`MAX_ITERATIONS`] rounds.
    Diverged {
        /// Rounds executed before giving up.
        iterations: usize,
        /// Largest hop-arrival burst seen (slots).
        worst_burst: f64,
    },
}

impl core::fmt::Display for SolveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolveError::MalformedFlow { flow } => {
                write!(f, "flow {flow} has an invalid path, class, or hop-delay vector")
            }
            SolveError::Utilisation { ring, demand, capacity } => write!(
                f,
                "ring {ring} over-utilised: demand {demand:.3e} ≥ capacity {capacity:.3e} slots/ps"
            ),
            SolveError::Diverged { iterations, worst_burst } => write!(
                f,
                "burstiness diverged after {iterations} iteration(s) (worst burst {worst_burst:.3e} slots)"
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental solver state
// ---------------------------------------------------------------------------

/// One (flow, hop) pair resident at a server, ordered by deadline class so
/// class runs are contiguous in the member list.
#[derive(Debug, Clone, Copy)]
struct Member {
    class: f64,
    key: u64,
    hop: u32,
    /// Index of the flow's state in `IncrementalSolver::states` (not part
    /// of the order: a key has one state).
    ix: u32,
}

fn member_cmp(a: &Member, b: &Member) -> Ordering {
    a.class
        .total_cmp(&b.class)
        .then(a.key.cmp(&b.key))
        .then(a.hop.cmp(&b.hop))
}

/// Position of `key`'s hop `hop` in a server's member list, found by
/// search: the oracle the final pass checks each stored position against
/// in debug builds.
fn member_index(mem: &[Member], spec: &FlowSpec, key: u64, hop: usize) -> usize {
    let m = Member {
        class: spec.classes[hop],
        key,
        hop: hop as u32,
        ix: 0,
    };
    mem.binary_search_by(|x| member_cmp(x, &m))
        .expect("member present")
}

#[derive(Debug, Clone)]
struct FlowState {
    spec: FlowSpec,
    /// Index of each hop's member in its server's member list, kept
    /// current by every insertion and removal there.
    pos: Vec<u32>,
    /// Arrival curve entering each hop; `arrivals[0]` is the source curve
    /// shifted by `hop_delay[0]` and never changes.
    arrivals: Vec<ArrivalCurve>,
    bounds: FlowBounds,
    /// Per-hop backlog bounds, kept so a dirty-set pass can recompute the
    /// path maximum without revisiting clean hops.
    hop_backlogs: Vec<f64>,
    /// Undo frame that last logged this flow, or that admitted it: a flow
    /// is logged at most once per frame.
    frame: u64,
}

/// One server's cross-traffic aggregates, kept across sweeps and
/// operations and refolded only where a member's arrival moved.
#[derive(Debug, Clone)]
struct ServerAgg {
    /// `prefix[i] = Σ_{j ≤ i} α_j` over the member list, compacted.
    prefix: Vec<ArrivalCurve>,
    /// `suffix[i] = Σ_{j ≥ i} α_j`.
    suffix: Vec<ArrivalCurve>,
    /// Within-class-run prefix/suffix sums (only built when `!uniform`).
    wprefix: Vec<ArrivalCurve>,
    wsuffix: Vec<ArrivalCurve>,
    /// Member index → class-run ordinal.
    run_of: Vec<usize>,
    /// Run ordinal → first member index; one sentinel entry at the end.
    run_start: Vec<usize>,
    /// Run ordinal → deadline class of its members, ascending.
    run_class: Vec<f64>,
    /// Number of finite-class runs: runs `0..finite`; run `finite`, when
    /// present, holds the blind hops (class ∞).
    finite: usize,
    /// Running tables over the finite runs: for `1 ≤ r < finite`,
    /// `left[r]` is the runs before `r` seen at `D_r` (shifted left by
    /// their deadline gaps); for `r + 1 < finite`, `right[r]` is the runs
    /// after `r` seen at `D_r` (advanced). `left[r]` is valid for
    /// `r < left_ok`, `right[r]` for `r ≥ right_ok`; no other slot is
    /// read. Entries are extended on demand, each at most once per refold.
    left: Vec<ArrivalCurve>,
    right: Vec<ArrivalCurve>,
    left_ok: usize,
    right_ok: usize,
    /// Per run `r`: Σ over other runs `r'` of that run's aggregate shifted
    /// by `D_r − D_{r'}` (advanced when negative) — the cross-class part of
    /// the EDF competing work, shared by every member of run `r`. Folded
    /// on first use: valid only where `edf_fresh[r]`.
    edf_base: Vec<ArrivalCurve>,
    edf_fresh: Vec<bool>,
    /// All members share one class: EDF pricing degenerates to blind.
    uniform: bool,
    /// The member list changed since the last build.
    stale: bool,
    /// Lowest and highest member whose arrival moved since the last build
    /// (`lo > hi` when none did).
    lo: usize,
    hi: usize,
}

impl ServerAgg {
    fn new() -> ServerAgg {
        ServerAgg {
            prefix: Vec::new(),
            suffix: Vec::new(),
            wprefix: Vec::new(),
            wsuffix: Vec::new(),
            run_of: Vec::new(),
            run_start: Vec::new(),
            run_class: Vec::new(),
            finite: 0,
            left: Vec::new(),
            right: Vec::new(),
            left_ok: 1,
            right_ok: 0,
            edf_base: Vec::new(),
            edf_fresh: Vec::new(),
            uniform: true,
            stale: true,
            lo: usize::MAX,
            hi: 0,
        }
    }

    /// Record that member `idx`'s arrival changed.
    fn moved(&mut self, idx: usize) {
        self.lo = self.lo.min(idx);
        self.hi = self.hi.max(idx);
    }

    /// Bring the aggregates up to date with the current member arrivals,
    /// refolding only what a membership change or a moved member reaches.
    fn build(&mut self, states: &[FlowState], mem: &[Member]) {
        let n = mem.len();
        if self.stale {
            self.stale = false;
            self.run_of.clear();
            self.run_start.clear();
            self.run_class.clear();
            for i in 0..n {
                if i == 0 || mem[i].class.to_bits() != mem[i - 1].class.to_bits() {
                    self.run_start.push(i);
                    self.run_class.push(mem[i].class);
                }
                self.run_of.push(self.run_start.len() - 1);
            }
            let runs = self.run_class.len();
            self.run_start.push(n);
            self.uniform = runs == 1;
            self.finite = self.run_class.partition_point(|c| c.is_finite());
            ensure_curves(&mut self.prefix, n);
            ensure_curves(&mut self.suffix, n);
            if !self.uniform {
                ensure_curves(&mut self.wprefix, n);
                ensure_curves(&mut self.wsuffix, n);
                ensure_curves(&mut self.edf_base, runs);
                ensure_curves(&mut self.left, self.finite);
                ensure_curves(&mut self.right, self.finite);
            }
            self.edf_fresh.clear();
            self.edf_fresh.resize(runs, false);
            self.left_ok = 1;
            self.right_ok = self.finite.saturating_sub(1);
            self.lo = 0;
            self.hi = n - 1;
        } else if self.lo > self.hi {
            return;
        }
        let (lo, hi) = (self.lo, self.hi);
        self.lo = usize::MAX;
        self.hi = 0;

        for i in lo..n {
            if i == 0 {
                self.prefix[0].copy_from(member_arrival(states, &mem[0]));
            } else {
                let (a, b) = self.prefix.split_at_mut(i);
                a[i - 1].plus_into(member_arrival(states, &mem[i]), &mut b[0]);
                b[0].compact(MAX_PIECES);
            }
        }
        for i in (0..=hi).rev() {
            if i == n - 1 {
                self.suffix[i].copy_from(member_arrival(states, &mem[i]));
            } else {
                let (a, b) = self.suffix.split_at_mut(i + 1);
                b[0].plus_into(member_arrival(states, &mem[i]), &mut a[i]);
                a[i].compact(MAX_PIECES);
            }
        }
        if self.uniform {
            return;
        }
        let (first, last) = (self.run_of[lo], self.run_of[hi]);
        for r in first..=last {
            let (st, en) = (self.run_start[r], self.run_start[r + 1]);
            for i in st.max(lo)..en {
                if i == st {
                    self.wprefix[st].copy_from(member_arrival(states, &mem[st]));
                } else {
                    let (a, b) = self.wprefix.split_at_mut(i);
                    a[i - 1].plus_into(member_arrival(states, &mem[i]), &mut b[0]);
                    b[0].compact(MAX_PIECES);
                }
            }
            for i in (st..=hi.min(en - 1)).rev() {
                if i == en - 1 {
                    self.wsuffix[i].copy_from(member_arrival(states, &mem[i]));
                } else {
                    let (a, b) = self.wsuffix.split_at_mut(i + 1);
                    b[0].plus_into(member_arrival(states, &mem[i]), &mut a[i]);
                    a[i].compact(MAX_PIECES);
                }
            }
        }
        // A run's cross-class sum reads every other run's aggregate, so it
        // survives only when its own run was the one refolded. `left[r]`
        // reads the finite runs below `r`, `right[r]` those above.
        for (r, fresh) in self.edf_fresh.iter_mut().enumerate() {
            *fresh &= first == last && r == first;
        }
        if first < self.finite {
            self.left_ok = self.left_ok.min(first + 1);
            self.right_ok = self.right_ok.max(last.min(self.finite - 1));
        }
    }

    /// Extend the running tables until `left[r]` and `right[r]` are
    /// valid, with `A_q` run `q`'s aggregate:
    /// `left[q] = shift(compact(left[q−1] + A_{q−1}), D_q − D_{q−1})` and
    /// `right[q] = advance(compact(right[q+1] + A_{q+1}), D_{q+1} − D_q)`.
    fn fold_tables(&mut self, r: usize, tmp: &mut ArrivalCurve) {
        let (f, class) = (self.finite, &self.run_class);
        let agg = |q: usize| &self.wprefix[self.run_start[q + 1] - 1];
        while self.left_ok <= r {
            let q = self.left_ok;
            if q == 1 {
                agg(0).shift_time_into(class[1] - class[0], &mut self.left[1]);
            } else {
                self.left[q - 1].plus_into(agg(q - 1), tmp);
                tmp.compact(MAX_PIECES);
                tmp.shift_time_into(class[q] - class[q - 1], &mut self.left[q]);
            }
            self.left_ok = q + 1;
        }
        while self.right_ok > r {
            let q = self.right_ok - 1;
            if q + 2 == f {
                agg(f - 1).advance_time_into(class[f - 1] - class[q], &mut self.right[q]);
            } else {
                self.right[q + 1].plus_into(agg(q + 1), tmp);
                tmp.compact(MAX_PIECES);
                tmp.advance_time_into(class[q + 1] - class[q], &mut self.right[q]);
            }
            self.right_ok = q;
        }
    }

    /// Fold run `r`'s cross-class EDF sum if a refold invalidated it: the
    /// other runs' aggregates viewed through the deadline offset
    /// `d = D_r − D_{r'}` (blind hops — infinite class — mix at zero
    /// offset). A finite run adds its two running-table entries and the
    /// blind run; the blind run's sum is the finite members' prefix sum.
    fn fold_edf_base(&mut self, r: usize, tmp: &mut ArrivalCurve) {
        if self.edf_fresh[r] {
            return;
        }
        self.edf_fresh[r] = true;
        let f = self.finite;
        if r == f {
            self.edf_base[r].copy_from(&self.prefix[self.run_start[f] - 1]);
            return;
        }
        self.fold_tables(r, tmp);
        let terms = [
            (r > 0).then_some(&self.left[r]),
            (r + 1 < f).then_some(&self.right[r]),
            (f < self.run_class.len()).then(|| &self.wprefix[self.run_start[f + 1] - 1]),
        ];
        let base = &mut self.edf_base[r];
        let mut have = false;
        for term in terms.into_iter().flatten() {
            if have {
                base.plus_into(term, tmp);
                core::mem::swap(base, tmp);
            } else {
                base.copy_from(term);
                have = true;
            }
            base.compact(MAX_PIECES);
        }
    }
}

/// Store the index of every member of `mem[from..]` in its flow's state.
fn renumber(states: &mut [FlowState], mem: &[Member], from: usize) {
    for (j, m) in mem.iter().enumerate().skip(from) {
        states[m.ix as usize].pos[m.hop as usize] = j as u32;
    }
}

/// Reusable curve buffers for the sweep inner loop.
#[derive(Debug, Clone)]
struct Bufs {
    zero: ArrivalCurve,
    cross: ArrivalCurve,
    cross_edf: ArrivalCurve,
    tmp: ArrivalCurve,
    out_a: ArrivalCurve,
    out_b: ArrivalCurve,
    next: ArrivalCurve,
    lo_blind: ServiceCurve,
    lo_edf: ServiceCurve,
}

impl Bufs {
    fn new() -> Bufs {
        Bufs {
            zero: ArrivalCurve::zero(),
            cross: ArrivalCurve::placeholder(),
            cross_edf: ArrivalCurve::placeholder(),
            tmp: ArrivalCurve::placeholder(),
            out_a: ArrivalCurve::placeholder(),
            out_b: ArrivalCurve::placeholder(),
            next: ArrivalCurve::placeholder(),
            lo_blind: ServiceCurve::placeholder(),
            lo_edf: ServiceCurve::placeholder(),
        }
    }
}

#[derive(Debug, Clone)]
struct Scratch {
    dirty_server: Vec<bool>,
    /// Worklist of the dirty-server closure.
    work: Vec<usize>,
    /// Dirty flows as `(key, state index)`, in key order.
    dirty: Vec<(u64, usize)>,
    /// State indices of the dirty flows with a dirty hop before their
    /// last — the only flows whose arrivals can move — in key order.
    iter: Vec<usize>,
    bufs: Bufs,
}

impl Scratch {
    fn new(n_servers: usize) -> Scratch {
        Scratch {
            dirty_server: vec![false; n_servers],
            work: Vec::new(),
            dirty: Vec::new(),
            iter: Vec::new(),
            bufs: Bufs::new(),
        }
    }
}

/// Where one admission's records start in the [`UndoLog`].
#[derive(Debug, Clone, Copy)]
struct Frame {
    entries: usize,
    curves: usize,
    reals: usize,
    candidates: usize,
    /// The taint flag before the admission.
    tainted: bool,
}

/// One logged flow: its path bounds plus where its arrivals and per-hop
/// bounds sit in the log's buffers.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    ix: usize,
    e2e_delay: f64,
    backlog: f64,
    curves: usize,
    reals: usize,
}

/// Pre-admission state of the flows each admission re-derives, one frame
/// per admission of the open transaction. The buffers are reused across
/// operations: only `curves[..n_curves]` is live.
#[derive(Debug, Clone, Default)]
struct UndoLog {
    frames: Vec<Frame>,
    entries: Vec<LogEntry>,
    /// Logged arrivals after each flow's first hop.
    curves: Vec<ArrivalCurve>,
    n_curves: usize,
    /// Logged per-hop delays, then per-hop backlogs, per entry.
    reals: Vec<f64>,
    /// Keys each frame admitted, frame after frame.
    candidates: Vec<u64>,
}

impl UndoLog {
    fn clear(&mut self) {
        self.frames.clear();
        self.entries.clear();
        self.n_curves = 0;
        self.reals.clear();
        self.candidates.clear();
    }
}

/// Warm-started network-calculus engine: admits and releases flows against
/// a fixed server set, re-deriving only the dirty set of servers each
/// change can influence. See the module docs for the dirty-set closure
/// rule, the kept aggregates, the taint/fallback contract and the undo log.
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    services: Vec<RateLatency>,
    /// Resident flow keys → the index of their state in `states`.
    index: BTreeMap<u64, usize>,
    /// Flow states; the indices listed in `free` hold no resident flow.
    states: Vec<FlowState>,
    free: Vec<usize>,
    members: Vec<Vec<Member>>,
    aggs: Vec<ServerAgg>,
    tainted: bool,
    force_full: bool,
    /// Id of the newest undo frame.
    frame: u64,
    log: UndoLog,
    scratch: Scratch,
}

impl IncrementalSolver {
    /// A solver over the given servers, each priced by its rate-latency
    /// minorant (exact when the input is a rate-latency curve, which is
    /// what every caller in this workspace builds).
    pub fn new(services: &[ServiceCurve]) -> IncrementalSolver {
        let rl: Vec<RateLatency> = services.iter().map(|s| s.rate_latency_bound()).collect();
        let n = rl.len();
        IncrementalSolver {
            services: rl,
            index: BTreeMap::new(),
            states: Vec::new(),
            free: Vec::new(),
            members: vec![Vec::new(); n],
            aggs: (0..n).map(|_| ServerAgg::new()).collect(),
            tainted: false,
            force_full: false,
            frame: 0,
            log: UndoLog::default(),
            scratch: Scratch::new(n),
        }
    }

    /// Number of resident flows.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no flow is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// `true` when `key` is resident.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// The certified bounds of a resident flow.
    pub fn bounds(&self, key: u64) -> Option<&FlowBounds> {
        self.index.get(&key).map(|&ix| &self.states[ix].bounds)
    }

    /// The spec a resident flow was admitted with.
    pub fn spec(&self, key: u64) -> Option<&FlowSpec> {
        self.index.get(&key).map(|&ix| &self.states[ix].spec)
    }

    /// Resident flow keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.keys().copied()
    }

    /// Force every subsequent operation to run as a full re-solve — the
    /// bit-exact reference the differential suite compares against.
    pub fn set_force_full(&mut self, on: bool) {
        self.force_full = on;
    }

    /// `true` while the last restricted solve was accepted inexactly; the
    /// next operation will re-solve fully and clear this on success.
    pub fn tainted(&self) -> bool {
        self.tainted
    }

    /// Admit a batch of flows atomically: either every flow is admitted
    /// and the report lists the re-derived dirty set, or the solver state
    /// (flows, arrivals, bounds, taint) is exactly as before the call.
    pub fn admit(&mut self, batch: &[(u64, FlowSpec)]) -> Result<SolveReport, SolveError> {
        let result = self.admit_frame(batch);
        self.log.clear();
        result
    }

    /// Admit `batch` as a new undo frame; a refusal pops the frame again.
    fn admit_frame(&mut self, batch: &[(u64, FlowSpec)]) -> Result<SolveReport, SolveError> {
        let n_servers = self.services.len();
        for (bi, (key, spec)) in batch.iter().enumerate() {
            let dup = batch[..bi].iter().any(|(k, _)| k == key) || self.index.contains_key(key);
            if dup || !spec_ok(spec, n_servers) {
                return Err(SolveError::MalformedFlow { flow: bi });
            }
        }
        self.frame += 1;
        self.log.frames.push(Frame {
            entries: self.log.entries.len(),
            curves: self.log.n_curves,
            reals: self.log.reals.len(),
            candidates: self.log.candidates.len(),
            tainted: self.tainted,
        });
        let full = self.force_full || self.tainted;
        self.scratch.dirty_server.clear();
        self.scratch.dirty_server.resize(n_servers, full);
        for (key, spec) in batch {
            for &s in &spec.path {
                self.scratch.dirty_server[s] = true;
            }
            self.insert_flow(*key, spec.clone());
            self.log.candidates.push(*key);
        }
        if !full {
            self.close_dirty();
        }
        self.collect_dirty_flows();
        if let Err(e) = self.check_utilisation() {
            self.undo_frame();
            return Err(e);
        }
        self.log_dirty();
        self.reinit_dirty();
        match self.run_to_bounds() {
            Ok((iterations, exact)) => {
                self.settle_taint(exact, full);
                Ok(self.report(iterations, exact, full))
            }
            Err(e) => {
                self.undo_frame();
                Err(e)
            }
        }
    }

    /// Release flows. Infallible: removal only shrinks cross traffic, so
    /// if the (practically unreachable) restricted re-solve fails the
    /// stored bounds of the survivors remain sound and the solver is
    /// tainted instead.
    pub fn remove(&mut self, keys: &[u64]) -> SolveReport {
        let full = self.force_full || self.tainted;
        self.scratch.dirty_server.clear();
        self.scratch.dirty_server.resize(self.services.len(), full);
        let mut any = false;
        for key in keys {
            let Some(ix) = self.drop_flow(*key) else {
                continue;
            };
            any = true;
            for &s in &self.states[ix].spec.path {
                self.scratch.dirty_server[s] = true;
            }
        }
        if !any {
            self.scratch.dirty.clear();
            self.scratch.iter.clear();
            return self.report(0, true, full);
        }
        if !full {
            self.close_dirty();
        }
        self.collect_dirty_flows();
        self.reinit_dirty();
        match self.run_to_bounds() {
            Ok((iterations, exact)) => {
                self.settle_taint(exact, full);
                self.report(iterations, exact, full)
            }
            Err(_) => {
                self.tainted = true;
                self.report(0, false, full)
            }
        }
    }

    /// Open a candidate-scoped session: admissions made through it are
    /// undone exactly when the session drops, unless
    /// [`SolverSession::commit`] is called. This is the "try a candidate,
    /// keep it only if it certifies" primitive that search loops build on
    /// — abandoning a candidate can never leak its flows into the resident
    /// set, nor move a resident bound.
    pub fn session(&mut self) -> SolverSession<'_> {
        SolverSession { solver: self }
    }

    /// An inexact solve taints the solver; an exact full solve clears it.
    fn settle_taint(&mut self, exact: bool, full: bool) {
        if !exact {
            self.tainted = true;
        } else if full {
            self.tainted = false;
        }
    }

    fn report(&self, iterations: usize, exact: bool, full: bool) -> SolveReport {
        SolveReport {
            iterations,
            exact,
            full,
            dirty_flows: self.scratch.dirty.iter().map(|&(key, _)| key).collect(),
            iterated_flows: self.scratch.iter.len(),
        }
    }

    fn run_to_bounds(&mut self) -> Result<(usize, bool), SolveError> {
        let (iterations, exact) = resolve(
            &self.services,
            &mut self.states,
            &self.members,
            &mut self.aggs,
            &mut self.scratch,
        )?;
        finish_bounds(
            &self.services,
            &mut self.states,
            &self.members,
            &mut self.aggs,
            &mut self.scratch,
            iterations,
        )?;
        Ok((iterations, exact))
    }

    fn insert_flow(&mut self, key: u64, spec: FlowSpec) {
        let n = spec.path.len();
        let mut arrivals = Vec::with_capacity(n);
        let mut acc = 0.0;
        for h in 0..n {
            acc += spec.hop_delay[h];
            arrivals.push(spec.arrival.shift_time(acc));
        }
        let ix = self.free.pop().unwrap_or(self.states.len());
        let mut pos = Vec::with_capacity(n);
        for (hop, &s) in spec.path.iter().enumerate() {
            let m = Member {
                class: spec.classes[hop],
                key,
                hop: hop as u32,
                ix: ix as u32,
            };
            let v = &mut self.members[s];
            let at = v.partition_point(|x| member_cmp(x, &m) == Ordering::Less);
            v.insert(at, m);
            // The members after `at` belong to other flows: a path visits
            // a server once.
            renumber(&mut self.states, v, at + 1);
            pos.push(at as u32);
            self.aggs[s].stale = true;
        }
        let bounds = FlowBounds {
            e2e_delay: 0.0,
            hop_delays: vec![0.0; n],
            backlog: 0.0,
        };
        let st = FlowState {
            spec,
            pos,
            arrivals,
            bounds,
            hop_backlogs: vec![0.0; n],
            frame: self.frame,
        };
        if ix == self.states.len() {
            self.states.push(st);
        } else {
            self.states[ix] = st;
        }
        self.index.insert(key, ix);
    }

    /// Take a flow out of the resident set and its servers' member lists;
    /// returns the index of its state, which stays readable until reused.
    fn drop_flow(&mut self, key: u64) -> Option<usize> {
        let ix = self.index.remove(&key)?;
        for hop in 0..self.states[ix].spec.path.len() {
            let s = self.states[ix].spec.path[hop];
            let at = self.states[ix].pos[hop] as usize;
            let v = &mut self.members[s];
            v.remove(at);
            renumber(&mut self.states, v, at);
            self.aggs[s].stale = true;
        }
        self.free.push(ix);
        Some(ix)
    }

    /// Log the pre-admission state of every resident dirty flow the
    /// current frame has not logged yet (its own candidates carry its
    /// frame id already).
    fn log_dirty(&mut self) {
        let log = &mut self.log;
        for &(_, ix) in &self.scratch.dirty {
            let st = &mut self.states[ix];
            if st.frame == self.frame {
                continue;
            }
            st.frame = self.frame;
            log.entries.push(LogEntry {
                ix,
                e2e_delay: st.bounds.e2e_delay,
                backlog: st.bounds.backlog,
                curves: log.n_curves,
                reals: log.reals.len(),
            });
            for a in &st.arrivals[1..] {
                if log.n_curves == log.curves.len() {
                    log.curves.push(ArrivalCurve::placeholder());
                }
                log.curves[log.n_curves].copy_from(a);
                log.n_curves += 1;
            }
            log.reals.extend_from_slice(&st.bounds.hop_delays);
            log.reals.extend_from_slice(&st.hop_backlogs);
        }
    }

    /// Pop the newest frame: its candidates leave, every flow it logged
    /// gets its logged state back, and the taint flag is restored.
    fn undo_frame(&mut self) {
        let Some(frame) = self.log.frames.pop() else {
            return;
        };
        for i in frame.candidates..self.log.candidates.len() {
            self.drop_flow(self.log.candidates[i]);
        }
        self.log.candidates.truncate(frame.candidates);
        let UndoLog {
            entries,
            curves,
            reals,
            ..
        } = &mut self.log;
        for e in entries.drain(frame.entries..) {
            let st = &mut self.states[e.ix];
            let n = st.spec.path.len();
            for h in 1..n {
                let saved = &curves[e.curves + h - 1];
                if !same_bits(&st.arrivals[h], saved) {
                    st.arrivals[h].copy_from(saved);
                    self.aggs[st.spec.path[h]].moved(st.pos[h] as usize);
                }
            }
            st.bounds
                .hop_delays
                .copy_from_slice(&reals[e.reals..e.reals + n]);
            st.hop_backlogs
                .copy_from_slice(&reals[e.reals + n..e.reals + 2 * n]);
            st.bounds.e2e_delay = e.e2e_delay;
            st.bounds.backlog = e.backlog;
        }
        self.log.n_curves = frame.curves;
        self.log.reals.truncate(frame.reals);
        self.tainted = frame.tainted;
    }

    /// Close the dirty server set under downstream burst propagation: a
    /// changed left-over at `s` perturbs the output of every (flow, hop)
    /// pair at `s`, hence the arrivals at every later hop of those flows.
    fn close_dirty(&mut self) {
        let Scratch {
            dirty_server, work, ..
        } = &mut self.scratch;
        work.clear();
        work.extend((0..dirty_server.len()).filter(|&s| dirty_server[s]));
        while let Some(s) = work.pop() {
            for m in &self.members[s] {
                let st = &self.states[m.ix as usize];
                for &s2 in &st.spec.path[m.hop as usize + 1..] {
                    if !dirty_server[s2] {
                        dirty_server[s2] = true;
                        work.push(s2);
                    }
                }
            }
        }
    }

    /// Collect the dirty flows (every flow with a hop on a dirty server)
    /// and, among them, the iterating ones (a dirty hop before the last),
    /// both in key order: one walk over the resident index.
    fn collect_dirty_flows(&mut self) {
        let Scratch {
            dirty_server,
            dirty,
            iter,
            ..
        } = &mut self.scratch;
        dirty.clear();
        iter.clear();
        for (&key, &ix) in &self.index {
            let (last, before) = self.states[ix]
                .spec
                .path
                .split_last()
                .expect("a resident path has a hop");
            if before.iter().any(|&s| dirty_server[s]) {
                dirty.push((key, ix));
                iter.push(ix);
            } else if dirty_server[*last] {
                dirty.push((key, ix));
            }
        }
    }

    /// Strict utilisation pre-check on every dirty server (clean servers
    /// cannot have changed demand: membership changes dirty their server).
    fn check_utilisation(&self) -> Result<(), SolveError> {
        for (s, ms) in self.members.iter().enumerate() {
            if !self.scratch.dirty_server[s] {
                continue;
            }
            let mut demand = 0.0;
            for m in ms {
                demand += self.states[m.ix as usize].spec.arrival.rate();
            }
            let capacity = self.services[s].rate;
            if demand >= capacity {
                return Err(SolveError::Utilisation {
                    ring: s,
                    demand,
                    capacity,
                });
            }
        }
        Ok(())
    }

    /// Reset every iterating flow's arrivals *after* its first dirty hop to
    /// the optimistic source shift, so the warm start iterates the same
    /// monotone-from-below trajectory a from-scratch solve would.
    fn reinit_dirty(&mut self) {
        let Scratch {
            dirty_server, iter, ..
        } = &self.scratch;
        for &ix in iter {
            let FlowState {
                spec,
                pos,
                arrivals,
                ..
            } = &mut self.states[ix];
            let fd = spec
                .path
                .iter()
                .position(|&s| dirty_server[s])
                .expect("an iterating flow has a dirty hop");
            let mut acc = 0.0;
            for (h, hop_arrival) in arrivals.iter_mut().enumerate() {
                acc += spec.hop_delay[h];
                if h > fd {
                    spec.arrival.shift_time_into(acc, hop_arrival);
                    self.aggs[spec.path[h]].moved(pos[h] as usize);
                }
            }
        }
    }
}

fn spec_ok(spec: &FlowSpec, n_servers: usize) -> bool {
    !spec.path.is_empty()
        && spec.path.len() == spec.hop_delay.len()
        && spec.path.len() == spec.classes.len()
        && spec.path.iter().all(|&r| r < n_servers)
        && spec
            .path
            .iter()
            .enumerate()
            .all(|(i, s)| !spec.path[..i].contains(s))
        && spec.hop_delay.iter().all(|d| d.is_finite() && *d >= 0.0)
        && spec.classes.iter().all(|c| *c > 0.0)
}

/// Bitwise curve equality: unlike `==`, tells `0.0` from `-0.0`, so a
/// restore that skips equal curves leaves every stored bit as logged.
fn same_bits(a: &ArrivalCurve, b: &ArrivalCurve) -> bool {
    a.pieces().len() == b.pieces().len()
        && a.pieces().iter().zip(b.pieces()).all(|(x, y)| {
            x.burst.to_bits() == y.burst.to_bits() && x.rate.to_bits() == y.rate.to_bits()
        })
}

// ---------------------------------------------------------------------------
// Fixed-point iteration over the dirty set
// ---------------------------------------------------------------------------

fn ensure_curves(v: &mut Vec<ArrivalCurve>, n: usize) {
    while v.len() < n {
        v.push(ArrivalCurve::placeholder());
    }
}

fn member_arrival<'a>(states: &'a [FlowState], m: &Member) -> &'a ArrivalCurve {
    &states[m.ix as usize].arrivals[m.hop as usize]
}

/// Bring every dirty server's aggregates up to date (a no-op for servers
/// where nothing moved since their last build).
fn build_dirty_aggs(
    states: &[FlowState],
    members: &[Vec<Member>],
    aggs: &mut [ServerAgg],
    dirty_server: &[bool],
) {
    for (s, mem) in members.iter().enumerate() {
        if dirty_server[s] && !mem.is_empty() {
            aggs[s].build(states, mem);
        }
    }
}

/// Left-over curves for member `idx` at a server: always the blind branch
/// into `bufs.lo_blind`; additionally the EDF branch into `bufs.lo_edf`
/// when the server mixes classes (returns `Ok(true)`). `Err(())` when the
/// cross traffic exhausts the guarantee.
fn pair_service(
    service: RateLatency,
    sw: &mut ServerAgg,
    idx: usize,
    n: usize,
    bufs: &mut Bufs,
) -> Result<bool, ()> {
    if idx > 0 && idx + 1 < n {
        sw.prefix[idx - 1].plus_into(&sw.suffix[idx + 1], &mut bufs.cross);
    } else if idx > 0 {
        bufs.cross.copy_from(&sw.prefix[idx - 1]);
    } else if idx + 1 < n {
        bufs.cross.copy_from(&sw.suffix[idx + 1]);
    } else {
        bufs.cross.copy_from(&bufs.zero);
    }
    if !service.left_over_into(&bufs.cross, &mut bufs.lo_blind) {
        return Err(());
    }
    if sw.uniform {
        return Ok(false);
    }
    let r = sw.run_of[idx];
    sw.fold_edf_base(r, &mut bufs.tmp);
    let (st, en) = (sw.run_start[r], sw.run_start[r + 1]);
    let mut have = false;
    if idx > st {
        bufs.cross_edf.copy_from(&sw.wprefix[idx - 1]);
        have = true;
    }
    if idx + 1 < en {
        if have {
            bufs.cross_edf
                .plus_into(&sw.wsuffix[idx + 1], &mut bufs.tmp);
            core::mem::swap(&mut bufs.cross_edf, &mut bufs.tmp);
        } else {
            bufs.cross_edf.copy_from(&sw.wsuffix[idx + 1]);
            have = true;
        }
    }
    if have {
        bufs.cross_edf.plus_into(&sw.edf_base[r], &mut bufs.tmp);
        core::mem::swap(&mut bufs.cross_edf, &mut bufs.tmp);
    } else {
        bufs.cross_edf.copy_from(&sw.edf_base[r]);
    }
    // The EDF cross has the same long-run rate as the blind cross, so this
    // cannot fail when the blind branch succeeded; fall back to blind-only
    // pricing if it ever does.
    Ok(service.left_over_into(&bufs.cross_edf, &mut bufs.lo_edf))
}

#[derive(Clone, Copy)]
struct SweepStats {
    changed: bool,
    max_rel: f64,
    worst_burst: f64,
}

/// One sweep over the non-terminal dirty hops of every iterating flow in
/// key order, propagating hop outputs along each flow's own path within
/// the sweep. Terminal hops are skipped: their output feeds nothing, and
/// their left-over can only fail on rates, which the utilisation
/// pre-check keeps below capacity (the final pass still prices them).
fn sweep_dirty(
    services: &[RateLatency],
    states: &mut [FlowState],
    members: &[Vec<Member>],
    aggs: &mut [ServerAgg],
    scratch: &mut Scratch,
) -> Result<SweepStats, ()> {
    let Scratch {
        dirty_server,
        iter,
        bufs,
        ..
    } = scratch;
    let mut stats = SweepStats {
        changed: false,
        max_rel: 0.0,
        worst_burst: 0.0,
    };
    for &ix in iter.iter() {
        let FlowState {
            spec,
            pos,
            arrivals,
            ..
        } = &mut states[ix];
        for hop in 0..spec.path.len() - 1 {
            let s = spec.path[hop];
            if !dirty_server[s] {
                continue;
            }
            let n = members[s].len();
            let edf = pair_service(services[s], &mut aggs[s], pos[hop] as usize, n, bufs)?;
            let (head, tail) = arrivals.split_at_mut(hop + 1);
            let cur = &head[hop];
            let ok = cur.deconvolve_into(bufs.lo_blind.rate_latency_bound(), &mut bufs.out_a)
                && (!edf || {
                    let e = cur.deconvolve_into(bufs.lo_edf.rate_latency_bound(), &mut bufs.out_b);
                    if e {
                        bufs.out_a.min_into(&bufs.out_b, &mut bufs.tmp);
                        core::mem::swap(&mut bufs.out_a, &mut bufs.tmp);
                    }
                    e
                });
            if !ok {
                return Err(());
            }
            bufs.out_a
                .shift_time_into(spec.hop_delay[hop + 1], &mut bufs.next);
            bufs.next.compact(MAX_PIECES);
            let slot = &mut tail[0];
            if *slot != bufs.next {
                let ob = slot.burst();
                let nb = bufs.next.burst();
                stats.max_rel = stats.max_rel.max((nb - ob).abs() / ob.abs().max(1.0));
                stats.changed = true;
                slot.copy_from(&bufs.next);
                aggs[spec.path[hop + 1]].moved(pos[hop + 1] as usize);
            }
            stats.worst_burst = stats.worst_burst.max(tail[0].burst());
        }
    }
    Ok(stats)
}

/// Iterate sweeps until the dirty arrivals stabilise bit-for-bit (`exact`),
/// or accept at [`CONVERGENCE_TOL`] after [`MAX_ITERATIONS`] (`!exact`).
// ccr-verify: hot_path
fn resolve(
    services: &[RateLatency],
    states: &mut [FlowState],
    members: &[Vec<Member>],
    aggs: &mut [ServerAgg],
    scratch: &mut Scratch,
) -> Result<(usize, bool), SolveError> {
    let mut iterations = 0;
    loop {
        iterations += 1;
        build_dirty_aggs(states, members, aggs, &scratch.dirty_server);
        let stats = sweep_dirty(services, states, members, aggs, scratch).map_err(|()| {
            SolveError::Diverged {
                iterations,
                worst_burst: f64::INFINITY,
            }
        })?;
        if stats.worst_burst > BURST_CAP {
            return Err(SolveError::Diverged {
                iterations,
                worst_burst: stats.worst_burst,
            });
        }
        if !stats.changed {
            return Ok((iterations, true));
        }
        if iterations >= MAX_ITERATIONS {
            if stats.max_rel <= CONVERGENCE_TOL {
                return Ok((iterations, false));
            }
            return Err(SolveError::Diverged {
                iterations,
                worst_burst: stats.worst_burst,
            });
        }
    }
}

/// Final pass: per-hop delay/backlog for every dirty flow at its dirty
/// hops (clean hops keep their stored values — their inputs are
/// untouched), then the path aggregates. After an exact fixed point no
/// arrival moved since the last sweep, so the aggregates are current and
/// only the cross-class sums no sweep read are folded here.
// ccr-verify: hot_path
fn finish_bounds(
    services: &[RateLatency],
    states: &mut [FlowState],
    members: &[Vec<Member>],
    aggs: &mut [ServerAgg],
    scratch: &mut Scratch,
    iterations: usize,
) -> Result<(), SolveError> {
    build_dirty_aggs(states, members, aggs, &scratch.dirty_server);
    let diverged = SolveError::Diverged {
        iterations,
        worst_burst: f64::INFINITY,
    };
    let Scratch {
        dirty_server,
        dirty,
        bufs,
        ..
    } = scratch;
    for &(key, ix) in dirty.iter() {
        let st = &mut states[ix];
        let n_hops = st.spec.path.len();
        for hop in 0..n_hops {
            let s = st.spec.path[hop];
            if !dirty_server[s] {
                continue;
            }
            let mem = &members[s];
            let idx = st.pos[hop] as usize;
            debug_assert_eq!(idx, member_index(mem, &st.spec, key, hop));
            let edf = pair_service(services[s], &mut aggs[s], idx, mem.len(), bufs)
                .map_err(|()| diverged)?;
            let alpha = &st.arrivals[hop];
            let mut d = delay_bound(alpha, &bufs.lo_blind).ok_or(diverged)?;
            let mut v = backlog_bound(alpha, &bufs.lo_blind).ok_or(diverged)?;
            if edf {
                d = d.min(delay_bound(alpha, &bufs.lo_edf).ok_or(diverged)?);
                v = v.min(backlog_bound(alpha, &bufs.lo_edf).ok_or(diverged)?);
            }
            st.bounds.hop_delays[hop] = d;
            st.hop_backlogs[hop] = v;
        }
        let mut e2e = 0.0;
        let mut backlog = 0.0_f64;
        for hop in 0..n_hops {
            e2e += st.spec.hop_delay[hop] + st.bounds.hop_delays[hop];
            backlog = backlog.max(st.hop_backlogs[hop]);
        }
        st.bounds.e2e_delay = e2e;
        st.bounds.backlog = backlog;
    }
    Ok(())
}

/// A candidate-scoped transaction over an [`IncrementalSolver`].
///
/// Each admission through the session is one frame of the solver's undo
/// log. Dropping the session pops every frame: the session's candidates
/// leave and every flow they re-derived gets its logged state back, so the
/// resident set, every surviving bound and the taint flag are bit for bit
/// as if the candidates had never been tried. Call
/// [`commit`](Self::commit) to keep the admissions instead.
#[derive(Debug)]
pub struct SolverSession<'a> {
    solver: &'a mut IncrementalSolver,
}

impl SolverSession<'_> {
    /// Admit a batch through the session. Same atomicity as
    /// [`IncrementalSolver::admit`]: a refused batch is undone on the spot
    /// and the session's earlier admissions stay.
    pub fn admit(&mut self, batch: &[(u64, FlowSpec)]) -> Result<SolveReport, SolveError> {
        self.solver.admit_frame(batch)
    }

    /// The certified bounds of a resident flow (session-admitted or prior).
    pub fn bounds(&self, key: u64) -> Option<&FlowBounds> {
        self.solver.bounds(key)
    }

    /// Read-only view of the underlying solver.
    pub fn solver(&self) -> &IncrementalSolver {
        self.solver
    }

    /// After an accepted [`admit`](Self::admit): the flows it re-derived,
    /// with their bounds, in ascending key order. These are the keys of
    /// its report's `dirty_flows`, read without a lookup per key.
    pub fn dirty_bounds(&self) -> impl Iterator<Item = (u64, &FlowBounds)> + '_ {
        let solver = &*self.solver;
        solver
            .scratch
            .dirty
            .iter()
            .map(move |&(key, ix)| (key, &solver.states[ix].bounds))
    }

    /// Keys admitted through this session so far, in admission order.
    pub fn admitted(&self) -> &[u64] {
        &self.solver.log.candidates
    }

    /// Keep every session admission and return the admitted keys.
    pub fn commit(self) -> Vec<u64> {
        let kept = self.solver.log.candidates.clone();
        self.solver.log.clear();
        kept
    }
}

impl Drop for SolverSession<'_> {
    fn drop(&mut self) {
        while !self.solver.log.frames.is_empty() {
            self.solver.undo_frame();
        }
    }
}

/// Solve the fabric in one shot: certified per-flow delay/backlog bounds,
/// or a diagnostic explaining the rejection. Fully deterministic — this is
/// exactly an [`IncrementalSolver`] admitting the whole flow set as one
/// batch (everything dirty), so one-shot and incremental paths share every
/// line of arithmetic.
pub fn solve(model: &FabricModel) -> Result<Solution, SolveError> {
    let mut solver = IncrementalSolver::new(&model.services);
    let mut batch = Vec::with_capacity(model.flows.len());
    for (i, fl) in model.flows.iter().enumerate() {
        batch.push((i as u64, fl.clone()));
    }
    let report = solver.admit(&batch)?;
    let flows = (0..model.flows.len() as u64)
        .map(|k| solver.states[solver.index[&k]].bounds.clone())
        .collect();
    Ok(Solution {
        iterations: report.iterations,
        flows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::RateLatency;

    fn tb(b: f64, r: f64) -> ArrivalCurve {
        ArrivalCurve::token_bucket(b, r).unwrap()
    }

    fn rl(rate: f64, latency: f64) -> ServiceCurve {
        RateLatency { rate, latency }.to_curve()
    }

    #[test]
    fn single_flow_single_ring_matches_closed_form() {
        let model = FabricModel {
            services: vec![rl(2.0, 3.0)],
            flows: vec![FlowSpec::blind(vec![0], tb(4.0, 0.5), vec![0.0])],
        };
        let sol = solve(&model).unwrap();
        assert_eq!(sol.iterations, 1);
        assert!((sol.flows[0].e2e_delay - (3.0 + 4.0 / 2.0)).abs() < 1e-9);
        assert!((sol.flows[0].backlog - (4.0 + 0.5 * 3.0)).abs() < 1e-9);
    }

    #[test]
    fn acyclic_chain_converges_fast() {
        // Two flows crossing a 3-ring chain in the same direction.
        let model = FabricModel {
            services: vec![rl(2.0, 1.0), rl(2.0, 1.0), rl(2.0, 1.0)],
            flows: vec![
                FlowSpec::blind(vec![0, 1, 2], tb(2.0, 0.3), vec![0.0, 5.0, 5.0]),
                FlowSpec::blind(vec![1, 2], tb(1.0, 0.2), vec![0.0, 5.0]),
            ],
        };
        let sol = solve(&model).unwrap();
        assert!(sol.iterations <= 4, "iterations = {}", sol.iterations);
        for fb in &sol.flows {
            assert!(fb.e2e_delay.is_finite() && fb.e2e_delay > 0.0);
        }
        // The chain flow pays its constant bridge delays at minimum.
        assert!(sol.flows[0].e2e_delay >= 10.0);
    }

    #[test]
    fn cyclic_triangle_converges_to_finite_bounds() {
        // Three rings in a cycle, three flows each spanning two rings so the
        // dependency graph 0→1→2→0 is genuinely cyclic.
        let model = FabricModel {
            services: vec![rl(1.0, 2.0), rl(1.0, 2.0), rl(1.0, 2.0)],
            flows: vec![
                FlowSpec::blind(vec![0, 1], tb(1.0, 0.2), vec![0.0, 4.0]),
                FlowSpec::blind(vec![1, 2], tb(1.0, 0.2), vec![0.0, 4.0]),
                FlowSpec::blind(vec![2, 0], tb(1.0, 0.2), vec![0.0, 4.0]),
            ],
        };
        let sol = solve(&model).unwrap();
        assert!(sol.iterations >= 2, "cyclic set should need iteration");
        assert!(sol.iterations <= MAX_ITERATIONS);
        for fb in &sol.flows {
            assert!(fb.e2e_delay.is_finite());
            // Symmetric set: all three bounds identical.
            assert!((fb.e2e_delay - sol.flows[0].e2e_delay).abs() < 1e-9);
        }
    }

    #[test]
    fn over_utilised_ring_is_rejected_with_diagnostic() {
        let model = FabricModel {
            services: vec![rl(1.0, 2.0)],
            flows: vec![
                FlowSpec::blind(vec![0], tb(1.0, 0.6), vec![0.0]),
                FlowSpec::blind(vec![0], tb(1.0, 0.6), vec![0.0]),
            ],
        };
        match solve(&model) {
            Err(SolveError::Utilisation {
                ring: 0,
                demand,
                capacity,
            }) => {
                assert!(demand > capacity - 1e-12);
            }
            other => panic!("expected utilisation rejection, got {other:?}"),
        }
    }

    #[test]
    fn near_saturation_cycle_terminates_within_iteration_cap() {
        // 99.9% utilisation on every ring of a cycle: convergence is slow or
        // impossible, but the solver must terminate either way.
        let model = FabricModel {
            services: vec![rl(1.0, 2.0), rl(1.0, 2.0), rl(1.0, 2.0)],
            flows: vec![
                FlowSpec::blind(vec![0, 1], tb(5.0, 0.4995), vec![0.0, 4.0]),
                FlowSpec::blind(vec![1, 2], tb(5.0, 0.4995), vec![0.0, 4.0]),
                FlowSpec::blind(vec![2, 0], tb(5.0, 0.4995), vec![0.0, 4.0]),
            ],
        };
        match solve(&model) {
            Ok(sol) => assert!(sol.iterations <= MAX_ITERATIONS),
            Err(SolveError::Diverged { iterations, .. }) => {
                assert!(iterations <= MAX_ITERATIONS);
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }

    #[test]
    fn malformed_flow_is_rejected() {
        let model = FabricModel {
            services: vec![rl(1.0, 2.0)],
            flows: vec![FlowSpec::blind(vec![3], tb(1.0, 0.1), vec![0.0])],
        };
        assert_eq!(solve(&model), Err(SolveError::MalformedFlow { flow: 0 }));
    }

    #[test]
    fn incremental_admissions_match_one_shot_and_forced_full() {
        let services = [rl(1.0, 2.0), rl(1.0, 2.0), rl(1.0, 2.0), rl(2.0, 1.0)];
        let specs = [
            FlowSpec::blind(vec![0, 1], tb(1.0, 0.1), vec![0.0, 4.0]),
            FlowSpec::blind(vec![1, 2], tb(1.5, 0.15), vec![0.0, 4.0]),
            FlowSpec::blind(vec![2, 0], tb(0.5, 0.05), vec![0.0, 4.0]),
            FlowSpec::blind(vec![3], tb(2.0, 0.3), vec![0.0]),
            FlowSpec::blind(vec![0, 3], tb(0.8, 0.07), vec![0.0, 2.0]),
        ];
        // One-shot batch.
        let mut one_shot = IncrementalSolver::new(&services);
        let batch: Vec<(u64, FlowSpec)> = specs
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, f)| (i as u64, f))
            .collect();
        one_shot.admit(&batch).unwrap();
        // One at a time, warm-started.
        let mut warm = IncrementalSolver::new(&services);
        // One at a time, full re-solve each step.
        let mut full = IncrementalSolver::new(&services);
        full.set_force_full(true);
        for (k, spec) in &batch {
            warm.admit(&[(*k, spec.clone())]).unwrap();
            full.admit(&[(*k, spec.clone())]).unwrap();
        }
        for k in 0..specs.len() as u64 {
            assert_eq!(warm.bounds(k), full.bounds(k), "warm ≡ full, flow {k}");
            assert_eq!(warm.bounds(k), one_shot.bounds(k), "warm ≡ batch, flow {k}");
        }
    }

    #[test]
    fn remove_restores_the_prior_fixed_point_bit_for_bit() {
        let services = [rl(1.0, 2.0), rl(1.0, 2.0)];
        let a = FlowSpec::blind(vec![0, 1], tb(1.0, 0.1), vec![0.0, 4.0]);
        let b = FlowSpec::blind(vec![1, 0], tb(1.2, 0.2), vec![0.0, 4.0]);
        let mut solver = IncrementalSolver::new(&services);
        solver.admit(&[(1, a.clone())]).unwrap();
        let before = solver.bounds(1).unwrap().clone();
        solver.admit(&[(2, b)]).unwrap();
        assert_ne!(&before, solver.bounds(1).unwrap(), "b perturbs a");
        let report = solver.remove(&[2]);
        assert!(report.exact);
        assert_eq!(&before, solver.bounds(1).unwrap());
        assert!(!solver.contains(2));
    }

    #[test]
    fn failed_batch_rolls_back_every_candidate() {
        let services = [rl(1.0, 2.0)];
        let mut solver = IncrementalSolver::new(&services);
        solver
            .admit(&[(1, FlowSpec::blind(vec![0], tb(1.0, 0.3), vec![0.0]))])
            .unwrap();
        let before = solver.bounds(1).unwrap().clone();
        // Second member of the batch overloads the ring: both must vanish.
        let err = solver
            .admit(&[
                (2, FlowSpec::blind(vec![0], tb(1.0, 0.3), vec![0.0])),
                (3, FlowSpec::blind(vec![0], tb(1.0, 0.5), vec![0.0])),
            ])
            .unwrap_err();
        assert!(matches!(err, SolveError::Utilisation { ring: 0, .. }));
        assert!(!solver.contains(2) && !solver.contains(3));
        assert_eq!(&before, solver.bounds(1).unwrap());
        // The rejected batch left no debris: the next admit still works.
        solver
            .admit(&[(4, FlowSpec::blind(vec![0], tb(1.0, 0.3), vec![0.0]))])
            .unwrap();
    }

    #[test]
    fn edf_classes_tighten_and_never_loosen_bounds() {
        // Two classes sharing one ring: the early-deadline flow must gain
        // from EDF pricing, and nobody may lose versus blind pricing.
        let services = [rl(2.0, 1.0)];
        let blind_model = FabricModel {
            services: services.to_vec(),
            flows: vec![
                FlowSpec::blind(vec![0], tb(1.0, 0.2), vec![0.0]),
                FlowSpec::blind(vec![0], tb(6.0, 0.2), vec![0.0]),
            ],
        };
        let mut edf_model = blind_model.clone();
        edf_model.flows[0].classes = vec![10.0];
        edf_model.flows[1].classes = vec![1000.0];
        let blind = solve(&blind_model).unwrap();
        let edf = solve(&edf_model).unwrap();
        for i in 0..2 {
            assert!(
                edf.flows[i].e2e_delay <= blind.flows[i].e2e_delay * (1.0 + 1e-9),
                "flow {i}: edf {} > blind {}",
                edf.flows[i].e2e_delay,
                blind.flows[i].e2e_delay
            );
            assert!(edf.flows[i].backlog <= blind.flows[i].backlog * (1.0 + 1e-9));
        }
        // The early flow sees the late flow's burst advanced by the class
        // gap — strictly less competing work, strictly tighter delay.
        assert!(edf.flows[0].e2e_delay < blind.flows[0].e2e_delay - 1e-6);
    }

    #[test]
    fn dropped_session_restores_the_prior_fixed_point_bit_for_bit() {
        let services = [rl(2.0, 1.0), rl(2.0, 1.5)];
        let mut solver = IncrementalSolver::new(&services);
        solver
            .admit(&[(1, FlowSpec::blind(vec![0, 1], tb(2.0, 0.4), vec![0.0; 2]))])
            .unwrap();
        let before = solver.bounds(1).unwrap().clone();
        {
            let mut session = solver.session();
            session
                .admit(&[(2, FlowSpec::blind(vec![1], tb(1.0, 0.3), vec![0.0]))])
                .unwrap();
            session
                .admit(&[(3, FlowSpec::blind(vec![0], tb(1.0, 0.3), vec![0.0]))])
                .unwrap();
            assert_eq!(session.admitted(), &[2, 3]);
            assert!(session.bounds(2).is_some());
            // Dropped without commit: the candidate is abandoned.
        }
        assert!(!solver.contains(2) && !solver.contains(3));
        assert_eq!(&before, solver.bounds(1).unwrap(), "bit-identical restore");

        // A refused batch inside a session is undone on the spot and keeps
        // the session's earlier admissions; committing keeps them resident.
        let mut session = solver.session();
        session
            .admit(&[(4, FlowSpec::blind(vec![0], tb(1.0, 0.2), vec![0.0]))])
            .unwrap();
        let mid = session.bounds(1).unwrap().clone();
        let err = session
            .admit(&[(5, FlowSpec::blind(vec![0], tb(1.0, 1.5), vec![0.0]))])
            .unwrap_err();
        assert!(matches!(err, SolveError::Utilisation { ring: 0, .. }));
        assert_eq!(session.bounds(1), Some(&mid));
        session
            .admit(&[(6, FlowSpec::blind(vec![1], tb(1.0, 0.2), vec![0.0]))])
            .unwrap();
        assert_eq!(session.admitted(), &[4, 6]);
        let kept = session.commit();
        assert_eq!(kept, vec![4, 6]);
        assert!(solver.contains(4) && !solver.contains(5) && solver.contains(6));
    }

    #[test]
    fn undone_arrivals_reach_the_kept_aggregates() {
        // A dropped candidate on server 0 moves flow 1's arrival at server
        // 1; the undo restores it. The next admission dirties server 1
        // only through flow 2, so flow 1 is merely re-priced there: server
        // 1's kept aggregates must already hold the restored arrival.
        let services = [rl(2.0, 1.0), rl(2.0, 1.0), rl(2.0, 1.0)];
        let residents = [
            (1, FlowSpec::blind(vec![0, 1], tb(2.0, 0.3), vec![0.0, 1.0])),
            (2, FlowSpec::blind(vec![2, 1], tb(1.0, 0.2), vec![0.0, 1.0])),
            (3, FlowSpec::blind(vec![1], tb(1.0, 0.2), vec![0.0])),
        ];
        let later = [(11, FlowSpec::blind(vec![2], tb(3.0, 0.2), vec![0.0]))];
        let mut tried = IncrementalSolver::new(&services);
        let mut never = IncrementalSolver::new(&services);
        let mut full = IncrementalSolver::new(&services);
        full.set_force_full(true);
        for solver in [&mut tried, &mut never, &mut full] {
            solver.admit(&residents).unwrap();
        }
        {
            let mut session = tried.session();
            let report = session
                .admit(&[(10, FlowSpec::blind(vec![0], tb(4.0, 0.3), vec![0.0]))])
                .unwrap();
            assert_eq!(report.iterated_flows, 1, "flow 1 iterates");
        }
        for solver in [&mut tried, &mut never, &mut full] {
            let report = solver.admit(&later).unwrap();
            if !report.full {
                assert_eq!(report.dirty_flows, vec![1, 2, 3, 11]);
                assert_eq!(report.iterated_flows, 1, "only flow 2 iterates");
            }
        }
        for key in [1, 2, 3, 11] {
            assert_eq!(tried.bounds(key), never.bounds(key), "flow {key}");
            assert_eq!(tried.bounds(key), full.bounds(key), "flow {key}");
        }
    }

    /// The all-pairs fold the running tables replaced, kept as the oracle:
    /// every other run's aggregate shifted by `D_r − D_{r'}` (advanced when
    /// negative, zero offset against blind hops), summed and compacted
    /// after each addition.
    fn all_pairs_edf_base(sw: &ServerAgg, r: usize) -> ArrivalCurve {
        let dr = sw.run_class[r];
        let mut shift = ArrivalCurve::placeholder();
        let mut tmp = ArrivalCurve::placeholder();
        let mut base: Option<ArrivalCurve> = None;
        for rp in (0..sw.run_class.len()).filter(|&rp| rp != r) {
            let drp = sw.run_class[rp];
            let agg = &sw.wprefix[sw.run_start[rp + 1] - 1];
            let d = if dr.is_finite() && drp.is_finite() {
                dr - drp
            } else {
                0.0
            };
            if d >= 0.0 {
                agg.shift_time_into(d, &mut shift);
            } else {
                agg.advance_time_into(-d, &mut shift);
            }
            let b = match base.as_mut() {
                None => base.insert(shift.clone()),
                Some(b) => {
                    b.plus_into(&shift, &mut tmp);
                    core::mem::swap(b, &mut tmp);
                    b
                }
            };
            b.compact(MAX_PIECES);
        }
        base.expect("a mixed server has another run")
    }

    /// A token bucket or the minimum of up to three (multi-piece concave).
    fn random_arrival(rng: &mut ccr_sim::rng::DetRng) -> ArrivalCurve {
        let mut curve = tb(rng.gen_f64() * 10.0, 0.001 + rng.gen_f64() * 0.05);
        for _ in 0..rng.gen_range(0..3u32) {
            curve = curve.min(&tb(rng.gen_f64() * 20.0, 0.001 + rng.gen_f64() * 0.05));
        }
        curve
    }

    #[test]
    fn running_tables_dominate_the_exact_shifted_sum() {
        let mut rel = Vec::new();
        for seed in 0..200u64 {
            let mut rng = ccr_sim::rng::DetRng::new(0x7AB1E ^ seed);
            let n_finite = 1 + rng.gen_range(0..60u32) as usize;
            let mut classes: Vec<f64> =
                (0..n_finite).map(|_| 5.0 + rng.gen_f64() * 200.0).collect();
            if n_finite == 1 || rng.gen_range(0..2u32) == 0 {
                classes.push(f64::INFINITY);
            }
            let mut states = Vec::new();
            let mut mem = Vec::new();
            for &class in &classes {
                for _ in 0..1 + rng.gen_range(0..3u32) {
                    let arrival = random_arrival(&mut rng);
                    let mut spec = FlowSpec::blind(vec![0], arrival.clone(), vec![0.0]);
                    spec.classes = vec![class];
                    let key = states.len() as u64;
                    mem.push(Member {
                        class,
                        key,
                        hop: 0,
                        ix: key as u32,
                    });
                    states.push(FlowState {
                        spec,
                        pos: vec![0],
                        arrivals: vec![arrival],
                        bounds: FlowBounds {
                            e2e_delay: 0.0,
                            hop_delays: vec![0.0],
                            backlog: 0.0,
                        },
                        hop_backlogs: vec![0.0],
                        frame: 0,
                    });
                }
            }
            mem.sort_by(member_cmp);
            let mut sw = ServerAgg::new();
            sw.build(&states, &mem);
            assert!(!sw.uniform);
            let mut tmp = ArrivalCurve::placeholder();
            for r in 0..sw.run_class.len() {
                sw.fold_edf_base(r, &mut tmp);
                let base = &sw.edf_base[r];
                let oracle = all_pairs_edf_base(&sw, r);
                let dr = sw.run_class[r];
                // Offsets of the other members seen from run r: a member
                // of a later class is advanced by its gap, so just past a
                // gap point is where a clamped burst would show.
                let offset = |m: &Member| {
                    if dr.is_finite() && m.class.is_finite() {
                        dr - m.class
                    } else {
                        0.0
                    }
                };
                let mut grid = vec![0.0, 0.013, 0.5, 1.7, 3.1, 7.9, 15.3, 40.1, 99.7, 250.3];
                grid.extend(
                    mem.iter()
                        .map(offset)
                        .filter(|d| *d < 0.0)
                        .map(|d| -d * (1.0 + 1e-7) + 1e-9),
                );
                for &t in &grid {
                    let exact: f64 = mem
                        .iter()
                        .filter(|m| m.class.to_bits() != dr.to_bits())
                        .map(|m| {
                            let s = t + offset(m);
                            if s > 0.0 {
                                member_arrival(&states, m).eval(s)
                            } else {
                                0.0
                            }
                        })
                        .sum();
                    let got = base.eval(t);
                    assert!(
                        got >= exact * (1.0 - 1e-12),
                        "seed {seed} run {r}: base {got} < exact shifted sum {exact} at t = {t}"
                    );
                    let want = oracle.eval(t);
                    if want > 0.0 {
                        rel.push((got - want) / want);
                    }
                }
            }
        }
        rel.sort_by(f64::total_cmp);
        let q = |p: f64| rel[((rel.len() - 1) as f64 * p) as usize];
        let same = rel.iter().filter(|x| **x == 0.0).count();
        println!(
            "(new − all-pairs) / all-pairs over {} points: min {:.3e}, p1 {:.3e}, p50 {:.3e}, \
             p99 {:.3e}, max {:.3e}; {same} exactly equal",
            rel.len(),
            q(0.0),
            q(0.01),
            q(0.5),
            q(0.99),
            q(1.0)
        );
    }

    /// The dirty-flow collection the ordered walk replaced, kept as the
    /// oracle: every member of every dirty server, sorted by key and
    /// de-duplicated, then those with a dirty hop before their last.
    fn sorted_dirty_flows(solver: &IncrementalSolver) -> (Vec<(u64, usize)>, Vec<usize>) {
        let dirty_server = &solver.scratch.dirty_server;
        let mut dirty = Vec::new();
        for (s, ms) in solver.members.iter().enumerate() {
            if dirty_server[s] {
                dirty.extend(ms.iter().map(|m| (m.key, m.ix as usize)));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        let iter = dirty
            .iter()
            .map(|&(_, ix)| ix)
            .filter(|&ix| {
                let path = &solver.states[ix].spec.path;
                path[..path.len() - 1].iter().any(|&s| dirty_server[s])
            })
            .collect();
        (dirty, iter)
    }

    fn assert_positions(solver: &IncrementalSolver, ctx: &str) {
        for (s, mem) in solver.members.iter().enumerate() {
            for (i, m) in mem.iter().enumerate() {
                let stored = solver.states[m.ix as usize].pos[m.hop as usize];
                assert_eq!(stored as usize, i, "{ctx}: server {s}, member {i}");
            }
        }
    }

    fn assert_dirty_walk(solver: &IncrementalSolver, ctx: &str) {
        let (dirty, iter) = sorted_dirty_flows(solver);
        assert_eq!(solver.scratch.dirty, dirty, "{ctx}: dirty flows");
        assert_eq!(solver.scratch.iter, iter, "{ctx}: iterating flows");
    }

    /// 1–3 distinct servers, classes drawn from a small palette so class
    /// runs repeat and blind (∞) hops mix with finite ones.
    fn law_flow(rng: &mut ccr_sim::rng::DetRng, n: usize) -> FlowSpec {
        const CLASSES: [f64; 5] = [12.0, 40.0, 40.0, 75.0, f64::INFINITY];
        let len = (1 + rng.gen_range(0..3u32) as usize).min(n);
        let mut path = Vec::with_capacity(len);
        while path.len() < len {
            let s = rng.gen_range(0..n as u32) as usize;
            if !path.contains(&s) {
                path.push(s);
            }
        }
        let mut hop_delay = vec![0.0];
        hop_delay.extend((1..len).map(|_| rng.gen_f64() * 3.0));
        let arrival = tb(0.5 + rng.gen_f64() * 4.0, 0.01 + rng.gen_f64() * 0.14);
        let mut spec = FlowSpec::blind(path, arrival, hop_delay);
        spec.classes = (0..len)
            .map(|_| CLASSES[rng.gen_range(0..CLASSES.len() as u32) as usize])
            .collect();
        spec
    }

    fn law_batch(rng: &mut ccr_sim::rng::DetRng, n: usize) -> Vec<(u64, FlowSpec)> {
        (0..1 + rng.gen_range(0..3u32))
            .map(|_| (u64::from(rng.gen_range(0..48u32)), law_flow(rng, n)))
            .collect()
    }

    /// Stored member positions and the ordered dirty walk, against a
    /// search and the sort-and-dedup collection, after every operation:
    /// single and batch admits with duplicate and resident keys,
    /// utilisation refusals, sessions whose frames are all dropped, and
    /// removes of resident, unknown and repeated keys.
    #[test]
    fn stored_positions_and_the_dirty_walk_follow_every_operation() {
        let (mut accepted, mut refused, mut undone, mut removed) = (0, 0, 0, 0);
        for seed in 0..40u64 {
            let mut rng = ccr_sim::rng::DetRng::new(0x9051 ^ seed);
            let n = 3 + rng.gen_range(0..4u32) as usize;
            let services: Vec<ServiceCurve> = (0..n)
                .map(|_| rl(0.5 + rng.gen_f64(), rng.gen_f64() * 3.0))
                .collect();
            let mut solver = IncrementalSolver::new(&services);
            for op in 0..60 {
                let ctx = format!("seed {seed} op {op}");
                match rng.gen_range(0..5u32) {
                    0..=1 => match solver.admit(&law_batch(&mut rng, n)) {
                        Ok(_) => {
                            accepted += 1;
                            assert_dirty_walk(&solver, &ctx);
                        }
                        Err(SolveError::Utilisation { .. }) => refused += 1,
                        Err(_) => {}
                    },
                    2 => {
                        let mut session = solver.session();
                        for frame in 0..2 + rng.gen_range(0..3u32) {
                            let ctx = format!("{ctx} frame {frame}");
                            let ok = session.admit(&law_batch(&mut rng, n)).is_ok();
                            undone += usize::from(ok);
                            if ok {
                                assert_dirty_walk(session.solver(), &ctx);
                            }
                            assert_positions(session.solver(), &ctx);
                        }
                    }
                    _ => {
                        let mut keys: Vec<u64> = (0..1 + rng.gen_range(0..3u32))
                            .map(|_| u64::from(rng.gen_range(0..48u32)))
                            .collect();
                        keys.push(keys[0]);
                        let known = keys.iter().any(|&k| solver.contains(k));
                        solver.remove(&keys);
                        if known {
                            removed += 1;
                            assert_dirty_walk(&solver, &ctx);
                        }
                        assert!(keys.iter().all(|&k| !solver.contains(k)), "{ctx}");
                    }
                }
                assert_positions(&solver, &ctx);
            }
        }
        assert!(
            accepted > 100 && refused > 10 && undone > 50 && removed > 100,
            "coverage: {accepted} accepted, {refused} refused, {undone} undone, {removed} removed"
        );
    }

    #[test]
    fn path_revisiting_a_server_is_malformed() {
        let services = [rl(1.0, 2.0), rl(1.0, 2.0)];
        let mut solver = IncrementalSolver::new(&services);
        let looped = FlowSpec::blind(vec![0, 1, 0], tb(1.0, 0.1), vec![0.0; 3]);
        assert_eq!(
            solver.admit(&[(1, looped)]),
            Err(SolveError::MalformedFlow { flow: 0 })
        );
        assert!(solver.is_empty());
    }
}
