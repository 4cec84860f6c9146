//! Piecewise-linear curves for min-plus network calculus.
//!
//! Two curve families, both deterministic pure-`f64` values (time in
//! picoseconds, data in slots):
//!
//! * [`ArrivalCurve`] — a **concave** non-decreasing envelope stored as the
//!   lower envelope of affine pieces, `α(t) = min_i (bᵢ + rᵢ·t)` for `t ≥ 0`
//!   (and `α(t) = 0` for `t < 0` by the usual network-calculus convention).
//!   The canonical single-piece case is the token bucket `γ_{r,b}`.
//! * [`ServiceCurve`] — a **convex** non-decreasing guarantee stored as the
//!   upper envelope of affine pieces clamped at zero,
//!   `β(t) = max(0, max_j (Rⱼ·t − Cⱼ))`. The canonical single-piece case is
//!   the rate-latency curve `β_{R,T}(t) = R·(t − T)⁺`.
//!
//! Because concave curves through the origin convolve by pointwise minimum
//! and convex ones by slope-sorted segment concatenation, every operator
//! here has an exact closed form on the piece lists — no sampling, no
//! iteration, bit-for-bit reproducible on every thread count.

/// One affine piece `value(t) = burst + rate·t`.
///
/// Arrival curves use `burst ≥ 0` pieces combined by `min`; service curves
/// reuse the same struct with `burst = −cost ≤ 0` combined by `max` and
/// clamped at zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    /// Value at `t = 0` (slots). Non-negative for arrival pieces,
    /// non-positive for service pieces.
    pub burst: f64,
    /// Slope (slots per picosecond). Non-negative in both families.
    pub rate: f64,
}

impl Affine {
    /// Evaluate the piece at time `t`.
    #[inline]
    pub fn eval(self, t: f64) -> f64 {
        self.burst + self.rate * t
    }
}

/// Errors raised by the public curve constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveError {
    /// A burst or rate was NaN or infinite.
    NonFinite,
    /// A burst or rate was negative where the family requires `≥ 0`.
    Negative,
    /// No pieces were supplied.
    Empty,
}

impl core::fmt::Display for CurveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CurveError::NonFinite => write!(f, "curve piece has a non-finite burst or rate"),
            CurveError::Negative => write!(f, "curve piece has a negative burst or rate"),
            CurveError::Empty => write!(f, "curve needs at least one affine piece"),
        }
    }
}

/// Crossing abscissa of two affine pieces with `a.rate > b.rate`.
#[inline]
fn crossing(a: Affine, b: Affine) -> f64 {
    (b.burst - a.burst) / (a.rate - b.rate)
}

/// In-place lower-envelope monotone chain over pieces already sorted by
/// non-increasing rate. Equal-rate runs keep the smallest burst; dominated
/// pieces and crossing-order inversions pop. Produces the same normal form
/// as [`ArrivalCurve::normalized`] without sorting or allocating.
fn arrival_chain(pieces: &mut Vec<Affine>) {
    let mut kept = 0usize;
    for k in 0..pieces.len() {
        let p = pieces[k];
        let mut skip = false;
        loop {
            if kept == 0 {
                break;
            }
            let last = pieces[kept - 1];
            if last.rate == p.rate {
                if last.burst <= p.burst {
                    skip = true; // the kept equal-rate piece dominates
                    break;
                }
                kept -= 1;
                continue;
            }
            if p.burst <= last.burst {
                kept -= 1;
                continue;
            }
            if kept == 1 {
                break;
            }
            let a = pieces[kept - 2];
            if crossing(last, p) <= crossing(a, last) {
                kept -= 1;
            } else {
                break;
            }
        }
        if !skip {
            pieces[kept] = p;
            kept += 1;
        }
    }
    pieces.truncate(kept);
}

/// In-place upper-envelope monotone chain for service pieces already sorted
/// by non-decreasing rate (same normal form as `ServiceCurve::normalized`
/// without sorting). Equal-rate runs keep the largest burst.
fn service_chain(pieces: &mut Vec<Affine>) {
    let mut kept = 0usize;
    for k in 0..pieces.len() {
        let p = pieces[k];
        let mut skip = false;
        loop {
            if kept == 0 {
                break;
            }
            let last = pieces[kept - 1];
            if last.rate == p.rate {
                if last.burst >= p.burst {
                    skip = true;
                    break;
                }
                kept -= 1;
                continue;
            }
            if p.burst >= last.burst {
                kept -= 1;
                continue;
            }
            if kept == 1 {
                break;
            }
            let a = pieces[kept - 2];
            if crossing(p, last) <= crossing(last, a) {
                kept -= 1;
            } else {
                break;
            }
        }
        if !skip {
            pieces[kept] = p;
            kept += 1;
        }
    }
    pieces.truncate(kept);
}

// ---------------------------------------------------------------------------
// Arrival curves
// ---------------------------------------------------------------------------

/// Concave piecewise-linear arrival envelope `α(t) = min_i (bᵢ + rᵢ·t)`.
///
/// Normal form (maintained by every constructor and operator): pieces sorted
/// by strictly decreasing rate and strictly increasing burst, every piece
/// active on some interval of `t ≥ 0` (true lower envelope).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalCurve {
    pieces: Vec<Affine>,
}

impl ArrivalCurve {
    /// Token bucket `γ_{r,b}(t) = burst + rate·t`.
    pub fn token_bucket(burst: f64, rate: f64) -> Result<Self, CurveError> {
        Self::from_pieces(vec![Affine { burst, rate }])
    }

    /// The zero curve (no traffic).
    pub fn zero() -> Self {
        ArrivalCurve {
            pieces: vec![Affine {
                burst: 0.0,
                rate: 0.0,
            }],
        }
    }

    /// An empty placeholder curve for scratch slots; not a valid arrival
    /// curve until written through one of the `_into` operators or
    /// [`ArrivalCurve::copy_from`].
    pub fn placeholder() -> Self {
        // ccr-verify: allow(alloc-in-hot-path) -- Vec::new is heap-free; the scratch slot grows to its high-water piece count once and is reused
        ArrivalCurve { pieces: Vec::new() }
    }

    /// Build from arbitrary pieces; the lower envelope is taken.
    pub fn from_pieces(pieces: Vec<Affine>) -> Result<Self, CurveError> {
        if pieces.is_empty() {
            return Err(CurveError::Empty);
        }
        for p in &pieces {
            if !p.burst.is_finite() || !p.rate.is_finite() {
                return Err(CurveError::NonFinite);
            }
            if p.burst < 0.0 || p.rate < 0.0 {
                return Err(CurveError::Negative);
            }
        }
        Ok(Self::normalized(pieces))
    }

    /// Lower-envelope normal form. Internal: assumes finite, non-negative
    /// pieces.
    fn normalized(mut pieces: Vec<Affine>) -> Self {
        // Sort by rate descending, then burst ascending; for equal rates only
        // the smallest burst can ever attain the minimum.
        pieces.sort_by(|a, b| {
            b.rate
                .partial_cmp(&a.rate)
                .unwrap_or(core::cmp::Ordering::Equal)
                .then(
                    a.burst
                        .partial_cmp(&b.burst)
                        .unwrap_or(core::cmp::Ordering::Equal),
                )
        });
        pieces.dedup_by(|next, kept| next.rate == kept.rate);
        // Monotone-chain lower envelope: a kept piece must have a strictly
        // smaller burst than every steeper piece before it (otherwise the
        // steeper piece is ≥ it for all t ≥ 0), and consecutive crossings
        // must be strictly increasing.
        let mut env: Vec<Affine> = Vec::with_capacity(pieces.len());
        for p in pieces {
            loop {
                match env.len() {
                    0 => break,
                    _ if p.burst <= env[env.len() - 1].burst => {
                        env.pop();
                    }
                    1 => break,
                    n => {
                        let a = env[n - 2];
                        let b = env[n - 1];
                        if crossing(b, p) <= crossing(a, b) {
                            env.pop();
                        } else {
                            break;
                        }
                    }
                }
            }
            env.push(p);
        }
        ArrivalCurve { pieces: env }
    }

    /// The envelope pieces in normal form.
    pub fn pieces(&self) -> &[Affine] {
        &self.pieces
    }

    /// `α(t)` for `t ≥ 0` (callers must not pass negative `t`).
    pub fn eval(&self, t: f64) -> f64 {
        self.pieces
            .iter()
            .map(|p| p.eval(t))
            .fold(f64::INFINITY, f64::min)
    }

    /// Instantaneous burst `α(0)`.
    pub fn burst(&self) -> f64 {
        self.pieces[0].burst
    }

    /// Long-run rate `lim α(t)/t` — the flattest piece's slope.
    pub fn rate(&self) -> f64 {
        self.pieces[self.pieces.len() - 1].rate
    }

    /// Abscissae where the active envelope piece changes (strictly
    /// increasing, one fewer than the piece count).
    pub fn breakpoints(&self) -> Vec<f64> {
        self.pieces
            .windows(2)
            .map(|w| crossing(w[0], w[1]))
            .collect()
    }

    /// Index of the envelope piece active on `[t, next breakpoint)`.
    fn active_index(&self, t: f64) -> usize {
        let mut idx = 0;
        for (k, w) in self.pieces.windows(2).enumerate() {
            if t >= crossing(w[0], w[1]) {
                idx = k + 1;
            } else {
                break;
            }
        }
        idx
    }

    /// Pointwise sum `(α₁ + α₂)(t)`, exact on merged breakpoints, written
    /// into `out` (reusing its piece storage). Both inputs are in normal form, so
    /// a single merge walk over the two breakpoint sequences emits the sum's
    /// active pieces directly in rate-descending order — the result is a
    /// true lower envelope without sorting or re-normalising.
    pub fn plus_into(&self, other: &ArrivalCurve, out: &mut ArrivalCurve) {
        out.pieces.clear();
        let a = &self.pieces;
        let b = &other.pieces;
        if a.len() == 1 && b.len() == 1 {
            out.pieces.push(Affine {
                burst: a[0].burst + b[0].burst,
                rate: a[0].rate + b[0].rate,
            });
            return;
        }
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            out.pieces.push(Affine {
                burst: a[i].burst + b[j].burst,
                rate: a[i].rate + b[j].rate,
            });
            let na = if i + 1 < a.len() {
                crossing(a[i], a[i + 1])
            } else {
                f64::INFINITY
            };
            let nb = if j + 1 < b.len() {
                crossing(b[j], b[j + 1])
            } else {
                f64::INFINITY
            };
            if na.is_infinite() && nb.is_infinite() {
                return;
            }
            if na <= nb {
                i += 1;
            }
            if nb <= na {
                j += 1;
            }
        }
    }

    /// Pointwise minimum — which is also the min-plus convolution
    /// `α₁ ⊗ α₂` for concave curves that are `0` at `t < 0`.
    pub fn min(&self, other: &ArrivalCurve) -> ArrivalCurve {
        let mut out = ArrivalCurve { pieces: Vec::new() };
        self.min_into(other, &mut out);
        out
    }

    /// Allocation-free [`ArrivalCurve::min`]: merges the two normal-form
    /// piece lists by (rate descending, burst ascending) and runs the lower
    /// envelope chain in place — no sort, no fresh allocation.
    pub fn min_into(&self, other: &ArrivalCurve, out: &mut ArrivalCurve) {
        out.pieces.clear();
        let a = &self.pieces;
        let b = &other.pieces;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            let take_a = match (a.get(i), b.get(j)) {
                (Some(pa), Some(pb)) => {
                    pa.rate > pb.rate || (pa.rate == pb.rate && pa.burst <= pb.burst)
                }
                (Some(_), None) => true,
                _ => false,
            };
            if take_a {
                out.pieces.push(a[i]);
                i += 1;
            } else {
                out.pieces.push(b[j]);
                j += 1;
            }
        }
        arrival_chain(&mut out.pieces);
    }

    /// Copy `src`'s pieces into `self`, reusing `self`'s storage.
    pub fn copy_from(&mut self, src: &ArrivalCurve) {
        self.pieces.clear();
        self.pieces.extend_from_slice(&src.pieces);
    }

    /// `α(t + d)` for a constant delay `d ≥ 0` — models a constant-delay
    /// element (e.g. a bridge crossing): each piece's burst grows by
    /// `rate·d`.
    pub fn shift_time(&self, d: f64) -> ArrivalCurve {
        let mut out = ArrivalCurve { pieces: Vec::new() };
        self.shift_time_into(d, &mut out);
        out
    }

    /// Allocation-free [`ArrivalCurve::shift_time`]. Large shifts can break
    /// the strict-burst ordering of the normal form, so the envelope chain
    /// runs in place afterwards (rates stay sorted, no sort needed).
    pub fn shift_time_into(&self, d: f64, out: &mut ArrivalCurve) {
        out.pieces.clear();
        for p in &self.pieces {
            out.pieces.push(Affine {
                burst: p.burst + p.rate * d,
                rate: p.rate,
            });
        }
        if out.pieces.len() > 1 {
            arrival_chain(&mut out.pieces);
        }
    }

    /// Sound concave over-approximation of the *right*-shift `α(t − d)` for
    /// `d ≥ 0` (traffic observed after an extra delay `d` upstream): each
    /// piece's burst shrinks by `rate·d`, clamped at zero. For every
    /// `t ≥ 0` the result dominates the true shifted envelope
    /// `α((t − d)⁺)`, so using it as a cross-traffic bound is pessimistic
    /// (safe). Used by the EDF left-over service for cross flows with a
    /// *later* deadline class.
    pub fn advance_time_into(&self, d: f64, out: &mut ArrivalCurve) {
        out.pieces.clear();
        for p in &self.pieces {
            out.pieces.push(Affine {
                burst: (p.burst - p.rate * d).max(0.0),
                rate: p.rate,
            });
        }
        if out.pieces.len() > 1 {
            arrival_chain(&mut out.pieces);
        }
    }

    /// Allocating wrapper around [`ArrivalCurve::advance_time_into`].
    #[cfg(test)]
    pub fn advance_time(&self, d: f64) -> ArrivalCurve {
        let mut out = ArrivalCurve { pieces: Vec::new() };
        self.advance_time_into(d, &mut out);
        out
    }

    /// Concave over-approximation that caps the piece count: repeatedly
    /// drops the interior piece with the narrowest active interval. The
    /// envelope over a subset of pieces dominates the original pointwise,
    /// so the result is still a sound arrival bound; the first piece
    /// (instantaneous burst) and last piece (long-run rate) always survive.
    /// Deterministic: ties resolve to the lowest index.
    pub fn compact(&mut self, max_pieces: usize) {
        let floor = max_pieces.max(2);
        while self.pieces.len() > floor {
            let mut best = 1usize;
            let mut best_span = f64::INFINITY;
            for i in 1..self.pieces.len() - 1 {
                let span = crossing(self.pieces[i], self.pieces[i + 1])
                    - crossing(self.pieces[i - 1], self.pieces[i]);
                if span < best_span {
                    best_span = span;
                    best = i;
                }
            }
            self.pieces.remove(best);
        }
    }

    /// Smallest `t ≥ 0` with `α(t) ≥ y`, or `None` if `y` exceeds the
    /// curve's supremum (flat tail below `y`).
    pub fn inverse(&self, y: f64) -> Option<f64> {
        if y <= self.burst() {
            return Some(0.0);
        }
        // Walk the envelope; within piece k the curve is bᵢ + rᵢ·t and the
        // piece stays active until its crossing with the next piece.
        for (k, p) in self.pieces.iter().enumerate() {
            let end = if k + 1 < self.pieces.len() {
                crossing(self.pieces[k], self.pieces[k + 1])
            } else {
                f64::INFINITY
            };
            if p.rate > 0.0 {
                let t = (y - p.burst) / p.rate;
                if t <= end {
                    return Some(t.max(0.0));
                }
            }
        }
        None
    }

    /// Allocating wrapper around [`ArrivalCurve::deconvolve_into`].
    #[cfg(test)]
    pub fn deconvolve(&self, service: RateLatency) -> Option<ArrivalCurve> {
        let mut out = ArrivalCurve { pieces: Vec::new() };
        if self.deconvolve_into(service, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Min-plus deconvolution `(α ⊘ β_{R,T})(t) = sup_u (α(t+u) − β(u))`
    /// against a rate-latency service curve — the exact output arrival
    /// curve of a flow `α` served by `β_{R,T}`.
    ///
    /// Closed form: shift `α` left by `T` (burst += rate·T per piece), and
    /// clip the prefix steeper than `R` by an `R`-rate piece through the
    /// point where the envelope slope first drops to ≤ `R`. Writes the
    /// output envelope into `out` and returns `false` when the flow's
    /// long-run rate exceeds the service rate (unbounded backlog). The clipped
    /// `R`-rate piece is the steepest surviving piece, so emitting it first
    /// keeps the list rate-descending for the in-place envelope chain.
    pub fn deconvolve_into(&self, service: RateLatency, out: &mut ArrivalCurve) -> bool {
        let r_srv = service.rate;
        if self.rate() > r_srv {
            return false;
        }
        let Some(first_flat) = self.pieces.iter().position(|p| p.rate <= r_srv) else {
            return false;
        };
        out.pieces.clear();
        if first_flat > 0 {
            // Envelope start of piece `first_flat`: crossing with the piece
            // before it.
            let t_r = crossing(self.pieces[first_flat - 1], self.pieces[first_flat]);
            let v = self.eval(t_r);
            out.pieces.push(Affine {
                burst: v - r_srv * t_r + r_srv * service.latency,
                rate: r_srv,
            });
        }
        for p in &self.pieces[first_flat..] {
            out.pieces.push(Affine {
                burst: p.burst + p.rate * service.latency,
                rate: p.rate,
            });
        }
        if out.pieces.len() > 1 {
            arrival_chain(&mut out.pieces);
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Service curves
// ---------------------------------------------------------------------------

/// Rate-latency parameters `β_{R,T}(t) = R·(t − T)⁺`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLatency {
    /// Guaranteed long-run rate `R` (slots per picosecond), `> 0`.
    pub rate: f64,
    /// Worst-case initial latency `T` (picoseconds), `≥ 0`.
    pub latency: f64,
}

impl RateLatency {
    /// Lift to a full [`ServiceCurve`].
    pub fn to_curve(self) -> ServiceCurve {
        ServiceCurve {
            pieces: vec![Affine {
                burst: -self.rate * self.latency,
                rate: self.rate,
            }],
        }
    }

    /// Allocation-free left-over service `(β_{R,T} − α_cross)⁺` for a
    /// rate-latency server — the solver's hot path, where every server is a
    /// rate-latency curve. On the interval where cross piece `(b, r)` is
    /// active the difference is `(R−r)·t − (R·T + b)`; non-positive-slope
    /// pieces never reach the positive part of the convex difference (the
    /// difference is `≤ 0` at `t = 0`) and drop out. Cross pieces are
    /// rate-descending, so the differences `R − r` emerge rate-ascending in
    /// the same order, ready for the in-place upper-envelope chain. Returns
    /// `false` when the cross traffic's long-run rate exhausts the
    /// guarantee.
    pub fn left_over_into(self, cross: &ArrivalCurve, out: &mut ServiceCurve) -> bool {
        if self.rate - cross.rate() <= 0.0 {
            return false;
        }
        out.pieces.clear();
        let base = -self.rate * self.latency;
        for p in cross.pieces.iter() {
            let rate = self.rate - p.rate;
            if rate > 0.0 {
                out.pieces.push(Affine {
                    burst: base - p.burst,
                    rate,
                });
            }
        }
        if out.pieces.len() > 1 {
            service_chain(&mut out.pieces);
        }
        !out.pieces.is_empty()
    }
}

/// Convex piecewise-linear service guarantee
/// `β(t) = max(0, max_j (Rⱼ·t + bⱼ))` with `bⱼ ≤ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCurve {
    pieces: Vec<Affine>,
}

impl ServiceCurve {
    /// Rate-latency curve `β_{R,T}`; `rate` must be `> 0` and finite,
    /// `latency ≥ 0` and finite.
    pub fn rate_latency(rate: f64, latency: f64) -> Result<Self, CurveError> {
        if !rate.is_finite() || !latency.is_finite() {
            return Err(CurveError::NonFinite);
        }
        if rate <= 0.0 || latency < 0.0 {
            return Err(CurveError::Negative);
        }
        Ok(RateLatency { rate, latency }.to_curve())
    }

    /// Upper-envelope normal form over `max`-combined pieces. Internal:
    /// assumes finite pieces with `rate > 0`, `burst ≤ 0`.
    fn normalized(mut pieces: Vec<Affine>) -> Self {
        pieces.sort_by(|a, b| {
            a.rate
                .partial_cmp(&b.rate)
                .unwrap_or(core::cmp::Ordering::Equal)
                .then(
                    a.burst
                        .partial_cmp(&b.burst)
                        .unwrap_or(core::cmp::Ordering::Equal),
                )
        });
        // Equal rates: only the highest line (largest burst) matters.
        pieces.dedup_by(|next, kept| {
            if next.rate == kept.rate {
                kept.burst = kept.burst.max(next.burst);
                true
            } else {
                false
            }
        });
        // Monotone chain for the upper envelope of lines sorted by
        // increasing slope: a new (steeper) piece pops predecessors that it
        // dominates for all t ≥ 0 (burst ≥ theirs) or whose active interval
        // collapses (crossing order inverts).
        let mut env: Vec<Affine> = Vec::with_capacity(pieces.len());
        for p in pieces {
            loop {
                match env.len() {
                    0 => break,
                    _ if p.burst >= env[env.len() - 1].burst => {
                        env.pop();
                    }
                    1 => break,
                    n => {
                        let a = env[n - 2];
                        let b = env[n - 1];
                        // Crossings for max-envelope with increasing slopes.
                        if crossing(p, b) <= crossing(b, a) {
                            env.pop();
                        } else {
                            break;
                        }
                    }
                }
            }
            env.push(p);
        }
        ServiceCurve { pieces: env }
    }

    /// The envelope pieces in normal form (bursts are `≤ 0`).
    pub fn pieces(&self) -> &[Affine] {
        &self.pieces
    }

    /// Copy `src`'s pieces into `self`, reusing `self`'s storage.
    pub fn copy_from(&mut self, src: &ServiceCurve) {
        self.pieces.clear();
        self.pieces.extend_from_slice(&src.pieces);
    }

    /// An empty placeholder curve for scratch slots; not a valid service
    /// curve until written through [`ServiceCurve::copy_from`] or
    /// [`RateLatency::left_over_into`].
    pub fn placeholder() -> ServiceCurve {
        ServiceCurve { pieces: Vec::new() }
    }

    /// `β(t)` for `t ≥ 0`.
    pub fn eval(&self, t: f64) -> f64 {
        self.pieces
            .iter()
            .map(|p| p.eval(t))
            .fold(0.0_f64, f64::max)
    }

    /// First instant with `β(t) > 0`.
    pub fn latency(&self) -> f64 {
        self.pieces
            .iter()
            .map(|p| -p.burst / p.rate)
            .fold(f64::INFINITY, f64::min)
            .max(0.0)
    }

    /// Long-run guaranteed rate — the steepest piece's slope.
    pub fn tail_rate(&self) -> f64 {
        self.pieces[self.pieces.len() - 1].rate
    }

    /// Smallest `t` with `β(t) ≥ y` (for `y ≥ 0`).
    pub fn inverse(&self, y: f64) -> f64 {
        if y <= 0.0 {
            return 0.0;
        }
        self.pieces
            .iter()
            .map(|p| (y - p.burst) / p.rate)
            .fold(f64::INFINITY, f64::min)
    }

    /// Abscissae (sorted) where the envelope's active piece changes,
    /// including the latency instant where it leaves the zero floor.
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut xs = vec![self.latency()];
        xs.extend(self.pieces.windows(2).map(|w| crossing(w[1], w[0])));
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
        xs.dedup();
        xs
    }

    /// Min-plus convolution `β₁ ⊗ β₂` of two convex service curves: the
    /// slope-sorted concatenation of their segments (latencies add, the
    /// flatter tail wins).
    #[cfg(test)]
    pub fn convolve(&self, other: &ServiceCurve) -> ServiceCurve {
        let tail = self.tail_rate().min(other.tail_rate());
        // Finite segments (slope, length) of each curve, slopes < tail.
        let mut segs: Vec<(f64, f64)> = Vec::new();
        for c in [self, other] {
            let bps = c.breakpoints();
            for w in bps.windows(2) {
                let (x0, x1) = (w[0], w[1]);
                let slope = (c.eval(x1) - c.eval(x0)) / (x1 - x0);
                if slope > 0.0 && slope < tail && x1 > x0 {
                    segs.push((slope, x1 - x0));
                }
            }
        }
        segs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(core::cmp::Ordering::Equal));
        // Canonicalise: equal-slope segments are adjacent after the sort and
        // concatenate into one — without this, repeated convolutions grow
        // the segment list (and every downstream walk) linearly per call.
        segs.dedup_by(|next, kept| {
            if next.0 == kept.0 {
                kept.1 += next.1;
                true
            } else {
                false
            }
        });
        let mut x = self.latency() + other.latency();
        let mut y = 0.0;
        let mut pieces: Vec<Affine> = Vec::with_capacity(segs.len() + 1);
        for (slope, len) in segs {
            if slope > 0.0 {
                pieces.push(Affine {
                    burst: y - slope * x,
                    rate: slope,
                });
            }
            x += len;
            y += slope * len;
        }
        pieces.push(Affine {
            burst: y - tail * x,
            rate: tail,
        });
        ServiceCurve::normalized(pieces)
    }

    /// Left-over (residual) service under blind multiplexing with cross
    /// traffic `cross`: the non-decreasing closure of `(β − α_cross)⁺`,
    /// exact because convex − concave is convex. Returns `None` when the
    /// cross traffic's long-run rate uses up the whole guarantee
    /// (`β.tail_rate ≤ cross.rate` — divergence signal).
    pub fn left_over(&self, cross: &ArrivalCurve) -> Option<ServiceCurve> {
        if self.tail_rate() - cross.rate() <= 0.0 {
            return None;
        }
        // Single-piece β is a rate-latency curve: the closed form in
        // [`RateLatency::left_over_into`] gives the identical envelope
        // without the breakpoint merge, sort, and probe walk below.
        if self.pieces.len() == 1 {
            let rl = RateLatency {
                rate: self.pieces[0].rate,
                latency: self.latency(),
            };
            let mut out = ServiceCurve::placeholder();
            return rl.left_over_into(cross, &mut out).then_some(out);
        }
        // Merge both curves' breakpoints; on each interval the difference is
        // a single affine piece. Pieces from the zero floor of β, and pieces
        // with non-positive slope, are never positive and drop out.
        let mut xs: Vec<f64> = vec![0.0];
        xs.extend(self.breakpoints());
        xs.extend(cross.breakpoints());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
        xs.dedup();
        let lat = self.latency();
        let mut pieces: Vec<Affine> = Vec::with_capacity(xs.len());
        for (k, &x) in xs.iter().enumerate() {
            if x < lat && xs.get(k + 1).is_some_and(|&n| n <= lat) {
                continue; // β is on its zero floor for this interval.
            }
            // Probe strictly inside the interval [x, next) so the active
            // pieces are unambiguous.
            let probe = match xs.get(k + 1) {
                Some(&next) => x + (next - x) * 0.5,
                None => x + 1.0,
            }
            .max(lat);
            // Active β piece: the one attaining the max at the probe
            // (first-wins tie break keeps this deterministic).
            let mut sp = self.pieces[0];
            for p in &self.pieces[1..] {
                if p.eval(probe) > sp.eval(probe) {
                    sp = *p;
                }
            }
            let ap = cross.pieces[cross.active_index(probe)];
            let piece = Affine {
                burst: sp.burst - ap.burst,
                rate: sp.rate - ap.rate,
            };
            if piece.rate > 0.0 {
                pieces.push(piece);
            }
        }
        if pieces.is_empty() {
            return None;
        }
        Some(ServiceCurve::normalized(pieces))
    }

    /// Conservative rate-latency lower bound `β_{R,T} ≤ β` with
    /// `R = tail_rate` and the smallest sound `T`. Used to keep
    /// deconvolution in closed form (documented deviation from the exact
    /// PWL deconvolution).
    pub fn rate_latency_bound(&self) -> RateLatency {
        let r = self.tail_rate();
        // t − β(t)/R is non-decreasing for convex β with tail rate R and
        // constant once the tail piece is active: its value at the last
        // breakpoint is the supremum. In normal form the crossings are
        // already sorted, so the last breakpoint is the final window's
        // crossing (or the latency instant for a single piece).
        let mut t = self.latency();
        if self.pieces.len() > 1 {
            let n = self.pieces.len();
            t = t.max(crossing(self.pieces[n - 1], self.pieces[n - 2]));
        }
        RateLatency {
            rate: r,
            latency: (t - self.eval(t) / r).max(0.0),
        }
    }
}

// ---------------------------------------------------------------------------
// Deviation operators
// ---------------------------------------------------------------------------

/// Horizontal deviation `h(α, β) = sup_t inf{d ≥ 0 : β(t+d) ≥ α(t)}` — the
/// worst-case delay of a flow `α` through a server guaranteeing `β`
/// (FIFO-per-flow). `None` when `α`'s long-run rate exceeds `β`'s.
pub fn delay_bound(alpha: &ArrivalCurve, beta: &ServiceCurve) -> Option<f64> {
    if alpha.rate() > beta.tail_rate() {
        return None;
    }
    // The map t ↦ β⁻¹(α(t)) − t is piecewise linear with kinks at α's
    // breakpoints and wherever α(t) crosses one of β's breakpoint heights;
    // its tail slope is ≤ 0, so the supremum is attained at a candidate.
    // Candidates are enumerated in place (both curves are in normal form
    // with sorted crossings) — no allocation on this path.
    let gap_at = |t: f64| beta.inverse(alpha.eval(t)) - t;
    let mut worst = gap_at(0.0);
    let ap = alpha.pieces();
    for w in ap.windows(2) {
        worst = worst.max(gap_at(crossing(w[0], w[1])));
    }
    let mut check_height = |y: f64| {
        if let Some(t) = alpha.inverse(y) {
            worst = worst.max(gap_at(t));
        }
    };
    check_height(beta.eval(beta.latency()));
    let bp = beta.pieces();
    for w in bp.windows(2) {
        check_height(beta.eval(crossing(w[1], w[0])));
    }
    Some(worst.max(0.0))
}

/// Vertical deviation `v(α, β) = sup_t (α(t) − β(t))` — the worst-case
/// backlog. `None` when `α`'s long-run rate exceeds `β`'s.
pub fn backlog_bound(alpha: &ArrivalCurve, beta: &ServiceCurve) -> Option<f64> {
    if alpha.rate() > beta.tail_rate() {
        return None;
    }
    let gap_at = |t: f64| alpha.eval(t) - beta.eval(t);
    let mut worst = gap_at(0.0).max(0.0);
    let ap = alpha.pieces();
    for w in ap.windows(2) {
        worst = worst.max(gap_at(crossing(w[0], w[1])));
    }
    worst = worst.max(gap_at(beta.latency()));
    let bp = beta.pieces();
    for w in bp.windows(2) {
        worst = worst.max(gap_at(crossing(w[1], w[0])));
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb(b: f64, r: f64) -> ArrivalCurve {
        ArrivalCurve::token_bucket(b, r).unwrap()
    }

    #[test]
    fn envelope_normal_form() {
        let a = ArrivalCurve::from_pieces(vec![
            Affine {
                burst: 10.0,
                rate: 1.0,
            },
            Affine {
                burst: 2.0,
                rate: 5.0,
            },
            Affine {
                burst: 100.0,
                rate: 0.5,
            },
            // Dominated: steeper and larger burst than the 5-rate piece.
            Affine {
                burst: 3.0,
                rate: 7.0,
            },
        ])
        .unwrap();
        let rates: Vec<f64> = a.pieces().iter().map(|p| p.rate).collect();
        assert_eq!(rates, vec![5.0, 1.0, 0.5]);
        assert_eq!(a.burst(), 2.0);
        assert_eq!(a.rate(), 0.5);
        // Evaluate against the brute-force min.
        for t in [0.0, 1.0, 2.0, 5.0, 50.0, 500.0] {
            let brute = (2.0_f64 + 5.0 * t)
                .min(10.0 + t)
                .min(100.0 + 0.5 * t)
                .min(3.0 + 7.0 * t);
            assert!((a.eval(t) - brute).abs() < 1e-12);
        }
    }

    #[test]
    fn plus_and_min_are_exact() {
        let a = tb(3.0, 2.0).min(&tb(10.0, 0.5));
        let b = tb(1.0, 1.0);
        let mut s = ArrivalCurve::zero();
        a.plus_into(&b, &mut s);
        for t in [0.0, 0.1, 1.0, 4.0, 4.6666, 10.0, 100.0] {
            assert!((s.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-9);
            assert!((a.min(&b).eval(t) - a.eval(t).min(b.eval(t))).abs() < 1e-9);
        }
    }

    #[test]
    fn rate_latency_delay_backlog_closed_forms() {
        // Token bucket through β_{R,T}: delay = T + b/R, backlog = b + r·T.
        let alpha = tb(4.0, 0.5);
        let beta = ServiceCurve::rate_latency(2.0, 3.0).unwrap();
        let d = delay_bound(&alpha, &beta).unwrap();
        assert!((d - (3.0 + 4.0 / 2.0)).abs() < 1e-12, "d = {d}");
        let v = backlog_bound(&alpha, &beta).unwrap();
        assert!((v - (4.0 + 0.5 * 3.0)).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn divergent_rates_are_signalled() {
        let alpha = tb(1.0, 3.0);
        let beta = ServiceCurve::rate_latency(2.0, 0.0).unwrap();
        assert_eq!(delay_bound(&alpha, &beta), None);
        assert_eq!(backlog_bound(&alpha, &beta), None);
        assert!(alpha
            .deconvolve(RateLatency {
                rate: 2.0,
                latency: 0.0
            })
            .is_none());
        assert!(beta.left_over(&tb(0.0, 2.0)).is_none());
    }

    #[test]
    fn deconvolve_token_bucket() {
        // γ_{r,b} ⊘ β_{R,T} = γ_{r, b + rT} for r ≤ R.
        let alpha = tb(4.0, 0.5);
        let out = alpha
            .deconvolve(RateLatency {
                rate: 2.0,
                latency: 3.0,
            })
            .unwrap();
        assert!((out.burst() - (4.0 + 0.5 * 3.0)).abs() < 1e-12);
        assert!((out.rate() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn deconvolve_clips_steep_prefix() {
        // Two-piece α with a steep head; the head is clipped to rate R.
        let alpha = tb(1.0, 5.0).min(&tb(9.0, 1.0)); // kink at t = 2
        let rl = RateLatency {
            rate: 2.0,
            latency: 1.0,
        };
        let out = alpha.deconvolve(rl).unwrap();
        // Supremum definition cross-check on a dense grid.
        for t in 0..60 {
            let t = t as f64 * 0.25;
            let mut sup = 0.0_f64;
            for u in 0..400 {
                let u = u as f64 * 0.05;
                sup = sup.max(alpha.eval(t + u) - rl.to_curve().eval(u));
            }
            assert!(
                out.eval(t) >= sup - 1e-9,
                "deconvolution must dominate the sup at t={t}: {} < {sup}",
                out.eval(t)
            );
            assert!(
                out.eval(t) <= sup + 0.35,
                "deconvolution should be tight at t={t}: {} vs {sup}",
                out.eval(t)
            );
        }
    }

    #[test]
    fn service_convolution_adds_latencies_and_keeps_flat_tail() {
        let b1 = ServiceCurve::rate_latency(2.0, 3.0).unwrap();
        let b2 = ServiceCurve::rate_latency(1.0, 2.0).unwrap();
        let c = b1.convolve(&b2);
        assert!((c.latency() - 5.0).abs() < 1e-12);
        assert!((c.tail_rate() - 1.0).abs() < 1e-15);
        // β₁⊗β₂ for rate-latency curves = β_{min(R), T₁+T₂}.
        for t in [0.0, 5.0, 6.0, 10.0, 100.0] {
            assert!((c.eval(t) - 1.0 * (t - 5.0).max(0.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn left_over_is_exact_difference() {
        let beta = ServiceCurve::rate_latency(3.0, 2.0).unwrap();
        let cross = tb(2.0, 1.0).min(&tb(5.0, 0.5));
        let lo = beta.left_over(&cross).unwrap();
        for t in [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 100.0] {
            let want = (beta.eval(t) - cross.eval(t)).max(0.0);
            // Non-decreasing closure can only raise the early zero region;
            // on the positive region it matches exactly.
            if want > 0.0 {
                assert!(
                    (lo.eval(t) - want).abs() < 1e-9,
                    "t={t}: {} vs {want}",
                    lo.eval(t)
                );
            } else {
                assert!(lo.eval(t) <= 1e-9);
            }
        }
    }

    #[test]
    fn rate_latency_bound_is_sound_and_tight_on_rate_latency() {
        let beta = ServiceCurve::rate_latency(3.0, 2.0).unwrap();
        let rl = beta.rate_latency_bound();
        assert!((rl.rate - 3.0).abs() < 1e-15);
        assert!((rl.latency - 2.0).abs() < 1e-12);
        // A kinked left-over curve: bound must stay below the curve.
        let lo = beta.left_over(&tb(2.0, 1.0)).unwrap();
        let rl = lo.rate_latency_bound();
        for t in [0.0, 1.0, 2.0, 5.0, 20.0] {
            assert!(rl.to_curve().eval(t) <= lo.eval(t) + 1e-9);
        }
    }

    #[test]
    fn advance_time_dominates_true_right_shift() {
        let a = tb(1.0, 5.0).min(&tb(9.0, 1.0)).min(&tb(20.0, 0.25));
        for d in [0.0, 0.5, 2.0, 10.0, 100.0] {
            let shifted = a.advance_time(d);
            // Still a valid concave envelope in normal form…
            for w in shifted.pieces().windows(2) {
                assert!(w[0].rate > w[1].rate);
                assert!(w[0].burst < w[1].burst);
            }
            // …that dominates the true right-shift α((t−d)⁺) pointwise.
            for t in 0..200 {
                let t = t as f64 * 0.25;
                let truth = if t >= d { a.eval(t - d) } else { 0.0 };
                assert!(
                    shifted.eval(t) >= truth - 1e-9,
                    "d={d} t={t}: {} < {truth}",
                    shifted.eval(t)
                );
            }
        }
        // Zero shift is the identity.
        assert_eq!(a.advance_time(0.0), a);
    }

    #[test]
    fn compact_is_a_sound_over_approximation() {
        let a = tb(1.0, 8.0)
            .min(&tb(2.0, 5.0))
            .min(&tb(4.0, 3.0))
            .min(&tb(7.0, 2.0))
            .min(&tb(12.0, 1.0))
            .min(&tb(30.0, 0.5));
        assert_eq!(a.pieces().len(), 6);
        let mut c = a.clone();
        c.compact(3);
        assert_eq!(c.pieces().len(), 3);
        // Burst and long-run rate survive; the envelope only moves up.
        assert_eq!(c.burst(), a.burst());
        assert_eq!(c.rate(), a.rate());
        for t in 0..400 {
            let t = t as f64 * 0.1;
            assert!(c.eval(t) >= a.eval(t) - 1e-12, "t={t}");
        }
    }

    #[test]
    fn plus_into_matches_pointwise_sum_and_reuses_storage() {
        let a = tb(3.0, 2.0).min(&tb(10.0, 0.5));
        let b = tb(1.0, 1.0).min(&tb(4.0, 0.25));
        let mut out = ArrivalCurve::placeholder();
        a.plus_into(&b, &mut out);
        for t in [0.0, 0.5, 1.0, 3.5, 4.6666, 10.0, 100.0] {
            assert!((out.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-9);
        }
        // Normal form: strictly decreasing rates, strictly increasing bursts.
        for w in out.pieces().windows(2) {
            assert!(w[0].rate > w[1].rate && w[0].burst < w[1].burst);
        }
        // Reuse the same scratch for a second, smaller sum.
        let c = tb(2.0, 0.125);
        a.plus_into(&c, &mut out);
        for t in [0.0, 1.0, 7.0, 50.0] {
            assert!((out.eval(t) - (a.eval(t) + c.eval(t))).abs() < 1e-9);
        }
    }

    #[test]
    fn rate_latency_left_over_into_matches_generic() {
        let rl = RateLatency {
            rate: 3.0,
            latency: 2.0,
        };
        let cross = tb(2.0, 1.0).min(&tb(5.0, 0.5));
        let mut fast = ServiceCurve::placeholder();
        assert!(rl.left_over_into(&cross, &mut fast));
        let slow = rl.to_curve().left_over(&cross).unwrap();
        for t in [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 100.0] {
            assert!(
                (fast.eval(t) - slow.eval(t)).abs() < 1e-9,
                "t={t}: {} vs {}",
                fast.eval(t),
                slow.eval(t)
            );
        }
        // Saturated guarantee is signalled, not silently clamped.
        assert!(!rl.left_over_into(&tb(0.0, 3.0), &mut fast));
    }

    #[test]
    fn convolve_canonicalises_equal_slopes() {
        let b = ServiceCurve::rate_latency(2.0, 1.0).unwrap();
        let lo = b.left_over(&tb(1.0, 0.5)).unwrap();
        // Repeated self-convolution must not grow the piece list without
        // bound: slopes repeat and equal-slope segments concatenate.
        let mut acc = lo.clone();
        let mut last = acc.pieces().len();
        for _ in 0..6 {
            acc = acc.convolve(&lo);
            assert!(
                acc.pieces().len() <= last + lo.pieces().len(),
                "segment creep: {} pieces",
                acc.pieces().len()
            );
            last = acc.pieces().len();
        }
    }

    #[test]
    fn inverse_walks_the_envelope() {
        let a = tb(1.0, 5.0).min(&tb(9.0, 1.0));
        assert_eq!(a.inverse(0.5), Some(0.0));
        assert!((a.inverse(6.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((a.inverse(12.0).unwrap() - 3.0).abs() < 1e-12);
        let flat = ArrivalCurve::from_pieces(vec![Affine {
            burst: 2.0,
            rate: 0.0,
        }])
        .unwrap();
        assert_eq!(flat.inverse(3.0), None);
    }
}
