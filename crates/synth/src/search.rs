//! The synthesis search: greedy construction plus local refinement, every
//! accepted step re-certified by the network-calculus engine.
//!
//! The search is fully deterministic — identical matrices and configs
//! yield identical topologies, bounds, and census counts. Construction
//! clusters stations by traffic locality under per-ring utilisation and
//! node-count budgets, bridges the clusters along a max-weight spanning
//! tree, then repairs (split-ring, add-bridge) until the guaranteed set
//! certifies. Refinement then alternates remove-bridge (ring merges, the
//! only move that lowers cost) with move-station (cost-neutral, accepted
//! on certified-slack gains) — merges re-certify from scratch (a counted
//! full solve), station moves warm-start the incremental solver on just
//! the moved station's flows.

use crate::candidate::{Candidate, MAX_RING_NODES};
use crate::certify::{
    full_reference_bounds, min_slot_bytes, probe_env, Certifier, Refusal, RejectionCensus,
};
use crate::matrix::{MatrixError, StationId, TrafficMatrix};
use crate::report::{RingSummary, SynthReport};
use ccr_multiring::admission::SegmentEnv;
use ccr_multiring::{FabricConnectionSpec, FabricTopology, GlobalNodeId};
use ccr_sim::TimeDelta;

/// Tunables for one synthesis run. The defaults reproduce the paper-scale
/// fabrics the experiments use; every field is plain data.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Cost per ring node (station or bridge port).
    pub node_weight: u64,
    /// Cost per bridge (on top of its two port nodes).
    pub bridge_weight: u64,
    /// Largest ring the search may emit (stations + ports, ≤ 64). The
    /// search certifies against this size's slot floor, so smaller caps
    /// mean tighter search-time bounds.
    pub max_ring_nodes: u16,
    /// Per-ring guaranteed utilisation budget the clustering constructor
    /// respects (the certifier, not this bound, has the final word).
    pub utilisation_target: f64,
    /// Refinement rounds (each round sweeps every merge and station
    /// move); refinement also stops at the first round with no accepted
    /// move.
    pub max_rounds: u32,
    /// Search-time slot payload floor override in bytes (the search
    /// always uses at least the slot floor of `max_ring_nodes`).
    pub slot_bytes: Option<u32>,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            node_weight: 1,
            bridge_weight: 1,
            max_ring_nodes: 16,
            utilisation_target: 0.6,
            max_rounds: 8,
            slot_bytes: None,
        }
    }
}

/// Why synthesis returned no topology.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// The input matrix is malformed or semantically invalid.
    Matrix(MatrixError),
    /// One station's own guaranteed demand exceeds a ring's certified
    /// service rate — no topology can carry it.
    Overloaded {
        /// The overloaded station.
        station: StationId,
        /// Its aggregate guaranteed demand (slots/ps).
        demand: f64,
        /// A ring's guaranteed service rate (slots/ps) at the search slot
        /// size.
        capacity: f64,
    },
    /// Construction and repair ran out of candidates: no searched
    /// topology certified the guaranteed set. The census says why each
    /// attempt died.
    Exhausted {
        /// Refusals tallied across the whole search.
        census: RejectionCensus,
    },
    /// The physical/slot configuration itself was rejected (e.g. an
    /// unbuildable `max_ring_nodes`).
    Config(String),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Matrix(e) => write!(f, "matrix: {e}"),
            SynthError::Overloaded {
                station,
                demand,
                capacity,
            } => write!(
                f,
                "station {station} demands {:.3e} slots/ps of a {:.3e} slots/ps ring",
                demand, capacity
            ),
            SynthError::Exhausted { census } => write!(
                f,
                "no candidate topology certified ({} refusals: {} utilisation, {} bound, {} diverged, {} deadline-floor, {} routing, {} shape)",
                census.total(),
                census.utilisation,
                census.bound_exceeded,
                census.diverged,
                census.deadline_floor,
                census.routing,
                census.shape,
            ),
            SynthError::Config(msg) => write!(f, "config: {msg}"),
        }
    }
}

impl std::error::Error for SynthError {}

impl From<MatrixError> for SynthError {
    fn from(e: MatrixError) -> Self {
        SynthError::Matrix(e)
    }
}

/// A certified synthesis result: the topology, the exact-environment
/// certificates, and everything needed to build and load the real fabric.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The accepted candidate shape (station partition + bridges).
    pub candidate: Candidate,
    /// The frozen, validated topology.
    pub topology: FabricTopology,
    /// Station → fabric node map.
    pub station_nodes: Vec<GlobalNodeId>,
    /// The input matrix (flow indices below refer into it).
    pub matrix: TrafficMatrix,
    /// The machine-readable run report.
    pub report: SynthReport,
    /// Slot payload the search certified against (the floor of
    /// `max_ring_nodes`).
    pub search_slot_bytes: u32,
    /// Exact slot payload of the synthesized fabric (the largest per-ring
    /// floor — never above `search_slot_bytes`, so exact bounds only
    /// tighten).
    pub slot_bytes: u32,
    /// Per guaranteed flow: (matrix index, bound) from the search's final
    /// warm-started fixed point, at the search environment.
    pub search_bounds: Vec<(usize, TimeDelta)>,
    /// Per guaranteed flow: (matrix index, bound) from the exact-slot
    /// certification the fabric will actually enforce.
    pub bounds: Vec<(usize, TimeDelta)>,
    /// The uniform pessimistic environment the search certified against.
    search_env: SegmentEnv,
}

impl Synthesis {
    /// The fabric node a station was placed on.
    pub fn station_node(&self, s: StationId) -> GlobalNodeId {
        self.station_nodes[s.0 as usize]
    }

    /// The connection spec matrix flow `key` admits as on the synthesized
    /// fabric (guaranteed flows via `open_connection`, best-effort via
    /// `open_best_effort`).
    pub fn connection_spec(&self, key: usize) -> FabricConnectionSpec {
        let f = &self.matrix.flows[key];
        FabricConnectionSpec::unicast(self.station_node(f.src), self.station_node(f.dst))
            .period(f.period)
            .size_slots(f.size_slots)
            .e2e_deadline(f.deadline)
    }

    /// Build a runnable [`ccr_multiring::FabricConfig`] for the
    /// synthesized topology at the exact slot size, with the calculus
    /// certifier forced on.
    pub fn fabric_config(
        &self,
        seed: u64,
    ) -> Result<ccr_multiring::FabricConfig, ccr_multiring::FabricBuildError> {
        let mut cfg =
            ccr_multiring::FabricConfig::uniform(self.topology.clone(), self.slot_bytes, seed)?;
        cfg.calculus = true;
        Ok(cfg)
    }

    /// Re-certify the synthesized topology from a cold solver in forced
    /// full mode, at the **search** environment — the bit-exact reference
    /// the differential property compares [`Synthesis::search_bounds`]
    /// against.
    pub fn recertify_full(&self) -> Result<Vec<(usize, TimeDelta)>, SynthError> {
        let envs = vec![self.search_env; self.candidate.rings.len()];
        full_reference_bounds(&self.candidate, &self.matrix, envs).map_err(|_| {
            SynthError::Exhausted {
                census: self.report.rejected,
            }
        })
    }
}

/// Synthesize the cheapest certified topology for `matrix`. See the
/// module docs for the search shape.
pub fn synthesize(matrix: &TrafficMatrix, config: &SynthConfig) -> Result<Synthesis, SynthError> {
    matrix.validate()?;
    if !(2..=MAX_RING_NODES).contains(&config.max_ring_nodes) {
        return Err(SynthError::Config(format!(
            "max_ring_nodes {} outside 2..=64",
            config.max_ring_nodes
        )));
    }
    let floor = min_slot_bytes(config.max_ring_nodes)
        .ok_or_else(|| SynthError::Config("max_ring_nodes has no feasible slot size".into()))?;
    let search_sb = floor.max(config.slot_bytes.unwrap_or(0));
    let (env, search_sb) = probe_env(config.max_ring_nodes, search_sb)
        .ok_or_else(|| SynthError::Config("search slot size not buildable".into()))?;

    // A station whose own demand out-runs a whole ring's certified
    // service rate is hopeless on any topology: refuse it up front with
    // the numbers.
    let capacity = 1.0 / env.period.as_ps() as f64;
    for s in 0..matrix.stations {
        let demand = matrix.station_demand(StationId(s));
        if demand >= capacity {
            return Err(SynthError::Overloaded {
                station: StationId(s),
                demand,
                capacity,
            });
        }
    }

    let mut census = RejectionCensus::default();
    let mut cand = construct(matrix, config, capacity);

    // Calls made by certifiers that were discarded (failed or superseded)
    // along the way — folded into the report's totals at the end.
    let mut extra_calls = 0u64;
    let mut extra_fulls = 0u64;
    // A refusal from the calculus itself means one (full) solve ran
    // before the certifier was dropped.
    let solver_ran = |r: &Refusal| {
        matches!(
            r,
            Refusal::Utilisation | Refusal::BoundExceeded | Refusal::Diverged
        )
    };

    // Repair until the guaranteed set certifies: splits shed load and
    // shrink rings, merges (and shortcut bridges) cut hop counts. Budget
    // bounds the split/merge tug-of-war.
    let mut cert;
    let mut repairs = 2 * matrix.stations as u32 + 8;
    loop {
        match Certifier::new(&cand, matrix, vec![env; cand.rings.len()]) {
            Ok(c) => {
                cert = c;
                break;
            }
            Err(refusal) => {
                census.record(&refusal);
                if solver_ran(&refusal) {
                    extra_calls += 1;
                    extra_fulls += 1;
                }
                if repairs == 0 {
                    return Err(SynthError::Exhausted { census });
                }
                repairs -= 1;
                let next = match refusal {
                    Refusal::Utilisation | Refusal::BoundExceeded | Refusal::Diverged => {
                        split_worst_ring(&cand, matrix, capacity)
                            .or_else(|| shortcut_bridge(&cand, matrix))
                    }
                    Refusal::DeadlineFloor | Refusal::Routing => {
                        shortcut_bridge(&cand, matrix).or_else(|| merge_some_pair(&cand, config))
                    }
                    Refusal::Shape => merge_some_pair(&cand, config),
                };
                match next {
                    Some(n) => cand = n,
                    None => return Err(SynthError::Exhausted { census }),
                }
            }
        }
    }

    // Refinement: first-improvement hill climbing, deterministic sweep
    // order, until a full round accepts nothing or the round budget runs
    // out.
    let mut moves_attempted = 0u64;
    let mut moves_accepted = 0u64;
    for _ in 0..config.max_rounds {
        let mut accepted_this_round = false;

        // Remove-bridge (ring merge): strictly cheaper whenever it
        // certifies, so try every bridge.
        let mut bi = 0;
        while bi < cand.bridges.len() {
            moves_attempted += 1;
            match try_merge(&cand, bi) {
                Some(merged) => {
                    match Certifier::new(&merged, matrix, vec![env; merged.rings.len()]) {
                        Ok(c) => {
                            extra_calls += cert.calls;
                            extra_fulls += cert.full_solves;
                            cert = c;
                            cand = merged;
                            moves_accepted += 1;
                            accepted_this_round = true;
                            bi = 0; // bridge list changed; restart the sweep
                        }
                        Err(r) => {
                            census.record(&r);
                            if solver_ran(&r) {
                                extra_calls += 1;
                                extra_fulls += 1;
                            }
                            bi += 1;
                        }
                    }
                }
                None => {
                    census.record(&Refusal::Shape);
                    bi += 1;
                }
            }
        }

        // Move-station: cost-neutral, accepted on strict certified-slack
        // gains. Warm-started — only the moved station's flows re-solve.
        if cand.rings.len() > 1 {
            for s in 0..matrix.stations {
                let s = StationId(s);
                let from = cand.ring_of(s);
                if cand.rings[from].len() <= 1 {
                    continue; // a ring may not empty
                }
                let mut accepted_for_s = false;
                for to in 0..cand.rings.len() {
                    if to == from {
                        continue;
                    }
                    let mut moved = cand.clone();
                    let pos = moved.rings[from]
                        .iter()
                        .position(|&x| x == s)
                        .expect("invariant: `s` was drawn from ring `from`");
                    moved.rings[from].remove(pos);
                    moved.rings[to].push(s);
                    if !moved.shape_ok() {
                        continue;
                    }
                    moves_attempted += 1;
                    let before = cert.total_slack(matrix);
                    let dirty = Certifier::flows_touching(matrix, s);
                    cert.remove_flows(&dirty);
                    if cert.retarget(&moved).is_err() {
                        // Shape was pre-checked; restore and move on.
                        census.record(&Refusal::Shape);
                        cert.admit_flows(matrix, &dirty)
                            .expect("previously certified set re-admits");
                        continue;
                    }
                    match cert.admit_flows(matrix, &dirty) {
                        Ok(()) => {
                            if cert.total_slack(matrix) > before {
                                cand = moved;
                                moves_accepted += 1;
                                accepted_this_round = true;
                                accepted_for_s = true;
                            } else {
                                // Roll back: same server set, so the warm
                                // remove/readmit restores the fixed point
                                // bit for bit.
                                cert.remove_flows(&dirty);
                                cert.retarget(&cand).expect("old candidate was valid");
                                cert.admit_flows(matrix, &dirty)
                                    .expect("previously certified set re-admits");
                            }
                        }
                        Err(r) => {
                            // A failed batch already rolled its own admits
                            // back; only the retarget needs undoing.
                            census.record(&r);
                            cert.retarget(&cand).expect("old candidate was valid");
                            cert.admit_flows(matrix, &dirty)
                                .expect("previously certified set re-admits");
                        }
                    }
                    if accepted_for_s {
                        break; // `from` is stale once the station moved
                    }
                }
            }
        }

        if !accepted_this_round {
            break;
        }
    }

    // Exact certification: the fabric's real slot size is the largest
    // per-ring floor, never above the search's, so the search certificate
    // transfers (shorter slots, strictly faster service).
    let mut exact_sb = config.slot_bytes.unwrap_or(0);
    for r in 0..cand.rings.len() {
        let floor = min_slot_bytes(cand.ring_nodes(r) as u16)
            .ok_or_else(|| SynthError::Config(format!("ring {r} has no feasible slot size")))?;
        exact_sb = exact_sb.max(floor);
    }
    // Each ring's true environment at the common exact slot size — the
    // same envs the fabric engine derives when it builds this topology,
    // so the fabric's runtime certificates reproduce `bounds` exactly.
    let mut exact_envs = Vec::with_capacity(cand.rings.len());
    for r in 0..cand.rings.len() {
        let (renv, sb) = probe_env(cand.ring_nodes(r) as u16, exact_sb)
            .ok_or_else(|| SynthError::Config(format!("ring {r} not buildable at exact slot")))?;
        debug_assert_eq!(sb, exact_sb, "exact slot is above every ring's floor");
        exact_envs.push(renv);
    }
    let exact = match Certifier::new(&cand, matrix, exact_envs) {
        Ok(c) => c,
        Err(r) => {
            census.record(&r);
            return Err(SynthError::Exhausted { census });
        }
    };

    let search_bounds: Vec<(usize, TimeDelta)> = matrix
        .guaranteed()
        .map(|(k, _)| (k, cert.bound(k).expect("certified")))
        .collect();
    let bounds: Vec<(usize, TimeDelta)> = matrix
        .guaranteed()
        .map(|(k, _)| (k, exact.bound(k).expect("certified")))
        .collect();

    let nodes = cand.n_nodes() as u64;
    let bridges = cand.bridges.len() as u64;
    let utilisation = exact.ring_utilisation(matrix);
    let mut ring_min_slack: Vec<Option<TimeDelta>> = vec![None; cand.rings.len()];
    for (k, f) in matrix.guaranteed() {
        if let Ok(plan) = exact.plan_for(matrix, k) {
            let slack = f
                .deadline
                .saturating_sub(exact.bound(k).expect("certified"));
            for seg in &plan.segments {
                let r = seg.segment.ring.0 as usize;
                ring_min_slack[r] = Some(match ring_min_slack[r] {
                    Some(cur) => cur.min(slack),
                    None => slack,
                });
            }
        }
    }
    let report = SynthReport {
        cost: config.node_weight * nodes + config.bridge_weight * bridges,
        nodes,
        bridges,
        rings: (0..cand.rings.len())
            .map(|r| RingSummary {
                stations: cand.rings[r].len() as u16,
                nodes: cand.ring_nodes(r) as u16,
                utilisation: utilisation[r],
                min_slack: ring_min_slack[r],
            })
            .collect(),
        guaranteed_flows: matrix.guaranteed().count() as u64,
        best_effort_flows: matrix.best_effort().count() as u64,
        total_slack: exact.total_slack(matrix),
        certifier_calls: extra_calls + cert.calls + exact.calls,
        full_solves: extra_fulls + cert.full_solves + exact.full_solves,
        moves_attempted,
        moves_accepted,
        rejected: census,
    };

    let Certifier {
        topo: topology,
        station_nodes,
        ..
    } = exact;
    Ok(Synthesis {
        candidate: cand,
        topology,
        station_nodes,
        matrix: matrix.clone(),
        report,
        search_slot_bytes: search_sb,
        slot_bytes: exact_sb,
        search_bounds,
        bounds,
        search_env: env,
    })
}

/// Traffic weight between two stations: summed rates of every flow (both
/// classes — locality helps best-effort too) in either direction.
fn pair_weight(matrix: &TrafficMatrix, a: StationId, b: StationId) -> f64 {
    matrix
        .flows
        .iter()
        .filter(|f| (f.src == a && f.dst == b) || (f.src == b && f.dst == a))
        .map(|f| f.rate())
        .sum()
}

/// Greedy agglomerative construction: every station starts alone; the
/// heaviest-traffic cluster pair merges while the merged cluster fits the
/// node cap (stations plus a two-port reserve) and the utilisation
/// budget. Zero-weight merges are taken too — fewer rings are always
/// cheaper — and ties break on lowest station ids, keeping the
/// constructor deterministic.
fn construct(matrix: &TrafficMatrix, config: &SynthConfig, capacity: f64) -> Candidate {
    let station_cap = (config.max_ring_nodes.saturating_sub(2)).max(1) as usize;
    let mut clusters: Vec<Vec<StationId>> =
        (0..matrix.stations).map(|s| vec![StationId(s)]).collect();

    let cluster_demand = |c: &[StationId]| -> f64 {
        matrix
            .guaranteed()
            .filter(|(_, f)| c.contains(&f.src) || c.contains(&f.dst))
            .map(|(_, f)| f.rate())
            .sum()
    };
    let cluster_weight = |a: &[StationId], b: &[StationId]| -> f64 {
        let mut w = 0.0;
        for &x in a {
            for &y in b {
                w += pair_weight(matrix, x, y);
            }
        }
        w
    };

    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                if clusters[i].len() + clusters[j].len() > station_cap {
                    continue;
                }
                let merged: Vec<StationId> = clusters[i]
                    .iter()
                    .chain(clusters[j].iter())
                    .copied()
                    .collect();
                if cluster_demand(&merged) > config.utilisation_target * capacity {
                    continue;
                }
                let w = cluster_weight(&clusters[i], &clusters[j]);
                let better = match best {
                    None => true,
                    Some((_, _, bw)) => w > bw,
                };
                if better {
                    best = Some((i, j, w));
                }
            }
        }
        match best {
            Some((i, j, _)) => {
                let absorbed = clusters.remove(j);
                clusters[i].extend(absorbed);
            }
            None => break,
        }
    }

    for c in &mut clusters {
        c.sort();
    }
    clusters.sort_by_key(|c| c[0]);

    if clusters.len() == 1 {
        return Candidate {
            rings: clusters,
            bridges: Vec::new(),
        };
    }

    // Bridge the clusters along a max-weight spanning tree (Kruskal,
    // weight-descending, index tie-break); zero-weight edges still join
    // so the fabric connects.
    let n = clusters.len();
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((i, j, cluster_weight(&clusters[i], &clusters[j])));
        }
    }
    edges.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut bridges = Vec::with_capacity(n - 1);
    for (i, j, _) in edges {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[ri] = rj;
            bridges.push((i, j));
        }
    }
    bridges.sort();
    Candidate {
        rings: clusters,
        bridges,
    }
}

/// Split the most loaded multi-station ring in half, bridging the halves
/// — sheds utilisation and shortens the split ring.
fn split_worst_ring(cand: &Candidate, matrix: &TrafficMatrix, capacity: f64) -> Option<Candidate> {
    let mut worst: Option<(usize, f64)> = None;
    for (r, ring) in cand.rings.iter().enumerate() {
        if ring.len() < 2 {
            continue;
        }
        let demand: f64 = matrix
            .guaranteed()
            .filter(|(_, f)| ring.contains(&f.src) || ring.contains(&f.dst))
            .map(|(_, f)| f.rate())
            .sum();
        let load = demand / capacity;
        if worst.map(|(_, w)| load > w).unwrap_or(true) {
            worst = Some((r, load));
        }
    }
    let (r, _) = worst?;
    let mut next = cand.clone();
    let ring = next.rings[r].clone();
    let mid = ring.len() / 2;
    next.rings[r] = ring[..mid].to_vec();
    let new_ring = next.rings.len();
    next.rings.push(ring[mid..].to_vec());
    next.bridges.push((r, new_ring));
    next.bridges.sort();
    next.shape_ok().then_some(next)
}

/// Add a direct bridge between the two rings of the guaranteed flow with
/// the longest route — the repair for deadline floors built from too many
/// hops.
fn shortcut_bridge(cand: &Candidate, matrix: &TrafficMatrix) -> Option<Candidate> {
    if cand.rings.len() < 2 {
        return None;
    }
    let mut worst: Option<(usize, usize, usize)> = None; // (hops, ra, rb)
    for (_, f) in matrix.guaranteed() {
        let (ra, rb) = (cand.ring_of(f.src), cand.ring_of(f.dst));
        if ra == rb {
            continue;
        }
        let hops = ring_distance(cand, ra, rb)?;
        if worst.map(|(h, _, _)| hops > h).unwrap_or(true) {
            worst = Some((hops, ra.min(rb), ra.max(rb)));
        }
    }
    let (hops, ra, rb) = worst?;
    if hops < 2 || cand.bridges.contains(&(ra, rb)) {
        return None; // already adjacent (or bridged): a shortcut buys nothing
    }
    let mut next = cand.clone();
    next.bridges.push((ra, rb));
    next.bridges.sort();
    next.shape_ok().then_some(next)
}

/// Bridge-count distance between two rings (BFS over the ring graph).
fn ring_distance(cand: &Candidate, from: usize, to: usize) -> Option<usize> {
    let n = cand.rings.len();
    let mut dist = vec![usize::MAX; n];
    dist[from] = 0;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(r) = queue.pop_front() {
        if r == to {
            return Some(dist[r]);
        }
        for &(a, b) in &cand.bridges {
            let next = if a == r {
                b
            } else if b == r {
                a
            } else {
                continue;
            };
            if dist[next] == usize::MAX {
                dist[next] = dist[r] + 1;
                queue.push_back(next);
            }
        }
    }
    None
}

/// Remove bridge `bi` and merge its two rings into one. `None` when the
/// merged ring would break the shape limits or the removal disconnects
/// the fabric.
fn try_merge(cand: &Candidate, bi: usize) -> Option<Candidate> {
    let (a, b) = cand.bridges[bi];
    if a == b {
        return None;
    }
    let (keep, gone) = (a.min(b), a.max(b));
    let mut next = cand.clone();
    next.bridges.remove(bi);
    let absorbed = next.rings.remove(gone);
    next.rings[keep].extend(absorbed);
    for br in &mut next.bridges {
        let remap = |r: &mut usize| {
            if *r == gone {
                *r = keep;
            } else if *r > gone {
                *r -= 1;
            }
        };
        remap(&mut br.0);
        remap(&mut br.1);
        if br.0 > br.1 {
            std::mem::swap(&mut br.0, &mut br.1);
        }
    }
    next.bridges.sort();
    (next.shape_ok() && next.connected()).then_some(next)
}

/// Merge the cheapest mergeable bridge (used as a shape repair).
fn merge_some_pair(cand: &Candidate, _config: &SynthConfig) -> Option<Candidate> {
    (0..cand.bridges.len()).find_map(|bi| try_merge(cand, bi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_sim::TimeDelta;

    fn local_matrix() -> TrafficMatrix {
        // Two 3-station cliques with light cross traffic: locality should
        // pull each clique onto one ring.
        let mut m = TrafficMatrix::new(6);
        let p = TimeDelta::from_us(400);
        for &(a, b) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            m.flow(a, b, p);
        }
        m.flow(0, 3, TimeDelta::from_us(4000));
        m
    }

    #[test]
    fn construction_clusters_by_locality() {
        let m = local_matrix();
        // Cap of 5 nodes = 3 stations + the 2-port reserve: each clique
        // exactly fills one ring.
        let cfg = SynthConfig {
            max_ring_nodes: 5,
            ..SynthConfig::default()
        };
        let cap = 1.0 / TimeDelta::from_us(1).as_ps() as f64; // generous
        let cand = construct(&m, &cfg, cap);
        assert_eq!(cand.rings.len(), 2);
        assert_eq!(
            cand.rings[0],
            vec![StationId(0), StationId(1), StationId(2)]
        );
        assert_eq!(
            cand.rings[1],
            vec![StationId(3), StationId(4), StationId(5)]
        );
        assert_eq!(cand.bridges, vec![(0, 1)]);
    }

    #[test]
    fn merge_remaps_bridges() {
        let cand = Candidate {
            rings: vec![vec![StationId(0)], vec![StationId(1)], vec![StationId(2)]],
            bridges: vec![(0, 1), (1, 2)],
        };
        let merged = try_merge(&cand, 0).unwrap();
        assert_eq!(merged.rings.len(), 2);
        assert_eq!(merged.rings[0], vec![StationId(0), StationId(1)]);
        assert_eq!(merged.bridges, vec![(0, 1)]);
        assert!(merged.connected());
    }

    #[test]
    fn synthesizes_and_certifies_a_small_matrix() {
        let m = local_matrix();
        let s = synthesize(&m, &SynthConfig::default()).unwrap();
        assert_eq!(s.bounds.len(), 7);
        for (k, b) in &s.bounds {
            assert!(*b <= m.flows[*k].deadline, "flow {k} bound within deadline");
        }
        assert!(s.slot_bytes <= s.search_slot_bytes);
        assert_eq!(s.report.guaranteed_flows, 7);
        assert!(s.report.certifier_calls > 0);
        // Report and JSON render without panicking.
        let _ = format!("{}", s.report);
        assert!(s.report.to_json().contains("\"cost\""));
    }

    #[test]
    fn single_ring_fits_when_cheap() {
        // 4 stations with slack-heavy traffic: one ring of 4 nodes, no
        // bridges, cost 4.
        let mut m = TrafficMatrix::new(4);
        for s in 0..3u16 {
            m.flow(s, s + 1, TimeDelta::from_ms(10));
        }
        let s = synthesize(&m, &SynthConfig::default()).unwrap();
        assert_eq!(s.report.bridges, 0);
        assert_eq!(s.report.nodes, 4);
        assert_eq!(s.report.cost, 4);
    }

    #[test]
    fn overload_is_typed() {
        let mut m = TrafficMatrix::new(2);
        // One station pushing far beyond any ring's service rate.
        m.flow(0, 1, TimeDelta::from_ps(10)).size_slots = 1000;
        let err = synthesize(&m, &SynthConfig::default()).unwrap_err();
        assert!(matches!(err, SynthError::Overloaded { station, .. } if station == StationId(0)));
    }

    #[test]
    fn search_state_matches_full_reference() {
        let m = local_matrix();
        let s = synthesize(&m, &SynthConfig::default()).unwrap();
        let reference = s.recertify_full().unwrap();
        assert_eq!(
            s.search_bounds, reference,
            "warm-started search fixed point ≡ cold full solve"
        );
    }
}
