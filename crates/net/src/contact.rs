//! Contact detection: turning node positions into link-up/down events.
//!
//! Two update disciplines produce identical event streams:
//!
//! * [`ContactDetector::update`] — the ticked reference: recompute the full
//!   in-range pair set from scratch and merge-diff it against the previous
//!   set.
//! * [`ContactDetector::update_kinematic`] — the event-driven path: nodes
//!   move along piecewise-linear [`Segment`]s (one per node, borrowed from
//!   the world as `&[Segment]`), and each node carries a *slack deadline*,
//!   the earliest instant any of its pairs could flip in/out of range,
//!   bounded from its speed and the pair's quadratic contact window. An
//!   update re-queries only the nodes whose deadline is due (or whose
//!   segment changed, via [`ContactDetector::on_motion_change`]); a pair
//!   neither of whose endpoints is due provably kept its in-range status,
//!   so the diff is exact, not heuristic.
//!
//! Both find pairs through a [`SpatialGrid`]; the tests check them against
//! the O(n²) scan ([`SpatialGrid::pairs_within_naive`]). Both keep the
//! in-range pair set in one record, a sorted per-node adjacency.
//!
//! Pairs entering the set produce [`LinkEvent::Up`], pairs leaving produce
//! [`LinkEvent::Down`]. Events are emitted in deterministic order (downs
//! first, then ups, each lexicographically sorted), identically in both
//! disciplines.

use crate::interface::RadioInterface;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use vdtn_geo::{Point, Segment, SpatialGrid};
use vdtn_sim_core::{NodeId, SimDuration, SimTime};

/// Canonical (low, high) key for an unordered node pair — the one key form
/// used for pair-indexed state everywhere (detector diffs, link table,
/// contact trace, engine contact bookkeeping).
pub fn pair_key(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 < b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Assemble the canonical event stream from canonical-key diffs: downs
/// first (freeing nodes for new contacts), then ups, each lexicographically
/// sorted. Single-sourcing this keeps the ticked and kinematic detector
/// paths emitting byte-identical streams.
fn assemble_events(mut downs: Vec<(u32, u32)>, mut ups: Vec<(u32, u32)>) -> Vec<LinkEvent> {
    downs.sort_unstable();
    ups.sort_unstable();
    let mut events = Vec::with_capacity(downs.len() + ups.len());
    events.extend(
        downs
            .into_iter()
            .map(|(a, b)| LinkEvent::Down(NodeId(a), NodeId(b))),
    );
    events.extend(
        ups.into_iter()
            .map(|(a, b)| LinkEvent::Up(NodeId(a), NodeId(b))),
    );
    events
}

/// Insert `v` into a sorted vector, keeping it sorted (no-op when present).
fn insert_sorted(peers: &mut Vec<u32>, v: u32) {
    if let Err(pos) = peers.binary_search(&v) {
        peers.insert(pos, v);
    }
}

/// Remove `v` from a sorted vector (no-op when absent).
fn remove_sorted(peers: &mut Vec<u32>, v: u32) {
    if let Ok(pos) = peers.binary_search(&v) {
        peers.remove(pos);
    }
}

/// Guard band, metres, around the range boundary for the analytic
/// no-crossing proofs: a pair is only declared safe-for-the-window when its
/// extremal distance clears the boundary by at least this much, absorbing
/// float error in the quadratic.
const GUARD: f64 = 1e-6;

/// Safety margin, seconds, subtracted from an analytically solved crossing
/// time before it becomes a deadline, so float error in the root can never
/// push a wake *past* the true flip.
const ROOT_SAFETY: f64 = 1e-3;

/// Convert non-negative fractional seconds to a duration, rounding *down*
/// to the millisecond grid — deadline arithmetic must always err early.
fn floor_ms(secs: f64) -> SimDuration {
    debug_assert!(secs >= 0.0, "negative deadline distance {secs}");
    if secs >= u64::MAX as f64 / 1000.0 {
        return SimDuration::MAX;
    }
    SimDuration::from_millis((secs * 1000.0).floor() as u64)
}

/// Kinematic re-query radius in units of the radio range (see
/// [`kin_requery`] for why `3·range` suffices). It is also the side of the
/// detector grid's cells, so a re-query reads exactly the 3×3 buckets
/// around its node.
const REQUERY_RADII: f64 = 3.0;

/// A connectivity change between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// The pair came into radio range.
    Up(NodeId, NodeId),
    /// The pair left radio range.
    Down(NodeId, NodeId),
}

/// Stateful contact detector.
pub struct ContactDetector {
    range: f64,
    grid: SpatialGrid,
    // Scratch buffers reused across ticks.
    pairs_scratch: Vec<(u32, u32)>,
    query_scratch: Vec<u32>,
    /// The in-range pair set, the detector's one record of it: per-node
    /// sorted peer-id vectors (dense, cache-friendly — a 100k-node world
    /// pays 24 bytes + 4·degree per node instead of a hash table per node).
    /// Every pair appears in both endpoints' vectors.
    neighbors: Vec<Vec<u32>>,

    // --- Kinematic state (valid while `kin_valid`) ---
    /// True once `prime_kinematic` has built the deadline state. A ticked
    /// update invalidates it.
    kin_valid: bool,
    /// Per-node slack deadline: the earliest instant at which a pair
    /// involving this node could flip its in-range status, as bounded at the
    /// node's last re-query. Parked nodes carry [`SimTime::MAX`] — any flip
    /// of their pairs has a moving endpoint whose own deadline covers it.
    deadline: Vec<SimTime>,
    /// Min-heap of `(deadline, node)` wake entries. Entries are lazily
    /// invalidated: one whose time no longer equals `deadline[node]` is
    /// stale and discarded on pop. `(time, node)` keys totally order the
    /// pops, so push order never matters.
    due_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Scratch for the due set popped per update.
    due_scratch: Vec<u32>,
}

impl ContactDetector {
    /// Create a detector for interfaces with the given uniform range.
    ///
    /// Panics if `interface` fails [`RadioInterface::validate`].
    pub fn new(interface: RadioInterface) -> Self {
        interface.validate().unwrap_or_else(|e| panic!("{e}"));
        ContactDetector {
            range: interface.range,
            grid: SpatialGrid::new(REQUERY_RADII * interface.range),
            pairs_scratch: Vec::new(),
            query_scratch: Vec::new(),
            neighbors: Vec::new(),
            kin_valid: false,
            deadline: Vec::new(),
            due_heap: BinaryHeap::new(),
            due_scratch: Vec::new(),
        }
    }

    /// Number of active links.
    pub fn active_count(&self) -> usize {
        self.neighbors.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Update with this tick's positions; returns link events in
    /// deterministic order (all downs first — freeing nodes for new
    /// contacts — then ups, each lexicographically sorted).
    pub fn update(&mut self, positions: &[Point]) -> Vec<LinkEvent> {
        // The per-node deadlines were bounded for segments this path does
        // not see.
        self.kin_valid = false;
        self.rescan(positions)
    }

    /// Full scan: rebuild the grid on `positions`, merge-diff the sorted,
    /// deduplicated in-range pair list against the adjacency's ascending
    /// `(low, high)` walk, and apply the diff to the adjacency. Emits the
    /// events that turn the previous pair set into the current one.
    fn rescan(&mut self, positions: &[Point]) -> Vec<LinkEvent> {
        self.grid.rebuild(positions);
        self.pairs_scratch.clear();
        self.grid.pairs_within(self.range, &mut self.pairs_scratch);
        if self.neighbors.len() < positions.len() {
            self.neighbors.resize_with(positions.len(), Vec::new);
        }

        let mut held = self
            .neighbors
            .iter()
            .enumerate()
            .flat_map(|(a, peers)| {
                let a = a as u32;
                peers.iter().filter(move |&&b| b > a).map(move |&b| (a, b))
            })
            .peekable();
        let mut fresh = self.pairs_scratch.iter().copied().peekable();
        let mut downs: Vec<(u32, u32)> = Vec::new();
        let mut ups: Vec<(u32, u32)> = Vec::new();
        loop {
            let order = match (held.peek(), fresh.peek()) {
                (None, None) => break,
                (Some(h), Some(f)) => h.cmp(f),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
            };
            match order {
                Ordering::Less => downs.extend(held.next()),
                Ordering::Greater => ups.extend(fresh.next()),
                Ordering::Equal => {
                    held.next();
                    fresh.next();
                }
            }
        }
        self.apply_diff(downs, ups)
    }

    /// Sort, dedup, and apply a pair diff to the adjacency, then assemble
    /// the canonical event stream. Pairs whose both endpoints re-queried
    /// are discovered twice; canonical keys + dedup collapse them,
    /// regardless of discovery order.
    fn apply_diff(
        &mut self,
        mut downs: Vec<(u32, u32)>,
        mut ups: Vec<(u32, u32)>,
    ) -> Vec<LinkEvent> {
        downs.sort_unstable();
        downs.dedup();
        ups.sort_unstable();
        ups.dedup();
        for &(a, b) in &downs {
            remove_sorted(&mut self.neighbors[a as usize], b);
            remove_sorted(&mut self.neighbors[b as usize], a);
        }
        for &(a, b) in &ups {
            insert_sorted(&mut self.neighbors[a as usize], b);
            insert_sorted(&mut self.neighbors[b as usize], a);
        }
        assemble_events(downs, ups)
    }

    /// Prime the kinematic (slack-deadline) state from the motion segments
    /// at `now`: a full rescan at analytically evaluated positions, then a
    /// deadline of `now` for every moving node (forcing a first real
    /// re-query at the next update) and [`SimTime::MAX`] for parked ones.
    pub fn prime_kinematic(&mut self, now: SimTime, segs: &[Segment]) -> Vec<LinkEvent> {
        let positions: Vec<Point> = segs.iter().map(|s| s.position_at(now)).collect();
        let events = self.rescan(&positions);
        self.deadline.clear();
        self.deadline.resize(segs.len(), SimTime::MAX);
        self.due_heap.clear();
        for (i, seg) in segs.iter().enumerate() {
            if !seg.is_parked() {
                self.deadline[i] = now;
                self.due_heap.push(Reverse((now, i as u32)));
            }
        }
        self.kin_valid = true;
        events
    }

    /// Earliest pending slack deadline — when the engine should wake the
    /// detector next ([`SimTime::MAX`] when nothing is pending, i.e. all
    /// nodes parked). May be conservatively early when the top heap entry
    /// is stale; a wake that finds no due node is a cheap no-op.
    pub fn next_deadline(&self) -> SimTime {
        if !self.kin_valid {
            return SimTime::ZERO;
        }
        self.due_heap
            .peek()
            .map_or(SimTime::MAX, |&Reverse((t, _))| t)
    }

    /// Note that node `i`'s motion segment was just replaced (trip planned,
    /// leg crossed, waypoint reached, wait drawn): every bound derived from
    /// its old velocity dies with the segment, so its deadline collapses to
    /// `now` and the next kinematic update re-queries it against the new
    /// segment. No-op before priming.
    pub fn on_motion_change(&mut self, i: u32, now: SimTime) {
        if !self.kin_valid {
            return;
        }
        self.deadline[i as usize] = now;
        self.due_heap.push(Reverse((now, i)));
    }

    /// Pop the due set for `now` into `due_scratch`: every still-valid heap
    /// entry at or before `now`, deduplicated, ascending by node index.
    /// Entries whose time no longer matches the node's recorded deadline
    /// are stale (the deadline was superseded) and are discarded.
    fn pop_due(&mut self, now: SimTime) {
        self.due_scratch.clear();
        while let Some(&Reverse((t, i))) = self.due_heap.peek() {
            if t > now {
                break;
            }
            self.due_heap.pop();
            if self.deadline[i as usize] == t {
                self.due_scratch.push(i);
            }
        }
        self.due_scratch.sort_unstable();
        self.due_scratch.dedup();
    }

    /// Kinematic update at `now`: pop the due slack deadlines, re-query
    /// only those nodes at analytically evaluated positions, emit the pair
    /// diff, and schedule fresh deadlines from the quadratic contact-window
    /// bounds.
    ///
    /// Produces exactly the event stream a full rescan at `now` would emit,
    /// provided the caller invoked it at (the first evaluation instant at
    /// or after) every `next_deadline()` it reported and routed every
    /// segment replacement through
    /// [`on_motion_change`](ContactDetector::on_motion_change) — which the
    /// engine guarantees with `ContactWindow` and `MovementWake` events.
    /// Auto-primes on first use.
    pub fn update_kinematic(
        &mut self,
        now: SimTime,
        segs: &[Segment],
        v_glob: f64,
    ) -> Vec<LinkEvent> {
        if !self.kin_valid {
            return self.prime_kinematic(now, segs);
        }
        self.pop_due(now);
        if self.due_scratch.is_empty() {
            return Vec::new();
        }
        // Patch the grid for every due node before any re-query, so
        // due-due pairs see each other's fresh position.
        let due = std::mem::take(&mut self.due_scratch);
        for &i in &due {
            self.grid.move_point(i, segs[i as usize].position_at(now));
        }
        let mut downs: Vec<(u32, u32)> = Vec::new();
        let mut ups: Vec<(u32, u32)> = Vec::new();
        let mut query = std::mem::take(&mut self.query_scratch);
        let mut still: Vec<u32> = Vec::new();
        for &i in &due {
            let deadline = kin_requery(
                i,
                now,
                segs,
                v_glob,
                self.range,
                &self.grid,
                &self.neighbors,
                &mut query,
                &mut still,
                &mut downs,
                &mut ups,
            );
            self.deadline[i as usize] = deadline;
            if deadline < SimTime::MAX {
                self.due_heap.push(Reverse((deadline, i)));
            }
        }
        self.query_scratch = query;
        self.due_scratch = due;
        self.apply_diff(downs, ups)
    }
}

/// Re-query node `i` against the grid at time `now`: append its exact
/// pair diff (from true, analytic distances) to `downs` and `ups`, and
/// return a fresh conservative slack deadline.
///
/// The grid query uses radius `3·range` ([`REQUERY_RADII`]): candidate
/// discovery must find any node within a *true* `2·range`, and a non-due
/// node's indexed position is stale by strictly less than `range` (its
/// deadline caps its drift at `speed · range / (speed + v_glob)`, and due
/// nodes were just patched). The grid's cells have that same side, so the
/// query reads the 3×3 buckets around `i`. Candidates are then filtered by
/// true distance, so the inflated radius affects cost only, never results.
#[allow(clippy::too_many_arguments)]
fn kin_requery(
    i: u32,
    now: SimTime,
    segs: &[Segment],
    v_glob: f64,
    range: f64,
    grid: &SpatialGrid,
    neighbors: &[Vec<u32>],
    query: &mut Vec<u32>,
    still: &mut Vec<u32>,
    downs: &mut Vec<(u32, u32)>,
    ups: &mut Vec<(u32, u32)>,
) -> SimTime {
    let idx = i as usize;
    let seg_i = &segs[idx];
    let center = seg_i.position_at(now);
    let r2 = range * range;
    let shell2 = (2.0 * range) * (2.0 * range);

    query.clear();
    grid.query_within(center, REQUERY_RADII * range, Some(i), query);

    let mut deadline = SimTime::MAX;
    still.clear();

    if seg_i.is_parked() {
        // Parked node: no deadline of its own — any flip of its pairs has a
        // moving endpoint whose own deadline covers it, and a later segment
        // change routes through `on_motion_change`. Its in-range set still
        // needs refreshing: it typically just *became* parked.
        for &j in query.iter() {
            let pj = segs[j as usize].position_at(now);
            if pj.distance_sq(center) <= r2 {
                still.push(j);
                if neighbors[idx].binary_search(&j).is_err() {
                    ups.push(pair_key(NodeId(i), NodeId(j)));
                }
            }
        }
    } else {
        // Entrant cap: anything beyond the 2·range shell is at margin
        // > range, and no pair at `i` closes faster than `speed + v_glob`
        // (this segment's own speed is valid until `until`, where
        // `on_motion_change` resets the deadline anyway; everyone else is
        // bounded by the global maximum).
        let closing = seg_i.speed() + v_glob;
        deadline = now.saturating_add(floor_ms(range / closing));
        for &j in query.iter() {
            let seg_j = &segs[j as usize];
            let pj = seg_j.position_at(now);
            let d2 = pj.distance_sq(center);
            if d2 > shell2 {
                continue; // covered by the entrant cap
            }
            if d2 <= r2 {
                still.push(j);
                if neighbors[idx].binary_search(&j).is_err() {
                    ups.push(pair_key(NodeId(i), NodeId(j)));
                }
            }
            let bound = pair_flip_bound(now, range, closing, seg_i, seg_j, center, pj, d2);
            deadline = deadline.min(bound);
        }
        // Livelock guard: the fresh deadline is strictly in the future.
        deadline = deadline.max(now.saturating_add(SimDuration::from_millis(1)));
    }
    still.sort_unstable();
    for &j in &neighbors[idx] {
        if still.binary_search(&j).is_err() {
            downs.push(pair_key(NodeId(i), NodeId(j)));
        }
    }
    deadline
}

/// Earliest time the pair `(i, j)` can flip its in-range status, bounded
/// two ways, each individually conservative (so their max is too):
///
/// * **rate bound** — the distance margin `|d − range|` is consumed at most
///   at `closing` m/s, so no flip before `now + margin / closing`. Valid
///   across segment changes: speeds are statically bounded, and a change to
///   `i`'s *own* segment resets its deadline through `on_motion_change`.
/// * **analytic window bound** — while both current segments are live
///   (until `w = min(until_i, until_j)`) relative motion is exactly linear,
///   so `|Δp + Δv·τ| = range` is a quadratic in τ. If it provably has no
///   root in the window (guard-banded by [`GUARD`]), nothing flips before
///   `w`; if its earliest root is `τ₁`, nothing flips before `now + τ₁`
///   (minus [`ROOT_SAFETY`], floored to the millisecond grid).
#[allow(clippy::too_many_arguments)]
fn pair_flip_bound(
    now: SimTime,
    range: f64,
    closing: f64,
    seg_i: &Segment,
    seg_j: &Segment,
    pi: Point,
    pj: Point,
    d2: f64,
) -> SimTime {
    let r2 = range * range;
    let margin = (d2.sqrt() - range).abs();
    let rate = now.saturating_add(floor_ms(margin / closing));

    let w = seg_i.until.min(seg_j.until);
    if w <= now {
        return rate;
    }
    // Relative state at `now`: d²(τ) = a·τ² + b·τ + d², τ seconds from now.
    let dpx = pj.x - pi.x;
    let dpy = pj.y - pi.y;
    let dvx = seg_j.velocity.x - seg_i.velocity.x;
    let dvy = seg_j.velocity.y - seg_i.velocity.y;
    let a = dvx * dvx + dvy * dvy;
    let b = 2.0 * (dpx * dvx + dpy * dvy);
    let tw = w.since(now).as_secs_f64();

    let analytic = if d2 > r2 {
        // Currently out of range: safe for the whole window when the
        // distance minimum over it clears the boundary.
        let tstar = if a > 0.0 {
            (-b / (2.0 * a)).clamp(0.0, tw)
        } else {
            0.0
        };
        let dmin2 = d2 + (b + a * tstar) * tstar;
        let safe = range + GUARD;
        if dmin2 > safe * safe {
            w
        } else {
            let disc = b * b - 4.0 * a * (d2 - r2);
            if a > 0.0 && disc >= 0.0 {
                let root = (-b - disc.sqrt()) / (2.0 * a);
                if root > tw + ROOT_SAFETY {
                    w
                } else {
                    now.saturating_add(floor_ms((root - ROOT_SAFETY).max(0.0)))
                }
            } else {
                // Inside the guard band with degenerate geometry: keep only
                // the rate bound.
                return rate;
            }
        }
    } else {
        // Currently in range: d² is convex in τ, so its window maximum sits
        // at an endpoint.
        let dend2 = d2 + (b + a * tw) * tw;
        let safe = range - GUARD;
        if safe > 0.0 && d2.max(dend2) < safe * safe {
            w
        } else if a > 0.0 {
            // Exit root exists (disc ≥ b² since d² ≤ range²).
            let disc = b * b - 4.0 * a * (d2 - r2);
            let root = (-b + disc.max(0.0).sqrt()) / (2.0 * a);
            if root > tw + ROOT_SAFETY {
                w
            } else {
                now.saturating_add(floor_ms((root - ROOT_SAFETY).max(0.0)))
            }
        } else if b > 0.0 {
            // Linear recession: exits where b·τ = range² − d².
            let root = (r2 - d2) / b;
            if root > tw + ROOT_SAFETY {
                w
            } else {
                now.saturating_add(floor_ms((root - ROOT_SAFETY).max(0.0)))
            }
        } else {
            // No relative motion, but inside the guard band (the first
            // branch takes every pair clear of it): the evaluated distance
            // jitters by an ulp across the boundary as `position_at` rounds
            // differently at each instant. Keep only the rate bound.
            return rate;
        }
    };
    rate.max(analytic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn detector() -> ContactDetector {
        ContactDetector::new(RadioInterface::paper_80211b())
    }

    /// The O(n²) reference: every tick's full in-range pair set from
    /// [`SpatialGrid::pairs_within_naive`], diffed against the previous
    /// tick's into the canonical event stream.
    struct NaiveScan {
        range: f64,
        grid: SpatialGrid,
        current: HashSet<(u32, u32)>,
    }

    impl NaiveScan {
        fn new() -> NaiveScan {
            let range = RadioInterface::paper_80211b().range;
            NaiveScan {
                range,
                grid: SpatialGrid::new(range),
                current: HashSet::new(),
            }
        }

        fn update(&mut self, positions: &[Point]) -> Vec<LinkEvent> {
            self.grid.rebuild(positions);
            let mut pairs = Vec::new();
            self.grid.pairs_within_naive(self.range, &mut pairs);
            let fresh: HashSet<(u32, u32)> = pairs.into_iter().collect();
            let downs = self.current.difference(&fresh).copied().collect();
            let ups = fresh.difference(&self.current).copied().collect();
            self.current = fresh;
            assemble_events(downs, ups)
        }
    }

    #[test]
    fn detects_up_and_down() {
        let mut d = detector();
        // Two nodes approach, meet, separate.
        let apart = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
        let close = vec![Point::new(0.0, 0.0), Point::new(20.0, 0.0)];

        assert!(d.update(&apart).is_empty());
        let ev = d.update(&close);
        assert_eq!(ev, vec![LinkEvent::Up(NodeId(0), NodeId(1))]);
        assert_eq!(d.active_count(), 1);
        assert!(d.update(&close).is_empty(), "no repeat events while stable");
        let ev = d.update(&apart);
        assert_eq!(ev, vec![LinkEvent::Down(NodeId(0), NodeId(1))]);
        assert_eq!(d.active_count(), 0);
    }

    #[test]
    fn exact_range_is_connected() {
        let mut d = detector();
        let ev = d.update(&[Point::new(0.0, 0.0), Point::new(30.0, 0.0)]);
        assert_eq!(ev.len(), 1, "distance == range counts as in range");
        let ev = d.update(&[Point::new(0.0, 0.0), Point::new(30.001, 0.0)]);
        assert_eq!(ev, vec![LinkEvent::Down(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn backends_agree_on_random_walk() {
        let mut naive = NaiveScan::new();
        let mut grid = detector();
        // Deterministic pseudo-random positions for 30 nodes over 50 ticks.
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut pos: Vec<Point> = (0..30)
            .map(|_| Point::new(next() * 300.0, next() * 300.0))
            .collect();
        for _ in 0..50 {
            for p in &mut pos {
                p.x += (next() - 0.5) * 20.0;
                p.y += (next() - 0.5) * 20.0;
            }
            let en = naive.update(&pos);
            let eg = grid.update(&pos);
            assert_eq!(en, eg);
        }
    }

    #[test]
    fn downs_emitted_before_ups() {
        let mut d = detector();
        // Node 1 near node 0, node 2 far.
        d.update(&[
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(500.0, 0.0),
        ]);
        // Node 1 leaves, node 2 arrives, same tick.
        let ev = d.update(&[
            Point::new(0.0, 0.0),
            Point::new(200.0, 0.0),
            Point::new(15.0, 0.0),
        ]);
        assert_eq!(
            ev,
            vec![
                LinkEvent::Down(NodeId(0), NodeId(1)),
                LinkEvent::Up(NodeId(0), NodeId(2)),
            ]
        );
    }

    /// Deterministic LCG in [0, 1).
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) as f64 / (1u64 << 31) as f64
    }

    #[test]
    fn three_node_clique() {
        let mut d = detector();
        let ev = d.update(&[
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 8.0),
        ]);
        assert_eq!(ev.len(), 3);
        assert_eq!(d.active_count(), 3);
    }

    // --- Kinematic (slack-deadline heap) layer ---

    /// Test world of per-node linear segments, randomly re-planned at tick
    /// boundaries — the same segment column the engine keeps.
    struct KinWorld {
        segs: Vec<Segment>,
    }

    const KIN_SPAN: f64 = 300.0;
    const KIN_VMAX: f64 = 12.0;

    impl KinWorld {
        fn new(seed: &mut u64, n: usize) -> KinWorld {
            KinWorld {
                segs: (0..n)
                    .map(|_| {
                        let p = Point::new(lcg(seed) * KIN_SPAN, lcg(seed) * KIN_SPAN);
                        Segment::stationary(p, SimTime::ZERO, SimTime::ZERO)
                    })
                    .collect(),
            }
        }

        fn position(&self, i: usize, now: SimTime) -> Point {
            self.segs[i].position_at(now)
        }

        fn materialize(&self, now: SimTime) -> Vec<Point> {
            self.segs.iter().map(|s| s.position_at(now)).collect()
        }

        /// Replace every expired segment with a fresh random one anchored at
        /// the node's current (clamped) position; returns the changed nodes.
        fn replan(&mut self, seed: &mut u64, now: SimTime) -> Vec<u32> {
            let mut changed = Vec::new();
            for i in 0..self.segs.len() {
                if self.segs[i].until > now {
                    continue;
                }
                let p = self.position(i, now);
                let dur = SimDuration::from_millis(1_000 + (lcg(seed) * 7_000.0) as u64);
                let vel = if lcg(seed) < 0.3 {
                    Point::new(0.0, 0.0) // pause
                } else {
                    let q = Point::new(lcg(seed) * KIN_SPAN, lcg(seed) * KIN_SPAN);
                    let len = p.distance(q);
                    if len <= 0.0 {
                        Point::new(0.0, 0.0)
                    } else {
                        let speed = (0.2 + 0.8 * lcg(seed)) * KIN_VMAX;
                        Point::new((q.x - p.x) * speed / len, (q.y - p.y) * speed / len)
                    }
                };
                self.segs[i] = Segment {
                    origin: p,
                    velocity: vel,
                    start: now,
                    until: now + dur,
                };
                changed.push(i as u32);
            }
            changed
        }

        /// `n` nodes in a `span`-sided square, each placed relative to an
        /// earlier node: on top of it, exactly `range` away (the 3-4-5
        /// offsets keep the diagonal distances exact), or anywhere.
        fn adversarial(seed: &mut u64, n: usize, span: f64, range: f64) -> KinWorld {
            let mut w = KinWorld::new(seed, n);
            let offsets = [
                Point::new(range, 0.0),
                Point::new(0.0, -range),
                Point::new(range * 3.0 / 5.0, range * 4.0 / 5.0),
                Point::new(-range * 4.0 / 5.0, range * 3.0 / 5.0),
            ];
            for i in 0..n {
                let base = w.segs[(lcg(seed) * i as f64) as usize].origin;
                let off = offsets[(lcg(seed) * 4.0) as usize];
                w.segs[i].origin = match (lcg(seed) * 3.0) as u32 {
                    0 if i > 0 => base,
                    1 if i > 0 => Point::new(base.x + off.x, base.y + off.y),
                    _ => Point::new(lcg(seed) * span, lcg(seed) * span),
                };
            }
            w
        }

        /// [`KinWorld::replan`] with boundary geometry. Each expired node,
        /// anchored where it stands, parks for good, pauses, moves in
        /// tandem with another node, grazes another node tangentially,
        /// heads for a point exactly `range` from another node (or onto
        /// it), or heads for a random waypoint in `span`. Speeds stay below
        /// `vmax`; segments last whole 0.1 s ticks except waypoint legs,
        /// which end on the millisecond of arrival.
        fn replan_adversarial(
            &mut self,
            seed: &mut u64,
            now: SimTime,
            vmax: f64,
            span: f64,
            range: f64,
        ) -> Vec<u32> {
            let n = self.segs.len();
            let zero = Point::new(0.0, 0.0);
            let mut changed = Vec::new();
            for i in 0..n {
                if self.segs[i].until > now {
                    continue;
                }
                let p = self.position(i, now);
                let k = (i + 1 + (lcg(seed) * (n - 1) as f64) as usize) % n;
                let pk = self.position(k, now);
                let vk = if self.segs[k].until > now {
                    self.segs[k].velocity
                } else {
                    zero
                };
                let hold = now + SimDuration::from_millis(100 * (1 + (lcg(seed) * 40.0) as u64));
                let speed = (0.001 + 0.998 * lcg(seed)) * vmax;
                let leg = |q: Point| {
                    let len = p.distance(q);
                    if len <= 0.0 {
                        return (zero, hold);
                    }
                    let ms = ((len / speed * 1000.0) as u64).max(1);
                    let v = Point::new((q.x - p.x) / len * speed, (q.y - p.y) / len * speed);
                    (v, now + SimDuration::from_millis(ms))
                };
                let (velocity, until) = match (lcg(seed) * 12.0) as u32 {
                    0 => (zero, SimTime::MAX),
                    1 | 2 => (zero, hold),
                    3 | 4 => (vk, hold),
                    5 | 6 => {
                        // Perpendicular to the line to `k`: the distance
                        // is at its minimum right now.
                        let (dx, dy) = (p.x - pk.x, p.y - pk.y);
                        let d = (dx * dx + dy * dy).sqrt();
                        if d <= 0.0 {
                            (zero, hold)
                        } else {
                            (Point::new(-dy / d * speed, dx / d * speed), hold)
                        }
                    }
                    7 => leg(pk),
                    8 | 9 => {
                        let a = lcg(seed) * std::f64::consts::TAU;
                        leg(Point::new(pk.x + range * a.cos(), pk.y + range * a.sin()))
                    }
                    _ => leg(Point::new(lcg(seed) * span, lcg(seed) * span)),
                };
                self.segs[i] = Segment {
                    origin: p,
                    velocity,
                    start: now,
                    until,
                };
                changed.push(i as u32);
            }
            changed
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Kinematic edge cases against the naive O(n²) scan at every tick
        /// of a 0.1 s grid: coincident nodes, pairs exactly at `range`,
        /// tangential grazes, parked and zero-velocity nodes, and speeds up
        /// to 1 000 m/s. The kinematic path must emit the reference stream
        /// exactly — a silently missed contact would hide inside the
        /// GUARD/ROOT_SAFETY bands.
        #[test]
        fn kinematic_matches_naive_on_adversarial_geometry(
            seed0 in 1u64..u64::MAX,
            n in 2usize..16,
            speed_class in 0usize..3,
        ) {
            let vmax = [12.0, 100.0, 1_000.0][speed_class];
            let mut seed = seed0;
            let mut reference = NaiveScan::new();
            let range = reference.range;
            let span = 4.0 * range;
            let mut w = KinWorld::adversarial(&mut seed, n, span, range);
            let mut kin = detector();
            let dt = SimDuration::from_millis(100);
            let mut now = SimTime::ZERO;
            w.replan_adversarial(&mut seed, now, vmax, span, range);
            for tick in 0..300 {
                if tick > 0 {
                    now += dt;
                    for i in w.replan_adversarial(&mut seed, now, vmax, span, range) {
                        kin.on_motion_change(i, now);
                    }
                }
                let want = reference.update(&w.materialize(now));
                let got = if kin.next_deadline() <= now {
                    kin.update_kinematic(now, &w.segs, vmax)
                } else {
                    Vec::new()
                };
                proptest::prop_assert_eq!(&want, &got, "tick {}", tick);
                proptest::prop_assert_eq!(reference.current.len(), kin.active_count());
            }
        }
    }

    /// The kinematic path must reproduce the full-rescan reference stream
    /// exactly — including emitting *nothing* at every tick where no slack
    /// deadline is due, which is the skip the event engine relies on.
    #[test]
    fn kinematic_matches_reference_on_segment_walks() {
        let mut seed = 11u64;
        let mut w = KinWorld::new(&mut seed, 40);
        let mut reference = detector();
        let mut kin = detector();
        let dt = SimDuration::from_secs(1);
        let mut now = SimTime::ZERO;
        w.replan(&mut seed, now);
        let er = reference.update(&w.materialize(now));
        let ek = kin.update_kinematic(now, &w.segs, KIN_VMAX);
        assert_eq!(er, ek, "priming events differ");
        for tick in 0..400 {
            now += dt;
            for &i in &w.replan(&mut seed, now) {
                kin.on_motion_change(i, now);
            }
            let er = reference.update(&w.materialize(now));
            let ek = if kin.next_deadline() <= now {
                kin.update_kinematic(now, &w.segs, KIN_VMAX)
            } else {
                Vec::new()
            };
            assert_eq!(er, ek, "tick {tick}: event streams diverged");
            assert_eq!(
                reference.active_count(),
                kin.active_count(),
                "tick {tick}: active sets diverged"
            );
        }
    }

    /// In a sparse world with long segments, the deadline heap must let
    /// whole ticks pass without any contact work — the skip the event
    /// engine turns into wall-clock wins — while still matching the
    /// reference stream.
    #[test]
    fn kinematic_deadlines_skip_ticks_in_sparse_world() {
        let mut seed = 31u64;
        let n = 4;
        let mut w = KinWorld::new(&mut seed, n);
        let mut reference = detector();
        let mut kin = detector();
        let dt = SimDuration::from_secs(1);
        let mut now = SimTime::ZERO;
        // Long segments: replans (which force wakes) are rare.
        let replan_long = |w: &mut KinWorld, seed: &mut u64, now: SimTime| -> Vec<u32> {
            let mut changed = Vec::new();
            for i in 0..n {
                if w.segs[i].until > now {
                    continue;
                }
                let p = w.position(i, now);
                let q = Point::new(lcg(seed) * KIN_SPAN, lcg(seed) * KIN_SPAN);
                let len = p.distance(q);
                let speed = (0.2 + 0.8 * lcg(seed)) * KIN_VMAX;
                w.segs[i] = Segment {
                    origin: p,
                    velocity: if len <= 0.0 {
                        Point::new(0.0, 0.0)
                    } else {
                        Point::new((q.x - p.x) * speed / len, (q.y - p.y) * speed / len)
                    },
                    start: now,
                    until: now + SimDuration::from_millis(15_000 + (lcg(seed) * 25_000.0) as u64),
                };
                changed.push(i as u32);
            }
            changed
        };
        replan_long(&mut w, &mut seed, now);
        let er = reference.update(&w.materialize(now));
        let ek = kin.update_kinematic(now, &w.segs, KIN_VMAX);
        assert_eq!(er, ek);
        let mut skipped = 0u32;
        for tick in 0..400 {
            now += dt;
            for &i in &replan_long(&mut w, &mut seed, now) {
                kin.on_motion_change(i, now);
            }
            let er = reference.update(&w.materialize(now));
            let ek = if kin.next_deadline() <= now {
                kin.update_kinematic(now, &w.segs, KIN_VMAX)
            } else {
                skipped += 1;
                Vec::new()
            };
            assert_eq!(er, ek, "tick {tick}: event streams diverged");
        }
        assert!(skipped > 0, "deadlines never skipped a tick — vacuous test");
    }

    /// An all-parked world settles to an empty heap: no wakes, ever.
    #[test]
    fn kinematic_parked_world_needs_no_wakes() {
        let segs: Vec<Segment> = [0.0, 10.0, 200.0]
            .into_iter()
            .map(|x| Segment::stationary(Point::new(x, 0.0), SimTime::ZERO, SimTime::MAX))
            .collect();
        let mut kin = detector();
        let ev = kin.update_kinematic(SimTime::ZERO, &segs, 0.0);
        assert_eq!(ev, vec![LinkEvent::Up(NodeId(0), NodeId(1))]);
        assert_eq!(kin.next_deadline(), SimTime::MAX);
    }

    /// The quadratic flip bound must never land after the true crossing.
    #[test]
    fn flip_bound_is_conservative_for_head_on_approach() {
        let now = SimTime::from_millis(10_000);
        let range = 30.0;
        // 100 m apart, closing head-on at 10 m/s combined: d = range at
        // τ = 7 s exactly, i.e. t = 17 s.
        let seg_i = Segment {
            origin: Point::new(0.0, 0.0),
            velocity: Point::new(5.0, 0.0),
            start: now,
            until: now + SimDuration::from_secs(60),
        };
        let seg_j = Segment {
            origin: Point::new(100.0, 0.0),
            velocity: Point::new(-5.0, 0.0),
            start: now,
            until: now + SimDuration::from_secs(60),
        };
        let d2 = 100.0f64 * 100.0;
        let bound = pair_flip_bound(
            now,
            range,
            10.0,
            &seg_i,
            &seg_j,
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            d2,
        );
        assert!(bound <= SimTime::from_millis(17_000), "late bound");
        // …and the analytic solve should beat the trivial rate bound by a
        // hair at most (here they coincide: margin 70 m at 10 m/s).
        assert!(bound >= SimTime::from_millis(16_000), "needlessly early");
    }

    /// A pair receding inside the window gets its deadline extended all the
    /// way to the window edge — the case that pays for the quadratic.
    #[test]
    fn flip_bound_extends_to_window_for_receding_pair() {
        let now = SimTime::ZERO;
        let range = 30.0;
        let w = now + SimDuration::from_secs(40);
        // 35 m apart (out of range, margin 5 m), receding at 4 m/s: the
        // rate bound alone would be 5/16 s, but no crossing can happen
        // before the window closes.
        let seg_i = Segment {
            origin: Point::new(0.0, 0.0),
            velocity: Point::new(-2.0, 0.0),
            start: now,
            until: w,
        };
        let seg_j = Segment {
            origin: Point::new(35.0, 0.0),
            velocity: Point::new(2.0, 0.0),
            start: now,
            until: w,
        };
        let bound = pair_flip_bound(
            now,
            range,
            12.0 + 2.0,
            &seg_i,
            &seg_j,
            Point::new(0.0, 0.0),
            Point::new(35.0, 0.0),
            35.0f64 * 35.0,
        );
        assert_eq!(bound, w);
    }
}
