//! The simulation engine.
//!
//! [`World`] advances a scenario in ticks (1 s in the paper's setup), each
//! executing seven phases in this order — the same phase structure the ONE
//! simulator uses:
//!
//! 1. **traffic**: due messages are created at their sources;
//! 2. **movement**: mobile nodes advance along their models;
//! 3. **connectivity**: the contact detector diffs the in-range pair set;
//!    link-down events abort in-flight transfers (settling partial bytes
//!    analytically from elapsed drain time) and close contacts, link-up
//!    events open connections and exchange protocol digests;
//! 4. **transfers**: transfers whose exact drain instant
//!    ([`vdtn_net::Transfer::completion_time`] = `started + size/rate`) has
//!    passed complete, in ordered-pair-key order; completions are handed to
//!    the receiving router (which may deliver, store — evicting via its
//!    drop policy — or reject);
//! 5. **routing round**: every idle connection asks the endpoint routers
//!    (alternating initiative per tick) for the next message to send, as
//!    ordered by the scheduling policy;
//! 6. **TTL sweep**: expired messages leave the buffers;
//! 7. **sampling**: optional time-series collectors.
//!
//! # Hybrid event-driven scheduling
//!
//! The engine runs in one of three [`EngineMode`]s producing **bit-identical
//! reports** (property-tested in `tests/engine_equivalence.rs`):
//!
//! * [`EngineMode::Ticked`] executes every tick and scans every node in
//!   every phase — the straightforward reference implementation.
//! * [`EngineMode::EventDriven`] (the default) keeps the exact same phase
//!   semantics but schedules [`EngineEvent`] wake-ups in a deterministic
//!   [`EventQueue`] — traffic creation times, per-node movement decision
//!   boundaries ([`EngineEvent::MovementWake`] at each exported
//!   [`vdtn_geo::Segment`]'s expiry), conservative contact-window deadlines
//!   ([`EngineEvent::ContactWindow`], fed by the detector's slack-deadline
//!   heap), per-transfer byte-drain instants
//!   ([`EngineEvent::TransferComplete`], scheduled once at transfer start),
//!   per-node TTL expiries, sample boundaries, plus a per-tick re-arm while
//!   some idle connection could still produce a transfer
//!   ([`EngineEvent::LinkRound`], re-armed only while a direction is not
//!   provably silent). Ticks with no due wake-up are provably work-free for
//!   every phase and are skipped in O(1) (the clock jumps straight to the
//!   next wake-up); executed ticks restrict each phase to its active
//!   frontier: only nodes at a decision boundary advance their movement
//!   models (every other position follows its motion segment's closed form
//!   analytically — see ARCHITECTURE.md's *motion segment protocol*), only
//!   nodes whose slack deadline is due re-examine their radio
//!   neighbourhood, and TTL housekeeping touches only buffers whose
//!   earliest expiry is due (per-buffer expiry min-heaps).
//! * [`EngineMode::Parallel`] is the event-driven driver with a pinned
//!   thread pool serving the two phases that measurably pay for one:
//!   movement-model advances at decision boundaries fan out across
//!   workers, and kinematic contact re-queries are partitioned by
//!   [`ShardMap`] spatial region (merged back in sorted pair-key order
//!   before any state changes — see
//!   [`ContactDetector::update_kinematic_sharded`]). The routing round is
//!   the serial round: its useful frontier is at most one transfer per
//!   node per tick, so planning every live pair in parallel did several
//!   times the serial work and lost on dense meshes. Reports are
//!   byte-equal to both other modes at *every* thread count (the
//!   invariance matrix in `tests/engine_equivalence.rs` pins pool sizes
//!   1/2/4/8); ARCHITECTURE.md's *Parallel mode* has the measurements.
//!
//! Events are conservative wake-up markers, never obligations: each
//! executed tick re-derives the actual work from simulation state, so a
//! stale or duplicate event costs one wasted wake-up, not correctness.
//!
//! Orthogonally to the engine mode, the policy routers patch per-direction
//! candidate sets from buffer delta logs ([`vdtn_routing::candidates`]) so
//! a routing round after a buffer change touches O(changes) candidates.
//! The engine's wiring is confined to three spots:
//! buffers are [`vdtn_bundle::Buffer::watch`]ed at build when any router
//! wants deltas, offered messages are recorded through
//! [`ContactOffers::record`] (which retires them from both directions'
//! indexes), and the silent-round memo keys the sender buffer by its delta
//! summary ([`vdtn_bundle::Buffer::insert_count`]) so sender-side removals
//! keep a direction silent.
//!
//! All randomness flows through per-node derived RNG lanes, and every RNG
//! draw happens inside phase work that both modes execute identically, so
//! runs are bit-reproducible across modes and independent runs can execute
//! in parallel.

use crate::logging::{SimLog, SimLogBuilder};
use crate::report::{DropCause, Sample, SimReport};
use crate::scenario::{place_relays_high_degree, MobilitySpec, RelayPlacement, Scenario};
use crate::snapshot::{LinkSnapshot, NodeSnapshot, TransferSnapshot, WorldSnapshot};
use std::sync::Arc;
use vdtn_bundle::{Message, MessageId, TrafficConfig, TrafficGenerator};
use vdtn_geo::{Point, Segment, ShardMap};
use vdtn_mobility::{restore_mover, MovementModel, ShortestPathMapBased, Stationary};
use vdtn_net::{
    pair_key, ContactDetector, ContactTrace, LinkEvent, LinkTable, MotionCols, TransferOutcome,
};
use vdtn_routing::{ContactOffers, NodeState, ReceiveOutcome, Router};
use vdtn_sim_core::{EngineEvent, EventQueue, NodeId, SimDuration, SimRng, SimTime, StateHash};

/// Split two distinct mutable references out of a slice.
fn pair_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "pair_mut needs distinct indices");
    if i < j {
        let (left, right) = v.split_at_mut(j);
        (&mut left[i], &mut right[0])
    } else {
        let (left, right) = v.split_at_mut(i);
        (&mut right[0], &mut left[j])
    }
}

/// How the engine advances simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum EngineMode {
    /// Execute every tick, scanning every node in every phase. The
    /// reference implementation: simple, obviously correct, and kept as the
    /// equivalence oracle for the event-driven path.
    Ticked,
    /// Hybrid event-driven scheduling (see the [module docs](self)): skip
    /// provably work-free ticks and restrict executed phases to their
    /// active frontier. Bit-identical to `Ticked` and much faster whenever
    /// parts of the scenario are quiescent, so it is the default.
    #[default]
    EventDriven,
    /// The event-driven driver with movement advances and contact
    /// re-queries fanned across a pinned thread pool (the latter sharded by
    /// spatial region, outputs merged in canonical order before any state
    /// mutates). The routing round is the serial one. Bit-identical to both
    /// other modes at every thread count (`VDTN_THREADS` pins the pool;
    /// see [`World::build_parallel_with_threads`] for an explicit count).
    Parallel,
}

/// Scheduler-efficiency counters. Deliberately **not** part of
/// [`SimReport`]: the three engine modes produce byte-identical reports
/// while doing very different amounts of work, and these counters describe
/// the work side. Read them through [`World::run_with_stats`] or
/// [`World::engine_stats`]; the repository benchmark (`benchmark/`) reports
/// them as its exact, deterministic work counts.
#[derive(Debug, Default, Clone, Copy, serde::Serialize)]
pub struct EngineStats {
    /// Grid ticks actually executed.
    pub ticks_executed: u64,
    /// Grid ticks skipped outright (no due wake-up anywhere).
    pub ticks_skipped: u64,
    /// Mobile (non-stationary) nodes in the world.
    pub mobile_nodes: u64,
    /// Movement-model advances executed. The ticked reference performs
    /// `mobile_nodes × (ticks_executed + ticks_skipped)` of these; the
    /// event engine only advances a model at its decision boundaries, so
    /// `1 − movement_advances / movement_node_ticks` is the movement
    /// skip rate.
    pub movement_advances: u64,
    /// Movement steps the per-tick reference loop would have executed:
    /// `mobile_nodes × total ticks`.
    pub movement_node_ticks: u64,
    /// `TransferComplete` wakes pushed onto the event queue.
    pub transfer_wakes_scheduled: u64,
    /// Transfer-completion wakes never pushed because another event
    /// already forces the grid tick their drain lands in. Event runs only;
    /// `scheduled + elided` is the number of transfers started.
    pub transfer_wakes_elided: u64,
}

impl EngineStats {
    /// Fraction of per-node movement steps the scheduler avoided, in
    /// `[0, 1]` (zero when the world has no mobile nodes).
    pub fn movement_skip_rate(&self) -> f64 {
        if self.movement_node_ticks == 0 {
            return 0.0;
        }
        1.0 - self.movement_advances as f64 / self.movement_node_ticks as f64
    }
}

/// Parallel-mode machinery: a pinned worker pool (movement fan-out and
/// sharded contact re-query) plus the fixed spatial shard tiling the
/// detector partitions by. The tiling is built once from the initial
/// layout and never depends on the thread count, so shard assignment — and
/// therefore every merge order — is reproducible across pool sizes.
struct ParState {
    pool: rayon::ThreadPool,
    shards: ShardMap,
}

impl ParState {
    /// `cell_size` is the contact detector's, so every shard is a whole
    /// block of detector buckets.
    fn new(positions: &[Point], cell_size: f64, threads: usize) -> ParState {
        // Near-square lattice scaled with the node count: sqrt(n) shards
        // keeps shard populations around sqrt(n) nodes, plenty of slack to
        // balance work across any realistic pool while staying cheap to
        // group. Thread count deliberately plays no part.
        let target = (positions.len() as f64).sqrt().ceil().max(1.0) as usize;
        ParState {
            pool: rayon::ThreadPool::new(threads),
            shards: ShardMap::build(positions, cell_size, target),
        }
    }
}

/// A running simulation.
pub struct World {
    mode: EngineMode,
    tick: SimDuration,
    end: SimTime,
    now: SimTime,
    tick_index: u64,
    radio_rate: f64,

    movers: Vec<Box<dyn MovementModel>>,
    /// Materialised per-node positions. The ticked loop refreshes every
    /// mobile entry each tick; the event engine refreshes an entry only
    /// when its model advances (decision boundaries) and answers position
    /// queries from the kinematics columns instead.
    positions: Vec<Point>,
    /// Structure-of-arrays kinematics columns: node `i`'s current motion
    /// segment is `(seg_origin[i], seg_vel[i], seg_start[i], seg_until[i])`
    /// — refreshed from [`MovementModel::motion`] whenever the model
    /// advances, and always covering the current tick. Positions derived
    /// from these via [`Segment::position_at`] are bit-identical to the
    /// stepped positions the ticked loop materialises.
    seg_origin: Vec<Point>,
    seg_vel: Vec<Point>,
    seg_start: Vec<SimTime>,
    seg_until: Vec<SimTime>,
    /// Global speed cap: max over all movers' [`MovementModel::max_speed`].
    v_glob: f64,
    states: Vec<NodeState>,
    routers: Vec<Box<dyn Router>>,
    node_rngs: Vec<SimRng>,

    detector: ContactDetector,
    links: LinkTable,
    traffic: TrafficGenerator,
    /// Per-connection offer state: ids already offered during the contact
    /// (TTL-pruned so long contacts stay bounded), the per-direction resume
    /// cursors into the cached schedule orders, and the per-direction
    /// payload-byte counters (`[lower id, higher id]` of the pair key).
    /// Indexed by the connection's [`LinkTable`] slot handle, so lookups are
    /// a vector index and the table's length is bounded by *peak
    /// concurrent* connections (freed slots are reused).
    contacts: Vec<Option<ContactOffers>>,

    trace: ContactTrace,
    report: SimReport,
    sample_period: Option<SimDuration>,
    next_sample: SimTime,
    /// Optional full contact/message log (enabled by [`World::run_logged`]).
    log: Option<SimLogBuilder>,

    // --- Event-driven scheduling state (maintained only in EventDriven
    //     mode; Ticked mode never reads it) ---
    /// Pending wake-ups, popped per executed tick.
    events: EventQueue<EngineEvent>,
    /// Per-node next movement decision boundary — `seg_until[i]` for mobile
    /// nodes, [`SimTime::MAX`] for stationary ones. Advancing a model
    /// before its boundary is a contractual no-op
    /// (see [`MovementModel::next_decision_time`]).
    mover_wake: Vec<SimTime>,
    /// Nodes whose `MovementWake` popped this tick (scratch).
    movement_due: Vec<u32>,
    /// Per-node earliest scheduled TTL wake (`SimTime::MAX` = none). Always
    /// a lower bound on the buffer's earliest expiry.
    ttl_wake: Vec<SimTime>,
    /// Dedup flag for the singleton per-tick `LinkRound` re-arm.
    link_round_scheduled: bool,
    /// Earliest outstanding `ContactWindow` wake (`SimTime::MAX` = none):
    /// a later-or-equal detector deadline is already covered and needs no
    /// new event.
    contact_window_scheduled: SimTime,
    /// Scheduler-efficiency counters (see [`EngineStats`]).
    stats: EngineStats,
    /// Scratch (event-driven modes): completion wakes from this tick's
    /// routing round, held back until the re-arm decision so wakes
    /// provably covered by an already-scheduled next-tick event are never
    /// pushed onto the heap at all. Always empty between ticks.
    pending_transfer_wakes: Vec<(SimTime, NodeId, NodeId)>,
    /// Worker pool + shard tiling, present only in [`EngineMode::Parallel`].
    par: Option<ParState>,
}

impl World {
    /// Materialise a scenario into a runnable world using the default
    /// (event-driven) scheduler.
    ///
    /// Panics (with a descriptive message) on invalid configuration — see
    /// [`Scenario::validate`].
    pub fn build(scenario: &Scenario) -> World {
        Self::build_with_mode(scenario, EngineMode::default())
    }

    /// Materialise a scenario with an explicit [`EngineMode`]. All three
    /// modes produce bit-identical reports; `Ticked` exists as the equivalence
    /// reference and for pathological scenarios where nothing is ever
    /// quiescent (see ARCHITECTURE.md).
    pub fn build_with_mode(scenario: &Scenario, mode: EngineMode) -> World {
        Self::build_full(scenario, mode, None)
    }

    /// Materialise a scenario on the [`EngineMode::Parallel`] engine with an
    /// explicit worker-pool size, bypassing the `VDTN_THREADS` environment
    /// override. The report is bit-identical at every `threads` value —
    /// this constructor exists so the thread-count-invariance tests and the
    /// bench harness can pin pool sizes without touching process state.
    pub fn build_parallel_with_threads(scenario: &Scenario, threads: usize) -> World {
        Self::build_full(scenario, EngineMode::Parallel, Some(threads))
    }

    fn build_full(scenario: &Scenario, mode: EngineMode, threads: Option<usize>) -> World {
        scenario.validate();
        let root = SimRng::seed_from_u64(scenario.seed);
        let map = Arc::new(scenario.map.build(&mut root.derive("map", 0)));
        assert!(
            map.vertex_count() >= 2,
            "scenario map must have at least two vertices"
        );

        let n = scenario.node_count();
        // One metadata arena for the whole world: every logical message's
        // immutable header is interned once, and the per-node buffers store
        // dense handles instead of repeating the metadata per replica.
        let arena = Arc::new(vdtn_bundle::MessageArena::new());
        let mut movers: Vec<Box<dyn MovementModel>> = Vec::with_capacity(n);
        let mut states = Vec::with_capacity(n);
        let mut routers = Vec::with_capacity(n);
        let mut node_rngs = Vec::with_capacity(n);
        let mut endpoints = Vec::new();

        let mut next_id: u32 = 0;
        for group in &scenario.groups {
            // Stationary placements are computed once per group.
            let relay_points: Option<Vec<Point>> = match &group.mobility {
                MobilitySpec::Stationary(RelayPlacement::HighDegreeSpread) => {
                    Some(place_relays_high_degree(&map, group.count))
                }
                MobilitySpec::Stationary(RelayPlacement::Explicit(points)) => {
                    assert_eq!(
                        points.len(),
                        group.count,
                        "group '{}' has {} nodes but {} explicit positions",
                        group.name,
                        group.count,
                        points.len()
                    );
                    // Snap to the road network, as relays sit at crossroads.
                    Some(
                        points
                            .iter()
                            .map(|&p| map.position(map.nearest_vertex(p).expect("non-empty map")))
                            .collect(),
                    )
                }
                MobilitySpec::ShortestPathMapBased(_) => None,
            };

            for k in 0..group.count {
                let id = NodeId(next_id);
                next_id += 1;
                let mover: Box<dyn MovementModel> = match &group.mobility {
                    MobilitySpec::ShortestPathMapBased(cfg) => Box::new(ShortestPathMapBased::new(
                        map.clone(),
                        *cfg,
                        root.derive("mobility", id.0 as u64),
                    )),
                    MobilitySpec::Stationary(_) => Box::new(Stationary::new(
                        relay_points.as_ref().expect("computed above")[k],
                    )),
                };
                movers.push(mover);
                states.push(NodeState::with_arena(
                    id,
                    group.buffer_bytes,
                    group.is_relay,
                    arena.clone(),
                ));
                routers.push(scenario.router.build(id, n, scenario.policy));
                node_rngs.push(root.derive("policy", id.0 as u64));
                if !group.is_relay {
                    endpoints.push(id);
                }
            }
        }

        // Delta-log subscription: when the routers patch per-direction
        // candidate indexes from buffer deltas, every buffer must record
        // its membership changes — each direction consumes the *sender's*
        // and the *receiver's* log. Purely an optimisation contract: an
        // unwatched buffer degrades the index to rebuild-per-change, never
        // to a wrong answer.
        if routers.iter().any(|r| r.wants_buffer_deltas()) {
            for state in &mut states {
                state.buffer.watch();
            }
        }

        let traffic = TrafficGenerator::new(
            TrafficConfig {
                interval_lo: scenario.traffic.interval_lo,
                interval_hi: scenario.traffic.interval_hi,
                size_lo: scenario.traffic.size_lo,
                size_hi: scenario.traffic.size_hi,
                ttl: scenario.traffic.ttl,
                endpoints,
            },
            root.derive("traffic", 0),
        );

        let positions: Vec<Point> = movers.iter().map(|m| m.position()).collect();
        let policy_label = match &scenario.router {
            vdtn_routing::RouterKind::Prophet(_) | vdtn_routing::RouterKind::MaxProp(_) => {
                String::new()
            }
            _ => scenario.policy.label(),
        };

        let tick = SimDuration::from_secs_f64(scenario.tick_secs);
        let sample_period = (scenario.sample_period_secs > 0.0)
            .then(|| SimDuration::from_secs_f64(scenario.sample_period_secs));

        // Kinematics columns: every model's exported motion segment at
        // t = 0, stored column-wise, plus the global speed cap the
        // detector's slack deadlines divide by.
        let mut seg_origin = Vec::with_capacity(n);
        let mut seg_vel = Vec::with_capacity(n);
        let mut seg_start = Vec::with_capacity(n);
        let mut seg_until = Vec::with_capacity(n);
        for m in &movers {
            let seg = m.motion();
            seg_origin.push(seg.origin);
            seg_vel.push(seg.velocity);
            seg_start.push(seg.start);
            seg_until.push(seg.until);
        }
        let v_glob = movers.iter().map(|m| m.max_speed()).fold(0.0, f64::max);
        let mobile_nodes = movers.iter().filter(|m| !m.is_stationary()).count() as u64;

        // Prime the wake-up schedule. Harmless under Ticked mode (never
        // popped), essential under EventDriven.
        let mover_wake: Vec<SimTime> = movers.iter().map(|m| m.next_decision_time()).collect();
        let mut events = EventQueue::with_capacity(n + 8);
        events.schedule(traffic.peek_time(), EngineEvent::TrafficDue);
        for (i, &wake) in mover_wake.iter().enumerate() {
            if wake < SimTime::MAX {
                events.schedule(wake, EngineEvent::MovementWake(NodeId(i as u32)));
            }
        }
        // The first tick always executes: it primes contact detection on the
        // initial layout, exactly like the ticked loop's first scan.
        events.schedule(SimTime::ZERO + tick, EngineEvent::ContactRecheck);
        if sample_period.is_some() {
            events.schedule(SimTime::ZERO, EngineEvent::Sample);
        }

        let detector = ContactDetector::new(scenario.detector, scenario.radio);
        let par = (mode == EngineMode::Parallel).then(|| {
            ParState::new(
                &positions,
                detector.cell_size(),
                threads.unwrap_or_else(rayon::current_num_threads),
            )
        });

        World {
            mode,
            tick,
            end: SimTime::ZERO + SimDuration::from_secs_f64(scenario.duration_secs),
            now: SimTime::ZERO,
            tick_index: 0,
            radio_rate: scenario.radio.rate,
            movers,
            positions,
            seg_origin,
            seg_vel,
            seg_start,
            seg_until,
            v_glob,
            states,
            routers,
            node_rngs,
            detector,
            links: LinkTable::with_nodes(n),
            traffic,
            contacts: Vec::new(),
            trace: ContactTrace::new(),
            report: SimReport {
                scenario: scenario.name.clone(),
                router: scenario.router.label().to_string(),
                policy: policy_label,
                seed: scenario.seed,
                duration_secs: scenario.duration_secs,
                ttl_mins: scenario.traffic.ttl.as_mins_f64(),
                ..SimReport::default()
            },
            sample_period,
            next_sample: SimTime::ZERO,
            log: None,
            events,
            mover_wake,
            movement_due: Vec::new(),
            ttl_wake: vec![SimTime::MAX; n],
            link_round_scheduled: false,
            contact_window_scheduled: SimTime::MAX,
            stats: EngineStats {
                mobile_nodes,
                ..EngineStats::default()
            },
            pending_transfer_wakes: Vec::new(),
            par,
        }
    }

    /// True when the world runs on the event-driven driver (both
    /// [`EngineMode::EventDriven`] and [`EngineMode::Parallel`] do; only
    /// the ticked reference polls instead of scheduling wake-ups).
    fn event_driven(&self) -> bool {
        self.mode != EngineMode::Ticked
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The scheduling mode this world was built with.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.states.len()
    }

    /// Read access to a node's store-and-forward state (tests, examples).
    pub fn node_state(&self, id: NodeId) -> &NodeState {
        &self.states[id.index()]
    }

    /// Current position of a node.
    ///
    /// The ticked reference reads the materialised per-tick position; the
    /// event-driven modes evaluate the node's motion segment at the current
    /// clock — the same closed form the model's own stepping uses, so the
    /// two answers are bit-identical (asserted per tick in
    /// `event_mode_matches_ticked_stepwise`).
    pub fn node_position(&self, id: NodeId) -> Point {
        let i = id.index();
        if self.event_driven() {
            self.segment(i).position_at(self.now)
        } else {
            self.positions[i]
        }
    }

    /// Reassemble node `i`'s motion segment from the kinematics columns.
    #[inline]
    fn segment(&self, i: usize) -> Segment {
        Segment {
            origin: self.seg_origin[i],
            velocity: self.seg_vel[i],
            start: self.seg_start[i],
            until: self.seg_until[i],
        }
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Scheduler-efficiency counters accumulated so far (see
    /// [`EngineStats`]). Meaningful for the event-driven modes; the ticked
    /// reference reports a zero skip rate by construction.
    pub fn engine_stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.movement_node_ticks = s.mobile_nodes * (s.ticks_executed + s.ticks_skipped);
        s
    }

    /// Run to completion and return the final report.
    pub fn run(mut self) -> SimReport {
        let t0 = std::time::Instant::now();
        self.run_to_end();
        self.finish(t0).0
    }

    /// Run to completion, returning the report plus the scheduler's
    /// efficiency counters ([`EngineStats`]).
    pub fn run_with_stats(mut self) -> (SimReport, EngineStats) {
        let t0 = std::time::Instant::now();
        self.run_to_end();
        let stats = self.engine_stats();
        (self.finish(t0).0, stats)
    }

    /// Run to completion, additionally recording the full contact/message
    /// log for offline analysis (see [`crate::analysis`]).
    pub fn run_logged(mut self) -> (SimReport, SimLog) {
        self.log = Some(SimLogBuilder::default());
        let t0 = std::time::Instant::now();
        self.run_to_end();
        let (report, log) = self.finish(t0);
        (report, log.expect("logging was enabled"))
    }

    fn run_to_end(&mut self) {
        self.run_until(self.end);
    }

    /// Advance the simulation to the first tick boundary at or past `stop`
    /// (clamped to the run horizon), preserving each mode's scheduling
    /// discipline — the event-driven modes still skip work-free ticks.
    ///
    /// Splitting a run into `run_until` segments is exact: skipped-tick
    /// arithmetic is pure time arithmetic, so `run_until(t)` followed by
    /// `run_until(end)` reproduces `run()` bit-for-bit. This is what the
    /// hash-stream driver and the checkpoint/restore machinery build on.
    pub fn run_until(&mut self, stop: SimTime) {
        let stop = stop.min(self.end);
        match self.mode {
            EngineMode::Ticked => {
                while self.now < stop {
                    self.step_ticked();
                }
            }
            EngineMode::EventDriven | EngineMode::Parallel => self.run_event_until(stop),
        }
    }

    /// Advance one tick (in any mode; the event-driven variants execute
    /// the same tick, frontier-limited).
    pub fn step(&mut self) {
        match self.mode {
            EngineMode::Ticked => self.step_ticked(),
            EngineMode::EventDriven | EngineMode::Parallel => self.step_event(),
        }
    }

    /// Event-driven driver: execute only ticks with a due wake-up, jumping
    /// the clock (and the tick counter, which phase 5 uses for initiative
    /// parity) across provably work-free ticks. Runs to the first tick
    /// boundary at or past `stop` (callers clamp to the horizon).
    fn run_event_until(&mut self, stop: SimTime) {
        let tick_ms = self.tick.as_millis().max(1);
        while self.now < stop {
            let now_ms = self.now.as_millis();
            let ticks_to_end = (stop.as_millis() - now_ms).div_ceil(tick_ms);
            let ticks_to_wake = match self.events.peek_time() {
                Some(t) => t
                    .as_millis()
                    .saturating_sub(now_ms)
                    .div_ceil(tick_ms)
                    .max(1),
                None => u64::MAX,
            };
            if ticks_to_wake > ticks_to_end {
                // Nothing left can happen before the horizon: fast-forward
                // to exactly where the ticked loop would stop.
                self.tick_index += ticks_to_end;
                self.now += self.tick * ticks_to_end;
                self.stats.ticks_skipped += ticks_to_end;
                return;
            }
            let skipped = ticks_to_wake - 1;
            self.tick_index += skipped;
            self.now += self.tick * skipped;
            self.stats.ticks_skipped += skipped;
            self.step_event();
        }
    }

    /// Reference tick: full per-phase scans, exactly the classic loop.
    fn step_ticked(&mut self) {
        let prev = self.now;
        self.now += self.tick;
        let now = self.now;

        // Phase 1: traffic.
        self.phase_traffic(now);

        // Phase 2: movement.
        for (i, mover) in self.movers.iter_mut().enumerate() {
            if !mover.is_stationary() {
                self.positions[i] = mover.step(prev, self.tick);
            }
        }
        self.stats.ticks_executed += 1;
        self.stats.movement_advances += self.stats.mobile_nodes;

        // Phase 3: connectivity (downs are emitted before ups).
        let events = self.detector.update(&self.positions);
        self.apply_link_events(events);

        // Phase 4: transfer progress.
        self.phase_transfers();

        // Phase 5: routing round. Every tick executes here, so the quiet
        // verdict has no wake to answer.
        self.phase_routing_tracked();

        // Phase 6: TTL sweep.
        for i in 0..self.states.len() {
            self.expire_node(i, now);
        }

        // Phase 7: sampling.
        self.phase_sampling(now);

        self.tick_index += 1;
    }

    /// Event-driven tick: same seven phases, each restricted to its active
    /// frontier. Wake-up events are popped as conservative markers only —
    /// every phase re-derives its work from simulation state, so stale or
    /// duplicate events are harmless.
    fn step_event(&mut self) {
        self.now += self.tick;
        let now = self.now;
        self.stats.ticks_executed += 1;

        let mut traffic_due = false;
        while let Some((_, ev)) = self.events.pop_due(now) {
            match ev {
                EngineEvent::TrafficDue => traffic_due = true,
                EngineEvent::MovementWake(id) => self.movement_due.push(id.0),
                EngineEvent::ContactWindow => self.contact_window_scheduled = SimTime::MAX,
                EngineEvent::LinkRound => self.link_round_scheduled = false,
                // TTL, sampling and transfer-completion work is re-derived
                // from `ttl_wake` / `next_sample` / the link table below.
                // In particular a TransferComplete is only a wake-up: the
                // due completions are drained from the link table in
                // pair-key order, so same-instant completions resolve
                // deterministically no matter in which order their
                // transfers started. ContactRecheck survives solely as the
                // build-time "first tick always executes" marker.
                EngineEvent::ContactRecheck
                | EngineEvent::TransferComplete(_, _)
                | EngineEvent::TtlExpiry(_)
                | EngineEvent::Sample => {}
            }
        }

        // Phase 1: traffic. The TrafficDue event tracks the generator's
        // next creation time exactly, so no flag means nothing is due.
        if traffic_due {
            self.phase_traffic(now);
            self.events
                .schedule(self.traffic.peek_time(), EngineEvent::TrafficDue);
        }

        // Phase 2: movement — only nodes whose decision boundary arrived;
        // every other node's position follows its motion segment's closed
        // form, so stepping its model would change nothing it exports.
        if !self.movement_due.is_empty() {
            self.phase_movement_event(now);
        }

        // Phase 3: connectivity — the detector re-queries only nodes whose
        // slack deadline is due. Motion-segment replacements (phase 2)
        // collapse deadlines to `now`; between boundaries the quadratic
        // contact-window bounds are exact, so a tick with no due deadline
        // provably cannot flip any pair. The first executed tick primes the
        // detector on the initial layout (the ticked loop's first scan);
        // `next_deadline()` reports `ZERO` while unprimed.
        if self.detector.next_deadline() <= now {
            let cols = MotionCols {
                origin: &self.seg_origin,
                velocity: &self.seg_vel,
                start: &self.seg_start,
                until: &self.seg_until,
            };
            // A one-thread pool pays the sharded path's grouping and merge
            // for no concurrency at all — the serial kinematic update is
            // the same diff (property-tested equal), so only real pools
            // take the sharded path.
            let events =
                match &self.par {
                    Some(par) if par.pool.num_threads() >= 2 => self
                        .detector
                        .update_kinematic_sharded(now, &cols, self.v_glob, &par.pool, &par.shards),
                    _ => self.detector.update_kinematic(now, &cols, self.v_glob),
                };
            self.apply_link_events(events);
        }
        // Arm a wake at the earliest pending slack deadline, unless an
        // earlier-or-equal ContactWindow is already outstanding.
        let deadline = self.detector.next_deadline();
        if deadline < self.contact_window_scheduled && deadline < SimTime::MAX {
            self.contact_window_scheduled = deadline;
            self.events.schedule(deadline, EngineEvent::ContactWindow);
        }

        // Phases 4 + 5: transfers and routing exist only on open contacts.
        // The routing round reports whether it ended **provably quiet** —
        // every pair still idle after the round had both directions
        // answered `None` and memoised under its current silence key, with
        // no RNG-drawing direction left — which pre-answers the `LinkRound`
        // re-arm below without a second pass over the idle pairs. With no
        // open contacts the round is vacuously quiet.
        let mut round_quiet = true;
        if self.links.connection_count() > 0 {
            self.phase_transfers();
            round_quiet = self.phase_routing_tracked();
        }

        // Phase 6: TTL — only buffers whose scheduled expiry wake is due;
        // `ttl_wake[i]` never exceeds the buffer's true earliest expiry.
        // TTL housekeeping is the only thing between the routing round and
        // the re-arm decision that can change a silence-key input, so the
        // round's quiet verdict stays valid exactly when no node ran it.
        let mut ttl_ran = false;
        for i in 0..self.states.len() {
            if self.ttl_wake[i] <= now {
                ttl_ran = true;
                self.expire_node(i, now);
                self.ttl_wake[i] = match self.states[i].buffer.next_expiry() {
                    Some(e) => {
                        self.events
                            .schedule(e, EngineEvent::TtlExpiry(NodeId(i as u32)));
                        e
                    }
                    None => SimTime::MAX,
                };
            }
        }

        // Phase 7: sampling.
        if self.phase_sampling(now) {
            self.events.schedule(self.next_sample, EngineEvent::Sample);
        }

        // A routing round next tick can only do work if some *idle*
        // connection has a direction that is not provably silent — busy
        // connections drain via their scheduled TransferComplete instants,
        // and every state change that could flip a silent verdict (traffic,
        // contact churn, completions, TTL expiry, deliveries) happens
        // inside an executed tick, where this re-arm is re-evaluated. The
        // routing round answers this for free in *both* directions (unless
        // TTL work ran after it and may have moved a silence-key input):
        // quiet means every idle direction is memoised silent (the sweep
        // would conclude false), loud means some idle RNG-drawing direction
        // remains (the sweep would conclude true on reaching it) — so the
        // verdict *is* `routing_work_possible()` and the sweep is skipped
        // on every non-TTL executed tick.
        let work_possible = if !ttl_ran {
            debug_assert_eq!(!round_quiet, self.routing_work_possible());
            !round_quiet
        } else {
            self.routing_work_possible()
        };
        if !self.link_round_scheduled && work_possible {
            self.link_round_scheduled = true;
            self.events
                .schedule(now + self.tick, EngineEvent::LinkRound);
        }

        // Flush the round's completion wakes. A wake's only job is to force
        // execution of the first grid tick at or after its byte-drain
        // instant; once some scheduled event lands in `(now, now + tick]`,
        // that grid tick executes regardless, so wakes completing within it
        // are elided — in the saturated regime this strips the per-transfer
        // heap churn entirely. Longer drains (or an empty horizon) schedule
        // exactly the wake at their drain instant.
        if !self.pending_transfer_wakes.is_empty() {
            let next_tick = now + self.tick;
            let mut covered = self.events.peek_time().is_some_and(|t| t <= next_tick);
            for &(completes, from, to) in &self.pending_transfer_wakes {
                if covered && completes <= next_tick {
                    self.stats.transfer_wakes_elided += 1;
                } else {
                    self.stats.transfer_wakes_scheduled += 1;
                    self.events
                        .schedule(completes, EngineEvent::TransferComplete(from, to));
                    covered |= completes <= next_tick;
                }
            }
            self.pending_transfer_wakes.clear();
        }

        self.tick_index += 1;
    }

    /// Event-mode movement phase: advance exactly the models whose
    /// decision boundary (`mover_wake`) arrived, refresh their kinematics
    /// columns from the newly exported segments, schedule the next
    /// boundary wakes, and collapse their detector deadlines — a replaced
    /// segment invalidates every bound derived from the old velocity.
    ///
    /// `advance_to` draws each model's own RNG lane at its own boundaries,
    /// so per-node advances are order-independent; the parallel path
    /// exploits exactly that, while every observable write below happens
    /// serially in ascending node order.
    fn phase_movement_event(&mut self, now: SimTime) {
        let mut due = std::mem::take(&mut self.movement_due);
        // Pop order is heap order; canonicalise. One wake is outstanding
        // per node at a time, so duplicates cannot occur — but dedup is
        // cheap insurance on sorted input.
        due.sort_unstable();
        due.dedup();
        due.retain(|&i| self.mover_wake[i as usize] <= now);

        // Advancing a model is the expensive part (trip planning runs
        // A*); with a real pool and enough due nodes it fans out, each
        // worker owning its models exclusively.
        const PAR_DUE_MIN: usize = 32;
        let fan_out = match &self.par {
            Some(par) => par.pool.num_threads() >= 2 && due.len() >= PAR_DUE_MIN,
            None => false,
        };
        if fan_out {
            self.advance_due_parallel(&due, now);
        }

        for &iu in &due {
            let i = iu as usize;
            if !fan_out {
                self.movers[i].advance_to(now);
            }
            let seg = self.movers[i].motion();
            self.positions[i] = self.movers[i].position();
            self.seg_origin[i] = seg.origin;
            self.seg_vel[i] = seg.velocity;
            self.seg_start[i] = seg.start;
            self.seg_until[i] = seg.until;
            self.mover_wake[i] = seg.until;
            if seg.until < SimTime::MAX {
                self.events
                    .schedule(seg.until, EngineEvent::MovementWake(NodeId(iu)));
            }
            self.detector.on_motion_change(iu, now);
        }
        self.stats.movement_advances += due.len() as u64;
        due.clear();
        self.movement_due = due;
    }

    /// Advance the due movement models on the worker pool. Models are
    /// temporarily moved out of `movers` (a parked placeholder holds each
    /// slot) so every chunk owns its boxes outright; results are read back
    /// serially by the caller.
    fn advance_due_parallel(&mut self, due: &[u32], now: SimTime) {
        let pool = &self
            .par
            .as_ref()
            .expect("parallel advance needs a pool")
            .pool;
        let mut owned: Vec<(u32, Box<dyn MovementModel>)> = due
            .iter()
            .map(|&i| {
                let placeholder: Box<dyn MovementModel> =
                    Box::new(Stationary::new(Point::new(0.0, 0.0)));
                (
                    i,
                    std::mem::replace(&mut self.movers[i as usize], placeholder),
                )
            })
            .collect();
        let chunk = vdtn_sim_core::par::chunk_len(owned.len(), pool.num_threads());
        pool.scope(|s| {
            for ch in owned.chunks_mut(chunk) {
                s.spawn(move || {
                    for (_, m) in ch.iter_mut() {
                        m.advance_to(now);
                    }
                });
            }
        });
        for (i, m) in owned {
            self.movers[i as usize] = m;
        }
    }

    /// True if next tick's routing round could do anything at all: some
    /// idle connection has a direction whose router draws RNG per round
    /// (never skippable) or whose last `None` verdict is stale under the
    /// current [`vdtn_routing::offers::SilenceKey`] inputs. When this is
    /// false, phase 5 next tick is provably the empty round the ticked
    /// reference would also execute — `try_start_transfer` would
    /// short-circuit every direction without touching state or RNG — so no
    /// `LinkRound` wake is needed (the silent-round memo re-arms through
    /// here as soon as a completion frees a busy endpoint or any generation
    /// moves).
    fn routing_work_possible(&self) -> bool {
        if self.links.connection_count() == 0 {
            return false;
        }
        for (a, b, slot) in self.links.idle_contacts() {
            let Some(contact) = self.contacts.get(slot as usize).and_then(Option::as_ref) else {
                return true; // conservative: unknown state ⇒ wake
            };
            for (from, to, side) in [(a, b, 0usize), (b, a, 1usize)] {
                let rf = &self.routers[from.index()];
                if rf.next_transfer_draws_rng() {
                    return true;
                }
                let key = self.silence_key(from, to);
                if !contact.is_silent(side, &key) {
                    return true;
                }
            }
        }
        false
    }

    /// Snapshot of every input that can change a `from → to` routing-round
    /// verdict (see [`vdtn_routing::offers::SilenceKey`]). The sender-side
    /// buffer component is its **delta summary** — the insert count, not
    /// the full generation — because sender removals only shrink the
    /// candidate set and can never turn a `None` verdict into `Some`.
    fn silence_key(&self, from: NodeId, to: NodeId) -> [u64; 5] {
        [
            self.states[from.index()].buffer.insert_count(),
            self.routers[from.index()].routing_generation(),
            self.states[to.index()].buffer.generation(),
            self.routers[to.index()].routing_generation(),
            self.states[to.index()].delivered.len() as u64,
        ]
    }

    /// Phase 1: create due messages at their sources.
    fn phase_traffic(&mut self, now: SimTime) {
        for msg in self.traffic.drain_due(now) {
            self.report.messages.created += 1;
            if let Some(log) = &mut self.log {
                log.on_created(&msg);
            }
            let src = msg.src.index();
            let out = self.routers[src].on_message_created(
                &mut self.states[src],
                msg,
                now,
                &mut self.node_rngs[src],
            );
            if !out.stored {
                self.report.on_dropped(DropCause::CreationOverflow, 1);
            }
            self.report
                .on_dropped(DropCause::Congestion, out.evicted.len() as u64);
            self.refresh_ttl_wake(src);
        }
    }

    /// Phase 3 helper: apply detector events (downs first, then ups).
    fn apply_link_events(&mut self, events: Vec<LinkEvent>) {
        for ev in events {
            match ev {
                LinkEvent::Down(a, b) => self.handle_link_down(a, b),
                LinkEvent::Up(a, b) => self.handle_link_up(a, b),
            }
        }
    }

    /// Phase 4: complete transfers whose byte-drain instant has passed, in
    /// ordered-pair-key order (the deterministic tie-break for completions
    /// due at the same instant). The ticked reference polls via
    /// [`LinkTable::tick`]; the event engine reaches the same drain through
    /// [`LinkTable::complete_due`] on ticks a `TransferComplete` wake (or
    /// any other event) forces to execute — the two are the same function,
    /// which is what makes the modes structurally bit-identical here.
    fn phase_transfers(&mut self) {
        let done = match self.mode {
            EngineMode::Ticked => self.links.tick(self.now),
            EngineMode::EventDriven | EngineMode::Parallel => self.links.complete_due(self.now),
        };
        for outcome in done {
            if let TransferOutcome::Completed(t) = outcome {
                self.handle_transfer_complete(t);
            }
        }
    }

    /// Phase 5: routing round over idle connections, in canonical pair
    /// order. Initiative alternates per tick so neither endpoint of a long
    /// contact monopolises the link. `try_start_transfer` short-circuits
    /// silent directions and memoises fresh `None` verdicts, so a
    /// non-started pair ends either memoised silent or holding an
    /// RNG-drawing direction (collected, then re-checked for idleness after
    /// the round — a later pair's transfer can seize one of its endpoints).
    ///
    /// Returns **true iff the round ended provably quiet**: every pair left
    /// idle had both directions answer `None` under their current silence
    /// keys, and none of them draws RNG — exactly the conditions under
    /// which [`World::routing_work_possible`] would walk every idle pair
    /// only to conclude `false`. Busy pairs need no accounting: the idle
    /// set can only shrink during a round, and a pair freed by a later
    /// completion is re-examined on that completion's executed tick.
    fn phase_routing_tracked(&mut self) -> bool {
        let pairs = self.links.idle_contacts();
        let mut rng_declined: Vec<(NodeId, NodeId)> = Vec::new();
        for (a, b, slot) in pairs {
            if self.links.is_busy(a) || self.links.is_busy(b) {
                continue; // became busy earlier in this round
            }
            let (first, second) = if self.tick_index % 2 == 0 {
                (a, b)
            } else {
                (b, a)
            };
            let started = self.try_start_transfer(first, second, slot)
                || self.try_start_transfer(second, first, slot);
            if !started
                && (self.routers[first.index()].next_transfer_draws_rng()
                    || self.routers[second.index()].next_transfer_draws_rng())
            {
                rng_declined.push((a, b));
            }
        }
        !rng_declined
            .iter()
            .any(|&(a, b)| !self.links.is_busy(a) && !self.links.is_busy(b))
    }

    /// Phase 6 for one node: expire due messages and run router
    /// housekeeping.
    ///
    /// Note for [`Router`] implementors: under the event-driven scheduler
    /// `on_tick` fires only on ticks this node's TTL housekeeping runs, not
    /// once per simulated second — it must not be used as a wall clock (no
    /// in-tree router does; all are no-ops).
    fn expire_node(&mut self, i: usize, now: SimTime) {
        let expired = self.states[i].buffer.drain_expired(now);
        if !expired.is_empty() {
            let ids: Vec<MessageId> = expired.iter().map(|m| m.id).collect();
            self.routers[i].on_messages_expired(&mut self.states[i], &ids);
            self.report.on_dropped(DropCause::Expired, ids.len() as u64);
            // Prune this node's per-contact offer sets so they stay bounded
            // by live traffic over arbitrarily long contacts. Behaviour-
            // neutral (ids are never reused and expired messages are never
            // re-offered), and cursor-safe: the drain above bumped this
            // buffer's generation, so any cursor into a stale order rewinds
            // at its next scan. O(degree) via the adjacency mirror.
            let node = NodeId(i as u32);
            let arena = self.states[i].buffer.arena().clone();
            for &(_, slot) in self.links.neighbors(node) {
                if let Some(contact) = self
                    .contacts
                    .get_mut(slot as usize)
                    .and_then(Option::as_mut)
                {
                    contact.prune_expired(now, &arena);
                }
            }
        }
        self.routers[i].on_tick(&mut self.states[i], now);
    }

    /// Phase 7: record time-series samples; true if a sample was taken.
    fn phase_sampling(&mut self, now: SimTime) -> bool {
        let Some(period) = self.sample_period else {
            return false;
        };
        if now < self.next_sample {
            return false;
        }
        let occupancy = self
            .states
            .iter()
            .map(|s| s.buffer.occupancy())
            .sum::<f64>()
            / self.states.len() as f64;
        self.report.buffer_occupancy.push(Sample {
            t_secs: now.as_secs_f64(),
            value: occupancy,
        });
        self.report.deliveries_over_time.push(Sample {
            t_secs: now.as_secs_f64(),
            value: self.report.messages.delivered_unique as f64,
        });
        self.next_sample = now + period;
        true
    }

    /// Keep `ttl_wake[i]` a lower bound on buffer `i`'s earliest expiry
    /// after an insertion. Removals only ever push the earliest expiry
    /// later, which keeps the bound valid without action (the early wake
    /// fires, finds nothing due, and reschedules).
    fn refresh_ttl_wake(&mut self, i: usize) {
        if !self.event_driven() {
            return;
        }
        if let Some(e) = self.states[i].buffer.next_expiry() {
            if e < self.ttl_wake[i] {
                self.ttl_wake[i] = e;
                self.events
                    .schedule(e, EngineEvent::TtlExpiry(NodeId(i as u32)));
            }
        }
    }

    fn handle_link_up(&mut self, a: NodeId, b: NodeId) {
        let slot = self
            .links
            .link_up(a, b, self.now, self.radio_rate)
            .expect("scenario validation guarantees a finite positive radio rate");
        self.trace.on_up(a, b, self.now);
        if let Some(log) = &mut self.log {
            log.on_up(a, b, self.now);
        }
        if self.contacts.len() <= slot as usize {
            self.contacts.resize_with(slot as usize + 1, || None);
        }
        self.contacts[slot as usize] = Some(ContactOffers::new());

        // Digest exchange: both digests reflect pre-contact state.
        let da = self.routers[a.index()].digest(&self.states[a.index()], self.now);
        let db = self.routers[b.index()].digest(&self.states[b.index()], self.now);
        let purged_a =
            self.routers[a.index()].on_contact_up(&mut self.states[a.index()], b, &db, self.now);
        let purged_b =
            self.routers[b.index()].on_contact_up(&mut self.states[b.index()], a, &da, self.now);
        self.report.on_dropped(
            DropCause::AckPurge,
            (purged_a.len() + purged_b.len()) as u64,
        );
    }

    fn handle_link_down(&mut self, a: NodeId, b: NodeId) {
        let slot = self.links.slot_of(a, b);
        if let Some(TransferOutcome::Aborted {
            transfer: t,
            bytes_transferred,
        }) = self.links.link_down(a, b, self.now)
        {
            self.report.messages.transfers_aborted += 1;
            self.report.messages.bytes_aborted += bytes_transferred;
            self.routers[t.from.index()].on_transfer_aborted(
                &mut self.states[t.from.index()],
                t.msg.id,
                t.to,
            );
        }
        self.trace.on_down(a, b, self.now);
        if let Some(log) = &mut self.log {
            log.on_down(a, b, self.now);
        }
        let key = pair_key(a, b);
        let bytes = slot
            .and_then(|s| self.contacts.get_mut(s as usize).and_then(Option::take))
            .map(|c| c.sent_bytes())
            .unwrap_or([0, 0]);
        let (lo, hi) = (NodeId(key.0), NodeId(key.1));
        self.routers[lo.index()].on_contact_down(
            &mut self.states[lo.index()],
            hi,
            bytes[0],
            self.now,
        );
        self.routers[hi.index()].on_contact_down(
            &mut self.states[hi.index()],
            lo,
            bytes[1],
            self.now,
        );
    }

    fn handle_transfer_complete(&mut self, t: vdtn_net::Transfer) {
        let from = t.from.index();
        let to = t.to.index();
        self.report.messages.bytes_transferred += t.msg.size;
        // Account contact volume for MaxProp's threshold estimator.
        let key = pair_key(t.from, t.to);
        if let Some(contact) = self
            .links
            .slot_of(t.from, t.to)
            .and_then(|s| self.contacts.get_mut(s as usize).and_then(Option::as_mut))
        {
            contact.add_sent(usize::from(t.from.0 != key.0), t.msg.size);
        }

        let outcome = self.routers[to].on_message_received(
            &mut self.states[to],
            &t.msg,
            t.from,
            self.now,
            &mut self.node_rngs[to],
        );
        match outcome {
            ReceiveOutcome::Delivered { first_time } => {
                if first_time {
                    self.report
                        .on_delivered(t.msg.created, self.now, t.msg.hops + 1);
                } else {
                    self.report.messages.delivered_duplicate += 1;
                }
                self.routers[from].on_transfer_success(
                    &mut self.states[from],
                    t.msg.id,
                    t.to,
                    true,
                    self.now,
                );
            }
            ReceiveOutcome::Stored { evicted } => {
                self.report.messages.relayed += 1;
                self.report
                    .on_dropped(DropCause::Congestion, evicted.len() as u64);
                self.routers[from].on_transfer_success(
                    &mut self.states[from],
                    t.msg.id,
                    t.to,
                    false,
                    self.now,
                );
            }
            ReceiveOutcome::Rejected(_) => {
                // The bandwidth was spent but the copy was refused; the
                // sender's state is untouched (mirrors an aborted transfer).
                self.report.messages.transfers_rejected += 1;
                self.routers[from].on_transfer_aborted(&mut self.states[from], t.msg.id, t.to);
            }
        }
        self.refresh_ttl_wake(to);
    }

    /// Ask `from`'s router for a message to send to `to` over the
    /// connection at `slot`; start the transfer if it names one. Returns
    /// whether a transfer started.
    fn try_start_transfer(&mut self, from: NodeId, to: NodeId, slot: u32) -> bool {
        let key = pair_key(from, to);
        let side = usize::from(from.0 != key.0);
        // Single slot index serves the whole call: the router scans through
        // a directional view (offered set + this direction's resume cursor)
        // and a successful offer is recorded on the same borrow.
        let contact = self.contacts[slot as usize]
            .as_mut()
            .expect("routing round only visits live connections");
        let (rf, rt) = pair_mut(&mut self.routers, from.index(), to.index());

        // Silence short-circuit: if this direction answered `None` from
        // exactly this state snapshot, re-asking is provably futile (see
        // `SilenceKey` — the sender buffer contributes its insert count, so
        // sender-side removals keep the memo); skipping the scan is
        // bit-identical as long as the router draws no RNG in
        // `next_transfer`. Same inputs as `silence_key()` (inlined here
        // because the routers are already split-borrowed).
        let silence_key = [
            self.states[from.index()].buffer.insert_count(),
            rf.routing_generation(),
            self.states[to.index()].buffer.generation(),
            rt.routing_generation(),
            self.states[to.index()].delivered.len() as u64,
        ];
        let cacheable = !rf.next_transfer_draws_rng();
        if cacheable && contact.is_silent(side, &silence_key) {
            return false;
        }

        let intent = rf.next_transfer(
            &self.states[from.index()],
            &self.states[to.index()],
            &**rt,
            &mut contact.view(side),
            self.now,
            &mut self.node_rngs[from.index()],
        );
        match intent {
            Some(id) => {
                let msg = self.states[from.index()]
                    .buffer
                    .get(id)
                    .expect("router offered a message it does not hold");
                let handle = self.states[from.index()]
                    .buffer
                    .handle_of(id)
                    .expect("stored message has a handle");
                contact.record(id, handle);
                let completes = self.links.start_transfer(from, to, msg, self.now);
                if self.event_driven() {
                    // One wake-up at the exact byte-drain instant, held back
                    // until the re-arm decision, which drops it when another
                    // event already forces that tick; the drain itself
                    // happens in phase 4, in pair-key order with any other
                    // due completion.
                    self.pending_transfer_wakes.push((completes, from, to));
                }
                self.report.messages.transfers_started += 1;
                true
            }
            None => {
                if cacheable {
                    contact.set_silent(side, silence_key);
                }
                false
            }
        }
    }

    fn finish(mut self, t0: std::time::Instant) -> (SimReport, Option<SimLog>) {
        // Tear down: in-flight transfers at the horizon count as aborted,
        // with whatever bytes were on the wire settled at the horizon.
        let aborted = self.links.clear(self.now);
        self.report.messages.transfers_aborted += aborted.len() as u64;
        for outcome in &aborted {
            if let TransferOutcome::Aborted {
                bytes_transferred, ..
            } = outcome
            {
                self.report.messages.bytes_aborted += bytes_transferred;
            }
        }
        self.trace.finish(self.now);
        self.report.contacts = self.trace.contact_count;
        self.report.mean_contact_secs = self.trace.mean_duration();
        self.report.mean_intercontact_secs = self.trace.mean_intercontact();
        self.report.wall_secs = t0.elapsed().as_secs_f64();
        let node_count = self.states.len();
        let log = self.log.take().map(|l| l.finish(node_count, self.now));
        (self.report, log)
    }
}

// --- State hashing and checkpoint/restore (see ARCHITECTURE.md, "The
//     state hash and snapshot protocol") ---

impl World {
    /// Canonical hash of the world's semantic state at the current tick
    /// boundary.
    ///
    /// **Identical by construction across all three [`EngineMode`]s and
    /// every thread count**: it folds in only state the modes keep
    /// bit-identical — the clock, positions evaluated through
    /// [`World::node_position`] (the one closed form both disciplines
    /// share), buffers in reception order, delivered sets in sorted order,
    /// router protocol state, RNG stream positions, live links with their
    /// transfers in ordered-pair-key order, the traffic stream, the
    /// contact trace, and the report counters. It deliberately excludes
    /// everything call-pattern-dependent: mover clock/position anchors,
    /// the raw kinematics columns (never refreshed between boundaries
    /// under `Ticked`), silence memos, cursors, candidate indexes, the
    /// event queue, `wall_secs`, and [`EngineStats`].
    ///
    /// Must be sampled between ticks (never mid-phase). The CI drift
    /// matrix compares streams of these hashes across the full
    /// mode × thread grid.
    pub fn state_hash(&self) -> u64 {
        let mut h = StateHash::new();
        self.hash_state(&mut h);
        h.finish()
    }

    /// Fold the canonical state into an existing [`StateHash`] (see
    /// [`World::state_hash`] for what is included and why).
    pub fn hash_state(&self, h: &mut StateHash) {
        h.write_tag("world");
        h.write_u64(self.now.as_millis());
        h.write_u64(self.tick_index);

        h.write_tag("nodes");
        h.write_len(self.states.len());
        for i in 0..self.states.len() {
            let st = &self.states[i];
            self.node_position(NodeId(i as u32)).hash_into(h);
            h.write_u64(st.buffer.used());
            let msgs: Vec<Message> = st.buffer.iter().collect();
            h.write_len(msgs.len());
            for m in &msgs {
                hash_message(h, m);
            }
            let mut delivered: Vec<MessageId> = st.delivered.iter().copied().collect();
            delivered.sort_unstable();
            h.write_len(delivered.len());
            for d in delivered {
                h.write_u64(d.0);
            }
            self.routers[i].hash_state(h);
            for w in self.node_rngs[i].state_words() {
                h.write_u64(w);
            }
        }

        h.write_tag("movers");
        for m in &self.movers {
            m.hash_state(h);
        }

        h.write_tag("traffic");
        self.traffic.hash_into(h);

        h.write_tag("links");
        let conns = self.links.connections();
        h.write_len(conns.len());
        for (a, b, up_since, rate, transfer) in conns {
            h.write_u32(a.0);
            h.write_u32(b.0);
            h.write_u64(up_since.as_millis());
            h.write_f64(rate);
            match transfer {
                Some(t) => {
                    h.write_u8(1);
                    h.write_u32(t.from.0);
                    h.write_u32(t.to.0);
                    hash_message(h, &t.msg);
                    h.write_u64(t.started.as_millis());
                    h.write_f64(t.rate);
                }
                None => h.write_u8(0),
            }
            let slot = self
                .links
                .slot_of(a, b)
                .expect("listed connection has a slot");
            match self.contacts.get(slot as usize).and_then(Option::as_ref) {
                Some(c) => {
                    h.write_u8(1);
                    c.hash_into(h);
                }
                None => h.write_u8(0),
            }
        }

        h.write_tag("trace");
        self.trace.hash_into(h);

        h.write_tag("report");
        hash_report(h, &self.report);

        h.write_tag("sampling");
        h.write_u64(self.next_sample.as_millis());
    }

    /// Capture the world's full dynamic state between two ticks.
    ///
    /// `scenario` must be the scenario this world was built from (it is
    /// embedded so [`World::restore`] can re-materialise the static side);
    /// panics if the node count disagrees. The returned snapshot restores
    /// under any engine mode and thread count.
    pub fn snapshot(&self, scenario: &Scenario) -> WorldSnapshot {
        assert_eq!(
            scenario.node_count(),
            self.states.len(),
            "snapshot scenario does not match the running world"
        );
        let nodes: Vec<NodeSnapshot> = self
            .states
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let mut delivered: Vec<MessageId> = st.delivered.iter().copied().collect();
                delivered.sort_unstable();
                NodeSnapshot {
                    buffer: st.buffer.iter().collect(),
                    delivered,
                    router: self.routers[i].snapshot_state(),
                }
            })
            .collect();
        let links: Vec<LinkSnapshot> = self
            .links
            .connections()
            .into_iter()
            .map(|(a, b, up_since, rate, transfer)| {
                let slot = self
                    .links
                    .slot_of(a, b)
                    .expect("listed connection has a slot");
                let offers = self.contacts[slot as usize]
                    .as_ref()
                    .expect("live connection has offer state");
                LinkSnapshot {
                    a,
                    b,
                    up_since,
                    rate,
                    transfer: transfer.map(|t| TransferSnapshot {
                        from: t.from,
                        to: t.to,
                        msg: t.msg,
                        started: t.started,
                    }),
                    offered: offers.offered_ids().to_vec(),
                    sent_bytes: offers.sent_bytes(),
                }
            })
            .collect();
        let (trace_open, trace_last_end) = self.trace.snapshot_maps();
        let (traffic_rng, traffic_next_time, traffic_next_id) = self.traffic.snapshot_state();
        WorldSnapshot {
            scenario: scenario.clone(),
            now: self.now,
            tick_index: self.tick_index,
            state_hash: self.state_hash(),
            nodes,
            movers: self.movers.iter().map(|m| m.snapshot()).collect(),
            node_rngs: self.node_rngs.clone(),
            traffic_rng,
            traffic_next_time,
            traffic_next_id,
            links,
            trace: self.trace.clone(),
            trace_open,
            trace_last_end,
            report: self.report.clone(),
            next_sample: self.next_sample,
        }
    }

    /// Rebuild a world from a snapshot and continue bit-identically.
    ///
    /// The engine mode and thread count are free choices — they need not
    /// match the world that took the snapshot, because the snapshot holds
    /// only mode-invariant state. The recipe: build the world fresh from
    /// the embedded scenario (static side: map, detector, pools), then
    /// overwrite every piece of dynamic state and rebuild the caches
    /// conservatively — the detector re-primes on the restored layout, the
    /// event queue is re-seeded with conservative wake-ups (stale wake-ups
    /// are harmless by the engine's events-are-markers discipline), and
    /// silence memos/cursors/candidate indexes start cold and rebuild on
    /// first use.
    ///
    /// Panics if the restored world's [`World::state_hash`] does not
    /// reproduce the snapshot's recorded hash: a failed round trip is a
    /// bug, never a degradation to tolerate.
    pub fn restore(snap: &WorldSnapshot, mode: EngineMode, threads: Option<usize>) -> World {
        let scenario = &snap.scenario;
        let mut w = Self::build_full(scenario, mode, threads);
        let n = w.states.len();
        assert_eq!(n, snap.nodes.len(), "snapshot node count mismatch");
        assert_eq!(n, snap.movers.len(), "snapshot mover count mismatch");
        assert_eq!(n, snap.node_rngs.len(), "snapshot RNG lane count mismatch");
        w.now = snap.now;
        w.tick_index = snap.tick_index;

        // Movers: the road graph is not stored on the world, but its
        // construction is deterministic in the scenario seed — rebuild it
        // exactly as `build_full` did.
        let root = SimRng::seed_from_u64(scenario.seed);
        let map = Arc::new(scenario.map.build(&mut root.derive("map", 0)));
        for (i, ms) in snap.movers.iter().enumerate() {
            w.movers[i] = restore_mover(ms.clone(), &map);
            // Normalise the advance anchor to the restore instant. Every
            // restored segment satisfies `until > now` (a boundary at or
            // before `now` would have been crossed before the snapshot),
            // so this stays within-segment: clock and position update, no
            // boundary crossing, no RNG draw.
            w.movers[i].advance_to(w.now);
            let seg = w.movers[i].motion();
            w.positions[i] = w.movers[i].position();
            w.seg_origin[i] = seg.origin;
            w.seg_vel[i] = seg.velocity;
            w.seg_start[i] = seg.start;
            w.seg_until[i] = seg.until;
            w.mover_wake[i] = w.movers[i].next_decision_time();
        }

        // Node state: ordered buffer re-insertion reproduces the relative
        // sequence order FIFO policies sort by; fresh buffers were
        // `watch()`ed at build, so these inserts feed the candidate-index
        // delta logs exactly like live insertions.
        for (i, ns) in snap.nodes.iter().enumerate() {
            for m in &ns.buffer {
                w.states[i]
                    .buffer
                    .insert(*m)
                    .expect("snapshot buffer contents fit the configured capacity");
            }
            w.states[i].delivered = ns.delivered.iter().copied().collect();
            w.routers[i].restore_state(ns.router.clone());
        }
        w.node_rngs = snap.node_rngs.clone();
        w.traffic = TrafficGenerator::restore(
            w.traffic.config().clone(),
            snap.traffic_rng.clone(),
            snap.traffic_next_time,
            snap.traffic_next_id,
        );

        // Links: replay `link_up` in the snapshot's ordered-pair-key order,
        // then re-start in-flight transfers at their original start
        // instants, reproducing each exact byte-drain completion time.
        // Slot handles may renumber relative to the donor world; that is
        // invisible because every link iteration walks the adjacency
        // mirror in pair-key order, never slot order.
        w.links = LinkTable::with_nodes(n);
        w.contacts = Vec::new();
        let mut inflight: Vec<(SimTime, NodeId, NodeId)> = Vec::new();
        for ls in &snap.links {
            let slot = w
                .links
                .link_up(ls.a, ls.b, ls.up_since, ls.rate)
                .expect("snapshot link rate was validated at capture");
            if w.contacts.len() <= slot as usize {
                w.contacts.resize_with(slot as usize + 1, || None);
            }
            w.contacts[slot as usize] =
                Some(ContactOffers::restore(ls.offered.clone(), ls.sent_bytes));
            if let Some(t) = &ls.transfer {
                let completes = w.links.start_transfer(t.from, t.to, t.msg, t.started);
                inflight.push((completes, t.from, t.to));
            }
        }

        w.trace = snap.trace.clone();
        w.trace
            .restore_maps(snap.trace_open.clone(), snap.trace_last_end.clone());
        w.report = snap.report.clone();
        w.next_sample = snap.next_sample;

        // Re-prime the contact detector on the restored layout, discarding
        // the events: the diff it reports is exactly the restored live-link
        // set, which the link table already holds.
        let primed = match w.mode {
            EngineMode::Ticked => w.detector.update(&w.positions),
            EngineMode::EventDriven | EngineMode::Parallel => {
                let cols = MotionCols {
                    origin: &w.seg_origin,
                    velocity: &w.seg_vel,
                    start: &w.seg_start,
                    until: &w.seg_until,
                };
                w.detector.prime_kinematic(w.now, &cols)
            }
        };
        let ups = primed
            .iter()
            .filter(|e| matches!(e, LinkEvent::Up(_, _)))
            .count();
        assert_eq!(
            (ups, primed.len() - ups),
            (snap.links.len(), 0),
            "detector re-prime disagrees with the snapshot's live-link set"
        );

        // Event queue: rebuilt from scratch with conservative wake-ups.
        // Extra executed ticks this causes are semantic no-ops (stale
        // events are markers, and every re-derived phase finds its true
        // work), so the rebuild cannot perturb the run.
        w.events = EventQueue::with_capacity(n + 8);
        w.movement_due.clear();
        w.pending_transfer_wakes.clear();
        w.link_round_scheduled = false;
        w.contact_window_scheduled = SimTime::MAX;
        w.ttl_wake = vec![SimTime::MAX; n];
        if w.event_driven() {
            w.events
                .schedule(w.traffic.peek_time(), EngineEvent::TrafficDue);
            for (i, &wake) in w.mover_wake.iter().enumerate() {
                if wake < SimTime::MAX {
                    w.events
                        .schedule(wake, EngineEvent::MovementWake(NodeId(i as u32)));
                }
            }
            // Force the first post-restore tick to execute: the re-primed
            // detector re-queries there, and the routing round re-derives
            // (and re-memoises) every idle direction's verdict.
            w.events
                .schedule(w.now + w.tick, EngineEvent::ContactRecheck);
            for &(completes, from, to) in &inflight {
                w.events
                    .schedule(completes, EngineEvent::TransferComplete(from, to));
            }
            for i in 0..n {
                if let Some(e) = w.states[i].buffer.next_expiry() {
                    w.ttl_wake[i] = e;
                    w.events
                        .schedule(e, EngineEvent::TtlExpiry(NodeId(i as u32)));
                }
            }
            if w.sample_period.is_some() {
                w.events.schedule(w.next_sample, EngineEvent::Sample);
            }
            if w.routing_work_possible() {
                w.link_round_scheduled = true;
                w.events.schedule(w.now + w.tick, EngineEvent::LinkRound);
            }
        }

        let hash = w.state_hash();
        assert_eq!(
            hash, snap.state_hash,
            "restored world does not reproduce the snapshot's state hash"
        );
        w
    }
}

/// Fold one message copy into a state hash (all fields drive behaviour:
/// identity, routing, size/drain time, TTL, FIFO order, spray quotas).
fn hash_message(h: &mut StateHash, m: &Message) {
    h.write_u64(m.id.0);
    h.write_u32(m.src.0);
    h.write_u32(m.dst.0);
    h.write_u64(m.size);
    h.write_u64(m.created.as_millis());
    h.write_u64(m.ttl.as_millis());
    h.write_u32(m.hops);
    h.write_u32(m.copies);
    h.write_u64(m.received.as_millis());
}

/// Fold the report's accumulated metrics into a state hash — everything
/// except `wall_secs` (measurement, not state) and the static labels.
fn hash_report(h: &mut StateHash, r: &SimReport) {
    let m = &r.messages;
    for c in [
        m.created,
        m.delivered_unique,
        m.delivered_duplicate,
        m.relayed,
        m.transfers_started,
        m.transfers_aborted,
        m.transfers_rejected,
        m.dropped_congestion,
        m.dropped_expired,
        m.dropped_ack,
        m.dropped_at_creation,
        m.bytes_transferred,
        m.bytes_aborted,
    ] {
        h.write_u64(c);
    }
    m.delay.hash_into(h);
    m.hops.hash_into(h);
    for series in [&r.buffer_occupancy, &r.deliveries_over_time] {
        h.write_len(series.len());
        for s in series {
            h.write_f64(s.t_secs);
            h.write_f64(s.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MapSpec, NodeGroup, Scenario, TrafficSpec};
    use vdtn_bundle::PolicyCombo;
    use vdtn_geo::GridMapGen;
    use vdtn_mobility::SpmbConfig;
    use vdtn_net::{DetectorBackend, RadioInterface};
    use vdtn_routing::RouterKind;

    /// Small but busy scenario: 8 vehicles on a 3×3 grid, fast contacts.
    fn small(router: RouterKind, policy: PolicyCombo, seed: u64) -> Scenario {
        Scenario {
            name: "engine-test".into(),
            seed,
            duration_secs: 1_800.0,
            tick_secs: 1.0,
            map: MapSpec::Grid(GridMapGen {
                cols: 3,
                rows: 3,
                spacing: 120.0,
            }),
            groups: vec![NodeGroup {
                name: "vehicles".into(),
                count: 8,
                buffer_bytes: 20_000_000,
                mobility: MobilitySpec::ShortestPathMapBased(SpmbConfig {
                    wait_lo: 5.0,
                    wait_hi: 20.0,
                    ..SpmbConfig::default()
                }),
                is_relay: false,
            }],
            radio: RadioInterface::paper_80211b(),
            detector: DetectorBackend::Grid,
            traffic: TrafficSpec::paper(SimDuration::from_mins(30)),
            router,
            policy,
            sample_period_secs: 60.0,
        }
    }

    #[test]
    fn epidemic_delivers_messages() {
        let report = World::build(&small(RouterKind::Epidemic, PolicyCombo::FIFO_FIFO, 1)).run();
        assert!(report.messages.created > 50, "{}", report.summary());
        assert!(
            report.messages.delivered_unique > 0,
            "no deliveries: {}",
            report.summary()
        );
        assert!(report.contacts > 0);
        assert!(report.messages.transfers_started >= report.messages.relayed);
        assert!(report.delivery_probability() <= 1.0);
        assert!(!report.buffer_occupancy.is_empty());
    }

    #[test]
    fn deterministic_same_seed() {
        let a = World::build(&small(RouterKind::Epidemic, PolicyCombo::LIFETIME, 7)).run();
        let b = World::build(&small(RouterKind::Epidemic, PolicyCombo::LIFETIME, 7)).run();
        assert_eq!(a.messages.created, b.messages.created);
        assert_eq!(a.messages.delivered_unique, b.messages.delivered_unique);
        assert_eq!(a.messages.relayed, b.messages.relayed);
        assert_eq!(a.messages.transfers_started, b.messages.transfers_started);
        assert_eq!(a.contacts, b.contacts);
        assert!((a.avg_delay_mins() - b.avg_delay_mins()).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::build(&small(RouterKind::Epidemic, PolicyCombo::LIFETIME, 1)).run();
        let b = World::build(&small(RouterKind::Epidemic, PolicyCombo::LIFETIME, 2)).run();
        // Extremely unlikely to coincide exactly in all of these.
        assert!(
            a.messages.delivered_unique != b.messages.delivered_unique
                || a.messages.relayed != b.messages.relayed
                || a.contacts != b.contacts
        );
    }

    #[test]
    fn every_protocol_runs_clean() {
        use vdtn_routing::{MaxPropConfig, ProphetConfig};
        let kinds = [
            RouterKind::Epidemic,
            RouterKind::paper_snw(),
            RouterKind::Prophet(ProphetConfig::default()),
            RouterKind::MaxProp(MaxPropConfig::default()),
            RouterKind::DirectDelivery,
            RouterKind::FirstContact,
        ];
        for kind in kinds {
            let report = World::build(&small(kind.clone(), PolicyCombo::LIFETIME, 3)).run();
            assert!(report.messages.created > 0, "{kind:?}");
            // Conservation: every unique delivery implies a completed
            // transfer to the destination.
            assert!(
                report.messages.transfers_started
                    >= report.messages.delivered_unique + report.messages.relayed,
                "{kind:?}: {}",
                report.summary()
            );
        }
    }

    #[test]
    fn epidemic_beats_direct_delivery() {
        // Flooding must dominate the no-replication baseline: in this small,
        // well-connected scenario both deliver nearly everything, so the
        // decisive advantage is delay; delivery count must at least be
        // competitive (replication can never *lose* deliveries beyond noise).
        let epi = World::build(&small(RouterKind::Epidemic, PolicyCombo::LIFETIME, 11)).run();
        let dd = World::build(&small(
            RouterKind::DirectDelivery,
            PolicyCombo::LIFETIME,
            11,
        ))
        .run();
        assert!(
            epi.messages.delivered_unique as f64 >= 0.9 * dd.messages.delivered_unique as f64,
            "epidemic {} ≪ direct {}",
            epi.messages.delivered_unique,
            dd.messages.delivered_unique
        );
        assert!(
            epi.avg_delay_mins() < dd.avg_delay_mins(),
            "epidemic delay {:.1}m not better than direct {:.1}m",
            epi.avg_delay_mins(),
            dd.avg_delay_mins()
        );
    }

    #[test]
    fn step_granularity_and_clock() {
        let mut w = World::build(&small(RouterKind::Epidemic, PolicyCombo::FIFO_FIFO, 5));
        assert_eq!(w.now(), SimTime::ZERO);
        assert_eq!(w.mode(), EngineMode::EventDriven);
        w.step();
        assert_eq!(w.now(), SimTime::from_secs_f64(1.0));
        assert_eq!(w.node_count(), 8);
        // Positions stay on the 240×240 m map.
        for i in 0..w.node_count() {
            let p = w.node_position(NodeId(i as u32));
            assert!((0.0..=240.0).contains(&p.x) && (0.0..=240.0).contains(&p.y));
        }
    }

    /// Canonical serialisation with the wall clock zeroed: equal strings ⟺
    /// bit-identical reports.
    fn canon(mut r: SimReport) -> String {
        r.wall_secs = 0.0;
        serde_json::to_string(&r).expect("report serialises")
    }

    #[test]
    fn event_mode_is_bit_identical_to_ticked() {
        for seed in [1, 7, 23] {
            let scenario = small(RouterKind::Epidemic, PolicyCombo::LIFETIME, seed);
            let ticked = World::build_with_mode(&scenario, EngineMode::Ticked).run();
            let event = World::build_with_mode(&scenario, EngineMode::EventDriven).run();
            assert_eq!(canon(ticked), canon(event), "seed {seed}");
        }
    }

    #[test]
    fn parallel_mode_is_bit_identical_at_every_pool_size() {
        for seed in [1, 23] {
            let scenario = small(RouterKind::Epidemic, PolicyCombo::LIFETIME, seed);
            let reference = canon(World::build_with_mode(&scenario, EngineMode::Ticked).run());
            for threads in [1, 2, 4] {
                let par = World::build_parallel_with_threads(&scenario, threads).run();
                assert_eq!(reference, canon(par), "seed {seed}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_mode_handles_random_scheduling_deferred_pairs() {
        // Random scheduling draws RNG per round, so no direction is ever
        // memoised silent and every round is loud — the parallel engine
        // must still match.
        let scenario = small(RouterKind::Epidemic, PolicyCombo::RANDOM_FIFO, 9);
        let reference = canon(World::build_with_mode(&scenario, EngineMode::EventDriven).run());
        let par = World::build_parallel_with_threads(&scenario, 2).run();
        assert_eq!(reference, canon(par));
    }

    #[test]
    fn event_mode_matches_ticked_stepwise() {
        // Stronger than end-state equality: clocks, positions and buffer
        // states agree after every single tick.
        let scenario = small(RouterKind::paper_snw(), PolicyCombo::FIFO_FIFO, 13);
        let mut ticked = World::build_with_mode(&scenario, EngineMode::Ticked);
        let mut event = World::build_with_mode(&scenario, EngineMode::EventDriven);
        for tick in 0..600 {
            ticked.step();
            event.step();
            assert_eq!(ticked.now(), event.now());
            for i in 0..ticked.node_count() {
                let id = NodeId(i as u32);
                assert_eq!(
                    ticked.node_position(id),
                    event.node_position(id),
                    "tick {tick}, node {i}: positions diverged"
                );
                assert_eq!(
                    ticked.node_state(id).buffer.used(),
                    event.node_state(id).buffer.used(),
                    "tick {tick}, node {i}: buffers diverged"
                );
            }
        }
    }

    #[test]
    fn pair_mut_splits_correctly() {
        let mut v = vec![1, 2, 3, 4];
        {
            let (a, b) = pair_mut(&mut v, 0, 3);
            std::mem::swap(a, b);
        }
        assert_eq!(v, vec![4, 2, 3, 1]);
        {
            let (a, b) = pair_mut(&mut v, 2, 1);
            *a += 10;
            *b += 100;
        }
        assert_eq!(v, vec![4, 102, 13, 1]);
    }

    #[test]
    #[should_panic(expected = "distinct indices")]
    fn pair_mut_rejects_same_index() {
        let mut v = vec![1, 2];
        let _ = pair_mut(&mut v, 1, 1);
    }
}
