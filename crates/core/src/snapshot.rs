//! Checkpoint/restore and the state hash: the world's one canonical
//! description of its state, and its on-disk format.
//!
//! A [`WorldState`] captures everything a [`World`](crate::World) needs
//! to resume a run mid-flight and finish **bit-identically** to the
//! uninterrupted run: simulation clock, per-node buffers and delivered
//! sets, router protocol state, RNG stream positions, mover trajectories,
//! the traffic generator mid-stream, live links with their in-flight
//! transfers and per-contact offer state, the contact trace, and the
//! report so far. Caches — silence memos, candidate indexes, router digest
//! caches, the event queue — are deliberately *not* captured: they rebuild
//! conservatively at restore, degrading to rescans, never to wrong answers
//! (the same "events are markers, not obligations" discipline the engine
//! itself follows). A [`WorldSnapshot`] pairs it with the [`Scenario`]
//! that re-materialises the static side.
//!
//! The same value defines the state hash: [`WorldState::digest`] is the
//! FNV-1a digest of its canonical JSON, and
//! [`World::state_hash`](crate::World::state_hash) is the digest of a
//! fresh capture. There is no second description of world state to keep
//! in step with this one.
//!
//! The capture is mode-invariant: the two [`EngineMode`](crate::EngineMode)s
//! capture byte-identical states at every tick boundary, so a snapshot
//! taken under either resumes under the other and the two modes' hash
//! streams are equal (`tests/snapshot_equivalence.rs`).
//!
//! # File format
//!
//! Two lines, the same discipline as the sweep journal
//! ([`crate::orchestrator::journal`]):
//!
//! 1. a JSON [`SnapshotHeader`] binding the file to a magic, a format
//!    version, the scenario fingerprint, the capture clock, the state hash
//!    at capture, and the byte length + FNV-1a digest of the payload line;
//! 2. the JSON payload (the [`WorldSnapshot`] itself).
//!
//! [`save_snapshot`] writes to a temp file, fsyncs, then renames into
//! place, so a crash never leaves a half-written file under the target
//! name; [`load_snapshot`] verifies the payload length and digest against
//! the header, so a torn or truncated payload is detected instead of
//! deserialised into a half-world.

use crate::report::SimReport;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use vdtn_bundle::{Message, MessageId};
use vdtn_mobility::MoverSnapshot;
use vdtn_routing::RouterSnapshot;
use vdtn_sim_core::statehash::fnv1a_64;
use vdtn_sim_core::{NodeId, SimRng, SimTime};

/// Snapshot file magic.
const MAGIC: &str = "vdtn-snapshot";
/// Snapshot format version; [`load_snapshot`] refuses any other.
const VERSION: u32 = 2;

/// One node's store-and-forward state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// Buffered messages in reception order ([`vdtn_bundle::Buffer::iter`]
    /// order). Restore re-inserts them in this order into a fresh buffer,
    /// which reproduces the relative sequence ordering FIFO policies sort
    /// by.
    pub buffer: Vec<Message>,
    /// Delivered-message ids, sorted.
    pub delivered: Vec<MessageId>,
    /// The router's protocol state (delivery predictabilities, ack sets,
    /// …); caches excluded.
    pub router: RouterSnapshot,
}

/// An in-flight transfer on a live link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferSnapshot {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The copy on the wire (as captured at transfer start).
    pub msg: Message,
    /// Original start instant — replaying `start_transfer` with it
    /// reproduces the exact byte-drain completion time.
    pub started: SimTime,
}

/// One live link, in ordered-pair-key order (`a < b`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkSnapshot {
    /// Lower endpoint of the pair key.
    pub a: NodeId,
    /// Higher endpoint of the pair key.
    pub b: NodeId,
    /// When the link came up.
    pub up_since: SimTime,
    /// Link rate, bytes per second.
    pub rate: f64,
    /// In-flight transfer, if the link is busy.
    pub transfer: Option<TransferSnapshot>,
    /// Message ids already offered during this contact (semantic dedup
    /// state; the offer caches rebuild cold).
    pub offered: Vec<MessageId>,
    /// Per-direction payload bytes sent (`[lower id, higher id]`).
    pub sent_bytes: [u64; 2],
}

/// A restorable world: the scenario that builds its static side plus its
/// dynamic state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldSnapshot {
    /// The scenario that built the world. Restore re-materialises the
    /// static side (map, node groups, radio) from it, then overwrites the
    /// dynamic state with [`WorldSnapshot::state`].
    pub scenario: Scenario,
    /// The world's dynamic state at capture.
    pub state: WorldState,
}

/// Complete dynamic state of a [`World`](crate::World) between two ticks,
/// in canonical order: nodes by id, buffers in reception order, sets and
/// maps sorted, links in ordered-pair-key order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldState {
    /// Simulation clock at capture (a tick boundary).
    pub now: SimTime,
    /// Tick counter at capture (drives routing-initiative parity).
    pub tick_index: u64,
    /// Per-node store-and-forward state, indexed by node id.
    pub nodes: Vec<NodeSnapshot>,
    /// Per-node movement-model state, indexed by node id.
    pub movers: Vec<MoverSnapshot>,
    /// Per-node policy RNG lanes, indexed by node id.
    pub node_rngs: Vec<SimRng>,
    /// Traffic generator RNG mid-stream.
    pub traffic_rng: SimRng,
    /// Next message creation time.
    pub traffic_next_time: SimTime,
    /// Next message id.
    pub traffic_next_id: u64,
    /// Live links in ordered-pair-key order.
    pub links: Vec<LinkSnapshot>,
    /// Contact trace: accumulators and per-pair maps.
    pub trace: vdtn_net::ContactTrace,
    /// Report accumulated so far (counters, Welford moments, samples;
    /// `wall_secs` is only set when a run finishes, so it is 0 here).
    pub report: SimReport,
    /// Next sampling boundary.
    pub next_sample: SimTime,
}

impl WorldState {
    /// The canonical state hash: FNV-1a over this state's JSON.
    ///
    /// The JSON writes floats with round-trip precision, so a one-ULP
    /// change or a `0.0`/`-0.0` flip changes the digest. Non-finite floats
    /// hash as `null`, exactly as snapshot files store them; the only ones
    /// in world state are MaxProp's +∞ costs to unreachable nodes and an
    /// empty Welford accumulator's ±∞ bounds, both unambiguous in context,
    /// so the digest loses nothing a restore keeps.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(self).expect("world state serialises");
        fnv1a_64(json.as_bytes())
    }
}

/// First line of a snapshot file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// File magic, always `"vdtn-snapshot"`.
    pub snapshot: String,
    /// Format version.
    pub version: u32,
    /// FNV-1a fingerprint of the scenario's canonical JSON — restore
    /// tooling can reject a snapshot against the wrong scenario without
    /// parsing the payload.
    pub scenario_fnv: u64,
    /// Capture clock, milliseconds.
    pub now_ms: u64,
    /// Canonical state hash at capture ([`WorldState::digest`]).
    pub state_hash: u64,
    /// Byte length of the payload line (excluding the trailing newline).
    pub payload_len: u64,
    /// FNV-1a digest of the payload line — torn-write detection.
    pub payload_fnv: u64,
}

/// FNV-1a fingerprint of a scenario's canonical JSON serialisation.
pub fn scenario_fingerprint(scenario: &Scenario) -> u64 {
    let json = serde_json::to_string(scenario).expect("scenario serialises");
    fnv1a_64(json.as_bytes())
}

fn bad_data(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// Write a snapshot atomically: temp file in the target's directory,
/// fsync, rename. A crash mid-write leaves at worst a stray `.tmp` file,
/// never a corrupt snapshot under the target name.
pub fn save_snapshot(path: &Path, snap: &WorldSnapshot) -> io::Result<()> {
    let payload = serde_json::to_string(snap).expect("snapshot serialises");
    let header = SnapshotHeader {
        snapshot: MAGIC.to_string(),
        version: VERSION,
        scenario_fnv: scenario_fingerprint(&snap.scenario),
        now_ms: snap.state.now.as_millis(),
        state_hash: snap.state.digest(),
        payload_len: payload.len() as u64,
        payload_fnv: fnv1a_64(payload.as_bytes()),
    };
    let header_line = serde_json::to_string(&header).expect("header serialises");

    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(header_line.as_bytes())?;
        file.write_all(b"\n")?;
        file.write_all(payload.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

/// Read and verify a snapshot. Rejects foreign files (bad magic), future
/// format versions, and torn payloads (length or digest mismatch against
/// the header).
pub fn load_snapshot(path: &Path) -> io::Result<WorldSnapshot> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let (header_line, rest) = text
        .split_once('\n')
        .ok_or_else(|| bad_data("snapshot has no header line".into()))?;
    let header: SnapshotHeader = serde_json::from_str(header_line)
        .map_err(|e| bad_data(format!("unparseable snapshot header: {e}")))?;
    if header.snapshot != MAGIC {
        return Err(bad_data(format!(
            "bad snapshot magic `{}`",
            header.snapshot
        )));
    }
    if header.version != VERSION {
        return Err(bad_data(format!(
            "unsupported snapshot version {}",
            header.version
        )));
    }
    let payload = rest.strip_suffix('\n').unwrap_or(rest);
    if payload.len() as u64 != header.payload_len {
        return Err(bad_data(format!(
            "torn snapshot payload: {} bytes, header promises {}",
            payload.len(),
            header.payload_len
        )));
    }
    if fnv1a_64(payload.as_bytes()) != header.payload_fnv {
        return Err(bad_data("snapshot payload digest mismatch".into()));
    }
    let snap: WorldSnapshot = serde_json::from_str(payload)
        .map_err(|e| bad_data(format!("unparseable snapshot payload: {e}")))?;
    if scenario_fingerprint(&snap.scenario) != header.scenario_fnv {
        return Err(bad_data("snapshot scenario fingerprint mismatch".into()));
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{paper_scenario, PaperProtocol};
    use crate::World;
    use vdtn_geo::{Point, Segment, VertexId};
    use vdtn_mobility::PathPhase;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vdtn-snapshot-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn small_world() -> (Scenario, World) {
        world_of(PaperProtocol::EpidemicLifetime)
    }

    fn world_of(protocol: PaperProtocol) -> (Scenario, World) {
        let mut scenario = paper_scenario(protocol, 30, 5);
        scenario.duration_secs = 600.0;
        let world = World::build(&scenario);
        (scenario, world)
    }

    /// A payload that does not belong to its scenario is a typed error,
    /// never a panic.
    #[test]
    fn restore_rejects_payloads_that_disagree_with_their_scenario() {
        let (scenario, mut world) = world_of(PaperProtocol::SnwLifetime);
        world.run_until(SimTime::from_secs_f64(300.0));
        let snap = world.snapshot(&scenario);
        let reason = |edit: &dyn Fn(&mut WorldSnapshot)| {
            let mut bad = snap.clone();
            edit(&mut bad);
            World::restore(&bad, world.mode())
                .err()
                .expect("restore fails")
        };
        let dropped_node = reason(&|s| drop(s.state.nodes.pop()));
        assert_eq!(
            dropped_node,
            "snapshot has 44 node entries for a scenario of 45 nodes"
        );
        let foreign_router = reason(&|s| {
            s.state.nodes[0].router = RouterSnapshot::SprayFocus {
                last_met: vec![None; 45],
            }
        });
        assert!(
            foreign_router.starts_with("snapshot node 0: "),
            "{foreign_router}"
        );
        assert!(!snap.state.links.is_empty(), "the fixture has live links");
        let twice = reason(&|s| s.state.links.push(s.state.links[0].clone()));
        assert!(
            twice.ends_with("not a new pair of scenario nodes"),
            "{twice}"
        );
        let spmb = |s: &mut WorldSnapshot, edit: &dyn Fn(&mut VertexId, &mut PathPhase)| {
            let MoverSnapshot::Spmb {
                anchor_b, phase, ..
            } = &mut s.state.movers[0]
            else {
                panic!("node 0 is a map-based vehicle");
            };
            edit(anchor_b, phase);
        };
        let off_map = reason(&|s| spmb(s, &|anchor, _| anchor.0 = 99_999));
        assert!(off_map.contains("is not on the map"), "{off_map}");
        let past_path = reason(&|s| {
            spmb(s, &|_, phase| {
                let seg = Segment::stationary(Point::ORIGIN, SimTime::ZERO, SimTime::MAX);
                let (path, leg, speed) = (vec![Point::ORIGIN], 1, 1.0);
                *phase = PathPhase::Driving {
                    path,
                    leg,
                    speed,
                    seg,
                };
            })
        });
        assert!(
            past_path.starts_with("snapshot mover 0: driving leg 1"),
            "{past_path}"
        );
        let invalid = reason(&|s| s.scenario.tick_secs = 0.0);
        assert!(
            invalid.starts_with("snapshot scenario is invalid"),
            "{invalid}"
        );
        assert!(World::restore(&snap, world.mode()).is_ok());
    }

    /// MaxProp rides along because its state holds infinite path costs,
    /// which the file's JSON writes as `null`.
    #[test]
    fn file_round_trip_preserves_state_hash() {
        for (i, protocol) in [PaperProtocol::EpidemicLifetime, PaperProtocol::MaxProp]
            .into_iter()
            .enumerate()
        {
            let (scenario, mut world) = world_of(protocol);
            world.run_until(SimTime::from_secs_f64(300.0));
            let snap = world.snapshot(&scenario);
            let path = tmp(&format!("roundtrip{i}.snap"));
            save_snapshot(&path, &snap).unwrap();
            let loaded = load_snapshot(&path).unwrap();
            assert_eq!(loaded.state.digest(), world.state_hash());
            assert_eq!(loaded.state.now, snap.state.now);
            let restored = World::restore(&loaded, world.mode()).unwrap();
            assert_eq!(restored.state_hash(), world.state_hash());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn torn_payload_is_rejected() {
        let (scenario, mut world) = small_world();
        world.run_until(SimTime::from_secs_f64(120.0));
        let snap = world.snapshot(&scenario);
        let path = tmp("torn.snap");
        save_snapshot(&path, &snap).unwrap();
        // Simulate a kill mid-write: drop the payload's tail.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - text.len() / 4]).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_byte_is_rejected() {
        let (scenario, mut world) = small_world();
        world.run_until(SimTime::from_secs_f64(120.0));
        let snap = world.snapshot(&scenario);
        let path = tmp("flip.snap");
        save_snapshot(&path, &snap).unwrap();
        // Flip one payload byte without changing the length.
        let mut bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let i = header_end + 1 + (bytes.len() - header_end) / 2;
        bytes[i] = bytes[i].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_snapshot(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let path = tmp("foreign.snap");
        std::fs::write(&path, "{\"snapshot\":\"other\",\"version\":1,\"scenario_fnv\":0,\"now_ms\":0,\"state_hash\":0,\"payload_len\":0,\"payload_fnv\":0}\n\n").unwrap();
        assert!(load_snapshot(&path).is_err());
        std::fs::write(&path, "not json at all").unwrap();
        assert!(load_snapshot(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
