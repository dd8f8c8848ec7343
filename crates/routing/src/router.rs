//! The `Router` trait, its outcome types, and the protocol factory.

use crate::offers::OfferView;
use crate::policy::{PolicyRouter, Replication};
use crate::state::NodeState;
use crate::{AckSet, MaxPropConfig, MaxPropRouter, ProphetConfig, ProphetRouter};
use serde::{Deserialize, Serialize};
use vdtn_bundle::{Message, MessageId, MsgMeta, PolicyCombo};
use vdtn_sim_core::{NodeId, SimRng, SimTime};

/// Result of handing a freshly created message to its source's router.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateOutcome {
    /// True if the message was stored at the source.
    pub stored: bool,
    /// Messages evicted to make room (reported for drop accounting).
    pub evicted: Vec<Message>,
}

/// Why a received message was not stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Already carrying a copy.
    Duplicate,
    /// Already consumed as final destination.
    AlreadyDelivered,
    /// Larger than the whole buffer.
    TooLarge,
    /// Could not free enough space under the drop policy.
    NoSpace,
    /// TTL elapsed while in flight.
    Expired,
}

/// Result of a completed incoming transfer at the receiver.
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiveOutcome {
    /// This node is the destination.
    Delivered {
        /// False when this is a redundant copy of an already-consumed message.
        first_time: bool,
    },
    /// Stored for further forwarding; `evicted` lists congestion drops made
    /// to accommodate it.
    Stored {
        /// Messages evicted by the drop policy.
        evicted: Vec<Message>,
    },
    /// Not stored.
    Rejected(RejectReason),
}

/// Protocol metadata exchanged when two nodes meet, mirroring the control
/// traffic real protocols piggyback on the contact handshake.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Digest {
    /// Protocol exchanges no metadata (Epidemic, SnW, baselines).
    #[default]
    None,
    /// PRoPHET delivery predictabilities: `P(owner, dest)` pairs.
    Prophet {
        /// The digest owner's delivery-predictability vector.
        probs: Vec<(NodeId, f64)>,
    },
    /// MaxProp meeting-probability vector plus delivery acknowledgements.
    MaxProp {
        /// Owner's normalised meeting probabilities.
        probs: Vec<(NodeId, f64)>,
        /// Ids of messages known to be delivered (flooded acks), shared
        /// with the owner's set as it was when the digest was taken.
        acks: AckSet,
    },
}

/// A DTN routing protocol instance, one per node.
///
/// The routing methods are infallible; failures are expressed in the outcome
/// types so the engine can do uniform metric accounting across protocols.
/// Only [`Router::restore_state`], which reads a snapshot, can fail.
///
/// Every method that reads or removes buffered copies receives the world's
/// message table, `metas` (one [`MsgMeta`] per message, indexed by id):
/// buffers store only ids and per-copy fields.
pub trait Router: Send {
    /// A message was created at this node (it is the source). The router
    /// stamps protocol state (e.g. spray quota) and stores it.
    fn on_message_created(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        msg: Message,
        now: SimTime,
        rng: &mut SimRng,
    ) -> CreateOutcome;

    /// Metadata to hand to a newly met peer. Called once per contact per
    /// side. Takes `&mut self` so protocols can memoise the assembled
    /// vectors behind a state-generation check (PRoPHET).
    fn digest(&mut self, _own: &NodeState, _now: SimTime) -> Digest {
        Digest::None
    }

    /// A contact to `peer` just came up; `peer_digest` is the peer's
    /// metadata. Returns messages *removed* from the buffer as a consequence
    /// (MaxProp deletes acknowledged messages here).
    fn on_contact_up(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        peer: NodeId,
        peer_digest: &Digest,
        now: SimTime,
    ) -> Vec<Message>;

    /// The contact to `peer` ended; `bytes_sent` is the payload volume this
    /// node transmitted during the contact (MaxProp adapts its hop-count
    /// threshold from this).
    fn on_contact_down(
        &mut self,
        _own: &mut NodeState,
        _peer: NodeId,
        _bytes_sent: u64,
        _now: SimTime,
    ) {
    }

    /// Choose the next message to send to `peer` over an idle connection.
    ///
    /// `offers` tracks the messages already attempted during this contact
    /// (the engine keeps it to mirror ONE's per-contact retry suppression):
    /// [`OfferView::is_offered`] ids must not be offered again, and
    /// policy-driven routers scan through [`OfferView::scan_index`], which
    /// skips them. `rng` is this node's lane; only
    /// [`vdtn_bundle::SchedulingPolicy::Random`] draws from it here, once
    /// per round that accepts a candidate, so a `None` round draws nothing
    /// and the engine may skip re-asking under an unchanged
    /// [`crate::offers::SilenceKey`]. Return `None` to stay silent this
    /// round.
    #[allow(clippy::too_many_arguments)]
    fn next_transfer(
        &mut self,
        own: &NodeState,
        metas: &[MsgMeta],
        peer: &NodeState,
        peer_router: &dyn Router,
        offers: &mut OfferView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<MessageId>;

    /// A transfer carrying `msg` (snapshot taken at send time) completed at
    /// this node. The router decides delivery/storage/rejection and performs
    /// any evictions its drop policy dictates.
    fn on_message_received(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        msg: &Message,
        from: NodeId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> ReceiveOutcome;

    /// An outgoing transfer of `msg_id` to `to` completed. `delivered` is
    /// true when `to` was the final destination (the paper's rule: the
    /// sender then discards its copy — implemented per protocol).
    fn on_transfer_success(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        msg_id: MessageId,
        to: NodeId,
        delivered: bool,
        now: SimTime,
    );

    /// Protocol's delivery preference for `dest` at time `now`, higher =
    /// better (PRoPHET: aged predictability; MaxProp: negated path cost;
    /// Spray and Focus: negated seconds since it last met `dest`). `None`
    /// for protocols without such a metric.
    fn delivery_metric(&self, dest: NodeId, now: SimTime) -> Option<f64>;

    /// Monotone counter over protocol state that can change a
    /// [`Router::next_transfer`] *eligibility* verdict — encounter tables,
    /// ack sets, meeting probabilities. Together with the two buffers'
    /// generations and the peer's delivered-count it forms the engine's
    /// [`crate::offers::SilenceKey`]: between bumps, eligibility can only
    /// shrink (messages expire, peers learn messages, spray quotas halve)
    /// and the protocols' metric *comparisons* are invariant under pure
    /// time shift (PRoPHET ages both sides by the same factor, recency
    /// utilities shift by the same offset), so a `None` round stays `None`.
    /// Stateless protocols return `0`.
    fn routing_generation(&self) -> u64;

    /// Capture this protocol's *semantic* state — everything that
    /// influences future routing decisions — for checkpointing and, through
    /// the world snapshot, the canonical state hash. The counterpart of
    /// [`Router::restore_state`]. Memoisation caches (MaxProp's
    /// threshold cache) and within-run generation counters are excluded:
    /// they rebuild lazily after restore and never change a decision.
    /// Protocols without such state return [`RouterSnapshot::Stateless`].
    fn snapshot_state(&self) -> RouterSnapshot;

    /// Re-install state captured by [`Router::snapshot_state`] on a freshly
    /// built router of the same kind. Fails with a one-line reason when the
    /// snapshot's kind or node count disagrees with this router — a
    /// snapshot whose payload does not belong to its embedded scenario.
    fn restore_state(&mut self, snap: RouterSnapshot) -> Result<(), String>;
}

/// The error of a [`Router::restore_state`] given another router's state.
pub(crate) const SNAPSHOT_MISMATCH: &str =
    "router snapshot does not match the scenario's router or node count";

/// Serializable semantic state of one router, for checkpointing.
///
/// Only *decision-relevant* state appears here; memoisation caches and
/// within-run generation counters are deliberately absent (they rebuild
/// lazily after restore, degrading only to rescans, never to different
/// decisions). Configuration is also absent: restore re-creates the router
/// from the scenario's [`RouterKind`] first, then installs this on top.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RouterSnapshot {
    /// Protocol carries no per-node semantic state beyond configuration
    /// (Epidemic, Spray and Wait, Direct Delivery, First Contact).
    Stateless,
    /// PRoPHET: delivery predictability `(p, last_update)` per peer id.
    Prophet {
        /// Dense table indexed by peer id.
        table: Vec<(f64, SimTime)>,
    },
    /// MaxProp: meeting probabilities, peers' reported vectors, flooded
    /// acks, Dijkstra path costs, and the adaptive-threshold inputs.
    MaxProp {
        /// Own normalised meeting probabilities, dense by peer id.
        probs: Vec<f64>,
        /// Peers' probability vectors learned from digests, sorted by peer.
        known: Vec<(u32, Vec<f64>)>,
        /// Delivered-message acks, sorted by id.
        acks: Vec<MessageId>,
        /// Cached per-destination path costs, dense by peer id.
        costs: Vec<f64>,
        /// Running mean of bytes moved per closed contact.
        avg_contact_bytes: f64,
        /// Closed contacts folded into the running mean.
        contacts_closed: u64,
    },
    /// Spray and Focus: last-encounter timestamp per peer id.
    SprayFocus {
        /// `last_met[peer]` — time this node last met `peer`.
        last_met: Vec<Option<SimTime>>,
    },
}

/// Serializable protocol selector + parameters; the factory for [`Router`]
/// instances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RouterKind {
    /// Flooding.
    Epidemic,
    /// Binary Spray and Wait with `copies` initial replicas (paper: 12).
    SprayAndWait {
        /// Initial spray quota `L`.
        copies: u32,
        /// Binary halving (paper) vs. source spray.
        binary: bool,
    },
    /// PRoPHET with GRTRMax forwarding.
    Prophet(ProphetConfig),
    /// MaxProp.
    MaxProp(MaxPropConfig),
    /// Direct delivery (source holds until it meets the destination).
    DirectDelivery,
    /// First contact (single copy hops to the first node met).
    FirstContact,
    /// Spray and Focus: binary spray, then utility-based single-copy
    /// forwarding instead of waiting (extension protocol).
    SprayAndFocus {
        /// Initial spray quota `L`.
        copies: u32,
    },
}

impl RouterKind {
    /// Instantiate a router for node `own`.
    ///
    /// `policy` applies to protocols without native scheduling/dropping
    /// (every [`PolicyRouter`]); PRoPHET and MaxProp ignore it, exactly as
    /// in the paper. Panics on a zero spray quota.
    pub fn build(&self, own: NodeId, n_nodes: usize, policy: PolicyCombo) -> Box<dyn Router> {
        let rule = match *self {
            RouterKind::Prophet(cfg) => return Box::new(ProphetRouter::new(own, n_nodes, cfg)),
            RouterKind::MaxProp(cfg) => return Box::new(MaxPropRouter::new(own, n_nodes, cfg)),
            RouterKind::Epidemic => Replication::Flood,
            RouterKind::SprayAndWait { copies, binary } => Replication::Spray {
                initial: copies,
                binary,
            },
            RouterKind::DirectDelivery => Replication::Direct,
            RouterKind::FirstContact => Replication::FirstContact,
            RouterKind::SprayAndFocus { copies } => Replication::Focus {
                initial: copies,
                last_met: vec![None; n_nodes],
                met_gen: 0,
            },
        };
        Box::new(PolicyRouter::new(policy, rule))
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            RouterKind::Epidemic => "Epidemic",
            RouterKind::SprayAndWait { .. } => "Spray and Wait",
            RouterKind::Prophet(_) => "PRoPHET",
            RouterKind::MaxProp(_) => "MaxProp",
            RouterKind::DirectDelivery => "Direct Delivery",
            RouterKind::FirstContact => "First Contact",
            RouterKind::SprayAndFocus { .. } => "Spray and Focus",
        }
    }

    /// The paper's Spray-and-Wait configuration (binary, L = 12).
    pub fn paper_snw() -> RouterKind {
        RouterKind::SprayAndWait {
            copies: 12,
            binary: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        let kinds = [
            RouterKind::Epidemic,
            RouterKind::paper_snw(),
            RouterKind::Prophet(ProphetConfig::default()),
            RouterKind::MaxProp(MaxPropConfig::default()),
            RouterKind::DirectDelivery,
            RouterKind::FirstContact,
            RouterKind::SprayAndFocus { copies: 8 },
        ];
        for kind in &kinds {
            let mut r = kind.build(NodeId(0), 45, PolicyCombo::LIFETIME);
            // A fresh router's state restores into a fresh router of its
            // kind and into no other kind.
            let snap = r.snapshot_state();
            assert_eq!(r.restore_state(snap.clone()), Ok(()), "{kind:?}");
            for other in &kinds {
                let mut o = other.build(NodeId(0), 45, PolicyCombo::LIFETIME);
                let same =
                    std::mem::discriminant(&o.snapshot_state()) == std::mem::discriminant(&snap);
                assert_eq!(o.restore_state(snap.clone()).is_ok(), same, "{other:?}");
            }
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(RouterKind::Epidemic.label(), "Epidemic");
        assert_eq!(RouterKind::paper_snw().label(), "Spray and Wait");
        assert_eq!(
            RouterKind::Prophet(ProphetConfig::default()).label(),
            "PRoPHET"
        );
        assert_eq!(
            RouterKind::MaxProp(MaxPropConfig::default()).label(),
            "MaxProp"
        );
    }

    #[test]
    fn kind_serde_round_trip() {
        let kind = RouterKind::paper_snw();
        let json = serde_json_like(&kind);
        assert!(json.contains("SprayAndWait"));
    }

    /// Minimal serde smoke check without pulling serde_json into this crate:
    /// use the Debug representation as a proxy that derive compiled.
    fn serde_json_like(kind: &RouterKind) -> String {
        format!("{kind:?}")
    }
}
