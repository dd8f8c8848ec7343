//! The router-visible node state.

use std::collections::HashSet;
use vdtn_bundle::{Buffer, MessageId};
use vdtn_sim_core::NodeId;

/// Everything about a node that routing logic may read or mutate.
///
/// Positions, radios and movement live in the engine; routers only see the
/// store-and-forward state. Keeping this separate from the router objects is
/// what lets the engine borrow "node A's state, node B's state, and both
/// routers" simultaneously without interior mutability.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// This node's identity.
    pub id: NodeId,
    /// Message store.
    pub buffer: Buffer,
    /// True for stationary relay nodes (they never originate traffic and are
    /// never message destinations in the paper's workload, but store and
    /// forward like any other node).
    pub is_relay: bool,
    /// Messages this node has received as final destination. Consulted by
    /// senders as part of the summary-vector exchange so delivered messages
    /// are not re-offered (mirrors ONE's `DENIED_OLD` handshake).
    pub delivered: HashSet<MessageId>,
}

impl NodeState {
    /// Create a node with an empty buffer of `capacity` bytes.
    pub fn new(id: NodeId, capacity: u64, is_relay: bool) -> Self {
        NodeState {
            id,
            buffer: Buffer::new(capacity),
            is_relay,
            delivered: HashSet::new(),
        }
    }

    /// True if this node has a copy of `id` or has already consumed it as
    /// the destination — i.e. offering it is pointless.
    pub fn knows(&self, id: MessageId) -> bool {
        self.buffer.contains(id) || self.delivered.contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdtn_bundle::Message;
    use vdtn_sim_core::{SimDuration, SimTime};

    #[test]
    fn knows_covers_buffer_and_delivered() {
        let mut s = NodeState::new(NodeId(3), 1_000, false);
        assert!(!s.knows(MessageId(1)));
        s.buffer
            .insert(Message::new(
                MessageId(1),
                NodeId(0),
                NodeId(3),
                10,
                SimTime::ZERO,
                SimDuration::from_mins(1),
            ))
            .unwrap();
        assert!(s.knows(MessageId(1)));
        s.delivered.insert(MessageId(2));
        assert!(s.knows(MessageId(2)));
    }
}
