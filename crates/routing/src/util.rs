//! Shared storage and reception logic used by every protocol. The shared
//! scheduling scan is [`crate::offers::OfferView::scan_index`].

use crate::router::{ReceiveOutcome, RejectReason};
use crate::state::NodeState;
use vdtn_bundle::{DropPolicy, Message, MessageId, MsgMeta};
use vdtn_sim_core::{SimRng, SimTime};

/// Store `msg` in `own.buffer`, evicting victims chosen by `pick_victim`
/// until it fits (their metadata read from the message table `metas`).
/// Returns the evicted messages, or a [`RejectReason`] if the message can
/// never fit / no victim is available.
///
/// `pick_victim` abstracts over the drop policy so MaxProp and PRoPHET can
/// plug their native eviction orders while Epidemic/SnW use [`DropPolicy`].
pub fn make_room_and_store(
    own: &mut NodeState,
    metas: &[MsgMeta],
    msg: Message,
    mut pick_victim: impl FnMut(&NodeState) -> Option<MessageId>,
) -> Result<Vec<Message>, RejectReason> {
    if !own.buffer.could_fit(msg.size) {
        return Err(RejectReason::TooLarge);
    }
    let mut evicted = Vec::new();
    while !own.buffer.fits_now(msg.size) {
        match pick_victim(own) {
            Some(victim) => {
                let dropped = own
                    .buffer
                    .remove(victim, metas)
                    .expect("drop policy must pick stored messages");
                evicted.push(dropped);
            }
            None => {
                // Roll back: failed receptions must not shrink the buffer.
                for m in evicted {
                    own.buffer
                        .insert(m)
                        .expect("reinserting evicted messages cannot fail");
                }
                return Err(RejectReason::NoSpace);
            }
        }
    }
    own.buffer.insert(msg).expect("space was just ensured");
    Ok(evicted)
}

/// The standard reception pipeline shared by every protocol:
/// expiry check → delivery check → duplicate check → store with eviction.
///
/// `pick_victim` supplies the protocol's eviction order.
pub fn standard_receive(
    own: &mut NodeState,
    metas: &[MsgMeta],
    msg: &Message,
    now: SimTime,
    pick_victim: impl FnMut(&NodeState) -> Option<MessageId>,
) -> ReceiveOutcome {
    if msg.is_expired(now) {
        return ReceiveOutcome::Rejected(RejectReason::Expired);
    }
    if msg.dst == own.id {
        let first_time = own.delivered.insert(msg.id);
        return ReceiveOutcome::Delivered { first_time };
    }
    if own.delivered.contains(&msg.id) {
        return ReceiveOutcome::Rejected(RejectReason::AlreadyDelivered);
    }
    if own.buffer.contains(msg.id) {
        return ReceiveOutcome::Rejected(RejectReason::Duplicate);
    }
    match make_room_and_store(own, metas, msg.relayed_copy(now), pick_victim) {
        Ok(evicted) => ReceiveOutcome::Stored { evicted },
        Err(reason) => ReceiveOutcome::Rejected(reason),
    }
}

/// Victim chooser backed by a [`DropPolicy`], never evicting `incoming`
/// (it is not stored yet, but guards against id reuse) and respecting the
/// policy's own ordering.
pub fn policy_victim<'a>(
    policy: DropPolicy,
    metas: &'a [MsgMeta],
    now: SimTime,
    rng: &'a mut SimRng,
) -> impl FnMut(&NodeState) -> Option<MessageId> + 'a {
    move |state: &NodeState| policy.select_victim(&state.buffer, metas, now, rng, |_| false)
}

/// A message table holding each of `msgs` at its id; ids missing from
/// `msgs` hold the first message's record, which no test reads.
#[cfg(test)]
pub(crate) fn table(msgs: &[Message]) -> Vec<MsgMeta> {
    let len = msgs.iter().map(|m| m.id.index() + 1).max().unwrap_or(0);
    let mut metas = vec![MsgMeta::of(&msgs[0]); len];
    for m in msgs {
        metas[m.id.index()] = MsgMeta::of(m);
    }
    metas
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdtn_sim_core::{NodeId, SimDuration};

    fn msg(id: u64, size: u64, ttl_min: u64) -> Message {
        Message::new(
            MessageId(id),
            NodeId(0),
            NodeId(9),
            size,
            SimTime::ZERO,
            SimDuration::from_mins(ttl_min),
        )
    }

    #[test]
    fn stores_when_space_available() {
        let mut s = NodeState::new(NodeId(1), 1_000, false);
        let m = msg(1, 400, 60);
        let evicted = make_room_and_store(&mut s, &table(&[m]), m, |_| None).unwrap();
        assert!(evicted.is_empty());
        assert!(s.buffer.contains(MessageId(1)));
    }

    #[test]
    fn evicts_until_fit() {
        let mut s = NodeState::new(NodeId(1), 1_000, false);
        let msgs = [msg(1, 400, 10), msg(2, 400, 60), msg(3, 600, 60)];
        let metas = table(&msgs);
        s.buffer.insert(msgs[0]).unwrap();
        s.buffer.insert(msgs[1]).unwrap();
        let mut rng = SimRng::seed_from_u64(1);
        let evicted = make_room_and_store(
            &mut s,
            &metas,
            msgs[2],
            policy_victim(DropPolicy::LifetimeAsc, &metas, SimTime::ZERO, &mut rng),
        )
        .unwrap();
        // Message 1 (10 min TTL) goes first; 600 needed, 200 free, one drop
        // frees 400 → enough.
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id, MessageId(1));
        assert!(s.buffer.contains(MessageId(3)));
        assert_eq!(s.buffer.used(), 1_000);
    }

    #[test]
    fn too_large_rejected_without_eviction() {
        let mut s = NodeState::new(NodeId(1), 1_000, false);
        let msgs = [msg(1, 500, 60), msg(2, 1_500, 60)];
        s.buffer.insert(msgs[0]).unwrap();
        let r = make_room_and_store(&mut s, &table(&msgs), msgs[1], |_| {
            panic!("must not consult the drop policy for impossible fits")
        });
        assert_eq!(r.unwrap_err(), RejectReason::TooLarge);
        assert!(s.buffer.contains(MessageId(1)));
    }

    #[test]
    fn no_victim_rolls_back() {
        let mut s = NodeState::new(NodeId(1), 1_000, false);
        let msgs = [msg(1, 600, 60), msg(2, 800, 60)];
        s.buffer.insert(msgs[0]).unwrap();
        let r = make_room_and_store(&mut s, &table(&msgs), msgs[1], |_| None);
        assert_eq!(r.unwrap_err(), RejectReason::NoSpace);
        assert!(s.buffer.contains(MessageId(1)));
        assert_eq!(s.buffer.used(), 600);
    }

    #[test]
    fn standard_receive_delivery_and_duplicates() {
        let mut s = NodeState::new(NodeId(9), 10_000, false);
        let m = msg(5, 100, 60); // dst = NodeId(9)
        let metas = table(&[m]);
        let out = standard_receive(&mut s, &metas, &m, SimTime::ZERO, |_| None);
        assert_eq!(out, ReceiveOutcome::Delivered { first_time: true });
        // Second copy of the same message: delivered but not first time.
        let out = standard_receive(&mut s, &metas, &m, SimTime::ZERO, |_| None);
        assert_eq!(out, ReceiveOutcome::Delivered { first_time: false });
        // Nothing stored at the destination.
        assert!(s.buffer.is_empty());
    }

    #[test]
    fn standard_receive_relay_path() {
        let mut s = NodeState::new(NodeId(3), 10_000, false);
        let m = msg(5, 100, 60);
        let metas = table(&[m]);
        let now = SimTime::from_secs_f64(10.0);
        match standard_receive(&mut s, &metas, &m, now, |_| None) {
            ReceiveOutcome::Stored { evicted } => assert!(evicted.is_empty()),
            other => panic!("expected store, got {other:?}"),
        }
        let stored = s.buffer.get(MessageId(5), &metas).unwrap();
        assert_eq!(stored.hops, 1);
        assert_eq!(stored.received, now);
        // Duplicate re-reception rejected.
        let out = standard_receive(&mut s, &metas, &m, now, |_| None);
        assert_eq!(out, ReceiveOutcome::Rejected(RejectReason::Duplicate));
    }

    #[test]
    fn standard_receive_expired_in_flight() {
        let mut s = NodeState::new(NodeId(3), 10_000, false);
        let m = msg(5, 100, 1); // TTL 1 min
        let out = standard_receive(
            &mut s,
            &table(&[m]),
            &m,
            SimTime::from_secs_f64(61.0),
            |_| None,
        );
        assert_eq!(out, ReceiveOutcome::Rejected(RejectReason::Expired));
    }
}
