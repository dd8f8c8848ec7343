//! Opportunistic link layer.
//!
//! Reproduces the network model of the paper's ONE-simulator setup:
//!
//! * **Radio** ([`RadioInterface`]): IEEE 802.11b abstracted as a disc model
//!   — two nodes are connected whenever their distance is at most the range
//!   (30 m in the paper), with a fixed link rate (6 Mbit/s = 750 000 B/s).
//! * **Contact detection** ([`ContactDetector`]): per-tick diffing of the
//!   in-range pair set into link-up / link-down events over a spatial grid
//!   (tested against the naive O(n²) scan), plus the kinematic
//!   slack-deadline path the event engine uses.
//! * **Connections and transfers** ([`LinkTable`], [`Transfer`]): one
//!   message in flight per connection, one transfer per node at a time
//!   (half-duplex radio, as ONE models it); a transfer is an immutable
//!   `{msg, from, to, rate, started}` record that completes at exactly
//!   `started + size/rate` ([`Transfer::completion_time`]) and settles
//!   partial bytes analytically if the contact breaks first.
//! * **Contact tracing** ([`ContactTrace`]): per-pair contact counts,
//!   durations and inter-contact times for the statistics reports.
//!
//! # Example
//!
//! ```
//! use vdtn_geo::Point;
//! use vdtn_net::{ContactDetector, LinkEvent, RadioInterface};
//! use vdtn_sim_core::NodeId;
//!
//! let mut detector = ContactDetector::new(RadioInterface::paper_80211b());
//! // Two nodes 20 m apart: inside the paper's 30 m radio range.
//! let events = detector.update(&[Point::new(0.0, 0.0), Point::new(20.0, 0.0)]);
//! assert_eq!(events, vec![LinkEvent::Up(NodeId(0), NodeId(1))]);
//! // One drives away: the same pair reports a link-down.
//! let events = detector.update(&[Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
//! assert_eq!(events, vec![LinkEvent::Down(NodeId(0), NodeId(1))]);
//! ```

pub mod contact;
pub mod interface;
pub mod link;
pub mod trace;

pub use contact::{pair_key, ContactDetector, LinkEvent};
pub use interface::RadioInterface;
pub use link::{LinkError, LinkTable, Transfer, TransferOutcome};
pub use trace::ContactTrace;
