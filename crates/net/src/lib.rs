//! # afta-net — distributed fault-notification bus and voting farm
//!
//! The paper's §3.2 fault-notification middleware and §3.3 Voting Farm
//! are explicitly *distributed* mechanisms: the restoring organ spans
//! nodes, and the notification bus carries fault reports between them
//! (the lineage De Florio cites is REL, *"A Fault Tolerance Linguistic
//! Structure for Distributed Applications"*).  Every other `afta` crate
//! runs in one process; this crate adds the transport layer that lets
//! the same component graph span unreliable links — and tolerate the
//! links themselves failing.
//!
//! The design splits into four layers:
//!
//! * [`Transport`] — a node-addressed datagram abstraction with two
//!   interchangeable backends: [`sim::SimNetwork`], a deterministic
//!   in-process network whose drop/duplicate/delay/partition faults are
//!   seeded through `afta-faultinject` profiles, and [`tcp::TcpTransport`],
//!   a real `std::net` backend with length-prefixed framing, heartbeats,
//!   bounded send queues with backpressure, and jittered-exponential
//!   reconnect.
//! * [`bus::RemoteBus`] — bridges typed `afta-eventbus` topics across
//!   nodes, preserving the late-joiner retained-event sync.
//! * [`farm::DistributedVotingFarm`] — the §3.3 restoring organ over
//!   remote voters, with graceful degradation: a peer that times out
//!   counts against the quorum exactly as a faulty one does, so the
//!   alpha-count / switchboard adaptation loop re-dimensions redundancy
//!   for crashed and partitioned replicas alike.
//! * [`experiment`] — the E7 differential harness proving that a seeded
//!   run produces identical vote outcomes on [`sim::SimNetwork`] and on
//!   loopback TCP.
//!
//! ```
//! use afta_net::sim::SimNetwork;
//! use afta_net::{NodeId, Transport};
//! use std::time::Duration;
//!
//! let net = SimNetwork::new(42);
//! let a = net.endpoint(NodeId(1));
//! let b = net.endpoint(NodeId(2));
//! a.send(NodeId(2), b"fault detected".to_vec()).unwrap();
//! let envelope = b.recv_deadline(Duration::from_millis(100)).unwrap();
//! assert_eq!(envelope.from, NodeId(1));
//! assert_eq!(envelope.payload, b"fault detected");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bus;
pub mod experiment;
pub mod farm;
pub mod sim;
pub mod tcp;

pub use bus::RemoteBus;
pub use experiment::{
    run_net_campaign, run_net_experiment, NetExperimentConfig, NetExperimentReport, TransportKind,
};
pub use farm::{run_voter, DistributedVotingFarm, FarmConfig, NetRoundReport};
pub use sim::{LinkProfile, SimNetwork, SimTransport};
pub use tcp::{TcpConfig, TcpTransport};

use std::fmt;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Identifies one node of the distributed system.
///
/// Node ids are small integers assigned by the deployment (the paper's
/// "identifiers of the employed resources"); they are stable across
/// reconnects, unlike socket addresses.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A received message: who sent it and its raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The sending node.
    pub from: NodeId,
    /// The opaque payload (typically a serialised [`Wire`] message).
    pub payload: Vec<u8>,
}

/// Errors surfaced by a [`Transport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No message arrived before the deadline.
    Timeout,
    /// The peer's bounded send queue stayed full past the backpressure
    /// deadline — the sender is outrunning the link.
    Backpressure {
        /// The congested peer.
        peer: NodeId,
    },
    /// The destination node is not known to this transport.
    UnknownPeer(NodeId),
    /// The transport has been shut down.
    Closed,
    /// An I/O error from the underlying socket, rendered.
    Io(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Timeout => write!(f, "deadline passed with no message"),
            NetError::Backpressure { peer } => {
                write!(f, "send queue to {peer} full (backpressure)")
            }
            NetError::UnknownPeer(peer) => write!(f, "unknown peer {peer}"),
            NetError::Closed => write!(f, "transport closed"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A node-addressed, unreliable, unordered-between-links datagram
/// transport.
///
/// Both backends give the same contract: [`Transport::send`] enqueues a
/// payload for one peer and may silently lose it (that is the point —
/// the layers above must tolerate the channel failing); messages from
/// one sender arrive in send order unless the backend's fault plan
/// reorders them; [`Transport::recv_deadline`] blocks for at most the
/// given timeout.
pub trait Transport: Send + Sync {
    /// This endpoint's node id.
    fn local(&self) -> NodeId;

    /// Enqueues `payload` for delivery to `to`.
    ///
    /// A successful return means *accepted*, not *delivered* — the
    /// message may still be dropped by the network.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownPeer`] for an unregistered destination,
    /// [`NetError::Backpressure`] when the peer's bounded send queue
    /// stays full past the configured deadline, and [`NetError::Closed`]
    /// after shutdown.
    fn send(&self, to: NodeId, payload: Vec<u8>) -> Result<(), NetError>;

    /// Receives the next message, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] when nothing arrived in time and
    /// [`NetError::Closed`] after shutdown.
    fn recv_deadline(&self, timeout: Duration) -> Result<Envelope, NetError>;

    /// The peers this endpoint can address.
    fn peers(&self) -> Vec<NodeId>;
}

/// The application-level message vocabulary carried over a [`Transport`]
/// (serialised as JSON).  [`bus::RemoteBus`] speaks the `Event`/`Sync*`
/// verbs; [`farm::DistributedVotingFarm`] speaks the `Vote*` verbs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Wire {
    /// A bridged event published on a named topic.
    Event {
        /// The bridged topic name.
        topic: String,
        /// The event, serialised.
        json: String,
    },
    /// A late joiner asking a peer for the retained event of a topic.
    SyncRequest {
        /// The topic to sync.
        topic: String,
    },
    /// The retained event of a topic (or `None` when nothing was
    /// published yet), answering a [`Wire::SyncRequest`].
    SyncReply {
        /// The topic synced.
        topic: String,
        /// The retained event, serialised, if any.
        json: Option<String>,
    },
    /// The coordinator asking a voter to run its replica of the method.
    VoteRequest {
        /// Monotone round number.
        round: u64,
        /// The method input, serialised.
        input: String,
    },
    /// A voter's ballot for one round.
    VoteReply {
        /// The round being answered.
        round: u64,
        /// The replica's output, serialised.
        vote: String,
    },
}

impl Wire {
    /// Serialises the message to its JSON wire bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("wire messages serialise")
            .into_bytes()
    }

    /// Parses wire bytes back into a message.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<Wire, serde_json::Error> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| serde_json::Error::custom(format!("non-utf8 wire payload: {e}")))?;
        serde_json::from_str(text)
    }
}

// ---------------------------------------------------------------------------
// Shared inbox (used by both backends)
// ---------------------------------------------------------------------------

/// A blocking MPSC inbox with deadline-bounded receive, shared by both
/// transport backends.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    queue: Mutex<std::collections::VecDeque<Envelope>>,
    ready: Condvar,
}

impl Inbox {
    pub(crate) fn push(&self, envelope: Envelope) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(envelope);
        self.ready.notify_one();
    }

    pub(crate) fn pop_deadline(&self, timeout: Duration) -> Result<Envelope, NetError> {
        let deadline = Instant::now() + timeout;
        let mut queue = self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(envelope) = queue.pop_front() {
                return Ok(envelope);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            let (guard, _) = self
                .ready
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue = guard;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

/// Histogram bounds for round-trip times, in nanoseconds (50µs to 1s;
/// above that a reply has almost certainly missed any sane deadline).
pub const RTT_BOUNDS_NS: [u64; 10] = [
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    5_000_000,
    25_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_displays_compactly() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn wire_roundtrips_every_verb() {
        let msgs = vec![
            Wire::Event {
                topic: "faults".into(),
                json: "{\"n\":3}".into(),
            },
            Wire::SyncRequest {
                topic: "faults".into(),
            },
            Wire::SyncReply {
                topic: "faults".into(),
                json: None,
            },
            Wire::SyncReply {
                topic: "faults".into(),
                json: Some("7".into()),
            },
            Wire::VoteRequest {
                round: 9,
                input: "21".into(),
            },
            Wire::VoteReply {
                round: 9,
                vote: "42".into(),
            },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            assert_eq!(Wire::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn wire_decode_rejects_garbage() {
        assert!(Wire::decode(b"{nope").is_err());
        assert!(Wire::decode(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn inbox_pop_times_out() {
        let inbox = Inbox::default();
        let err = inbox.pop_deadline(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn inbox_delivers_fifo_across_threads() {
        let inbox = std::sync::Arc::new(Inbox::default());
        let pusher = inbox.clone();
        let t = std::thread::spawn(move || {
            for i in 0..10u8 {
                pusher.push(Envelope {
                    from: NodeId(1),
                    payload: vec![i],
                });
            }
        });
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(inbox.pop_deadline(Duration::from_secs(1)).unwrap().payload[0]);
        }
        t.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
        assert_eq!(inbox.len(), 0);
    }

    #[test]
    fn net_error_displays() {
        assert!(NetError::Timeout.to_string().contains("deadline"));
        assert!(NetError::Backpressure { peer: NodeId(2) }
            .to_string()
            .contains("n2"));
        assert!(NetError::UnknownPeer(NodeId(9)).to_string().contains("n9"));
        assert!(NetError::Closed.to_string().contains("closed"));
        assert!(NetError::Io("boom".into()).to_string().contains("boom"));
    }
}
