//! The protocol message vocabulary (§4–§5).
//!
//! Every message the paper names is represented, with an estimated wire
//! size so experiments can report bytes as well as message counts (the
//! paper's unit is messages; bytes are a bonus the summary codec makes
//! cheap to provide).

use p2psim::network::NodeId;
use p2psim::time::SimTime;

/// Serialization rate of the latency plane in wire bytes per second
/// (10 Mbit/s): transit time is propagation + `wire_bytes / bandwidth`.
pub const BANDWIDTH_BYTES_PER_S: u64 = 1_250_000;

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// §4.1: the construction broadcast. Carries the summary peer's id
    /// and a hop counter used to compute client→SP distances.
    SumPeer {
        /// The advertising summary peer.
        sp: NodeId,
        /// Hops travelled so far.
        hops: u32,
        /// Remaining TTL.
        ttl: u32,
    },
    /// §4.1: a peer ships its local summary to become a partner.
    LocalSum {
        /// Encoded summary size in bytes (payload itself lives in the
        /// domain state; experiments only need the size).
        bytes: usize,
    },
    /// §4.1: a partner abandons a farther SP for a closer one.
    Drop,
    /// §4.1: selective-walk probe looking for any summary peer.
    Find,
    /// §4.2.1: freshness flag push (sets `v = 1`, or `v = 2` on leave
    /// under the 2-bit scheme).
    Push {
        /// The pushed freshness value (2-bit encoding).
        value: u8,
    },
    /// §4.2.2: the reconciliation token carrying `NewGS` from partner to
    /// partner.
    ReconciliationToken {
        /// Current encoded size of `NewGS`, growing along the ring.
        bytes: usize,
    },
    /// §4.3: a departing summary peer releases its partners.
    Release,
    /// §5: a query sent to the domain's summary peer or forwarded to a
    /// relevant peer.
    Query {
        /// Workload template index.
        template: usize,
    },
    /// §5: a query answer returned by a data-holding peer.
    QueryHit {
        /// Number of result tuples.
        results: u32,
    },
    /// §5.2.2: inter-domain flooding request sent by the SP to answering
    /// peers and the originator.
    FloodRequest {
        /// Remaining TTL for the inter-domain hop.
        ttl: u32,
    },
}

/// Classes of protocol messages, for cost accounting (§6.1's update vs
/// query traffic decomposition, and Figure 6/7's series). Every message
/// of a run is counted once, under its class, in the kernel's
/// [`crate::peerstate::MessageLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Domain construction: `sumpeer` broadcasts, `localsum`, `drop`, `find`.
    Construction,
    /// Maintenance `push` messages (freshness flags).
    Push,
    /// Reconciliation token hops.
    Reconciliation,
    /// Query messages sent to summary peers / relevant peers.
    Query,
    /// Query responses.
    QueryResponse,
    /// Inter-domain flooding requests.
    Flood,
    /// Departure notifications (`release`).
    Control,
}

impl Message {
    /// The accounting class of this message.
    pub fn class(&self) -> MessageClass {
        match self {
            Message::SumPeer { .. } | Message::LocalSum { .. } | Message::Drop | Message::Find => {
                MessageClass::Construction
            }
            Message::Push { .. } => MessageClass::Push,
            Message::ReconciliationToken { .. } => MessageClass::Reconciliation,
            Message::Release => MessageClass::Control,
            Message::Query { .. } => MessageClass::Query,
            Message::QueryHit { .. } => MessageClass::QueryResponse,
            Message::FloodRequest { .. } => MessageClass::Flood,
        }
    }

    /// Estimated wire size in bytes (headers + payload).
    pub fn wire_bytes(&self) -> usize {
        const HEADER: usize = 40; // ids, type tag, transport overhead
        match self {
            Message::SumPeer { .. } => HEADER + 12,
            Message::LocalSum { bytes } => HEADER + bytes,
            Message::Drop | Message::Find | Message::Release => HEADER,
            Message::Push { .. } => HEADER + 1,
            Message::ReconciliationToken { bytes } => HEADER + bytes,
            Message::Query { .. } => HEADER + 64,
            Message::QueryHit { results } => HEADER + 16 * *results as usize,
            Message::FloodRequest { .. } => HEADER + 68,
        }
    }

    /// One-way transit time of this message over a link with base
    /// (propagation) latency `link`: propagation plus serialization of
    /// the wire bytes at [`BANDWIDTH_BYTES_PER_S`]. Strictly positive —
    /// even a zero-latency link costs at least the serialization of the
    /// header, and a 1 µs floor keeps every delivery event at a positive
    /// virtual-time offset.
    pub fn transit_time(&self, link: SimTime) -> SimTime {
        let ser_us = (self.wire_bytes() as u64 * 1_000_000).div_ceil(BANDWIDTH_BYTES_PER_S);
        SimTime((link.0 + ser_us).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_partition_the_vocabulary() {
        let cases = [
            (
                Message::SumPeer {
                    sp: NodeId(1),
                    hops: 0,
                    ttl: 2,
                },
                MessageClass::Construction,
            ),
            (Message::LocalSum { bytes: 512 }, MessageClass::Construction),
            (Message::Drop, MessageClass::Construction),
            (Message::Find, MessageClass::Construction),
            (Message::Push { value: 1 }, MessageClass::Push),
            (
                Message::ReconciliationToken { bytes: 2048 },
                MessageClass::Reconciliation,
            ),
            (Message::Release, MessageClass::Control),
            (Message::Query { template: 0 }, MessageClass::Query),
            (
                Message::QueryHit { results: 3 },
                MessageClass::QueryResponse,
            ),
            (Message::FloodRequest { ttl: 2 }, MessageClass::Flood),
        ];
        for (msg, class) in cases {
            assert_eq!(msg.class(), class, "{msg:?}");
        }
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = Message::LocalSum { bytes: 100 }.wire_bytes();
        let big = Message::LocalSum { bytes: 10_000 }.wire_bytes();
        assert!(big > small);
        assert_eq!(big - small, 9_900);
        assert!(Message::Drop.wire_bytes() < Message::Query { template: 0 }.wire_bytes());
        let hit0 = Message::QueryHit { results: 0 }.wire_bytes();
        let hit9 = Message::QueryHit { results: 9 }.wire_bytes();
        assert!(hit9 > hit0);
    }

    #[test]
    fn transit_time_is_positive_and_scales() {
        let link = SimTime::from_millis(20);
        // Per-class costing: a fat reconciliation token takes longer
        // than a push over the same link.
        let push = Message::Push { value: 1 }.transit_time(link);
        let token = Message::ReconciliationToken { bytes: 200_000 }.transit_time(link);
        assert!(push >= link, "propagation is a floor");
        assert!(token > push, "serialization shows up per class");

        // Even a zero-latency link yields a strictly positive transit.
        let zero = Message::Drop.transit_time(SimTime::ZERO);
        assert!(zero > SimTime::ZERO);
    }
}
