//! The simulated network core.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::stats::NodeStats;

/// Identifier of a node attached to the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Per-link behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// One-way latency in microseconds.
    pub latency_us: u64,
    /// Drop every n-th packet (0 = no loss).  Deterministic loss keeps the
    /// whole simulation reproducible.
    pub drop_every: u64,
    /// Link bandwidth in bytes per second (0 = infinite bandwidth: packets
    /// pay no serialisation delay).  Large payloads — blob batches, snapshot
    /// section streams — therefore cost wall time proportional to their
    /// size ([`LinkConfig::serialise_micros`]), so a lossless
    /// request/response exchange takes two one-way latencies plus the
    /// serialisation of both packets.
    pub bytes_per_sec: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // A switched LAN: ~96 µs one-way latency and 1 Gbit/s, mirroring the
        // paper's testbed where a bare-hardware ping RTT is 192 µs (§6.8)
        // on a 1 Gbps switch (§6.7).
        LinkConfig {
            latency_us: 96,
            drop_every: 0,
            bytes_per_sec: LinkConfig::LAN_BYTES_PER_SEC,
        }
    }
}

impl LinkConfig {
    /// 1 Gbit/s in bytes per second — the paper's switched LAN (§6.7).
    pub const LAN_BYTES_PER_SEC: u64 = 125_000_000;

    /// A 2010-era consumer WAN, the paper's evaluation setting: 50 ms round
    /// trip, 10 Mbit/s, no loss.  `avm_core::spotcheck`'s checks run over
    /// it.
    pub const WAN: LinkConfig = LinkConfig {
        latency_us: 25_000,
        drop_every: 0,
        bytes_per_sec: 1_250_000,
    };

    /// Serialisation delay, in microseconds, for a packet of `bytes` bytes
    /// on this link: `bytes × 1 000 000 / bytes_per_sec`, rounded down.
    pub fn serialise_micros(&self, bytes: usize) -> u64 {
        if self.bytes_per_sec == 0 {
            return 0;
        }
        (bytes as u64).saturating_mul(1_000_000) / self.bytes_per_sec
    }
}

/// A packet delivered to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Simulated time (µs) at which the packet arrives.
    pub deliver_at: u64,
    /// Simulated time (µs) at which the packet was sent.
    pub sent_at: u64,
}

/// In-flight packet ordered by delivery time (then by a tie-breaking counter
/// so FIFO order is preserved between equal timestamps).
#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlight {
    deliver_at: u64,
    order: u64,
    delivery: Delivery,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.order).cmp(&(other.deliver_at, other.order))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated network.
#[derive(Debug, Default)]
pub struct SimNet {
    now_us: u64,
    default_link: LinkConfig,
    links: HashMap<(NodeId, NodeId), LinkConfig>,
    in_flight: BinaryHeap<Reverse<InFlight>>,
    send_counter: u64,
    per_link_sent: HashMap<(NodeId, NodeId), u64>,
    /// Per directed link: simulated time at which the transmitter finishes
    /// serialising the last packet handed to it.  A later packet on the same
    /// link starts transmitting only after this (finite-bandwidth links
    /// serialise packets back to back, they do not overlap).
    link_busy_until: HashMap<(NodeId, NodeId), u64>,
    stats: HashMap<NodeId, NodeStats>,
}

impl SimNet {
    /// Creates a network where every pair of nodes uses `default_link`.
    pub fn new(default_link: LinkConfig) -> SimNet {
        SimNet {
            default_link,
            ..SimNet::default()
        }
    }

    /// Creates a network with LAN-like defaults.
    pub fn lan() -> SimNet {
        SimNet::new(LinkConfig::default())
    }

    /// Current simulated time in microseconds.
    pub fn now(&self) -> u64 {
        self.now_us
    }

    /// Overrides the link configuration for the directed pair `(from, to)`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) {
        self.links.insert((from, to), config);
    }

    fn link(&self, from: NodeId, to: NodeId) -> LinkConfig {
        self.links
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Sends `payload` from `from` to `to` at the current simulated time.
    ///
    /// The packet arrives after its serialisation delay (payload size over
    /// the link bandwidth, queued behind packets still being transmitted on
    /// the same directed link) plus the link's one-way latency.
    ///
    /// Returns the delivery time if the packet was accepted, or `None` if the
    /// link's deterministic loss model dropped it.  A dropped packet still
    /// occupies the transmitter — it is lost downstream, not never sent.
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>) -> Option<u64> {
        let link = self.link(from, to);
        let sent = self.per_link_sent.entry((from, to)).or_insert(0);
        *sent += 1;
        let tx = self.stats.entry(from).or_default();
        tx.tx_packets += 1;
        tx.tx_bytes += payload.len() as u64;
        let busy = self.link_busy_until.entry((from, to)).or_insert(0);
        let tx_start = self.now_us.max(*busy);
        let tx_done = tx_start + link.serialise_micros(payload.len());
        *busy = tx_done;
        if link.drop_every != 0 && (*sent).is_multiple_of(link.drop_every) {
            self.stats.entry(from).or_default().dropped += 1;
            return None;
        }
        let deliver_at = tx_done + link.latency_us;
        self.send_counter += 1;
        self.in_flight.push(Reverse(InFlight {
            deliver_at,
            order: self.send_counter,
            delivery: Delivery {
                from,
                to,
                payload,
                deliver_at,
                sent_at: self.now_us,
            },
        }));
        Some(deliver_at)
    }

    /// Advances simulated time to `time_us` and returns every delivery that
    /// became due, in delivery order.
    ///
    /// Time never moves backwards; passing an earlier time only collects
    /// packets already due.
    pub fn advance_to(&mut self, time_us: u64) -> Vec<Delivery> {
        if time_us > self.now_us {
            self.now_us = time_us;
        }
        let mut due = Vec::new();
        while let Some(Reverse(top)) = self.in_flight.peek() {
            if top.deliver_at > self.now_us {
                break;
            }
            let Reverse(pkt) = self.in_flight.pop().expect("peeked");
            let rx = self.stats.entry(pkt.delivery.to).or_default();
            rx.rx_packets += 1;
            rx.rx_bytes += pkt.delivery.payload.len() as u64;
            due.push(pkt.delivery);
        }
        due
    }

    /// Time of the next pending delivery, if any.
    pub fn next_delivery_at(&self) -> Option<u64> {
        self.in_flight.peek().map(|Reverse(p)| p.deliver_at)
    }

    /// Number of packets currently in flight.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Traffic statistics for `node`.
    pub fn stats(&self, node: NodeId) -> NodeStats {
        self.stats.get(&node).copied().unwrap_or_default()
    }

    /// Traffic statistics for every node that has sent or received.
    pub fn all_stats(&self) -> Vec<(NodeId, NodeStats)> {
        let mut v: Vec<_> = self.stats.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);
    const C: NodeId = NodeId(3);

    #[test]
    fn packet_arrives_after_link_latency() {
        let mut net = SimNet::new(LinkConfig {
            latency_us: 100,
            drop_every: 0,
            ..LinkConfig::default()
        });
        let at = net.send(A, B, b"ping".to_vec()).unwrap();
        assert_eq!(at, 100);
        assert!(net.advance_to(99).is_empty());
        let due = net.advance_to(100);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].from, A);
        assert_eq!(due[0].to, B);
        assert_eq!(due[0].payload, b"ping");
        assert_eq!(due[0].sent_at, 0);
        assert_eq!(net.in_flight_count(), 0);
    }

    #[test]
    fn deliveries_are_ordered_and_fifo_for_ties() {
        let mut net = SimNet::new(LinkConfig {
            latency_us: 10,
            drop_every: 0,
            ..LinkConfig::default()
        });
        net.send(A, B, vec![1]).unwrap();
        net.send(A, B, vec![2]).unwrap();
        net.send(A, B, vec![3]).unwrap();
        let due = net.advance_to(50);
        let payloads: Vec<u8> = due.iter().map(|d| d.payload[0]).collect();
        assert_eq!(payloads, vec![1, 2, 3]);
    }

    #[test]
    fn per_link_latency_override() {
        let mut net = SimNet::lan();
        net.set_link(
            A,
            C,
            LinkConfig {
                latency_us: 5000,
                drop_every: 0,
                ..LinkConfig::default()
            },
        );
        let t_ab = net.send(A, B, vec![0]).unwrap();
        let t_ac = net.send(A, C, vec![0]).unwrap();
        assert_eq!(t_ab, 96);
        assert_eq!(t_ac, 5000);
    }

    #[test]
    fn deterministic_loss_drops_every_nth() {
        let mut net = SimNet::new(LinkConfig {
            latency_us: 1,
            drop_every: 3,
            ..LinkConfig::default()
        });
        let mut accepted = 0;
        for _ in 0..9 {
            if net.send(A, B, vec![0]).is_some() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 6);
        assert_eq!(net.stats(A).dropped, 3);
        assert_eq!(net.stats(A).tx_packets, 9);
        let due = net.advance_to(10);
        assert_eq!(due.len(), 6);
        assert_eq!(net.stats(B).rx_packets, 6);
    }

    #[test]
    fn time_never_goes_backwards() {
        let mut net = SimNet::lan();
        net.advance_to(1000);
        assert_eq!(net.now(), 1000);
        net.advance_to(500);
        assert_eq!(net.now(), 1000);
        // A packet sent now is delivered relative to the later time.
        let at = net.send(A, B, vec![1]).unwrap();
        assert_eq!(at, 1096);
    }

    #[test]
    fn stats_account_bytes_both_directions() {
        let mut net = SimNet::lan();
        net.send(A, B, vec![0u8; 60]).unwrap();
        net.send(B, A, vec![0u8; 1400]).unwrap();
        net.advance_to(10_000);
        assert_eq!(net.stats(A).tx_bytes, 60);
        assert_eq!(net.stats(A).rx_bytes, 1400);
        assert_eq!(net.stats(B).tx_bytes, 1400);
        assert_eq!(net.stats(B).rx_bytes, 60);
        assert_eq!(net.all_stats().len(), 2);
        assert_eq!(net.stats(NodeId(99)), NodeStats::default());
    }

    #[test]
    fn next_delivery_time_exposed() {
        let mut net = SimNet::new(LinkConfig {
            latency_us: 42,
            drop_every: 0,
            ..LinkConfig::default()
        });
        assert_eq!(net.next_delivery_at(), None);
        net.send(A, B, vec![1]).unwrap();
        assert_eq!(net.next_delivery_at(), Some(42));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(4).to_string(), "node4");
    }

    #[test]
    fn serialisation_delay_charged_at_link_bandwidth() {
        // 1 byte per µs makes the arithmetic visible.
        let link = LinkConfig {
            latency_us: 100,
            drop_every: 0,
            bytes_per_sec: 1_000_000,
        };
        assert_eq!(link.serialise_micros(0), 0);
        assert_eq!(link.serialise_micros(500), 500);
        let mut net = SimNet::new(link);
        let at = net.send(A, B, vec![0u8; 500]).unwrap();
        assert_eq!(at, 600, "500 µs serialisation + 100 µs latency");
        // Infinite bandwidth: latency only.
        let infinite = LinkConfig {
            bytes_per_sec: 0,
            ..link
        };
        assert_eq!(infinite.serialise_micros(usize::MAX), 0);
        let mut net = SimNet::new(infinite);
        assert_eq!(net.send(A, B, vec![0u8; 500]).unwrap(), 100);
    }

    #[test]
    fn back_to_back_packets_queue_behind_the_transmitter() {
        let link = LinkConfig {
            latency_us: 10,
            drop_every: 0,
            bytes_per_sec: 1_000_000, // 1 byte/µs
        };
        let mut net = SimNet::new(link);
        // Two 100-byte packets handed to the link at t=0: the second starts
        // serialising only after the first finishes.
        assert_eq!(net.send(A, B, vec![0u8; 100]).unwrap(), 110);
        assert_eq!(net.send(A, B, vec![0u8; 100]).unwrap(), 210);
        // The reverse direction has its own transmitter.
        assert_eq!(net.send(B, A, vec![0u8; 100]).unwrap(), 110);
        // A dropped packet still occupies the transmitter: with drop_every=1
        // on a fresh link, a drop followed by an accepted packet queues it.
        let mut net = SimNet::new(link);
        net.set_link(
            A,
            C,
            LinkConfig {
                drop_every: 2,
                ..link
            },
        );
        assert_eq!(net.send(A, C, vec![0u8; 100]).unwrap(), 110);
        assert!(net.send(A, C, vec![0u8; 100]).is_none()); // dropped, tx busy until 200
        assert_eq!(net.send(A, C, vec![0u8; 100]).unwrap(), 310);
    }

    /// A lossless request/response exchange costs exactly two one-way
    /// latencies plus each packet's serialisation delay, on the LAN and on
    /// the WAN spot checks run over — the price the audit transports'
    /// measured latencies are made of.
    #[test]
    fn lossless_exchange_prices_identically_under_link_and_model() {
        let (req_len, resp_len) = (1_037usize, 16_411usize);
        for link in [LinkConfig::default(), LinkConfig::WAN] {
            let mut net = SimNet::new(link);
            let t0 = net.now();
            let at_server = net.send(A, B, vec![0u8; req_len]).unwrap();
            net.advance_to(at_server);
            let at_client = net.send(B, A, vec![0u8; resp_len]).unwrap();
            net.advance_to(at_client);
            let priced = 2 * link.latency_us
                + link.serialise_micros(req_len)
                + link.serialise_micros(resp_len);
            assert_eq!(net.now() - t0, priced);
        }
        // The paper's bare-hardware ping RTT (§6.8) and the WAN's 50 ms.
        assert_eq!(2 * LinkConfig::default().latency_us, 192);
        assert_eq!(2 * LinkConfig::WAN.latency_us, 50_000);
    }

    /// Deterministic loss interacts with per-link counters, not global ones:
    /// each directed link drops its own every-nth packet, reproducibly.
    #[test]
    fn deterministic_loss_is_per_directed_link_and_reproducible() {
        let run = || {
            let mut net = SimNet::new(LinkConfig {
                latency_us: 1,
                drop_every: 4,
                ..LinkConfig::default()
            });
            let mut outcomes = Vec::new();
            for i in 0..12 {
                // Interleave directions; each keeps its own drop cadence.
                if i % 2 == 0 {
                    outcomes.push(net.send(A, B, vec![i]).is_some());
                } else {
                    outcomes.push(net.send(B, A, vec![i]).is_some());
                }
            }
            (outcomes, net.stats(A).dropped, net.stats(B).dropped)
        };
        let (outcomes, dropped_a, dropped_b) = run();
        // 6 packets per direction, every 4th dropped => exactly 1 drop each.
        assert_eq!(dropped_a, 1);
        assert_eq!(dropped_b, 1);
        assert_eq!(outcomes.iter().filter(|ok| !**ok).count(), 2);
        // Bit-identical on a second run: the loss model is deterministic.
        assert_eq!(run(), (outcomes, dropped_a, dropped_b));
    }

    /// Byte/packet accounting: tx counts every handed-over packet (dropped
    /// included), rx counts only delivered ones, and bytes follow suit.
    #[test]
    fn stats_account_drops_against_tx_only() {
        let mut net = SimNet::new(LinkConfig {
            latency_us: 1,
            drop_every: 2,
            ..LinkConfig::default()
        });
        for _ in 0..6 {
            net.send(A, B, vec![0u8; 10]);
        }
        net.advance_to(1_000);
        let a = net.stats(A);
        let b = net.stats(B);
        assert_eq!(a.tx_packets, 6);
        assert_eq!(a.tx_bytes, 60);
        assert_eq!(a.dropped, 3);
        assert_eq!(b.rx_packets, 3);
        assert_eq!(b.rx_bytes, 30);
        assert_eq!(b.tx_packets, 0);
    }
}
