//! Deterministic multi-node event loop over one [`SimNet`].
//!
//! The single-client audit transport drives the network from inside one
//! blocking exchange: send, advance, collect.  A fleet cannot work that way
//! — one provider and N auditors all have traffic in flight at once, and
//! each delivery may trigger new sends from a different node.  This module
//! supplies the missing driver: every participant implements [`Endpoint`],
//! and [`run_event_loop`] advances simulated time to the next interesting
//! instant (earliest in-flight delivery or earliest endpoint timer),
//! dispatches the due deliveries to their destination endpoints, and ticks
//! every endpoint so timer-driven work (retransmissions, session starts)
//! happens at exactly the simulated microsecond it is due.
//!
//! Determinism: deliveries are dispatched in the order [`SimNet::advance_to`]
//! returns them, and endpoints are ticked in slice order at each step.  Two
//! runs over the same inputs produce identical traffic, identical timing,
//! and identical reports — which is what lets the fleet benchmark pin its
//! numbers and the property tests compare interleaved against serial runs.

use std::collections::HashMap;

use crate::net::{Delivery, NodeId, SimNet};

/// One simulated participant (a provider node or an auditor).
pub trait Endpoint {
    /// The node this endpoint receives traffic on.
    fn node(&self) -> NodeId;

    /// Handles one delivery addressed to [`Endpoint::node`].  The endpoint
    /// may send replies or new requests via `net` (time is `net.now()`).
    fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery);

    /// Performs any timer-driven work due at `net.now()` (retransmit, start
    /// a session, expire idle peers) and returns the next simulated
    /// microsecond this endpoint wants waking at, or `None` if it is idle.
    ///
    /// The loop exits once every endpoint returns `None` and no traffic is
    /// in flight, so a finished endpoint must stop asking for wakeups.
    fn on_tick(&mut self, net: &mut SimNet) -> Option<u64>;
}

/// What [`run_event_loop`] did: how far simulated time ran and why the loop
/// stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLoopReport {
    /// Simulation steps executed (one step = advance + dispatch + tick).
    pub steps: u64,
    /// Deliveries addressed to a node no endpoint claims (dropped).
    pub undelivered: u64,
    /// True if the loop quiesced (no in-flight traffic, no timers); false
    /// if it hit the `max_steps` safety bound first.
    pub quiescent: bool,
    /// Simulated time when the loop stopped.
    pub now_us: u64,
}

/// Drives `endpoints` over `net` until the system quiesces — no deliveries
/// in flight and no endpoint asking for a timer — or `max_steps` simulation
/// steps have run (a safety bound against livelock; a quiescent run's
/// report says which happened).
///
/// Endpoints are ticked once before time first advances, so initial sends
/// happen at the current `net.now()`.  If two endpoints claim the same
/// node id, the first in slice order receives the traffic.
pub fn run_event_loop(
    net: &mut SimNet,
    endpoints: &mut [&mut dyn Endpoint],
    max_steps: u64,
) -> EventLoopReport {
    let mut by_node: HashMap<NodeId, usize> = HashMap::with_capacity(endpoints.len());
    for (index, endpoint) in endpoints.iter().enumerate() {
        by_node.entry(endpoint.node()).or_insert(index);
    }
    let mut report = EventLoopReport {
        steps: 0,
        undelivered: 0,
        quiescent: false,
        now_us: net.now(),
    };
    loop {
        // Tick everyone due now and learn the earliest pending timer.
        let mut next_timer: Option<u64> = None;
        for endpoint in endpoints.iter_mut() {
            if let Some(at) = endpoint.on_tick(net) {
                next_timer = Some(next_timer.map_or(at, |t: u64| t.min(at)));
            }
        }
        let next_at = match (net.next_delivery_at(), next_timer) {
            (Some(d), Some(t)) => d.min(t),
            (Some(d), None) => d,
            (None, Some(t)) => t,
            (None, None) => {
                report.quiescent = true;
                report.now_us = net.now();
                return report;
            }
        };
        if report.steps >= max_steps {
            report.now_us = net.now();
            return report;
        }
        report.steps += 1;
        // A timer may be due at or before now (e.g. an endpoint that wants
        // an immediate re-tick after sending); never move time backwards.
        let next_at = next_at.max(net.now());
        for delivery in net.advance_to(next_at) {
            match by_node.get(&delivery.to) {
                Some(&index) => endpoints[index].on_delivery(net, delivery),
                None => report.undelivered += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LinkConfig;

    /// Replies `payload + 1` to everything it receives; never sets timers.
    struct Echo {
        node: NodeId,
        seen: Vec<u8>,
    }

    impl Endpoint for Echo {
        fn node(&self) -> NodeId {
            self.node
        }
        fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
            let value = delivery.payload[0];
            self.seen.push(value);
            net.send(self.node, delivery.from, vec![value + 1]);
        }
        fn on_tick(&mut self, _net: &mut SimNet) -> Option<u64> {
            None
        }
    }

    /// Sends one ping at `start_at`, counts hops until `limit`, then idles.
    struct Pinger {
        node: NodeId,
        target: NodeId,
        start_at: u64,
        started: bool,
        hops: u32,
        limit: u32,
    }

    impl Endpoint for Pinger {
        fn node(&self) -> NodeId {
            self.node
        }
        fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
            self.hops += 1;
            if self.hops < self.limit {
                net.send(self.node, delivery.from, delivery.payload);
            }
        }
        fn on_tick(&mut self, net: &mut SimNet) -> Option<u64> {
            if self.started {
                return None;
            }
            if net.now() < self.start_at {
                return Some(self.start_at);
            }
            self.started = true;
            net.send(self.node, self.target, vec![0]);
            None
        }
    }

    #[test]
    fn ping_pong_quiesces_deterministically() {
        let run = || {
            let mut net = SimNet::new(LinkConfig::default());
            let mut echo = Echo {
                node: NodeId(1),
                seen: Vec::new(),
            };
            let mut ping = Pinger {
                node: NodeId(2),
                target: NodeId(1),
                start_at: 50,
                started: false,
                hops: 0,
                limit: 3,
            };
            let report = run_event_loop(&mut net, &mut [&mut echo, &mut ping], 1_000);
            (report, echo.seen.clone(), ping.hops)
        };
        let (report, seen, hops) = run();
        assert!(report.quiescent);
        assert_eq!(report.undelivered, 0);
        assert_eq!(hops, 3);
        // Each bounce increments: the echo server saw 0, 1, 2.
        assert_eq!(seen, vec![0, 1, 2]);
        // Determinism: an identical run matches exactly, including timing.
        assert_eq!(run(), (report, seen, hops));
    }

    #[test]
    fn timer_only_endpoints_drive_time_forward() {
        // No traffic at all: the pinger's start timer must still advance
        // simulated time to exactly its start instant.
        let mut net = SimNet::new(LinkConfig::default());
        let mut ping = Pinger {
            node: NodeId(2),
            target: NodeId(7), // nobody home
            start_at: 400,
            started: false,
            hops: 0,
            limit: 1,
        };
        let report = run_event_loop(&mut net, &mut [&mut ping], 1_000);
        assert!(report.quiescent);
        assert!(report.now_us >= 400);
        // The ping went to an unclaimed node and was dropped, counted.
        assert_eq!(report.undelivered, 1);
    }

    #[test]
    fn max_steps_bounds_a_livelocked_pair() {
        // Two echoes bouncing forever: the safety bound must fire.
        let mut net = SimNet::new(LinkConfig::default());
        let mut a = Echo {
            node: NodeId(1),
            seen: Vec::new(),
        };
        let mut b = Pinger {
            node: NodeId(2),
            target: NodeId(1),
            start_at: 0,
            started: false,
            hops: 0,
            limit: u32::MAX,
        };
        let report = run_event_loop(&mut net, &mut [&mut a, &mut b], 16);
        assert!(!report.quiescent);
        assert_eq!(report.steps, 16);
    }
}
