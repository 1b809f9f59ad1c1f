//! Discrete-event simulated network for the AVM reproduction.
//!
//! The paper's evaluation runs three workstations on a 1 Gbps switch and
//! measures ping round-trip times, per-packet overhead and aggregate traffic
//! (§6.7, §6.8).  This crate provides the controllable stand-in: a
//! discrete-event network with per-link latency, optional deterministic
//! loss, in-order delivery per link, and byte/packet accounting per node.
//!
//! Simulated time is in **microseconds**.  The network never advances time
//! by itself; the driver (the AVMM runtime in `avm-core`, or a test) calls
//! [`SimNet::advance_to`] and collects the deliveries that became due.
//!
//! [`LinkConfig`] is the one model of the network in the workspace: the
//! default is the paper's switched LAN, and [`LinkConfig::WAN`] is the
//! 2010-era WAN `avm-core`'s spot checks run over.  Every latency an audit
//! reports is measured here, in simulated time — a lossless request/response
//! exchange takes two one-way latencies plus each packet's serialisation
//! delay ([`LinkConfig::serialise_micros`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eventloop;
pub mod net;
pub mod stats;

pub use eventloop::{run_event_loop, Endpoint, EventLoopReport};
pub use net::{Delivery, LinkConfig, NodeId, SimNet};
pub use stats::{NodeStats, TrafficReport};
