//! Host runtime: drives one or more AVMM nodes over the simulated network.
//!
//! The runtime plays the role of the host machines and the LAN in the
//! paper's testbed (§6.2): it advances simulated time, runs each AVMM in
//! slices, forwards outbound envelopes through [`SimNet`], delivers incoming
//! envelopes (with duplicate suppression), sends and matches
//! acknowledgments, and retransmits unacknowledged messages — "the original
//! message is retransmitted a few times" (§4.3).

use std::collections::{BTreeMap, HashMap, HashSet};

use avm_net::{LinkConfig, NodeId, SimNet};
use avm_wire::{Decode, Encode};

use crate::envelope::{Envelope, EnvelopeKind};
use crate::error::CoreError;
use crate::recorder::{Avmm, HostClock};

/// Default retransmission timeout (µs).
const RETRANSMIT_TIMEOUT_US: u64 = 50_000;
/// Maximum retransmission attempts before a message is dropped.
const MAX_RETRANSMITS: u8 = 5;

/// An in-flight (not yet acknowledged) message.
#[derive(Debug, Clone)]
struct PendingSend {
    envelope: Envelope,
    dest: NodeId,
    last_sent_us: u64,
    attempts: u8,
}

struct HostEntry {
    avmm: Avmm,
    node_id: NodeId,
    pending: Vec<PendingSend>,
    seen: HashSet<(String, u64)>,
    delivered_payload_bytes: u64,
}

/// The multi-node scenario runtime.
pub struct Runtime {
    net: SimNet,
    /// Ordered by name: every loop over the hosts runs in the same order in
    /// every process, so a session's logs are a function of its inputs.
    hosts: BTreeMap<String, HostEntry>,
    node_names: HashMap<NodeId, String>,
    next_node: u32,
    steps_per_slice: u64,
}

impl Runtime {
    /// Creates a runtime over a network with the given link characteristics.
    pub fn new(link: LinkConfig) -> Runtime {
        Runtime {
            net: SimNet::new(link),
            hosts: BTreeMap::new(),
            node_names: HashMap::new(),
            next_node: 1,
            steps_per_slice: 200_000,
        }
    }

    /// Creates a runtime with LAN-like defaults.
    pub fn lan() -> Runtime {
        Runtime::new(LinkConfig::default())
    }

    /// Limits how many guest steps each host executes per tick.
    pub fn set_steps_per_slice(&mut self, steps: u64) {
        self.steps_per_slice = steps.max(1);
    }

    /// Adds a host running the given AVMM; returns its network node id.
    pub fn add_host(&mut self, avmm: Avmm) -> NodeId {
        let node_id = NodeId(self.next_node);
        self.next_node += 1;
        let name = avmm.name().to_string();
        self.node_names.insert(node_id, name.clone());
        self.hosts.insert(
            name,
            HostEntry {
                avmm,
                node_id,
                pending: Vec::new(),
                seen: HashSet::new(),
                delivered_payload_bytes: 0,
            },
        );
        node_id
    }

    /// Access to a host's AVMM.
    pub fn host(&self, name: &str) -> Option<&Avmm> {
        self.hosts.get(name).map(|h| &h.avmm)
    }

    /// Mutable access to a host's AVMM (tests use this to install cheats).
    pub fn host_mut(&mut self, name: &str) -> Option<&mut Avmm> {
        self.hosts.get_mut(name).map(|h| &mut h.avmm)
    }

    /// The underlying network (traffic statistics live here).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Network node id of a named host.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.hosts.get(name).map(|h| h.node_id)
    }

    /// Current simulated time in microseconds.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// Names of all hosts, sorted.
    pub fn host_names(&self) -> Vec<String> {
        self.hosts.keys().cloned().collect()
    }

    /// Runs one tick of `dt_us` simulated microseconds: every host executes a
    /// slice, outbound traffic enters the network, due packets are delivered
    /// and acknowledged, and stale messages are retransmitted.
    pub fn tick(&mut self, dt_us: u64) -> Result<(), CoreError> {
        let now = self.net.now();
        let clock = HostClock::at(now);
        let steps = self.steps_per_slice;

        // 1. Run every guest and queue its outbound envelopes.
        let names = self.host_names();
        let mut to_transmit: Vec<(String, Envelope)> = Vec::new();
        for name in &names {
            let host = self.hosts.get_mut(name).expect("host exists");
            let outbound = host.avmm.run_slice(&clock, steps)?;
            for out in outbound {
                to_transmit.push((name.clone(), out.envelope));
            }
        }
        for (from, envelope) in to_transmit {
            self.transmit(&from, envelope, now);
        }

        // 2. Retransmit stale unacknowledged messages.
        self.retransmit(now);

        // 3. Advance the network and deliver everything that is due.
        let due = self.net.advance_to(now + dt_us);
        let mut acks_to_send: Vec<(String, Envelope)> = Vec::new();
        for delivery in due {
            let Some(dest_name) = self.node_names.get(&delivery.to).cloned() else {
                continue;
            };
            let envelope = match Envelope::decode_exact(&delivery.payload) {
                Ok(e) => e,
                Err(_) => continue, // corrupt frames are dropped
            };
            let host = self.hosts.get_mut(&dest_name).expect("host exists");
            match envelope.kind {
                EnvelopeKind::Data => {
                    let dedup_key = (envelope.from.clone(), envelope.msg_id);
                    if host.seen.contains(&dedup_key) {
                        // Duplicate (a retransmission we already accepted):
                        // do not log it again, but do re-acknowledge so the
                        // sender stops retransmitting.
                        continue;
                    }
                    match host.avmm.deliver(&envelope) {
                        Ok(Some(ack)) => {
                            host.seen.insert(dedup_key);
                            host.delivered_payload_bytes += envelope.payload.len() as u64;
                            acks_to_send.push((dest_name.clone(), ack));
                        }
                        Ok(None) => {
                            host.seen.insert(dedup_key);
                            host.delivered_payload_bytes += envelope.payload.len() as u64;
                        }
                        Err(CoreError::BadMessageSignature) => {
                            // A correct AVMM silently discards forged traffic.
                        }
                        Err(e) => return Err(e),
                    }
                }
                EnvelopeKind::Ack => {
                    // Match against the pending sends of the destination host.
                    host.pending.retain(|p| {
                        !(p.envelope.msg_id == envelope.msg_id && p.envelope.to == envelope.from)
                    });
                    // Let the AVMM log the acknowledgment.
                    let _ = host.avmm.deliver(&envelope);
                }
                EnvelopeKind::Challenge | EnvelopeKind::ChallengeResponse => {
                    // Challenge traffic is routed by higher-level harnesses.
                }
            }
        }
        for (from, ack) in acks_to_send {
            self.transmit_unreliable(&from, ack);
        }
        Ok(())
    }

    /// Runs the scenario for `duration_us` simulated microseconds in ticks of
    /// `tick_us`.
    pub fn run_for(&mut self, duration_us: u64, tick_us: u64) -> Result<(), CoreError> {
        let end = self.net.now() + duration_us;
        while self.net.now() < end {
            self.tick(tick_us.min(end - self.net.now()))?;
        }
        Ok(())
    }

    /// Queues a Data envelope for transmission with retransmission tracking.
    fn transmit(&mut self, from: &str, envelope: Envelope, now: u64) {
        let Some(dest_id) = self.hosts.get(&envelope.to).map(|h| h.node_id) else {
            return; // destination unknown: drop (mirrors a misaddressed packet)
        };
        let from_id = self.hosts[from].node_id;
        let bytes = envelope.encode_to_vec();
        self.net.send(from_id, dest_id, bytes);
        if envelope.kind == EnvelopeKind::Data {
            self.hosts
                .get_mut(from)
                .expect("host")
                .pending
                .push(PendingSend {
                    envelope,
                    dest: dest_id,
                    last_sent_us: now,
                    attempts: 1,
                });
        }
    }

    /// Sends an envelope without retransmission tracking (acknowledgments).
    fn transmit_unreliable(&mut self, from: &str, envelope: Envelope) {
        let Some(dest_id) = self.hosts.get(&envelope.to).map(|h| h.node_id) else {
            return;
        };
        let from_id = self.hosts[from].node_id;
        let bytes = envelope.encode_to_vec();
        self.net.send(from_id, dest_id, bytes);
    }

    fn retransmit(&mut self, now: u64) {
        let mut to_resend: Vec<(NodeId, NodeId, Vec<u8>)> = Vec::new();
        for host in self.hosts.values_mut() {
            host.pending.retain_mut(|p| {
                if now.saturating_sub(p.last_sent_us) < RETRANSMIT_TIMEOUT_US {
                    return true;
                }
                if p.attempts >= MAX_RETRANSMITS {
                    return false;
                }
                p.attempts += 1;
                p.last_sent_us = now;
                to_resend.push((host.node_id, p.dest, p.envelope.encode_to_vec()));
                true
            });
        }
        for (from, to, bytes) in to_resend {
            self.net.send(from, to, bytes);
        }
    }

    /// Number of messages a host is still waiting to have acknowledged.
    #[cfg(test)]
    fn pending_count(&self, name: &str) -> usize {
        self.hosts.get(name).map(|h| h.pending.len()).unwrap_or(0)
    }

    /// Total guest payload bytes delivered into a host.
    pub fn delivered_payload_bytes(&self, name: &str) -> u64 {
        self.hosts
            .get(name)
            .map(|h| h.delivered_payload_bytes)
            .unwrap_or(0)
    }
}

impl core::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Runtime")
            .field("hosts", &self.host_names())
            .field("now_us", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AvmmOptions;
    use avm_crypto::keys::{SignatureScheme, SigningKey};
    use avm_vm::bytecode::assemble;
    use avm_vm::{GuestRegistry, VmImage};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(seed: u64) -> SigningKey {
        let mut rng = StdRng::seed_from_u64(seed);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    /// Guest "ping": sends a packet to `peer` every time the clock advances
    /// by at least 1000 µs, up to 5 packets, then idles forever.
    fn pinger_image(peer: &str) -> VmImage {
        let src = format!(
            r#"
                movi r10, 0          ; packets sent
                movi r11, 5          ; packet budget
                movi r12, 0          ; last send time
                movi r13, 1000       ; interval
            loop:
                clock r1
                mov r2, r1
                sub r2, r12
                cmp r2, r13
                jlt wait
                cmp r10, r11
                jge done
                movi r3, packet
                movi r4, {len}
                send r3, r4
                addi r10, 1
                mov r12, r1
            wait:
                idle
                jmp loop
            done:
                idle
                jmp done
            packet:
                .byte {peer_len}
                .ascii "{peer}"
                .ascii "ping"
            "#,
            len = 1 + peer.len() + 4,
            peer_len = peer.len(),
        );
        let code = assemble(&src, 0).unwrap();
        VmImage::bytecode("pinger", 64 * 1024, code, 0, 0)
    }

    /// Guest "echo": echoes every received packet back to its sender — the
    /// packet body carries the reply address.
    fn echo_image() -> VmImage {
        let src = r"
                movi r1, 0x8000
                movi r2, 512
            loop:
                recv r0, r1, r2
                cmp r0, r6
                jne got
                idle
                jmp loop
            got:
                send r1, r0
                jmp loop
            ";
        VmImage::bytecode("echo", 64 * 1024, assemble(src, 0).unwrap(), 0, 0)
    }

    fn make_avmm(name: &str, image: &VmImage, seed: u64, peers: &[(&str, &SigningKey)]) -> Avmm {
        let mut avmm = Avmm::new(
            name,
            image,
            &GuestRegistry::new(),
            key(seed),
            AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
        )
        .unwrap();
        for (peer, peer_key) in peers {
            avmm.add_peer(peer, peer_key.verifying_key());
        }
        avmm
    }

    #[test]
    fn two_hosts_exchange_and_acknowledge_traffic() {
        let alice_key = key(1);
        let bob_key = key(2);
        // Alice pings bob; bob's echo guest sends the packet back to whoever
        // is named in the header — which is "bob" itself in this synthetic
        // setup, so we address the pings to "alice" instead and check
        // delivery both ways via the echo.
        let alice_img = pinger_image("bob");
        let bob_img = echo_image();

        let alice = make_avmm("alice", &alice_img, 1, &[("bob", &bob_key)]);
        let bob = make_avmm("bob", &bob_img, 2, &[("alice", &alice_key)]);

        let mut rt = Runtime::lan();
        rt.set_steps_per_slice(50_000);
        rt.add_host(alice);
        rt.add_host(bob);
        assert_eq!(
            rt.host_names(),
            vec!["alice".to_string(), "bob".to_string()]
        );

        rt.run_for(20_000, 1_000).unwrap();

        let alice_stats = rt.host("alice").unwrap().stats();
        let bob_stats = rt.host("bob").unwrap().stats();
        assert!(alice_stats.packets_out >= 1, "alice sent nothing");
        assert!(bob_stats.packets_in >= 1, "bob received nothing");
        // The echo guest re-sent the packet addressed to "bob"; since the
        // header names bob itself, the runtime routes it back to bob — the
        // point is simply that traffic flows and is acknowledged.
        assert!(rt.net().stats(rt.node_id("alice").unwrap()).tx_packets > 0);
        // Acks eventually clear the pending queues.
        assert_eq!(rt.pending_count("alice"), 0);
        assert!(rt.delivered_payload_bytes("bob") > 0);
        assert!(rt.now() >= 20_000);
    }

    #[test]
    fn logs_remain_auditable_after_a_runtime_session() {
        let alice_key = key(1);
        let bob_key = key(2);
        let alice_img = pinger_image("bob");
        let bob_img = echo_image();
        let alice = make_avmm("alice", &alice_img, 1, &[("bob", &bob_key)]);
        let bob = make_avmm("bob", &bob_img, 2, &[("alice", &alice_key)]);

        let mut rt = Runtime::lan();
        rt.set_steps_per_slice(50_000);
        rt.add_host(alice);
        rt.add_host(bob);
        rt.run_for(20_000, 1_000).unwrap();

        // Audit bob against his true image: must pass.
        let bob_avmm = rt.host("bob").unwrap();
        let (prev, segment) = bob_avmm
            .log()
            .segment(1, bob_avmm.log().len() as u64)
            .unwrap();
        let report = crate::audit::audit_log(
            "bob",
            &prev,
            &segment,
            &[],
            &bob_key.verifying_key(),
            &bob_img,
            &GuestRegistry::new(),
        );
        assert!(report.passed(), "{:?}", report.fault());

        // Audit alice as well.
        let alice_avmm = rt.host("alice").unwrap();
        let (prev, segment) = alice_avmm
            .log()
            .segment(1, alice_avmm.log().len() as u64)
            .unwrap();
        let report = crate::audit::audit_log(
            "alice",
            &prev,
            &segment,
            &[],
            &alice_key.verifying_key(),
            &alice_img,
            &GuestRegistry::new(),
        );
        assert!(report.passed(), "{:?}", report.fault());
    }

    /// A session's logs are a function of its inputs, not of the order the
    /// hosts were added in (nor of a hash map's per-process iteration
    /// order): two pingers contend for bob's receive queue in every tick,
    /// so whichever runs first is what bob's log records first.
    #[test]
    fn logs_do_not_depend_on_host_insertion_order() {
        let keys = [key(1), key(2), key(3)];
        let names = ["alice", "bob", "carol"];
        let session = |order: [usize; 3]| {
            let mut rt = Runtime::lan();
            rt.set_steps_per_slice(50_000);
            for i in order {
                let image = match names[i] {
                    "bob" => echo_image(),
                    _ => pinger_image("bob"),
                };
                let peers: Vec<(&str, &SigningKey)> = (0..3)
                    .filter(|&j| j != i)
                    .map(|j| (names[j], &keys[j]))
                    .collect();
                rt.add_host(make_avmm(names[i], &image, i as u64 + 1, &peers));
            }
            rt.run_for(12_000, 1_000).unwrap();
            names.map(|name| rt.host(name).unwrap().log().entries().to_vec())
        };
        let forward = session([0, 1, 2]);
        assert!(forward[1].len() > 10, "bob logged the contended traffic");
        assert_eq!(forward, session([2, 1, 0]));
        assert_eq!(forward, session([1, 2, 0]));
    }

    #[test]
    fn unknown_destination_is_dropped_gracefully() {
        let bob_key = key(2);
        let alice_img = pinger_image("nobody");
        let alice = make_avmm("alice", &alice_img, 1, &[("bob", &bob_key)]);
        let mut rt = Runtime::lan();
        rt.add_host(alice);
        rt.run_for(5_000, 1_000).unwrap();
        assert_eq!(rt.pending_count("alice"), 0);
    }
}
