//! Host runtime: drives one or more AVMM nodes over the simulated network.
//!
//! The runtime plays the role of the host machines and the LAN in the
//! paper's testbed (§6.2): it advances simulated time, runs each AVMM in
//! slices, and carries packets — it puts on the wire what each AVMM hands
//! it (new messages, then the resends [`Avmm::resends_due`] names) and
//! delivers what arrives, sending back any acknowledgment the AVMM returns.
//! The commitment protocol's state (what is unacknowledged, what was
//! already received) is the AVMM's alone.

use std::collections::BTreeMap;

use avm_net::{LinkConfig, NodeId, SimNet};
use avm_wire::{Decode, Encode};

use crate::envelope::{Envelope, EnvelopeKind};
use crate::error::CoreError;
use crate::recorder::{Avmm, HostClock};

struct HostEntry {
    avmm: Avmm,
    node_id: NodeId,
}

/// The multi-node scenario runtime.
pub struct Runtime {
    net: SimNet,
    /// Ordered by name: every loop over the hosts runs in the same order in
    /// every process, so a session's logs are a function of its inputs.
    hosts: BTreeMap<String, HostEntry>,
    next_node: u32,
    steps_per_slice: u64,
}

impl Runtime {
    /// Creates a runtime over a network with the given link characteristics.
    pub fn new(link: LinkConfig) -> Runtime {
        Runtime {
            net: SimNet::new(link),
            hosts: BTreeMap::new(),
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
        self.hosts.insert(name, HostEntry { avmm, node_id });
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
    /// slice, its new messages and then its due resends enter the network,
    /// and due packets are delivered, each acknowledgment an AVMM returns
    /// going back after the last delivery.
    pub fn tick(&mut self, dt_us: u64) -> Result<(), CoreError> {
        let now = self.net.now();
        let clock = HostClock::at(now);
        let steps = self.steps_per_slice;

        // 1. Run every guest and send what it produced, then every resend.
        let mut outbound: Vec<(NodeId, Envelope)> = Vec::new();
        for host in self.hosts.values_mut() {
            for out in host.avmm.run_slice(&clock, steps)? {
                outbound.push((host.node_id, out.envelope));
            }
        }
        for host in self.hosts.values_mut() {
            for envelope in host.avmm.resends_due(now) {
                outbound.push((host.node_id, envelope));
            }
        }
        for (from, envelope) in outbound {
            self.transmit(from, &envelope);
        }

        // 2. Advance the network and deliver everything that is due.
        let mut acks: Vec<(NodeId, Envelope)> = Vec::new();
        for delivery in self.net.advance_to(now + dt_us) {
            let Some(host) = self.hosts.values_mut().find(|h| h.node_id == delivery.to) else {
                continue;
            };
            let Ok(envelope) = Envelope::decode_exact(&delivery.payload) else {
                continue; // corrupt frames are dropped
            };
            if matches!(
                envelope.kind,
                EnvelopeKind::Challenge | EnvelopeKind::ChallengeResponse
            ) {
                continue; // challenge traffic is routed by higher-level harnesses
            }
            match host.avmm.deliver(&envelope) {
                Ok(Some(ack)) => acks.push((host.node_id, ack)),
                Ok(None) => {}
                // A correct AVMM silently discards forged traffic and
                // acknowledgments it cannot match.
                Err(CoreError::BadMessageSignature | CoreError::UnknownAck) => {}
                Err(e) => return Err(e),
            }
        }
        for (from, ack) in acks {
            self.transmit(from, &ack);
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

    /// Puts `envelope` on the wire from node `from` to the host it names.
    fn transmit(&mut self, from: NodeId, envelope: &Envelope) {
        let Some(to) = self.hosts.get(&envelope.to).map(|h| h.node_id) else {
            return; // destination unknown: drop (mirrors a misaddressed packet)
        };
        self.net.send(from, to, envelope.encode_to_vec());
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
    use crate::events::{AckRecord, RecvRecord};
    use avm_crypto::keys::{SignatureScheme, SigningKey};
    use avm_log::EntryKind;
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
        let options = AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512));
        make_avmm_with(name, image, seed, peers, options)
    }

    fn make_avmm_with(
        name: &str,
        image: &VmImage,
        seed: u64,
        peers: &[(&str, &SigningKey)],
        options: AvmmOptions,
    ) -> Avmm {
        let mut avmm = Avmm::new(name, image, &GuestRegistry::new(), key(seed), options).unwrap();
        for (peer, peer_key) in peers {
            avmm.add_peer(peer, peer_key.verifying_key());
        }
        avmm
    }

    #[test]
    fn two_hosts_exchange_and_acknowledge_traffic() {
        let alice_key = key(1);
        let bob_key = key(2);
        // Each host's guest pings the other, so traffic flows both ways.
        let alice = make_avmm("alice", &pinger_image("bob"), 1, &[("bob", &bob_key)]);
        let bob = make_avmm("bob", &pinger_image("alice"), 2, &[("alice", &alice_key)]);

        let mut rt = Runtime::lan();
        rt.set_steps_per_slice(50_000);
        rt.add_host(alice);
        rt.add_host(bob);
        assert_eq!(
            rt.host_names(),
            vec!["alice".to_string(), "bob".to_string()]
        );

        rt.run_for(20_000, 1_000).unwrap();

        let alice = rt.host("alice").unwrap();
        let bob = rt.host("bob").unwrap();
        // Every message is acknowledged, on both sides, and each host
        // received what the other sent.
        assert_eq!(alice.unacknowledged(), Vec::<u64>::new());
        assert_eq!(bob.unacknowledged(), Vec::<u64>::new());
        assert_eq!(alice.stats().packets_out, 5);
        assert_eq!(bob.stats().packets_in, alice.stats().packets_out);
        assert_eq!(alice.stats().packets_in, bob.stats().packets_out);
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
        // Nothing reached the wire, and nobody acknowledged what was sent.
        let alice = rt.host("alice").unwrap();
        assert_eq!(rt.net().stats(rt.node_id("alice").unwrap()).tx_packets, 0);
        let sent = alice.stats().packets_out;
        assert!(sent >= 1);
        assert_eq!(alice.unacknowledged(), (1..=sent).collect::<Vec<_>>());
    }

    /// The sender signatures of `avmm`'s RECV entries (one per message: the
    /// signature covers the msg id), and the SEND seqs its ACK entries name.
    fn recv_and_acks(avmm: &Avmm) -> (Vec<Vec<u8>>, Vec<u64>) {
        let entries = avmm.log().entries();
        let recvs = entries
            .iter()
            .filter(|e| e.kind == EntryKind::Recv)
            .map(|e| RecvRecord::decode_exact(&e.content).unwrap().signature)
            .collect();
        let acked = entries
            .iter()
            .filter(|e| e.kind == EntryKind::Ack)
            .map(|e| AckRecord::decode_exact(&e.content).unwrap().send_seq)
            .collect();
        (recvs, acked)
    }

    /// §4.3 under loss: two pingers over a link that drops every n-th
    /// packet.  A resend whose first copy arrived is logged once and
    /// acknowledged again, so every ACK that was lost is replaced.
    #[test]
    fn loss_logs_each_message_once_and_reacknowledges_duplicates() {
        let keys = [key(1), key(2)];
        for drop_every in [0, 2, 3, 4, 5, 7] {
            let mut rt = Runtime::new(LinkConfig {
                drop_every,
                ..LinkConfig::default()
            });
            rt.set_steps_per_slice(50_000);
            let images = [pinger_image("bob"), pinger_image("alice")];
            rt.add_host(make_avmm("alice", &images[0], 1, &[("bob", &keys[1])]));
            rt.add_host(make_avmm("bob", &images[1], 2, &[("alice", &keys[0])]));
            rt.run_for(2_000_000, 1_000).unwrap();
            for (i, name) in ["alice", "bob"].into_iter().enumerate() {
                let avmm = rt.host(name).unwrap();
                let (recvs, acked) = recv_and_acks(avmm);
                for mut logged in [
                    recvs.clone(),
                    acked.iter().map(|s| s.to_le_bytes().to_vec()).collect(),
                ] {
                    let all = logged.len();
                    logged.sort_unstable();
                    logged.dedup();
                    assert_eq!(
                        logged.len(),
                        all,
                        "{name}, drop_every {drop_every}: logged twice"
                    );
                }
                assert_eq!(
                    recvs.len(),
                    5,
                    "{name}, drop_every {drop_every}: a RECV per message"
                );
                let unacked = avmm.unacknowledged();
                assert_eq!(
                    acked.len() + unacked.len(),
                    5,
                    "{name}, drop_every {drop_every}"
                );
                if drop_every == 2 {
                    // Both hosts ping at the same instants, so on each link
                    // every ACK — to a first send or to a resend — is an
                    // even-numbered packet and is dropped: nothing can
                    // acknowledge through this pattern, and the sender
                    // rightly holds every message unacknowledged.
                    assert_eq!(unacked, vec![1, 2, 3, 4, 5], "{name}");
                } else {
                    assert_eq!(
                        unacked,
                        Vec::<u64>::new(),
                        "{name}, drop_every {drop_every}"
                    );
                }
                let (prev, segment) = avmm.log().segment(1, avmm.log().len() as u64).unwrap();
                let report = crate::audit::audit_log(
                    name,
                    &prev,
                    &segment,
                    &[],
                    &keys[i].verifying_key(),
                    &images[i],
                    &GuestRegistry::new(),
                );
                assert!(
                    report.passed(),
                    "{name}, drop_every {drop_every}: {:?}",
                    report.fault()
                );
            }
        }
    }

    /// Only a tamper-evident host acknowledges, so a host without tamper
    /// evidence neither waits for acknowledgments nor resends.
    #[test]
    fn without_tamper_evidence_every_packet_is_sent_once() {
        let options = AvmmOptions {
            tamper_evident: false,
            ..AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512))
        };
        let alice_key = key(1);
        let alice_img = pinger_image("bob");
        let bob_key = key(2);
        let alice = make_avmm_with(
            "alice",
            &alice_img,
            1,
            &[("bob", &bob_key)],
            options.clone(),
        );
        let bob = make_avmm_with("bob", &echo_image(), 2, &[("alice", &alice_key)], options);
        let mut rt = Runtime::lan();
        rt.set_steps_per_slice(50_000);
        rt.add_host(alice);
        rt.add_host(bob);
        rt.run_for(2_000_000, 1_000).unwrap();
        let alice = rt.host("alice").unwrap();
        assert_eq!(alice.stats().packets_out, 5);
        let tx = rt.net().stats(rt.node_id("alice").unwrap()).tx_packets;
        assert_eq!(tx, alice.stats().packets_out);
        assert!(alice.unacknowledged().is_empty());
    }
}
