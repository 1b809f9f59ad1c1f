//! Property test for accountable attestation: random interleavings of
//! honest and tampered attestation sessions — tampered initial image,
//! boot event log extended after sealing, replayed (stale-nonce) quote,
//! and post-launch execution tampering — must each map to their distinct
//! verdict, under arbitrary challenge identities and times.  Honest
//! sessions verify end-to-end: launch `Verified`, then a consistent spot
//! check over the same recording.

use std::sync::OnceLock;

use avm_attest::{AttestVerdict, AttestationEnvelope, BootEvent, BootEventLog};
use avm_core::attest::{challenge_nonce, Attestor, LaunchPolicy};
use avm_core::config::AvmmOptions;
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::recorder::{Avmm, HostClock};
use avm_core::snapshot::SnapshotStore;
use avm_core::spotcheck::spot_check;
use avm_crypto::keys::{Identity, SignatureScheme};
use avm_crypto::sha256::sha256;
use avm_log::TamperEvidentLog;
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::attest::{AttestChallenge, DEFAULT_FRESHNESS_US};
use avm_wire::{Decode, Encode, Reader};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SCHEME: SignatureScheme = SignatureScheme::Rsa(512);
const NODE: &str = "bob";
const ROUNDS: u64 = 3;

/// Everything the per-case sessions need, built once: recording an AVMM
/// (RSA keygen + guest execution) is far too slow to repeat per proptest
/// case, and every artifact below is deterministic anyway.
struct Fixture {
    image: VmImage,
    operator: Identity,
    client: Identity,
    /// Honest recording: log + snapshots + the envelope its launch attests.
    honest_log: TamperEvidentLog,
    honest_store: SnapshotStore,
    honest_envelope: Vec<u8>,
    /// A provider that booted a tampered image (envelope bytes it serves).
    image_tamper_envelope: Vec<u8>,
    /// The honest envelope with its sealed boot log extended by one event
    /// (original seal kept — the recomputed register breaks it).
    fork_envelope: Vec<u8>,
    /// Same honest launch, guest memory overwritten mid-run.
    post_log: TamperEvidentLog,
    post_store: SnapshotStore,
    post_envelope: Vec<u8>,
    /// Chunk start for spot checks (the tampered snapshot's predecessor).
    start: u64,
}

fn echo_image() -> VmImage {
    let source = r"
            movi r1, 0x8000
            movi r2, 512
        loop:
            clock r4
            recv r0, r1, r2
            cmp r0, r6
            jne got
            idle
            jmp loop
        got:
            send r1, r0
            jmp loop
        ";
    VmImage::bytecode("echo", 128 * 1024, assemble(source, 0).unwrap(), 0, 0)
}

/// Records `ROUNDS` request/snapshot rounds; when `tamper` is set, guest
/// memory is overwritten right before the last snapshot is captured.
fn record(image: &VmImage, operator: &Identity, client: &Identity, tamper: bool) -> Avmm {
    let registry = GuestRegistry::new();
    let mut avmm = Avmm::new(
        NODE,
        image,
        &registry,
        operator.signing_key.clone(),
        AvmmOptions::default().with_scheme(SCHEME),
    )
    .unwrap();
    avmm.add_peer("alice", client.verifying_key());
    let mut clock = HostClock::at(1_000);
    avmm.run_slice(&clock, 20_000).unwrap();
    for i in 0..ROUNDS {
        clock.advance_to(clock.now() + 2_000);
        let payload = encode_guest_packet("alice", &[i as u8, 7]);
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            NODE,
            i + 1,
            payload,
            &client.signing_key,
            None,
        );
        avmm.deliver(&env).unwrap();
        avmm.run_slice(&clock, 20_000).unwrap();
        if tamper && i == ROUNDS - 1 {
            let addr = avmm.machine_mut().memory().size() - 64;
            avmm.machine_mut()
                .memory_mut()
                .write_u8(addr, 0xAA)
                .unwrap();
        }
        avmm.take_snapshot();
    }
    avmm
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let image = echo_image();
        let mut rng = StdRng::seed_from_u64(97);
        let operator = Identity::generate(&mut rng, NODE, SCHEME);
        let client = Identity::generate(&mut rng, "alice", SCHEME);

        let honest = record(&image, &operator, &client, false);
        let honest_envelope = Attestor::for_avmm(&honest, &image)
            .unwrap()
            .envelope_bytes()
            .to_vec();

        // Tampered initial image: same name, same key, different bytes.
        let tampered_image = image.clone().with_disk(vec![0x5Au8; 256]);
        let registry = GuestRegistry::new();
        let tampered = Avmm::new(
            NODE,
            &tampered_image,
            &registry,
            operator.signing_key.clone(),
            AvmmOptions::default().with_scheme(SCHEME),
        )
        .unwrap();
        let image_tamper_envelope = Attestor::for_avmm(&tampered, &tampered_image)
            .unwrap()
            .envelope_bytes()
            .to_vec();

        // Boot log extended after sealing, original seal kept.
        let envelope = AttestationEnvelope::decode_exact(&honest_envelope).unwrap();
        let boot_bytes = envelope.boot.encode_to_vec();
        let mut reader = Reader::new(&boot_bytes);
        let mut events = Vec::<BootEvent>::decode(&mut reader).unwrap();
        let seal = Option::<Vec<u8>>::decode(&mut reader).unwrap();
        events.push(BootEvent {
            label: "avm.extra".to_string(),
            payload_digest: sha256(b"measured after the seal"),
        });
        let fork_envelope = AttestationEnvelope {
            boot: BootEventLog::from_parts(events, seal),
            ..envelope
        }
        .encode_to_vec();

        // Post-launch execution tamper: identical launch, poked mid-run.
        let post = record(&image, &operator, &client, true);
        let post_envelope = Attestor::for_avmm(&post, &image)
            .unwrap()
            .envelope_bytes()
            .to_vec();

        Fixture {
            image,
            operator,
            client,
            honest_log: honest.log().clone(),
            honest_store: honest.snapshots().clone(),
            honest_envelope,
            image_tamper_envelope,
            fork_envelope,
            post_log: post.log().clone(),
            post_store: post.snapshots().clone(),
            post_envelope,
            start: ROUNDS - 2,
        }
    })
}

/// The tamper classes a session can run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tamper {
    Honest,
    Image,
    LogFork,
    NonceReplay,
    PostLaunch,
}

fn tamper_strategy() -> impl Strategy<Value = Tamper> {
    (0u64..5).prop_map(|i| match i {
        0 => Tamper::Honest,
        1 => Tamper::Image,
        2 => Tamper::LogFork,
        3 => Tamper::NonceReplay,
        _ => Tamper::PostLaunch,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of honest and tampered attestation sessions, under
    /// arbitrary session ids and issue times, classifies every session with
    /// its distinct verdict — and the honest / post-launch cases continue
    /// into the spot check that settles what attestation alone cannot.
    #[test]
    fn interleaved_sessions_map_to_their_distinct_verdicts(
        sessions in proptest::collection::vec(
            (tamper_strategy(), 1u64..1 << 48, 1u64..1 << 40), 1..6),
        skew in 0u64..4_000_000,
    ) {
        let fx = fixture();
        let policy = LaunchPolicy::new(&fx.image, NODE, SCHEME, fx.operator.verifying_key());
        let registry = GuestRegistry::new();
        let honest_attestor = Attestor::from_envelope_bytes(
            fx.honest_envelope.clone(), fx.operator.signing_key.clone());

        for &(tamper, session_id, issued_at_us) in &sessions {
            let challenge = AttestChallenge {
                nonce: challenge_nonce(session_id, issued_at_us),
                issued_at_us,
            };
            // Any verification time inside the freshness window.
            let now = issued_at_us + skew % DEFAULT_FRESHNESS_US;
            let attestor = match tamper {
                Tamper::Honest => honest_attestor.clone(),
                Tamper::Image => Attestor::from_envelope_bytes(
                    fx.image_tamper_envelope.clone(), fx.operator.signing_key.clone()),
                Tamper::LogFork => Attestor::from_envelope_bytes(
                    fx.fork_envelope.clone(), fx.operator.signing_key.clone()),
                Tamper::NonceReplay => {
                    // A canned quote for a different (older) challenge.
                    let old = AttestChallenge {
                        nonce: challenge_nonce(session_id.wrapping_add(1), issued_at_us / 2),
                        issued_at_us: issued_at_us / 2,
                    };
                    honest_attestor.clone().with_replayed_quote(honest_attestor.quote(&old))
                }
                Tamper::PostLaunch => Attestor::from_envelope_bytes(
                    fx.post_envelope.clone(), fx.operator.signing_key.clone()),
            };
            let (verdict, _) = policy.verify(&attestor.quote(&challenge), &challenge, now);
            let expected = match tamper {
                Tamper::Honest | Tamper::PostLaunch => AttestVerdict::Verified,
                Tamper::Image => AttestVerdict::ImageMismatch,
                Tamper::LogFork => AttestVerdict::BootLogForged,
                Tamper::NonceReplay => AttestVerdict::StaleNonce,
            };
            prop_assert_eq!(verdict, expected, "tamper {:?}", tamper);
        }

        // The audit settles what the launch envelope cannot: run the spot
        // check once per class that appeared in this interleaving.
        if sessions.iter().any(|&(t, _, _)| t == Tamper::Honest) {
            let report = spot_check(&fx.honest_log, &fx.honest_store, fx.start, 1,
                                    &fx.image, &registry).unwrap();
            prop_assert!(report.consistent, "honest run must audit clean end-to-end");
        }
        if sessions.iter().any(|&(t, _, _)| t == Tamper::PostLaunch) {
            let report = spot_check(&fx.post_log, &fx.post_store, fx.start, 1,
                                    &fx.image, &registry).unwrap();
            prop_assert!(!report.consistent,
                "post-launch tamper attests Verified but must fail the audit");
        }
    }

    /// The post-launch-tampered provider serves the *same* envelope bytes
    /// as the honest one (the launch really was identical), and expired
    /// challenges are classified as such for every session identity.
    #[test]
    fn envelope_determinism_and_expiry(session_id in 1u64..1 << 48, age in option::of(1u64..1 << 20)) {
        let fx = fixture();
        prop_assert_eq!(&fx.post_envelope, &fx.honest_envelope);

        let policy = LaunchPolicy::new(&fx.image, NODE, SCHEME, fx.operator.verifying_key());
        let attestor = Attestor::from_envelope_bytes(
            fx.honest_envelope.clone(), fx.operator.signing_key.clone());
        let issued_at_us = 1_000;
        let challenge = AttestChallenge {
            nonce: challenge_nonce(session_id, issued_at_us),
            issued_at_us,
        };
        let late = issued_at_us + DEFAULT_FRESHNESS_US + age.unwrap_or(1);
        let (verdict, _) = policy.verify(&attestor.quote(&challenge), &challenge, late);
        prop_assert_eq!(verdict, AttestVerdict::Expired);
    }
}

/// The client identity is part of the fixture so the recording compiles the
/// same either way; referenced here to keep the struct field honest.
#[test]
fn fixture_builds_once_and_is_consistent() {
    let fx = fixture();
    assert_eq!(fx.client.name, "alice");
    assert_ne!(fx.honest_envelope, fx.image_tamper_envelope);
    assert_ne!(fx.honest_envelope, fx.fork_envelope);
}
