//! A whole-log audit with its phases side by side equals the phases run in
//! sequence.
//!
//! On a segment of at least [`SPLIT_THRESHOLD`] entries and a host with more
//! than one core, `avm_core::audit::audit_log` and `AuditClient::audit_log`
//! run the syntactic phase (chain and authenticators split by entry range)
//! on one thread while the replay runs on another, and a failed syntactic
//! phase stops the replay.  These tests audit game logs above the threshold
//! — honest, a guest cheat, a twin history, a flipped byte, an undecodable
//! record, a history whose replay faults differently from its syntactic
//! phase — and hold the in-process audit and the audit over the wire to the
//! sequential composition written out below: the same verdict, fault,
//! `entries_examined`, `syntactic_ok`, replay progress, and evidence that
//! verifies.  The audit over the wire is held to the composition over the
//! segment as it ships — a hash every 64 entries ([`avm_log::wire`]) — so a
//! damaged run is named at its checkpoint, and its evidence holds the
//! hashes the chain check computed.
//! On a one-core host the audit takes the sequential path and the
//! equalities hold trivially.

use std::collections::HashMap;
use std::sync::OnceLock;

use avm_core::audit::{audit_log, syntactic_content_checks, AuditOutcome, AuditReport};
use avm_core::config::{AvmmOptions, ExecConfig};
use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport};
use avm_core::events::{AckRecord, MetaRecord, SendRecord};
use avm_core::recorder::Avmm;
use avm_core::replay::{ReplayOutcome, ReplaySummary, Replayer};
use avm_core::runtime::Runtime;
use avm_core::session::{AuditSession, Start};
use avm_core::snapshot::SnapshotStore;
use avm_core::FaultReason;
use avm_crypto::keys::{Identity, SignatureScheme, VerifyingKey};
use avm_crypto::sha256::Digest;
use avm_game::{client_image, game_registry, server_image, ClientConfig, ServerConfig};
use avm_log::verify::{chain_in_parts, segment_in_parts, SPLIT_THRESHOLD};
use avm_log::wire::{carries_hash, decode_entries, wire_entries};
use avm_log::{
    Acknowledgment, Authenticator, EntryKind, EntryView, LogEntry, LogEntryRef, TamperEvidentLog,
};
use avm_net::LinkConfig;
use avm_vm::devices::InputEvent;
use avm_vm::VmImage;
use avm_wire::{encode_log_segment, AuditResponseRef, Decode, Encode};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SERVER: &str = "server";
/// Simulated match length: long enough that every client logs more than
/// [`SPLIT_THRESHOLD`] entries.
const MATCH_US: u64 = 700_000;

/// One match: an honest player and a cheating one.
struct Match {
    /// The honest player's log, key, reference image and the authenticators
    /// the server collected from it.
    honest: Player,
    /// The cheater's log, its META entry rewritten to claim the honest
    /// image (what a real cheater would do, as in Table 1), re-chained, so
    /// no authenticator vouches for it.
    cheater: Player,
}

struct Player {
    name: &'static str,
    log: Vec<LogEntry>,
    key: VerifyingKey,
    image: VmImage,
    authenticators: Vec<Authenticator>,
}

/// The authenticators `machine` handed the peer whose log is `peer`: those
/// inside the peer's acknowledgments of `machine`'s messages.
fn collected_from(machine: &str, peer: &TamperEvidentLog) -> Vec<Authenticator> {
    let mut dest_of_send = HashMap::new();
    let mut out = Vec::new();
    for entry in peer.entries() {
        match entry.kind {
            EntryKind::Send => {
                let rec = SendRecord::decode_exact(&entry.content).unwrap();
                dest_of_send.insert(entry.seq, rec.dest);
            }
            EntryKind::Ack => {
                let rec = AckRecord::decode_exact(&entry.content).unwrap();
                if dest_of_send.get(&rec.send_seq).map(String::as_str) == Some(machine) {
                    let ack = Acknowledgment::decode_exact(&rec.ack_bytes).unwrap();
                    out.extend(ack.authenticator);
                }
            }
            _ => {}
        }
    }
    out
}

/// Re-chains `entries` from `h_0 = 0` with `edit` applied to each
/// `(index, kind, content)`: a history the machine could have signed.
fn rechain(
    entries: &[LogEntry],
    edit: impl Fn(usize, EntryKind, &[u8]) -> Vec<u8>,
) -> Vec<LogEntry> {
    let mut log = TamperEvidentLog::new();
    for (i, e) in entries.iter().enumerate() {
        log.append(e.kind, edit(i, e.kind, &e.content));
    }
    log.entries().to_vec()
}

/// Records the match once: RSA key generation and signing are slow in
/// debug.
fn game() -> &'static Match {
    static GAME: OnceLock<Match> = OnceLock::new();
    GAME.get_or_init(|| {
        let registry = game_registry();
        let scheme = SignatureScheme::Rsa(512);
        let mut rng = StdRng::seed_from_u64(35);
        let players = ["alice", "bob"];
        let ids: Vec<Identity> = players
            .iter()
            .map(|p| Identity::generate(&mut rng, p, scheme))
            .collect();
        let server_id = Identity::generate(&mut rng, SERVER, scheme);
        let options = AvmmOptions::for_config(ExecConfig::AvmmRsa768).with_scheme(scheme);
        let cheat = avm_game::cheats::cheat_by_name("unlimited-ammo").unwrap();
        let mut rt = Runtime::new(LinkConfig::default());
        rt.set_steps_per_slice(30_000);
        let mut images = Vec::new();
        for (i, player) in players.iter().enumerate() {
            let honest = client_image(&ClientConfig::new(player, SERVER));
            let installed = match i {
                0 => honest.clone(),
                _ => client_image(&ClientConfig::new(player, SERVER).with_cheat(cheat.id)),
            };
            let mut avmm = Avmm::new(
                player,
                &installed,
                &registry,
                ids[i].signing_key.clone(),
                options.clone(),
            )
            .unwrap();
            avmm.add_peer(SERVER, server_id.verifying_key());
            rt.add_host(avmm);
            images.push(honest);
        }
        let names: Vec<String> = players.iter().map(|p| p.to_string()).collect();
        let mut server = Avmm::new(
            SERVER,
            &server_image(&ServerConfig::new(SERVER, &names)),
            &registry,
            server_id.signing_key.clone(),
            options,
        )
        .unwrap();
        for (i, p) in players.iter().enumerate() {
            server.add_peer(p, ids[i].verifying_key());
        }
        rt.add_host(server);
        let mut elapsed = 0;
        while elapsed < MATCH_US {
            if elapsed % 200_000 == 0 {
                for (i, p) in players.iter().enumerate() {
                    let host = rt.host_mut(p).unwrap();
                    let dir = if i == 0 { 1 } else { -1 };
                    host.inject_input(InputEvent {
                        device: 0,
                        code: avm_game::client::INPUT_MOVE_X,
                        value: dir,
                    });
                    host.inject_input(InputEvent {
                        device: 0,
                        code: avm_game::client::INPUT_FIRE,
                        value: 1,
                    });
                }
            }
            rt.tick(10_000).unwrap();
            elapsed += 10_000;
        }
        let server_log = rt.host(SERVER).unwrap().log();
        let mut players = players
            .iter()
            .zip(ids)
            .zip(images)
            .map(|((name, id), image)| {
                let log = rt.host(name).unwrap().log();
                assert!(
                    log.len() > SPLIT_THRESHOLD,
                    "{name} logged {} entries, not above the threshold",
                    log.len()
                );
                Player {
                    name,
                    log: log.entries().to_vec(),
                    key: id.verifying_key(),
                    authenticators: collected_from(name, server_log),
                    image,
                }
            });
        let honest = players.next().unwrap();
        let mut cheater = players.next().unwrap();
        let claimed = cheater.image.digest();
        cheater.log = rechain(&cheater.log, |_, kind, content| match kind {
            EntryKind::Meta => {
                let mut meta = MetaRecord::decode_exact(content).unwrap();
                meta.image_digest = claimed;
                meta.encode_to_vec()
            }
            _ => content.to_vec(),
        });
        cheater.authenticators.clear();
        assert!(honest.authenticators.len() > 4);
        Match { honest, cheater }
    })
}

/// What the sequential composition returns: the syntactic phase in one
/// part, then — only if it passed — the replay from the image.
struct Sequential {
    syntactic_ok: bool,
    fault: Option<FaultReason>,
    /// The summary a passing audit carries.
    passed: Option<ReplaySummary>,
    /// The replay's truthful progress (nothing replayed after a failed
    /// syntactic phase).
    progress: ReplaySummary,
}

fn sequential<E: EntryView>(
    segment: &[E],
    authenticators: &[Authenticator],
    key: &VerifyingKey,
    image: &VmImage,
) -> Sequential {
    let syntactic = segment_in_parts(&Digest::ZERO, segment, authenticators, key, 1)
        .map_err(|e| FaultReason::SyntacticFailure(e.to_string()))
        .and_then(|_| syntactic_content_checks(segment));
    if let Err(fault) = syntactic {
        return Sequential {
            syntactic_ok: false,
            fault: Some(fault),
            passed: None,
            progress: ReplaySummary::default(),
        };
    }
    let mut replayer = Replayer::from_image(image, &game_registry()).unwrap();
    let outcome = replayer.replay(segment);
    Sequential {
        syntactic_ok: true,
        fault: outcome.fault().cloned(),
        passed: match outcome {
            ReplayOutcome::Consistent(summary) => Some(summary),
            ReplayOutcome::Fault(_) => None,
        },
        progress: replayer.summary(),
    }
}

/// `segment`, a log from seq 1, as a provider ships it: the response body,
/// one run of records with hashes at the checkpoints.
fn shipped(segment: &[LogEntry]) -> Vec<u8> {
    encode_log_segment(&Digest::ZERO.0, 1, wire_entries(segment))
}

/// The shipped segment decoded in place, as an auditor receives it.
fn received(body: &[u8]) -> Vec<LogEntryRef<'_>> {
    match AuditResponseRef::decode_exact(body).unwrap() {
        AuditResponseRef::LogSegment {
            first_seq,
            count,
            records,
            ..
        } => decode_entries(first_seq, count, records).unwrap(),
        other => panic!("{}", other.variant_name()),
    }
}

/// Audits `segment` of `player` in process and over the wire, and holds
/// every report to the sequential composition; returns that composition's
/// fault.
fn audit_both_ways(
    player: &Player,
    segment: &[LogEntry],
    authenticators: &[Authenticator],
) -> Option<FaultReason> {
    let registry = game_registry();
    let (key, image) = (&player.key, &player.image);
    let want = sequential(segment, authenticators, key, image);
    // What the auditor receives over the wire, and the copy of it evidence
    // keeps: each entry with the hash the chain check gives it.
    let bytes = shipped(segment);
    let views = received(&bytes);
    let want_wire = sequential(&views, authenticators, key, image);
    let hashes = chain_in_parts(&Digest::ZERO, &views, 1).hashes;
    let kept: Vec<LogEntry> = views
        .iter()
        .zip(hashes)
        .map(|(view, hash)| view.to_entry(hash))
        .collect();

    let check = |report: &AuditReport, driver: &str, want: &Sequential, kept: &[LogEntry]| {
        assert_eq!(report.machine, player.name, "{driver}");
        assert_eq!(report.entries_examined, segment.len() as u64, "{driver}");
        assert_eq!(report.syntactic_ok, want.syntactic_ok, "{driver}");
        assert_eq!(report.fault(), want.fault.as_ref(), "{driver}");
        match &report.outcome {
            AuditOutcome::Pass(summary) => assert_eq!(Some(summary), want.passed.as_ref()),
            AuditOutcome::Fail(evidence) => {
                assert_eq!(evidence.segment, kept, "{driver}");
                assert_eq!(evidence.authenticators, authenticators, "{driver}");
                assert_eq!(evidence.prev_hash, Digest::ZERO, "{driver}");
                assert!(evidence.verify(key, image, &registry), "{driver}");
                // A third party's audit of the evidence finds the same fault.
                let again = audit_log(
                    player.name,
                    &evidence.prev_hash,
                    &evidence.segment,
                    &evidence.authenticators,
                    key,
                    image,
                    &registry,
                );
                assert_eq!(again.fault(), want.fault.as_ref(), "{driver}");
            }
        }
    };

    let local = audit_log(
        player.name,
        &Digest::ZERO,
        segment,
        authenticators,
        key,
        image,
        &registry,
    );
    check(&local, "audit::audit_log", &want, segment);

    // The provider serves `segment` exactly as given, damage included.
    let store = SnapshotStore::new();
    let client = || {
        AuditClient::new(SimNetTransport::new(
            AuditServer::with_log_source(segment, &store),
            LinkConfig::default(),
        ))
    };
    let remote = client()
        .audit_log(player.name, 1, 0, authenticators, key, image, &registry)
        .unwrap();
    check(&remote, "AuditClient::audit_log", &want_wire, &kept);
    // Where no hash is altered, the wire changes nothing.
    if kept == segment {
        assert_eq!(remote, local);
    }

    // The same session, read for its progress.
    let session = AuditSession::new(
        Start::Image {
            from_seq: 1,
            to_seq: 0,
        },
        image,
        &registry,
    )
    .with_authenticators(key, authenticators);
    let report = client().run(session).unwrap();
    assert_eq!(report.consistent, want_wire.fault.is_none());
    assert_eq!(report.fault, want_wire.fault);
    assert_eq!(report.entries_replayed, want_wire.progress.entries_replayed);
    assert_eq!(report.steps_replayed, want_wire.progress.steps_executed);
    assert_eq!(report.final_state, want_wire.progress.final_state);
    assert_eq!(report.authenticators_checked, authenticators.len());
    want.fault
}

/// The seq of the `n`-th held authenticator (in seq order) and the index of
/// its entry in the log.
fn held_at(player: &Player, n: usize) -> (u64, usize) {
    let mut seqs: Vec<u64> = player.authenticators.iter().map(|a| a.seq).collect();
    seqs.sort_unstable();
    let seq = seqs[n];
    (seq, seq as usize - 1)
}

#[test]
fn an_honest_log_passes_side_by_side() {
    let p = &game().honest;
    assert_eq!(audit_both_ways(p, &p.log, &p.authenticators), None);
}

#[test]
fn a_guest_cheat_is_the_replay_fault() {
    let p = &game().cheater;
    let fault = audit_both_ways(p, &p.log, &[]).expect("the cheat is caught");
    assert!(
        !matches!(fault, FaultReason::SyntacticFailure(_)),
        "a re-chained cheat passes the syntactic phase: {fault:?}"
    );
}

#[test]
fn a_twin_history_is_caught_by_a_held_authenticator() {
    // Drop the authenticator from one acknowledgment the machine logged:
    // the ACK still names its SEND, replay ignores ACKs, and the re-chained
    // history is well formed — only the held authenticators tell.
    let p = &game().honest;
    let (_, held) = held_at(p, p.authenticators.len() / 2);
    let ack = p.log[..held]
        .iter()
        .rposition(|e| e.kind == EntryKind::Ack)
        .expect("an ACK before the held authenticator");
    let twin = rechain(&p.log, |i, _, content| {
        if i != ack {
            return content.to_vec();
        }
        let mut rec = AckRecord::decode_exact(content).unwrap();
        rec.ack_bytes.push(0);
        rec.encode_to_vec()
    });
    let fault = audit_both_ways(p, &twin, &p.authenticators);
    assert!(
        matches!(&fault, Some(FaultReason::SyntacticFailure(d)) if d.contains("does not match")),
        "{fault:?}"
    );
    // Without the authenticators, the twin is a log that replays.
    assert_eq!(sequential(&twin, &[], &p.key, &p.image).fault, None);
}

#[test]
fn a_flipped_content_byte_breaks_the_chain() {
    let p = &game().honest;
    let mut log = p.log.clone();
    let at = log.len() * 3 / 4;
    let byte = log[at..]
        .iter()
        .position(|e| !e.content.is_empty())
        .unwrap()
        + at;
    log[byte].content[0] ^= 0x01;
    let fault = audit_both_ways(p, &log, &p.authenticators);
    let broken_at =
        |seq: usize| FaultReason::SyntacticFailure(format!("hash chain broken at sequence {seq}"));
    assert_eq!(fault, Some(broken_at(byte + 1)));
    // On the wire the flipped entry carries no hash: the first checkpoint
    // at or after it is where the chain breaks (`audit_both_ways` holds the
    // audit over the wire and its evidence to this).
    let n = log.len();
    let checkpoint = (byte..n).find(|&i| carries_hash(n, i)).unwrap();
    let bytes = shipped(&log);
    let wire = sequential(&received(&bytes), &p.authenticators, &p.key, &p.image);
    assert_eq!(wire.fault, Some(broken_at(checkpoint + 1)));
}

#[test]
fn an_undecodable_record_is_malformed() {
    let p = &game().honest;
    let at = p.log.len() * 2 / 3;
    let recv = p.log[at..]
        .iter()
        .position(|e| e.kind == EntryKind::Recv)
        .unwrap()
        + at;
    let log = rechain(&p.log, |i, _, content| match i == recv {
        true => vec![0xff; 3],
        false => content.to_vec(),
    });
    let fault = audit_both_ways(p, &log, &[]);
    assert_eq!(
        fault,
        Some(FaultReason::MalformedLog {
            seq: recv as u64 + 1
        })
    );
}

#[test]
fn a_syntactic_fault_wins_over_a_different_replay_fault() {
    // A SEND with a different payload, re-chained: replay faults at that
    // SEND, the held authenticator after it at its own seq.
    let p = &game().honest;
    let (_, held) = held_at(p, p.authenticators.len() - 1);
    let send = p.log[..held]
        .iter()
        .rposition(|e| e.kind == EntryKind::Send)
        .expect("a SEND before the last held authenticator");
    let twin = rechain(&p.log, |i, _, content| {
        if i != send {
            return content.to_vec();
        }
        let mut rec = SendRecord::decode_exact(content).unwrap();
        rec.payload.push(0x5a);
        rec.encode_to_vec()
    });
    let replay_alone = Replayer::from_image(&p.image, &game_registry())
        .unwrap()
        .replay(&twin);
    assert!(
        matches!(replay_alone.fault(), Some(FaultReason::OutputDivergence { seq, .. }) if *seq == send as u64 + 1),
        "{replay_alone:?}"
    );
    let fault = audit_both_ways(p, &twin, &p.authenticators).unwrap();
    assert!(
        matches!(fault, FaultReason::SyntacticFailure(_)),
        "{fault:?}"
    );
}
