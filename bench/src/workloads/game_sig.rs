//! `game_sig` — the paper's §6.2–6.7 match.
//!
//! Three `avm-game` clients and a server on `Runtime`, every host under
//! `ExecConfig::AvmmRsa768`, no snapshots.  An op is one rendered client
//! frame; record inputs are 1-simulated-second blocks.  The audit is the
//! paper's after-the-match audit: each of the four hosts' whole logs is
//! downloaded over `SimNetTransport` and checked syntactically (hash
//! chain, the authenticators its peers collected) and by full replay.  One
//! extra match is played with a cheating first player, whose audit must
//! fail.
//!
//! Why it exists: it is packet-dense, so `crypto` sign/verify, `log`
//! append/verify and envelopes do nearly all the work while `snapshot`,
//! `store`, `ondemand` and `compress` do none.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::replays::{self, AuditTotals};
use super::{
    report_audits, timed_setup, trace_overhead_share, Outcome, Params, Phase, RecordTimes,
    CYCLES_SHARE,
};
use crate::barehost::{BareHost, BareScript, BareStats};
use crate::layers::{self, Authenticator, Identity, InputEvent, Runtime, VmImage};
use crate::timing::{time, Budget};
use crate::trace::Tracer;

const PLAYERS: [&str; 3] = ["alice", "bob", "charlie"];
const CHEAT: &str = "unlimited-ammo";
const TICK_US: u64 = 10_000;
const TICKS_PER_BLOCK: u64 = 100;
/// A new burst of local input on every player each 200 simulated ms.
const TICKS_PER_BURST: u64 = 20;
const STEPS_PER_TICK: u64 = 30_000;

struct Sizes {
    sim_seconds: u64,
    cheat_sim_seconds: u64,
    min_cycles: usize,
}

impl Sizes {
    fn of(p: &Params) -> Sizes {
        if p.smoke {
            Sizes {
                sim_seconds: 1,
                cheat_sim_seconds: 1,
                min_cycles: 2,
            }
        } else {
            Sizes {
                sim_seconds: 4,
                cheat_sim_seconds: 1,
                min_cycles: 3,
            }
        }
    }
}

/// Everything derived from the seed before the clock starts.
struct Setup {
    players: Vec<Identity>,
    server: Identity,
    honest_images: Vec<VmImage>,
    cheat_image: VmImage,
    server_image: VmImage,
    /// `bursts[b][player]` — the local inputs of burst `b`.
    bursts: Vec<Vec<[InputEvent; 2]>>,
}

impl Setup {
    /// Digest of the keys and local inputs the seed generated.
    fn inputs_digest(&self) -> String {
        let mut parts: Vec<Vec<u8>> = self
            .players
            .iter()
            .chain([&self.server])
            .map(|id| id.verifying_key().to_bytes())
            .collect();
        for event in self.bursts.iter().flatten().flatten() {
            parts.push(format!("{}:{}", event.code, event.value).into_bytes());
        }
        layers::digest_of(parts.iter().map(Vec::as_slice))
    }
}

fn setup(seed: u64, sizes: &Sizes) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let players: Vec<Identity> = PLAYERS
        .iter()
        .map(|p| layers::generate_identity(&mut rng, p))
        .collect();
    let server = layers::generate_identity(&mut rng, layers::GAME_SERVER);
    let names: Vec<String> = PLAYERS.iter().map(|p| p.to_string()).collect();
    let bursts_needed = sizes.sim_seconds * TICKS_PER_BLOCK / TICKS_PER_BURST;
    let bursts = (0..bursts_needed)
        .map(|_| {
            PLAYERS
                .iter()
                .map(|_| {
                    let axis = rng.gen_range(0..2);
                    let dir = if rng.gen::<bool>() { 1 } else { -1 };
                    let second = if rng.gen::<bool>() {
                        layers::game_input(3, rng.gen_range(0..2) as i64)
                    } else {
                        layers::game_input(2, rng.gen_range(0..9000) as i64 - 4500)
                    };
                    [layers::game_input(axis, dir), second]
                })
                .collect()
        })
        .collect();
    let setup = Setup {
        players,
        server,
        honest_images: PLAYERS
            .iter()
            .map(|p| layers::game_client_image(p, None))
            .collect(),
        cheat_image: layers::game_client_image(PLAYERS[0], Some(CHEAT)),
        server_image: layers::game_server_image(&names),
        bursts,
    };
    // Warm-up: 0.6 simulated seconds of a match and one audit, so the
    // worker pool exists and the code is paged in before anything is timed
    // (and so that set-up time is not mostly the luck of the prime search).
    let mut tr = Tracer::new(false);
    let warm = record(&setup, false, 0, 60, &mut tr);
    let _ = audit_host(&setup, &warm, 3, &authenticators_of(&warm, 3), &mut tr);
    setup
}

/// One played match: the runtime still holding every host, and where each
/// timed block ended.
struct Match {
    rt: Runtime,
    block_ns: Vec<u64>,
    /// `block_ends[host][block]` = (log length, guest step).
    block_ends: Vec<Vec<(usize, u64)>>,
    frames_per_block: Vec<u64>,
}

fn host_names() -> [&'static str; 4] {
    [PLAYERS[0], PLAYERS[1], PLAYERS[2], layers::GAME_SERVER]
}

impl Match {
    fn avmm(&self, host: usize) -> &layers::Avmm {
        self.rt.host(host_names()[host]).expect("host exists")
    }

    /// The counts that must repeat exactly from one recording to the next.
    fn exact_counts(&self) -> Vec<u64> {
        let mut counts = self.frames_per_block.clone();
        for h in 0..4 {
            let a = self.avmm(h);
            let s = a.stats();
            counts.extend([
                a.log().len() as u64,
                a.log_bytes(),
                a.machine().step_count(),
                s.packets_in,
                s.packets_out,
                s.signatures_made,
            ]);
        }
        counts
    }

    fn log_bytes(&self) -> u64 {
        (0..4).map(|h| self.avmm(h).log_bytes()).sum()
    }
}

/// Plays `blocks` simulated seconds (plus `extra_ticks`) and times each
/// block.
fn record(setup: &Setup, cheat: bool, blocks: u64, extra_ticks: u64, tr: &mut Tracer) -> Match {
    let registry = layers::game_registry();
    let options =
        layers::AvmmOptions::for_config(layers::ExecConfig::AvmmRsa768).with_scheme(layers::SCHEME);
    let mut rt = Runtime::new(layers::LinkConfig::default());
    rt.set_steps_per_slice(STEPS_PER_TICK);
    for (i, player) in PLAYERS.iter().enumerate() {
        let image = if cheat && i == 0 {
            &setup.cheat_image
        } else {
            &setup.honest_images[i]
        };
        let mut avmm = layers::new_avmm(
            player,
            image,
            &registry,
            &setup.players[i].signing_key,
            options.clone(),
        );
        avmm.add_peer(layers::GAME_SERVER, setup.server.verifying_key());
        rt.add_host(avmm);
    }
    let mut server = layers::new_avmm(
        layers::GAME_SERVER,
        &setup.server_image,
        &registry,
        &setup.server.signing_key,
        options,
    );
    for (i, player) in PLAYERS.iter().enumerate() {
        server.add_peer(player, setup.players[i].verifying_key());
    }
    rt.add_host(server);

    let mut m = Match {
        rt,
        block_ns: Vec::new(),
        block_ends: vec![Vec::new(); 4],
        frames_per_block: Vec::new(),
    };
    let mut frames_before = 0;
    let total_ticks = blocks * TICKS_PER_BLOCK + extra_ticks;
    let mut block_started = std::time::Instant::now();
    for tick in 0..total_ticks {
        if tick.is_multiple_of(TICKS_PER_BURST) {
            let burst = &setup.bursts[(tick / TICKS_PER_BURST) as usize % setup.bursts.len()];
            for (player, events) in PLAYERS.iter().zip(burst) {
                let host = m.rt.host_mut(player).expect("player host");
                for event in events {
                    layers::avmm_inject_input(tr, host, *event);
                }
            }
        }
        layers::runtime_tick(tr, &mut m.rt, TICK_US);
        if (tick + 1).is_multiple_of(TICKS_PER_BLOCK) && tick < blocks * TICKS_PER_BLOCK {
            m.block_ns.push(block_started.elapsed().as_nanos() as u64);
            for h in 0..4 {
                let a = m.avmm(h);
                let end = (a.log().len(), a.machine().step_count());
                m.block_ends[h].push(end);
            }
            let frames: u64 = (0..3)
                .map(|h| layers::game_frames_rendered(m.avmm(h).machine()))
                .sum();
            m.frames_per_block.push(frames - frames_before);
            frames_before = frames;
            block_started = std::time::Instant::now();
        }
    }
    m
}

/// The same guests on bare machines, fed the recorded inputs.
struct BareMatch {
    scripts: Vec<BareScript>,
}

impl BareMatch {
    fn of(m: &Match) -> BareMatch {
        BareMatch {
            scripts: (0..4)
                .map(|h| BareScript::from_log(m.avmm(h).log().entries(), &m.block_ends[h]))
                .collect(),
        }
    }

    /// Runs every block on all four machines; returns block times, the
    /// hosts' counters and whether each machine ended where the recording
    /// did.
    fn run(&self, setup: &Setup, m: &Match) -> (Vec<u64>, BareStats, bool) {
        let registry = layers::game_registry();
        let mut hosts: Vec<BareHost> = (0..4)
            .map(|h| {
                let image = if h < 3 {
                    &setup.honest_images[h]
                } else {
                    &setup.server_image
                };
                BareHost::new(
                    layers::machine_from_image(image, &registry),
                    &self.scripts[h],
                )
            })
            .collect();
        let blocks = self.scripts[0].blocks();
        let block_ns = (0..blocks)
            .map(|_| {
                time(|| {
                    for host in hosts.iter_mut() {
                        host.run_block();
                    }
                })
                .1
            })
            .collect();
        let mut stats = BareStats::default();
        let mut same = true;
        for (h, host) in hosts.iter().enumerate() {
            stats.exits += host.stats().exits;
            stats.packets_out += host.stats().packets_out;
            let end_step = m.block_ends[h].last().map_or(0, |e| e.1);
            same &= host.machine().step_count() == end_step;
        }
        (block_ns, stats, same)
    }
}

/// The authenticators host `h` handed to its peers during the match.
fn authenticators_of(m: &Match, h: usize) -> Vec<Authenticator> {
    let peers: Vec<&layers::TamperEvidentLog> = (0..4)
        .filter(|&p| p != h)
        .map(|p| m.avmm(p).log())
        .collect();
    layers::collect_authenticators(host_names()[h], &peers)
}

struct AuditResult {
    passed: bool,
    fault: Option<layers::FaultReason>,
    entries_examined: u64,
    steps_replayed: u64,
    wire_bytes: u64,
    sim_us: u64,
    round_trips: u64,
}

/// Audits host `h`'s whole log over the simulated network, against the
/// *honest* reference image.
fn audit_host(
    setup: &Setup,
    m: &Match,
    h: usize,
    auths: &[Authenticator],
    tr: &mut Tracer,
) -> AuditResult {
    let registry = layers::game_registry();
    let avmm = m.avmm(h);
    let (image, key) = if h < 3 {
        (&setup.honest_images[h], setup.players[h].verifying_key())
    } else {
        (&setup.server_image, setup.server.verifying_key())
    };
    let mut client = layers::sim_client(layers::AuditServer::new(avmm.log(), avmm.snapshots()));
    let report = layers::audit_whole_log(
        tr,
        &mut client,
        host_names()[h],
        auths,
        &key,
        image,
        &registry,
    )
    .expect("lossless link answers");
    let stats = client.transport_stats();
    AuditResult {
        passed: report.passed(),
        fault: report.fault().cloned(),
        entries_examined: report.entries_examined,
        steps_replayed: match &report.outcome {
            layers::AuditOutcome::Pass(summary) => summary.steps_executed,
            layers::AuditOutcome::Fail(_) => 0,
        },
        wire_bytes: stats.wire_bytes(),
        sim_us: stats.elapsed_micros,
        round_trips: stats.round_trips,
    }
}

pub fn run(p: &Params, tr: &mut Tracer, out: &mut Outcome) {
    let sizes = Sizes::of(p);
    let pool_before = layers::pool_stats();
    let mut budget = Budget::start(
        p.seconds * CYCLES_SHARE,
        Phase::min_reps(p, sizes.min_cycles),
    );
    let (setup, setup_s) = timed_setup(|| setup(p.seed, &sizes));
    out.end_to_end.set("setup_s", setup_s);
    out.inputs_digest = setup.inputs_digest();

    // --- cycles: a recording, the bare run, then every host's audit ---
    // The repetitions of every input are spread over the whole run, so a
    // noisy stretch of the host cannot cover all of one input's executions.
    let mut times = RecordTimes::new(vec![0; sizes.sim_seconds as usize]);
    let mut audits = Phase::new(4);
    let mut totals = AuditTotals::default();
    let mut auths: Vec<Vec<Authenticator>> = Vec::new();
    let mut kept: Option<(Match, BareMatch)> = None;
    let mut bare_stats = BareStats::default();
    let mut rep = 0;
    while budget.more(rep) {
        times.record.begin_rep(p, tr, rep);
        tr.set_op("record", 0, rep);
        // Only one match is alive at a time: four logs are most of the
        // process's memory.
        let previous = kept.take().map(|(m, bare)| (m.exact_counts(), bare));
        let m = record(&setup, false, sizes.sim_seconds, 0, tr);
        times.record.record_rep(tr, &m.block_ns);
        let bare = match previous {
            Some((first, bare)) => {
                out.checks.check(first == m.exact_counts(), || {
                    format!("recording {rep} differs from recording 0 in an exact count")
                });
                bare
            }
            None => BareMatch::of(&m),
        };
        let mut same_end = true;
        times.record_bare(|| {
            let (bare_ns, stats, same) = bare.run(&setup, &m);
            same_end &= same;
            bare_stats = stats;
            bare_ns
        });
        out.checks.check(same_end, || {
            "a bare machine did not end at the recorded step".into()
        });

        // The authenticators were collected while the match ran (§4.3); an
        // audit's clock starts when the auditor asks for the log.
        auths = (0..4).map(|h| authenticators_of(&m, h)).collect();
        totals = AuditTotals::default();
        for (h, auths) in auths.iter().enumerate() {
            tr.set_op("audit", h, rep);
            let (r, ns) = time(|| audit_host(&setup, &m, h, auths, tr));
            audits.record(tr, h, ns);
            let avmm = m.avmm(h);
            let expected_steps = layers::last_event_step(avmm.log().entries());
            out.checks.check(
                r.passed
                    && r.entries_examined == avmm.log().len() as u64
                    && r.steps_replayed == expected_steps,
                || {
                    format!(
                        "honest audit of {}: passed={} fault={:?} entries={} steps={} (expected {} / {})",
                        host_names()[h],
                        r.passed,
                        r.fault,
                        r.entries_examined,
                        r.steps_replayed,
                        avmm.log().len(),
                        expected_steps
                    )
                },
            );
            totals.audits += 1;
            totals.wire_bytes += r.wire_bytes;
            totals.sim_us += r.sim_us;
            totals.round_trips += r.round_trips;
            totals.entries += r.entries_examined;
            totals.steps += r.steps_replayed;
        }
        kept = Some((m, bare));
        rep += 1;
    }
    out.cycles = rep;
    tr.set_enabled(p.trace);
    let (m, _) = kept.expect("at least one cycle");
    times.ops_per_block = m.frames_per_block.clone();
    out.checks.passed(times.ops());
    times.report(m.log_bytes(), out);
    let pass_ns = audits.all.total_ns();
    report_audits(
        &audits.all,
        1,
        pass_ns,
        times.record_ns(),
        totals.wire_bytes,
        out,
    );

    // --- the cheating twin must be caught ---
    tr.set_op("twin", 0, 0);
    let cheat = record(&setup, true, sizes.cheat_sim_seconds, 0, tr);
    let r = audit_host(&setup, &cheat, 0, &authenticators_of(&cheat, 0), tr);
    let caught = !r.passed
        && matches!(
            r.fault,
            Some(layers::FaultReason::ImageMismatch { .. })
                | Some(layers::FaultReason::OutputDivergence { .. })
                | Some(layers::FaultReason::EventDivergence { .. })
        );
    out.checks.check(caught != p.sabotage, || {
        format!(
            "cheating {}: passed={} fault={:?}",
            PLAYERS[0], r.passed, r.fault
        )
    });
    drop(cheat);

    if !p.trace {
        return;
    }
    // --- layer replays ---
    tr.set_op("replay", 0, 0);
    let l = &mut out.per_layer;
    let record_ns = times.record_ns();
    let avmms: Vec<&layers::Avmm> = (0..4).map(|h| m.avmm(h)).collect();
    let stats: Vec<_> = avmms.iter().map(|a| a.stats()).collect();
    replays::recording_counts(&avmms, &stats, l);
    replays::vm_units(&times.bare, bare_stats.exits, l);
    let server = m.avmm(3);
    replays::crypto_units(
        tr,
        &setup.server.signing_key,
        layers::state_tree_leaves(server.machine()),
        record_ns,
        l,
    );
    replays::log_units(tr, server.log(), &auths[3], &setup.server.signing_key, l);
    let spans_before = tr.spans().len();
    let replayed = replay_server(&setup, server, tr);
    replays::recorder_units(tr, spans_before, &replayed, record_ns, l);
    let sent: Vec<_> = m.rt.net().all_stats();
    let packets: u64 = sent.iter().map(|(_, s)| s.tx_packets).sum();
    let bytes: u64 = sent.iter().map(|(_, s)| s.tx_bytes).sum();
    l.set("net.packets", packets as f64);
    replays::net_units(tr, (bytes / packets.max(1)) as usize, l);
    totals.report(l);
    let registry = layers::game_registry();
    let audited: Vec<replays::Audited> = (0..4)
        .map(|h| replays::Audited {
            server: layers::AuditServer::new(m.avmm(h).log(), m.avmm(h).snapshots()),
            store: m.avmm(h).snapshots(),
            image: if h < 3 {
                &setup.honest_images[h]
            } else {
                &setup.server_image
            },
            registry: &registry,
            cache: None,
        })
        .collect();
    let targets: Vec<_> = audited.iter().map(|a| (a, 0)).collect();
    replays::audit_units(tr, &targets, replays::Mode::WholeLog, pass_ns, 4, l);
    replays::pool_units(&pool_before, l);
    l.set(
        "host.trace_overhead_share",
        trace_overhead_share(&[&times.record, &audits]),
    );
}

/// Re-drives the recorder on the server's own inputs: a fresh server
/// monitor is delivered the packets the recorded server received (re-signed
/// by their senders) — `Runtime::tick` hides these calls during the match.
fn replay_server(setup: &Setup, recorded: &layers::Avmm, tr: &mut Tracer) -> layers::Avmm {
    const PACKETS: usize = 300;
    let options =
        layers::AvmmOptions::for_config(layers::ExecConfig::AvmmRsa768).with_scheme(layers::SCHEME);
    let mut server = layers::new_avmm(
        layers::GAME_SERVER,
        &setup.server_image,
        &layers::game_registry(),
        &setup.server.signing_key,
        options,
    );
    for (i, player) in PLAYERS.iter().enumerate() {
        server.add_peer(player, setup.players[i].verifying_key());
    }
    let received = layers::received_packets(recorded.log(), PACKETS);
    let mut clock = layers::HostClock::at(0);
    layers::avmm_run_slice(tr, &mut server, &clock, STEPS_PER_TICK);
    for (i, (source, payload)) in received.into_iter().enumerate() {
        let sender = PLAYERS
            .iter()
            .position(|p| *p == source)
            .expect("the server hears only from players");
        let envelope = layers::data_envelope(
            &source,
            layers::GAME_SERVER,
            i as u64 + 1,
            payload,
            &setup.players[sender].signing_key,
        );
        clock.advance_to(clock.now() + TICK_US / 3);
        layers::avmm_deliver(tr, &mut server, &envelope);
        layers::avmm_run_slice(tr, &mut server, &clock, STEPS_PER_TICK);
    }
    server
}
