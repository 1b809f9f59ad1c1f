//! `fleet_attested` — one provider node, waves of attesting auditors.
//!
//! The same db guest and the same seeded requests as `db_durable`, but
//! recorded in memory on a plain `Avmm` (no `Provider`).  The audit is
//! `fleet::run_attested_fleet`: waves of 12 on-demand auditors, 400
//! simulated µs apart, on one `ProviderNode`; one wave per chunk, over evenly spaced chunks in seeded order.
//! Each session attests the launch (nonce → quote → verdict) and then spot
//! checks its chunk.  One extra wave runs against a provider that booted a
//! tampered image and must be rejected at the door, one request per
//! session.  An op is one answered request; an audit is one session, and a
//! session's time is its wave's sample ÷ 12.
//!
//! Why it exists: `fleet` scheduling, the shared response cache, `wire`
//! seal/open, `attest` quote sign/verify and `endpoint` serving are hot;
//! its record phase is `db_durable`'s in-memory twin, so `store` does
//! nothing here and any `store` change must leave it flat.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::db_durable::{self, Setup};
use super::replays::{self, AuditTotals};
use super::service::{self, CUSTOMER, HOST};
use super::{
    report_audits, shuffle, timed_setup, trace_overhead_share, Outcome, Params, Phase, CYCLES_SHARE,
};
use crate::layers::{self, AttestVerdict, Avmm, FleetOutcome};
use crate::metrics::ratio;
use crate::timing::{percentile, time, Budget};
use crate::trace::Tracer;

pub const AUDITORS: usize = 12;
const INTER_ARRIVAL_US: u64 = 400;

struct Sizes {
    requests: usize,
    snapshot_every: usize,
    block: usize,
    waves: usize,
    min_cycles: usize,
}

impl Sizes {
    fn of(p: &Params) -> Sizes {
        if p.smoke {
            Sizes {
                requests: 48,
                snapshot_every: 8,
                block: 16,
                waves: 2,
                min_cycles: 2,
            }
        } else {
            Sizes {
                requests: 320,
                snapshot_every: 8,
                block: 40,
                waves: 4,
                min_cycles: 3,
            }
        }
    }
}

fn setup(seed: u64, sizes: &Sizes) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let operator = layers::generate_identity(&mut rng, HOST);
    let customer = layers::generate_identity(&mut rng, CUSTOMER);
    let plan = db_durable::db_plan(
        &mut rng,
        &customer,
        sizes.requests,
        sizes.snapshot_every,
        sizes.block,
    );
    let setup = Setup {
        operator,
        customer,
        image: layers::db_image(CUSTOMER),
        plan,
    };
    // Warm-up: two chunks recorded, one small wave.
    let mut tr = Tracer::new(false);
    let warm = service::prefix(&setup.plan, 2 * sizes.snapshot_every);
    let mut avmm = db_durable::new_memory_host(&setup);
    service::record(&mut avmm, &warm, &mut tr);
    let _ = Served::new(&avmm, &setup.image).wave(&policy(&setup), 0, 2, &mut tr);
    setup
}

/// A provider as a wave sees it: the monitor, the image it booted and its
/// attestation responder (built once, at launch).
struct Served<'a> {
    avmm: &'a Avmm,
    booted: &'a layers::VmImage,
    attestor: layers::Attestor,
}

impl<'a> Served<'a> {
    fn new(avmm: &'a Avmm, booted: &'a layers::VmImage) -> Served<'a> {
        Served {
            avmm,
            booted,
            attestor: layers::attestor_for(avmm, booted),
        }
    }

    /// One wave of `auditors` attesting on-demand sessions, all checking
    /// chunk `c`, judged against `policy` (the *expected* launch).
    fn wave(
        &self,
        policy: &layers::LaunchPolicy,
        c: u64,
        auditors: usize,
        tr: &mut Tracer,
    ) -> FleetOutcome {
        layers::attested_fleet_wave(
            tr,
            self.avmm,
            self.booted,
            &layers::db_registry(),
            c,
            auditors,
            INTER_ARRIVAL_US,
            &self.attestor,
            policy,
        )
    }
}

fn policy(setup: &Setup) -> layers::LaunchPolicy {
    layers::launch_policy(&setup.image, HOST, &setup.operator.verifying_key())
}

/// What the waves of one pass reported, beyond the sessions' own reports.
#[derive(Default)]
struct FleetTotals {
    requests_served: u64,
    cache_hits: u64,
    cache_misses: u64,
    sessions: u64,
    event_loop_steps: u64,
    latencies_us: Vec<u64>,
}

impl FleetTotals {
    fn add(&mut self, outcome: &FleetOutcome) {
        for provider in &outcome.providers {
            self.requests_served += provider.requests_served;
            self.cache_hits += provider.cache.hits;
            self.cache_misses += provider.cache.misses;
            self.sessions += provider.sessions_created;
        }
        self.event_loop_steps += outcome.event_loop.steps;
        self.latencies_us.extend(&outcome.latencies_us);
    }

    fn report(&self, pass_ns: u64, l: &mut crate::metrics::Metrics) {
        l.set("fleet.requests_served", self.requests_served as f64);
        l.set("fleet.cache_hits", self.cache_hits as f64);
        l.set("fleet.cache_misses", self.cache_misses as f64);
        l.set(
            "fleet.cache_hit_ratio",
            ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses) as f64,
            ),
        );
        l.set("fleet.sessions", self.sessions as f64);
        l.set("fleet.event_loop_steps", self.event_loop_steps as f64);
        l.set(
            "fleet.host_ns_per_request",
            ratio(pass_ns as f64, self.requests_served as f64),
        );
        l.set(
            "fleet.sim_p50_us",
            percentile(&self.latencies_us, 50.0) as f64,
        );
        l.set(
            "fleet.sim_p99_us",
            percentile(&self.latencies_us, 99.0) as f64,
        );
        // The fleet's own counters say what the endpoint served.
        l.set("endpoint.requests", self.requests_served as f64);
    }
}

pub fn run(p: &Params, tr: &mut Tracer, out: &mut Outcome) {
    let sizes = Sizes::of(p);
    let pool_before = layers::pool_stats();
    let registry = layers::db_registry();
    let mut budget = Budget::start(
        p.seconds * CYCLES_SHARE,
        Phase::min_reps(p, sizes.min_cycles),
    );
    let (setup, setup_s) = timed_setup(|| setup(p.seed, &sizes));
    out.end_to_end.set("setup_s", setup_s);
    out.inputs_digest = setup.plan.inputs_digest();

    // --- cycles: a recording (db_durable's in-memory twin), the bare
    // run, then one wave per chunk ---
    let chunks = setup.plan.chunks();
    // Evenly spaced chunks (a later chunk's disk chain is longer, so which
    // chunks are audited decides the cost); the seed decides their order.
    let waves = sizes.waves.min(chunks);
    let mut order: Vec<u64> = (0..waves)
        .map(|i| ((2 * i + 1) * chunks / (2 * waves)) as u64)
        .collect();
    shuffle(&mut StdRng::seed_from_u64(p.seed ^ 0xf1ee7), &mut order);
    let policy = policy(&setup);
    let mut phase = service::RecordPhase::new(&setup.plan);
    let mut audits = Phase::new(order.len());
    let mut totals = AuditTotals::default();
    let mut fleet = FleetTotals::default();
    let mut kept: Option<Avmm> = None;
    let mut rep = 0;
    while budget.more(rep) {
        drop(kept.take());
        let mut avmm = db_durable::new_memory_host(&setup);
        phase.rep(
            p,
            tr,
            out,
            &setup.plan,
            &setup.image,
            &registry,
            rep,
            &mut avmm,
            |_| Vec::new(),
        );
        let served = Served::new(&avmm, &setup.image);
        totals = AuditTotals::default();
        fleet = FleetTotals::default();
        for (input, &c) in order.iter().enumerate() {
            tr.set_op("audit", input, rep);
            let (outcome, ns) = time(|| served.wave(&policy, c, AUDITORS, tr));
            audits.record(tr, input, ns);
            out.checks.check(outcome.event_loop.quiescent, || {
                format!("wave on chunk {c}: the event loop did not quiesce")
            });
            fleet.add(&outcome);
            for (verdict, report) in outcome.attest_verdicts.iter().zip(outcome.reports) {
                out.checks
                    .check(*verdict == Some(AttestVerdict::Verified), || {
                        format!("session on chunk {c}: launch verdict {verdict:?}")
                    });
                service::check_spot_check(out, &mut totals, avmm.snapshots(), c, report);
            }
        }
        kept = Some(avmm);
        rep += 1;
    }
    out.cycles = rep;
    tr.set_enabled(p.trace);
    let rec = phase.finish(kept.expect("at least one cycle"), out);
    let avmm = &rec.host;
    let store = avmm.snapshots();
    let record_ns = rec.times.record_ns();
    let served = Served::new(avmm, &setup.image);
    let pass_ns = audits.all.total_ns();
    // One auditor's pass over the whole execution, estimated from the
    // sampled chunks: (Σ wave samples ÷ 12) scaled to every chunk.
    let whole_pass_ns = pass_ns as f64 / AUDITORS as f64 * chunks as f64 / order.len() as f64;
    report_audits(
        &audits.all,
        AUDITORS as u64,
        whole_pass_ns as u64,
        record_ns,
        totals.wire_bytes,
        out,
    );

    // --- a provider that booted a tampered image is rejected at the door ---
    tr.set_op("twin", 0, 0);
    let rogue_image = setup.image.clone().with_disk(vec![0xEE; 512]);
    let rogue = layers::new_avmm(
        HOST,
        &rogue_image,
        &registry,
        &setup.operator.signing_key,
        db_durable::options(),
    );
    let outcome = Served::new(&rogue, &rogue_image).wave(&policy, 0, AUDITORS, tr);
    let rejected = outcome
        .attest_verdicts
        .iter()
        .all(|v| *v == Some(AttestVerdict::ImageMismatch))
        && outcome.reports.iter().all(Result::is_err)
        && outcome.providers[0].requests_served == AUDITORS as u64;
    out.checks.check(rejected != p.sabotage, || {
        format!(
            "tampered-image provider: verdicts={:?} requests_served={}",
            outcome.attest_verdicts, outcome.providers[0].requests_served
        )
    });

    if !p.trace {
        return;
    }
    service::record_side_replays(
        tr,
        out,
        &rec,
        &setup.plan,
        &setup.operator.signing_key,
        &setup.image,
        &registry,
        || db_durable::new_memory_host(&setup),
    );
    let l = &mut out.per_layer;
    totals.report(l);
    fleet.report(pass_ns, l);
    replays::net_units(
        tr,
        (totals.wire_bytes / (2 * totals.round_trips).max(1)) as usize,
        l,
    );
    let attestor = &served.attestor;
    let seeded = layers::cache_seeded_from(&setup.image, &registry);
    let audited = replays::Audited {
        server: layers::AuditServer::new(avmm.log(), store).with_attestor(attestor),
        store,
        image: &setup.image,
        registry: &registry,
        cache: Some(&seeded),
    };
    let targets: Vec<_> = order.iter().take(4).map(|&c| (&audited, c)).collect();
    replays::audit_units(
        tr,
        &targets,
        replays::Mode::OnDemand,
        pass_ns,
        totals.audits,
        l,
    );
    replays::attest_units(tr, avmm, &setup.image, attestor, &policy, l);
    replays::pool_units(&pool_before, l);
    l.set(
        "host.trace_overhead_share",
        trace_overhead_share(&[&rec.times.record, &audits]),
    );
}
