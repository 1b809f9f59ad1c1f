//! `db_durable` — the §6.12 cloud service, recorded durably.
//!
//! The `avm-db` guest answers seeded insert/select/update/delete requests
//! under RSA-768, recorded through `persist::Provider` on `FileStorage`
//! with real fsync and the default `PersistConfig`, with a full-memory
//! snapshot every 8 requests.  An op is one answered request; record
//! inputs are 40-request blocks.  In every cycle the provider is then
//! dropped and `Provider::recover` rebuilds it from the files; the audit is
//! a blocking full-download `spot_check(c, 1)` of every chunk of the
//! recovered provider over `SimNetTransport`.  A twin log with one forged
//! SEND must fault.
//!
//! Why it exists: the write side of `snapshot` and all of `store`, and the
//! full-dump read side (`transfer_stream_upto`, `compress`, `materialize`).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::replays::{self, AuditTotals};
use super::service::{self, Plan, Request, CUSTOMER, HOST};
use super::{
    report_audits, timed_setup, trace_overhead_share, Outcome, Params, Phase, CYCLES_SHARE,
};
use crate::layers::{self, DbRequest, DbResponse, DurableProvider, Encode, Identity, VmImage};
use crate::metrics::ratio;
use crate::timing::{time, Budget, Sampler};
use crate::trace::Tracer;

pub struct Sizes {
    pub requests: usize,
    pub snapshot_every: usize,
    pub block: usize,
    pub min_cycles: usize,
}

impl Sizes {
    fn of(p: &Params) -> Sizes {
        if p.smoke {
            Sizes {
                requests: 48,
                snapshot_every: 8,
                block: 16,
                min_cycles: 2,
            }
        } else {
            Sizes {
                requests: 320,
                snapshot_every: 8,
                block: 40,
                min_cycles: 3,
            }
        }
    }
}

pub struct Setup {
    pub operator: Identity,
    pub customer: Identity,
    pub image: VmImage,
    pub plan: Plan,
}

/// Seeded requests in a fixed kind pattern (so every seed does the same
/// amount of each kind of work) against seeded keys and values; every
/// request succeeds.  Returns them signed, with the expected answers.
pub fn db_plan(
    rng: &mut StdRng,
    customer: &Identity,
    sizes_requests: usize,
    snapshot_every: usize,
    block: usize,
) -> Plan {
    #[derive(Clone, Copy)]
    enum Kind {
        Insert,
        Select,
        Update,
        Delete,
    }
    use Kind::*;
    // Net growth of two records per eight requests: real, growing state.
    const PATTERN: [Kind; 8] = [
        Insert, Insert, Select, Update, Insert, Select, Update, Delete,
    ];
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut keys: Vec<String> = Vec::new();
    let value = |rng: &mut StdRng| -> Vec<u8> {
        (0..48).map(|_| b'a' + rng.gen_range(0..26) as u8).collect()
    };
    let requests = (0..sizes_requests)
        .map(|i| {
            let existing = |rng: &mut StdRng, keys: &[String]| {
                keys[rng.gen_range(0..keys.len() as u64) as usize].clone()
            };
            let (request, response) = match PATTERN[i % PATTERN.len()] {
                Insert => {
                    let key = format!("row:{:016x}", rng.gen::<u64>());
                    let v = value(rng);
                    keys.push(key.clone());
                    model.insert(key.clone(), v.clone());
                    (DbRequest::Put { key, value: v }, DbResponse::Ok)
                }
                Select => {
                    let key = existing(rng, &keys);
                    let v = model[&key].clone();
                    (DbRequest::Get { key }, DbResponse::Value(v))
                }
                Update => {
                    let key = existing(rng, &keys);
                    let v = value(rng);
                    model.insert(key.clone(), v.clone());
                    (DbRequest::Put { key, value: v }, DbResponse::Ok)
                }
                Delete => {
                    let at = rng.gen_range(0..keys.len() as u64) as usize;
                    let key = keys.swap_remove(at);
                    model.remove(&key);
                    (DbRequest::Delete { key }, DbResponse::Ok)
                }
            };
            Request {
                envelope: layers::data_envelope(
                    CUSTOMER,
                    HOST,
                    i as u64 + 1,
                    layers::encode_guest_packet(HOST, &request.encode_to_vec()),
                    &customer.signing_key,
                ),
                expected: layers::encode_guest_packet(CUSTOMER, &response.encode_to_vec()),
            }
        })
        .collect();
    Plan {
        requests,
        snapshot_every,
        block,
        slice_steps: 100_000,
    }
}

pub fn options() -> layers::AvmmOptions {
    layers::AvmmOptions::default().with_scheme(layers::SCHEME)
}

fn setup(seed: u64, sizes: &Sizes) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let operator = layers::generate_identity(&mut rng, HOST);
    let customer = layers::generate_identity(&mut rng, CUSTOMER);
    let plan = db_plan(
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
    // Warm-up: the first two chunks recorded in memory and one spot check.
    let mut tr = Tracer::new(false);
    let warm_plan = service::prefix(&setup.plan, 2 * sizes.snapshot_every);
    let mut avmm = new_memory_host(&setup);
    service::record(&mut avmm, &warm_plan, &mut tr);
    let mut client = layers::sim_client(layers::AuditServer::new(avmm.log(), avmm.snapshots()));
    let _ = layers::spot_check(
        &mut tr,
        &mut client,
        0,
        &setup.image,
        &layers::db_registry(),
    );
    setup
}

/// The same guest under a plain in-memory monitor (warm-up here; the whole
/// record phase of `fleet_attested`).
pub fn new_memory_host(setup: &Setup) -> layers::Avmm {
    let mut avmm = layers::new_avmm(
        HOST,
        &setup.image,
        &layers::db_registry(),
        &setup.operator.signing_key,
        options(),
    );
    avmm.add_peer(CUSTOMER, setup.customer.verifying_key());
    avmm
}

fn new_durable_host(setup: &Setup, dir: &std::path::Path) -> DurableProvider {
    let mut provider = layers::provider_create(
        dir,
        HOST,
        &setup.image,
        &layers::db_registry(),
        &setup.operator.signing_key,
        options(),
    );
    provider.add_peer(CUSTOMER, setup.customer.verifying_key());
    provider
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
    let dir = layers::scratch_dir(&p.out_dir, &format!("db_durable-{}", std::process::id()));
    let rec_dir = dir.join("rec");

    // --- cycles: record durably, run bare, crash, recover, audit every
    // chunk of the recovered provider ---
    let chunks = setup.plan.chunks();
    let mut phase = service::RecordPhase::new(&setup.plan);
    let mut audits = Phase::new(chunks);
    let mut totals = AuditTotals::default();
    let mut durable = layers::DurabilityStats::default();
    let mut durable_bytes = 0;
    let mut recover_ns = u64::MAX;
    let mut kept: Option<DurableProvider> = None;
    let mut rep = 0;
    while budget.more(rep) {
        // The previous cycle's provider goes before its files do.
        drop(kept.take());
        let _ = layers::scratch_dir(&dir, "rec");
        let mut provider = new_durable_host(&setup, &rec_dir);
        phase.rep(
            p,
            tr,
            out,
            &setup.plan,
            &setup.image,
            &registry,
            rep,
            &mut provider,
            |provider| {
                let durable = provider.durability_stats();
                vec![durable.appended_bytes, durable.syncs]
            },
        );
        durable = provider.durability_stats();

        // Crash: only the files survive.  Recover from them.
        let recorded = provider.avmm();
        let recorded_len = recorded.log().len();
        let recorded_head = recorded.log().last_hash();
        let recorded_snapshots = recorded.snapshots().len();
        drop(provider);
        durable_bytes = layers::dir_bytes(&rec_dir);
        tr.set_op("recover", 0, rep);
        let (result, ns) = time(|| {
            layers::provider_recover(
                tr,
                &rec_dir,
                HOST,
                &setup.image,
                &registry,
                &setup.operator.signing_key,
                options(),
            )
        });
        let provider = match result {
            Ok((provider, report)) => {
                let log = provider.avmm().log();
                out.checks.check(
                    log.len() == recorded_len
                        && log.last_hash() == recorded_head
                        && provider.avmm().snapshots().len() == recorded_snapshots,
                    || "recovered log or snapshots differ from the recorded ones".into(),
                );
                out.per_layer
                    .set("store.entries_replayed", report.entries_replayed as f64);
                recover_ns = recover_ns.min(ns);
                provider
            }
            Err(e) => {
                out.checks.check(false, || format!("recovery refused: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
        };

        // Audit: full-download spot check of every chunk.
        totals = AuditTotals::default();
        for c in 0..chunks {
            tr.set_op("audit", c, rep);
            let (report, ns) = time(|| {
                let mut client = layers::sim_client(provider.audit_server());
                layers::spot_check(tr, &mut client, c as u64, &setup.image, &registry)
            });
            audits.record(tr, c, ns);
            service::check_spot_check(
                out,
                &mut totals,
                provider.avmm().snapshots(),
                c as u64,
                report,
            );
        }
        kept = Some(provider);
        rep += 1;
    }
    out.cycles = rep;
    tr.set_enabled(p.trace);
    let rec = phase.finish(kept.expect("at least one cycle"), out);
    let provider = &rec.host;
    let store = provider.avmm().snapshots();
    let record_ns = rec.times.record_ns();
    let l = &mut out.per_layer;
    l.set(
        "store.bytes_per_log_byte",
        ratio(
            durable.appended_bytes as f64,
            provider.avmm().log_bytes() as f64,
        ),
    );
    l.set("store.syncs", durable.syncs as f64);
    l.set("store.appended_bytes", durable.appended_bytes as f64);
    l.set("store.recover_ns", recover_ns as f64);
    l.set(
        "store.recover_mb_per_s",
        ratio(durable_bytes as f64 / 1e6, recover_ns as f64 / 1e9),
    );
    let pass_ns = audits.all.total_ns();
    report_audits(&audits.all, 1, pass_ns, record_ns, totals.wire_bytes, out);

    // --- the forged-SEND twin must fault ---
    tr.set_op("twin", 0, 0);
    service::forged_send_twin(p, out, provider.avmm(), |forged, target| {
        let mut client = layers::sim_client(layers::AuditServer::new(forged, store));
        layers::spot_check(tr, &mut client, target, &setup.image, &registry)
    });

    if p.trace {
        let key = &setup.operator.signing_key;
        service::record_side_replays(
            tr,
            out,
            &rec,
            &setup.plan,
            key,
            &setup.image,
            &registry,
            || new_memory_host(&setup),
        );
        // The in-memory twin, sampled like any other input: per-block
        // minimum over three recordings.
        let mut twin_times = Sampler::new(setup.plan.blocks());
        for _ in 0..3 {
            let run = service::record(
                &mut new_memory_host(&setup),
                &setup.plan,
                &mut Tracer::new(false),
            );
            twin_times.record_rep(&run.block_ns);
        }
        let l = &mut out.per_layer;
        replays::store_units(
            tr,
            &dir,
            &rec_dir,
            provider.avmm(),
            key,
            &durable,
            record_ns,
            twin_times.total_ns(),
            l,
        );
        totals.report(l);
        replays::net_units(
            tr,
            (totals.wire_bytes / (2 * totals.round_trips).max(1)) as usize,
            l,
        );
        let audited = replays::Audited {
            server: provider.audit_server(),
            store,
            image: &setup.image,
            registry: &registry,
            cache: None,
        };
        replays::audit_units(
            tr,
            &replays::sample_chunks(&audited, chunks),
            replays::Mode::FullDownload,
            pass_ns,
            chunks as u64,
            l,
        );
        replays::paraudit_units(
            tr,
            provider.audit_server(),
            store,
            &setup.image,
            &registry,
            l,
        );
        replays::pool_units(&pool_before, l);
        l.set(
            "host.trace_overhead_share",
            trace_overhead_share(&[&rec.times.record, &audits]),
        );
    }
    drop(rec);
    let _ = std::fs::remove_dir_all(&dir);
}
