//! `sparse_ondemand` — an interpreter-bound guest audited on demand.
//!
//! A bytecode guest assembled here: 4 MiB of memory, and for each packet a
//! compute loop long enough that signing is a minor share of recording,
//! then a read-modify-write of four seeded pages (three untouched so far,
//! one dirtied a snapshot interval earlier) and a write to one seeded disk
//! block.  RSA-768, a plain in-memory `Avmm`, *incremental* snapshots.
//! An op is one packet consumed.  Every chunk is audited with
//! `spot_check_on_demand` twice: once with a fresh `AuditorBlobCache`
//! seeded from the image, once with one cache carried from chunk to chunk.
//!
//! Why it exists: the bytecode interpreter (`vm`), dirty-chunk hashing and
//! `replay` are hot and signing is cold; and it uses the same
//! `SnapshotStore` the other way round from `db_durable` — incremental
//! writes, manifest and blob reads — so a gain on one use that costs the
//! other shows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::replays::{self, AuditTotals};
use super::service::{self, Plan, Request, CUSTOMER, HOST};
use super::{
    report_audits, shuffle, timed_setup, trace_overhead_share, Outcome, Params, Phase, CYCLES_SHARE,
};
use crate::layers::{self, AuditorBlobCache, Avmm, Identity, SpotCheckReport, VmImage};
use crate::timing::{time, Budget};
use crate::trace::Tracer;

const MEM_SIZE: u64 = 4 * 1024 * 1024;
const DISK_SIZE: usize = 256 * 1024;
/// First page the guest's data region uses (below: code, buffers).
const FIRST_DATA_PAGE: u64 = 16;
/// Iterations of the five-instruction compute loop per packet: ~70k guest
/// steps, about four times what the packet's five signatures cost.
const LOOPS: u64 = 14_000;

struct Sizes {
    packets: usize,
    snapshot_every: usize,
    block: usize,
    min_cycles: usize,
}

impl Sizes {
    fn of(p: &Params) -> Sizes {
        if p.smoke {
            Sizes {
                packets: 12,
                snapshot_every: 4,
                block: 6,
                min_cycles: 2,
            }
        } else {
            Sizes {
                packets: 80,
                snapshot_every: 10,
                block: 10,
                min_cycles: 3,
            }
        }
    }
}

/// The guest.  Request body: four memory addresses, a disk offset and the
/// loop count, each a little-endian u64, after the 11-byte addressing
/// header (`\x0acloud-host`).  The answer is the running accumulator.
const GUEST: &str = r#"
        movi r1, 0x8000         ; packet buffer
        movi r2, 512
        movi r9, 0
        movi r7, 0x9000         ; accumulator slot
    wait:
        clock r4
        recv r0, r1, r2
        cmp r0, r9
        jne got
        idle
        jmp wait
    got:
        load r10, r1, 11
        load r11, r1, 19
        load r12, r1, 27
        load r13, r1, 35
        load r14, r1, 43
        load r5, r1, 51
        load r6, r7
        movi r8, 0
    compute:
        add r6, r8
        xor r6, r5
        addi r8, 1
        cmp r8, r5
        jlt compute
        store r6, r7
        load r3, r10
        xor r3, r6
        store r3, r10
        load r3, r11
        xor r3, r6
        store r3, r11
        load r3, r12
        xor r3, r6
        store r3, r12
        load r3, r13
        xor r3, r6
        store r3, r13
        movi r3, 8
        diskwr r14, r7, r3
        movi r3, answer
        store r6, r3
        movi r3, reply
        movi r0, 17
        send r3, r0
        jmp wait
    reply:
        .byte 8
        .ascii "customer"
    answer:
        .space 8
"#;

fn image() -> VmImage {
    VmImage::bytecode("sparse", MEM_SIZE, layers::assemble(GUEST), 0, 0)
        .with_disk(vec![0u8; DISK_SIZE])
}

fn options() -> layers::AvmmOptions {
    layers::AvmmOptions::default()
        .with_scheme(layers::SCHEME)
        .with_incremental_snapshots()
}

struct Setup {
    operator: Identity,
    customer: Identity,
    image: VmImage,
    plan: Plan,
    /// An auditor's cache holding what the image alone determines.
    seeded_cache: AuditorBlobCache,
}

/// The seed decides *which* pages and disk blocks a packet touches; how
/// often one is touched again does not depend on it, so that what an audit
/// must fetch (a page an earlier chunk dirtied) is the same count for every
/// seed.  A packet touches three pages nothing touched before and the first
/// page of the packet one snapshot interval earlier; disk blocks are taken
/// in a seeded order that repeats when it runs out.
fn plan(rng: &mut StdRng, customer: &Identity, sizes: &Sizes) -> Plan {
    let mut pages: Vec<u64> = (FIRST_DATA_PAGE..MEM_SIZE / 4096).collect();
    let mut blocks: Vec<u64> = (0..DISK_SIZE as u64 / 4096).collect();
    shuffle(rng, &mut pages);
    shuffle(rng, &mut blocks);
    let mut untouched = pages.into_iter();
    let mut first_pages: Vec<u64> = Vec::with_capacity(sizes.packets);
    let mut acc = 0u64;
    let requests = (0..sizes.packets)
        .map(|i| {
            let mut body = Vec::with_capacity(48);
            for k in 0..4 {
                let page = match i.checked_sub(sizes.snapshot_every) {
                    Some(earlier) if k == 3 => first_pages[earlier],
                    _ => untouched.next().expect("4 MiB hold every packet's pages"),
                };
                if k == 0 {
                    first_pages.push(page);
                }
                let addr = page * 4096 + 8 * rng.gen_range(0..512);
                body.extend_from_slice(&addr.to_le_bytes());
            }
            let disk = blocks[i % blocks.len()] * 4096 + 8 * rng.gen_range(0..512);
            body.extend_from_slice(&disk.to_le_bytes());
            body.extend_from_slice(&LOOPS.to_le_bytes());
            for j in 0..LOOPS {
                acc = acc.wrapping_add(j) ^ LOOPS;
            }
            Request {
                envelope: layers::data_envelope(
                    CUSTOMER,
                    HOST,
                    i as u64 + 1,
                    layers::encode_guest_packet(HOST, &body),
                    &customer.signing_key,
                ),
                expected: layers::encode_guest_packet(CUSTOMER, &acc.to_le_bytes()),
            }
        })
        .collect();
    Plan {
        requests,
        snapshot_every: sizes.snapshot_every,
        block: sizes.block,
        slice_steps: 1_000_000,
    }
}

fn new_host(setup: &Setup) -> Avmm {
    let mut avmm = layers::new_avmm(
        HOST,
        &setup.image,
        &layers::GuestRegistry::new(),
        &setup.operator.signing_key,
        options(),
    );
    avmm.add_peer(CUSTOMER, setup.customer.verifying_key());
    avmm
}

fn setup(seed: u64, sizes: &Sizes) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let operator = layers::generate_identity(&mut rng, HOST);
    let customer = layers::generate_identity(&mut rng, CUSTOMER);
    let plan = plan(&mut rng, &customer, sizes);
    let image = image();
    let seeded_cache = layers::cache_seeded_from(&image, &layers::GuestRegistry::new());
    let setup = Setup {
        operator,
        customer,
        image,
        plan,
        seeded_cache,
    };
    // Warm-up: the first chunk recorded and audited once.
    let mut tr = Tracer::new(false);
    let warm = service::prefix(&setup.plan, sizes.snapshot_every);
    let mut avmm = new_host(&setup);
    service::record(&mut avmm, &warm, &mut tr);
    let _ = audit(&setup, &avmm, 0, setup.seeded_cache.clone(), &mut tr);
    setup
}

/// One on-demand spot check of chunk `c`; returns the report and the cache
/// as the audit left it.
fn audit(
    setup: &Setup,
    avmm: &Avmm,
    c: u64,
    cache: AuditorBlobCache,
    tr: &mut Tracer,
) -> (Result<SpotCheckReport, layers::CoreError>, AuditorBlobCache) {
    let server = layers::AuditServer::new(avmm.log(), avmm.snapshots());
    let mut client = layers::sim_client_with_cache(server, cache);
    let report = layers::spot_check_on_demand(
        tr,
        &mut client,
        c,
        &setup.image,
        &layers::GuestRegistry::new(),
    );
    (report, client.into_cache())
}

pub fn run(p: &Params, tr: &mut Tracer, out: &mut Outcome) {
    let sizes = Sizes::of(p);
    let pool_before = layers::pool_stats();
    let registry = layers::GuestRegistry::new();
    let mut budget = Budget::start(
        p.seconds * CYCLES_SHARE,
        Phase::min_reps(p, sizes.min_cycles),
    );
    let (setup, setup_s) = timed_setup(|| setup(p.seed, &sizes));
    out.end_to_end.set("setup_s", setup_s);
    out.inputs_digest = setup.plan.inputs_digest();

    // --- cycles: a recording, the bare run, then every chunk audited
    // with a fresh cache and with the carried one ---
    let chunks = setup.plan.chunks();
    let mut phase = service::RecordPhase::new(&setup.plan);
    // Inputs 0..chunks use a fresh cache; chunks..2*chunks the carried one.
    let mut audits = Phase::new(2 * chunks);
    let mut totals = AuditTotals::default();
    let mut kept: Option<Avmm> = None;
    let mut rep = 0;
    while budget.more(rep) {
        drop(kept.take());
        let mut avmm = new_host(&setup);
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
        totals = AuditTotals::default();
        let mut carried = setup.seeded_cache.clone();
        for input in 0..2 * chunks {
            let c = (input % chunks) as u64;
            let carry = input >= chunks;
            tr.set_op("audit", input, rep);
            let cache = if carry {
                std::mem::take(&mut carried)
            } else {
                setup.seeded_cache.clone()
            };
            let ((report, cache), ns) = time(|| audit(&setup, &avmm, c, cache, tr));
            audits.record(tr, input, ns);
            if carry {
                carried = cache;
            }
            service::check_spot_check(out, &mut totals, avmm.snapshots(), c, report);
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
    // One pass over the whole execution is the fresh-cache half.
    let fresh_pass_ns: u64 = audits.all.samples()[..chunks].iter().sum();
    report_audits(
        &audits.all,
        1,
        fresh_pass_ns,
        record_ns,
        totals.wire_bytes,
        out,
    );

    // --- the forged-SEND twin must fault ---
    tr.set_op("twin", 0, 0);
    service::forged_send_twin(p, out, avmm, |forged, target| {
        let server = layers::AuditServer::new(forged, store);
        let mut client = layers::sim_client_with_cache(server, setup.seeded_cache.clone());
        layers::spot_check_on_demand(tr, &mut client, target, &setup.image, &registry)
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
        || new_host(&setup),
    );
    let l = &mut out.per_layer;
    totals.report(l);
    replays::net_units(
        tr,
        (totals.wire_bytes / (2 * totals.round_trips).max(1)) as usize,
        l,
    );
    let audited = replays::Audited {
        server: layers::AuditServer::new(avmm.log(), store),
        store,
        image: &setup.image,
        registry: &registry,
        cache: Some(&setup.seeded_cache),
    };
    replays::audit_units(
        tr,
        &replays::sample_chunks(&audited, chunks),
        replays::Mode::OnDemand,
        audits.all.total_ns(),
        2 * chunks as u64,
        l,
    );
    replays::pool_units(&pool_before, l);
    l.set(
        "host.trace_overhead_share",
        trace_overhead_share(&[&rec.times.record, &audits]),
    );
}
