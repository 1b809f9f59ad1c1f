//! A single hosted service answering signed requests — the record loop
//! `db_durable`, `sparse_ondemand` and `fleet_attested` share.
//!
//! Closed loop: the customer's next envelope is delivered only after the
//! previous answer came back.  The three workloads differ in the guest, in
//! what the host is (a plain `Avmm` or a durable `Provider`) and in how
//! often it snapshots.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::replays::{self, AuditTotals};
use super::{Outcome, Params, RecordTimes};
use crate::barehost::{BareHost, BareScript, BareStats};
use crate::layers::{
    self, Avmm, DurableProvider, Envelope, GuestRegistry, HostClock, SpotCheckReport, VmImage,
};
use crate::timing::time;
use crate::trace::Tracer;

pub const HOST: &str = "cloud-host";
pub const CUSTOMER: &str = "customer";
/// Simulated time between two requests.
const REQUEST_GAP_US: u64 = 3_000;

/// One pre-signed request and the answer the guest must give.
#[derive(Clone)]
pub struct Request {
    pub envelope: Envelope,
    pub expected: Vec<u8>,
}

pub struct Plan {
    pub requests: Vec<Request>,
    /// Snapshot after every this many requests (and once before the first).
    pub snapshot_every: usize,
    /// Requests per timed block.
    pub block: usize,
    /// Guest steps one slice may run.
    pub slice_steps: u64,
}

/// The first `n` requests of `plan` (warm-up runs).
pub fn prefix(plan: &Plan, n: usize) -> Plan {
    Plan {
        requests: plan.requests.iter().take(n).cloned().collect(),
        ..*plan
    }
}

impl Plan {
    /// Digest of every request as it goes on the wire.
    pub fn inputs_digest(&self) -> String {
        layers::digest_of(self.requests.iter().flat_map(|r| {
            [
                r.envelope.payload.as_slice(),
                r.envelope.signature.as_slice(),
            ]
        }))
    }

    /// Chunks the recording will have: one per snapshot interval.
    pub fn chunks(&self) -> usize {
        self.requests.len() / self.snapshot_every
    }

    pub fn blocks(&self) -> usize {
        self.requests.len().div_ceil(self.block)
    }

    pub fn ops_per_block(&self) -> Vec<u64> {
        (0..self.blocks())
            .map(|b| (self.requests.len() - b * self.block).min(self.block) as u64)
            .collect()
    }
}

/// What records: a plain monitor or a durable provider around one.
pub trait Host {
    fn deliver(&mut self, tr: &mut Tracer, envelope: &Envelope);
    fn run_slice(&mut self, tr: &mut Tracer, clock: &HostClock, steps: u64) -> Vec<Vec<u8>>;
    fn take_snapshot(&mut self, tr: &mut Tracer);
    fn avmm(&self) -> &Avmm;
}

impl Host for Avmm {
    fn deliver(&mut self, tr: &mut Tracer, envelope: &Envelope) {
        layers::avmm_deliver(tr, self, envelope);
    }
    fn run_slice(&mut self, tr: &mut Tracer, clock: &HostClock, steps: u64) -> Vec<Vec<u8>> {
        layers::avmm_run_slice(tr, self, clock, steps)
    }
    fn take_snapshot(&mut self, tr: &mut Tracer) {
        layers::avmm_take_snapshot(tr, self);
    }
    fn avmm(&self) -> &Avmm {
        self
    }
}

impl Host for DurableProvider {
    fn deliver(&mut self, tr: &mut Tracer, envelope: &Envelope) {
        layers::provider_deliver(tr, self, envelope);
    }
    fn run_slice(&mut self, tr: &mut Tracer, clock: &HostClock, steps: u64) -> Vec<Vec<u8>> {
        layers::provider_run_slice(tr, self, clock, steps)
    }
    fn take_snapshot(&mut self, tr: &mut Tracer) {
        layers::provider_take_snapshot(tr, self);
    }
    fn avmm(&self) -> &Avmm {
        DurableProvider::avmm(self)
    }
}

/// One recorded execution of a plan.
pub struct Run {
    pub block_ns: Vec<u64>,
    /// (log length, guest step) at the end of each block.
    pub block_ends: Vec<(usize, u64)>,
    /// Requests whose answer was not the expected one.
    pub wrong_answers: u64,
}

/// Serves every request of `plan` on `host`, timing each block.  Block 0
/// includes the guest's boot slice and the initial snapshot.
pub fn record<H: Host>(host: &mut H, plan: &Plan, tr: &mut Tracer) -> Run {
    let mut run = Run {
        block_ns: Vec::with_capacity(plan.blocks()),
        block_ends: Vec::with_capacity(plan.blocks()),
        wrong_answers: 0,
    };
    let mut clock = HostClock::at(1_000);
    let mut answers: Vec<Vec<Vec<u8>>> = Vec::with_capacity(plan.block);
    for (b, block) in plan.requests.chunks(plan.block).enumerate() {
        answers.clear();
        let ((), ns) = time(|| {
            if b == 0 {
                host.run_slice(tr, &clock, plan.slice_steps);
                host.take_snapshot(tr);
            }
            for (i, request) in block.iter().enumerate() {
                clock.advance_to(clock.now() + REQUEST_GAP_US);
                host.deliver(tr, &request.envelope);
                answers.push(host.run_slice(tr, &clock, plan.slice_steps));
                if (b * plan.block + i + 1).is_multiple_of(plan.snapshot_every) {
                    host.take_snapshot(tr);
                }
            }
        });
        run.block_ns.push(ns);
        let avmm = host.avmm();
        run.block_ends
            .push((avmm.log().len(), avmm.machine().step_count()));
        for (request, got) in block.iter().zip(&answers) {
            if got.len() != 1 || got[0] != request.expected {
                run.wrong_answers += 1;
            }
        }
    }
    run
}

/// Counts of a recording that must repeat exactly from rep to rep.
pub fn exact_counts(avmm: &Avmm) -> Vec<u64> {
    let s = avmm.stats();
    let store = avmm.snapshots();
    vec![
        avmm.log().len() as u64,
        avmm.log_bytes(),
        avmm.machine().step_count(),
        s.packets_in,
        s.packets_out,
        s.signatures_made,
        s.signatures_verified,
        s.snapshots_taken,
        store.logical_payload_bytes(),
        store.stored_payload_bytes(),
    ]
}

/// What the cycles leave behind: the last recording's host, the block
/// samples, and the bare host's counters.
pub struct Recorded<H> {
    pub host: H,
    /// The monitor's counters as the last recording left them.
    pub stats: layers::AvmmStats,
    pub times: RecordTimes,
    pub bare_stats: BareStats,
}

/// The record side of a service workload's cycles.
pub struct RecordPhase {
    pub times: RecordTimes,
    /// The first recording's inputs and exact counts.
    first: Option<(BareScript, Vec<u64>)>,
    bare_stats: BareStats,
    stats: layers::AvmmStats,
}

impl RecordPhase {
    pub fn new(plan: &Plan) -> RecordPhase {
        RecordPhase {
            times: RecordTimes::new(plan.ops_per_block()),
            first: None,
            bare_stats: BareStats::default(),
            stats: layers::AvmmStats::default(),
        }
    }

    /// One repetition: the plan is recorded on the fresh `host`, then the
    /// guest runs bare over the first recording's inputs.  Checks every
    /// answer, that the recording repeats the first one's exact counts
    /// (plus `more_counts`), and that the bare machine ends where the
    /// recording did.
    #[allow(clippy::too_many_arguments)]
    pub fn rep<H: Host>(
        &mut self,
        p: &Params,
        tr: &mut Tracer,
        out: &mut Outcome,
        plan: &Plan,
        image: &VmImage,
        registry: &GuestRegistry,
        rep: usize,
        host: &mut H,
        more_counts: impl FnOnce(&H) -> Vec<u64>,
    ) {
        self.times.record.begin_rep(p, tr, rep);
        tr.set_op("record", 0, rep);
        let run = record(host, plan, tr);
        self.times.record.record_rep(tr, &run.block_ns);
        let n = plan.requests.len() as u64;
        out.checks.passed(n - run.wrong_answers);
        for _ in 0..run.wrong_answers {
            out.checks.check(false, || {
                format!("recording {rep}: a request got a wrong answer")
            });
        }
        let avmm = host.avmm();
        let mut counts = exact_counts(avmm);
        counts.extend(more_counts(host));
        let (script, first) = self.first.get_or_insert_with(|| {
            (
                BareScript::from_log(avmm.log().entries(), &run.block_ends),
                counts.clone(),
            )
        });
        out.checks.check(*first == counts, || {
            format!("recording {rep} differs from recording 0 in an exact count")
        });
        let mut same_end = true;
        let mut bare_stats = BareStats::default();
        self.times.record_bare(|| {
            let mut bare = BareHost::new(layers::machine_from_image(image, registry), script);
            let bare_ns = (0..script.blocks())
                .map(|_| time(|| bare.run_block()).1)
                .collect();
            same_end &= bare.machine().step_count() == avmm.machine().step_count();
            bare_stats = bare.stats();
            bare_ns
        });
        out.checks.check(same_end, || {
            "the bare machine did not end at the recorded step".into()
        });
        self.bare_stats = bare_stats;
        self.stats = avmm.stats();
    }

    /// Reports the record-side end-to-end metrics; `host` is what the last
    /// cycle left (the recording itself or, for a durable provider, what
    /// recovery rebuilt from it).
    pub fn finish<H: Host>(self, host: H, out: &mut Outcome) -> Recorded<H> {
        self.times.report(host.avmm().log_bytes(), out);
        Recorded {
            host,
            stats: self.stats,
            times: self.times,
            bare_stats: self.bare_stats,
        }
    }
}

/// Picks a seeded SEND entry inside a seeded chunk, forges it, hands the
/// forged log to `audit` (a spot check of that chunk) and checks the audit
/// faults with an output divergence at exactly that entry.
pub fn forged_send_twin(
    p: &Params,
    out: &mut Outcome,
    avmm: &Avmm,
    audit: impl FnOnce(&layers::TamperEvidentLog, u64) -> Result<SpotCheckReport, layers::CoreError>,
) {
    let chunks = avmm.snapshots().len() as u64 - 1;
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x7a17);
    let target = rng.gen_range(0..chunks);
    let sends = layers::send_seqs_in_chunk(avmm.log(), target);
    let seq = sends[rng.gen_range(0..sends.len() as u64) as usize];
    let forged = layers::forge_send(avmm.log(), seq, CUSTOMER);
    let verdict = audit(&forged, target);
    let caught = matches!(
        &verdict,
        Ok(r) if !r.consistent
            && matches!(r.fault, Some(layers::FaultReason::OutputDivergence { seq: s, .. }) if s == seq)
    );
    out.checks.check(caught != p.sabotage, || {
        format!("forged SEND {seq} in chunk {target}: {verdict:?}")
    });
}

/// Guest steps between snapshot `c` and snapshot `c + 1`.
pub fn chunk_steps(store: &layers::SnapshotStore, c: u64) -> u64 {
    store.get(c + 1).expect("chunk end").step - store.get(c).expect("chunk start").step
}

/// Checks one honest spot-check report of chunk `c` and adds it to the
/// pass totals.
pub fn check_spot_check(
    out: &mut Outcome,
    totals: &mut AuditTotals,
    store: &layers::SnapshotStore,
    c: u64,
    report: Result<SpotCheckReport, layers::CoreError>,
) {
    let expected = chunk_steps(store, c);
    match report {
        Ok(r) => {
            out.checks
                .check(r.consistent && r.steps_replayed == expected, || {
                    format!(
                        "chunk {c}: consistent={} fault={:?} steps={} (expected {expected})",
                        r.consistent, r.fault, r.steps_replayed
                    )
                });
            totals.add_report(&r);
        }
        Err(e) => out.checks.check(false, || format!("chunk {c}: {e}")),
    }
}

/// Record-side layer replays every service workload runs when traced.
/// `twin` builds a fresh in-memory monitor for the same guest: the plan is
/// recorded on it once more under tracing, for the recorder's own spans.
#[allow(clippy::too_many_arguments)]
pub fn record_side_replays<H: Host>(
    tr: &mut Tracer,
    out: &mut Outcome,
    rec: &Recorded<H>,
    plan: &Plan,
    key: &layers::SigningKey,
    image: &VmImage,
    registry: &GuestRegistry,
    twin: impl FnOnce() -> Avmm,
) {
    tr.set_op("replay", 0, 0);
    let l = &mut out.per_layer;
    let avmm = rec.host.avmm();
    let record_ns = rec.times.record_ns();
    replays::recording_counts(&[avmm], &[rec.stats], l);
    replays::vm_units(&rec.times.bare, rec.bare_stats.exits, l);
    replays::crypto_units(
        tr,
        key,
        layers::state_tree_leaves(avmm.machine()),
        record_ns,
        l,
    );
    replays::log_units(tr, avmm.log(), &[], key, l);
    let spans_before = tr.spans().len();
    let mut twin = twin();
    record(&mut twin, plan, tr);
    replays::recorder_units(tr, spans_before, &twin, record_ns, l);
    replays::snapshot_write_units(tr, avmm, image, registry, l);
}
