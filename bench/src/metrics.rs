//! The metric registry: every name the benchmark may print, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test compares the two, both ways).  A workload fills a [`Metrics`] set
//! created from one of the two lists; setting an undeclared name panics, so
//! a typo cannot silently drop a number, and every declared name is always
//! printed (0 where a layer does nothing on that workload).

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees.  Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("bare_ops_per_s", "op/s", "higher", 0.25),
    e2e("record_ops_per_s", "op/s", "higher", 0.25),
    e2e("record_overhead_ratio", "x", "lower", 0.20),
    e2e("log_bytes_per_op", "B", "lower", 0.02),
    e2e("audit_p50_ms", "ms", "lower", 0.25),
    e2e("audit_p90_ms", "ms", "lower", 0.25),
    e2e("audits_per_s", "1/s", "higher", 0.25),
    e2e("audit_over_record_ratio", "x", "lower", 0.20),
    e2e("audit_wire_bytes_per_audit", "B", "lower", 0.10),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// Single layers; no bound.  `<layer>.<metric>`.
pub const PER_LAYER: &[MetricDef] = &[
    // vm (avm-vm)
    layer("vm.run_ns_per_kstep", "ns", "lower"),
    layer("vm.steps", "count", "lower"),
    layer("vm.exits", "count", "lower"),
    layer("vm.dirty_chunks_per_snapshot", "count", "lower"),
    layer("vm.lazy_faults", "count", "lower"),
    // crypto (avm-crypto)
    layer("crypto.sign_ns", "ns", "lower"),
    layer("crypto.verify_ns", "ns", "lower"),
    layer("crypto.sign_count", "count", "lower"),
    layer("crypto.verify_count", "count", "lower"),
    layer("crypto.sign_share_record", "share", "lower"),
    layer("crypto.sha256_chunk_ns", "ns", "lower"),
    layer("crypto.merkle_update_ns_per_leaf", "ns", "lower"),
    layer("crypto.pool_tasks", "count", "lower"),
    layer("crypto.pool_hash_jobs", "count", "lower"),
    // log (avm-log)
    layer("log.append_ns", "ns", "lower"),
    layer("log.append_auth_ns", "ns", "lower"),
    layer("log.entries", "count", "lower"),
    layer("log.bytes", "B", "lower"),
    layer("log.verify_ns_per_entry", "ns", "lower"),
    layer("log.segment_ns_per_entry", "ns", "lower"),
    // recorder (avm-core::recorder, runtime)
    layer("recorder.deliver_ns", "ns", "lower"),
    layer("recorder.run_slice_ns_per_kstep", "ns", "lower"),
    layer("recorder.take_snapshot_ns", "ns", "lower"),
    layer("recorder.packets_in", "count", "lower"),
    layer("recorder.packets_out", "count", "lower"),
    layer("recorder.snapshots", "count", "lower"),
    layer("recorder.deliver_share_record", "share", "lower"),
    layer("recorder.snapshot_share_record", "share", "lower"),
    // snapshot (avm-core::snapshot)
    layer("snapshot.refresh_ns", "ns", "lower"),
    layer("snapshot.capture_ns", "ns", "lower"),
    layer("snapshot.push_ns", "ns", "lower"),
    layer("snapshot.materialize_ns", "ns", "lower"),
    layer("snapshot.transfer_stream_ns", "ns", "lower"),
    layer("snapshot.logical_bytes", "B", "lower"),
    layer("snapshot.stored_bytes", "B", "lower"),
    layer("snapshot.dedup_ratio", "x", "higher"),
    // store (avm-store, avm-core::persist)
    layer("store.append_entry_ns", "ns", "lower"),
    layer("store.arena_put_ns", "ns", "lower"),
    layer("store.sync_ns", "ns", "lower"),
    layer("store.syncs", "count", "lower"),
    layer("store.appended_bytes", "B", "lower"),
    layer("store.scan_ns_per_mb", "ns", "lower"),
    layer("store.recover_ns", "ns", "lower"),
    layer("store.entries_replayed", "count", "lower"),
    layer("store.persist_share_record", "share", "lower"),
    layer("store.fsync_model_over_measured", "x", "lower"),
    layer("store.recover_mb_per_s", "MB/s", "higher"),
    layer("store.bytes_per_log_byte", "x", "lower"),
    // wire (avm-wire)
    layer("wire.seal_ns_per_kb", "ns", "lower"),
    layer("wire.open_ns_per_kb", "ns", "lower"),
    layer("wire.frames", "count", "lower"),
    layer("wire.bytes", "B", "lower"),
    // compress (avm-compress)
    layer("compress.measure_ns_per_kb", "ns", "lower"),
    layer("compress.bytes_in", "B", "lower"),
    layer("compress.share_audit", "share", "lower"),
    // net (avm-net)
    layer("net.packets", "count", "lower"),
    layer("net.retransmissions", "count", "lower"),
    layer("net.host_ns_per_packet", "ns", "lower"),
    layer("net.sim_us_per_audit", "us", "lower"),
    // endpoint (avm-core::endpoint, spotcheck, audit)
    layer("endpoint.handle_ns.log_chunk", "ns", "lower"),
    layer("endpoint.handle_ns.manifest", "ns", "lower"),
    layer("endpoint.handle_ns.blobs", "ns", "lower"),
    layer("endpoint.handle_ns.sections", "ns", "lower"),
    layer("endpoint.handle_ns.attest", "ns", "lower"),
    layer("endpoint.fetch_log_chunk_ns", "ns", "lower"),
    layer("endpoint.fetch_sections_ns", "ns", "lower"),
    layer("endpoint.fetch_manifest_ns", "ns", "lower"),
    layer("endpoint.round_trips", "count", "lower"),
    layer("endpoint.requests", "count", "lower"),
    // ondemand (avm-core::ondemand)
    layer("ondemand.manifest_ns", "ns", "lower"),
    layer("ondemand.materialize_ns", "ns", "lower"),
    layer("ondemand.fetch_blobs_ns", "ns", "lower"),
    layer("ondemand.price_full_ns", "ns", "lower"),
    layer("ondemand.blobs_fetched", "count", "lower"),
    layer("ondemand.cache_hits", "count", "higher"),
    layer("ondemand.chunks_faulted", "count", "lower"),
    layer("ondemand.staged", "count", "lower"),
    layer("ondemand.useful_ratio", "x", "higher"),
    // replay (avm-core::replay)
    layer("replay.ns_per_entry", "ns", "lower"),
    layer("replay.ns_per_kstep", "ns", "lower"),
    layer("replay.entries", "count", "lower"),
    layer("replay.steps", "count", "lower"),
    layer("replay.share_audit", "share", "lower"),
    // paraudit (avm-core::paraudit)
    layer("paraudit.units", "count", "higher"),
    layer("paraudit.wall_ns_w1", "ns", "lower"),
    layer("paraudit.wall_ns_wn", "ns", "lower"),
    layer("paraudit.speedup_measured", "x", "higher"),
    layer("paraudit.fallbacks", "count", "lower"),
    // fleet (avm-core::fleet)
    layer("fleet.requests_served", "count", "lower"),
    layer("fleet.cache_hits", "count", "higher"),
    layer("fleet.cache_misses", "count", "lower"),
    layer("fleet.cache_hit_ratio", "x", "higher"),
    layer("fleet.sessions", "count", "lower"),
    layer("fleet.event_loop_steps", "count", "lower"),
    layer("fleet.host_ns_per_request", "ns", "lower"),
    layer("fleet.sim_p50_us", "us", "lower"),
    layer("fleet.sim_p99_us", "us", "lower"),
    // attest (avm-attest, avm-core::attest)
    layer("attest.measure_image_ns", "ns", "lower"),
    layer("attest.build_envelope_ns", "ns", "lower"),
    layer("attest.quote_ns", "ns", "lower"),
    layer("attest.verify_quote_ns", "ns", "lower"),
    layer("attest.envelope_bytes", "B", "lower"),
    layer("attest.quote_bytes", "B", "lower"),
    // host (the driver)
    layer("host.trace_overhead_share", "share", "lower"),
    layer("host.spans", "count", "lower"),
    layer("host.slow_mode_share", "share", "lower"),
    layer("host.failed_ops_share", "share", "lower"),
];

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "game_sig",
    "db_durable",
    "sparse_ondemand",
    "fleet_attested",
];

/// One value per declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: defs.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in metrics.rs")) = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in metrics.rs"))
    }

    /// `(definition, value)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> + '_ {
        self.defs.iter().map(|d| (d, self.values[d.name]))
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(v)),
                            ("unit".into(), Json::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// A ratio that reads 0 instead of NaN/∞ when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_is_legal(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_is_legal(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_and_unit_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER).copied() {
            assert!(name_is_legal(d.name), "{}", d.name);
            assert!(unit_is_legal(d.unit), "{} unit {}", d.name, d.unit);
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        for w in WORKLOADS {
            assert!(name_is_legal(w) && seen.insert(w));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `BENCHMARK.json` and this registry list the same metrics, the same
    /// workloads, units, directions and bounds — checked both ways.
    #[test]
    fn benchmark_json_matches_the_registry_both_ways() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = doc.get(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(def.better),
                    "{}",
                    def.name
                );
                let fields = entry.as_object().unwrap().len();
                if bounded {
                    assert_eq!(entry.get("bound").unwrap().as_f64(), Some(def.bound));
                    assert_eq!(fields, 4);
                } else {
                    assert_eq!(fields, 3);
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn a_set_prints_every_declared_name_even_when_untouched() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.5);
        m.add("setup_s", 0.25);
        let obj = m.to_json();
        assert_eq!(obj.as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(
            obj.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.75)
        );
        assert_eq!(
            obj.get("peak_rss_mb")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("MB")
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn setting_an_undeclared_name_panics() {
        Metrics::new(PER_LAYER).set("vm.typo", 1.0);
    }

    #[test]
    fn ratio_of_an_empty_base_reads_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
