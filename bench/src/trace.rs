//! In-memory spans around the calls the driver makes into each layer.
//!
//! A span is (name, start, end, parent, op id); all spans of one op or audit
//! share the id `workload/phase/input/rep`.  Spans are kept in memory and
//! written to `bench/out/<workload>.trace.json` when the run ends.  A span's
//! *self time* is its duration minus the part of it its children cover.
//!
//! Tracing lives in the benchmark's own files, around the layers' public
//! functions; spans inside the crates are a later change (ROADMAP item 4).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Which op or audit a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpId {
    pub phase: &'static str,
    pub input: u32,
    pub rep: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: OpId,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub min_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: OpId,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: OpId::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off; the traced run alternates the two on
    /// the shared phases to measure what tracing itself costs.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans");
        self.enabled = enabled;
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, phase: &'static str, input: usize, rep: usize) {
        self.op = OpId {
            phase,
            input: input as u32,
            rep: rep as u32,
        };
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// One span around `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let value = f();
        self.end(open);
        value
    }

    /// One span around `f`, also returning how long it took — measured
    /// whether or not spans are being recorded.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.begin(name);
        let start = Instant::now();
        let value = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.end(open);
        (value, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, with self times.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let s = out.entry(span.name).or_insert(SpanStats {
                min_ns: u64::MAX,
                ..SpanStats::default()
            });
            s.count += 1;
            s.total_ns += span.duration_ns();
            s.self_ns += own;
            s.min_ns = s.min_ns.min(span.duration_ns());
        }
        out
    }

    /// The trace as JSON: every span, and the per-name totals.
    pub fn to_json(&self, workload: &str) -> Json {
        let self_ns = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, own)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    (
                        "op".into(),
                        Json::Str(format!(
                            "{workload}/{}/{}/{}",
                            s.op.phase, s.op.input, s.op.rep
                        )),
                    ),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_ns".into(), Json::Num(*own as f64)),
                ])
            })
            .collect();
        let totals = self
            .stats()
            .into_iter()
            .map(|(name, s)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(s.count as f64)),
                        ("total_ns".into(), Json::Num(s.total_ns as f64)),
                        ("self_ns".into(), Json::Num(s.self_ns as f64)),
                        ("min_ns".into(), Json::Num(s.min_ns as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("totals".into(), Json::Obj(totals)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: OpId::default(),
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // a[0,100] ⊃ b[10,60] ⊃ c[20,30]
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 60, Some(0)),
            span("c", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn adjacent_children_cover_their_sum() {
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 40, Some(0)),
            span("c", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn zero_length_spans_cost_nothing_and_own_nothing() {
        let spans = vec![
            span("a", 5, 5, None),
            span("b", 0, 10, None),
            span("c", 3, 3, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![0, 10, 0]);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 50, Some(0)),
            span("c", 30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_links_parents_and_stamps_the_op_id() {
        let mut t = Tracer::new(true);
        t.set_op("audit", 7, 2);
        let outer = t.begin("endpoint.spot_check");
        t.span("replay.replay", || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].op.input, 7);
        let stats = t.stats();
        assert_eq!(stats["endpoint.spot_check"].count, 1);
        let own: u64 = self_times(t.spans()).iter().sum();
        assert_eq!(own, t.spans()[0].duration_ns());
        let json = t.to_json("w");
        assert_eq!(
            json.get("spans").unwrap().as_array().unwrap()[1]
                .get("op")
                .unwrap()
                .as_str(),
            Some("w/audit/7/2")
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("x");
        assert_eq!(t.span("y", || 3), 3);
        t.end(o);
        assert!(t.spans().is_empty());
    }
}
