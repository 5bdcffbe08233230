//! In-memory spans recorded by the harness around each call into a
//! layer (choosing-metrics §4: the change that defines the benchmark
//! records spans from its own files; spans inside the program are a
//! later change).
//!
//! A [`Recorder`] is a stack: `enter` opens a span whose parent is the
//! innermost open one, `exit` closes it. A disabled recorder does
//! nothing, so the end-to-end runs execute the same code path with the
//! recording branch not taken. Spans stay in memory until the run ends.

use aputil::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Iteration / pass / request number the span belongs to: spans of
    /// one unit of work share it.
    pub iter: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Stack-shaped span recorder; see the module docs.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    iter: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder::with_origin(enabled, Instant::now())
    }

    /// A recorder whose timestamps count from `origin`, so recorders on
    /// several threads share one time base.
    pub fn with_origin(enabled: bool, origin: Instant) -> Recorder {
        Recorder {
            enabled,
            origin,
            iter: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the unit-of-work id stamped on spans opened from now on.
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self
            .open
            .pop()
            .expect("span exit without a matching enter (harness bug)");
        self.spans[i].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Files an already-measured span under `parent` and returns its
    /// index (the serve client times its phases with raw `Instant`s and
    /// files them after the exchange, so the timed path is identical with
    /// tracing on and off).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: rel(start),
            end_ns: rel(end),
            parent,
            iter: self.iter,
        });
        Some(self.spans.len() - 1)
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open (harness bug)");
        self.spans
    }
}

/// Appends `more` (a self-contained span list) to `all`, re-basing its
/// parent indices.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by direct children.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's.
/// Children never overlap (the recorder is a stack; `record` files
/// sequential phases), so the subtraction is exact.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Totals grouped by span name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Total nanoseconds of every span named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// `[name, start_ns, end_ns, parent|-1, iter]` rows — the wire and
/// artifact form of a span list.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::from(s.name.as_str()),
                    Json::U(s.start_ns),
                    Json::U(s.end_ns),
                    Json::from(s.parent.map_or(-1, |p| p as i64)),
                    Json::U(s.iter),
                ])
            })
            .collect(),
    )
}

/// Inverse of [`to_json`]; `None` on any malformed row.
pub fn from_json(doc: &Json) -> Option<Vec<Span>> {
    doc.as_arr()?
        .iter()
        .map(|row| {
            let r = row.as_arr()?;
            Some(Span {
                name: r.first()?.as_str()?.to_string(),
                start_ns: r.get(1)?.as_u64()?,
                end_ns: r.get(2)?.as_u64()?,
                parent: match r.get(3)?.as_i64()? {
                    p if p < 0 => None,
                    p => Some(p as usize),
                },
                iter: r.get(4)?.as_u64()?,
            })
        })
        .collect()
}

/// The per-name table as it appears in `TRACE_<rev>.json`.
pub fn totals_json(spans: &[Span]) -> Json {
    Json::Arr(
        totals_by_name(spans)
            .into_iter()
            .map(|(name, t)| {
                Json::obj([
                    ("name", Json::from(name)),
                    ("count", Json::U(t.count)),
                    ("total_ms", Json::F(t.total_ns as f64 / 1e6)),
                    ("self_ms", Json::F(t.self_ns as f64 / 1e6)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // iter[0..100] -> run[10..70] -> inner[20..30]; iter -> emit[70..90]
        let spans = vec![
            span("iter", 0, 100, None),
            span("run", 10, 70, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("emit", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 10, 20]);
        let t = totals_by_name(&spans);
        assert_eq!(t["iter"].total_ns, 100);
        assert_eq!(t["iter"].self_ns, 20);
        assert_eq!(t["run"].self_ns, 50);
        assert_eq!(total_ns(&spans, "emit"), 20);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(true);
        r.set_iter(3);
        r.scope("outer", |r| {
            r.scope("inner", |_| ());
        });
        let t0 = Instant::now();
        let req = r.record("request", t0, Instant::now(), None);
        assert_eq!(req, Some(2));
        r.record("connect", t0, t0, req);
        let mut spans = r.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let more = spans.clone();
        append(&mut spans, more);
        assert_eq!(spans[5].parent, Some(4));
        assert_eq!(spans[7].parent, Some(6));
        spans.truncate(3);
        assert!(spans.iter().all(|s| s.iter == 3));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Recorder::new(false);
        off.scope("outer", |r| r.scope("inner", |_| ()));
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn json_round_trip() {
        let spans = vec![span("a.b", 1, 9, None), span("c", 2, 3, Some(0))];
        let text = to_json(&spans).to_string();
        let back = from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spans);
    }
}
