//! Span recording for the traced run. Spans are taken from the
//! benchmark's own files, around each call into a library crate; nothing
//! inside the libraries is instrumented. They stay in memory until the run
//! ends and are then written to `out/trace-<workload>.json`.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Prefix of the spans that are the harness's own (repeat, cell, system
/// run); every other span wraps exactly one call into a library crate and
/// is named `<layer>.<call>`.
pub const HARNESS_PREFIX: &str = "bench.";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>` for a library call, `bench.*` for a harness scope.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The (topology, seed) cell the span belongs to; 0 outside any cell.
    pub cell: u32,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one traced repeat.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<u32>,
    cell: u32,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to cell `id` (ids start at 1).
    pub fn set_cell(&mut self, id: u32) {
        self.cell = id;
    }

    /// Open a span under the innermost open one; returns its index for
    /// [`Self::close`].
    pub fn open(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(idx);
        idx
    }

    /// Close the span [`Self::open`] returned. Spans close innermost
    /// first; anything else is a harness bug.
    pub fn close(&mut self, idx: u32) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx as usize].end_ns = end;
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span is still open");
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one span never overlap (one thread, strict
/// nesting), so that part is the sum of their durations. A span around a
/// single library call has no children: its self time is its duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_ns();
        }
    }
    own
}

/// Lower every entry of `quietest` to the matching span's self time in
/// `spans`, another trace of the same work. Repeats make the same calls in
/// the same order, so span `k` of one is span `k` of the other; a trace of
/// a different shape is refused.
pub fn keep_quietest(quietest: &mut [u64], shape: &[Span], spans: &[Span]) -> Result<(), String> {
    let same = |a: &Span, b: &Span| a.name == b.name && a.parent == b.parent && a.cell == b.cell;
    if shape.len() != spans.len() || !shape.iter().zip(spans).all(|(a, b)| same(a, b)) {
        return Err("two traced repeats made different calls".into());
    }
    for (q, own) in quietest.iter_mut().zip(self_times_ns(spans)) {
        *q = (*q).min(own);
    }
    Ok(())
}

/// What a trace says about where one repeat's time went.
#[derive(Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Seconds inside library spans, by span name.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Seconds inside library spans, by `(enclosing harness span, span
    /// name)` — how `sim.run_until` is split by system.
    pub by_parent: BTreeMap<(&'static str, &'static str), f64>,
    /// Seconds of harness self time: inside a `bench.*` span and inside
    /// none of its children.
    pub harness_self_s: f64,
}

/// Sum self times into a [`Breakdown`]. `self_ns` is one trace's own
/// ([`self_times_ns`]) or the per-span minima over several traces
/// ([`keep_quietest`]).
pub fn breakdown(spans: &[Span], self_ns: &[u64]) -> Breakdown {
    let mut b = Breakdown::default();
    for (s, &own_ns) in spans.iter().zip(self_ns) {
        let secs = own_ns as f64 * 1e-9;
        if s.name.starts_with(HARNESS_PREFIX) {
            b.harness_self_s += secs;
            continue;
        }
        *b.by_name.entry(s.name).or_insert(0.0) += secs;
        if let Some(p) = s.parent {
            *b.by_parent
                .entry((spans[p as usize].name, s.name))
                .or_insert(0.0) += secs;
        }
    }
    b
}

/// The trace file: one object per span, in opening order, plus the self
/// time computed from the nesting.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let own = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(&own)
        .map(|(s, &own_ns)| {
            Value::obj([
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ),
                ("cell", Value::Num(f64::from(s.cell))),
                ("self_ns", Value::Num(own_ns as f64)),
            ])
        })
        .collect();
    Value::obj([
        ("schema", Value::str("p4update-benchmark-trace-v1")),
        ("workload", Value::str(workload)),
        ("seed", Value::Num(seed as f64)),
        ("clock", Value::str("ns since the traced repeat began")),
        ("spans", Value::Arr(rows)),
    ])
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
            cell: 1,
        }
    }

    /// repeat [0,100) > cell [10,90) > { topology [10,30), system [40,90) >
    /// run_until [45,85) }
    fn sample() -> Vec<Span> {
        vec![
            span("bench.repeat", 0, 100, None),
            span("bench.cell", 10, 90, Some(0)),
            span("net.topology_build", 10, 30, Some(1)),
            span("bench.system.p4update-sl", 40, 90, Some(1)),
            span("sim.run_until", 45, 85, Some(3)),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // repeat: 100 - cell 80; cell: 80 - (20 + 50); system: 50 - 40.
        assert_eq!(self_times_ns(&sample()), vec![20, 10, 20, 10, 40]);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = sample();
        let own = self_times_ns(&spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn breakdown_separates_library_time_from_harness_self_time() {
        let spans = sample();
        let b = breakdown(&spans, &self_times_ns(&spans));
        assert_eq!(b.by_name["net.topology_build"], 20e-9);
        assert_eq!(b.by_name["sim.run_until"], 40e-9);
        assert_eq!(
            b.by_parent[&("bench.system.p4update-sl", "sim.run_until")],
            40e-9
        );
        // 20 (repeat) + 10 (cell) + 10 (system).
        assert!((b.harness_self_s - 40e-9).abs() < 1e-18);
    }

    #[test]
    fn quietest_keeps_each_spans_smallest_self_time() {
        let first = sample();
        // The same calls on another pass: less bookkeeping in the repeat
        // and the system scope, a slower run_until.
        let mut second = sample();
        second[0].end_ns = 95; // repeat [0,95): self 95 - 80 = 15
        second[3].start_ns = 44; // system [44,90): 46
        second[4].end_ns = 88; // run_until [45,88): 43, system self 3
        let mut quietest = self_times_ns(&first);
        keep_quietest(&mut quietest, &first, &second).expect("same shape");
        // cell self in the second pass: 80 - (20 + 46) = 14, not below 10.
        assert_eq!(quietest, vec![15, 10, 20, 3, 40]);
        let b = breakdown(&first, &quietest);
        assert_eq!(b.by_name["sim.run_until"], 40e-9);
        assert!((b.harness_self_s - 28e-9).abs() < 1e-18);

        let mut other = sample();
        other[4].name = "sim.extract";
        assert!(keep_quietest(&mut quietest, &first, &other).is_err());
        assert!(keep_quietest(&mut quietest, &first, &first[..4]).is_err());
    }

    #[test]
    fn tracer_nests_spans_and_tags_cells() {
        let mut t = Tracer::new();
        let root = t.open("bench.repeat");
        t.set_cell(7);
        let inner = t.open("net.topology_build");
        t.close(inner);
        t.close(root);
        let spans = t.into_spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].cell, spans[1].cell), (0, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn trace_file_lists_every_span_with_its_self_time() {
        let doc = to_json("wan-sweep", 1, &sample());
        let text = doc.to_json();
        let back = crate::json::parse(&text).expect("the writer emits valid JSON");
        assert_eq!(back, doc);
        let spans = back.get("spans").and_then(Value::as_array).expect("spans");
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[4].get("parent"), Some(&Value::Num(3.0)));
        assert_eq!(spans[1].get("self_ns"), Some(&Value::Num(10.0)));
        assert_eq!(
            spans[3].get("name").and_then(Value::as_str),
            Some("bench.system.p4update-sl")
        );
    }
}
