//! Spans recorded by the harness around its calls into each layer.
//!
//! The traced run replays a workload one public call at a time and wraps
//! each call in a span: name, start, end, the span that caused it and the
//! id of the operation (frame, candidate, session) it belongs to. Spans
//! stay in memory and are written out once, at exit. A layer's self time
//! is its span minus the part of it that its children cover.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// `layer.call`, e.g. `nn.op.knn` or `proto.encode_frame`.
    pub name: String,
    /// Seconds since the trace began.
    pub start_s: f64,
    /// Seconds since the trace began.
    pub end_s: f64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    /// The frame, candidate or session this call served.
    pub op: u64,
}

impl Span {
    fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span log. With `enabled == false` every call is a plain
/// pass-through, which is what the untraced half of the overhead
/// comparison runs.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    enabled: bool,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, ..Self::starting_at(Instant::now()) }
    }

    /// A recording trace on a given clock, so traces kept by several
    /// threads can be merged with [`absorb`](Self::absorb).
    pub fn starting_at(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new(), open: Vec::new(), op: 0, enabled: true }
    }

    /// Appends another thread's finished spans, keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through
    /// this trace become its children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Times one leaf call.
    pub fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_s).collect()
    }

    /// Time spent in spans called `name` per operation id, in id order —
    /// an op kind that occurs twice in a plan counts once per frame.
    pub fn totals_per_op(&self, name: &str) -> Vec<f64> {
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(span.op).or_default() += span.duration_s();
        }
        totals.into_values().collect()
    }

    /// For every span called `name`, the summed duration of its direct
    /// children: the staged calls one operation is made of.
    pub fn child_totals(&self, name: &str) -> Vec<f64> {
        let mut totals: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == name {
                totals.insert(i, 0.0);
            }
            if let Some(total) = span.parent.and_then(|p| totals.get_mut(&p)) {
                *total += span.duration_s();
            }
        }
        totals.into_values().collect()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are merged first).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_s, span.end_s));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let mut covered = 0.0;
            let mut intervals = children.remove(&i).unwrap_or_default();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = span.start_s;
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_s);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_s() - covered
        })
        .collect()
}

/// Total self time per span name — the per-layer breakdown written at the
/// head of a trace file.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, f64)> {
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, self_s) in spans.iter().zip(self_times(spans)) {
        *totals.entry(&span.name).or_default() += self_s;
    }
    totals.into_iter().map(|(name, s)| (name.to_string(), s)).collect()
}

/// A trace file: the per-layer summary first, every span after it.
#[derive(Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    /// Median closed-loop time of one operation in this traced run.
    op_p50_s: f64,
    /// Named groups of staged calls as a share of `op_p50_s`.
    layer_shares: Vec<(String, f64)>,
    /// Total self time per span name, seconds.
    self_time_s: Vec<(String, f64)>,
    spans: Vec<Span>,
}

/// Writes `trace-<workload>.json` into the run's scratch directory.
pub fn write_trace(
    ctx: &crate::harness::Ctx,
    workload: &str,
    op_p50_s: f64,
    layer_shares: &[(String, f64)],
    trace: &Trace,
) -> Result<(), String> {
    let file = TraceFile {
        workload: workload.to_string(),
        seed: ctx.seed,
        op_p50_s,
        layer_shares: layer_shares.to_vec(),
        self_time_s: self_time_by_name(trace.spans()),
        spans: trace.spans().to_vec(),
    };
    let path = ctx.scratch.join(format!("trace-{workload}.json"));
    let json = serde_json::to_string(&file).map_err(|e| format!("trace: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_s, end_s, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("frame", 0.0, 10.0, None),
            span("prefix", 1.0, 4.0, Some(0)),
            span("knn", 1.5, 3.5, Some(1)),
            // Overlaps `prefix` by one second: the overlap counts once.
            span("encode", 3.0, 6.0, Some(0)),
        ];
        let self_s = self_times(&spans);
        assert!((self_s[0] - 5.0).abs() < 1e-12, "10 − [1,6] covered = 5");
        assert!((self_s[1] - 1.0).abs() < 1e-12);
        assert!((self_s[2] - 2.0).abs() < 1e-12);
        assert!((self_s[3] - 3.0).abs() < 1e-12);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name.len(), 4);
        assert_eq!(by_name[0].0, "encode");
    }

    #[test]
    fn nested_calls_record_parents_and_ops() {
        let mut trace = Trace::new(true);
        trace.set_op(7);
        trace.span("outer", |t| {
            t.call("inner", || ());
            t.call("inner", || ());
        });
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].start_s <= spans[1].start_s && spans[2].end_s <= spans[0].end_s);
        assert_eq!(trace.durations("inner").len(), 2);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::new(false);
        assert_eq!(trace.call("x", || 3), 3);
        assert!(trace.spans().is_empty());
    }
}
