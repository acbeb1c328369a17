//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function, recorded
//! from outside the program: name, start, end, the span that caused it
//! and the op it belongs to. Spans and counts stay in memory until the
//! run ends; [`Trace::write_jsonl`] then writes them out. The untraced
//! run never touches this module, so end-to-end numbers carry no
//! tracing cost.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the root span every traced op is wrapped in.
pub const OP_SPAN: &str = "op";

/// One recorded span. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span; 0 for an op's root span.
    pub parent: u64,
    /// The op this span belongs to.
    pub op: u64,
    /// Layer name, e.g. `sema.analyze`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// One counter sample recorded at a layer boundary (bytes, cycles, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Count {
    /// The op the sample belongs to.
    pub op: u64,
    /// Counter name, e.g. `codegen.c_bytes`.
    pub name: &'static str,
    /// Sample value; samples of one name in one op are summed.
    pub value: f64,
}

/// The recorder. Shared by reference across the threads of one run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<Count>>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

/// Where new spans attach: the op and the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'t> {
    trace: &'t Trace,
    op: u64,
    parent: u64,
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs one op under a fresh root span and returns its result.
    pub fn op<R>(&self, f: impl FnOnce(Ctx<'_>) -> R) -> R {
        let op = self.fresh_id();
        Ctx {
            trace: self,
            op,
            parent: 0,
        }
        .record(OP_SPAN, Some(op), f)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Every counter sample recorded so far.
    pub fn counts(&self) -> Vec<Count> {
        self.counts
            .lock()
            .expect("count buffer lock poisoned")
            .clone()
    }

    /// Writes spans and counts as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        for c in self.counts() {
            writeln!(
                out,
                "{{\"op\":{},\"count\":\"{}\",\"value\":{}}}",
                c.op, c.name, c.value
            )?;
        }
        out.flush()
    }
}

impl<'t> Ctx<'t> {
    /// Runs `f` inside a child span called `name`.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Ctx<'t>) -> R) -> R {
        self.record(name, None, f)
    }

    /// Adds `value` to counter `name` of the current op.
    pub fn count(self, name: &'static str, value: f64) {
        self.trace
            .counts
            .lock()
            .expect("count buffer lock poisoned")
            .push(Count {
                op: self.op,
                name,
                value,
            });
    }

    fn record<R>(self, name: &'static str, id: Option<u64>, f: impl FnOnce(Ctx<'t>) -> R) -> R {
        let id = id.unwrap_or_else(|| self.trace.fresh_id());
        let start_ns = self.trace.now_ns();
        let r = f(Ctx {
            trace: self.trace,
            op: self.op,
            parent: id,
        });
        let end_ns = self.trace.now_ns();
        self.trace
            .spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(Span {
                id,
                parent: self.parent,
                op: self.op,
                name,
                start_ns,
                end_ns,
            });
        r
    }
}

/// One traced op reduced to per-layer totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpProfile {
    /// Wall time of the op's root span.
    pub dur_ns: u64,
    /// Self time of the root span: the part of the op no layer span
    /// covers.
    pub root_self_ns: u64,
    /// Summed self time per layer name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Spans per layer name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed counter samples per name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl OpProfile {
    /// Self time of layer `name` in milliseconds (0 when absent).
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Number of `name` spans (0 when absent).
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Summed counter `name` (0 when absent).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Share of the op's wall time that falls inside some layer span.
    pub fn coverage(&self) -> f64 {
        if self.dur_ns == 0 {
            return 0.0;
        }
        1.0 - self.root_self_ns as f64 / self.dur_ns as f64
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Reduces raw spans and counts to one [`OpProfile`] per op, in op order.
///
/// A span's self time is its duration minus the union of its children's
/// intervals. Children running in parallel on several threads therefore
/// cover their parent once, while their own self times add up: a layer's
/// self time is its busy time summed over threads.
pub(crate) fn profile_ops(spans: &[Span], counts: &[Count]) -> Vec<OpProfile> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut ops: BTreeMap<u64, OpProfile> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let self_ns = dur - covered(kids, s.start_ns, s.end_ns).min(dur);
        let p = ops.entry(s.op).or_default();
        if s.parent == 0 {
            p.dur_ns = dur;
            p.root_self_ns = self_ns;
        } else {
            *p.self_ns.entry(s.name).or_default() += self_ns;
            *p.calls.entry(s.name).or_default() += 1;
        }
    }
    for c in counts {
        *ops.entry(c.op)
            .or_default()
            .counts
            .entry(c.name)
            .or_default() += c.value;
    }
    ops.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two children overlap (parallel workers): together they cover
        // 10..70 of the root's 0..100, so the root's self time is 40.
        let spans = [
            span(1, 0, OP_SPAN, 0, 100),
            span(2, 1, "a", 10, 50),
            span(3, 1, "b", 30, 70),
            span(4, 2, "c", 20, 30),
        ];
        let p = &profile_ops(&spans, &[])[0];
        assert_eq!(p.dur_ns, 100);
        assert_eq!(p.root_self_ns, 40);
        assert_eq!(p.self_ns["a"], 30);
        assert_eq!(p.self_ns["b"], 40);
        assert_eq!(p.self_ns["c"], 10);
        assert!((p.coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_and_sums_counts() {
        let trace = Trace::new();
        trace.op(|ctx| {
            ctx.span("outer", |ctx| {
                ctx.span("inner", |_| ());
                ctx.count("bytes", 3.0);
            });
            ctx.count("bytes", 4.0);
        });
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == OP_SPAN).expect("root");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(root.parent, 0);
        assert_eq!(outer.parent, root.id);
        assert_eq!(inner.parent, outer.id);
        let p = &profile_ops(&spans, &trace.counts())[0];
        assert_eq!(p.count("bytes"), 7.0);
        assert_eq!(p.calls("inner"), 1);
    }
}
