//! Per-source-span cycle attribution — the engine behind `matic --profile`.
//!
//! The simulator engine and its tree-walking reference both track the span
//! of the statement or decoded instruction currently executing and funnel
//! every cycle charge through [`Profile::record`], so attribution is
//! bit-identical between the two, and enabling profiling never
//! perturbs the cycle totals themselves (the differential suite pins
//! this). Rendering aggregates spans to source lines through a
//! [`SourceMap`]; the JSON form is the stable `matic-profile-v1` schema
//! consumed by `crates/bench` and CI.

use matic_frontend::span::{SourceMap, Span};
use matic_isa::json::Json;
use matic_isa::OpClass;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Schema identifier stamped into every `--profile-json` document.
pub const PROFILE_SCHEMA: &str = "matic-profile-v1";

/// Cycle counters accumulated against one source span (or one source
/// line, after aggregation).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanCounters {
    /// Cycles charged while this span was executing.
    pub cycles: u64,
    /// Primitive machine operations issued.
    pub instructions: u64,
    /// Cycles per [`OpClass`], indexed by `op as usize`.
    pub by_class: [u64; OpClass::COUNT],
    /// Useful elements processed by SIMD issues attributed here.
    pub lane_elems: u64,
    /// Lane slots occupied by those issues (`words × vector_width`);
    /// `lane_elems / lane_slots` is the vector-lane utilization.
    pub lane_slots: u64,
}

impl SpanCounters {
    fn absorb(&mut self, other: &SpanCounters) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        for (a, b) in self.by_class.iter_mut().zip(other.by_class.iter()) {
            *a += *b;
        }
        self.lane_elems += other.lane_elems;
        self.lane_slots += other.lane_slots;
    }

    /// Vector-lane utilization in `[0, 1]`, or `None` if no SIMD issue
    /// was attributed here.
    pub fn lane_utilization(&self) -> Option<f64> {
        if self.lane_slots == 0 {
            None
        } else {
            Some(self.lane_elems as f64 / self.lane_slots as f64)
        }
    }

    /// Op classes with non-zero cycles, hottest first.
    pub fn top_classes(&self) -> Vec<(OpClass, u64)> {
        let mut v: Vec<(OpClass, u64)> = OpClass::ALL
            .iter()
            .map(|&op| (op, self.by_class[op as usize]))
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Per-span cycle attribution for one simulated run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    /// Raw counters keyed by source span. Synthesized operations with no
    /// source location accumulate under [`Span::dummy`].
    pub spans: HashMap<Span, SpanCounters>,
}

impl Profile {
    pub(crate) fn record(&mut self, span: Span, class: OpClass, cycles: u64, count: u64) {
        let e = self.spans.entry(span).or_default();
        e.cycles += cycles;
        e.instructions += count;
        e.by_class[class as usize] += cycles;
    }

    pub(crate) fn record_lanes(&mut self, span: Span, elems: u64, slots: u64) {
        let e = self.spans.entry(span).or_default();
        e.lane_elems += elems;
        e.lane_slots += slots;
    }

    /// Total cycles across all spans (equals the run's cycle total).
    pub fn total_cycles(&self) -> u64 {
        self.spans.values().map(|c| c.cycles).sum()
    }

    /// Aggregates span counters to 1-based source lines (keyed by each
    /// span's start offset), sorted by line number. Spans with no source
    /// location ([`Span::dummy`]) aggregate under line 0.
    pub fn lines(&self, map: &SourceMap) -> Vec<(u32, SpanCounters)> {
        let mut by_line: BTreeMap<u32, SpanCounters> = BTreeMap::new();
        for (span, counters) in &self.spans {
            let line = if span.is_empty() && span.start == 0 {
                0
            } else {
                map.line_col(span.start).line
            };
            by_line.entry(line).or_default().absorb(counters);
        }
        by_line.into_iter().collect()
    }

    /// The human-readable hot-spot report printed by `matic --profile`.
    pub fn render_text(&self, map: &SourceMap, entry: &str) -> String {
        let total = self.total_cycles();
        let instrs: u64 = self.spans.values().map(|c| c.instructions).sum();
        let src_lines: Vec<&str> = map.source().lines().collect();
        let mut lines = self.lines(map);
        lines.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(&b.0)));

        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {entry} — {total} cycles, {instrs} instructions"
        );
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>7} {:>6}  {:28} source",
            "line", "cycles", "%", "lanes", "op classes"
        );
        for (line, c) in &lines {
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * c.cycles as f64 / total as f64
            };
            let lanes = match c.lane_utilization() {
                Some(u) => format!("{:.0}%", 100.0 * u),
                None => "-".to_string(),
            };
            let classes = c
                .top_classes()
                .into_iter()
                .take(3)
                .map(|(op, cy)| format!("{op} {cy}"))
                .collect::<Vec<_>>()
                .join(", ");
            let source = if *line == 0 {
                "<no source location>"
            } else {
                src_lines
                    .get(*line as usize - 1)
                    .map(|s| s.trim())
                    .unwrap_or("")
            };
            let _ = writeln!(
                out,
                "{:>6} {:>12} {:>6.1}% {:>6}  {:28} {}",
                line, c.cycles, pct, lanes, classes, source
            );
        }
        out
    }

    /// The stable `matic-profile-v1` JSON document written by
    /// `matic --profile-json`.
    pub fn to_json(&self, map: &SourceMap, entry: &str, target: &str) -> Json {
        let total = self.total_cycles();
        let instrs: u64 = self.spans.values().map(|c| c.instructions).sum();
        let src_lines: Vec<&str> = map.source().lines().collect();
        let lines = self
            .lines(map)
            .into_iter()
            .map(|(line, c)| {
                let by_class = c
                    .top_classes()
                    .into_iter()
                    .map(|(op, cy)| (op.snake_name().to_string(), Json::Num(cy as f64)))
                    .collect();
                let source = if line == 0 {
                    String::new()
                } else {
                    src_lines
                        .get(line as usize - 1)
                        .map(|s| s.trim().to_string())
                        .unwrap_or_default()
                };
                Json::Obj(vec![
                    ("line".to_string(), Json::Num(line as f64)),
                    ("source".to_string(), Json::Str(source)),
                    ("cycles".to_string(), Json::Num(c.cycles as f64)),
                    (
                        "fraction".to_string(),
                        Json::Num(if total == 0 {
                            0.0
                        } else {
                            c.cycles as f64 / total as f64
                        }),
                    ),
                    ("instructions".to_string(), Json::Num(c.instructions as f64)),
                    ("by_class".to_string(), Json::Obj(by_class)),
                    ("lane_elems".to_string(), Json::Num(c.lane_elems as f64)),
                    ("lane_slots".to_string(), Json::Num(c.lane_slots as f64)),
                    (
                        "lane_utilization".to_string(),
                        match c.lane_utilization() {
                            Some(u) => Json::Num(u),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(PROFILE_SCHEMA.to_string())),
            ("entry".to_string(), Json::Str(entry.to_string())),
            ("target".to_string(), Json::Str(target.to_string())),
            ("total_cycles".to_string(), Json::Num(total as f64)),
            ("total_instructions".to_string(), Json::Num(instrs as f64)),
            ("lines".to_string(), Json::Arr(lines)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_span_and_class() {
        let mut p = Profile::default();
        let a = Span::new(5, 9);
        p.record(a, OpClass::ScalarMul, 6, 3);
        p.record(a, OpClass::ScalarMul, 2, 1);
        p.record(a, OpClass::Load, 4, 4);
        let c = &p.spans[&a];
        assert_eq!(c.cycles, 12);
        assert_eq!(c.instructions, 8);
        assert_eq!(c.by_class[OpClass::ScalarMul as usize], 8);
        assert_eq!(c.by_class[OpClass::Load as usize], 4);
        assert_eq!(p.total_cycles(), 12);
    }

    #[test]
    fn lines_aggregate_spans_on_same_line() {
        let map = SourceMap::new("a = 1; b = 2;\nc = 3;");
        let mut p = Profile::default();
        p.record(Span::new(0, 6), OpClass::ScalarAlu, 1, 1);
        p.record(Span::new(7, 13), OpClass::ScalarAlu, 2, 2);
        p.record(Span::new(14, 20), OpClass::ScalarAlu, 5, 1);
        p.record(Span::dummy(), OpClass::Call, 1, 1);
        let lines = p.lines(&map);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].0, 0); // synthesized
        let mut by_class = [0u64; OpClass::COUNT];
        by_class[OpClass::ScalarAlu as usize] = 3;
        assert_eq!(
            lines[1],
            (
                1,
                SpanCounters {
                    cycles: 3,
                    instructions: 3,
                    by_class,
                    ..SpanCounters::default()
                }
            )
        );
        assert_eq!(lines[2].0, 2);
        assert_eq!(lines[2].1.cycles, 5);
    }

    #[test]
    fn lane_utilization_ratio() {
        let mut c = SpanCounters::default();
        assert_eq!(c.lane_utilization(), None);
        c.lane_elems = 6;
        c.lane_slots = 8;
        assert_eq!(c.lane_utilization(), Some(0.75));
    }

    #[test]
    fn json_document_carries_schema_and_lines() {
        let map = SourceMap::new("x = y * y;");
        let mut p = Profile::default();
        p.record(Span::new(0, 10), OpClass::ScalarMul, 2, 1);
        let doc = p.to_json(&map, "f", "dsp16");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(PROFILE_SCHEMA)
        );
        assert_eq!(doc.get("entry").and_then(Json::as_str), Some("f"));
        let Some(Json::Arr(lines)) = doc.get("lines") else {
            panic!("lines missing");
        };
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0].get("source").and_then(Json::as_str),
            Some("x = y * y;")
        );
        let by_class = lines[0].get("by_class").expect("by_class");
        assert!(matches!(by_class.get("scalar_mul"), Some(Json::Num(n)) if *n == 2.0));
    }

    #[test]
    fn text_report_sorts_hottest_first() {
        let map = SourceMap::new("cold();\nhot();");
        let mut p = Profile::default();
        p.record(Span::new(0, 7), OpClass::ScalarAlu, 1, 1);
        p.record(Span::new(8, 14), OpClass::ScalarMul, 99, 1);
        let text = p.render_text(&map, "f");
        let hot_at = text.find("hot();").expect("hot line shown");
        let cold_at = text.find("cold();").expect("cold line shown");
        assert!(hot_at < cold_at, "hottest line first:\n{text}");
        assert!(text.contains("99.0%"), "percentage column:\n{text}");
    }
}
