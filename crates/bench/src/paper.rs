//! The paper's evaluation as one committed artifact.
//!
//! Table 1, Table 2 / Fig. 2, Fig. 3 and Fig. 4 all read the same kind of
//! cell: one (benchmark, N, ISA spec, opt level) compile-and-simulate,
//! verified by [`measure`]. [`generate`] measures the union of their
//! cells, each distinct machine once: specs that differ only in name and
//! description share one measurement. [`Paper::to_json`] records them,
//! with the full spec of every design point, as `PAPER_results.json`;
//! [`Paper::blocks`] renders the four EXPERIMENTS.md tables from the
//! same cycles, and [`splice`] writes them between
//! `<!-- repro_paper:NAME -->` and `<!-- /repro_paper:NAME -->` markers.

use crate::{measure, speedup, Measurement};
use matic::{CycleReport, Features, IsaSpec, OptLevel};
use matic_benchkit::{Benchmark, SUITE};
use matic_explore::par_map;
use matic_isa::json::{parse, Json};
use std::ops::Range;

/// Schema tag of `PAPER_results.json`.
pub const SCHEMA: &str = "matic-paper-v1";

/// Regenerates `PAPER_results.json` and the marked EXPERIMENTS.md tables
/// (run from the repository root).
pub const REGENERATE: &str = "cargo run --release -p matic-bench --bin repro_paper";

const SEED: u64 = 1;
const BASELINE: &str = "baseline";
const FULL: &str = "full";

/// Fig. 3's SIMD widths.
const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// Fig. 4's feature ablations, by column label.
const ABLATIONS: [(&str, Features); 5] = [
    ("none", features(false, false, false)),
    ("simd", features(true, false, false)),
    ("simd+mac", features(true, false, true)),
    ("complex", features(false, true, true)),
    ("all", features(true, true, true)),
];

const fn features(simd: bool, complex: bool, mac: bool) -> Features {
    Features { simd, complex, mac }
}

/// Table 1's count columns: (JSON key, column header).
const TABLE1_COLUMNS: [(&str, &str); 7] = [
    ("loc", "LoC (.m)"),
    ("mir_stmts", "MIR stmts"),
    ("macs", "MACs"),
    ("maps", "maps"),
    ("reductions", "reductions"),
    ("strided_copies", "strided copies"),
    ("serial_loops", "serial loops"),
];

/// One measured (benchmark, spec, opt level) cell at the benchmark's
/// default N.
#[derive(Debug, Clone)]
pub struct Cell {
    pub bench: &'static Benchmark,
    /// Target spec name.
    pub spec: String,
    /// `"baseline"` or `"full"`.
    pub opt: &'static str,
    pub measured: Measurement,
}

/// Every cell behind the paper's tables: per benchmark, the `dsp16`
/// baseline (every speedup's denominator), then one full-opt cell per
/// spec: `dsp16`, Fig. 3's widths, Fig. 4's ablations.
#[derive(Debug, Clone)]
pub struct Paper {
    pub cells: Vec<Cell>,
}

fn specs() -> Vec<IsaSpec> {
    std::iter::once(IsaSpec::dsp16())
        .chain(WIDTHS.map(IsaSpec::with_width))
        .chain(ABLATIONS.map(|(_, f)| IsaSpec::with_features(f)))
        .collect()
}

/// Measures every cell of the paper's tables. Table 1 reads the compile
/// behind Table 2's proposed (`dsp16`, full) cell.
///
/// # Panics
///
/// Panics when any cell fails to compile, simulate or match the
/// interpreter (see [`measure`]).
pub fn generate() -> Paper {
    let specs = specs();
    let plan: Vec<(&'static Benchmark, &IsaSpec, &'static str)> = SUITE
        .iter()
        .flat_map(|b| {
            let full = specs.iter().map(move |s| (b, s, FULL));
            std::iter::once((b, &specs[0], BASELINE)).chain(full)
        })
        .collect();
    // Specs that differ only in name and description are one machine
    // (`with_width(8)` is `dsp16`): measure each distinct cell once.
    let mut distinct: Vec<(&'static Benchmark, IsaSpec, &'static str)> = Vec::new();
    let slots: Vec<usize> = plan
        .iter()
        .map(|&(bench, spec, opt)| {
            let machine = IsaSpec {
                name: String::new(),
                description: String::new(),
                ..spec.clone()
            };
            distinct
                .iter()
                .position(|(b, m, o)| b.id == bench.id && *m == machine && *o == opt)
                .unwrap_or_else(|| {
                    distinct.push((bench, machine, opt));
                    distinct.len() - 1
                })
        })
        .collect();
    let measured = par_map(&distinct, |(b, spec, opt)| {
        let level = if *opt == BASELINE {
            OptLevel::baseline()
        } else {
            OptLevel::full()
        };
        measure(b, b.default_n, spec.clone(), level, SEED)
    });
    Paper {
        cells: plan
            .iter()
            .zip(slots)
            .map(|(&(bench, spec, opt), slot)| Cell {
                bench,
                spec: spec.name.clone(),
                opt,
                measured: measured[slot].clone(),
            })
            .collect(),
    }
}

/// The byte range between the `<!-- repro_paper:NAME -->` line and the
/// `<!-- /repro_paper:NAME -->` marker of `doc`.
pub fn marked_block(doc: &str, name: &str) -> Option<Range<usize>> {
    let open = format!("<!-- repro_paper:{name} -->\n");
    let start = doc.find(&open)? + open.len();
    let end = start + doc[start..].find(&format!("<!-- /repro_paper:{name} -->"))?;
    Some(start..end)
}

/// Replaces every marked block of `doc` with its rendering from `paper`.
///
/// # Errors
///
/// Names the first block whose markers `doc` lacks.
pub fn splice(doc: &str, paper: &Paper) -> Result<String, String> {
    let mut out = doc.to_string();
    for (name, block) in paper.blocks() {
        let range = marked_block(&out, name)
            .ok_or_else(|| format!("no `<!-- repro_paper:{name} -->` block"))?;
        out.replace_range(range, &block);
    }
    Ok(out)
}

impl Paper {
    /// The `PAPER_results.json` document: every spec, every cell's exact
    /// cycles, instructions and per-class cycles, and Table 1's rows.
    pub fn to_json(&self) -> String {
        let num = |v: u64| Json::Num(v as f64);
        let spec_json = |s: &IsaSpec| parse(&s.to_json()).expect("IsaSpec::to_json emits JSON");
        let specs = specs().into_iter().map(|s| (s.name.clone(), spec_json(&s)));
        let cells = self.cells.iter().map(|c| {
            let cycles = &c.measured.cycles;
            let by_class = cycles.by_class.iter();
            Json::Obj(vec![
                ("bench".into(), Json::Str(c.bench.id.into())),
                ("n".into(), num(c.bench.default_n as u64)),
                ("spec".into(), Json::Str(c.spec.clone())),
                ("opt".into(), Json::Str(c.opt.into())),
                ("cycles".into(), num(cycles.total)),
                ("instructions".into(), num(cycles.instructions)),
                (
                    "by_class".into(),
                    Json::Obj(
                        by_class
                            .map(|(k, &v)| (k.snake_name().into(), num(v)))
                            .collect(),
                    ),
                ),
            ])
        });
        let table1 = self.benches().map(|b| {
            let counts = TABLE1_COLUMNS.iter().zip(self.characteristics(b));
            let head = [
                ("bench".into(), Json::Str(b.id.into())),
                ("kernel".into(), Json::Str(b.name.into())),
                ("n".into(), num(b.default_n as u64)),
            ];
            Json::Obj(
                head.into_iter()
                    .chain(counts.map(|((k, _), v)| (k.to_string(), num(v as u64))))
                    .collect(),
            )
        });
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("regenerate".into(), Json::Str(REGENERATE.into())),
            ("seed".into(), num(SEED)),
            ("specs".into(), Json::Obj(specs.collect())),
            ("cells".into(), Json::Arr(cells.collect())),
            ("table1".into(), Json::Arr(table1.collect())),
        ]);
        doc.pretty() + "\n"
    }

    /// The four EXPERIMENTS.md blocks, by marker name.
    pub fn blocks(&self) -> [(&'static str, String); 4] {
        let widths = WIDTHS.map(|w| (format!("W={w}"), IsaSpec::with_width(w).name));
        let ablations = ABLATIONS.map(|(l, f)| (l.to_string(), IsaSpec::with_features(f).name));
        [
            ("table2", self.table2()),
            ("table1", self.table1()),
            ("fig3", self.speedup_table(&widths)),
            ("fig4", self.speedup_table(&ablations)),
        ]
    }

    /// The lowest and highest Table 2 speedup.
    pub fn headline_range(&self) -> (f64, f64) {
        let speedups = self.benches().map(|b| self.speedup(b, "dsp16"));
        speedups.fold((f64::MAX, f64::MIN), |(lo, hi), s| (lo.min(s), hi.max(s)))
    }

    /// The measured benchmarks, in suite order.
    fn benches(&self) -> impl Iterator<Item = &'static Benchmark> + '_ {
        self.cells
            .iter()
            .filter(|c| c.opt == BASELINE)
            .map(|c| c.bench)
    }

    fn cell(&self, bench: &Benchmark, spec: &str, opt: &str) -> &Measurement {
        let mut cells = self.cells.iter();
        let cell = cells.find(|c| c.bench.id == bench.id && c.spec == spec && c.opt == opt);
        &cell.expect("every rendered cell is measured").measured
    }

    fn cycles(&self, bench: &Benchmark, spec: &str, opt: &str) -> &CycleReport {
        &self.cell(bench, spec, opt).cycles
    }

    /// Speedup of the full-opt cell on `spec` over the `dsp16` baseline.
    fn speedup(&self, bench: &Benchmark, spec: &str) -> f64 {
        let base = self.cycles(bench, "dsp16", BASELINE).total;
        speedup(base, self.cycles(bench, spec, FULL).total)
    }

    /// Table 1's counts for `bench`, in [`TABLE1_COLUMNS`] order. Idioms
    /// are counted before MAC fusion folds map+reduce pairs.
    fn characteristics(&self, bench: &Benchmark) -> [usize; 7] {
        let lines = bench.source.lines().map(str::trim);
        let loc = lines
            .filter(|l| !l.is_empty() && !l.starts_with('%'))
            .count();
        let m = self.cell(bench, "dsp16", FULL);
        let r = &m.report;
        [
            loc,
            m.mir_stmts,
            r.loops.macs + r.fuse.macs_fused,
            r.loops.maps + r.arrays.maps,
            r.loops.reductions + r.arrays.reductions,
            r.arrays.copies,
            r.loops.rejected,
        ]
    }

    fn table2(&self) -> String {
        let headers = [
            "bench",
            "kernel",
            "N",
            "baseline cycles",
            "proposed cycles",
            "**speedup**",
            "SIMD cycles",
            "complex cycles",
        ];
        let rows: Vec<Vec<String>> = self
            .benches()
            .map(|b| {
                let base = self.cycles(b, "dsp16", BASELINE);
                let opt = self.cycles(b, "dsp16", FULL);
                vec![
                    b.id.into(),
                    b.name.into(),
                    b.default_n.to_string(),
                    base.total.to_string(),
                    opt.total.to_string(),
                    format!("**{:.2}×**", self.speedup(b, "dsp16")),
                    opt.vector_cycles().to_string(),
                    opt.complex_cycles().to_string(),
                ]
            })
            .collect();
        let (lo, hi) = self.headline_range();
        let range = format!("**Measured range: {lo:.2}×–{hi:.2}×. Paper: 2×–30×.**");
        format!("{}\n{range}\n", markdown_table(&headers, &rows))
    }

    fn table1(&self) -> String {
        let fixed = ["bench", "kernel", "N"].into_iter();
        let headers: Vec<&str> = fixed.chain(TABLE1_COLUMNS.map(|(_, h)| h)).collect();
        let rows: Vec<Vec<String>> = self
            .benches()
            .map(|b| {
                let head = [b.id.into(), b.name.into(), b.default_n.to_string()];
                head.into_iter()
                    .chain(self.characteristics(b).map(|v| v.to_string()))
                    .collect()
            })
            .collect();
        markdown_table(&headers, &rows)
    }

    /// One row per benchmark, one speedup column per (header, spec name).
    fn speedup_table(&self, columns: &[(String, String)]) -> String {
        let headers: Vec<&str> = std::iter::once("bench")
            .chain(columns.iter().map(|(h, _)| h.as_str()))
            .collect();
        let rows: Vec<Vec<String>> = self
            .benches()
            .map(|b| {
                let speedups = columns
                    .iter()
                    .map(|(_, spec)| format!("{:.2}×", self.speedup(b, spec)));
                std::iter::once(b.id.to_string()).chain(speedups).collect()
            })
            .collect();
        markdown_table(&headers, &rows)
    }
}

fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!(
        "| {} |\n|{}\n",
        headers.join(" | "),
        "---|".repeat(headers.len())
    );
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_benchkit::benchmark;

    /// A one-benchmark paper whose every cell reuses one small cmult run.
    fn tiny() -> Paper {
        let bench = benchmark("cmult").expect("cmult");
        let measured = measure(bench, 16, IsaSpec::dsp16(), OptLevel::full(), SEED);
        let cell = |spec: &str, opt| Cell {
            bench,
            spec: spec.into(),
            opt,
            measured: measured.clone(),
        };
        let full = specs().into_iter().map(|s| cell(&s.name, FULL));
        Paper {
            cells: std::iter::once(cell("dsp16", BASELINE))
                .chain(full)
                .collect(),
        }
    }

    #[test]
    fn splice_rewrites_only_the_marked_blocks() {
        let paper = tiny();
        let doc: String = paper
            .blocks()
            .iter()
            .map(|(name, _)| {
                format!(
                    "{name}:\n<!-- repro_paper:{name} -->\nstale\n<!-- /repro_paper:{name} -->\n"
                )
            })
            .collect();
        let spliced = splice(&doc, &paper).expect("every block is marked");
        for (name, block) in paper.blocks() {
            let range = marked_block(&spliced, name).expect("markers survive");
            assert_eq!(spliced[range].to_string(), block);
            assert!(spliced.contains(&format!("{name}:\n")));
        }
        assert!(!spliced.contains("stale"));
        let err = splice(&doc.replace("repro_paper:fig4", "x"), &paper).unwrap_err();
        assert!(err.contains("repro_paper:fig4"), "{err}");
    }

    #[test]
    fn markdown_tables_have_a_rule_under_the_header() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t, "| a | b |\n|---|---|\n| 1 | 2 |\n");
    }

    #[test]
    fn json_records_integer_cycles_and_the_full_spec() {
        let doc = parse(&tiny().to_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let spec = doc.get("specs").and_then(|s| s.get("dsp16")).expect("spec");
        assert_eq!(IsaSpec::from_json(&spec.pretty()), Ok(IsaSpec::dsp16()));
        let Some(Json::Arr(cells)) = doc.get("cells") else {
            panic!("cells is an array")
        };
        let Some(Json::Obj(classes)) = cells[1].get("by_class") else {
            panic!("by_class is an object")
        };
        let sum: u64 = classes.iter().map(|(_, v)| v.as_u64().expect("int")).sum();
        assert_eq!(cells[1].get("cycles").and_then(Json::as_u64), Some(sum));
    }
}
