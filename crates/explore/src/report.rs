//! Reports: the `matic-explore-v1` JSON document, its one reader
//! ([`Exploration::from_json`], which checks what it reads, so CI and the
//! repro binary can validate emitted documents without trusting the
//! emitter), and the terminal rendering.

use crate::area::AreaModel;
use crate::grid::GridConfig;
use crate::pareto::pareto_frontier;
use crate::runner::{
    default_n, BenchExploration, CandidatePoint, Exploration, ExploreConfig, HotLine, SuitePoint,
};
use crate::util::render_table;
use matic_isa::json::{parse, Json};
use matic_isa::Features;
use std::collections::BTreeSet;

/// Schema identifier stamped into every exploration document.
pub const EXPLORE_SCHEMA: &str = "matic-explore-v1";

fn point_json(p: &CandidatePoint) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(p.name.clone())),
        ("width".into(), Json::Num(p.width as f64)),
        ("simd".into(), Json::Bool(p.features.simd)),
        ("complex".into(), Json::Bool(p.features.complex)),
        ("mac".into(), Json::Bool(p.features.mac)),
        ("cost_scale".into(), Json::Num(p.cost_scale)),
        ("area".into(), Json::Num(p.area)),
        ("cycles".into(), Json::Num(p.cycles as f64)),
        ("instructions".into(), Json::Num(p.instructions as f64)),
        ("vector_cycles".into(), Json::Num(p.vector_cycles as f64)),
        ("complex_cycles".into(), Json::Num(p.complex_cycles as f64)),
        ("on_frontier".into(), Json::Bool(p.on_frontier)),
    ])
}

fn bench_json(b: &BenchExploration) -> Json {
    let best = b.point(&b.best);
    let mut best_fields = vec![("name".into(), Json::Str(b.best.clone()))];
    if let Some(p) = best {
        best_fields.push(("cycles".into(), Json::Num(p.cycles as f64)));
        best_fields.push(("area".into(), Json::Num(p.area)));
    }
    if let Some(s) = b.best_speedup {
        best_fields.push(("speedup_vs_scalar".into(), Json::Num(s)));
    }
    let mut fields = vec![
        ("bench".into(), Json::Str(b.bench.clone())),
        ("entry".into(), Json::Str(b.entry.clone())),
        ("n".into(), Json::Num(b.n as f64)),
    ];
    if let Some(s) = b.scalar_cycles {
        fields.push(("scalar_cycles".into(), Json::Num(s as f64)));
    }
    fields.push(("best".into(), Json::Obj(best_fields)));
    if let Some(why) = &b.why {
        let mut why_fields = vec![
            ("line".into(), Json::Num(why.line as f64)),
            ("source".into(), Json::Str(why.source.clone())),
            ("fraction".into(), Json::Num(why.fraction)),
            ("top_class".into(), Json::Str(why.top_class.clone())),
        ];
        if let Some(u) = why.lane_utilization {
            why_fields.push(("lane_utilization".into(), Json::Num(u)));
        }
        fields.push(("why".into(), Json::Obj(why_fields)));
    }
    fields.push(("frontier".into(), names(&b.frontier)));
    fields.push((
        "candidates".into(),
        Json::Arr(b.points.iter().map(point_json).collect()),
    ));
    Json::Obj(fields)
}

fn suite_json(suite: &[SuitePoint], frontier: &[String]) -> Json {
    let point = |p: &SuitePoint| {
        Json::Obj(vec![
            ("name".into(), Json::Str(p.name.clone())),
            ("area".into(), Json::Num(p.area)),
            ("geomean_cycles".into(), Json::Num(p.geomean_cycles)),
            ("on_frontier".into(), Json::Bool(p.on_frontier)),
        ])
    };
    Json::Obj(vec![
        ("frontier".into(), names(frontier)),
        (
            "candidates".into(),
            Json::Arr(suite.iter().map(point).collect()),
        ),
    ])
}

fn names(items: &[String]) -> Json {
    Json::Arr(items.iter().cloned().map(Json::Str).collect())
}

fn nums(items: impl Iterator<Item = f64>) -> Json {
    Json::Arr(items.map(Json::Num).collect())
}

impl Exploration {
    /// The stable `matic-explore-v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(EXPLORE_SCHEMA.into())),
            ("generated_by".into(), Json::Str("matic-explore".into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("fuel".into(), Json::Num(self.fuel as f64)),
            ("area_model".into(), self.area.to_json()),
            (
                "grid".into(),
                Json::Obj(vec![
                    (
                        "widths".into(),
                        nums(self.grid.widths.iter().map(|&w| w as f64)),
                    ),
                    (
                        "cost_scales".into(),
                        nums(self.grid.cost_scales.iter().copied()),
                    ),
                    ("candidates".into(), names(&self.candidates)),
                ]),
            ),
            (
                "benchmarks".into(),
                Json::Arr(self.benches.iter().map(bench_json).collect()),
            ),
            (
                "suite".into(),
                suite_json(&self.suite, &self.suite_frontier()),
            ),
        ])
    }

    /// The terminal report: per-benchmark frontier tables plus the
    /// suite-wide recommendation.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "design-space exploration: {} candidates x {} benchmark(s), seed {}\n",
            self.candidates.len(),
            self.benches.len(),
            self.seed
        ));
        for b in &self.benches {
            out.push('\n');
            out.push_str(&format!("== {} (n = {}) ==\n", b.bench, b.n));
            let rows: Vec<Vec<String>> = b
                .points
                .iter()
                .filter(|p| p.on_frontier)
                .map(|p| {
                    let speedup = b
                        .scalar_cycles
                        .map(|s| format!("{:.2}x", s as f64 / p.cycles.max(1) as f64))
                        .unwrap_or_else(|| "-".to_string());
                    let marker = if p.name == b.best { "best" } else { "" };
                    vec![
                        p.name.clone(),
                        format!("{:.2}", p.area),
                        p.cycles.to_string(),
                        speedup,
                        marker.to_string(),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &["frontier point", "area", "cycles", "vs scalar", ""],
                &rows,
            ));
            if let Some(why) = &b.why {
                let lanes = why
                    .lane_utilization
                    .map(|u| format!(", {:.0}% lane utilization", u * 100.0))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "why {}: {:.0}% of cycles on line {} `{}` ({}{})\n",
                    b.best,
                    why.fraction * 100.0,
                    why.line,
                    why.source,
                    why.top_class,
                    lanes
                ));
            }
        }
        out.push_str("\n== suite (geomean over benchmarks) ==\n");
        let rows: Vec<Vec<String>> = self
            .suite
            .iter()
            .filter(|p| p.on_frontier)
            .map(|p| {
                vec![
                    p.name.clone(),
                    format!("{:.2}", p.area),
                    format!("{:.0}", p.geomean_cycles),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["frontier point", "area", "geomean cycles"],
            &rows,
        ));
        out
    }

    /// Reads a `matic-explore-v1` document back into an [`Exploration`].
    ///
    /// The one reader of the format, behind `--resume`, the validator and
    /// discovery. It checks the schema, a positive fuel, the area model
    /// and grid, candidate tables in grid order with positive areas and
    /// cycles, frontier flags and lists against the frontier recomputed
    /// from the raw points, the `best` name, and the suite size. The
    /// feature-subset axis is rebuilt from the candidates' feature flags.
    ///
    /// # Errors
    ///
    /// Names the first missing, malformed or inconsistent field.
    pub fn from_json(text: &str) -> Result<Exploration, String> {
        let doc = parse(text)?;
        let schema = field(&doc, "schema", Json::as_str)?;
        if schema != EXPLORE_SCHEMA {
            return Err(format!("schema `{schema}`, expected `{EXPLORE_SCHEMA}`"));
        }
        let fuel = field(&doc, "fuel", Json::as_u64)?;
        if fuel == 0 {
            return Err("fuel must be positive".to_string());
        }
        let area_doc = doc.get("area_model").ok_or("missing `area_model`")?;
        let area =
            AreaModel::from_json(&area_doc.pretty()).map_err(|e| format!("area_model: {e}"))?;
        let grid = doc.get("grid").ok_or("missing `grid`")?;
        let candidates = field(grid, "candidates", each(string))?;
        if candidates.is_empty() {
            return Err("grid has no candidates".to_string());
        }
        let benches = array(&doc, "benchmarks")?
            .iter()
            .map(|b| bench_from_json(b, &candidates))
            .collect::<Result<Vec<_>, _>>()?;
        if benches.is_empty() {
            return Err("document has no benchmarks".to_string());
        }
        let points = benches.iter().flat_map(|b| &b.points);
        let grid = GridConfig {
            widths: field(grid, "widths", each(int))?,
            feature_sets: Features::subsets()
                .into_iter()
                .filter(|&f| points.clone().any(|p| p.features == f))
                .collect(),
            cost_scales: field(grid, "cost_scales", each(Json::as_f64))?,
        };
        grid.validate().map_err(|e| format!("grid: {e}"))?;
        let suite = array(doc.get("suite").ok_or("missing `suite`")?, "candidates")?
            .iter()
            .map(|p| {
                Ok(SuitePoint {
                    name: field(p, "name", string)?,
                    area: field(p, "area", Json::as_f64)?,
                    geomean_cycles: field(p, "geomean_cycles", Json::as_f64)?,
                    on_frontier: field(p, "on_frontier", Json::as_bool)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if suite.len() != candidates.len() {
            return Err("suite candidate count disagrees with grid".to_string());
        }
        Ok(Exploration {
            seed: field(&doc, "seed", Json::as_u64)?,
            fuel,
            grid,
            area,
            candidates,
            benches,
            suite,
        })
    }
}

fn bench_from_json(b: &Json, names: &[String]) -> Result<BenchExploration, String> {
    let id = field(b, "bench", string)?;
    let points = array(b, "candidates")?
        .iter()
        .map(|p| {
            Ok(CandidatePoint {
                name: field(p, "name", string)?,
                width: field(p, "width", int)?,
                features: Features {
                    simd: field(p, "simd", Json::as_bool)?,
                    complex: field(p, "complex", Json::as_bool)?,
                    mac: field(p, "mac", Json::as_bool)?,
                },
                cost_scale: field(p, "cost_scale", Json::as_f64)?,
                area: field(p, "area", Json::as_f64)?,
                cycles: field(p, "cycles", Json::as_u64)?,
                instructions: field(p, "instructions", Json::as_u64)?,
                vector_cycles: field(p, "vector_cycles", Json::as_u64)?,
                complex_cycles: field(p, "complex_cycles", Json::as_u64)?,
                on_frontier: field(p, "on_frontier", Json::as_bool)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if points.len() != names.len() {
        return Err(format!("{id}: candidate count differs from the grid's"));
    }
    for (p, name) in points.iter().zip(names) {
        if p.name != *name {
            return Err(format!("{id}: candidate order differs from grid order"));
        }
        if !(p.area.is_finite() && p.area > 0.0 && p.cycles > 0) {
            return Err(format!("{id}/{name}: non-positive area or cycles"));
        }
    }
    // The flags must match the frontier recomputed from the raw points,
    // and the declared frontier list must name exactly the flagged points.
    let coords: Vec<(f64, f64)> = points.iter().map(|p| (p.area, p.cycles as f64)).collect();
    let flagged: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].on_frontier)
        .collect();
    if pareto_frontier(&coords) != flagged {
        return Err(format!(
            "{id}: on_frontier flags disagree with recomputed frontier"
        ));
    }
    let frontier = field(b, "frontier", each(string))?;
    let declared: BTreeSet<&str> = frontier.iter().map(String::as_str).collect();
    if declared != flagged.iter().map(|&i| points[i].name.as_str()).collect() {
        return Err(format!("{id}: frontier list disagrees with flags"));
    }
    let best_doc = b
        .get("best")
        .ok_or_else(|| format!("{id}: missing `best`"))?;
    let best = field(best_doc, "name", string)?;
    if !points.iter().any(|p| p.name == best) {
        return Err(format!("{id}: best `{best}` is not a candidate"));
    }
    let why = b.get("why").map(|w| {
        Ok::<_, String>(HotLine {
            line: field(w, "line", int)?,
            source: field(w, "source", string)?,
            fraction: field(w, "fraction", Json::as_f64)?,
            top_class: field(w, "top_class", string)?,
            lane_utilization: w.get("lane_utilization").and_then(Json::as_f64),
        })
    });
    Ok(BenchExploration {
        entry: field(b, "entry", string)?,
        n: field(b, "n", int)?,
        scalar_cycles: b.get("scalar_cycles").and_then(Json::as_u64),
        best_speedup: best_doc.get("speedup_vs_scalar").and_then(Json::as_f64),
        why: why.transpose()?,
        bench: id,
        points,
        frontier,
        best,
    })
}

/// Field `key` of `doc`, read by `read`.
fn field<'j, T>(
    doc: &'j Json,
    key: &str,
    read: impl Fn(&'j Json) -> Option<T>,
) -> Result<T, String> {
    doc.get(key)
        .and_then(read)
        .ok_or_else(|| format!("missing or mistyped field `{key}`"))
}

/// Array field `key` of `doc`, elements unread.
fn array<'j>(doc: &'j Json, key: &str) -> Result<&'j [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("missing array field `{key}`")),
    }
}

fn string(v: &Json) -> Option<String> {
    v.as_str().map(str::to_string)
}

fn int<T: TryFrom<u64>>(v: &Json) -> Option<T> {
    T::try_from(v.as_u64()?).ok()
}

/// An array whose every element `read` accepts.
fn each<T>(read: impl Fn(&Json) -> Option<T>) -> impl Fn(&Json) -> Option<Vec<T>> {
    move |v| match v {
        Json::Arr(items) => items.iter().map(&read).collect(),
        _ => None,
    }
}

/// What [`validate_explore_json`] distills out of a document.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSummary {
    /// Number of benchmark sections.
    pub benchmarks: usize,
    /// Number of grid candidates.
    pub candidates: usize,
    /// Frontier size per benchmark, in document order.
    pub frontier_sizes: Vec<(String, usize)>,
    /// True when every benchmark that has accelerated candidates shows
    /// the pure `scalar` baseline strictly outperformed on cycles by at
    /// least one of them. (The scalar point can never be *Pareto*
    /// dominated — it has minimal area by construction — so "the paper's
    /// acceleration wins" is asserted on the cycle axis.)
    pub scalar_outperformed: bool,
}

/// Validates a `matic-explore-v1` document (every check of
/// [`Exploration::from_json`]) and summarizes it, including the
/// scalar-baseline comparison.
///
/// # Errors
///
/// Returns a message naming the first violated property.
pub fn validate_explore_json(text: &str) -> Result<ExploreSummary, String> {
    let doc = Exploration::from_json(text)?;
    let scalar_outperformed = doc.benches.iter().all(|b| {
        let scalar = b.points.iter().find(|p| !p.features.any());
        let accel = b
            .points
            .iter()
            .filter(|p| p.features.any())
            .map(|p| p.cycles)
            .min();
        match (scalar, accel) {
            (Some(s), Some(a)) => a < s.cycles,
            _ => true,
        }
    });
    Ok(ExploreSummary {
        benchmarks: doc.benches.len(),
        candidates: doc.candidates.len(),
        frontier_sizes: doc
            .benches
            .iter()
            .map(|b| {
                (
                    b.bench.clone(),
                    b.points.iter().filter(|p| p.on_frontier).count(),
                )
            })
            .collect(),
        scalar_outperformed,
    })
}

/// Rebuilds an [`ExploreConfig`] from a previous `matic-explore-v1`
/// document, so `matic explore --resume frontier.json` re-runs (and can
/// then extend) an earlier sweep instead of starting cold.
///
/// Everything that shaped the sweep is recovered from the document: seed,
/// fuel, area model, grid, the benchmark list (in document order), and
/// the problem-size override (`--n`). Re-running the resumed config
/// reproduces the document bit for bit (pinned by the round-trip test).
///
/// # Errors
///
/// Every [`Exploration::from_json`] error, and a document whose
/// benchmarks used mixed non-default problem sizes (those cannot be
/// expressed by the single `n` override).
pub fn resume_config(text: &str) -> Result<ExploreConfig, String> {
    let doc = Exploration::from_json(text)?;
    let first_n = doc.benches[0].n;
    let n = if doc.benches.iter().all(|b| b.n == default_n(&b.bench)) {
        None
    } else if doc.benches.iter().all(|b| b.n == first_n) {
        Some(first_n)
    } else {
        return Err("benchmarks used mixed non-default problem sizes; \
             cannot express them as one --n override"
            .to_string());
    };
    Ok(ExploreConfig {
        bench_ids: doc.benches.iter().map(|b| b.bench.clone()).collect(),
        n,
        seed: doc.seed,
        fuel: doc.fuel,
        grid: doc.grid,
        area: doc.area,
        ..ExploreConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{explore, ExploreConfig};
    use crate::GridConfig;

    fn tiny() -> Exploration {
        let cfg = ExploreConfig {
            bench_ids: vec!["fir".to_string()],
            grid: GridConfig::quick(),
            n: Some(64),
            ..ExploreConfig::default()
        };
        explore(&cfg).unwrap()
    }

    #[test]
    fn emitted_document_validates() {
        let result = tiny();
        let text = result.to_json().pretty();
        let summary = validate_explore_json(&text).expect("document validates");
        assert_eq!(summary.benchmarks, 1);
        assert_eq!(summary.candidates, result.candidates.len());
        assert!(summary.scalar_outperformed, "fir accelerates");
        assert_eq!(summary.frontier_sizes[0].0, "fir");
        assert!(summary.frontier_sizes[0].1 >= 1);
    }

    #[test]
    fn tampered_documents_are_rejected() {
        let text = tiny().to_json().pretty();
        assert!(validate_explore_json(&text.replace(EXPLORE_SCHEMA, "bogus")).is_err());
        // Flip a frontier flag: recomputation catches it.
        let flipped = text.replacen("\"on_frontier\": true", "\"on_frontier\": false", 1);
        assert_ne!(flipped, text, "document has a frontier point");
        let err = validate_explore_json(&flipped).unwrap_err();
        assert!(err.contains("frontier"), "{err}");
        assert!(validate_explore_json("{}").is_err());
        assert!(validate_explore_json("not json").is_err());
    }

    #[test]
    fn text_report_names_frontier_and_why() {
        let result = tiny();
        let text = result.render_text();
        assert!(text.contains("== fir"), "{text}");
        assert!(text.contains("suite"), "{text}");
        assert!(text.contains("why "), "{text}");
        for name in &result.benches[0].frontier {
            assert!(text.contains(name.as_str()), "missing {name}");
        }
    }
}
