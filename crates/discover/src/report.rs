//! The stable `matic-discover-v2` report document.
//!
//! A discovery run serializes to a committed-artifact-friendly JSON
//! document: search parameters, per-bench mined ops, the winning design
//! point (with its *full* spec embedded, fused cost included, so a later
//! session can rebuild and re-simulate it without the search), and the
//! dominance verdict. [`validate_discover_json`] is the structural check
//! CI runs against the committed report.

use crate::runner::{BenchDiscovery, Discovery, Winner};
use matic_explore::CandidatePoint;
use matic_isa::json::{parse, Json};

/// Schema tag of the discovery report document.
pub const DISCOVER_SCHEMA: &str = "matic-discover-v2";

fn num(n: f64) -> Json {
    Json::Num(n)
}

fn string(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn winner_json(w: &Winner) -> Json {
    let spec_doc = parse(&w.spec.to_json()).expect("spec serializes to valid JSON");
    let mut fields = vec![("name".into(), string(&w.name)), ("spec".into(), spec_doc)];
    if let Some(f) = &w.fused {
        fields.push((
            "fused".into(),
            Json::Obj(vec![
                ("op".into(), string(f.fop.mnemonic())),
                ("builtin".into(), string(f.fop.builtin_name())),
                ("describes".into(), string(f.fop.describe())),
                ("cost".into(), num(f.cost as f64)),
                ("sites".into(), num(f.sites as f64)),
            ]),
        ));
    }
    fields.extend([
        ("cycles".into(), num(w.cycles as f64)),
        ("area".into(), num(w.area)),
        (
            "dominates_committed_best".into(),
            Json::Bool(w.dominates_committed_best),
        ),
        (
            "beats_every_frontier_point_on_cycles".into(),
            Json::Bool(w.beats_every_frontier_point_on_cycles),
        ),
        ("verified_by_resimulation".into(), Json::Bool(true)),
        (
            "speedup_vs_committed_best".into(),
            num(w.speedup_vs_committed_best),
        ),
    ]);
    Json::Obj(fields)
}

/// A committed exploration point, as the report cites it.
fn point_json(p: &CandidatePoint) -> Json {
    Json::Obj(vec![
        ("name".into(), string(&p.name)),
        ("cycles".into(), num(p.cycles as f64)),
        ("area".into(), num(p.area)),
    ])
}

fn bench_json(b: &BenchDiscovery) -> Json {
    Json::Obj(vec![
        ("bench".into(), string(&b.bench)),
        ("entry".into(), string(&b.entry)),
        ("n".into(), num(b.n as f64)),
        ("committed_best".into(), point_json(&b.committed_best)),
        (
            "frontier".into(),
            Json::Arr(b.frontier.iter().map(point_json).collect()),
        ),
        (
            "mined".into(),
            Json::Arr(
                b.mined
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("op".into(), string(m.fop.mnemonic())),
                            ("builtin".into(), string(m.fop.builtin_name())),
                            ("sites".into(), num(m.sites as f64)),
                            ("weight".into(), num(m.weight as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("winner".into(), winner_json(&b.winner)),
        ("evals".into(), num(b.evals as f64)),
    ])
}

impl Discovery {
    /// The stable `matic-discover-v2` JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), string(DISCOVER_SCHEMA)),
            ("generated_by".into(), string("matic-discover")),
            ("seed".into(), num(self.seed as f64)),
            ("budget".into(), num(self.budget as f64)),
            ("stimulus_seed".into(), num(self.stimulus_seed as f64)),
            (
                "benchmarks".into(),
                Json::Arr(self.benches.iter().map(bench_json).collect()),
            ),
        ])
    }
}

impl Discovery {
    /// The terminal report: per benchmark, the committed best, the mined
    /// fused ops, and the winner with its dominance verdict.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "discovery: {} benchmark(s), seed {}, budget {} evals/bench\n",
            self.benches.len(),
            self.seed,
            self.budget
        );
        for b in &self.benches {
            let (best, w) = (&b.committed_best, &b.winner);
            let mined: Vec<String> = b
                .mined
                .iter()
                .map(|m| format!("{}({} sites, weight {})", m.fop, m.sites, m.weight))
                .collect();
            let verdict = if w.dominates_committed_best && w.beats_every_frontier_point_on_cycles {
                "dominates the committed best"
            } else if w.dominates_committed_best {
                "dominates the best, ties the frontier"
            } else {
                "no dominating point found"
            };
            out.push_str(&format!(
                "\n{:8} committed best {} ({} cy @ {:.3})\n         mined: {}\n         \
                 winner {} ({} cy @ {:.3}, {:.2}x) — {verdict} after {} evals\n",
                b.bench,
                best.name,
                best.cycles,
                best.area,
                if mined.is_empty() {
                    "none".to_string()
                } else {
                    mined.join(", ")
                },
                w.name,
                w.cycles,
                w.area,
                w.speedup_vs_committed_best,
                b.evals
            ));
        }
        out
    }
}

fn require<'a>(doc: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("{ctx}: missing field `{key}`"))
}

fn require_bool(doc: &Json, key: &str, ctx: &str) -> Result<bool, String> {
    require(doc, key, ctx)?
        .as_bool()
        .ok_or_else(|| format!("{ctx}: field `{key}` must be a bool"))
}

/// Structurally validates a `matic-discover-v2` document and enforces
/// the acceptance bar: at least one benchmark's winner must dominate its
/// committed best, beat every committed frontier point on cycles, and be
/// marked as verified by re-simulation.
///
/// # Errors
///
/// Names the first violated requirement.
pub fn validate_discover_json(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != DISCOVER_SCHEMA {
        return Err(format!("schema `{schema}`, expected `{DISCOVER_SCHEMA}`"));
    }
    for key in ["seed", "budget", "stimulus_seed"] {
        require(&doc, key, "report")?
            .as_u64()
            .ok_or_else(|| format!("report: `{key}` must be a non-negative integer"))?;
    }
    let benches = match require(&doc, "benchmarks", "report")? {
        Json::Arr(items) if !items.is_empty() => items,
        Json::Arr(_) => return Err("report: `benchmarks` is empty".to_string()),
        _ => return Err("report: `benchmarks` must be an array".to_string()),
    };
    let mut any_dominates = false;
    for b in benches {
        let bench = require(b, "bench", "benchmark")?
            .as_str()
            .ok_or("benchmark: `bench` must be a string")?
            .to_string();
        let winner = require(b, "winner", &bench)?;
        let wctx = format!("{bench}.winner");
        require(winner, "name", &wctx)?
            .as_str()
            .ok_or_else(|| format!("{wctx}: `name` must be a string"))?;
        let spec_doc = require(winner, "spec", &wctx)?;
        matic_isa::IsaSpec::from_json(&spec_doc.pretty())
            .map_err(|e| format!("{wctx}: embedded spec does not rebuild: {e}"))?;
        let cycles = require(winner, "cycles", &wctx)?
            .as_u64()
            .ok_or_else(|| format!("{wctx}: `cycles` must be a non-negative integer"))?;
        if cycles == 0 {
            return Err(format!("{wctx}: zero cycles"));
        }
        require(winner, "area", &wctx)?
            .as_f64()
            .filter(|a| *a > 0.0)
            .ok_or_else(|| format!("{wctx}: `area` must be positive"))?;
        let dominates = require_bool(winner, "dominates_committed_best", &wctx)?;
        let beats = require_bool(winner, "beats_every_frontier_point_on_cycles", &wctx)?;
        let verified = require_bool(winner, "verified_by_resimulation", &wctx)?;
        if dominates && beats && verified {
            any_dominates = true;
        }
    }
    if !any_dominates {
        return Err(
            "no benchmark's winner dominates its committed best (verified, and faster than \
             every frontier point)"
                .to_string(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{discover, DiscoverConfig};

    fn committed_frontier() -> String {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../EXPLORE_frontier.json"
        ))
        .expect("committed frontier")
    }

    #[test]
    fn a_quick_run_serializes_and_validates() {
        let mut cfg = DiscoverConfig::quick(&committed_frontier());
        cfg.bench_ids = Some(vec!["iir".to_string()]);
        let result = discover(&cfg).expect("search runs");
        let text = result.to_json().pretty();
        validate_discover_json(&text).expect("self-validates");
        // The document round-trips through the parser byte-for-byte.
        assert_eq!(parse(&text).unwrap().pretty(), text);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_discover_json("{").is_err());
        assert!(validate_discover_json("{\"schema\": \"nope\"}")
            .unwrap_err()
            .contains("schema"));
        let mut cfg = DiscoverConfig::quick(&committed_frontier());
        cfg.bench_ids = Some(vec!["iir".to_string()]);
        let text = discover(&cfg).unwrap().to_json().pretty();
        // Flipping the verdict bits must fail the acceptance bar.
        let unverified = text.replace(
            "\"verified_by_resimulation\": true",
            "\"verified_by_resimulation\": false",
        );
        assert!(validate_discover_json(&unverified)
            .unwrap_err()
            .contains("dominate"));
        // Dropping the benchmarks array fails structurally.
        assert!(validate_discover_json("{\"schema\": \"matic-discover-v2\", \"seed\": 1, \"budget\": 4, \"stimulus_seed\": 3, \"benchmarks\": []}")
            .is_err());
    }
}
