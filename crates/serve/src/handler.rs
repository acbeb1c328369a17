//! Request handling: turns one decoded request object into one response
//! envelope, serving every compilation through the shared compile cache,
//! which holds one entry per distinct (source, entry, signature,
//! optimization level, target) request.

use crate::protocol::{err, need_str, obj, ok, opt_bool, opt_u64};
use matic::reportfmt::{self, CyclesOptions, DEFAULT_MAX_CYCLES};
use matic::{CompileError, Compiled, Compiler, OptLevel, SimErrorKind, StageCache, Ty};
use matic_isa::json::Json;
use matic_isa::IsaSpec;
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest problem size an `explore` request may ask for: the largest
/// size the paper measures. matmul's inputs are `n`×`n`, so an unbounded
/// `n` lets one request allocate without limit in a shared worker.
pub const MAX_EXPLORE_N: u64 = 1024;

/// Most elements one signature slot may declare. A `cycles` request
/// synthesizes an input of that many elements, so an unbounded slot lets
/// one request allocate without limit in a shared worker.
pub const MAX_SIG_ELEMS: usize = 1 << 20;

/// Most SIMD widths an `explore` request may list; the default grid uses
/// six. Every width multiplies the candidate grid.
pub const MAX_EXPLORE_WIDTHS: usize = 16;

/// Per-request resource budgets. Every limit produces a structured
/// `budget` error (never a silent truncation), except `max_fuel`, which
/// *clamps*: a request asking for more fuel than the server allows runs
/// with the server's ceiling, mirroring how the CLI's `--max-cycles`
/// caps rather than rejects long simulations.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Largest accepted MATLAB source, in bytes.
    pub max_source_bytes: usize,
    /// Fuel ceiling per simulation run (requests are clamped to it).
    pub max_fuel: u64,
    /// Largest accepted request frame, in bytes.
    pub max_frame_bytes: u32,
}

impl Default for Budgets {
    fn default() -> Budgets {
        Budgets {
            max_source_bytes: 1 << 20,
            max_fuel: DEFAULT_MAX_CYCLES,
            max_frame_bytes: 4 << 20,
        }
    }
}

/// Shared server state: one compile cache and the request counters,
/// shared by every worker thread.
#[derive(Debug, Default)]
pub struct ServeState {
    /// Per-request limits.
    pub budgets: Budgets,
    cache: StageCache,
    requests: AtomicU64,
    errors: AtomicU64,
}

/// A request failure, carried as `(kind, message, stage)` until it is
/// rendered into the error envelope.
struct Failure {
    kind: &'static str,
    message: String,
    stage: Option<String>,
}

impl Failure {
    fn protocol(message: impl Into<String>) -> Failure {
        Failure {
            kind: "protocol",
            message: message.into(),
            stage: None,
        }
    }

    fn budget(message: impl Into<String>) -> Failure {
        Failure {
            kind: "budget",
            message: message.into(),
            stage: None,
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::protocol(message)
    }
}

impl From<CompileError> for Failure {
    fn from(e: CompileError) -> Failure {
        Failure {
            kind: "compile",
            stage: Some(e.stage().to_string()),
            message: e.to_string(),
        }
    }
}

impl From<matic::SimError> for Failure {
    fn from(e: matic::SimError) -> Failure {
        let kind = match e.kind {
            SimErrorKind::FuelExhausted => "fuel-exhausted",
            SimErrorKind::OutOfBounds => "out-of-bounds",
            SimErrorKind::Trap => "trap",
        };
        Failure {
            kind: "sim",
            stage: Some(kind.to_string()),
            message: e.to_string(),
        }
    }
}

impl ServeState {
    /// A state with the given budgets and an empty cache.
    pub fn new(budgets: Budgets) -> ServeState {
        ServeState {
            budgets,
            ..ServeState::default()
        }
    }

    /// The shared compile cache (exposed for tests and stats).
    pub fn cache(&self) -> &StageCache {
        &self.cache
    }

    /// Handles one request, returning the response envelope. Never
    /// panics on malformed input — every failure becomes an `ok: false`
    /// envelope with a structured error.
    pub fn handle(&self, req: &Json) -> Json {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let outcome = match req.get("op").and_then(Json::as_str) {
            Some("ping") => Ok(obj(vec![("pong", Json::Bool(true))])),
            Some("stats") => Ok(self.stats()),
            Some("compile") => self.compile_op(req),
            Some("cycles") => self.cycles_op(req),
            Some("explore") => self.explore_op(req),
            Some(other) => Err(Failure::protocol(format!("unknown op `{other}`"))),
            None => Err(Failure::protocol("request is missing string field `op`")),
        };
        match outcome {
            Ok(result) => ok(result),
            Err(f) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                err(f.kind, &f.message, f.stage.as_deref())
            }
        }
    }

    fn stats(&self) -> Json {
        let s = self.cache.stats();
        let n = |v: u64| Json::Num(v as f64);
        obj(vec![
            ("requests", n(self.requests.load(Ordering::Relaxed))),
            ("errors", n(self.errors.load(Ordering::Relaxed))),
            (
                "cache",
                obj(vec![
                    ("hits", n(s.hits())),
                    ("misses", n(s.misses())),
                    ("entries", n(s.entries() as u64)),
                ]),
            ),
        ])
    }

    /// Decodes the fields shared by `compile` and `cycles`.
    fn common(&self, req: &Json) -> Result<(String, String, Vec<Ty>, IsaSpec), Failure> {
        let source = need_str(req, "source")?.to_string();
        if source.len() > self.budgets.max_source_bytes {
            return Err(Failure::budget(format!(
                "source of {} bytes exceeds the {}-byte budget",
                source.len(),
                self.budgets.max_source_bytes
            )));
        }
        let entry = need_str(req, "entry")?.to_string();
        let sig = reportfmt::parse_sig(need_str(req, "sig")?).map_err(Failure::protocol)?;
        check_sig(&sig)?;
        let target = resolve_target(req.get("target"))?;
        Ok((source, entry, sig, target))
    }

    fn compile_cached(
        &self,
        target: IsaSpec,
        level: OptLevel,
        source: &str,
        entry: &str,
        sig: &[Ty],
    ) -> Result<Compiled, CompileError> {
        Compiler::new()
            .target(target)
            .opt_level(level)
            .compile_cached(&self.cache, source, entry, sig)
    }

    fn compile_op(&self, req: &Json) -> Result<Json, Failure> {
        let (source, entry, sig, target) = self.common(req)?;
        let baseline = opt_bool(req, "baseline")?.unwrap_or(false);
        let level = if baseline {
            OptLevel::baseline()
        } else {
            OptLevel::full()
        };
        let compiled = self.compile_cached(target, level, &source, &entry, &sig)?;
        let timings = compiled
            .timings
            .iter()
            .map(|t| {
                obj(vec![
                    ("pass", Json::Str(t.name.to_string())),
                    ("ms", Json::Num(t.duration.as_secs_f64() * 1e3)),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("target", Json::Str(compiled.spec.to_string())),
            ("c", Json::Str(compiled.c.source.clone())),
            ("timings", Json::Arr(timings)),
        ]))
    }

    fn cycles_op(&self, req: &Json) -> Result<Json, Failure> {
        let (source, entry, sig, target) = self.common(req)?;
        let opts = CyclesOptions {
            seed: opt_u64(req, "seed")?.unwrap_or(1),
            // Over-budget fuel requests clamp to the server ceiling.
            max_cycles: opt_u64(req, "max_cycles")?
                .unwrap_or(DEFAULT_MAX_CYCLES)
                .min(self.budgets.max_fuel)
                .max(1),
            profile: opt_bool(req, "profile")?.unwrap_or(false),
            ..CyclesOptions::default()
        };
        let optimized =
            self.compile_cached(target.clone(), OptLevel::full(), &source, &entry, &sig)?;
        let baseline = self.compile_cached(target, OptLevel::baseline(), &source, &entry, &sig)?;
        let run = reportfmt::run_cycles(&baseline, &optimized, &sig, &opts)?;
        let text = reportfmt::render_cycles(&run, &optimized, &source, &entry, opts.profile);
        Ok(obj(vec![
            ("engine", Json::Str(opts.engine.name().to_string())),
            (
                "baseline_cycles",
                Json::Num(run.baseline.cycles.total as f64),
            ),
            (
                "optimized_cycles",
                Json::Num(run.optimized.cycles.total as f64),
            ),
            ("text", Json::Str(text)),
        ]))
    }

    fn explore_op(&self, req: &Json) -> Result<Json, Failure> {
        use matic_explore::{explore, ExploreConfig, GridConfig};
        let mut cfg = ExploreConfig::default();
        if opt_bool(req, "quick")?.unwrap_or(false) {
            cfg.grid = GridConfig::quick();
        }
        if let Some(Json::Arr(items)) = req.get("benchmarks") {
            cfg.bench_ids = items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| Failure::protocol("`benchmarks` must be strings"))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(Json::Arr(items)) = req.get("widths") {
            if items.len() > MAX_EXPLORE_WIDTHS {
                return Err(Failure::budget(format!(
                    "{} widths exceed the server's limit of {MAX_EXPLORE_WIDTHS}",
                    items.len()
                )));
            }
            cfg.grid.widths = items
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| Failure::protocol("`widths` must be integers"))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(n) = opt_u64(req, "n")? {
            if n == 0 {
                return Err(Failure::protocol("field `n` must be a positive integer"));
            }
            if n > MAX_EXPLORE_N {
                return Err(Failure::budget(format!(
                    "field `n` = {n} exceeds the server's limit of {MAX_EXPLORE_N}"
                )));
            }
            cfg.n = Some(n as usize);
        }
        if let Some(seed) = opt_u64(req, "seed")? {
            cfg.seed = seed;
        }
        cfg.fuel = opt_u64(req, "max_cycles")?
            .unwrap_or(cfg.fuel)
            .min(self.budgets.max_fuel)
            .max(1);
        let result = explore(&cfg).map_err(Failure::protocol)?;
        Ok(obj(vec![
            ("text", Json::Str(result.render_text())),
            ("frontier", result.to_json()),
        ]))
    }
}

/// Rejects a signature with a slot of more than [`MAX_SIG_ELEMS`]
/// elements, before anything is built for it.
fn check_sig(sig: &[Ty]) -> Result<(), Failure> {
    for (k, ty) in sig.iter().enumerate() {
        let (rows, cols) = (ty.shape.rows.known(), ty.shape.cols.known());
        let elems = rows.unwrap_or(1).checked_mul(cols.unwrap_or(1));
        if elems.is_none_or(|n| n > MAX_SIG_ELEMS) {
            return Err(Failure::budget(format!(
                "signature slot {} exceeds the server's limit of {MAX_SIG_ELEMS} elements",
                k + 1
            )));
        }
    }
    Ok(())
}

/// Resolves the optional `target` field: absent → `dsp16`; a string →
/// one of the builtin target names; an object → a full ISA spec document
/// (validated).
fn resolve_target(field: Option<&Json>) -> Result<IsaSpec, Failure> {
    match field {
        None | Some(Json::Null) => Ok(IsaSpec::dsp16()),
        Some(Json::Str(name)) => {
            let builtin = [
                IsaSpec::dsp16(),
                IsaSpec::scalar_baseline(),
                IsaSpec::with_width(4),
                IsaSpec::with_width(16),
            ];
            builtin
                .into_iter()
                .find(|s| &s.name == name)
                .ok_or_else(|| Failure::protocol(format!("unknown builtin target `{name}`")))
        }
        Some(doc @ Json::Obj(_)) => {
            let spec = IsaSpec::from_json(&doc.pretty()).map_err(Failure::protocol)?;
            spec.validate().map_err(Failure::protocol)?;
            Ok(spec)
        }
        Some(_) => Err(Failure::protocol(
            "field `target` must be a builtin name or a spec object",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_signature_slots_are_rejected_without_building_them() {
        for sig in [
            "v100000000000",
            "cv1048577",
            "m1025x1024",
            "m4294967296x4294967296",
        ] {
            let sig = reportfmt::parse_sig(sig).expect("well-formed signature");
            let failure = check_sig(&sig).expect_err("over the element cap");
            assert_eq!(failure.kind, "budget");
        }
        let at_cap = reportfmt::parse_sig("s, v1048576, m1024x1024, cs").expect("signature");
        assert!(check_sig(&at_cap).is_ok());
    }
}
