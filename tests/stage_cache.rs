//! Compile-cache integration tests: cached compilation must be a pure
//! performance optimization — bit-identical artifacts and cycle reports,
//! under concurrency, across distinct sources and ISA specs — with one
//! entry per distinct request.

use matic::{arg, Compiler, IsaSpec, SimVal, StageCache, Ty};
use std::sync::Arc;

const DOTP: &str = "function s = dotp(a, b)\ns = sum(a .* b);\nend";
const GAIN: &str = "function y = gain(x, k)\ny = k .* x;\nend";

fn dotp_sig() -> Vec<Ty> {
    vec![arg::vector(64), arg::vector(64)]
}

fn gain_sig() -> Vec<Ty> {
    vec![arg::vector(64), arg::scalar()]
}

fn inputs(sig: &[Ty]) -> Vec<SimVal> {
    matic::reportfmt::synth_inputs(sig, 7)
}

/// One request shape: a (source, entry, sig, target) tuple the threads
/// below compile over and over.
#[derive(Clone)]
struct Req {
    src: &'static str,
    entry: &'static str,
    sig: Vec<Ty>,
    spec: IsaSpec,
}

fn workload() -> Vec<Req> {
    vec![
        Req {
            src: DOTP,
            entry: "dotp",
            sig: dotp_sig(),
            spec: IsaSpec::dsp16(),
        },
        Req {
            src: DOTP,
            entry: "dotp",
            sig: dotp_sig(),
            spec: IsaSpec::with_width(4),
        },
        Req {
            src: GAIN,
            entry: "gain",
            sig: gain_sig(),
            spec: IsaSpec::dsp16(),
        },
        Req {
            src: GAIN,
            entry: "gain",
            sig: gain_sig(),
            spec: IsaSpec::scalar_baseline(),
        },
    ]
}

#[test]
fn concurrent_mixed_requests_stay_bit_identical() {
    let cache = Arc::new(StageCache::new());
    let reqs = workload();

    // Standalone (uncached) reference results, one per request shape.
    let reference: Vec<(String, matic::CycleReport)> = reqs
        .iter()
        .map(|r| {
            let compiled = Compiler::new()
                .target(r.spec.clone())
                .compile(r.src, r.entry, &r.sig)
                .expect("standalone compile");
            let out = compiled.simulate(inputs(&r.sig)).expect("standalone sim");
            (compiled.c.source.clone(), out.cycles)
        })
        .collect();

    // 8 threads × 3 rounds over the same 4 request shapes, all sharing
    // one cache: every result must match its standalone reference
    // byte-for-byte (C text) and cycle-for-cycle.
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let reqs = &reqs;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Stagger the starting shape so threads collide on
                    // every key, not just the first.
                    for k in 0..reqs.len() {
                        let i = (t + round + k) % reqs.len();
                        let r = &reqs[i];
                        let compiled = Compiler::new()
                            .target(r.spec.clone())
                            .compile_cached(&cache, r.src, r.entry, &r.sig)
                            .expect("cached compile");
                        assert_eq!(
                            compiled.c.source, reference[i].0,
                            "C text diverged for request {i}"
                        );
                        let out = compiled.simulate(inputs(&r.sig)).expect("cached sim");
                        assert_eq!(
                            out.cycles, reference[i].1,
                            "cycle report diverged for request {i}"
                        );
                    }
                }
            });
        }
    });

    let s = cache.stats();
    let lookups = (THREADS * ROUNDS * reqs.len()) as u64;
    let distinct = reqs.len();
    // Live entries are exact — first-writer-wins dedups concurrent
    // builders of the same request even when several record a miss.
    assert_eq!(s.entries(), distinct, "one entry per distinct request");
    assert_eq!(s.hits() + s.misses(), lookups);
    // Misses may exceed the entry count by racing threads (at most one
    // per thread per request) but never approach the lookup count: after
    // warmup, everything hits.
    assert!(
        (distinct as u64..=(distinct * THREADS) as u64).contains(&s.misses()),
        "{} misses for {distinct} requests; stats: {s:?}",
        s.misses()
    );
}

#[test]
fn repeated_compiles_skip_parse_sema_and_lower() {
    let cache = StageCache::new();
    let compiler = Compiler::new();
    let first = compiler
        .compile_cached(&cache, DOTP, "dotp", &dotp_sig())
        .expect("compile");
    for _ in 0..4 {
        let again = compiler
            .compile_cached(&cache, DOTP, "dotp", &dotp_sig())
            .expect("compile");
        // The very artifacts of the first compile: nothing re-ran.
        assert!(Arc::ptr_eq(&again.ast, &first.ast));
        assert!(Arc::ptr_eq(&again.mir, &first.mir));
        assert!(Arc::ptr_eq(&again.c, &first.c));
    }
    let s = cache.stats();
    assert_eq!((s.hits(), s.misses(), s.entries()), (4, 1, 1));
}

#[test]
fn clear_resets_counters_so_stats_report_a_fresh_window() {
    // Regression: `clear()` used to drop entries but keep the hit/miss
    // counters, so `matic request stats` after a clear still reported
    // telemetry about entries that no longer existed.
    let cache = StageCache::new();
    let compiler = Compiler::new();
    for _ in 0..3 {
        compiler
            .compile_cached(&cache, DOTP, "dotp", &dotp_sig())
            .expect("compile");
    }
    let warm = cache.stats();
    assert!(warm.hits() > 0 && warm.misses() > 0);

    cache.clear();
    let fresh = cache.stats();
    assert_eq!((fresh.hits(), fresh.misses()), (0, 0), "counters reset");
    assert_eq!(fresh.entries(), 0, "entries dropped");

    // Work after the clear is counted from zero: one miss, then pure
    // hits — exactly what a fresh cache would report.
    for _ in 0..2 {
        compiler
            .compile_cached(&cache, DOTP, "dotp", &dotp_sig())
            .expect("recompile");
    }
    let s = cache.stats();
    assert_eq!((s.hits(), s.misses(), s.entries()), (1, 1, 1));
}

#[test]
fn retargeted_requests_miss_and_match_standalone_compiles() {
    let cache = StageCache::new();
    let sig = dotp_sig();
    let specs = [
        IsaSpec::dsp16(),
        IsaSpec::with_width(4),
        // Same width as dsp16 but a distinct spec (another name), so a
        // distinct request.
        IsaSpec::with_width(16),
    ];
    for (k, spec) in specs.iter().enumerate() {
        let compiler = Compiler::new().target(spec.clone());
        let cached = compiler
            .compile_cached(&cache, DOTP, "dotp", &sig)
            .expect("cached compile");
        let s = cache.stats();
        assert_eq!((s.hits(), s.misses()), (0, k as u64 + 1), "{}", spec.name);
        let standalone = compiler.compile(DOTP, "dotp", &sig).expect("standalone");
        assert_eq!(cached.c.source, standalone.c.source, "{}", spec.name);
        assert_eq!(
            cached.simulate(inputs(&sig)).expect("cached sim").cycles,
            standalone
                .simulate(inputs(&sig))
                .expect("standalone sim")
                .cycles,
            "{}",
            spec.name
        );
    }
    assert_eq!(cache.stats().entries(), specs.len());
}
