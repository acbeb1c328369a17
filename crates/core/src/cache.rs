//! The compile cache: identical compilation requests share one
//! [`Compiled`] across callers (the `matic serve` request path).
//!
//! The compiler is a one-shot translator — one (source, entry signature,
//! optimization level, target) request in, one C module out — so the
//! cache is one map from that request to its result. An entry's key *is*
//! the request: the source text, entry name, argument types, [`OptLevel`]
//! and [`IsaSpec`], stored whole next to the artifact. A lookup hits only
//! when every one of them is equal; the hash merely picks the bucket, so
//! two requests whose hashes collide still get their own artifacts.
//!
//! There is no invalidation protocol: an entry is the output of a pure
//! function of its key, so it never goes stale, and a changed input is a
//! different key. [`StageCache::clear`] exists for memory pressure (it
//! also resets the hit/miss counters, starting a fresh statistics window).
//!
//! Every hit returns a clone of the stored [`Compiled`], whose decode and
//! native-fusion cell is shared, so simulators spawned from any hit reuse
//! the same decoded and fused program. Failed compilations are *not*
//! cached: errors are cheap to recompute, and keeping them out keeps
//! every entry immutable and always valid. Because entries are inserted
//! whole and never mutated, a lock poisoned by a panicking thread still
//! guards a consistent map, and lookups carry on through the poison.

use crate::pipeline::{CompileError, Compiled, Compiler, OptLevel};
use matic_isa::IsaSpec;
use matic_sema::{Class, Shape, Ty};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Builds the hashers that pick a request's bucket. Unit tests pin every
/// request to one bucket, so each of them also exercises the equality
/// check that separates colliding requests.
#[cfg(not(test))]
type Buckets = std::collections::hash_map::RandomState;
#[cfg(test)]
type Buckets = std::hash::BuildHasherDefault<tests::OneBucket>;

/// Everything that determines a compilation's output. Argument-type
/// constants are kept by bit pattern, so equality is exact.
#[derive(Debug, PartialEq, Eq, Hash)]
struct Request {
    source: String,
    entry: String,
    sig: Vec<(Class, Shape, Option<u64>)>,
    opt: OptLevel,
    spec: Arc<IsaSpec>,
}

impl Request {
    fn new(compiler: &Compiler, source: &str, entry: &str, arg_types: &[Ty]) -> Request {
        Request {
            source: source.to_string(),
            entry: entry.to_string(),
            sig: arg_types
                .iter()
                .map(|t| (t.class, t.shape, t.constant.map(f64::to_bits)))
                .collect(),
            opt: compiler.opt(),
            spec: Arc::clone(&compiler.spec),
        }
    }
}

/// A point-in-time snapshot of the cache's counters (see
/// [`StageCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    hits: u64,
    misses: u64,
    entries: usize,
}

impl CacheStats {
    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Live entries: distinct requests that compiled successfully.
    pub fn entries(&self) -> usize {
        self.entries
    }
}

/// The shared, thread-safe compile cache (see the module docs). One
/// instance is shared by every worker thread of a `matic serve` process;
/// it is also usable directly via [`Compiler::compile_cached`].
#[derive(Debug, Default)]
pub struct StageCache {
    entries: Mutex<HashMap<Request, Compiled, Buckets>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> StageCache {
        StageCache::default()
    }

    fn entries(&self) -> MutexGuard<'_, HashMap<Request, Compiled, Buckets>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the hit/miss counters and the live entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries().len(),
        }
    }

    /// Drops every cached artifact and resets the hit/miss counters, so
    /// statistics read after a clear describe only the work done since —
    /// `matic request stats` on a freshly cleared server reports fresh
    /// numbers instead of telemetry for entries that no longer exist.
    pub fn clear(&self) {
        self.entries().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl Compiler {
    /// Like [`Compiler::compile`], but serves a repeated request from
    /// `cache` and stores a new one in it. The result is bit-identical to
    /// an uncached compilation of the same inputs — same C text, same MIR,
    /// same cycle reports from any simulator spawned from it — because a
    /// cached entry *is* the result an uncached run produced.
    ///
    /// A hit reports the per-pass timings of the request that built it.
    /// When several threads miss on one request at once, each compiles,
    /// the first to finish stores its result and all of them return it.
    ///
    /// # Errors
    ///
    /// Returns the first error from any stage. Failures are never cached.
    pub fn compile_cached(
        &self,
        cache: &StageCache,
        src: &str,
        entry: &str,
        arg_types: &[Ty],
    ) -> Result<Compiled, CompileError> {
        let request = Request::new(self, src, entry, arg_types);
        if let Some(hit) = cache.entries().get(&request).cloned() {
            cache.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        cache.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = self.compile(src, entry, arg_types)?;
        Ok(cache.entries().entry(request).or_insert(compiled).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::arg;
    use std::hash::{BuildHasher, Hasher};

    /// A hasher that sends every key to the same bucket.
    #[derive(Default)]
    pub(super) struct OneBucket;

    impl Hasher for OneBucket {
        fn write(&mut self, _: &[u8]) {}

        fn finish(&self) -> u64 {
            0
        }
    }

    const SRC: &str = "function s = dotp(a, b)\ns = sum(a .* b);\nend";

    fn args() -> Vec<Ty> {
        vec![arg::vector(64), arg::vector(64)]
    }

    fn counts(cache: &StageCache) -> (u64, u64, usize) {
        let s = cache.stats();
        (s.hits(), s.misses(), s.entries())
    }

    #[test]
    fn repeated_request_is_served_from_the_cache() {
        let cache = StageCache::new();
        let compiler = Compiler::new();
        let a = compiler
            .compile_cached(&cache, SRC, "dotp", &args())
            .expect("first compile");
        assert_eq!(counts(&cache), (0, 1, 1));
        let b = compiler
            .compile_cached(&cache, SRC, "dotp", &args())
            .expect("second compile");
        assert_eq!(counts(&cache), (1, 1, 1));
        // Same artifacts, not merely equal ones.
        assert!(Arc::ptr_eq(&a.mir, &b.mir));
        assert!(Arc::ptr_eq(&a.c, &b.c));
    }

    #[test]
    fn cached_result_is_bit_identical_to_fresh_compilation() {
        let cache = StageCache::new();
        let compiler = Compiler::new();
        compiler
            .compile_cached(&cache, SRC, "dotp", &args())
            .expect("warm the cache");
        let cached = compiler
            .compile_cached(&cache, SRC, "dotp", &args())
            .expect("cache-served compile");
        let fresh = compiler
            .compile(SRC, "dotp", &args())
            .expect("fresh compile");
        assert_eq!(cached.c.source, fresh.c.source);
        assert_eq!(cached.mir_dump(), fresh.mir_dump());
        let inputs = || {
            vec![
                matic_asip::SimVal::row(&(0..64).map(|i| i as f64).collect::<Vec<_>>()),
                matic_asip::SimVal::row(&[0.25; 64]),
            ]
        };
        let rc = cached.simulate(inputs()).expect("cached sim");
        let rf = fresh.simulate(inputs()).expect("fresh sim");
        assert_eq!(rc.cycles, rf.cycles);
        assert_eq!(rc.outputs, rf.outputs);
    }

    #[test]
    fn colliding_requests_each_get_their_own_artifact() {
        // Every request below differs from the first in one part of its
        // key, and all of them land in one bucket.
        let base = (Compiler::new(), SRC, "dotp", args());
        let requests = [
            base.clone(),
            (
                Compiler::new(),
                "function s = dotp(a, b)\ns = sum(a - b);\nend",
                "dotp",
                args(),
            ),
            (
                Compiler::new(),
                "function s = dotp(a, b)\ns = sum(a .* b);\nend\nfunction y = g(x)\ny = x;\nend",
                "g",
                vec![arg::vector(8)],
            ),
            (
                Compiler::new(),
                SRC,
                "dotp",
                vec![arg::vector(32), arg::vector(32)],
            ),
            (
                Compiler::new().opt_level(OptLevel::baseline()),
                SRC,
                "dotp",
                args(),
            ),
            (
                Compiler::new().target(IsaSpec::with_width(4)),
                SRC,
                "dotp",
                args(),
            ),
        ];
        let keys: Vec<Request> = requests
            .iter()
            .map(|(c, src, entry, sig)| Request::new(c, src, entry, sig))
            .collect();
        let buckets = Buckets::default();
        for key in &keys[1..] {
            assert_ne!(key, &keys[0]);
            assert_eq!(buckets.hash_one(key), buckets.hash_one(&keys[0]));
        }

        let cache = StageCache::new();
        for _ in 0..2 {
            for (compiler, src, entry, sig) in &requests {
                let cached = compiler
                    .compile_cached(&cache, src, entry, sig)
                    .expect("cached compile");
                let fresh = compiler.compile(src, entry, sig).expect("fresh compile");
                assert_eq!(cached.c.source, fresh.c.source, "{entry} {sig:?}");
                assert_eq!(cached.mir_dump(), fresh.mir_dump());
            }
        }
        let n = requests.len();
        assert_eq!(counts(&cache), (n as u64, n as u64, n));
    }

    #[test]
    fn a_poisoned_lock_keeps_serving() {
        let cache = StageCache::new();
        let compiler = Compiler::new();
        let first = compiler
            .compile_cached(&cache, SRC, "dotp", &args())
            .expect("first compile");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.entries.lock();
                panic!("poison the cache lock");
            })
            .join()
            .expect_err("the thread panics");
        });
        assert!(cache.entries.is_poisoned());

        let hit = compiler
            .compile_cached(&cache, SRC, "dotp", &args())
            .expect("hit through the poisoned lock");
        assert!(Arc::ptr_eq(&hit.c, &first.c));
        let other = Compiler::new().opt_level(OptLevel::baseline());
        let miss = other
            .compile_cached(&cache, SRC, "dotp", &args())
            .expect("miss through the poisoned lock");
        let fresh = other.compile(SRC, "dotp", &args()).expect("fresh compile");
        assert_eq!(miss.c.source, fresh.c.source);
        assert_eq!(counts(&cache), (1, 2, 2));
    }

    #[test]
    fn argument_constants_are_compared_exactly() {
        let mut zero = arg::scalar();
        zero.constant = Some(0.0);
        let mut negative_zero = arg::scalar();
        negative_zero.constant = Some(-0.0);
        let compiler = Compiler::new();
        assert_ne!(
            Request::new(&compiler, SRC, "f", &[zero]),
            Request::new(&compiler, SRC, "f", &[negative_zero])
        );
    }

    #[test]
    fn failures_are_not_cached() {
        let cache = StageCache::new();
        let compiler = Compiler::new();
        for _ in 0..2 {
            compiler
                .compile_cached(&cache, "x = ;", "f", &[])
                .expect_err("parse error");
        }
        assert_eq!(counts(&cache), (0, 2, 0), "errors recompile every time");
    }

    #[test]
    fn clear_empties_entries_and_resets_counters() {
        let cache = StageCache::new();
        for _ in 0..2 {
            Compiler::new()
                .compile_cached(&cache, SRC, "dotp", &args())
                .expect("compile");
        }
        assert_eq!(counts(&cache), (1, 1, 1));
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default(), "a fresh window");
    }
}
