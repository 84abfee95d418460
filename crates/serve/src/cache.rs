//! The content-addressed compiled-design cache.
//!
//! Compiling a design — levelizing RTL into bytecode, or synthesizing
//! to gates and levelizing the netlist — costs orders of magnitude more
//! than any single protocol request. The cache makes that cost a
//! once-per-design event: artefacts are keyed by a stable content hash
//! of their source ([`Module::stable_hash`](scflow_rtl::Module) /
//! [`GateNetlist::stable_hash`](scflow_gate::GateNetlist)), so any
//! number of concurrent sessions opening the same design share one
//! read-only [`Arc`]'d program.
//!
//! Two properties the tests pin:
//!
//! * **single-flight** — when N sessions race to open an uncached
//!   design, exactly one compiles ([`CacheStats::compiles`] counts
//!   actual compile executions); the rest block on a condvar until the
//!   artefact is ready and then share it,
//! * **LRU eviction** — beyond [`capacity`](CompileCache::capacity)
//!   entries, the least-recently-used artefact *not held by any live
//!   session* is dropped. Entries pinned by sessions are never evicted
//!   (the session's `Arc` keeps the program alive anyway; evicting the
//!   cache slot would only force a pointless recompile), so the cache
//!   can transiently exceed its capacity while everything is in use.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use scflow_gate::GateProgram;
use scflow_rtl::CompiledProgram;

/// A cached compiled artefact: one per (design content, level) pair.
#[derive(Debug)]
pub enum Artifact {
    /// Compiled levelized RTL bytecode (serves `rtl.compiled`).
    Rtl(CompiledProgram),
    /// Synthesized, levelized gate program (serves both gate engines:
    /// `gate.bitpar` executes it directly, `gate.event` runs its owned
    /// netlist).
    Gate(GateProgram),
}

impl Artifact {
    /// The RTL program, if this is an RTL artefact.
    pub fn rtl(&self) -> Option<&CompiledProgram> {
        match self {
            Artifact::Rtl(p) => Some(p),
            Artifact::Gate(_) => None,
        }
    }

    /// The gate program, if this is a gate artefact.
    pub fn gate(&self) -> Option<&GateProgram> {
        match self {
            Artifact::Gate(p) => Some(p),
            Artifact::Rtl(_) => None,
        }
    }
}

/// Cache effectiveness counters (monotonic over the cache's lifetime).
///
/// A waiter that blocks on an in-flight compile and then shares its
/// result counts as a *hit*: it paid no compile. So for an N-session
/// storm on one cold design the totals are deterministically
/// `misses == 1`, `compiles == 1`, `hits == N - 1`, independent of how
/// the threads interleave.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready (or in-flight) artefact.
    pub hits: u64,
    /// Lookups that found nothing and triggered a compile.
    pub misses: u64,
    /// Compile executions actually run (== misses unless a compile
    /// failed and was retried).
    pub compiles: u64,
    /// Ready artefacts dropped by LRU eviction.
    pub evictions: u64,
}

enum Slot {
    /// A compile for this key is in flight on some session's thread.
    Building,
    /// Ready to share.
    Ready { art: Arc<Artifact>, last_used: u64 },
}

struct Inner {
    slots: HashMap<u64, Slot>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    stats: CacheStats,
}

/// The shared compile cache (see the module docs for the contract).
pub struct CompileCache {
    cap: usize,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl CompileCache {
    /// A cache holding up to `capacity` unpinned artefacts (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CompileCache {
            cap: capacity.max(1),
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            ready: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Ready artefacts currently held.
    pub fn len(&self) -> usize {
        let g = self.inner.lock().expect("cache lock");
        g.slots
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// `true` when no ready artefact is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats
    }

    /// Looks up `key`, compiling via `build` on a miss. Returns the
    /// shared artefact and whether this call was a hit (a waiter that
    /// shared an in-flight compile counts as a hit). Only one thread
    /// ever runs `build` for a given key at a time; concurrent callers
    /// block until the artefact is ready.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error (a panicking `build` is reported as
    /// an error too, and the in-flight slot is released so waiters
    /// retry rather than hang).
    pub fn get_or_compile(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<Artifact, String>,
    ) -> Result<(Arc<Artifact>, bool), String> {
        let mut g = self.inner.lock().expect("cache lock");
        loop {
            let tick = g.tick + 1;
            match g.slots.get_mut(&key) {
                Some(Slot::Ready { art, last_used }) => {
                    *last_used = tick;
                    let art = art.clone();
                    g.tick = tick;
                    g.stats.hits += 1;
                    return Ok((art, true));
                }
                Some(Slot::Building) => {
                    g = self.ready.wait(g).expect("cache lock");
                }
                None => break,
            }
        }
        g.slots.insert(key, Slot::Building);
        g.stats.misses += 1;
        g.stats.compiles += 1;
        drop(g);

        // Compile outside the lock so other keys proceed concurrently.
        // The engines are all safe code, but a build panic must not
        // leave waiters stuck on a Building slot forever.
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
            .unwrap_or_else(|p| Err(format!("compile panicked: {}", panic_message(&*p))));

        let mut g = self.inner.lock().expect("cache lock");
        match built {
            Ok(art) => {
                let art = Arc::new(art);
                g.tick += 1;
                let t = g.tick;
                g.slots.insert(
                    key,
                    Slot::Ready {
                        art: art.clone(),
                        last_used: t,
                    },
                );
                Self::evict_locked(self.cap, &mut g);
                self.ready.notify_all();
                Ok((art, false))
            }
            Err(e) => {
                g.slots.remove(&key);
                self.ready.notify_all();
                Err(e)
            }
        }
    }

    /// Drops least-recently-used unpinned artefacts until at most `cap`
    /// ready entries remain (or everything left is pinned).
    fn evict_locked(cap: usize, g: &mut Inner) {
        loop {
            let ready = g
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            if ready <= cap {
                return;
            }
            // Unpinned == only the cache's own Arc is left.
            let victim = g
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { art, last_used } if Arc::strong_count(art) == 1 => {
                        Some((*k, *last_used))
                    }
                    _ => None,
                })
                .min_by_key(|&(_, t)| t)
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    g.slots.remove(&k);
                    g.stats.evictions += 1;
                }
                None => return, // all pinned: soft cap
            }
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scflow_gate::{CellKind, GateProgram, NetlistBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_artifact(tag: u64) -> Artifact {
        let mut b = NetlistBuilder::new(format!("tiny{tag}"));
        let a = b.input_port("a", 1)[0];
        let x = b.input_port("b", 1)[0];
        let y = b.cell(CellKind::And2, &[a, x]);
        b.output_port("y", &[y]);
        Artifact::Gate(GateProgram::compile(&b.build()).unwrap())
    }

    #[test]
    fn storm_compiles_exactly_once() {
        let cache = CompileCache::new(4);
        let compiles = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (art, _) = cache
                        .get_or_compile(42, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            Ok(tiny_artifact(0))
                        })
                        .unwrap();
                    assert!(art.gate().is_some());
                });
            }
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        let st = cache.stats();
        assert_eq!(st.compiles, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits, 7);
    }

    #[test]
    fn lru_evicts_unpinned_only() {
        let cache = CompileCache::new(2);
        let (pinned, _) = cache.get_or_compile(1, || Ok(tiny_artifact(1))).unwrap();
        for k in 2..5 {
            let (art, hit) = cache.get_or_compile(k, || Ok(tiny_artifact(k))).unwrap();
            assert!(!hit);
            drop(art);
        }
        // Key 1 is pinned by `pinned`; 2 and 3 were evictable.
        assert!(cache.stats().evictions >= 2);
        let (again, hit) = cache
            .get_or_compile(1, || panic!("evicted the pinned entry"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&pinned, &again));
        // Evicted keys recompile.
        let (_, hit) = cache.get_or_compile(2, || Ok(tiny_artifact(2))).unwrap();
        assert!(!hit);
    }

    #[test]
    fn failed_build_releases_the_slot() {
        let cache = CompileCache::new(2);
        let err = cache
            .get_or_compile(9, || Err("no such design".to_owned()))
            .unwrap_err();
        assert!(err.contains("no such design"));
        // The slot is free again: a retry compiles.
        let (_, hit) = cache.get_or_compile(9, || Ok(tiny_artifact(9))).unwrap();
        assert!(!hit);
        assert_eq!(cache.stats().compiles, 2);
    }

    #[test]
    fn panicking_build_is_an_error_not_a_hang() {
        let cache = CompileCache::new(2);
        let err = cache.get_or_compile(7, || panic!("boom")).unwrap_err();
        assert!(err.contains("boom"));
        assert_eq!(cache.len(), 0);
    }
}
