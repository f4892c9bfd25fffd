//! Memoized per-function analyses.
//!
//! Every allocator phase reads the same four analyses — CFG, dominators,
//! loop nesting, liveness — and historically each compile rebuilt them from
//! scratch for every function. [`FuncAnalyses`] bundles them into one
//! immutable value computed once, and [`AnalysisCache`] memoizes that value
//! across compiles keyed by the function's structural body hash
//! ([`ipra_ir::hash_function`]): a recompile of an unedited function costs
//! one hash lookup and an `Arc` clone instead of four dataflow solves.
//!
//! The hash is exactly the invalidation rule. It covers the function name,
//! attributes, parameters, vreg table and every block, so any edit that
//! could change an analysis changes the key; the stale entry is simply
//! never looked up again. Entries are shared (`Arc`), so concurrent
//! compiles reading the same function's analyses never copy them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ipra_cfg::{Cfg, Dominators, Liveness, LoopInfo};
use ipra_ir::Function;

/// The per-function analyses the allocator pipeline consumes.
#[derive(Clone, Debug)]
pub struct FuncAnalyses {
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: Dominators,
    /// Loop nesting.
    pub loops: LoopInfo,
    /// Per-block liveness.
    pub liveness: Liveness,
}

impl FuncAnalyses {
    /// Computes all four analyses for `func`. This is the single compute
    /// path: every phase (allocation, shrink-wrapping, lowering, tests)
    /// reads the bundle instead of re-deriving its own copies.
    pub fn compute(func: &Function) -> FuncAnalyses {
        let cfg = Cfg::new(func);
        let dom = Dominators::compute(&cfg);
        let loops = LoopInfo::compute(&cfg, &dom);
        let liveness = Liveness::compute(func, &cfg);
        FuncAnalyses {
            cfg,
            dom,
            loops,
            liveness,
        }
    }
}

/// Hit/miss totals of the analysis memo over some window (one compile, or
/// a pipeline's lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

/// Memo of [`FuncAnalyses`] keyed by structural body hash.
///
/// Thread-safe: compiles sharing a [`crate::Pipeline`] look up
/// concurrently. Within one compile each function is looked up at most
/// once and function names are part of the hash, so distinct functions
/// never race on a key.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    map: Mutex<HashMap<u64, Arc<FuncAnalyses>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnalysisCache {
    /// Returns the memoized analyses for `body_hash`, computing (and
    /// remembering) them from `func` on a miss. The second element reports
    /// whether this was a hit.
    pub fn get_or_compute(&self, body_hash: u64, func: &Function) -> (Arc<FuncAnalyses>, bool) {
        if let Some(a) = self.map.lock().unwrap().get(&body_hash) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(a), true);
        }
        // Compute outside the lock so a large function never stalls
        // other compiles' lookups.
        let a = Arc::new(FuncAnalyses::compute(func));
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.map
            .lock()
            .unwrap()
            .entry(body_hash)
            .or_insert_with(|| Arc::clone(&a));
        (a, false)
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss totals.
    pub fn stats(&self) -> AnalysisStats {
        AnalysisStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Totals accumulated since an earlier [`AnalysisCache::stats`]
    /// snapshot — the per-compile window.
    pub fn stats_since(&self, start: AnalysisStats) -> AnalysisStats {
        let now = self.stats();
        AnalysisStats {
            hits: now.hits - start.hits,
            misses: now.misses - start.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::{hash_function, BinOp, Module};

    fn demo() -> Module {
        let mut m = Module::new();
        let f = m.declare_func("f");
        let mut b = FunctionBuilder::new("f");
        let x = b.param("x");
        let y = b.bin(BinOp::Add, x, 1);
        b.ret(Some(y.into()));
        m.define_func(f, b.build());
        m.main = Some(f);
        m
    }

    #[test]
    fn memo_hits_on_same_hash_and_misses_after_edit() {
        let m = demo();
        let fid = ipra_ir::FuncId(0);
        let cache = AnalysisCache::default();
        let h = hash_function(&m, fid);

        let (a1, hit1) = cache.get_or_compute(h, &m.funcs[fid]);
        assert!(!hit1);
        let (a2, hit2) = cache.get_or_compute(h, &m.funcs[fid]);
        assert!(hit2);
        assert!(Arc::ptr_eq(&a1, &a2), "hit shares the same analyses");
        assert_eq!(cache.stats(), AnalysisStats { hits: 1, misses: 1 });

        // An edit changes the hash, so the memo recomputes.
        let mut m2 = demo();
        m2.funcs[fid].new_named_vreg("__edited");
        let h2 = hash_function(&m2, fid);
        assert_ne!(h, h2);
        let (_, hit3) = cache.get_or_compute(h2, &m2.funcs[fid]);
        assert!(!hit3);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn compute_matches_direct_analyses() {
        let m = demo();
        let f = &m.funcs[ipra_ir::FuncId(0)];
        let an = FuncAnalyses::compute(f);
        let cfg = Cfg::new(f);
        assert_eq!(an.cfg.rpo, cfg.rpo);
        let live = Liveness::compute(f, &cfg);
        assert_eq!(an.liveness.live_in, live.live_in);
        assert_eq!(an.liveness.live_out, live.live_out);
    }

    #[test]
    fn stats_since_windows_the_counters() {
        let m = demo();
        let fid = ipra_ir::FuncId(0);
        let cache = AnalysisCache::default();
        let h = hash_function(&m, fid);
        cache.get_or_compute(h, &m.funcs[fid]);
        let snap = cache.stats();
        cache.get_or_compute(h, &m.funcs[fid]);
        cache.get_or_compute(h, &m.funcs[fid]);
        assert_eq!(
            cache.stats_since(snap),
            AnalysisStats { hits: 2, misses: 0 }
        );
    }
}
