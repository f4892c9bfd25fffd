//! A reusable compilation pipeline.
//!
//! [`crate::compile_module`] builds all of its working state from scratch
//! and drops it on return — fine for one-shot batch compiles, wasteful
//! for the recompile loops the incremental cache exists for (daemons,
//! convention sweeps, watch modes). [`Pipeline`] is the long-lived
//! counterpart: it owns the memoized per-function analyses
//! ([`AnalysisCache`]), the per-compile scratch buffers ([`ScratchPool`]),
//! and an in-memory image of decoded incremental-cache entries, all of
//! which survive from one [`Pipeline::compile`] call to the next.
//!
//! On a warm recompile a cache hit is then answered from the in-memory
//! entry (no file read, no JSON parse, no machine-code re-decode), an
//! unchanged function's analyses come back as a shared `Arc`, and the
//! allocator phases run inside recycled scratch — which is what drives
//! the `recompile_allocs` bench's heap-allocation reduction.
//!
//! Output is bit-identical to the one-shot entry points for every
//! cache/scratch combination; the differential oracle compiles the
//! same seed through a reused pipeline and a fresh one and compares the
//! rendered machine code byte for byte.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use ipra_callgraph::{CallGraph, Openness, SccInfo};
use ipra_ir::{hash_module, Fnv64, Module};
use ipra_machine::Target;

use crate::analysis::{AnalysisCache, AnalysisStats};
use crate::cache::CachedFunc;
use crate::config::AllocOptions;
use crate::inline::InlineStats;
use crate::ipra::{compile_module_impl, prepare_module, CompiledModule};
use crate::promote::PromotionStats;
use crate::scratch::ScratchPool;

/// The module-level front half of a compile, memoized whole: the cloned
/// and transformed (entry-normalized, global-promoted) module together
/// with everything derived from it that every compile of the same input
/// recomputes verbatim — per-function body hashes, the call graph, its
/// SCC condensation and the openness classification.
#[derive(Debug)]
pub(crate) struct PreparedModule {
    /// The untransformed input, kept to guard the memo against hash
    /// collisions with an exact equality check.
    pub(crate) input: Module,
    /// Whether global promotion ran (it changes the transformed body).
    pub(crate) promote: bool,
    /// Whether the inliner ran (it changes the transformed body too).
    pub(crate) inline_on: bool,
    /// The inliner's budget at preparation time.
    pub(crate) inline_budget: u32,
    /// The profile the inliner ranked sites with (`None` when inlining
    /// was off or no profile was supplied) — part of the memo's exact
    /// equality guard, because a different profile can pick different
    /// sites for the same input module.
    pub(crate) inline_profile: Option<Vec<Vec<u64>>>,
    /// The transformed module all downstream passes read.
    pub(crate) module: Module,
    /// What global promotion did (zeros when the pass is off).
    pub(crate) promotion: PromotionStats,
    /// What the inliner did (default when the pass is off).
    pub(crate) inline: InlineStats,
    /// Structural hash of each transformed function body, by `FuncId`.
    pub(crate) body_hashes: Vec<u64>,
    /// Call graph of the transformed module.
    pub(crate) cg: CallGraph,
    /// SCC condensation of the call graph.
    pub(crate) scc: SccInfo,
    /// Open/closed classification (paper §3).
    pub(crate) openness: Openness,
}

/// A FIFO-bounded memo: a map plus an insertion-order queue, evicting the
/// oldest entries once `cap` is exceeded. One-shot compiles use an
/// unbounded memo (their pipeline dies with the compile); a long-lived
/// daemon caps both memos so serving an unbounded stream of distinct
/// modules cannot grow memory without bound.
#[derive(Debug)]
pub(crate) struct BoundedMemo<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V> BoundedMemo<K, V> {
    fn new(cap: usize) -> Self {
        BoundedMemo {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
        }
        while self.map.len() > self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Long-lived compilation state: analysis memo, scratch pool, and the
/// in-memory incremental-cache image. Create one per daemon/JIT/bench
/// process and push every compile through it.
///
/// A `Pipeline` is `Send + Sync`: a compile daemon shares one across
/// concurrent client sessions — every memo sits behind its own lock, and
/// compiles are bit-identical no matter how the memos interleave.
#[derive(Debug)]
pub struct Pipeline {
    /// Per-function analyses memoized across compiles by body hash.
    pub(crate) analyses: AnalysisCache,
    /// Recycled per-compile scratch buffers.
    pub(crate) scratch: ScratchPool,
    /// Decoded incremental-cache entries by component key, so a warm
    /// recompile never touches the cache directory again.
    pub(crate) entries: Mutex<BoundedMemo<u64, Arc<Vec<CachedFunc>>>>,
    /// Prepared (transformed + module-level-analyzed) modules by
    /// whole-module hash plus inline configuration, so a warm recompile
    /// of an unchanged module skips the clone, the normalization /
    /// promotion / inlining passes and the call-graph work entirely —
    /// while an inline-config or profile change can never replay a stale
    /// transform.
    pub(crate) prepared: Mutex<BoundedMemo<(u64, bool, u64), Arc<PreparedModule>>>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

// Compile-time proof that a Pipeline may be shared across daemon session
// threads (the field types make this true; this pins it against drift).
const _: fn() = || {
    fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Pipeline>();
};

impl Pipeline {
    /// An unbounded pipeline (one-shot compiles, tests, benches).
    pub fn new() -> Pipeline {
        Pipeline::with_memo_caps(usize::MAX, usize::MAX)
    }

    /// A pipeline whose prepared-module and decoded-entry memos are
    /// FIFO-bounded to `prepared_cap` / `entries_cap` entries — the
    /// daemon configuration. The analysis memo needs no cap of its own:
    /// its entries are only reachable through prepared modules, so
    /// bounding those bounds its useful size, and stale analyses are
    /// never looked up again.
    pub fn with_memo_caps(prepared_cap: usize, entries_cap: usize) -> Pipeline {
        Pipeline {
            analyses: AnalysisCache::default(),
            scratch: ScratchPool::default(),
            entries: Mutex::new(BoundedMemo::new(entries_cap.max(1))),
            prepared: Mutex::new(BoundedMemo::new(prepared_cap.max(1))),
        }
    }

    /// Current sizes of the (prepared-module, decoded-entry) memos, for
    /// daemon metrics gauges.
    pub fn memo_sizes(&self) -> (usize, usize) {
        (
            self.prepared.lock().unwrap().len(),
            self.entries.lock().unwrap().len(),
        )
    }

    /// Compiles a module, reusing any state earlier compiles left behind.
    pub fn compile(&self, module: &Module, target: &Target, opts: &AllocOptions) -> CompiledModule {
        self.compile_with_profile(module, target, opts, None)
    }

    /// The inline-configuration component of the prepared-module memo
    /// key: `0` when inlining is off (so profiles keep sharing one
    /// prepared module, as before), otherwise a hash of the budget and
    /// the full profile the inliner would consume.
    fn inline_key(opts: &AllocOptions, profile: Option<&[Vec<u64>]>) -> u64 {
        if !opts.effective_inline() {
            return 0;
        }
        let mut h = Fnv64::new();
        h.write_u8(1);
        h.write_u32(opts.inline_budget);
        match profile {
            Some(p) => {
                h.write_u8(1);
                h.write_usize(p.len());
                for counts in p {
                    h.write_usize(counts.len());
                    for &c in counts {
                        h.write_u64(c);
                    }
                }
            }
            None => h.write_u8(0),
        }
        h.finish()
    }

    /// [`Pipeline::compile`] with profile feedback (see
    /// [`crate::compile_module_with_profile`]).
    pub fn compile_with_profile(
        &self,
        module: &Module,
        target: &Target,
        opts: &AllocOptions,
        profile: Option<&[Vec<u64>]>,
    ) -> CompiledModule {
        compile_module_impl(module, target, opts, profile, self)
    }

    /// Lifetime hit/miss totals of the analysis memo (each
    /// [`CompiledModule::analysis`] carries the per-compile window).
    pub fn analysis_stats(&self) -> AnalysisStats {
        self.analyses.stats()
    }

    /// The prepared form of `module` under `opts` (and, when inlining is
    /// on, `profile`), from the memo when the exact same input was
    /// prepared before. A colliding hash is caught by the stored input's
    /// equality check — covering the inline configuration and the exact
    /// profile — and recomputed (last write wins).
    pub(crate) fn prepared(
        &self,
        module: &Module,
        opts: &AllocOptions,
        profile: Option<&[Vec<u64>]>,
    ) -> Arc<PreparedModule> {
        let inline_on = opts.effective_inline();
        let key = (
            hash_module(module),
            opts.promote_globals,
            Self::inline_key(opts, profile),
        );
        if let Some(p) = self.prepared.lock().unwrap().get(&key) {
            let inline_matches = p.inline_on == inline_on
                && (!inline_on
                    || (p.inline_budget == opts.inline_budget
                        && p.inline_profile.as_deref() == profile));
            if p.promote == opts.promote_globals && inline_matches && p.input == *module {
                return Arc::clone(p);
            }
        }
        let p = Arc::new(prepare_module(module, opts, profile));
        self.prepared.lock().unwrap().insert(key, Arc::clone(&p));
        p
    }
}
