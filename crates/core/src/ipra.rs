//! The one-pass inter-procedural driver (paper §2, §7).
//!
//! Processes the procedures of a module in a depth-first (bottom-up)
//! traversal of the call graph, so every closed procedure's register-usage
//! summary is available at its call sites when the callers are allocated.
//! Open procedures (paper §3) fall back to the default convention. The same
//! driver also runs the intra-procedural and no-allocation configurations,
//! which simply never consult summaries.
//!
//! Everything runs on the calling thread. One allocation takes tens of
//! microseconds, less than a thread spawn, so the only concurrency is
//! across compiles (`mini-ccd` sessions sharing one [`Pipeline`]).

use std::sync::Arc;

use ipra_callgraph::{CallGraph, OpenReason, Openness, SccInfo};
use ipra_ir::{hash_all_functions, EntityVec, FuncId, Module};
use ipra_machine::{MModule, RegMask, Target};

use crate::alloc::{allocate_function_with, FuncArtifacts, SummaryEnv};
use crate::analysis::AnalysisStats;
use crate::cache::{component_key, config_fingerprint, AllocCache, CacheStats, CachedFunc};
use crate::config::{AllocMode, AllocOptions};
use crate::inline::{inline_hot_calls, InlineStats};
use crate::lower::lower_function_with;
use crate::normalize::normalize_entries;
use crate::pipeline::{Pipeline, PreparedModule};
use crate::promote::{promote_globals, PromotionStats};
use crate::summary::FuncSummary;

/// Per-function diagnostics of one compilation.
#[derive(Clone, Debug)]
pub struct FuncReport {
    /// Function name.
    pub name: String,
    /// Whether the function was treated as open, and why.
    pub open_reasons: Vec<OpenReason>,
    /// Whether forced open by [`AllocOptions::forced_open`].
    pub forced_open: bool,
    /// Registers the assignment uses.
    pub used: RegMask,
    /// Callee-saved registers saved locally.
    pub locally_saved: RegMask,
    /// Shrink-wrap range-extension iterations.
    pub shrink_iterations: u32,
    /// Virtual registers left fully in memory (referenced ones only).
    pub memory_vregs: usize,
    /// Virtual registers split between registers and memory.
    pub split_vregs: usize,
    /// Total referenced virtual registers.
    pub candidate_vregs: usize,
}

/// A fully compiled module.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// Executable machine code.
    pub mmodule: MModule,
    /// Final summaries (default summaries for open procedures).
    pub summaries: Vec<FuncSummary>,
    /// Per-function clobber masks for the simulator's convention checker.
    pub clobber_masks: Vec<RegMask>,
    /// Per-function diagnostics.
    pub reports: Vec<FuncReport>,
    /// Global-promotion statistics (zero when the pass is off).
    pub promotion: PromotionStats,
    /// What the profile-guided inliner did (default when the pass is off).
    pub inline: InlineStats,
    /// Incremental-cache outcome (default when no cache was configured).
    pub cache: CacheStats,
    /// Analysis-memo hits/misses within this compile (all misses for a
    /// one-shot compile; mostly hits on a warm [`Pipeline`] recompile).
    /// Summed from this compile's own lookups, so concurrent compiles
    /// sharing the pipeline never pollute each other's window.
    pub analysis: AnalysisStats,
}

/// How one function's result was obtained: allocated in this compile, or
/// replayed from the incremental cache. Cached results point into a
/// shared component entry (`Arc` + member index) so replay never clones
/// the decoded entry per function.
enum FuncResult {
    Fresh(Box<FuncArtifacts>),
    Cached(Arc<Vec<CachedFunc>>, usize),
}

/// Compiles a module under the given options.
pub fn compile_module(module: &Module, target: &Target, opts: &AllocOptions) -> CompiledModule {
    compile_module_with_profile(module, target, opts, None)
}

/// Compiles with measured per-`[function][block]` execution counts feeding
/// the priority function's weights — the profile feedback the paper lists
/// as future work ("knowledge of such profile data can enable the register
/// allocator to distribute saves/restores more optimally").
pub fn compile_module_with_profile(
    module: &Module,
    target: &Target,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
) -> CompiledModule {
    // One-shot compile: a throwaway pipeline (empty memo, empty pools).
    compile_module_impl(module, target, opts, profile, &Pipeline::new())
}

/// The module-level front half of one compile: clone and transform the
/// input (entry normalization, optional global promotion, optional
/// profile-guided inlining), hash the transformed bodies, and build the
/// call graph, its SCC condensation and the openness classification.
/// Deterministic in the input (including the profile, which steers the
/// inliner when that pass is on), so [`Pipeline`] memoizes the whole
/// bundle by module hash plus inline configuration.
pub(crate) fn prepare_module(
    module: &Module,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
) -> PreparedModule {
    let input = module.clone();
    let mut module = module.clone();
    // Prologue code must run once per invocation, so entries may not be
    // branch targets (front ends guarantee this; generated IR may not).
    normalize_entries(&mut module);
    let promotion = if opts.promote_globals {
        promote_globals(&mut module)
    } else {
        PromotionStats::default()
    };
    // Inlining runs before the hashes and the call-graph phases below, so
    // the incremental cache, the analysis memo, the SCC condensation and
    // the openness classification all see the transformed bodies —
    // summary/body-hash invalidation falls out of the key derivation.
    let inline_on = opts.effective_inline();
    let inline = if inline_on {
        inline_hot_calls(&mut module, opts.inline_budget, &opts.forced_open, profile)
    } else {
        InlineStats::default()
    };

    // Structural hashes of the *transformed* bodies: both the incremental
    // cache and the analysis memo key on what the allocator actually sees.
    let body_hashes = hash_all_functions(&module);

    let cg = CallGraph::build(&module);
    let scc = SccInfo::compute(&cg);
    let openness = Openness::compute(&module, &cg, &scc);
    PreparedModule {
        input,
        promote: opts.promote_globals,
        inline_on,
        inline_budget: opts.inline_budget,
        inline_profile: if inline_on {
            profile.map(|p| p.to_vec())
        } else {
            None
        },
        module,
        promotion,
        inline,
        body_hashes,
        cg,
        scc,
        openness,
    }
}

/// The driver body behind both the one-shot entry points above and
/// [`Pipeline::compile`]. All memoized state (prepared module, analysis
/// memo, scratch pool, decoded cache entries) lives in `pipe`, so its
/// lifetime decides what a recompile can reuse.
pub(crate) fn compile_module_impl(
    module: &Module,
    target: &Target,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
    pipe: &Pipeline,
) -> CompiledModule {
    let prep = pipe.prepared(module, opts, profile);
    let module = &prep.module;
    let promotion = prep.promotion;
    let body_hashes = &prep.body_hashes;
    let (cg, scc, openness) = (&prep.cg, &prep.scc, &prep.openness);

    // Observability is re-emitted per compile even when the preparation
    // replayed from the memo, so traces stay identical across pipeline
    // temperature.
    ipra_obs::counter("promote.promoted", promotion.promoted as u64);
    ipra_obs::counter(
        "promote.accesses_rewritten",
        promotion.accesses_rewritten as u64,
    );
    if prep.inline_on {
        ipra_obs::counter("inline.sites_considered", prep.inline.sites_considered);
        ipra_obs::counter("inline.inlined", prep.inline.inlined);
        ipra_obs::counter("inline.budget_stops", prep.inline.budget_stops);
    }
    scc.record_stats();
    openness.record_stats();

    // Flight-recorder shape of the traversal.
    if ipra_obs::is_enabled() {
        for comp in &scc.components {
            ipra_obs::metric_observe("callgraph.scc_size", &[], comp.len() as u64);
        }
    }

    let inter = opts.mode == AllocMode::Inter;
    let n = module.funcs.len();
    let is_open = |fid: FuncId| {
        !inter || opts.forced_open.contains(&module.funcs[fid].name) || openness.is_open(fid)
    };
    let mut env = SummaryEnv::default();

    // Incremental cache (see `crate::cache`). A component's key reads only
    // its external callees, which bottom-up order has already finished.
    let mut cache = opts.effective_cache_dir().map(|d| AllocCache::load(&d));
    let fingerprint = if cache.is_some() {
        config_fingerprint(target, opts)
    } else {
        0
    };
    let mut cache_stats = CacheStats {
        enabled: cache.is_some(),
        ..CacheStats::default()
    };
    let mut recompiled = vec![false; n];
    let mut miss_records: Vec<(u64, &[FuncId])> = Vec::new();

    let mut results: Vec<Option<FuncResult>> = (0..n).map(|_| None).collect();
    let mut scratch = pipe.scratch.acquire();

    for comp in &scc.components {
        if let Some(c) = &cache {
            let key = component_key(
                module,
                body_hashes,
                comp,
                is_open,
                fingerprint,
                inter,
                &env,
                profile,
            );
            // The names guard against FNV collisions and stale entries; a
            // mismatch is just a miss. The pipeline's in-memory entry
            // image is consulted first; a disk hit is decoded once and
            // promoted into it, so a warm recompile through a persistent
            // [`Pipeline`] never rereads or reparses the cache directory.
            let matches = |funcs: &[CachedFunc]| {
                funcs.len() == comp.len()
                    && funcs
                        .iter()
                        .zip(comp)
                        .all(|(cf, &fid)| cf.name == module.funcs[fid].name)
            };
            let memo = pipe.entries.lock().unwrap().get(&key).cloned();
            let hit = match memo {
                Some(funcs) if matches(&funcs) => Some(funcs),
                _ => c.lookup(key, module).filter(|f| matches(f)).map(|funcs| {
                    let funcs = Arc::new(funcs);
                    pipe.entries.lock().unwrap().insert(key, Arc::clone(&funcs));
                    funcs
                }),
            };
            if let Some(entry) = hit {
                for (idx, &fid) in comp.iter().enumerate() {
                    let cf = &entry[idx];
                    if inter && !cf.is_open {
                        env.summaries.insert(fid, cf.summary.clone());
                    }
                    env.tree_used.insert(fid, cf.tree_used);
                    cache_stats.hits += 1;
                    // A hit whose direct callee was recompiled is an early
                    // cutoff: the callee changed but its summary bytes did
                    // not, so invalidation stopped here.
                    let cutoff = cg.callees(fid).iter().any(|c| recompiled[c.index()]);
                    let _obs = ipra_obs::scope(&module.funcs[fid].name);
                    let _t = ipra_obs::span("cache.hit");
                    ipra_obs::counter("cache.hit", 1);
                    ipra_obs::metric_counter("cache.lookup", &[("result", "hit")], 1);
                    if cutoff {
                        cache_stats.cutoffs += 1;
                        ipra_obs::counter("cache.cutoff", 1);
                        ipra_obs::metric_counter("cache.lookup", &[("result", "cutoff")], 1);
                    }
                    results[fid.index()] = Some(FuncResult::Cached(Arc::clone(&entry), idx));
                }
                continue;
            }
            miss_records.push((key, comp));
        }

        // Members of a multi-node SCC see each other's whole-tree usage in
        // this order, which the cache key's member order mirrors.
        for &fid in comp {
            let _obs = ipra_obs::scope(&module.funcs[fid].name);
            let art = allocate_function_with(
                module,
                fid,
                target,
                opts,
                is_open(fid),
                &env,
                profile.map(|p| p[fid.index()].as_slice()),
                &pipe.analyses,
                body_hashes[fid.index()],
                &mut scratch,
            );
            if inter && !art.alloc.is_open {
                env.summaries.insert(fid, art.alloc.summary.clone());
            }
            env.tree_used.insert(fid, art.alloc.tree_used);
            recompiled[fid.index()] = true;
            if cache.is_some() {
                cache_stats.misses += 1;
                ipra_obs::counter("cache.miss", 1);
                ipra_obs::metric_counter("cache.lookup", &[("result", "miss")], 1);
            }
            results[fid.index()] = Some(FuncResult::Fresh(Box::new(art)));
        }
    }
    if cache.is_some() {
        cache_stats.recompiled = module
            .funcs
            .iter()
            .filter(|(fid, _)| recompiled[fid.index()])
            .map(|(_, f)| f.name.clone())
            .collect();
    }

    // Lowering and reporting, in FuncId order. Cache hits already carry
    // their lowered code.
    let mut funcs = EntityVec::new();
    let mut summaries = Vec::with_capacity(n);
    let mut clobber_masks = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    // This compile's own analysis-memo window, summed from the per-
    // function hit flags. Diffing the shared memo counters would fold in
    // whatever concurrent compiles through the same pipeline did.
    let mut analysis = AnalysisStats::default();
    for (fid, func) in module.funcs.iter() {
        match results[fid.index()]
            .as_ref()
            .expect("every function compiled")
        {
            FuncResult::Fresh(art) => {
                if art.analysis_hit {
                    analysis.hits += 1;
                } else {
                    analysis.misses += 1;
                }
                funcs.push({
                    let _obs = ipra_obs::scope(&func.name);
                    let _t = ipra_obs::span("lower");
                    lower_function_with(module, func, target, art, &mut scratch)
                });
                let a = &art.alloc;
                summaries.push(a.summary.clone());
                clobber_masks.push(if inter && !a.is_open {
                    a.summary.clobbers
                } else {
                    target.regs.default_clobbers()
                });
                let mut memory_vregs = 0;
                let mut split_vregs = 0;
                let mut candidates = 0;
                for lr in &art.ranges.ranges {
                    if !lr.is_candidate() {
                        continue;
                    }
                    candidates += 1;
                    if a.assignment.is_split(lr.vreg) {
                        split_vregs += 1;
                    } else if a.assignment.whole[lr.vreg.index()] == crate::color::VregLoc::Mem {
                        memory_vregs += 1;
                    }
                }
                reports.push(FuncReport {
                    name: func.name.clone(),
                    open_reasons: openness.reasons(fid).to_vec(),
                    forced_open: opts.forced_open.contains(&func.name),
                    used: a.assignment.used,
                    locally_saved: a.locally_saved,
                    shrink_iterations: a.shrink_iterations,
                    memory_vregs,
                    split_vregs,
                    candidate_vregs: candidates,
                });
            }
            FuncResult::Cached(entry, idx) => {
                let c = &entry[*idx];
                funcs.push(c.code.clone());
                summaries.push(c.summary.clone());
                clobber_masks.push(if inter && !c.is_open {
                    c.summary.clobbers
                } else {
                    target.regs.default_clobbers()
                });
                reports.push(FuncReport {
                    name: func.name.clone(),
                    open_reasons: openness.reasons(fid).to_vec(),
                    forced_open: opts.forced_open.contains(&func.name),
                    used: c.used,
                    locally_saved: c.locally_saved,
                    shrink_iterations: c.shrink_iterations,
                    memory_vregs: c.memory_vregs,
                    split_vregs: c.split_vregs,
                    candidate_vregs: c.candidate_vregs,
                });
            }
        }
    }
    pipe.scratch.release(scratch);

    // Store every miss back into the cache, keyed by the lookup-time key.
    if let Some(cache) = &mut cache {
        for (key, comp) in &miss_records {
            let entry: Vec<CachedFunc> = comp
                .iter()
                .map(|&fid| {
                    let i = fid.index();
                    let Some(FuncResult::Fresh(art)) = &results[i] else {
                        unreachable!("misses were compiled fresh");
                    };
                    CachedFunc {
                        name: module.funcs[fid].name.clone(),
                        code: funcs[fid].clone(),
                        summary: summaries[i].clone(),
                        tree_used: art.alloc.tree_used,
                        is_open: art.alloc.is_open,
                        used: reports[i].used,
                        locally_saved: reports[i].locally_saved,
                        shrink_iterations: reports[i].shrink_iterations,
                        memory_vregs: reports[i].memory_vregs,
                        split_vregs: reports[i].split_vregs,
                        candidate_vregs: reports[i].candidate_vregs,
                    }
                })
                .collect();
            cache.insert(*key, &entry, module);
            // Mirror the store into the pipeline's entry image so the
            // next recompile through the same pipeline hits in memory.
            pipe.entries.lock().unwrap().insert(*key, Arc::new(entry));
        }
        if !miss_records.is_empty() {
            cache.save();
        }
    }

    CompiledModule {
        mmodule: MModule {
            funcs,
            globals: module.globals.clone(),
            main: module.main,
        },
        summaries,
        clobber_masks,
        reports,
        promotion,
        inline: prep.inline.clone(),
        cache: cache_stats,
        analysis,
    }
}
