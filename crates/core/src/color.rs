//! Priority-based coloring with live-range splitting.
//!
//! Live ranges are processed in order of decreasing priority density; each
//! takes the register with the best net priority among those its
//! interference neighbours have not taken. A range that cannot be colored
//! (or whose whole-range priority is negative) is either *split* — a
//! connected, profitable sub-region of its blocks gets a register, the rest
//! stays in memory — or left in its home memory slot.

use std::collections::HashMap;

use ipra_cfg::{Cfg, Liveness};
use ipra_ir::{BlockId, Vreg};
use ipra_machine::{PReg, RegClass, RegMask};

use crate::priority::{PriorityCache, PriorityCtx};
use crate::scratch::{CompileScratch, SplitScratch};

/// Where a virtual register lives (over its whole range, or per block for
/// split ranges).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VregLoc {
    /// In a physical register.
    Reg(PReg),
    /// In its home stack slot.
    Mem,
}

/// The result of coloring one function.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// Whole-range location per vreg (the fallback for split ranges).
    pub whole: Vec<VregLoc>,
    /// Per-block overrides for split ranges.
    pub split: Vec<Option<HashMap<usize, PReg>>>,
    /// All registers the assignment uses.
    pub used: RegMask,
}

impl Assignment {
    /// Location of `v` inside `block`.
    pub fn loc(&self, v: Vreg, block: BlockId) -> VregLoc {
        if let Some(map) = &self.split[v.index()] {
            return match map.get(&block.index()) {
                Some(&r) => VregLoc::Reg(r),
                None => VregLoc::Mem,
            };
        }
        self.whole[v.index()]
    }

    /// Whether `v` was split.
    pub fn is_split(&self, v: Vreg) -> bool {
        self.split[v.index()].is_some()
    }

    /// Whether `v` touches memory anywhere (home slot needed).
    pub fn needs_home(&self, v: Vreg) -> bool {
        match (&self.split[v.index()], self.whole[v.index()]) {
            (Some(_), _) => true,
            (None, VregLoc::Mem) => true,
            (None, VregLoc::Reg(_)) => false,
        }
    }
}

/// Runs the coloring algorithm.
///
/// `liveness` is needed for split boundary-cost estimation; `split_enabled`
/// turns live-range splitting on.
pub fn color(
    ctx: &PriorityCtx<'_>,
    cfg: &Cfg,
    liveness: &Liveness,
    split_enabled: bool,
) -> Assignment {
    color_with(
        ctx,
        cfg,
        liveness,
        split_enabled,
        &mut CompileScratch::default(),
    )
}

/// [`color`] running its transient tables (forbidden columns, occupancy,
/// block-index rows, done flags, splitting tables) out of the caller's
/// [`CompileScratch`].
/// The returned [`Assignment`] owns only what escapes; everything pooled
/// is handed back before returning.
pub fn color_with(
    ctx: &PriorityCtx<'_>,
    cfg: &Cfg,
    liveness: &Liveness,
    split_enabled: bool,
    scratch: &mut CompileScratch,
) -> Assignment {
    let nv = ctx.ranges.ranges.len();
    let nb = cfg.num_blocks();
    let mut whole = vec![VregLoc::Mem; nv];
    let mut split: Vec<Option<HashMap<usize, PReg>>> = vec![None; nv];
    let mut used = RegMask::EMPTY;
    // Precise interference forbiddance for whole-range assignments, one
    // bit column per register: bit `v` of column `r` is set once an
    // interference neighbour of `v` holds `r`, so an assignment ORs the
    // assignee's adjacency row into one column.
    let words = nv.div_ceil(64);
    let mut forbidden = std::mem::take(&mut scratch.forbidden);
    forbidden.clear();
    forbidden.resize(ctx.target.regs.num_regs() * words, 0);
    // Block-granular occupancy: registers taken in a block by whole-range
    // assignments / by split regions.
    let mut occ_whole = scratch.masks.take(nb, RegMask::EMPTY);
    let mut occ_split = scratch.masks.take(nb, RegMask::EMPTY);

    // Incremental per-range forbid masks from split occupancy. A split
    // touches a handful of blocks; only ranges containing those blocks can
    // be affected, so the block -> candidate-ranges index lets a split
    // update exactly those masks instead of every heap pop re-ORing
    // `occ_split` over its whole range.
    let mut ranges_in_block: Vec<Vec<u32>> = scratch.take_index_rows(nb);
    for lr in &ctx.ranges.ranges {
        if !lr.is_candidate() {
            continue;
        }
        for b in lr.blocks.iter() {
            ranges_in_block[b].push(lr.vreg.index() as u32);
        }
    }
    let mut split_forbid = scratch.masks.take(nv, RegMask::EMPTY);

    // The registers `v` may not take. Only registers some range holds
    // (`used`) can have a nonzero column.
    let forbid_of = |forbidden: &[u64], split_forbid: &[RegMask], used: RegMask, v: usize| {
        let (w, bit) = (v / 64, 1u64 << (v % 64));
        let mut m = split_forbid[v];
        for r in used.iter() {
            if forbidden[r.index() * words + w] & bit != 0 {
                m.insert(r);
            }
        }
        m
    };

    // Per-(vreg, register) call costs, filled once (see `PriorityCache`).
    let cache = PriorityCache::new(ctx);

    // Max-heap of (density, vreg); keys may go stale, so they are
    // re-validated on pop.
    let mut heap: std::collections::BinaryHeap<(Score, usize)> =
        std::collections::BinaryHeap::new();
    for lr in &ctx.ranges.ranges {
        if !lr.is_candidate() {
            continue;
        }
        let forbid = forbid_of(&forbidden, &split_forbid, used, lr.vreg.index());
        if let Some((_, d)) = cache.best(ctx, lr, forbid, used) {
            heap.push((Score(d), lr.vreg.index()));
        }
    }

    let mut done = std::mem::take(&mut scratch.flags);
    done.clear();
    done.resize(nv, false);
    while let Some((Score(d), vi)) = heap.pop() {
        if done[vi] {
            continue;
        }
        let lr = &ctx.ranges.ranges[vi];
        let forbid = forbid_of(&forbidden, &split_forbid, used, vi);
        match cache.best(ctx, lr, forbid, used) {
            Some((r, d2)) => {
                if d2 < d - 1e-9 {
                    // Stale key (a neighbour took our best register);
                    // re-queue with the current value.
                    heap.push((Score(d2), vi));
                    continue;
                }
                done[vi] = true;
                if d2 < -1e-9 {
                    // Strictly unprofitable as a whole range (a zero-net
                    // range costs nothing in a register, and its register —
                    // once saved — is free for every later range); maybe a
                    // sub-region still pays.
                    if split_enabled {
                        try_split(
                            ctx,
                            cfg,
                            liveness,
                            vi,
                            &mut split,
                            &mut occ_whole,
                            &mut occ_split,
                            &mut used,
                            &ranges_in_block,
                            &mut split_forbid,
                            &mut scratch.split,
                        );
                    }
                    emit_decision(ctx, vi, &split, None, d2);
                    continue;
                }
                whole[vi] = VregLoc::Reg(r);
                used.insert(r);
                let column = &mut forbidden[r.index() * words..][..words];
                for (f, a) in column.iter_mut().zip(ctx.ranges.adj[vi].words()) {
                    *f |= a;
                }
                for b in lr.blocks.iter() {
                    occ_whole[b].insert(r);
                }
                emit_decision(ctx, vi, &split, Some(r), d2);
            }
            None => {
                // Every register is forbidden over the whole range.
                done[vi] = true;
                if split_enabled {
                    try_split(
                        ctx,
                        cfg,
                        liveness,
                        vi,
                        &mut split,
                        &mut occ_whole,
                        &mut occ_split,
                        &mut used,
                        &ranges_in_block,
                        &mut split_forbid,
                        &mut scratch.split,
                    );
                }
                emit_decision(ctx, vi, &split, None, d);
            }
        }
    }

    // Candidates that never reached the heap (no register was ever
    // available, or the initial density had no viable register) still get a
    // decision record, so every candidate vreg appears exactly once.
    for lr in &ctx.ranges.ranges {
        if lr.is_candidate() && !done[lr.vreg.index()] {
            emit_decision(ctx, lr.vreg.index(), &split, None, f64::NEG_INFINITY);
        }
    }

    scratch.flags = done;
    scratch.forbidden = forbidden;
    scratch.masks.give(occ_whole);
    scratch.masks.give(occ_split);
    scratch.masks.give(split_forbid);
    scratch.give_index_rows(ranges_in_block);

    Assignment { whole, split, used }
}

/// Records one `alloc.decision` event: the final location class of a
/// candidate vreg and the priority density that decided it. `priority` is
/// `-inf` (rendered as JSON `null`) when the range never had a viable
/// register to price.
fn emit_decision(
    ctx: &PriorityCtx<'_>,
    vi: usize,
    split: &[Option<HashMap<usize, PReg>>],
    reg: Option<PReg>,
    priority: f64,
) {
    ipra_obs::event("alloc.decision", || {
        use ipra_obs::TraceValue as V;
        let kind = match (reg, &split[vi]) {
            (Some(r), _) => match ctx.target.regs.class(r) {
                Some(RegClass::CalleeSaved) => "callee_saved",
                _ => "caller_saved",
            },
            (None, Some(_)) => "split",
            (None, None) => "mem",
        };
        let mut fields = vec![
            ("vreg", V::Int(vi as i64)),
            ("kind", V::Str(kind.into())),
            ("priority", V::Float(priority)),
        ];
        if let Some(r) = reg {
            fields.push(("reg", V::Str(ctx.target.regs.name(r).to_string())));
        }
        fields
    });
}

/// Attempts to give connected, profitable sub-regions of `vi`'s live range
/// a register each; leaves the rest in memory.
#[allow(clippy::too_many_arguments)]
fn try_split(
    ctx: &PriorityCtx<'_>,
    cfg: &Cfg,
    liveness: &Liveness,
    vi: usize,
    split: &mut [Option<HashMap<usize, PReg>>],
    occ_whole: &mut [RegMask],
    occ_split: &mut [RegMask],
    used: &mut RegMask,
    ranges_in_block: &[Vec<u32>],
    split_forbid: &mut [RegMask],
    scratch: &mut SplitScratch,
) {
    let lr = &ctx.ranges.ranges[vi];
    if lr.size() < 2 {
        return;
    }
    let SplitScratch {
        remaining,
        in_region,
        region,
        best_region,
        work,
        gain,
        sites,
        site_start,
    } = scratch;
    let nb = cfg.num_blocks();
    let c = &ctx.target.cost;
    let save_restore = (c.load + c.store) as f64;

    // Per-block weighted memory-traffic gain for this vreg: loads avoided
    // for uses, stores avoided for defs; zero in unreferenced blocks.
    gain.clear();
    gain.resize(nb, 0.0);
    for (&b, &(wu, wd)) in &lr.block_refs {
        gain[b as usize] = wu * c.load as f64 + wd * c.store as f64;
    }

    // Calls spanned by the range, in scan order (the order the region's
    // net value subtracts them in). Scan order visits blocks first to
    // last, so each block's calls are one run of `sites`.
    sites.clear();
    site_start.clear();
    site_start.resize(nb + 1, 0);
    for site in ctx.ranges.scan_order() {
        if ctx.ranges.is_live_across(vi, site) {
            let s = &ctx.ranges.call_sites[site];
            sites.push((site, s.weight));
            site_start[s.loc.block.index() + 1] += 1;
        }
    }
    for b in 0..nb {
        site_start[b + 1] += site_start[b];
    }

    remaining.copy_from(&lr.blocks);
    in_region.reset(nb);
    let mut map: HashMap<usize, PReg> = HashMap::new();

    loop {
        let mut best: Option<(PReg, f64)> = None;
        for &r in ctx.target.regs.allocatable() {
            // Blocks where r is free, within the remaining range.
            let free = |b: usize| {
                remaining.contains(b) && !occ_whole[b].contains(r) && !occ_split[b].contains(r)
            };
            // Seed at the highest-gain referenced free block (the last of
            // equals, in block order).
            let mut seed: Option<usize> = None;
            for b in remaining.iter() {
                if gain[b] > 0.0
                    && free(b)
                    && seed.is_none_or(|s| gain[b].total_cmp(&gain[s]).is_ge())
                {
                    seed = Some(b);
                }
            }
            let Some(seed) = seed else {
                continue;
            };
            // Grow a connected region inside the free set.
            in_region.clear();
            in_region.insert(seed);
            region.clear();
            region.push(seed);
            work.clear();
            work.push(seed);
            while let Some(b) = work.pop() {
                let bid = BlockId(b as u32);
                for &n in cfg.succs(bid).iter().chain(cfg.preds(bid)) {
                    let ni = n.index();
                    if free(ni) && in_region.insert(ni) {
                        region.push(ni);
                        work.push(ni);
                    }
                }
            }

            // Estimate the region's net value.
            let mut net = 0.0;
            for &b in region.iter() {
                net += gain[b];
                for &(site, w) in &sites[site_start[b]..site_start[b + 1]] {
                    if ctx.site_clobbers[site].contains(r) {
                        net -= w * save_restore;
                    }
                }
            }
            // Boundary transfers: loads entering, stores leaving, priced at
            // the block's real execution weight (a transfer on a loop-edge
            // block executes per iteration).
            for &b in region.iter() {
                let bid = BlockId(b as u32);
                let w = ctx.weights.weight(bid).max(1.0);
                if liveness.live_in[b].contains(vi)
                    && cfg
                        .preds(bid)
                        .iter()
                        .any(|p| !in_region.contains(p.index()))
                {
                    net -= w * c.load as f64;
                }
                if cfg.succs(bid).iter().any(|s| {
                    liveness.live_in[s.index()].contains(vi) && !in_region.contains(s.index())
                }) {
                    net -= w * c.store as f64;
                }
            }
            if ctx.charge_callee_saved_entry
                && ctx.target.regs.class(r) == Some(RegClass::CalleeSaved)
                && !used.contains(r)
            {
                net -= ctx.entry_weight * save_restore;
            }

            if net > 1e-9 && best.is_none_or(|(_, bn)| net > bn) {
                best = Some((r, net));
                std::mem::swap(region, best_region);
            }
        }

        let Some((r, _)) = best else { break };
        for &b in best_region.iter() {
            map.insert(b, r);
            occ_split[b].insert(r);
            remaining.remove(b);
            // Invalidate only the ranges this split actually touches.
            for &v in &ranges_in_block[b] {
                split_forbid[v as usize].insert(r);
            }
        }
        used.insert(r);
        if remaining.is_empty() {
            break;
        }
    }

    if !map.is_empty() {
        split[vi] = Some(map);
    }
}

/// Max-heap key over f64 (total order).
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct Score(pub f64);

impl Eq for Score {}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
