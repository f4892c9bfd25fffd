//! The priority function (Chow–Hennessy, extended per the paper's §2).
//!
//! Under intra-procedural allocation the cost of a register depends only on
//! its *class*: a callee-saved register pays one save/restore at entry/exit
//! (only on its first use in the function), a caller-saved register pays a
//! save/restore around every call the live range spans. Under
//! inter-procedural allocation the cost is computed *per register*: a call
//! site only charges for registers its callee's summary actually clobbers,
//! so priorities exist per (variable, register) pair.

use ipra_machine::{PReg, RegClass, RegMask, Target};

use crate::ranges::{BlockWeights, LiveRange, RangeData};

/// Everything needed to evaluate priorities in one function.
#[derive(Debug)]
pub struct PriorityCtx<'a> {
    /// Target machine.
    pub target: &'a Target,
    /// Ranges and call sites.
    pub ranges: &'a RangeData,
    /// Clobber mask per call site (resolved from callee summaries, or the
    /// default mask for open/unknown callees).
    pub site_clobbers: &'a [RegMask],
    /// Whether a callee-saved register's first use in this function pays a
    /// local entry/exit save/restore. True for intra-procedural allocation
    /// and for open procedures; false for closed procedures under
    /// inter-procedural allocation, where the save propagates to ancestors
    /// (§3).
    pub charge_callee_saved_entry: bool,
    /// Loop weight of the entry block (the save/restore at entry/exit
    /// executes once per invocation).
    pub entry_weight: f64,
    /// Registers already used somewhere in the current call tree —
    /// preferred on ties to minimize the tree's register footprint (§2,
    /// Fig. 1 discussion).
    pub subtree_used: RegMask,
    /// Per-vreg register affinities: `(reg, bonus)` pairs. Used for §4
    /// parameter-register binding and default-convention parameter homes.
    pub hints: &'a [Vec<(PReg, f64)>],
    /// Execution-frequency weight per block (static loop-based or measured
    /// profile); the splitter prices boundary transfers with these.
    pub weights: &'a BlockWeights,
}

impl PriorityCtx<'_> {
    /// Memory operations avoided by keeping the range in a register,
    /// weighted by loop depth: each use avoids a load, each def a store.
    pub fn benefit(&self, lr: &LiveRange) -> f64 {
        let c = &self.target.cost;
        lr.weighted_uses * c.load as f64 + lr.weighted_defs * c.store as f64
    }

    /// Cost of holding `lr` in register `r`:
    /// save/restore around every spanned call whose callee clobbers `r`,
    /// plus (when this function must protect callee-saved registers
    /// locally) one entry/exit save/restore on the first use of `r`.
    pub fn reg_cost(&self, lr: &LiveRange, r: PReg, used_in_func: RegMask) -> f64 {
        let c = &self.target.cost;
        let save_restore = (c.load + c.store) as f64;
        let mut cost = 0.0;
        for site in self.ranges.scan_order() {
            if self.site_clobbers[site].contains(r)
                && self.ranges.is_live_across(lr.vreg.index(), site)
            {
                cost += self.ranges.call_sites[site].weight * save_restore;
            }
        }
        if self.charge_callee_saved_entry
            && self.target.regs.class(r) == Some(RegClass::CalleeSaved)
            && !used_in_func.contains(r)
        {
            cost += self.entry_weight * save_restore;
        }
        cost
    }

    /// Affinity bonus of `(lr, r)` from hints.
    pub fn hint_bonus(&self, lr: &LiveRange, r: PReg) -> f64 {
        self.hints[lr.vreg.index()]
            .iter()
            .filter(|(hr, _)| *hr == r)
            .map(|(_, b)| *b)
            .sum()
    }

    /// Net priority of assigning `r` to `lr`.
    pub fn net(&self, lr: &LiveRange, r: PReg, used_in_func: RegMask) -> f64 {
        self.benefit(lr) - self.reg_cost(lr, r, used_in_func) + self.hint_bonus(lr, r)
    }

    /// The best allowed register for `lr`, with its priority *density*
    /// (net priority normalized by live-range size, the paper's ordering
    /// criterion). Ties prefer registers already used in the call tree,
    /// then already used in this function, then lower index.
    pub fn best(
        &self,
        lr: &LiveRange,
        forbidden: RegMask,
        used_in_func: RegMask,
    ) -> Option<(PReg, f64)> {
        let size = lr.size().max(1) as f64;
        let mut best: Option<(PReg, f64, (bool, bool))> = None;
        for &r in self.target.regs.allocatable() {
            if forbidden.contains(r) {
                continue;
            }
            let density = self.net(lr, r, used_in_func) / size;
            let pref = (self.subtree_used.contains(r), used_in_func.contains(r));
            let better = match best {
                None => true,
                Some((_, bd, bp)) => {
                    density > bd + 1e-9 || (density > bd - 1e-9 && pref_rank(pref) > pref_rank(bp))
                }
            };
            if better {
                best = Some((r, density, pref));
            }
        }
        best.map(|(r, d, _)| (r, d))
    }
}

fn pref_rank(p: (bool, bool)) -> u8 {
    // Already used in this function beats only-in-subtree beats fresh.
    match p {
        (_, true) => 2,
        (true, false) => 1,
        (false, false) => 0,
    }
}

/// The per-call cost sums of every `(variable, register)` pair, for the
/// coloring loop.
///
/// The call cost of a pair never changes while coloring runs (site
/// clobbers are fixed per function), yet [`PriorityCtx::best`] re-derives
/// it on every heap revalidation. The table is filled once, up front.
///
/// Registers that the same call sites clobber have the same cost for
/// every variable, so the allocatable registers are grouped by the exact
/// set of sites that clobber them, and each group keeps one column of
/// `nv` sums. A register no site clobbers has no column: its call cost is
/// exactly `0.0`. The fill walks each call site's live-across row: for
/// each site in `RangeData::scan_order`, for each group its callee
/// clobbers, for each vreg live across it. Each column therefore adds its
/// terms in the same order as [`PriorityCtx::reg_cost`] does for every
/// register of the group, so every sum — and every priority built on it —
/// is bit-identical to the uncached path. Only the callee-saved entry
/// charge depends on evolving state (`used_in_func`), so it is added at
/// lookup time.
pub struct PriorityCache {
    nv: usize,
    /// The column of each register, by register index; [`NO_COLUMN`]
    /// for registers no site clobbers.
    column: [u8; 32],
    /// One column of `nv` sums per group, column after column.
    cols: Vec<f64>,
    /// Callee-saved registers, which may pay the entry charge.
    callee_saved: RegMask,
    /// One entry/exit save/restore at the entry block's weight.
    entry_cost: f64,
}

/// [`PriorityCache::column`] of a register that no call site clobbers.
const NO_COLUMN: u8 = u8::MAX;

impl PriorityCache {
    /// The table for `ctx`.
    pub fn new(ctx: &PriorityCtx<'_>) -> Self {
        let nv = ctx.ranges.ranges.len();
        let c = &ctx.target.cost;
        let save_restore = (c.load + c.store) as f64;
        let allocatable: RegMask = ctx.target.regs.allocatable().iter().copied().collect();

        // Partition the clobbered allocatable registers by the sites that
        // clobber them: each site splits every group it cuts in two, and
        // registers no earlier site clobbered form a new group.
        let mut groups = [RegMask::EMPTY; 32];
        let mut ngroups = 0;
        let mut seen = RegMask::EMPTY;
        for m in ctx.site_clobbers.iter().map(|m| m.intersect(allocatable)) {
            let before = ngroups;
            for k in 0..before {
                let (inside, outside) = (groups[k].intersect(m), RegMask(groups[k].0 & !m.0));
                if !inside.is_empty() && !outside.is_empty() {
                    groups[k] = inside;
                    groups[ngroups] = outside;
                    ngroups += 1;
                }
            }
            let fresh = RegMask(m.0 & !seen.0);
            if !fresh.is_empty() {
                groups[ngroups] = fresh;
                ngroups += 1;
                seen = seen.union(m);
            }
        }
        let mut column = [NO_COLUMN; 32];
        for (k, g) in groups[..ngroups].iter().enumerate() {
            for r in g.iter() {
                column[r.index()] = k as u8;
            }
        }

        let mut cols = vec![0.0; ngroups * nv];
        for site in ctx.ranges.scan_order() {
            let clobbered = ctx.site_clobbers[site];
            // Bit `k` set: the callee clobbers group `k` (all of it).
            let hit = groups[..ngroups]
                .iter()
                .enumerate()
                .filter(|(_, g)| !g.intersect(clobbered).is_empty())
                .fold(0u32, |h, (k, _)| h | 1 << k);
            if hit == 0 {
                continue;
            }
            let term = ctx.ranges.call_sites[site].weight * save_restore;
            let mut h = hit;
            while h != 0 {
                let col = &mut cols[h.trailing_zeros() as usize * nv..][..nv];
                for v in ctx.ranges.live_across(site) {
                    col[v] += term;
                }
                h &= h - 1;
            }
        }
        PriorityCache {
            nv,
            column,
            cols,
            callee_saved: ctx.target.regs.callee_saved_mask(),
            entry_cost: ctx.entry_weight * save_restore,
        }
    }

    /// The summed save/restore cost of the calls `v` is live across whose
    /// callee clobbers the allocatable register `r`.
    pub(crate) fn call_cost(&self, v: usize, r: PReg) -> f64 {
        match self.column[r.index()] {
            NO_COLUMN => 0.0,
            k => self.cols[k as usize * self.nv + v],
        }
    }

    /// Cached equivalent of [`PriorityCtx::best`]: same selection, same
    /// tie-breaks, same result — the call costs just come from the table.
    pub fn best(
        &self,
        ctx: &PriorityCtx<'_>,
        lr: &LiveRange,
        forbidden: RegMask,
        used_in_func: RegMask,
    ) -> Option<(PReg, f64)> {
        let size = lr.size().max(1) as f64;
        let benefit = ctx.benefit(lr);
        let charged = if ctx.charge_callee_saved_entry {
            RegMask(self.callee_saved.0 & !used_in_func.0)
        } else {
            RegMask::EMPTY
        };
        let mut best: Option<(PReg, f64, (bool, bool))> = None;
        for &r in ctx.target.regs.allocatable() {
            if forbidden.contains(r) {
                continue;
            }
            let mut cost = self.call_cost(lr.vreg.index(), r);
            if charged.contains(r) {
                cost += self.entry_cost;
            }
            let density = (benefit - cost + ctx.hint_bonus(lr, r)) / size;
            let pref = (ctx.subtree_used.contains(r), used_in_func.contains(r));
            let better = match best {
                None => true,
                Some((_, bd, bp)) => {
                    density > bd + 1e-9 || (density > bd - 1e-9 && pref_rank(pref) > pref_rank(bp))
                }
            };
            if better {
                best = Some((r, density, pref));
            }
        }
        best.map(|(r, d, _)| (r, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalyses;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::{BinOp, Function, Module};

    fn range_data(f: &Function) -> (RangeData, BlockWeights) {
        let an = FuncAnalyses::compute(f);
        let weights = BlockWeights::from_loops(&an.cfg, &an.loops);
        (
            RangeData::build(f, &an.cfg, &an.liveness, &weights),
            weights,
        )
    }

    /// x is live across one call; t is a short temp.
    fn func_with_call() -> (Function, ipra_ir::Vreg, ipra_ir::Vreg) {
        let mut m = Module::new();
        let callee = m.declare_func("callee");
        let mut b = FunctionBuilder::new("f");
        let x = b.copy(5);
        b.call_void(callee, vec![]);
        let t = b.bin(BinOp::Add, x, 1);
        b.print(t);
        b.ret(None);
        (b.build(), x, t)
    }

    #[test]
    fn call_spanning_range_prefers_callee_saved_intra() {
        let (f, x, _) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        let clobbers = vec![target.regs.default_clobbers()];
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: true,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &vec![Vec::new(); f.num_vregs()],
            weights: &weights,
        };
        let lr = &rd.ranges[x.index()];
        let caller = target
            .regs
            .allocatable_of(RegClass::CallerSaved)
            .next()
            .unwrap();
        let callee_saved = target
            .regs
            .allocatable_of(RegClass::CalleeSaved)
            .next()
            .unwrap();
        // Both classes cost one save/restore here (around the call vs at
        // entry/exit), so they tie for a single call...
        assert_eq!(
            ctx.reg_cost(lr, caller, RegMask::EMPTY),
            ctx.reg_cost(lr, callee_saved, RegMask::EMPTY)
        );
        // ...but with the callee-saved register already used, it is free.
        let used = RegMask::single(callee_saved);
        assert_eq!(ctx.reg_cost(lr, callee_saved, used), 0.0);
        assert!(ctx.reg_cost(lr, caller, used) > 0.0);
        let (best, _) = ctx.best(lr, RegMask::EMPTY, used).unwrap();
        assert_eq!(best, callee_saved);
    }

    #[test]
    fn short_temp_prefers_caller_saved() {
        let (f, _, t) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        let clobbers = vec![target.regs.default_clobbers()];
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: true,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &vec![Vec::new(); f.num_vregs()],
            weights: &weights,
        };
        let lr = &rd.ranges[t.index()];
        let (best, density) = ctx.best(lr, RegMask::EMPTY, RegMask::EMPTY).unwrap();
        assert_eq!(
            target.regs.class(best),
            Some(RegClass::CallerSaved),
            "temp not spanning calls must take a free caller-saved register"
        );
        assert!(density > 0.0);
    }

    #[test]
    fn interprocedural_cost_depends_on_callee_summary() {
        let (f, x, _) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        // The callee's summary says it clobbers only one specific register.
        let hot = target.regs.allocatable()[5];
        let clobbers = vec![RegMask::single(hot)];
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: false,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &vec![Vec::new(); f.num_vregs()],
            weights: &weights,
        };
        let lr = &rd.ranges[x.index()];
        assert!(
            ctx.reg_cost(lr, hot, RegMask::EMPTY) > 0.0,
            "clobbered register costs"
        );
        let other = target.regs.allocatable()[6];
        assert_eq!(
            ctx.reg_cost(lr, other, RegMask::EMPTY),
            0.0,
            "unclobbered register is free"
        );
        let (best, _) = ctx.best(lr, RegMask::EMPTY, RegMask::EMPTY).unwrap();
        assert_ne!(best, hot);
    }

    #[test]
    fn hints_steer_selection() {
        let (f, x, _) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        let clobbers = vec![RegMask::EMPTY];
        let fav = target.regs.allocatable()[9];
        let mut hints = vec![Vec::new(); f.num_vregs()];
        hints[x.index()].push((fav, 50.0));
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: false,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &hints,
            weights: &weights,
        };
        let (best, _) = ctx
            .best(&rd.ranges[x.index()], RegMask::EMPTY, RegMask::EMPTY)
            .unwrap();
        assert_eq!(best, fav);
    }

    /// Two calls in the entry block, two in a loop body and one in the
    /// exit block, with values live across all of them.
    fn multi_block_with_calls() -> Function {
        let mut m = Module::new();
        let f1 = m.declare_func("f1");
        let f2 = m.declare_func("f2");
        let mut b = FunctionBuilder::new("f");
        let i = b.var("i");
        let x = b.copy(5);
        let y = b.copy(6);
        let r0 = b.call(f1, vec![x.into()]);
        let z = b.bin(BinOp::Add, r0, y);
        b.call_void(f2, vec![]);
        b.copy_to(i, 0);
        let h = b.new_block();
        let body = b.new_block();
        let out = b.new_block();
        b.br(h);
        let c = b.bin(BinOp::Lt, i, 10);
        b.cond_br(c, body, out);
        b.switch_to(body);
        b.call_void(f1, vec![i.into()]);
        let t = b.bin(BinOp::Add, z, i);
        b.call_void(f2, vec![t.into()]);
        let ni = b.bin(BinOp::Add, i, 1);
        b.copy_to(i, ni);
        b.br(h);
        b.switch_to(out);
        let r1 = b.call(f2, vec![]);
        let s1 = b.bin(BinOp::Add, x, r1);
        let s2 = b.bin(BinOp::Add, s1, y);
        let s3 = b.bin(BinOp::Add, s2, z);
        b.print(s3);
        b.ret(None);
        b.build()
    }

    /// The cached call costs equal [`PriorityCtx::reg_cost`] and the cached
    /// priorities equal the uncached ones, bit for bit: on one call with
    /// loop weights, and on five calls in three blocks with fractional
    /// profile weights, once with a different clobber mask per site and
    /// once with overlapping masks interleaved (A, B, A, B, C). Registers
    /// with the same set of clobbering sites share one column, registers
    /// with different sets do not, and a register no site clobbers costs
    /// exactly `0.0`.
    #[test]
    fn cache_matches_uncached_bit_for_bit() {
        let target = Target::mips_like();
        let a = target.regs.allocatable();
        let (single, _, _) = func_with_call();
        // Entry, loop header, loop body, exit; 10 invocations.
        let profile = Some([10u64, 37, 27, 3]);
        let mask = |regs: &[PReg]| regs.iter().copied().collect::<RegMask>();
        let (ma, mb, mc) = (mask(&a[..6]), mask(&a[3..9]), mask(&a[5..7]));
        let cases = [
            (single, None, vec![target.regs.default_clobbers()]),
            (
                multi_block_with_calls(),
                profile,
                vec![
                    target.regs.default_clobbers(),
                    RegMask::single(a[5]),
                    target.regs.default_clobbers(),
                    mask(&a[..6]),
                    mask(&a[3..9]),
                ],
            ),
            (multi_block_with_calls(), profile, vec![ma, mb, ma, mb, mc]),
        ];
        let mut fractional = false;
        let mut shared = false;
        let mut unclobbered = false;
        for (f, counts, clobbers) in &cases {
            let an = FuncAnalyses::compute(f);
            let weights = match counts {
                Some(c) => BlockWeights::from_profile(&an.cfg, &an.loops, c),
                None => BlockWeights::from_loops(&an.cfg, &an.loops),
            };
            let rd = RangeData::build(f, &an.cfg, &an.liveness, &weights);
            assert_eq!(rd.call_sites.len(), clobbers.len());
            // The scan order: blocks forward, each block's calls backward.
            let mut want: Vec<usize> = (0..rd.call_sites.len()).collect();
            want.sort_by_key(|&s| {
                let loc = rd.call_sites[s].loc;
                (loc.block.index(), std::cmp::Reverse(loc.inst))
            });
            assert_eq!(rd.scan_order().collect::<Vec<_>>(), want);
            // Which sites clobber each allocatable register.
            let site_set =
                |r: PReg| -> Vec<bool> { clobbers.iter().map(|m| m.contains(r)).collect() };

            let fav = a[2];
            let mut hints = vec![Vec::new(); f.num_vregs()];
            hints[0].push((fav, 7.5));
            for charge in [false, true] {
                let ctx = PriorityCtx {
                    target: &target,
                    ranges: &rd,
                    site_clobbers: clobbers,
                    charge_callee_saved_entry: charge,
                    entry_weight: 1.0,
                    subtree_used: RegMask::single(fav),
                    hints: &hints,
                    weights: &weights,
                };
                let cache = PriorityCache::new(&ctx);
                for &r in a {
                    let col = cache.column[r.index()];
                    assert_eq!(col == NO_COLUMN, !site_set(r).contains(&true));
                    unclobbered |= col == NO_COLUMN;
                    for &q in a.iter().filter(|&&q| q != r) {
                        let same = site_set(q) == site_set(r);
                        assert_eq!(cache.column[q.index()] == col, same, "{r:?} {q:?}");
                        shared |= same && col != NO_COLUMN;
                    }
                }
                for lr in rd.ranges.iter().filter(|l| l.is_candidate()) {
                    for &r in a {
                        let cost = cache.call_cost(lr.vreg.index(), r);
                        if cache.column[r.index()] == NO_COLUMN {
                            assert_eq!(cost.to_bits(), 0.0f64.to_bits());
                        }
                        if !charge {
                            assert_eq!(
                                cost.to_bits(),
                                ctx.reg_cost(lr, r, RegMask::EMPTY).to_bits()
                            );
                            fractional |= cost.fract() != 0.0;
                        }
                        // Every register but `r` forbidden: the priority
                        // of `r` itself, with and without its entry charge.
                        let others = RegMask(mask(a).0 & !RegMask::single(r).0);
                        for used in [RegMask::EMPTY, RegMask::single(r)] {
                            let want = ctx.best(lr, others, used).map(|(r, d)| (r, d.to_bits()));
                            let got = cache.best(&ctx, lr, others, used);
                            assert_eq!(got.map(|(r, d)| (r, d.to_bits())), want);
                        }
                    }
                    let uncached = ctx.best(lr, RegMask::EMPTY, RegMask::EMPTY);
                    let cached = cache.best(&ctx, lr, RegMask::EMPTY, RegMask::EMPTY);
                    match (uncached, cached) {
                        (None, None) => {}
                        (Some((ur, ud)), Some((cr, cd))) => {
                            assert_eq!(ur, cr);
                            assert_eq!(ud.to_bits(), cd.to_bits());
                        }
                        other => panic!("cache diverged: {other:?}"),
                    }
                }
            }
        }
        assert!(fractional, "some call cost sums non-integer weights");
        assert!(shared, "some registers share a column");
        assert!(unclobbered, "some register is clobbered by no site");
    }

    #[test]
    fn subtree_preference_breaks_ties() {
        let (f, x, _) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        let clobbers = vec![RegMask::EMPTY];
        let ctx_no_pref = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: false,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &vec![Vec::new(); f.num_vregs()],
            weights: &weights,
        };
        let preferred = target.regs.allocatable()[7];
        let (b1, _) = ctx_no_pref
            .best(&rd.ranges[x.index()], RegMask::EMPTY, RegMask::EMPTY)
            .unwrap();
        let ctx_pref = PriorityCtx {
            subtree_used: RegMask::single(preferred),
            ..ctx_no_pref
        };
        let (b2, _) = ctx_pref
            .best(&rd.ranges[x.index()], RegMask::EMPTY, RegMask::EMPTY)
            .unwrap();
        assert_eq!(
            b1,
            target.regs.allocatable()[0],
            "no preference: first register"
        );
        assert_eq!(b2, preferred, "tie broken toward the call tree's register");
    }
}
