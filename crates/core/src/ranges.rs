//! Live ranges and the interference graph.
//!
//! Priority-based coloring allocates *live ranges* (Chow–Hennessy): the set
//! of basic blocks where a variable is live, together with its weighted
//! reference counts. Interference is computed precisely, per program point,
//! by a backward scan of every block. The same scan records, for every call
//! site, which ranges are live *across* the call — the quantity that drives
//! the per-(variable, register) cost terms of the inter-procedural
//! allocator.

use ipra_cfg::bitset::{iter_words, symmetrize, Iter};
use ipra_cfg::{BitSet, Cfg, Liveness, LoopInfo};
use ipra_ir::{BlockId, Callee, FuncId, Function, Inst, InstLoc, Vreg};

use crate::scratch::CompileScratch;

/// Execution-frequency weight per block, from static loop nesting or from a
/// measured profile (the paper's planned profile feedback).
#[derive(Clone, Debug)]
pub struct BlockWeights(Vec<f64>);

impl BlockWeights {
    /// Static estimate: `10^loop_depth` per block (the classic Uopt rule).
    pub fn from_loops(cfg: &Cfg, loops: &LoopInfo) -> Self {
        BlockWeights(
            (0..cfg.num_blocks())
                .map(|b| loops.weight(BlockId(b as u32)))
                .collect(),
        )
    }

    /// Measured profile: per-block execution counts normalized so the entry
    /// block weighs 1 per invocation. Falls back to the static estimate for
    /// functions that never ran — and for functions whose block count no
    /// longer matches the profile's (the inliner splices blocks in after a
    /// training run, making the stale counts meaningless for this body).
    pub fn from_profile(cfg: &Cfg, loops: &LoopInfo, counts: &[u64]) -> Self {
        if counts.len() != cfg.num_blocks() {
            return Self::from_loops(cfg, loops);
        }
        let invocations = counts[cfg.entry.index()];
        if invocations == 0 {
            return Self::from_loops(cfg, loops);
        }
        BlockWeights(
            counts
                .iter()
                .map(|&c| c as f64 / invocations as f64)
                .collect(),
        )
    }

    /// Weight of one block.
    pub fn weight(&self, b: BlockId) -> f64 {
        self.0[b.index()]
    }
}

/// A call site, with the loop weight of its block.
#[derive(Clone, Debug)]
pub struct CallSiteInfo {
    /// Location of the call instruction.
    pub loc: InstLoc,
    /// Static target; `None` for indirect calls.
    pub callee: Option<FuncId>,
    /// Execution-frequency weight of the containing block.
    pub weight: f64,
}

/// The live range of one virtual register.
#[derive(Clone, Debug)]
pub struct LiveRange {
    /// The register this range belongs to.
    pub vreg: Vreg,
    /// Blocks in the range (live or referenced).
    pub blocks: BitSet,
    /// Loop-weighted count of uses (reads).
    pub weighted_uses: f64,
    /// Loop-weighted count of definitions (writes).
    pub weighted_defs: f64,
    /// Static reference count (uses + defs).
    pub num_refs: u32,
    /// Weighted `(uses, defs)` per block index — the per-block detail the
    /// splitter needs to seed and value sub-regions.
    pub block_refs: std::collections::HashMap<u32, (f64, f64)>,
}

impl LiveRange {
    /// Number of blocks in the range (the normalization term of the
    /// priority function).
    pub fn size(&self) -> usize {
        self.blocks.count()
    }

    /// Whether this range is ever referenced (unreferenced ranges are not
    /// allocation candidates).
    pub fn is_candidate(&self) -> bool {
        self.num_refs > 0
    }
}

/// Live ranges, interference and call sites for one function.
#[derive(Clone, Debug)]
pub struct RangeData {
    /// One live range per virtual register.
    pub ranges: Vec<LiveRange>,
    /// Interference adjacency: `adj[v]` holds every vreg whose value is live
    /// simultaneously with `v` at some program point.
    pub adj: Vec<BitSet>,
    /// All call sites, in block order.
    pub call_sites: Vec<CallSiteInfo>,
    /// The vregs live across each call site: row `s` (aligned with
    /// [`RangeData::call_sites`]) is the set live just after call `s`
    /// minus the call's own result, stored as `row_words` words from word
    /// `s * row_words` of one flat buffer.
    live_across: Vec<u64>,
    /// Words per live-across row: `num_vregs.div_ceil(64)`.
    row_words: usize,
}

impl RangeData {
    /// Builds ranges and interference for `func`.
    pub fn build(func: &Function, cfg: &Cfg, live: &Liveness, weights: &BlockWeights) -> Self {
        Self::build_with(func, cfg, live, weights, &mut CompileScratch::default())
    }

    /// [`RangeData::build`] running its backward scan out of the caller's
    /// [`CompileScratch`] (the per-block working liveness set is the one
    /// transient buffer here; everything else escapes into the result).
    pub fn build_with(
        func: &Function,
        cfg: &Cfg,
        live: &Liveness,
        weights: &BlockWeights,
        scratch: &mut CompileScratch,
    ) -> Self {
        let nv = func.num_vregs();
        let nb = func.num_blocks();

        let mut ranges: Vec<LiveRange> = (0..nv)
            .map(|i| LiveRange {
                vreg: Vreg(i as u32),
                blocks: BitSet::new(nb),
                weighted_uses: 0.0,
                weighted_defs: 0.0,
                num_refs: 0,
                block_refs: std::collections::HashMap::new(),
            })
            .collect();
        let mut adj: Vec<BitSet> = (0..nv).map(|_| BitSet::new(nv)).collect();

        // Collect call sites in forward block order; the backward scan
        // meets each block's run of them last to first.
        let mut call_sites = Vec::new();
        for (id, b) in func.blocks.iter() {
            if !cfg.is_reachable(id) {
                continue;
            }
            let w = weights.weight(id);
            for (i, inst) in b.insts.iter().enumerate() {
                if let Inst::Call { callee, .. } = inst {
                    call_sites.push(CallSiteInfo {
                        loc: InstLoc { block: id, inst: i },
                        callee: match callee {
                            Callee::Direct(f) => Some(*f),
                            Callee::Indirect(_) => None,
                        },
                        weight: w,
                    });
                }
            }
        }
        let row_words = nv.div_ceil(64);
        let mut live_across = vec![0u64; call_sites.len() * row_words];

        // Range membership: every block where the register is live or
        // referenced.
        for (id, _) in func.blocks.iter() {
            if !cfg.is_reachable(id) {
                continue;
            }
            let bi = id.index();
            for set in [
                &live.live_in[bi],
                &live.live_out[bi],
                &live.uevar[bi],
                &live.defs[bi],
            ] {
                for v in set.iter() {
                    ranges[v].blocks.insert(bi);
                }
            }
        }

        // Backward scan: precise interference, weighted counts, live-across
        // rows. Each def ORs the whole live set into its adjacency row in
        // one word-level pass — the reverse edges are filled in by one tiled
        // transpose after the scan, instead of a per-def bit-by-bit walk of
        // `live_now`.
        let mut block_start = 0;
        for (id, b) in func.blocks.iter() {
            if !cfg.is_reachable(id) {
                continue;
            }
            let bi = id.index();
            // This block's calls are the next run of `call_sites`; the scan
            // meets them last to first, so `site` counts down from its end.
            let block_end = block_start
                + call_sites[block_start..]
                    .iter()
                    .take_while(|c| c.loc.block == id)
                    .count();
            let mut site = block_end;
            block_start = block_end;
            let w = weights.weight(id);
            scratch.live_now.copy_from(&live.live_out[bi]);
            let live_now = &mut scratch.live_now;

            b.term.for_each_use(|v| {
                let r = &mut ranges[v.index()];
                r.weighted_uses += w;
                r.num_refs += 1;
                r.block_refs.entry(bi as u32).or_insert((0.0, 0.0)).0 += w;
                live_now.insert(v.index());
            });

            for (i, inst) in b.insts.iter().enumerate().rev() {
                if inst.is_call() {
                    site -= 1;
                    debug_assert_eq!(call_sites[site].loc, InstLoc { block: id, inst: i });
                    let row = &mut live_across[site * row_words..][..row_words];
                    row.copy_from_slice(live_now.words());
                    if let Some(d) = inst.def() {
                        row[d.index() / 64] &= !(1 << (d.index() % 64));
                    }
                }
                if let Some(d) = inst.def() {
                    let di = d.index();
                    adj[di].union_with(live_now);
                    live_now.remove(di);
                    ranges[di].weighted_defs += w;
                    ranges[di].num_refs += 1;
                    ranges[di]
                        .block_refs
                        .entry(bi as u32)
                        .or_insert((0.0, 0.0))
                        .1 += w;
                }
                inst.for_each_use(|v| {
                    let r = &mut ranges[v.index()];
                    r.weighted_uses += w;
                    r.num_refs += 1;
                    r.block_refs.entry(bi as u32).or_insert((0.0, 0.0)).0 += w;
                    live_now.insert(v.index());
                });
            }
        }

        // Parameters are all defined simultaneously at entry; any pair live
        // at entry interferes (the instruction scan never sees their defs).
        let entry_in = &live.live_in[func.entry.index()];
        for (i, &p) in func.params.iter().enumerate() {
            if !entry_in.contains(p.index()) {
                continue;
            }
            // A parameter's arrival counts as its (free) definition, but its
            // home-store cost is real when it ends up in memory.
            let ew = weights.weight(func.entry);
            ranges[p.index()].weighted_defs += ew;
            ranges[p.index()]
                .block_refs
                .entry(func.entry.index() as u32)
                .or_insert((0.0, 0.0))
                .1 += ew;
            for &q in func.params.iter().skip(i + 1) {
                if entry_in.contains(q.index()) && p != q {
                    adj[p.index()].insert(q.index());
                    adj[q.index()].insert(p.index());
                }
            }
        }

        // The scan recorded def -> live edges only; add the reverse edges
        // and drop self-edges.
        symmetrize(&mut adj);

        RangeData {
            ranges,
            adj,
            call_sites,
            live_across,
            row_words,
        }
    }

    /// The vregs live across call site `site`, in increasing order.
    pub(crate) fn live_across(&self, site: usize) -> Iter<'_> {
        iter_words(&self.live_across[site * self.row_words..][..self.row_words])
    }

    /// Whether vreg `v` is live across call site `site`.
    pub(crate) fn is_live_across(&self, v: usize, site: usize) -> bool {
        self.live_across[site * self.row_words + v / 64] & (1 << (v % 64)) != 0
    }

    /// Call-site indices in the order the backward scan meets them: blocks
    /// first to last, each block's calls last to first. Every sum over the
    /// calls a range spans runs in this order, so priorities are the same
    /// floating-point values wherever they are computed.
    pub(crate) fn scan_order(&self) -> impl Iterator<Item = usize> + '_ {
        let mut end = 0;
        self.call_sites
            .chunk_by(|a, b| a.loc.block == b.loc.block)
            .flat_map(move |run| {
                let start = end;
                end += run.len();
                (start..end).rev()
            })
    }

    /// Whether `a` and `b` interfere.
    pub fn interferes(&self, a: Vreg, b: Vreg) -> bool {
        self.adj[a.index()].contains(b.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalyses;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::{BinOp, Module};

    fn analyze(func: &Function) -> (Cfg, RangeData) {
        let FuncAnalyses {
            cfg,
            loops,
            liveness,
            ..
        } = FuncAnalyses::compute(func);
        let weights = BlockWeights::from_loops(&cfg, &loops);
        let rd = RangeData::build(func, &cfg, &liveness, &weights);
        (cfg, rd)
    }

    #[test]
    fn sequential_temps_do_not_interfere() {
        let mut b = FunctionBuilder::new("f");
        let t1 = b.bin(BinOp::Add, 1, 2);
        b.print(t1);
        let t2 = b.bin(BinOp::Add, 3, 4);
        b.print(t2);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(!rd.interferes(t1, t2), "t1 dead before t2 defined");
        assert_eq!(rd.ranges[t1.index()].num_refs, 2);
    }

    #[test]
    fn overlapping_values_interfere() {
        let mut b = FunctionBuilder::new("f");
        let x = b.copy(1);
        let y = b.copy(2);
        let s = b.bin(BinOp::Add, x, y);
        b.print(s);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(rd.interferes(x, y));
        assert!(!rd.interferes(x, s), "x dies where s is defined");
        assert!(!rd.interferes(y, s), "y dies where s is defined");
    }

    #[test]
    fn interference_is_symmetric_and_irreflexive() {
        let mut b = FunctionBuilder::new("f");
        let x = b.copy(1);
        let y = b.copy(2);
        let z = b.bin(BinOp::Add, x, y);
        let w = b.bin(BinOp::Add, z, x);
        b.print(w);
        b.print(y);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        for a in 0..f.num_vregs() {
            assert!(!rd.adj[a].contains(a), "no self interference");
            for bb in rd.adj[a].iter() {
                assert!(rd.adj[bb].contains(a), "symmetry {a} vs {bb}");
            }
        }
    }

    #[test]
    fn live_across_call_recorded() {
        let mut m = Module::new();
        let callee = m.declare_func("callee");
        let mut b = FunctionBuilder::new("caller");
        let x = b.copy(5);
        let r = b.call(callee, vec![]);
        let s = b.bin(BinOp::Add, x, r);
        b.print(s);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert_eq!(rd.call_sites.len(), 1);
        assert_eq!(rd.call_sites[0].callee, Some(callee));
        assert_eq!(
            rd.live_across(0).collect::<Vec<_>>(),
            vec![x.index()],
            "x, and only x, survives the call"
        );
        assert!(rd.is_live_across(x.index(), 0));
        assert!(
            !rd.is_live_across(r.index(), 0),
            "call result is not live across"
        );
    }

    #[test]
    fn call_argument_not_live_across() {
        let mut m = Module::new();
        let callee = m.declare_func("callee");
        let mut b = FunctionBuilder::new("caller");
        let x = b.copy(5);
        b.call_void(callee, vec![x.into()]);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(
            !rd.is_live_across(x.index(), 0),
            "argument dies at the call; no save needed"
        );
        assert_eq!(rd.live_across(0).count(), 0, "nothing survives the call");
    }

    #[test]
    fn loop_weights_scale_reference_counts() {
        let mut b = FunctionBuilder::new("f");
        let i = b.var("i");
        let h = b.new_block();
        let body = b.new_block();
        let out = b.new_block();
        b.copy_to(i, 0);
        b.br(h);
        let c = b.bin(BinOp::Lt, i, 10);
        b.cond_br(c, body, out);
        b.switch_to(body);
        let ni = b.bin(BinOp::Add, i, 1);
        b.copy_to(i, ni);
        b.br(h);
        b.switch_to(out);
        b.print(i);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        let r = &rd.ranges[i.index()];
        // i: def w=1 (entry) + def w=10 (body copy), uses w=10 (header cmp) +
        // w=10 (body add) + w=1 (print).
        assert_eq!(r.weighted_defs, 11.0);
        assert_eq!(r.weighted_uses, 21.0);
        assert_eq!(r.blocks.count(), 4);
    }

    #[test]
    fn parameters_interfere_with_each_other() {
        let mut b = FunctionBuilder::new("f");
        let x = b.param("x");
        let y = b.param("y");
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s.into()));
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(rd.interferes(x, y), "both params live at entry");
    }

    #[test]
    fn dead_def_still_interferes_with_live_values() {
        let mut b = FunctionBuilder::new("f");
        let x = b.copy(1);
        let dead = b.copy(2); // never used
        let y = b.bin(BinOp::Add, x, 3);
        b.print(y);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(
            rd.interferes(dead, x),
            "dead def overlaps x's live range at its def point"
        );
    }
}
