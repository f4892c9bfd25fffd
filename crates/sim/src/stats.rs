//! Execution statistics — the quantities Table 1 and Table 2 report.

use ipra_machine::{CostModel, MemClass};
use ipra_obs::metrics::Log2Histogram;

/// Synthetic caller id for the program-entry edge `<entry> -> main`:
/// `main`'s activation is not created by a call instruction, but its
/// prologue save/restore traffic still needs an edge to land on.
pub const ROOT_CALLER: u32 = u32::MAX;

/// Penalty traffic attributed to one caller→callee edge of the dynamic
/// call graph — the per-edge decomposition of the paper's register usage
/// penalty (Eqs 3.5/3.6). Every save/restore and spill memory operation an
/// activation executes is charged to the edge that *created* the
/// activation, so summing any field over all edges reproduces the
/// corresponding aggregate in [`Stats`] exactly.
///
/// Caller-side saves around a call site (the allocator's `save_around`
/// plan) execute inside the *caller's* activation and therefore land on
/// the caller's own incoming edge; the static side of the ledger (the
/// allocator's `penalty.callsite.saved_regs` metric) breaks those out per
/// call site.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct EdgePenalty {
    /// Calling function (`FuncId` index), or [`ROOT_CALLER`] for the
    /// program-entry edge.
    pub caller: u32,
    /// Called function (`FuncId` index).
    pub callee: u32,
    /// Times this edge was taken (0 for the program-entry edge).
    pub calls: u64,
    /// Save/restore-class loads executed by activations created here.
    pub sr_loads: u64,
    /// Save/restore-class stores executed by activations created here.
    pub sr_stores: u64,
    /// Spill-class loads executed by activations created here.
    pub spill_loads: u64,
    /// Spill-class stores executed by activations created here.
    pub spill_stores: u64,
    /// Cycles spent on the save/restore traffic above, priced by the run's
    /// [`CostModel`] — the edge's share of the paper's penalty.
    pub penalty_cycles: u64,
}

impl EdgePenalty {
    /// Save/restore loads + stores on this edge.
    pub fn save_restore_mem(&self) -> u64 {
        self.sr_loads + self.sr_stores
    }

    /// Spill loads + stores on this edge.
    pub fn spill_mem(&self) -> u64 {
        self.spill_loads + self.spill_stores
    }
}

/// Dynamic counts attributed to a single function (cycles, instructions and
/// memory traffic charged while that function's activation was current;
/// `calls` counts the call instructions *it* executed).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FuncStats {
    /// Cycles charged while this function was executing.
    pub cycles: u64,
    /// Instructions this function executed (terminators included).
    pub insts: u64,
    /// Call instructions this function executed.
    pub calls: u64,
    /// Loads, by accounting class `[Data, ScalarHome, Spill, SaveRestore]`.
    pub loads_by_class: [u64; 4],
    /// Stores, by accounting class.
    pub stores_by_class: [u64; 4],
}

impl FuncStats {
    /// Records a load of class `c`.
    pub fn count_load(&mut self, c: MemClass) {
        self.loads_by_class[class_index(c)] += 1;
    }

    /// Records a store of class `c`.
    pub fn count_store(&mut self, c: MemClass) {
        self.stores_by_class[class_index(c)] += 1;
    }

    /// Save/restore loads + stores only.
    pub fn save_restore_mem(&self) -> u64 {
        self.loads_by_class[class_index(MemClass::SaveRestore)]
            + self.stores_by_class[class_index(MemClass::SaveRestore)]
    }
}

/// Dynamic counts accumulated by the simulator (the role `pixie` plays in
/// the paper's measurements).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Stats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions executed (terminators included).
    pub insts: u64,
    /// Call instructions executed.
    pub calls: u64,
    /// Loads executed, by accounting class
    /// `[Data, ScalarHome, Spill, SaveRestore]`.
    pub loads_by_class: [u64; 4],
    /// Stores executed, by accounting class.
    pub stores_by_class: [u64; 4],
    /// Call-stack depth histogram: activations *entered*, bucketed by
    /// stack depth (`main` enters at depth 1). Exact count/max survive the
    /// log₂ bucketing, so [`Stats::max_depth`] is still precise — and the
    /// histogram stays bounded even at the simulator's 100 000-frame depth
    /// limit, where the old dense vector grew one slot per depth.
    pub depth_hist: Log2Histogram,
    /// Per-function attribution, indexed by `FuncId` (empty unless the
    /// simulator filled it in).
    pub per_func: Vec<FuncStats>,
    /// Dynamic call-edge counts `(caller, callee, count)` as `FuncId`
    /// indices, sorted by `(caller, callee)`.
    pub call_edges: Vec<(u32, u32, u64)>,
    /// Per-call-edge penalty ledger, sorted by `(caller, callee)` with the
    /// program-entry edge ([`ROOT_CALLER`]) last. Field-wise sums over
    /// this vector reconcile exactly with the aggregate save/restore and
    /// spill counts above.
    pub edge_penalty: Vec<EdgePenalty>,
}

pub(crate) fn class_index(c: MemClass) -> usize {
    match c {
        MemClass::Data => 0,
        MemClass::ScalarHome => 1,
        MemClass::Spill => 2,
        MemClass::SaveRestore => 3,
    }
}

impl Stats {
    /// Records a load of class `c`.
    pub fn count_load(&mut self, c: MemClass) {
        self.loads_by_class[class_index(c)] += 1;
    }

    /// Records a store of class `c`.
    pub fn count_store(&mut self, c: MemClass) {
        self.stores_by_class[class_index(c)] += 1;
    }

    /// Records an activation entering at stack depth `d` (`main` is 1).
    pub fn record_depth(&mut self, d: usize) {
        self.depth_hist.observe(d as u64);
    }

    /// Deepest call stack observed (exact: the histogram tracks its max
    /// on the side).
    pub fn max_depth(&self) -> usize {
        self.depth_hist.max as usize
    }

    /// Loads of a given class.
    pub fn loads(&self, c: MemClass) -> u64 {
        self.loads_by_class[class_index(c)]
    }

    /// Stores of a given class.
    pub fn stores(&self, c: MemClass) -> u64 {
        self.stores_by_class[class_index(c)]
    }

    /// All loads.
    pub fn total_loads(&self) -> u64 {
        self.loads_by_class.iter().sum()
    }

    /// All stores.
    pub fn total_stores(&self) -> u64 {
        self.stores_by_class.iter().sum()
    }

    /// Scalar loads + stores: variable homes, spills and register
    /// saves/restores — "removable by the register allocator given an
    /// unlimited number of registers" (paper §8).
    pub fn scalar_mem(&self) -> u64 {
        self.loads_by_class[1..].iter().sum::<u64>() + self.stores_by_class[1..].iter().sum::<u64>()
    }

    /// Save/restore loads + stores only.
    pub fn save_restore_mem(&self) -> u64 {
        self.loads(MemClass::SaveRestore) + self.stores(MemClass::SaveRestore)
    }

    /// Total cycles spent on save/restore traffic under `cost` — the
    /// aggregate register usage penalty (Eqs 3.5/3.6 summed over all
    /// edges). Equals the sum of [`EdgePenalty::penalty_cycles`] over
    /// [`Stats::edge_penalty`] by construction.
    pub fn penalty_cycles(&self, cost: &CostModel) -> u64 {
        self.loads(MemClass::SaveRestore) * cost.load
            + self.stores(MemClass::SaveRestore) * cost.store
    }

    /// Average cycles per call — the paper's `cycles/call` column.
    pub fn cycles_per_call(&self) -> f64 {
        if self.calls == 0 {
            f64::NAN
        } else {
            self.cycles as f64 / self.calls as f64
        }
    }
}

/// Percentage reduction of `new` relative to `base`, as the paper reports:
/// positive numbers are improvements.
pub fn percent_reduction(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (base as f64 - new as f64) / base as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_accounting() {
        let mut s = Stats::default();
        s.count_load(MemClass::Data);
        s.count_load(MemClass::SaveRestore);
        s.count_store(MemClass::ScalarHome);
        s.count_store(MemClass::Spill);
        assert_eq!(s.total_loads(), 2);
        assert_eq!(s.total_stores(), 2);
        assert_eq!(s.scalar_mem(), 3, "data access excluded");
        assert_eq!(s.save_restore_mem(), 1);
    }

    #[test]
    fn cycles_per_call() {
        let s = Stats {
            cycles: 100,
            calls: 4,
            ..Stats::default()
        };
        assert_eq!(s.cycles_per_call(), 25.0);
        assert!(Stats::default().cycles_per_call().is_nan());
    }

    #[test]
    fn depth_histogram_and_derived_max() {
        let mut s = Stats::default();
        assert_eq!(s.max_depth(), 0, "no activations yet");
        s.record_depth(1); // main
        s.record_depth(2);
        s.record_depth(2);
        s.record_depth(4);
        assert_eq!(s.depth_hist.count, 4, "one sample per activation");
        assert_eq!(s.depth_hist.count_for(1), 1);
        assert_eq!(s.depth_hist.count_for(2), 2);
        assert_eq!(s.max_depth(), 4);
        s.record_depth(3);
        assert_eq!(s.max_depth(), 4, "shallower entries keep the max");
        // Extreme depths stay bounded: the old dense vector allocated one
        // slot per depth, the log₂ histogram at most 65 buckets.
        s.record_depth(99_999);
        assert_eq!(s.max_depth(), 99_999);
    }

    #[test]
    fn edge_penalty_sums() {
        let e = EdgePenalty {
            caller: 0,
            callee: 1,
            calls: 3,
            sr_loads: 4,
            sr_stores: 5,
            spill_loads: 1,
            spill_stores: 2,
            penalty_cycles: 13,
        };
        assert_eq!(e.save_restore_mem(), 9);
        assert_eq!(e.spill_mem(), 3);
    }

    #[test]
    fn per_func_attribution_accumulates() {
        let mut f = FuncStats::default();
        f.count_load(MemClass::SaveRestore);
        f.count_store(MemClass::SaveRestore);
        f.count_load(MemClass::Data);
        assert_eq!(f.save_restore_mem(), 2);
        assert_eq!(f.loads_by_class[0], 1);
    }

    #[test]
    fn percent_reduction_sign_convention() {
        assert_eq!(percent_reduction(200, 100), 50.0, "halving is +50%");
        assert_eq!(percent_reduction(100, 125), -25.0, "regression is negative");
        assert_eq!(percent_reduction(0, 10), 0.0);
    }
}
