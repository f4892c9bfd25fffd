//! Reusable allocator scratch buffers.
//!
//! Each function compiled allocates the same shapes of transient storage:
//! per-block `RegMask` vectors (occupancy, shrink-wrap dataflow),
//! per-vreg flag vectors, range-index rows, a liveness bitset, coloring's
//! forbidden columns, the splitter's block tables, and the parallel-move
//! resolver's worklists. [`CompileScratch`] owns one of each and hands
//! them out `clear()`ed instead of freshly allocated, so a compile's
//! hundredth function reuses the buffers of its first.
//! [`ScratchPool`] holds one `CompileScratch` per concurrent compile and
//! recycles them across compiles of the same [`crate::Pipeline`].
//!
//! Reuse is invisible to the output: every `take_*` returns buffers in
//! the exact state a fresh allocation would have, so machine code is
//! bit-identical whether scratch is fresh or recycled (the differential
//! oracle checks this).

use std::collections::HashSet;
use std::sync::Mutex;

use ipra_cfg::BitSet;
use ipra_machine::{PReg, RegMask};

/// A pool of `Vec<RegMask>` buffers.
///
/// The allocator's hottest transient shape: occupancy vectors, avail/save
/// dataflow vectors in shrink-wrapping, split-local forbid masks. `take`
/// pops a retired buffer (or starts an empty one) and sizes it to `n`
/// copies of `fill`; `give` retires a buffer for the next `take`.
#[derive(Debug, Default)]
pub struct MaskPool {
    free: Vec<Vec<RegMask>>,
}

impl MaskPool {
    /// A buffer of exactly `n` elements, all equal to `fill`.
    pub fn take(&mut self, n: usize, fill: RegMask) -> Vec<RegMask> {
        let mut v = self.free.pop().unwrap_or_default();
        v.clear();
        v.resize(n, fill);
        v
    }

    /// Returns a buffer to the pool.
    pub fn give(&mut self, v: Vec<RegMask>) {
        self.free.push(v);
    }
}

/// Worklists reused by the parallel-move resolver
/// ([`crate::parmove::resolve_parallel_moves_into`]). A lowering pass
/// resolves one move set per call site plus one per prologue; reusing
/// these two collections removes that per-site churn.
#[derive(Debug, Default)]
pub struct MoveScratch {
    /// Register-to-register moves still waiting to be emitted.
    pub pending: Vec<(PReg, PReg)>,
    /// Destination-uniqueness check set.
    pub seen: HashSet<PReg>,
}

/// Block-indexed tables for live-range splitting (`color`'s
/// `try_split`), sized per call and cleared before use.
#[derive(Debug, Default)]
pub(crate) struct SplitScratch {
    /// Blocks of the range not yet given to a region.
    pub(crate) remaining: BitSet,
    /// Blocks of the region being grown.
    pub(crate) in_region: BitSet,
    /// The region being grown, in discovery order.
    pub(crate) region: Vec<usize>,
    /// The best region found so far for this round.
    pub(crate) best_region: Vec<usize>,
    /// Depth-first worklist for growing a region.
    pub(crate) work: Vec<usize>,
    /// Weighted reference gain per block (zero where unreferenced).
    pub(crate) gain: Vec<f64>,
    /// `(site, weight)` of the calls the range is live across, in scan
    /// order; block `b`'s run is `sites[site_start[b]..site_start[b + 1]]`.
    pub(crate) sites: Vec<(usize, f64)>,
    /// Per-block start offsets into `sites` (one more entry than blocks).
    pub(crate) site_start: Vec<usize>,
}

/// Scratch for one in-flight compile.
///
/// Owned by a [`ScratchPool`]; each compile checks one out and threads it
/// through ranges → color → shrink-wrap → lower for every function. Buffers that escape into results (`SavePlan`
/// placement maps, `Assignment` vectors) are never pooled — only
/// genuinely transient storage lives here.
#[derive(Debug, Default)]
pub struct CompileScratch {
    /// Pool of per-block / per-vreg `RegMask` vectors.
    pub masks: MaskPool,
    /// Live-range splitting tables.
    pub(crate) split: SplitScratch,
    /// Running liveness set for range construction.
    pub live_now: BitSet,
    /// Parallel-move resolver worklists.
    pub moves: MoveScratch,
    /// Per-vreg boolean flags (coloring's `done` vector).
    pub flags: Vec<bool>,
    /// Coloring's per-register forbidden columns.
    pub(crate) forbidden: Vec<u64>,
    /// Per-block index rows (coloring's block → live-range lists).
    index_rows: Vec<Vec<u32>>,
}

impl CompileScratch {
    /// A row-per-block table of `n` empty `u32` rows, reusing both the
    /// outer vector and every inner row's capacity.
    pub fn take_index_rows(&mut self, n: usize) -> Vec<Vec<u32>> {
        let mut rows = std::mem::take(&mut self.index_rows);
        for row in rows.iter_mut() {
            row.clear();
        }
        rows.truncate(n);
        rows.resize_with(n, Vec::new);
        rows
    }

    /// Returns an index-row table to the scratch.
    pub fn give_index_rows(&mut self, rows: Vec<Vec<u32>>) {
        self.index_rows = rows;
    }
}

/// A shared pool of [`CompileScratch`] instances, one per concurrently
/// active compile. Lives on the [`crate::Pipeline`], so scratch survives
/// not just across functions in one compile but across whole recompiles.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<CompileScratch>>,
}

impl ScratchPool {
    /// Borrows a scratch instance (creating one if the pool is dry).
    /// Return it with [`ScratchPool::release`] when the compile finishes.
    pub fn acquire(&self) -> CompileScratch {
        self.free.lock().unwrap().pop().unwrap_or_default()
    }

    /// Returns a scratch instance for the next compile.
    pub fn release(&self, s: CompileScratch) {
        self.free.lock().unwrap().push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_pool_recycles_and_resizes() {
        let mut pool = MaskPool::default();
        let mut v = pool.take(3, RegMask::EMPTY);
        assert_eq!(v, vec![RegMask::EMPTY; 3]);
        v[1] = RegMask(0b101);
        pool.give(v);
        let v2 = pool.take(5, RegMask(7));
        assert_eq!(v2, vec![RegMask(7); 5], "recycled buffer is re-initialized");
        pool.give(v2);
        let v3 = pool.take(0, RegMask::EMPTY);
        assert!(v3.is_empty());
    }

    #[test]
    fn index_rows_come_back_empty_and_sized() {
        let mut s = CompileScratch::default();
        let mut rows = s.take_index_rows(4);
        rows[0].extend([1, 2, 3]);
        rows[3].push(9);
        s.give_index_rows(rows);
        let rows2 = s.take_index_rows(2);
        assert_eq!(rows2, vec![Vec::<u32>::new(); 2]);
        s.give_index_rows(rows2);
        let rows3 = s.take_index_rows(6);
        assert_eq!(rows3, vec![Vec::<u32>::new(); 6]);
    }

    #[test]
    fn scratch_pool_round_trips() {
        let pool = ScratchPool::default();
        let mut a = pool.acquire();
        a.flags.push(true);
        pool.release(a);
        let b = pool.acquire();
        // Contents are the caller's responsibility; identity round-trips.
        assert_eq!(b.flags, vec![true]);
        pool.release(b);
    }
}
