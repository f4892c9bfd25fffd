//! A dense fixed-capacity bit set.

/// A bit set over indices `0..capacity`.
///
/// Used for block sets, liveness sets and interference rows. All binary
/// operations require both operands to have the same capacity.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a full set over `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        s.insert_all();
        s
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics when `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        old & (1 << b) == 0
    }

    /// Removes `i`; returns whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] &= !(1 << b);
        old & (1 << b) != 0
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Makes `self` an exact copy of `other`, reusing the existing word
    /// buffer. Unlike `*self = other.clone()`, a set recycled across many
    /// `copy_from` calls only allocates when it grows past its largest
    /// capacity so far.
    pub fn copy_from(&mut self, other: &BitSet) {
        self.words.resize(other.words.len(), 0);
        self.words.copy_from_slice(&other.words);
        self.capacity = other.capacity;
    }

    /// Empties the set and makes its capacity `capacity`, reusing the
    /// word buffer.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.capacity = capacity;
    }

    /// Inserts every index in `0..capacity`.
    pub fn insert_all(&mut self) {
        if self.capacity == 0 {
            return;
        }
        self.words.iter_mut().for_each(|w| *w = u64::MAX);
        let last_bits = self.capacity % 64;
        if last_bits != 0 {
            let n = self.words.len();
            self.words[n - 1] = (1u64 << last_bits) - 1;
        }
    }

    /// `self |= other`; returns whether `self` changed.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self &= other`; returns whether `self` changed.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a & b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self -= other` (set difference).
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self` and `other` share any element.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether every element of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        iter_words(&self.words)
    }

    /// The backing words: element `i` is bit `i % 64` of word `i / 64`.
    /// Bits at or past the capacity are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Iterates over the set bits of a word slice laid out like
/// [`BitSet::words`], in increasing order.
pub fn iter_words(words: &[u64]) -> Iter<'_> {
    Iter {
        words,
        word_idx: 0,
        current: words.first().copied().unwrap_or(0),
    }
}

/// Makes the square bit matrix `rows` symmetric and irreflexive:
/// `rows |= rowsᵀ`, then the diagonal is cleared. Row `i` is the set of
/// columns related to `i`, over `0..rows.len()`.
///
/// The matrix is processed in 64×64 tiles: tile `(I, J)` and its mirror
/// `(J, I)` are each transposed in registers and ORed into the other, so
/// the work is word-parallel rather than one insertion per set bit. An
/// all-zero tile is neither transposed nor ORed, so a pair of all-zero
/// tiles costs only the loads that find it empty, and a nearly triangular
/// matrix (one tile of each off-diagonal pair empty) pays one transpose
/// per pair.
///
/// # Panics
///
/// Panics unless every row's capacity equals the number of rows.
pub fn symmetrize(rows: &mut [BitSet]) {
    let n = rows.len();
    assert!(
        rows.iter().all(|r| r.capacity == n),
        "symmetrize needs a square matrix"
    );
    let tiles = n.div_ceil(64);
    for ti in 0..tiles {
        for tj in ti..tiles {
            let a = load_tile(rows, ti, tj);
            let b = if ti == tj { a } else { load_tile(rows, tj, ti) };
            if b != [0; 64] {
                or_tile(rows, ti, tj, &transpose64(b));
            }
            if ti != tj && a != [0; 64] {
                or_tile(rows, tj, ti, &transpose64(a));
            }
        }
    }
    for (i, row) in rows.iter_mut().enumerate() {
        row.remove(i);
    }
}

/// Word `tj` of rows `64·ti .. 64·ti + 64` (missing rows read as zero).
fn load_tile(rows: &[BitSet], ti: usize, tj: usize) -> [u64; 64] {
    let mut tile = [0; 64];
    for (t, row) in tile.iter_mut().zip(&rows[ti * 64..]) {
        *t = row.words[tj];
    }
    tile
}

/// ORs `tile` into word `tj` of rows `64·ti .. 64·ti + 64`.
fn or_tile(rows: &mut [BitSet], ti: usize, tj: usize, tile: &[u64; 64]) {
    for (row, t) in rows[ti * 64..].iter_mut().zip(tile) {
        row.words[tj] |= t;
    }
}

/// Transposes a 64×64 bit matrix (row `k` is word `k`, column `c` is bit
/// `c`) by recursive block swaps: the off-diagonal 32×32 quadrants, then
/// the 16×16 blocks inside each quadrant, down to single bits.
fn transpose64(mut m: [u64; 64]) -> [u64; 64] {
    let mut width = 32;
    let mut low: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> width) ^ m[k + width]) & low;
            m[k] ^= t << width;
            m[k + width] ^= t;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        low ^= low << width;
    }
    m
}

/// Iterator over the elements of a [`BitSet`] or a word slice.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set sized to the maximum element + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports no change");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(67);
        assert_eq!(s.count(), 67);
        assert!(s.contains(66));
        assert!(!s.contains(67));
    }

    #[test]
    fn union_and_intersection() {
        let mut a = BitSet::new(10);
        a.insert(1);
        a.insert(3);
        let mut b = BitSet::new(10);
        b.insert(3);
        b.insert(5);
        assert!(a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert!(!a.union_with(&b), "second union is a no-op");
        assert!(a.intersect_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 5]);
        assert!(a.intersects(&b));
        assert!(a.is_subset_of(&b));
    }

    #[test]
    fn subtract_removes_members() {
        let mut a = BitSet::full(8);
        let mut b = BitSet::new(8);
        b.insert(2);
        b.insert(7);
        a.subtract(&b);
        assert_eq!(a.count(), 6);
        assert!(!a.contains(2) && !a.contains(7));
    }

    #[test]
    fn iterator_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [5usize, 1, 9].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    #[test]
    fn copy_from_matches_clone_across_capacities() {
        let mut scratch = BitSet::new(0);
        for cap in [3usize, 130, 64, 0, 65] {
            let mut src = BitSet::new(cap);
            for i in (0..cap).step_by(3) {
                src.insert(i);
            }
            scratch.copy_from(&src);
            assert_eq!(scratch, src, "cap {cap}");
            assert_eq!(scratch.capacity(), cap);
        }
        // The recycled set is fully functional after shrinking.
        let mut small = BitSet::new(2);
        small.insert(1);
        scratch.copy_from(&small);
        assert!(scratch.insert(0));
        assert_eq!(scratch.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    /// xorshift64: deterministic test input without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The closure `symmetrize` must equal: drop the diagonal, then one
    /// reverse insertion per set bit.
    fn symmetrize_bit_by_bit(rows: &mut [BitSet]) {
        for v in 0..rows.len() {
            rows[v].remove(v);
            let row = rows[v].clone();
            for u in row.iter() {
                rows[u].insert(v);
            }
        }
    }

    #[test]
    fn transpose64_matches_the_definition() {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        let mut m = [0u64; 64];
        for w in m.iter_mut() {
            *w = next(&mut state);
        }
        let t = transpose64(m);
        for (r, row) in m.iter().enumerate() {
            for (c, col) in t.iter().enumerate() {
                assert_eq!(row >> c & 1, col >> r & 1, "({r}, {c})");
            }
        }
        assert_eq!(transpose64(t), m, "transposing twice is the identity");
    }

    #[test]
    fn symmetrize_equals_the_bit_by_bit_closure() {
        let mut state = 0x2545_F491_4F6C_DD1D;
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129, 300] {
            // Density in 1/64ths: empty, sparse, a few per row, half, full.
            for per_64 in [0u64, 1, 4, 32, 64] {
                let mut rows: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
                for row in rows.iter_mut() {
                    for c in 0..n {
                        if next(&mut state) % 64 < per_64 {
                            row.insert(c);
                        }
                    }
                }
                // As drawn, then strictly lower- and strictly
                // upper-triangular, where one tile of every off-diagonal
                // pair is all-zero.
                for shape in ["full", "lower", "upper"] {
                    let mut rows = rows.clone();
                    for (r, row) in rows.iter_mut().enumerate() {
                        for c in 0..n {
                            let keep = match shape {
                                "lower" => c < r,
                                "upper" => c > r,
                                _ => true,
                            };
                            if !keep {
                                row.remove(c);
                            }
                        }
                    }
                    let mut want = rows.clone();
                    symmetrize_bit_by_bit(&mut want);
                    symmetrize(&mut rows);
                    assert_eq!(rows, want, "n={n} density={per_64}/64 {shape}");
                    for (i, row) in rows.iter().enumerate() {
                        assert!(!row.contains(i), "n={n}: diagonal bit {i} survives");
                    }
                }
            }
        }
    }

    #[test]
    fn symmetrize_handles_one_edge_between_distant_tiles() {
        // One edge between the first and the last tile; every other tile
        // pair is all-zero and skipped.
        let n = 300;
        let mut rows: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        rows[299].insert(3);
        symmetrize(&mut rows);
        assert_eq!(rows[3].iter().collect::<Vec<_>>(), vec![299]);
        assert_eq!(rows[299].iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(rows.iter().map(BitSet::count).sum::<usize>(), 2);
    }

    #[test]
    fn iter_words_walks_a_raw_slice() {
        let words = [0b101u64, 0, 1 << 63];
        assert_eq!(iter_words(&words).collect::<Vec<_>>(), vec![0, 2, 191]);
        assert_eq!(iter_words(&[]).count(), 0);
    }

    #[test]
    fn empty_set_behaviour() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let mut f = BitSet::new(0);
        f.insert_all();
        assert!(f.is_empty());
    }
}
