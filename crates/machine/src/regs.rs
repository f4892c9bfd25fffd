//! Physical registers, register classes and register masks.

/// A physical register, indexing into a [`RegFile`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PReg(pub u8);

impl PReg {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl std::fmt::Debug for PReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

/// Software usage convention of a register (paper §2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegClass {
    /// Not preserved across calls; the caller saves it around calls when it
    /// holds a live value.
    CallerSaved,
    /// Preserved across calls; a procedure that uses it must save/restore it
    /// (at entry/exit or shrink-wrapped).
    CalleeSaved,
}

/// A set of physical registers as a bit mask (at most 32 registers).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegMask(pub u32);

impl RegMask {
    /// The empty mask.
    pub const EMPTY: RegMask = RegMask(0);

    /// A mask containing exactly `r`.
    pub fn single(r: PReg) -> Self {
        RegMask(1 << r.0)
    }

    /// Whether `r` is in the mask.
    pub fn contains(self, r: PReg) -> bool {
        self.0 & (1 << r.0) != 0
    }

    /// Adds `r`.
    pub fn insert(&mut self, r: PReg) {
        self.0 |= 1 << r.0;
    }

    /// Removes `r`.
    pub fn remove(&mut self, r: PReg) {
        self.0 &= !(1 << r.0);
    }

    /// Union.
    pub fn union(self, other: RegMask) -> RegMask {
        RegMask(self.0 | other.0)
    }

    /// Intersection.
    pub fn intersect(self, other: RegMask) -> RegMask {
        RegMask(self.0 & other.0)
    }

    /// Whether the mask is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the mask.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over members in increasing index order, visiting only the
    /// set bits.
    pub fn iter(self) -> impl Iterator<Item = PReg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let r = PReg(bits.trailing_zeros() as u8);
            bits &= bits - 1;
            Some(r)
        })
    }
}

impl std::ops::BitOr for RegMask {
    type Output = RegMask;
    fn bitor(self, rhs: RegMask) -> RegMask {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for RegMask {
    fn bitor_assign(&mut self, rhs: RegMask) {
        self.0 |= rhs.0;
    }
}

impl std::fmt::Debug for RegMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<PReg> for RegMask {
    fn from_iter<I: IntoIterator<Item = PReg>>(iter: I) -> Self {
        let mut m = RegMask::EMPTY;
        for r in iter {
            m.insert(r);
        }
        m
    }
}

/// Parameterized description of a register file *and* its calling
/// convention, from which every [`RegFile`] is built.
///
/// The file always carries four reserved registers (two assembler
/// scratches, the return-value register and the link register) followed by
/// three blocks: `arg_regs` argument registers (caller-saved by
/// convention), `caller_regs` plain caller-saved registers of which the
/// first `caller_alloc` are allocatable, and `callee_regs` callee-saved
/// registers of which the first `callee_alloc` are allocatable. Keeping
/// non-allocatable registers *present* (classed but withheld from the
/// allocator) reproduces the paper's Table 2 methodology, where the
/// machine does not shrink — only the allocator's freedom does.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConventionSpec {
    /// Argument registers (`a0..`), always caller-saved by convention.
    pub arg_regs: usize,
    /// Whether the argument registers are also allocatable.
    pub args_allocatable: bool,
    /// Caller-saved registers present in the file (`t0..`).
    pub caller_regs: usize,
    /// Allocatable prefix of the caller-saved block.
    pub caller_alloc: usize,
    /// Callee-saved registers present in the file (`s0..`).
    pub callee_regs: usize,
    /// Allocatable prefix of the callee-saved block.
    pub callee_alloc: usize,
}

/// Reserved registers every file carries: two scratches, `rv` and `ra`.
const NUM_RESERVED: usize = 4;

impl ConventionSpec {
    /// The MIPS-family layout of the paper's measurements: 4 argument
    /// registers, 11 caller-saved, 9 callee-saved, with the allocatable
    /// sets restricted to the given per-class counts (Table 2 runs with
    /// (7, 0) and (0, 7)). The argument registers are allocatable only in
    /// the unrestricted configuration, exactly as the paper's compiler
    /// behaves.
    pub fn mips_family(caller_alloc: usize, callee_alloc: usize) -> Self {
        ConventionSpec {
            arg_regs: 4,
            args_allocatable: caller_alloc == 11 && callee_alloc == 9,
            caller_regs: 11,
            caller_alloc,
            callee_regs: 9,
            callee_alloc,
        }
    }

    /// A fully-allocatable convention point for the search mode: a pool of
    /// `pool` registers whose first `caller` are caller-saved (the rest
    /// callee-saved), with the first `args` caller-saved registers doubling
    /// as argument registers. This models sweeping the *software*
    /// convention over fixed hardware: the file's size never changes
    /// within one pool, only the caller/callee partition and the
    /// argument-register count do.
    pub fn convention(pool: usize, caller: usize, args: usize) -> Self {
        assert!(caller <= pool, "caller-saved count exceeds the pool");
        assert!(args <= caller, "argument registers must be caller-saved");
        ConventionSpec {
            arg_regs: args,
            args_allocatable: true,
            caller_regs: caller - args,
            caller_alloc: caller - args,
            callee_regs: pool - caller,
            callee_alloc: pool - caller,
        }
    }

    /// Total registers the spec describes, reserved ones included.
    pub fn num_regs(&self) -> usize {
        NUM_RESERVED + self.arg_regs + self.caller_regs + self.callee_regs
    }

    /// Size of the allocatable set.
    pub fn num_allocatable(&self) -> usize {
        (if self.args_allocatable {
            self.arg_regs
        } else {
            0
        }) + self.caller_alloc
            + self.callee_alloc
    }

    /// Checks the spec fits the machine model.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint: an allocatable
    /// prefix longer than its block, or a file too large for a 32-bit
    /// [`RegMask`].
    pub fn validate(&self) -> Result<(), String> {
        if self.caller_alloc > self.caller_regs {
            return Err(format!(
                "caller_alloc {} exceeds the {} caller-saved registers present",
                self.caller_alloc, self.caller_regs
            ));
        }
        if self.callee_alloc > self.callee_regs {
            return Err(format!(
                "callee_alloc {} exceeds the {} callee-saved registers present",
                self.callee_alloc, self.callee_regs
            ));
        }
        if self.num_regs() > 32 {
            return Err(format!(
                "{} registers do not fit a 32-bit RegMask",
                self.num_regs()
            ));
        }
        Ok(())
    }
}

/// Description of the machine's register file.
///
/// The default layout mirrors the MIPS R2000 as used in the paper (§8):
/// 20 general registers available to the allocator — 11 caller-saved and 9
/// callee-saved — plus 4 argument registers that behave as caller-saved when
/// not carrying parameters, a return-value register, a link register and two
/// assembler scratch registers reserved for memory-resident operands.
/// Other shapes — register-starved files, skewed caller/callee splits,
/// searched conventions — are built from a [`ConventionSpec`].
#[derive(Clone, Debug)]
pub struct RegFile {
    spec: ConventionSpec,
    names: Vec<String>,
    class: Vec<Option<RegClass>>,
    allocatable: Vec<PReg>,
    param_regs: Vec<PReg>,
    ret_reg: PReg,
    scratch: [PReg; 2],
    ra: PReg,
}

impl RegFile {
    /// The full MIPS-like register file (24 allocatable registers: 4 param +
    /// 11 caller-saved + 9 callee-saved).
    pub fn mips_like() -> Self {
        Self::with_class_limits(11, 9)
    }

    /// A register file whose allocatable set is restricted to `caller`
    /// caller-saved and `callee` callee-saved registers (Table 2 runs with
    /// (7, 0) and (0, 7)). The four argument registers remain allocatable
    /// only in the unrestricted configuration.
    ///
    /// # Panics
    ///
    /// Panics when `caller > 11` or `callee > 9`.
    pub fn with_class_limits(caller: usize, callee: usize) -> Self {
        assert!(caller <= 11, "at most 11 caller-saved registers");
        assert!(callee <= 9, "at most 9 callee-saved registers");
        Self::from_spec(ConventionSpec::mips_family(caller, callee))
    }

    /// A fully-allocatable searched convention: see
    /// [`ConventionSpec::convention`].
    ///
    /// # Panics
    ///
    /// Panics when `caller > pool` or `args > caller`, or when the pool
    /// does not fit the machine model.
    pub fn convention(pool: usize, caller: usize, args: usize) -> Self {
        Self::from_spec(ConventionSpec::convention(pool, caller, args))
    }

    /// Builds the register file a [`ConventionSpec`] describes.
    ///
    /// # Panics
    ///
    /// Panics when [`ConventionSpec::validate`] rejects the spec.
    pub fn from_spec(spec: ConventionSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid convention spec: {e}");
        }

        let mut names = Vec::new();
        let mut class = Vec::new();
        let mut push = |n: String, c: Option<RegClass>| -> PReg {
            let r = PReg(names.len() as u8);
            names.push(n);
            class.push(c);
            r
        };

        let scratch0 = push("at0".into(), None);
        let scratch1 = push("at1".into(), None);
        let ret_reg = push("rv".into(), None);
        let ra = push("ra".into(), None);
        let param_regs: Vec<PReg> = (0..spec.arg_regs)
            .map(|i| push(format!("a{i}"), Some(RegClass::CallerSaved)))
            .collect();
        let t_regs: Vec<PReg> = (0..spec.caller_regs)
            .map(|i| push(format!("t{i}"), Some(RegClass::CallerSaved)))
            .collect();
        let s_regs: Vec<PReg> = (0..spec.callee_regs)
            .map(|i| push(format!("s{i}"), Some(RegClass::CalleeSaved)))
            .collect();

        let mut allocatable = Vec::new();
        if spec.args_allocatable {
            allocatable.extend(param_regs.iter().copied());
        }
        allocatable.extend(t_regs.iter().take(spec.caller_alloc));
        allocatable.extend(s_regs.iter().take(spec.callee_alloc));

        RegFile {
            spec,
            names,
            class,
            allocatable,
            param_regs,
            ret_reg,
            scratch: [scratch0, scratch1],
            ra,
        }
    }

    /// The spec this file was built from.
    pub fn spec(&self) -> ConventionSpec {
        self.spec
    }

    /// Stable fingerprint of the whole layout: names, classes, allocatable
    /// order, argument registers and reserved-register positions. Two
    /// files compare equal under allocation (and may share cache entries)
    /// exactly when their fingerprints match; any partition, arg-count or
    /// naming difference separates them.
    pub fn fingerprint(&self) -> u64 {
        let mut h = ipra_ir::Fnv64::new();
        h.write_usize(self.num_regs());
        for i in 0..self.num_regs() {
            let r = PReg(i as u8);
            h.write_str(self.name(r));
            h.write_u8(match self.class(r) {
                None => 0,
                Some(RegClass::CallerSaved) => 1,
                Some(RegClass::CalleeSaved) => 2,
            });
        }
        h.write_usize(self.allocatable.len());
        for r in &self.allocatable {
            h.write_u8(r.0);
        }
        h.write_usize(self.param_regs.len());
        for r in &self.param_regs {
            h.write_u8(r.0);
        }
        h.write_u8(self.ret_reg.0);
        h.write_u8(self.ra.0);
        for s in self.scratch {
            h.write_u8(s.0);
        }
        h.finish()
    }

    /// Total number of registers (allocatable and reserved).
    pub fn num_regs(&self) -> usize {
        self.names.len()
    }

    /// Printable name of `r`.
    pub fn name(&self, r: PReg) -> &str {
        &self.names[r.index()]
    }

    /// Class of `r`; `None` for reserved registers.
    pub fn class(&self, r: PReg) -> Option<RegClass> {
        self.class[r.index()]
    }

    /// Registers the allocator may assign, caller-saved first.
    pub fn allocatable(&self) -> &[PReg] {
        &self.allocatable
    }

    /// Allocatable registers of one class.
    pub fn allocatable_of(&self, c: RegClass) -> impl Iterator<Item = PReg> + '_ {
        self.allocatable
            .iter()
            .copied()
            .filter(move |&r| self.class(r) == Some(c))
    }

    /// The four argument registers of the default convention.
    pub fn param_regs(&self) -> &[PReg] {
        &self.param_regs
    }

    /// Return-value register.
    pub fn ret_reg(&self) -> PReg {
        self.ret_reg
    }

    /// Link register (return address).
    pub fn ra(&self) -> PReg {
        self.ra
    }

    /// The two scratch registers reserved for memory-resident operands.
    pub fn scratch(&self) -> [PReg; 2] {
        self.scratch
    }

    /// Mask of all caller-saved registers that a call under the *default*
    /// convention may clobber: argument registers, all caller-saved
    /// registers, and the return-value register.
    pub fn default_clobbers(&self) -> RegMask {
        let mut m = RegMask::single(self.ret_reg);
        for (i, c) in self.class.iter().enumerate() {
            if *c == Some(RegClass::CallerSaved) {
                m.insert(PReg(i as u8));
            }
        }
        m
    }

    /// Mask of every callee-saved register (used or not).
    pub fn callee_saved_mask(&self) -> RegMask {
        let mut m = RegMask::EMPTY;
        for (i, c) in self.class.iter().enumerate() {
            if *c == Some(RegClass::CalleeSaved) {
                m.insert(PReg(i as u8));
            }
        }
        m
    }
}

impl Default for RegFile {
    fn default() -> Self {
        Self::mips_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_iter_matches_a_filter_over_all_32_positions() {
        let filtered = |m: RegMask| -> Vec<PReg> {
            (0..32u8)
                .filter(|i| m.0 & (1 << i) != 0)
                .map(PReg)
                .collect()
        };
        // xorshift32 over random masks, plus the edge cases.
        let mut state = 0x1234_5678u32;
        let mut masks = vec![0, u32::MAX, 1, 1 << 31, 0x8000_0001, 0x5555_5555];
        for _ in 0..1000 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            masks.push(state);
            masks.push(state & (state >> 7)); // sparser
        }
        for m in masks {
            let m = RegMask(m);
            assert_eq!(m.iter().collect::<Vec<_>>(), filtered(m), "{:#x}", m.0);
        }
    }

    #[test]
    fn mips_like_shape_matches_paper() {
        let rf = RegFile::mips_like();
        let caller = rf.allocatable_of(RegClass::CallerSaved).count();
        let callee = rf.allocatable_of(RegClass::CalleeSaved).count();
        assert_eq!(caller, 15, "11 caller-saved + 4 argument registers");
        assert_eq!(callee, 9);
        assert_eq!(rf.allocatable().len(), 24);
        assert_eq!(rf.param_regs().len(), 4);
        assert!(rf.num_regs() <= 32, "fits a RegMask");
        // Reserved registers are not allocatable or classed.
        assert_eq!(rf.class(rf.ret_reg()), None);
        assert_eq!(rf.class(rf.ra()), None);
        for s in rf.scratch() {
            assert_eq!(rf.class(s), None);
            assert!(!rf.allocatable().contains(&s));
        }
    }

    #[test]
    fn class_limits_for_table2() {
        let d = RegFile::with_class_limits(7, 0);
        assert_eq!(d.allocatable().len(), 7);
        assert!(d.allocatable_of(RegClass::CalleeSaved).next().is_none());
        let e = RegFile::with_class_limits(0, 7);
        assert_eq!(e.allocatable().len(), 7);
        assert!(e.allocatable_of(RegClass::CallerSaved).next().is_none());
        // Param registers exist either way (ABI), just not allocatable.
        assert_eq!(d.param_regs().len(), 4);
    }

    #[test]
    #[should_panic(expected = "at most 11")]
    fn excessive_limit_panics() {
        let _ = RegFile::with_class_limits(12, 0);
    }

    #[test]
    fn default_clobbers_cover_caller_saved_and_rv() {
        let rf = RegFile::mips_like();
        let m = rf.default_clobbers();
        assert!(m.contains(rf.ret_reg()));
        for r in rf.param_regs() {
            assert!(m.contains(*r));
        }
        for r in rf.allocatable_of(RegClass::CalleeSaved) {
            assert!(
                !m.contains(r),
                "callee-saved regs preserved by default convention"
            );
        }
        assert_eq!(rf.callee_saved_mask().count(), 9);
    }

    #[test]
    fn convention_constructor_partitions_the_pool() {
        let rf = RegFile::convention(8, 6, 2);
        assert_eq!(rf.allocatable().len(), 8);
        assert_eq!(rf.param_regs().len(), 2);
        assert_eq!(rf.allocatable_of(RegClass::CallerSaved).count(), 6);
        assert_eq!(rf.allocatable_of(RegClass::CalleeSaved).count(), 2);
        // Argument registers are caller-saved and allocatable.
        for &a in rf.param_regs() {
            assert_eq!(rf.class(a), Some(RegClass::CallerSaved));
            assert!(rf.allocatable().contains(&a));
        }
        // Degenerate but legal corners.
        let all_callee = RegFile::convention(6, 0, 0);
        assert_eq!(all_callee.param_regs().len(), 0);
        assert_eq!(all_callee.allocatable_of(RegClass::CalleeSaved).count(), 6);
        let all_args = RegFile::convention(4, 4, 4);
        assert_eq!(all_args.param_regs().len(), 4);
        assert_eq!(all_args.allocatable().len(), 4);
    }

    #[test]
    fn spec_round_trips_and_validates() {
        let spec = ConventionSpec::convention(8, 6, 2);
        assert_eq!(RegFile::from_spec(spec).spec(), spec);
        assert_eq!(
            RegFile::mips_like().spec(),
            ConventionSpec::mips_family(11, 9)
        );
        assert!(ConventionSpec {
            caller_alloc: 12,
            ..ConventionSpec::mips_family(11, 9)
        }
        .validate()
        .is_err());
        assert!(ConventionSpec::convention(29, 10, 2).validate().is_err());
    }

    #[test]
    fn fingerprint_separates_partitions() {
        let a = RegFile::convention(8, 6, 2);
        assert_eq!(a.fingerprint(), RegFile::convention(8, 6, 2).fingerprint());
        assert_ne!(a.fingerprint(), RegFile::convention(8, 5, 2).fingerprint());
        assert_ne!(a.fingerprint(), RegFile::convention(8, 6, 1).fingerprint());
        assert_ne!(
            RegFile::with_class_limits(7, 0).fingerprint(),
            RegFile::with_class_limits(0, 7).fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "argument registers must be caller-saved")]
    fn convention_rejects_args_beyond_caller() {
        let _ = RegFile::convention(8, 1, 2);
    }

    #[test]
    fn regmask_ops() {
        let mut m = RegMask::EMPTY;
        m.insert(PReg(3));
        m.insert(PReg(17));
        assert!(m.contains(PReg(3)));
        assert_eq!(m.count(), 2);
        let n: RegMask = [PReg(3), PReg(4)].into_iter().collect();
        assert_eq!(m.intersect(n), RegMask::single(PReg(3)));
        assert_eq!((m | n).count(), 3);
        m.remove(PReg(3));
        assert!(!m.contains(PReg(3)));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![PReg(17)]);
    }
}
